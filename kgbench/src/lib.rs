//! `kgbench`: the repository's performance contract.
//!
//! One benchmark, four workloads, end-to-end and per-layer metrics. Every
//! run first checks the simulator's outputs, then measures; `--trace 0`
//! reports the end-to-end metrics of `BENCHMARK.json` with every instrument
//! off, `--trace 1` the per-layer metrics from separately traced passes.
//! See `README.md` beside this crate for the glossary and the reasons
//! behind each workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod compare;
pub mod fleetload;
pub mod harness;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod spans;
pub mod stats;

use cells::{CellSpec, Memory};
use fleetload::FleetSpec;
use harness::{RunOptions, RunOutcome, Tally};
use spans::SpanLog;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Cells(CellSpec),
    Fleet(FleetSpec),
}

/// The four workloads. Sizes are chosen so that one pass takes about a
/// second on two cores: the driver's time cap leaves ~35 s per run, three
/// set-ups included.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "replay-mutator",
        why: "lusearch replayed under six collectors: mutator/barrier/touch- and decode-bound, GC under 10 %; \
              a GC-only change must not move it",
        kind: Kind::Cells(CellSpec {
            benchmark: "lusearch",
            scale: 512,
            memory: Memory::ArchitectureIndependent,
            mutators: 1,
            live: false,
        }),
    },
    Workload {
        name: "replay-gc",
        why: "pmd replayed under six collectors: high nursery/observer survival puts ~40 % of the time in \
              collect + heap spaces; the mirror image of replay-mutator",
        kind: Kind::Cells(CellSpec {
            benchmark: "pmd",
            scale: 48,
            memory: Memory::ArchitectureIndependent,
            mutators: 1,
            live: false,
        }),
    },
    Workload {
        name: "live-sim-k4",
        why: "xalan run live with 4 mutators behind the scaled cache hierarchy: cache model, SSB drains, shard \
              merges and workload generation on the path; a page-map win should barely move it",
        kind: Kind::Cells(CellSpec {
            benchmark: "xalan",
            scale: 192,
            memory: Memory::Simulated,
            mutators: 4,
            live: true,
        }),
    },
    Workload {
        name: "fleet",
        why: "64 short tenant sessions with faults and per-line wear on a shared device at jobs=nproc: the \
              short-cell regime and the only multi-threaded path",
        kind: Kind::Fleet(FleetSpec {
            tenants: 64,
            scale: 4096,
        }),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

impl Workload {
    /// Runs the workload: output checks, then measurement. `Err` is a usage
    /// error (an injection the workload cannot express).
    pub fn run(&self, options: &RunOptions) -> Result<RunOutcome, String> {
        let mut spans = SpanLog::new();
        let mut tally = Tally::default();
        spans.enter(self.name);
        let measurement = match (&self.kind, options.traced) {
            (Kind::Cells(spec), false) => cells::run_end_to_end(spec, options, &mut spans, &mut tally),
            (Kind::Cells(spec), true) => cells::run_traced(spec, options, &mut spans, &mut tally),
            (Kind::Fleet(spec), false) => fleetload::run_end_to_end(spec, options, &mut spans, &mut tally)?,
            (Kind::Fleet(spec), true) => fleetload::run_traced(spec, options, &mut spans, &mut tally)?,
        };
        spans.exit();
        Ok(RunOutcome {
            tally,
            spans,
            measurement,
        })
    }
}
