//! `repro check`: the runtime-sanitizer sweep.
//!
//! Installs the `kingsguard-check` shadow-heap sanitizer on every collector
//! and drives it through a synthetic DaCapo mutator and the streaming
//! graph-analytics workload, proving the collector invariants hold on the
//! exact code paths the paper's figures exercise. The companion
//! [`broken_sweep`] runs the deliberately broken mutators from
//! [`workloads::broken`] and asserts each one trips exactly its intended
//! violation class — the sanitizer's own negative test, wired into CI with
//! an inverted exit code.

use check::{CheckReport, SanitizerHandle};
use kingsguard::{HeapConfig, KingsguardHeap};
use workloads::{
    benchmark, BenchmarkProfile, BrokenFixture, StreamingConfig, StreamingWorkload, ALL_FIXTURES,
};

use crate::report::TextTable;
use crate::runner::{run_jobs, Cell, ExperimentConfig, ExperimentResult};
use crate::traces::{config_for, REPLAY_COLLECTORS};

/// The synthetic benchmark the sweep drives on every collector: lusearch is
/// the paper's highest-allocation-rate workload and exercises the
/// large-object path.
pub const SWEEP_BENCHMARK: &str = "lusearch";

/// Runs `profile` under `heap_config` with the shadow-heap sanitizer
/// installed, returning both the usual experiment result and the
/// sanitizer's report. The sanitizer only observes (event stream + passive
/// inspection), so the result is bit-identical to the
/// [`Matrix`](crate::runner::Matrix) run of the same [`Cell`]. It runs
/// outside the matrix: a matrix keeps results, not the sanitizer reports
/// only this sweep reads.
pub fn run_benchmark_checked(
    profile: &BenchmarkProfile,
    heap_config: HeapConfig,
    config: &ExperimentConfig,
) -> (ExperimentResult, CheckReport) {
    let mut sanitizer = None;
    let result = Cell::new(profile, heap_config, config)
        .execute(|heap| sanitizer = Some(SanitizerHandle::install(heap)));
    // The run's `finish` ran the finish checkpoint and dropped the
    // installed forwarder with the heap.
    let report = sanitizer
        .expect("the sanitizer is attached before the run")
        .report();
    (result, report)
}

/// Runs the streaming graph-analytics workload under `heap_config` with the
/// sanitizer installed (K mutator contexts, chunked store buffers — the
/// multi-context checkpoint paths the synthetic driver doesn't reach).
pub fn run_streaming_checked(heap_config: HeapConfig, config: &ExperimentConfig) -> CheckReport {
    let mut heap = KingsguardHeap::new(
        heap_config.with_heap_budget(workloads::STREAMING_HEAP_BUDGET_BYTES),
        hybrid_mem::MemoryConfig::architecture_independent(),
    );
    heap.enable_telemetry();
    let handle = SanitizerHandle::install(&mut heap);
    let workload = StreamingWorkload::new(StreamingConfig {
        seed: config.seed,
        scale: config.scale,
        ..Default::default()
    });
    workload.run(&mut heap);
    heap.finish();
    handle.report()
}

/// One (workload, collector) cell of the sanitizer sweep.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Workload name (`lusearch` or `streaming`).
    pub workload: String,
    /// Collector label.
    pub collector: String,
    /// The sanitizer's report for the run.
    pub report: CheckReport,
}

/// Results of [`check_sweep`].
#[derive(Clone, Debug)]
pub struct CheckResults {
    /// One row per (workload, collector) pair, collectors in
    /// [`REPLAY_COLLECTORS`] order.
    pub rows: Vec<CheckRow>,
}

impl CheckResults {
    /// Total violations across the sweep.
    pub fn violations(&self) -> usize {
        self.rows.iter().map(|row| row.report.violations.len()).sum()
    }

    /// Renders the sweep as a text table, followed by one line per
    /// violation when any invariant was falsified.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Sanitizer sweep: shadow-heap verification per collector",
            &[
                "benchmark",
                "collector",
                "checkpoints",
                "events",
                "objects verified",
                "violations",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.workload.clone(),
                row.collector.clone(),
                row.report.checkpoints.to_string(),
                row.report.events.to_string(),
                row.report.objects_verified.to_string(),
                if row.report.is_clean() {
                    "none".to_string()
                } else {
                    format!(
                        "{} ({})",
                        row.report.violations.len(),
                        row.report.kinds().join(", ")
                    )
                },
            ]);
        }
        let mut out = table.render();
        for row in &self.rows {
            for violation in &row.report.violations {
                out.push_str(&format!("{}/{}: {violation}\n", row.workload, row.collector));
            }
        }
        out
    }
}

/// Runs the shadow-heap sanitizer across every collector label in
/// [`REPLAY_COLLECTORS`], each driving the [`SWEEP_BENCHMARK`] synthetic
/// mutator and the streaming workload, fanned over `config.jobs` threads.
pub fn check_sweep(config: &ExperimentConfig) -> CheckResults {
    let profile = benchmark(SWEEP_BENCHMARK).unwrap_or_else(|| panic!("unknown benchmark {SWEEP_BENCHMARK}"));
    let jobs: Vec<(&str, &str)> = REPLAY_COLLECTORS
        .iter()
        .flat_map(|&label| [(SWEEP_BENCHMARK, label), ("streaming", label)])
        .collect();
    let rows = run_jobs(&jobs, config.jobs, |&(workload, label)| {
        let report = if workload == "streaming" {
            run_streaming_checked(config_for(label), config)
        } else {
            run_benchmark_checked(&profile, config_for(label), config).1
        };
        CheckRow {
            workload: workload.to_string(),
            collector: label.to_string(),
            report,
        }
    });
    CheckResults { rows }
}

/// One broken fixture's outcome.
#[derive(Clone, Debug)]
pub struct BrokenRow {
    /// The fixture that ran.
    pub fixture: BrokenFixture,
    /// The distinct violation kinds the sanitizer reported.
    pub kinds: Vec<&'static str>,
    /// The sanitizer's full report.
    pub report: CheckReport,
}

impl BrokenRow {
    /// `true` when the sanitizer reported exactly the fixture's expected
    /// violation kinds — no misses, no collateral noise.
    pub fn detected(&self) -> bool {
        self.kinds == self.fixture.expected_kinds()
    }
}

/// Results of [`broken_sweep`].
#[derive(Clone, Debug)]
pub struct BrokenResults {
    /// One row per fixture, in [`ALL_FIXTURES`] order.
    pub rows: Vec<BrokenRow>,
}

impl BrokenResults {
    /// `true` when every fixture tripped exactly its expected violations.
    pub fn all_detected(&self) -> bool {
        self.rows.iter().all(BrokenRow::detected)
    }

    /// Renders the fixture outcomes as a text table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Broken fixtures: each must trip exactly its expected violation",
            &["fixture", "expected", "reported", "verdict"],
        );
        for row in &self.rows {
            table.row(vec![
                row.fixture.name().to_string(),
                row.fixture.expected_kinds().join(", "),
                if row.kinds.is_empty() {
                    "none".to_string()
                } else {
                    row.kinds.join(", ")
                },
                if row.detected() {
                    "detected".to_string()
                } else {
                    "MISSED".to_string()
                },
            ]);
        }
        table.render()
    }
}

/// Runs one broken fixture on a fresh sanitized heap and returns the
/// sanitizer's report.
pub fn run_broken_fixture(fixture: BrokenFixture) -> CheckReport {
    let mut heap = KingsguardHeap::new(
        fixture.config(),
        hybrid_mem::MemoryConfig::architecture_independent(),
    );
    let handle = SanitizerHandle::install(&mut heap);
    fixture.run(&mut heap);
    handle.finish(&mut heap)
}

/// Runs every [`BrokenFixture`] under the sanitizer. A fixture whose
/// violation goes unreported (or over-reported) is a sanitizer bug.
pub fn broken_sweep() -> BrokenResults {
    let rows = ALL_FIXTURES
        .iter()
        .map(|&fixture| {
            let report = run_broken_fixture(fixture);
            BrokenRow {
                fixture,
                kinds: report.kinds(),
                report,
            }
        })
        .collect();
    BrokenResults { rows }
}
