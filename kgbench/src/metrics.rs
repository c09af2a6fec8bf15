//! The metric catalogue: every name `kgbench` can print, declared once.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! keeps the two in step). The catalogue additionally records what the
//! contract file has no key for: which layer (crate) a per-layer metric
//! belongs to, whether it is an exact simulated count or a host-time
//! measurement, and which end-to-end metric it is expected to move on which
//! workloads.

use std::collections::BTreeMap;

use crate::stats::{median, undisturbed, Summary};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: Option<f64>,
    /// `true` for simulated statistics that repeat bit-for-bit for a fixed
    /// seed; `false` for host-time (or host-memory) measurements.
    pub exact: bool,
    /// End-to-end metrics this metric is expected to move (empty for
    /// end-to-end metrics themselves and for pure guards).
    pub moves: &'static [&'static str],
    /// Workloads on which it is measured (`"*"` = all).
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["*"];
const REPLAY: &[&str] = &["replay-mutator", "replay-gc"];
const CELLS: &[&str] = &["replay-mutator", "replay-gc", "live-sim-k4"];
const LIVE: &[&str] = &["live-sim-k4"];
const FLEET: &[&str] = &["fleet"];

const EPS: &[&str] = &["events_per_sec"];
const SETUP: &[&str] = &["setup_s"];
const SIM: &[&str] = &["sim_pcm_writes_per_event"];
const NONE: &[&str] = &[];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
        moves: NONE,
        on: ALL,
    }
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        moves,
        on,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by `--trace 0` runs on every workload.
///
/// The host-time bounds are the contract's maximum. The host this was sized
/// on is a shared 2-vCPU VM whose memory system is contended in bursts and
/// in phases of a minute or more: even read at the undisturbed quantile,
/// `events_per_sec` spreads 3–17 % over ten runs (README, "Measured
/// spread"). A tighter bound would reject changes at random.
pub const END_TO_END: &[MetricSpec] = &[
    // Events retired per pass ÷ undisturbed pass wall-clock (host time).
    end_to_end("events_per_sec", "1/s", Higher, 0.25, false),
    // Median wall-clock of one full set-up (record, encode, output checks,
    // warm-up) — work moved out of the timed passes shows here.
    end_to_end("setup_s", "s", Lower, 0.25, false),
    // VmHWM when the single-threaded part of the run ends: at exit, except
    // on `fleet`, where it is read after the first serial run (thread timing
    // moves the parallel runs' peak by a quarter).
    end_to_end("peak_rss_mb", "MB", Lower, 0.10, false),
    // Simulated PCM line writes per simulated event, over everything a pass
    // runs: summed over the six collectors ÷ (6 × trace events) on the
    // six-collector workloads, over all tenant sessions ÷ touch events on
    // `fleet`. Exact for a fixed seed — any change to what the simulator
    // computes moves it; the bound covers only seed-to-seed spread.
    end_to_end("sim_pcm_writes_per_event", "writes/event", Lower, 0.25, true),
];

/// Per-layer metrics, printed by `--trace 1` runs (0 where a layer is not on
/// the workload's path).
pub const PER_LAYER: &[MetricSpec] = &[
    // --- trace ---------------------------------------------------------
    host("trace.decode_s", "s", Lower, EPS, REPLAY),
    host("trace.decode_events_per_sec", "1/s", Higher, EPS, REPLAY),
    host("trace.record_s", "s", Lower, SETUP, CELLS),
    host("trace.encode_s", "s", Lower, SETUP, CELLS),
    exact("trace.bytes_per_event", "B", SETUP, CELLS),
    // --- kingsguard (collector + heap spaces) --------------------------
    host("kingsguard.mutator_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc_share", "ratio", Lower, EPS, CELLS),
    host("kingsguard.gc.nursery.roots_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.nursery.remset_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.nursery.copy_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.observer.roots_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.observer.remset_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.observer.trace_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.observer.copy_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.observer.patch_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.major.prepare_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.major.roots_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.major.trace_s", "s", Lower, EPS, CELLS),
    host("kingsguard.gc.major.sweep_s", "s", Lower, EPS, CELLS),
    host("kingsguard.pause_p50_us", "us", Lower, EPS, ALL),
    host("kingsguard.pause_max_us", "us", Lower, EPS, ALL),
    host("kingsguard.cell_s.DRAM-only", "s", Lower, EPS, CELLS),
    host("kingsguard.cell_s.PCM-only", "s", Lower, EPS, CELLS),
    host("kingsguard.cell_s.KG-N", "s", Lower, EPS, CELLS),
    host("kingsguard.cell_s.KG-W", "s", Lower, EPS, CELLS),
    host("kingsguard.cell_s.KG-A", "s", Lower, EPS, CELLS),
    host("kingsguard.cell_s.KG-D", "s", Lower, EPS, CELLS),
    exact("kingsguard.collections.nursery", "count", SIM, CELLS),
    exact("kingsguard.collections.observer", "count", SIM, CELLS),
    exact("kingsguard.collections.major", "count", SIM, CELLS),
    exact("kingsguard.remset_insertions", "count", SIM, CELLS),
    exact("kingsguard.bytes_copied", "B", SIM, CELLS),
    exact("kingsguard.rescues", "count", SIM, CELLS),
    exact("kingsguard.demotions", "count", SIM, CELLS),
    exact("kingsguard.kgn_pcm_writes_vs_pcm_only", "ratio", SIM, CELLS),
    exact("kingsguard.kgw_pcm_writes_vs_pcm_only", "ratio", SIM, CELLS),
    exact("kingsguard.kgw_time_vs_kgn", "ratio", SIM, CELLS),
    // --- hybrid-mem ----------------------------------------------------
    exact("hybrid-mem.touches", "count", EPS, CELLS),
    exact("hybrid-mem.touches_per_event", "ratio", EPS, CELLS),
    exact("hybrid-mem.stage_events.page-map", "count", EPS, CELLS),
    exact("hybrid-mem.stage_events.cache-model", "count", EPS, CELLS),
    exact("hybrid-mem.stage_events.line-bookkeeping", "count", EPS, CELLS),
    exact("hybrid-mem.stage_events.backing-store", "count", EPS, CELLS),
    exact("hybrid-mem.stage_events.wear-tracking", "count", EPS, CELLS),
    MetricSpec {
        better: Higher,
        ..exact("hybrid-mem.cache_hit_rate", "ratio", SIM, LIVE)
    },
    exact("hybrid-mem.pcm_writes.DRAM-only", "count", SIM, CELLS),
    exact("hybrid-mem.pcm_writes.PCM-only", "count", SIM, CELLS),
    exact("hybrid-mem.pcm_writes.KG-N", "count", SIM, CELLS),
    exact("hybrid-mem.pcm_writes.KG-W", "count", SIM, CELLS),
    exact("hybrid-mem.pcm_writes.KG-A", "count", SIM, CELLS),
    exact("hybrid-mem.pcm_writes.KG-D", "count", SIM, CELLS),
    host("hybrid-mem.touch_ns.nocache", "ns", Lower, EPS, REPLAY),
    host("hybrid-mem.touch_ns.cache", "ns", Lower, EPS, LIVE),
    host("hybrid-mem.touch_ns.wear", "ns", Lower, EPS, FLEET),
    host("hybrid-mem.est_touch_share", "ratio", Lower, EPS, CELLS),
    // --- workloads -----------------------------------------------------
    host("workloads.generate_s", "s", Lower, EPS, LIVE),
    // --- fleet ---------------------------------------------------------
    host("fleet.wall_s.jobs1", "s", Lower, EPS, FLEET),
    host("fleet.wall_s.jobsN", "s", Lower, EPS, FLEET),
    host("fleet.cpu_s.jobs1", "s", Lower, EPS, FLEET),
    host("fleet.cpu_s.jobsN", "s", Lower, EPS, FLEET),
    host("fleet.cpu_inflation", "ratio", Lower, EPS, FLEET),
    host("fleet.jobs_speedup", "x", Higher, EPS, FLEET),
    exact("fleet.retired_pages", "count", SIM, FLEET),
    exact("fleet.failed_lines", "count", SIM, FLEET),
    exact("fleet.warm_starts", "count", SIM, FLEET),
    exact("fleet.cold_starts", "count", SIM, FLEET),
    exact("fleet.tenant_failures", "count", NONE, FLEET),
    exact("fleet.retired_pages_vs_round_robin", "ratio", SIM, FLEET),
    exact("fleet.warm_pcm_write_ratio", "ratio", SIM, FLEET),
    // --- telemetry (instrument cost; nothing when off) -----------------
    host("telemetry.overhead_pct", "%", Lower, NONE, CELLS),
    host("telemetry.profiler_overhead_pct", "%", Lower, NONE, CELLS),
    // --- check ---------------------------------------------------------
    host("check.sanitizer_slowdown_x", "x", Lower, NONE, CELLS),
    host("check.analyze_events_per_sec", "1/s", Higher, NONE, CELLS),
    exact("check.violations", "count", NONE, CELLS),
    // --- advice --------------------------------------------------------
    exact("advice.kga_pcm_writes_vs_kgn", "ratio", SIM, CELLS),
    exact("advice.kgd_pcm_writes_vs_kgn", "ratio", SIM, CELLS),
];

/// Looks `name` up in both tables.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|spec| spec.name == name)
}

/// One measured value, with the summary of the samples behind it when it is
/// a median of repeated host-time samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Quartiles and sample count, in the metric's own unit.
    pub summary: Option<Summary>,
}

/// The values measured by one run, keyed by catalogue name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, Measured>);

impl Values {
    /// Records a single measured value.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue or `value` is not finite
    /// (both harness bugs).
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// Records the median of `samples` together with their quartiles: for
    /// ratios, differences and the few set-up times.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set_measured(name, median(samples), samples);
    }

    /// Records repeated timings of identical work: the value is their
    /// [`undisturbed`] quantile, the summary their median and quartiles.
    pub fn set_times(&mut self, name: &str, samples: &[f64]) {
        self.set_measured(name, undisturbed(samples), samples);
    }

    /// Records `value` with the summary of the `samples` it was derived from.
    pub fn set_measured(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.insert(name, value, Summary::of(samples));
    }

    fn insert(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let spec = spec(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(spec.name, Measured { value, summary });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }
}
