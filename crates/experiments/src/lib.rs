//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! Each experiment module produces plain data rows plus a formatted text
//! report so that results can be consumed programmatically (tests, Criterion
//! benches) or read directly from the `repro` binary's output. Every
//! experiment reads its runs from one [`Matrix`], which runs each distinct
//! (benchmark, collector, mode, ...) [`runner::Cell`] once, so the figures
//! that compare the same collectors share their runs.
//!
//! | Experiment | Function |
//! |---|---|
//! | Figure 1 (PCM lifetime in years vs endurance) | [`lifetime::run`] |
//! | Figure 2 (write demographics) | [`writes::figure2`] |
//! | Figure 5 (lifetime relative to PCM-only) | [`lifetime::run`] |
//! | Figure 6 (PCM writes relative to PCM-only) | [`writes::figure6`] |
//! | Figure 7 (comparison with OS Write Partitioning) | [`writes::figure7`] |
//! | Figure 8 (energy-delay product) | [`energy_time::figure8`] |
//! | Figure 9 (KG-W overhead breakdown) | [`energy_time::figure9`] |
//! | Figure 10 (origin of PCM writes) | [`writes::figure10`] |
//! | Figure 11 (application PCM writes, architecture-independent) | [`writes::figure11`] |
//! | Figure 12 (execution time relative to KG-N) | [`energy_time::figure12`] |
//! | Figure 13 (heap composition over time) | [`composition::figure13`] |
//! | Table 1 (collector configurations) | [`tables::table1`] |
//! | Table 2 (simulated system parameters) | [`tables::table2`] |
//! | Table 3 (write-rate scaling) | [`tables::table3`] |
//! | Table 4 (object demographics) | [`tables::table4`] |
//! | The headline claims, side by side | [`headline`] |
//!
//! Beyond the paper, [`advise`] implements the two-phase profile→advise
//! pipeline — a profiling run records per-site write profiles to disk and a
//! second run replays them through the profile-guided KG-A collector — and
//! [`adaptive`] compares the online-adaptive KG-D collector (no profiling
//! run, no observer space) against the paper's collectors. Both fan their
//! embarrassingly parallel (benchmark, collector) pairs over worker threads
//! via [`runner::run_jobs`] (`repro --jobs N`).
//!
//! The [`traces`] module exposes the heap-event trace subsystem
//! (`repro trace record|replay|diff`): record each benchmark's mutator
//! stream once as a `.kgtrace`, replay it bit-identically under every
//! collector, and diff two traces on aggregate PCM writes and wear
//! uniformity. Setting [`ExperimentConfig::trace_dir`] (`repro --trace-dir`)
//! makes every figure/table experiment trace-backed: record on first use,
//! replay afterwards. [`cli`] is the shared `repro` argument parser
//! (`repro --help` lists every experiment).
//!
//! [`faults`] sweeps deterministic PCM fault injection (`repro faults`):
//! accelerated line wear-out at every endurance level under every
//! collector, reporting failed lines, ECC-uncorrectable page retirements,
//! capacity degradation, years-to-first-uncorrectable and per-collector
//! survival. Experiment cells are crash-isolated ([`run_jobs_reporting`]):
//! one panicking (benchmark, collector) pair becomes a per-cell failure
//! report instead of aborting its siblings.
//!
//! [`fleet`] scales all of the above from one heap to a server's worth
//! (`repro fleet`): hundreds of tenant heap sessions over worker threads,
//! compared under naive round-robin vs wear-levelled device placement,
//! with the shared advice store warm-starting repeat KG-D tenants.
//!
//! [`check`] wires the `kingsguard-check` sanitizer into the harness
//! (`repro check`): the shadow-heap checker runs across every collector on
//! synthetic and streaming workloads, and the deliberately broken mutators
//! from [`workloads::broken`] prove each violation class is detected.
//! `repro trace check` statically verifies a recorded `.kgtrace` (grammar,
//! handle lifetimes, vector-clock race detection).

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod advise;
pub mod check;
pub mod cli;
pub mod composition;
pub mod energy_time;
pub mod faults;
pub mod fleet;
pub mod lifetime;
pub mod mutators;
pub mod profile;
pub mod report;
pub mod runner;
pub mod tables;
pub mod traces;
pub mod writes;

pub use self::check::{broken_sweep, check_sweep, run_benchmark_checked, BrokenResults, CheckResults};
pub use self::fleet::{fleet_comparison, FleetResults};
pub use self::profile::{hot_path_profile, ProfileResults};
pub use adaptive::{adaptive_comparison, AdaptiveResults};
pub use advise::{profile_then_advise, AdviseResults};
pub use faults::{fault_sweep, FaultResults};
pub use mutators::{mutator_scaling, MutatorResults};
pub use runner::{
    run_jobs, run_jobs_reporting, Cell, ExperimentConfig, ExperimentResult, JobFailure, Matrix,
    MeasurementMode,
};
pub use traces::{diff_traces, record_traces, replay_traces};

/// The benchmarks of the advise, adaptive and mutators comparisons: the
/// paper's simulation subset (Figures 5–10).
pub fn default_benchmarks() -> Vec<&'static str> {
    workloads::simulated_benchmarks().iter().map(|p| p.name).collect()
}

/// The paper's headline claims beside this reproduction's values, read
/// from Figures 1/5, 7, 8 and 11: on a matrix that already ran those, it
/// adds no run. `sim` and `hw` are the simulation-mode and
/// architecture-independent configurations.
pub fn headline(matrix: &Matrix, sim: &ExperimentConfig, hw: &ExperimentConfig) -> String {
    let life = lifetime::run(matrix, sim);
    let wp = writes::figure7(matrix, sim);
    let hwv = writes::figure11(matrix, hw);
    let edp = energy_time::figure8(matrix, sim);
    format!(
        "Headline results (paper's claims in parentheses)\n\
         KG-N lifetime improvement over PCM-only: {:.1}x (paper: ~5x)\n\
         KG-W lifetime improvement over PCM-only: {:.1}x (paper: ~11x)\n\
         KG-N PCM writes vs PCM-only: {:.2} (paper: ~0.19)\n\
         KG-W PCM writes vs PCM-only: {:.2} (paper: ~0.09)\n\
         WP PCM writes vs PCM-only: {:.2} (paper: ~0.31)\n\
         KG-W application PCM writes vs KG-N: {:.2} (paper: ~0.20)\n\
         KG-N EDP vs DRAM-only: {:.2} (paper: ~0.64)\n\
         KG-W EDP vs DRAM-only: {:.2} (paper: ~0.68)\n",
        life.average_kg_n_improvement(),
        life.average_kg_w_improvement(),
        wp.average_kg_n(),
        wp.average_kg_w(),
        wp.average_wp(),
        hwv.average_kg_w(),
        edp.average_kg_n(),
        edp.average_kg_w(),
    )
}
