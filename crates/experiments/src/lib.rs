//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! Each experiment module produces plain data rows plus a formatted text
//! report so that results can be consumed programmatically (tests, Criterion
//! benches) or read directly from the `repro` binary's output. The mapping
//! from paper figure/table to module is listed in `DESIGN.md`.
//!
//! | Experiment | Function |
//! |---|---|
//! | Figure 1 (PCM lifetime in years vs endurance) | [`lifetime::figure1`] |
//! | Figure 2 (write demographics) | [`writes::figure2`] |
//! | Figure 5 (lifetime relative to PCM-only) | [`lifetime::figure5`] |
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
pub use advise::{profile_then_advise, profile_then_advise_jobs, AdviseResults};
pub use faults::{fault_sweep, FaultResults};
pub use mutators::{mutator_scaling, MutatorResults};
pub use runner::{
    run_jobs, run_jobs_reporting, ExperimentConfig, ExperimentResult, JobFailure, MeasurementMode,
};
pub use traces::{diff_traces, record_traces, replay_traces};
