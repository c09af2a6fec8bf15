//! The profile experiment: `repro profile`.
//!
//! Records one heap-event trace for the chosen benchmark (reusing the
//! trace subsystem, so a current recording is picked up instead of
//! re-recorded) and replays it under every [`REPLAY_COLLECTORS`] entry
//! with the sampled hot-path profiler enabled. The result is a per-stage
//! cost table per collector: exact event counts (cadence-independent and
//! bit-identical across reruns), extrapolated self-time, the share of the
//! replay wall-clock, and per-stage event throughput. Whatever the stages
//! do not attribute (replayer decode, heap logic, GC tracing outside the
//! memory system) is not invented as a row: the report prints attributed ÷
//! wall per collector as a plain number. A second table splits the touch
//! time by execution phase (application vs the GC phases), the profiler's
//! answer to "who is paying for the simulator".

use std::path::Path;
use std::time::Instant;

use hybrid_mem::Phase;
use kingsguard::KingsguardHeap;
use telemetry::{TouchProfile, DEFAULT_SAMPLE_EVERY};
use trace::TraceReplayer;
use workloads::BenchmarkProfile;

use crate::report::TextTable;
use crate::runner::{trace_path, ExperimentConfig};
use crate::traces::{record_traces, sized_config, REPLAY_COLLECTORS};

/// The benchmark `repro profile` drives by default.
pub const DEFAULT_BENCHMARK: &str = "lusearch";

/// One attributed cost row of a collector's table.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Stage label (`page-map`, …).
    pub label: String,
    /// Exact event count.
    pub events: u64,
    /// Estimated self-time in nanoseconds.
    pub self_ns: u64,
    /// Share of the replay wall-clock, in percent.
    pub percent: f64,
    /// Events per second of self-time (0 when untimed).
    pub events_per_sec: f64,
}

/// Touch time attributed to one execution phase.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase label (`application`, `nursery-GC`, …).
    pub label: String,
    /// Exact touch count in this phase.
    pub touches: u64,
    /// Estimated touch time in nanoseconds.
    pub est_ns: u64,
}

/// One collector's replay under the profiler.
#[derive(Clone, Debug)]
pub struct CollectorProfile {
    /// Collector label.
    pub collector: String,
    /// Replay wall-clock in nanoseconds.
    pub wall_ns: u64,
    /// Stage rows, one per simulator stage.
    pub stages: Vec<StageRow>,
    /// Phase rows (phases with zero touches are omitted).
    pub phases: Vec<PhaseRow>,
}

impl CollectorProfile {
    /// Nanoseconds attributed across all stage rows.
    pub fn attributed_ns(&self) -> u64 {
        self.stages.iter().map(|row| row.self_ns).sum()
    }
}

/// Results of `repro profile`.
#[derive(Clone, Debug)]
pub struct ProfileResults {
    /// Benchmark whose trace was replayed.
    pub benchmark: String,
    /// Sampling cadence (every Nth touch is timed).
    pub sample_every: u64,
    /// One entry per replay collector, in [`REPLAY_COLLECTORS`] order.
    pub collectors: Vec<CollectorProfile>,
}

impl ProfileResults {
    /// Formatted report: the per-stage cost table, then the per-phase
    /// attribution table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Hot-path profile: {} replayed under every collector (timed every {} touches)",
                self.benchmark, self.sample_every
            ),
            &["collector", "stage", "events", "self-ms", "%", "events/sec"],
        );
        for collector in &self.collectors {
            for row in &collector.stages {
                table.row(vec![
                    collector.collector.clone(),
                    row.label.clone(),
                    row.events.to_string(),
                    format!("{:.3}", row.self_ns as f64 / 1e6),
                    format!("{:.1}", row.percent),
                    if row.events_per_sec > 0.0 {
                        format!("{:.0}", row.events_per_sec)
                    } else {
                        "-".to_string()
                    },
                ]);
            }
        }
        let mut out = table.render();
        let mut phases = TextTable::new(
            "Touch time by execution phase (extrapolated from the sampled touches)",
            &["collector", "phase", "touches", "est-ms"],
        );
        for collector in &self.collectors {
            for row in &collector.phases {
                phases.row(vec![
                    collector.collector.clone(),
                    row.label.clone(),
                    row.touches.to_string(),
                    format!("{:.3}", row.est_ns as f64 / 1e6),
                ]);
            }
        }
        out.push('\n');
        out.push_str(&phases.render());
        out.push_str("\nattributed stage time ÷ replay wall-clock:");
        for collector in &self.collectors {
            out.push_str(&format!(
                " {} {:.2}",
                collector.collector,
                collector.attributed_ns() as f64 / collector.wall_ns.max(1) as f64
            ));
        }
        out.push('\n');
        out
    }
}

/// Builds the stage and phase rows for one collector from its profile and
/// measured wall-clock.
fn collector_profile(collector: &str, wall_ns: u64, profile: &TouchProfile) -> CollectorProfile {
    let stages = profile
        .stages
        .iter()
        .map(|stage| {
            let self_ns = stage.estimated_self_ns();
            StageRow {
                label: stage.stage.label().to_string(),
                events: stage.events,
                self_ns,
                percent: self_ns as f64 * 100.0 / wall_ns.max(1) as f64,
                events_per_sec: if self_ns > 0 {
                    stage.events as f64 / (self_ns as f64 / 1e9)
                } else {
                    0.0
                },
            }
        })
        .collect();
    let phases = profile
        .phases
        .iter()
        .filter(|p| p.touches > 0)
        .map(|p| PhaseRow {
            label: Phase::ALL
                .get(p.phase)
                .map(|phase| phase.label().to_string())
                .unwrap_or_else(|| format!("phase-{}", p.phase)),
            touches: p.touches,
            est_ns: p.estimated_ns(),
        })
        .collect();
    CollectorProfile {
        collector: collector.to_string(),
        wall_ns,
        stages,
        phases,
    }
}

/// Records (or reuses) `benchmark`'s trace in `dir`, then replays it under
/// every comparison collector with the hot-path profiler timing every
/// `sample_every`-th touch. Pass [`DEFAULT_SAMPLE_EVERY`] unless the run is
/// so short that the default cadence would sample too few touches.
pub fn hot_path_profile(
    config: &ExperimentConfig,
    profile: &BenchmarkProfile,
    dir: &Path,
    sample_every: u64,
) -> ProfileResults {
    let recording_config = sized_config("KG-N", profile, config);
    let path = trace_path(dir, profile.name, &recording_config, config, 1);
    let current = trace::load_trace(&path)
        .ok()
        .filter(crate::runner::trace_site_map_current)
        .filter(|recorded| crate::runner::trace_fault_schedule_current(recorded, config));
    let recorded = match current {
        Some(recorded) => recorded,
        None => {
            record_traces(config, std::slice::from_ref(profile), dir, 1, 1);
            trace::load_trace(&path).unwrap_or_else(|err| panic!("could not load {}: {err}", path.display()))
        }
    };
    let collectors = REPLAY_COLLECTORS
        .iter()
        .map(|label| {
            let heap_config = sized_config(label, profile, config);
            let start = Instant::now();
            let mut heap = KingsguardHeap::new(heap_config, config.memory_config());
            heap.enable_hot_path_profiler(sample_every.max(1));
            TraceReplayer::new(&recorded)
                .replay(&mut heap)
                .unwrap_or_else(|err| panic!("replaying {} under {label} failed: {err}", profile.name));
            let touch_profile = heap.hot_path_profile().expect("profiler enabled");
            drop(heap.finish());
            let wall_ns = start.elapsed().as_nanos() as u64;
            collector_profile(label, wall_ns, &touch_profile)
        })
        .collect();
    ProfileResults {
        benchmark: profile.name.to_string(),
        sample_every: sample_every.max(1),
        collectors,
    }
}

/// [`hot_path_profile`] with the default benchmark and cadence.
pub fn hot_path_profile_default(config: &ExperimentConfig, dir: &Path) -> ProfileResults {
    let profile = workloads::benchmark(DEFAULT_BENCHMARK)
        .unwrap_or_else(|| panic!("unknown default benchmark {DEFAULT_BENCHMARK}"));
    hot_path_profile(config, &profile, dir, DEFAULT_SAMPLE_EVERY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use workloads::benchmark;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgprofile-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn profiles_every_collector_stage_by_stage() {
        let dir = temp_dir("full");
        let config = ExperimentConfig::quick();
        let profile = benchmark("lu.fix").unwrap();
        let results = hot_path_profile(&config, &profile, &dir, 4);
        assert_eq!(results.collectors.len(), REPLAY_COLLECTORS.len());
        for collector in &results.collectors {
            assert_eq!(collector.stages.len(), telemetry::STAGE_COUNT);
            assert!(collector.stages.iter().any(|r| r.events > 0));
            assert!(!collector.phases.is_empty());
        }
        let report = results.report();
        assert!(report.contains("events/sec") && report.contains("÷ replay wall-clock"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_counts_are_deterministic_across_reruns_and_cadences() {
        let dir = temp_dir("det");
        let config = ExperimentConfig::quick();
        let profile = benchmark("lu.fix").unwrap();
        let counts = |results: &ProfileResults| -> Vec<(String, Vec<u64>)> {
            results
                .collectors
                .iter()
                .map(|c| (c.collector.clone(), c.stages.iter().map(|r| r.events).collect()))
                .collect()
        };
        let a = hot_path_profile(&config, &profile, &dir, 4);
        let b = hot_path_profile(&config, &profile, &dir, 97);
        assert_eq!(
            counts(&a),
            counts(&b),
            "per-stage event counts must not depend on the sampling cadence"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
