//! The profile experiment: `repro profile`.
//!
//! Records one heap-event trace for the chosen benchmark (reusing the
//! trace subsystem, so a current recording is picked up instead of
//! re-recorded) and replays it under every [`REPLAY_COLLECTORS`] entry
//! with the hot-path profiler on. The result is two tables of exact
//! counts per collector — events per simulator stage, touches per
//! execution phase (application vs the GC phases) — and the one timing the
//! experiment can stand behind: each replay's whole wall-clock, also as
//! ns per touch. What a single stage costs is `kgbench`'s job
//! (`hybrid-mem.touch_ns.*`). [`ProfileResults::check`] holds the counts to
//! the device counters of the same run.

use std::path::Path;
use std::time::Instant;

use hybrid_mem::{MemoryKind, Phase};
use kingsguard::KingsguardHeap;
use telemetry::{Stage, STAGE_COUNT};
use trace::TraceReplayer;
use workloads::BenchmarkProfile;

use crate::report::TextTable;
use crate::runner::{heap_config_for, trace_path, ExperimentConfig};
use crate::traces::{config_for, record_traces, REPLAY_COLLECTORS};

/// The benchmark `repro profile` drives.
pub const DEFAULT_BENCHMARK: &str = "lusearch";

/// One collector's replay under the profiler, read from the finished run.
#[derive(Clone, Debug)]
pub struct CollectorProfile {
    /// Collector label.
    pub collector: String,
    /// Replay wall-clock in nanoseconds.
    pub wall_ns: u64,
    /// Touches the memory system served.
    pub touches: u64,
    /// Events per simulator stage, in [`Stage::ALL`] order.
    pub stage_events: [u64; STAGE_COUNT],
    /// Touches per execution phase, in [`Phase::ALL`] order.
    pub phase_touches: [u64; Phase::COUNT],
    /// Device reads plus write-backs of the same run (page migrations, which
    /// bypass the touch path, excluded).
    pub device_accesses: u64,
}

impl CollectorProfile {
    /// See [`ProfileResults::check`].
    fn check(&self) -> Result<(), String> {
        let events = |stage: Stage| self.stage_events[stage as usize];
        let (page_map, bookkeeping) = (events(Stage::PageMap), events(Stage::LineBookkeeping));
        let by_phase: u64 = self.phase_touches.iter().sum();
        let identities = [
            (
                "line-bookkeeping events = device reads + write-backs",
                (bookkeeping, self.device_accesses),
                bookkeeping == self.device_accesses,
            ),
            (
                "page-map events >= line-bookkeeping events",
                (page_map, bookkeeping),
                page_map >= bookkeeping,
            ),
            (
                "per-phase touches sum to the touch count",
                (by_phase, self.touches),
                by_phase == self.touches,
            ),
        ];
        match identities.into_iter().find(|&(_, _, holds)| !holds) {
            Some((identity, (left, right), _)) => Err(format!(
                "{}: {identity} is broken: {left} vs {right}",
                self.collector
            )),
            None => Ok(()),
        }
    }
}

/// Results of `repro profile`.
#[derive(Clone, Debug)]
pub struct ProfileResults {
    /// Benchmark whose trace was replayed.
    pub benchmark: String,
    /// One entry per replay collector, in [`REPLAY_COLLECTORS`] order.
    pub collectors: Vec<CollectorProfile>,
}

impl ProfileResults {
    /// Formatted report: events per stage with the replay wall-clock, then
    /// touches per phase.
    pub fn report(&self) -> String {
        let mut header = vec!["collector", "touches"];
        header.extend(Stage::ALL.iter().map(|stage| stage.label()));
        header.extend(["wall-ms", "wall-ns/touch"]);
        let mut stages = TextTable::new(
            &format!(
                "Hot-path profile: {} replayed under every collector (exact events per stage)",
                self.benchmark
            ),
            &header,
        );
        let mut header = vec!["collector"];
        header.extend(Phase::ALL.iter().map(|phase| phase.label()));
        let mut phases = TextTable::new("Touches by execution phase (exact)", &header);
        for collector in &self.collectors {
            let mut row = vec![collector.collector.clone(), collector.touches.to_string()];
            row.extend(collector.stage_events.iter().map(u64::to_string));
            row.push(format!("{:.3}", collector.wall_ns as f64 / 1e6));
            row.push(format!(
                "{:.1}",
                collector.wall_ns as f64 / collector.touches.max(1) as f64
            ));
            stages.row(row);
            let mut row = vec![collector.collector.clone()];
            row.extend(collector.phase_touches.iter().map(u64::to_string));
            phases.row(row);
        }
        format!("{}\n{}", stages.render(), phases.render())
    }

    /// Holds every collector's counts to the device counters of its own
    /// run: line-bookkeeping events = device reads + write-backs, page-map
    /// events ≥ line-bookkeeping events, per-phase touches sum to the touch
    /// count. The error names the collector and the two numbers.
    pub fn check(&self) -> Result<(), String> {
        self.collectors.iter().try_for_each(CollectorProfile::check)
    }
}

/// Records (or reuses) `benchmark`'s trace in `dir`, then replays it under
/// every comparison collector with telemetry and the hot-path profiler on,
/// reading the counts from each finished run's report.
pub fn hot_path_profile(config: &ExperimentConfig, profile: &BenchmarkProfile, dir: &Path) -> ProfileResults {
    let recording_config = heap_config_for(profile, config_for("KG-N"), config);
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
            let heap_config = heap_config_for(profile, config_for(label), config);
            let start = Instant::now();
            let mut heap = KingsguardHeap::new(heap_config, config.memory_config());
            heap.enable_telemetry();
            heap.enable_hot_path_profiler(telemetry::DEFAULT_SAMPLE_EVERY);
            TraceReplayer::new(&recorded)
                .replay(&mut heap)
                .unwrap_or_else(|err| panic!("replaying {} under {label} failed: {err}", profile.name));
            let report = heap.finish();
            let wall_ns = start.elapsed().as_nanos() as u64;
            let counters = report.telemetry.expect("telemetry enabled");
            let counter = |name: &str| {
                counters
                    .counter(name)
                    .unwrap_or_else(|| panic!("{label}: the finished run has no {name} counter"))
            };
            CollectorProfile {
                collector: label.to_string(),
                wall_ns,
                touches: counter("profile.touches"),
                stage_events: Stage::ALL.map(|stage| counter(&format!("profile.events.{}", stage.label()))),
                phase_touches: Phase::ALL.map(|phase| counter(&format!("profile.touches.{}", phase.label()))),
                device_accesses: report.memory.total_reads()
                    + report.memory.writeback_writes(MemoryKind::Dram)
                    + report.memory.writeback_writes(MemoryKind::Pcm),
            }
        })
        .collect();
    ProfileResults {
        benchmark: profile.name.to_string(),
        collectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark;

    #[test]
    fn profiles_every_collector_exactly_and_the_gate_can_fail() {
        let dir = std::env::temp_dir().join(format!("kgprofile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Behind the caches, where the end-of-run flush is part of the count.
        let config = ExperimentConfig {
            mode: crate::MeasurementMode::Simulation,
            ..ExperimentConfig::quick()
        };
        let profile = benchmark("lu.fix").unwrap();
        let results = hot_path_profile(&config, &profile, &dir);
        assert_eq!(results.collectors.len(), REPLAY_COLLECTORS.len());
        assert!(results.collectors.iter().all(|c| c.touches > 0));
        assert_eq!(results.check(), Ok(()));
        let report = results.report();
        assert!(report.contains("line-bookkeeping") && report.contains("wall-ns/touch"));
        assert!(report.contains("nursery-GC"));

        // Reruns reproduce every count.
        let counts = |results: &ProfileResults| -> Vec<_> {
            results
                .collectors
                .iter()
                .map(|c| (c.touches, c.stage_events, c.phase_touches, c.device_accesses))
                .collect()
        };
        assert_eq!(
            counts(&results),
            counts(&hot_path_profile(&config, &profile, &dir))
        );

        // Negative control: one stage count off by one trips the gate, and
        // the message names the collector and both numbers.
        let mut doctored = results.clone();
        doctored.collectors[3].stage_events[Stage::LineBookkeeping as usize] += 1;
        let victim = &doctored.collectors[3];
        let message = doctored.check().unwrap_err();
        assert_eq!(
            message,
            format!(
                "{}: line-bookkeeping events = device reads + write-backs is broken: {} vs {}",
                victim.collector,
                victim.device_accesses + 1,
                victim.device_accesses
            )
        );
        let mut doctored = results.clone();
        doctored.collectors[0].phase_touches[0] -= 1;
        assert!(doctored.check().unwrap_err().contains("per-phase touches"));
        let mut doctored = results;
        doctored.collectors[5].stage_events[Stage::PageMap as usize] = 0;
        assert!(doctored.check().unwrap_err().contains("page-map events >="));
        std::fs::remove_dir_all(&dir).ok();
    }
}
