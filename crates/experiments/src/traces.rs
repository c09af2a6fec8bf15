//! The trace experiment: `repro trace record|replay|diff`.
//!
//! * **record** — runs every simulated benchmark once (under KG-N, purely
//!   as the workload vehicle: the recorded op stream is collector-
//!   independent) and persists one `.kgtrace` per benchmark.
//! * **replay** — replays each recorded trace under every collector of the
//!   comparison set and reports the replayed PCM/DRAM writes and wall-clock
//!   time. With verification enabled, each replay is checked bit-identical
//!   against that collector's live run and the live wall-clock is reported
//!   next to the replay wall-clock — the record-once-replay-many speedup.
//! * **diff** — replays two traces under one collector with per-line write
//!   tracking enabled and compares them: aggregate PCM/DRAM writes *and*
//!   wear uniformity (lines written, max line writes, coefficient of
//!   variation from [`hybrid_mem::wear::WearTracker`]), so two workloads —
//!   or two recordings of an evolving workload — can be compared on how
//!   they would age a PCM device, not just on how much they write.

use std::path::{Path, PathBuf};
use std::time::Instant;

use advice::AdviceTable;
use hybrid_mem::wear::WearSummary;
use hybrid_mem::{MemoryConfig, MemoryKind, MemorySystem};
use kingsguard::{HeapConfig, KingsguardHeap, MutatorConfig};
use trace::{Trace, TraceError, TraceReplayer};
use workloads::{BenchmarkProfile, SyntheticMutator};

use crate::report::TextTable;
use crate::runner::{current_trace, run_jobs, trace_path, ExperimentConfig};

/// Collector labels of the replay comparison, in row order per benchmark.
pub const REPLAY_COLLECTORS: [&str; 6] = ["DRAM-only", "PCM-only", "KG-N", "KG-W", "KG-A", "KG-D"];

/// Heap configuration for one replay-comparison collector label.
pub fn config_for(label: &str) -> HeapConfig {
    match label {
        "DRAM-only" => HeapConfig::gen_immix_dram(),
        "PCM-only" => HeapConfig::gen_immix_pcm(),
        "KG-N" => HeapConfig::kg_n(),
        "KG-W" => HeapConfig::kg_w(),
        // All-cold advice keeps KG-A self-contained (no profiling run); the
        // point here is trace replay, not advice quality.
        "KG-A" => HeapConfig::kg_a(AdviceTable::all_cold()),
        "KG-D" => HeapConfig::kg_d(),
        other => panic!("unknown collector label {other}"),
    }
}

// ---------------------------------------------------------------------
// record
// ---------------------------------------------------------------------

/// Outcome of recording one benchmark.
#[derive(Clone, Debug)]
pub struct RecordRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Where the trace was written.
    pub path: PathBuf,
    /// Events in the trace.
    pub events: u64,
    /// Objects the trace allocates.
    pub allocations: u64,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Bytes the decoded events take in memory
    /// ([`trace::TraceEvents::memory_bytes`]).
    pub memory_bytes: u64,
    /// Wall-clock of the recording run in milliseconds.
    pub record_ms: u64,
}

/// Results of `repro trace record`.
#[derive(Clone, Debug)]
pub struct RecordResults {
    /// Mutator threads the traces were recorded with.
    pub mutators: usize,
    /// Per-benchmark rows.
    pub rows: Vec<RecordRow>,
}

impl RecordResults {
    /// Formatted report.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Trace record: one .kgtrace per benchmark (K={} mutators)",
                self.mutators
            ),
            &[
                "benchmark",
                "events",
                "objects",
                "file KB",
                "in-memory KB",
                "record-ms",
                "file",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                row.events.to_string(),
                row.allocations.to_string(),
                format!("{:.1}", row.bytes as f64 / 1024.0),
                format!("{:.1}", row.memory_bytes as f64 / 1024.0),
                row.record_ms.to_string(),
                row.path.display().to_string(),
            ]);
        }
        table.render()
    }
}

/// Records one trace per benchmark into `dir` (overwriting stale files), in
/// parallel over `jobs` workers.
pub fn record_traces(
    config: &ExperimentConfig,
    benchmarks: &[BenchmarkProfile],
    dir: &Path,
    mutators: usize,
    jobs: usize,
) -> RecordResults {
    let rows = run_jobs(benchmarks, jobs, |profile| {
        let heap_config = profile.heap_config(config_for("KG-N"), config.scale);
        let path = trace_path(dir, profile.name, &heap_config, config, mutators);
        let mut heap = KingsguardHeap::new(heap_config, config.memory_config());
        let mutator = SyntheticMutator::new(profile.clone(), config.workload());
        let start = Instant::now();
        let recorded = if mutators > 1 {
            mutator.record_multi_configured(&mut heap, mutators, MutatorConfig::default())
        } else {
            mutator.record(&mut heap)
        };
        let record_ms = start.elapsed().as_millis() as u64;
        drop(heap.finish());
        let bytes = trace::save_trace(&recorded, &path)
            .unwrap_or_else(|err| panic!("could not save {}: {err}", path.display()));
        RecordRow {
            benchmark: profile.name.to_string(),
            path,
            events: recorded.events.len() as u64,
            allocations: recorded.allocations(),
            bytes,
            memory_bytes: recorded.events.memory_bytes() as u64,
            record_ms,
        }
    });
    RecordResults { mutators, rows }
}

/// `profile`'s [`current_trace`] in `dir`, recorded with K = `mutators`
/// first when there is none.
pub(crate) fn current_or_recorded(
    config: &ExperimentConfig,
    profile: &BenchmarkProfile,
    dir: &Path,
    mutators: usize,
) -> Trace {
    let heap_config = profile.heap_config(config_for("KG-N"), config.scale);
    let path = trace_path(dir, profile.name, &heap_config, config, mutators);
    current_trace(&path, config).unwrap_or_else(|| {
        record_traces(config, std::slice::from_ref(profile), dir, mutators, 1);
        trace::load_trace(&path).unwrap_or_else(|err| panic!("could not load {}: {err}", path.display()))
    })
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

/// One (benchmark, collector) replay.
#[derive(Clone, Debug)]
pub struct ReplayRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector label.
    pub collector: String,
    /// Replayed PCM device writes.
    pub pcm_writes: u64,
    /// Replayed DRAM device writes.
    pub dram_writes: u64,
    /// Replay wall-clock in milliseconds.
    pub replay_ms: u64,
    /// Live-run wall-clock in milliseconds (verification runs only).
    pub live_ms: Option<u64>,
    /// Whether the replay matched the live run bit-identically
    /// (verification runs only).
    pub exact: Option<bool>,
}

/// Results of `repro trace replay`.
#[derive(Clone, Debug)]
pub struct ReplayResults {
    /// Per-(benchmark, collector) rows.
    pub rows: Vec<ReplayRow>,
    /// Whether live verification ran.
    pub verified: bool,
}

impl ReplayResults {
    /// Total replay wall-clock in milliseconds.
    pub fn total_replay_ms(&self) -> u64 {
        self.rows.iter().map(|r| r.replay_ms).sum()
    }

    /// Total live wall-clock in milliseconds (0 without verification).
    pub fn total_live_ms(&self) -> u64 {
        self.rows.iter().filter_map(|r| r.live_ms).sum()
    }

    /// Rows whose replay diverged from the live run.
    pub fn mismatches(&self) -> usize {
        self.rows.iter().filter(|r| r.exact == Some(false)).count()
    }

    /// live / replay wall-clock ratio (verification runs only).
    pub fn speedup(&self) -> Option<f64> {
        if !self.verified || self.total_replay_ms() == 0 {
            return None;
        }
        Some(self.total_live_ms() as f64 / self.total_replay_ms() as f64)
    }

    /// Formatted report.
    pub fn report(&self) -> String {
        let title = if self.verified {
            "Trace replay: every collector from one recorded trace per benchmark (verified vs live)"
        } else {
            "Trace replay: every collector from one recorded trace per benchmark"
        };
        let mut table = TextTable::new(
            title,
            &[
                "benchmark",
                "collector",
                "PCM writes",
                "DRAM writes",
                "replay-ms",
                "live-ms",
                "exact",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                row.collector.clone(),
                row.pcm_writes.to_string(),
                row.dram_writes.to_string(),
                row.replay_ms.to_string(),
                row.live_ms.map(|ms| ms.to_string()).unwrap_or_else(|| "-".into()),
                match row.exact {
                    Some(true) => "yes".to_string(),
                    Some(false) => "NO".to_string(),
                    None => "-".to_string(),
                },
            ]);
        }
        let mut out = table.render();
        if self.verified {
            out.push_str(&format!(
                "\n{} replays exact, {} diverged; live {} ms vs replay {} ms ({}x)\n",
                self.rows.len() - self.mismatches(),
                self.mismatches(),
                self.total_live_ms(),
                self.total_replay_ms(),
                self.speedup()
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "-".into()),
            ));
        } else {
            out.push_str(&format!(
                "\ntotal replay wall-clock: {} ms\n",
                self.total_replay_ms()
            ));
        }
        out
    }
}

fn run_fingerprint(report: &kingsguard::RunReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        report.memory.writes(MemoryKind::Pcm),
        report.memory.writes(MemoryKind::Dram),
        report.memory.reads(MemoryKind::Pcm),
        report.memory.reads(MemoryKind::Dram),
        report.gc.remset_insertions,
        report.gc.nursery.collections + report.gc.observer.collections + report.gc.major.collections,
        report.gc.primitive_writes + report.gc.reference_writes,
    )
}

/// Replays each benchmark's recorded trace (recording any that are missing)
/// under every label in `collectors` (a subset of [`REPLAY_COLLECTORS`]),
/// fanning (benchmark, collector) pairs over `jobs` workers. With `verify`,
/// each replay is compared bit-for-bit against that collector's live run.
pub fn replay_traces(
    config: &ExperimentConfig,
    benchmarks: &[BenchmarkProfile],
    dir: &Path,
    mutators: usize,
    jobs: usize,
    verify: bool,
    collectors: &[&str],
) -> ReplayResults {
    // Load every trace once up front — recording missing or stale ones
    // inline — and share the decoded events across the per-collector
    // replays, so the fan-out below neither re-parses multi-megabyte files
    // per collector nor charges parse time to the replay wall-clock.
    let loaded: Vec<(&BenchmarkProfile, trace::Trace)> = benchmarks
        .iter()
        .map(|profile| (profile, current_or_recorded(config, profile, dir, mutators)))
        .collect();
    let pairs: Vec<(&BenchmarkProfile, &trace::Trace, &str)> = loaded
        .iter()
        .flat_map(|(profile, recorded)| collectors.iter().map(move |label| (*profile, recorded, *label)))
        .collect();
    let rows = run_jobs(&pairs, jobs, |(profile, recorded, label)| {
        let heap_config = profile.heap_config(config_for(label), config.scale);
        let start = Instant::now();
        let mut heap = KingsguardHeap::new(heap_config.clone(), config.memory_config());
        TraceReplayer::new(recorded)
            .replay(&mut heap)
            .unwrap_or_else(|err| panic!("replaying {} under {label} failed: {err}", profile.name));
        let report = heap.finish();
        let replay_ms = start.elapsed().as_millis() as u64;
        let (live_ms, exact) = if verify {
            let start = Instant::now();
            let mut live_heap = KingsguardHeap::new(heap_config, config.memory_config());
            let mutator = SyntheticMutator::new((*profile).clone(), config.workload());
            // The live run must use the driver the trace was recorded with.
            if mutators > 1 {
                mutator.run_multi_configured(&mut live_heap, mutators, MutatorConfig::default(), |_, _| {});
            } else {
                mutator.run(&mut live_heap);
            }
            let live = live_heap.finish();
            let live_ms = start.elapsed().as_millis() as u64;
            (
                Some(live_ms),
                Some(run_fingerprint(&live) == run_fingerprint(&report)),
            )
        } else {
            (None, None)
        };
        ReplayRow {
            benchmark: profile.name.to_string(),
            collector: label.to_string(),
            pcm_writes: report.memory.writes(MemoryKind::Pcm),
            dram_writes: report.memory.writes(MemoryKind::Dram),
            replay_ms,
            live_ms,
            exact,
        }
    });
    ReplayResults {
        rows,
        verified: verify,
    }
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

/// One side of a trace diff.
#[derive(Clone, Debug)]
pub struct DiffSide {
    /// The trace file.
    pub path: PathBuf,
    /// The trace's recorded workload name.
    pub workload: String,
    /// Events in the trace.
    pub events: u64,
    /// PCM device writes of the replay.
    pub pcm_writes: u64,
    /// DRAM device writes of the replay.
    pub dram_writes: u64,
    /// Wear distribution over PCM lines.
    pub pcm_wear: WearSummary,
}

/// Results of `repro trace diff`: both traces replayed under one collector
/// with per-line write tracking.
#[derive(Clone, Debug)]
pub struct DiffResults {
    /// Collector both traces were replayed under.
    pub collector: String,
    /// The first trace's replay.
    pub a: DiffSide,
    /// The second trace's replay.
    pub b: DiffSide,
}

impl DiffResults {
    /// Formatted report.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Trace diff under {}: aggregate PCM writes and wear uniformity",
                self.collector
            ),
            &[
                "trace",
                "workload",
                "events",
                "PCM writes",
                "DRAM writes",
                "PCM lines",
                "max line",
                "wear CV",
            ],
        );
        for side in [&self.a, &self.b] {
            table.row(vec![
                side.path.display().to_string(),
                side.workload.clone(),
                side.events.to_string(),
                side.pcm_writes.to_string(),
                side.dram_writes.to_string(),
                side.pcm_wear.lines_written.to_string(),
                side.pcm_wear.max_line_writes.to_string(),
                format!("{:.3}", side.pcm_wear.coefficient_of_variation),
            ]);
        }
        let mut out = table.render();
        let ratio = if self.a.pcm_writes > 0 {
            self.b.pcm_writes as f64 / self.a.pcm_writes as f64
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "\nPCM writes: B/A = {ratio:.3}; wear CV delta = {:+.3} \
             (negative = B spreads writes more uniformly)\n",
            self.b.pcm_wear.coefficient_of_variation - self.a.pcm_wear.coefficient_of_variation,
        ));
        out
    }
}

/// Summarises the wear of every *PCM-mapped* line with recorded writes.
/// Diff replays force line tracking on, so the summary is always available.
fn pcm_wear_summary(mem: &MemorySystem) -> WearSummary {
    mem.wear_summary(MemoryKind::Pcm)
        .expect("diff replays run with track_line_writes enabled")
}

fn replay_side(trace: &Trace, collector: &str, config: &ExperimentConfig, path: &Path) -> DiffSide {
    // Per-line wear needs line tracking; base the memory system on the
    // experiment's mode with tracking forced on.
    let memory_config = MemoryConfig {
        track_line_writes: true,
        ..config.memory_config()
    };
    // Size the heap budget like the recording run: from the workload and
    // scale in the trace header, if the workload is a known benchmark;
    // otherwise a generous default. The command line's scale may differ.
    let heap_config = match workloads::benchmark(&trace.header.workload) {
        Some(profile) => profile.heap_config(config_for(collector), trace.header.scale),
        None => config_for(collector).with_heap_budget(8 << 20),
    };
    let mut heap = KingsguardHeap::new(heap_config, memory_config);
    TraceReplayer::new(trace)
        .replay(&mut heap)
        .unwrap_or_else(|err| panic!("replaying {} failed: {err}", path.display()));
    let pcm_wear = heap.with_synced_memory(|mem| pcm_wear_summary(mem));
    let report = heap.finish();
    DiffSide {
        path: path.to_path_buf(),
        workload: trace.header.workload.clone(),
        events: trace.events.len() as u64,
        pcm_writes: report.memory.writes(MemoryKind::Pcm),
        dram_writes: report.memory.writes(MemoryKind::Dram),
        pcm_wear,
    }
}

/// Replays the traces at `path_a` and `path_b` under `collector` and
/// compares aggregate writes and wear uniformity.
pub fn diff_traces(
    config: &ExperimentConfig,
    path_a: &Path,
    path_b: &Path,
    collector: &str,
) -> Result<DiffResults, TraceError> {
    let trace_a = trace::load_trace(path_a)?;
    let trace_b = trace::load_trace(path_b)?;
    Ok(DiffResults {
        collector: collector.to_string(),
        a: replay_side(&trace_a, collector, config, path_a),
        b: replay_side(&trace_b, collector, config, path_b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgtrace-exp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_then_replay_is_exact_and_reuses_the_trace() {
        let dir = temp_dir("replay");
        let config = ExperimentConfig::quick();
        let benchmarks = vec![benchmark("lu.fix").unwrap()];
        let recorded = record_traces(&config, &benchmarks, &dir, 1, 1);
        assert_eq!(recorded.rows.len(), 1);
        let row = &recorded.rows[0];
        assert!(row.path.exists());
        assert!(row.events > 0);
        assert_eq!(row.bytes, std::fs::metadata(&row.path).unwrap().len());
        assert!(row.memory_bytes >= row.events * trace::TraceEvents::SLOT_BYTES as u64);
        assert!(recorded.report().contains("in-memory KB"));
        let results = replay_traces(&config, &benchmarks, &dir, 1, 2, true, &REPLAY_COLLECTORS);
        assert_eq!(results.rows.len(), REPLAY_COLLECTORS.len());
        assert_eq!(results.mismatches(), 0, "{}", results.report());
        assert!(results.report().contains("exact"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_records_missing_traces_on_demand() {
        let dir = temp_dir("on-demand");
        let config = ExperimentConfig::quick();
        let benchmarks = vec![benchmark("pmd").unwrap()];
        let results = replay_traces(&config, &benchmarks, &dir, 1, 1, false, &REPLAY_COLLECTORS);
        assert_eq!(results.rows.len(), REPLAY_COLLECTORS.len());
        assert!(results.rows.iter().all(|r| r.exact.is_none()));
        assert!(results.total_replay_ms() < u64::MAX);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_sizes_each_heap_at_the_scale_its_trace_was_recorded_at() {
        let dir = temp_dir("diff-scale");
        let recorded_at = ExperimentConfig::quick().with_scale(40);
        let pmd_s = vec![benchmark("pmd.s").unwrap()];
        let path = record_traces(&recorded_at, &pmd_s, &dir, 1, 1).rows[0]
            .path
            .clone();
        let replayed = replay_traces(&recorded_at, &pmd_s, &dir, 1, 1, false, &["KG-N"]);
        // `--quick` runs at scale 2048, whose budget floor would size the
        // heap differently.
        let diff = diff_traces(&ExperimentConfig::quick(), &path, &path, "KG-N").unwrap();
        assert_eq!(diff.a.pcm_writes, replayed.rows[0].pcm_writes);
        assert_eq!(diff.b.pcm_writes, replayed.rows[0].pcm_writes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_compares_wear_uniformity() {
        let dir = temp_dir("diff");
        let config = ExperimentConfig::quick();
        let lusearch = vec![benchmark("lusearch").unwrap()];
        let bloat = vec![benchmark("bloat").unwrap()];
        let a = record_traces(&config, &lusearch, &dir, 1, 1);
        let b = record_traces(&config, &bloat, &dir, 1, 1);
        let diff = diff_traces(&config, &a.rows[0].path, &b.rows[0].path, "KG-N").unwrap();
        assert_eq!(diff.a.workload, "lusearch");
        assert_eq!(diff.b.workload, "bloat");
        assert!(diff.a.pcm_writes > 0 && diff.b.pcm_writes > 0);
        assert!(diff.a.pcm_wear.lines_written > 0);
        assert!(diff.a.pcm_wear.coefficient_of_variation.is_finite());
        let report = diff.report();
        assert!(report.contains("wear CV"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
