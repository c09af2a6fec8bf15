//! The six-collector workloads: `replay-mutator`, `replay-gc`, `live-sim-k4`.
//!
//! One *cell* is one benchmark under one collector on a fresh heap; one
//! *pass* is the six cells of [`COLLECTORS`] back to back — the per-cell
//! flow of the experiment drivers. Replay workloads decode the encoded
//! trace per cell (as a driver loading a `.kgtrace` does); the live workload
//! runs workload generation per cell.

use std::collections::BTreeMap;

use check::SanitizerHandle;
use experiments::traces::{config_for, REPLAY_COLLECTORS};
use hybrid_mem::{ExecutionModel, MemoryConfig, MemoryKind};
use kingsguard::{KingsguardHeap, MutatorConfig, RunReport};
use telemetry::{HistogramSummary, Stage, DEFAULT_SAMPLE_EVERY};
use trace::{Trace, TraceReplayer};
use workloads::{BenchmarkProfile, SyntheticMutator, WorkloadConfig};

use crate::harness::{peak_rss_mb, repeat_for, Inject, Measurement, RunOptions, Tally};
use crate::metrics::Values;
use crate::micro;
use crate::spans::SpanLog;
use crate::stats::{median, undisturbed};

/// Collector labels of one pass, in cell order.
pub const COLLECTORS: [&str; 6] = REPLAY_COLLECTORS;

const PCM_ONLY: usize = 1;
const KG_N: usize = 2;
const KG_W: usize = 3;
const KG_A: usize = 4;
const KG_D: usize = 5;

/// Per-context configuration of the K-mutator live workload: real TLAB
/// chunks and a short store buffer, so SSB drains and shard merges are on
/// the path.
const K_MUTATOR: MutatorConfig = MutatorConfig {
    tlab_bytes: 8192,
    ssb_capacity: 64,
};

/// The measurement mode of a workload's memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Memory {
    /// No caches: every store reaches the controller (paper §6.2).
    ArchitectureIndependent,
    /// Cache hierarchy scaled down 16× in front of the controller (§6.1).
    Simulated,
}

impl Memory {
    fn config(self) -> MemoryConfig {
        match self {
            Memory::ArchitectureIndependent => MemoryConfig::architecture_independent(),
            Memory::Simulated => MemoryConfig::hybrid_scaled(16),
        }
    }
}

/// One six-collector workload.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Simulated benchmark driven through the collectors.
    pub benchmark: &'static str,
    /// Workload scale divisor (larger = smaller run).
    pub scale: u64,
    /// Memory-system mode.
    pub memory: Memory,
    /// Mutator contexts (1 = the legacy single-mutator stream).
    pub mutators: usize,
    /// Timed passes run workload generation live instead of replaying the
    /// encoded trace.
    pub live: bool,
}

/// Which of the heap's own instruments a pass switches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Instruments {
    Off,
    /// `enable_telemetry`: GC-phase spans, pause histograms.
    Telemetry,
    /// Telemetry plus the hot-path profiler (read for its exact counts).
    Profiler,
}

/// The simulated statistics a cell must reproduce exactly, live or replayed,
/// instrumented or not.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    pcm_writes: u64,
    dram_writes: u64,
    pcm_reads: u64,
    dram_reads: u64,
    remset_insertions: u64,
    collections: u64,
    barrier_writes: u64,
}

impl Fingerprint {
    fn of(report: &RunReport) -> Self {
        Fingerprint {
            pcm_writes: report.memory.writes(MemoryKind::Pcm),
            dram_writes: report.memory.writes(MemoryKind::Dram),
            pcm_reads: report.memory.reads(MemoryKind::Pcm),
            dram_reads: report.memory.reads(MemoryKind::Dram),
            remset_insertions: report.gc.remset_insertions,
            collections: report.gc.total_collections(),
            barrier_writes: report.gc.primitive_writes + report.gc.reference_writes,
        }
    }
}

struct CellOutcome {
    wall_s: f64,
    decode_s: f64,
    report: RunReport,
}

struct PassOutcome {
    /// Sum of the cell wall-clocks that completed.
    wall_s: f64,
    decode_s: f64,
    /// One entry per collector; `None` where the cell failed.
    cells: Vec<Option<CellOutcome>>,
}

/// Where a replay cell takes its events from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Decode the encoded trace inside the cell.
    Encoded(&'a [u8]),
    /// An already decoded trace (decode is not part of the cell).
    Decoded(&'a Trace),
}

/// What one set-up leaves behind for the timed passes.
struct Prepared {
    trace: Trace,
    bytes: Vec<u8>,
    /// Per collector, from that collector's live run.
    reference: Vec<Fingerprint>,
    /// Per collector live reports: the source of every simulated metric.
    live: Vec<RunReport>,
    record_s: f64,
    encode_s: f64,
}

impl Prepared {
    fn events(&self) -> u64 {
        self.trace.events.len() as u64
    }

    fn pcm_writes(&self, collector: usize) -> u64 {
        self.reference[collector].pcm_writes
    }
}

struct Runner<'a> {
    spec: &'a CellSpec,
    profile: BenchmarkProfile,
    workload: WorkloadConfig,
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

impl<'a> Runner<'a> {
    fn new(spec: &'a CellSpec, options: &RunOptions) -> Self {
        let profile = workloads::benchmark(spec.benchmark)
            .unwrap_or_else(|| panic!("unknown simulated benchmark {}", spec.benchmark));
        let scale = if options.quick {
            spec.scale * 16
        } else {
            spec.scale
        };
        Runner {
            spec,
            profile,
            workload: WorkloadConfig {
                scale,
                seed: options.seed,
            },
        }
    }

    fn heap(&self, collector: &str, instruments: Instruments) -> KingsguardHeap {
        // Sized as the experiment drivers size it.
        let budget = self.profile.scaled_heap_bytes(self.workload.scale).max(2 << 20) as usize;
        let mut heap = KingsguardHeap::new(
            config_for(collector).with_heap_budget(budget),
            self.spec.memory.config(),
        );
        if instruments != Instruments::Off {
            heap.enable_telemetry();
        }
        if instruments == Instruments::Profiler {
            heap.enable_hot_path_profiler(DEFAULT_SAMPLE_EVERY);
        }
        heap
    }

    fn mutator(&self) -> SyntheticMutator {
        SyntheticMutator::new(self.profile.clone(), self.workload)
    }

    fn record(&self) -> Trace {
        let mut heap = self.heap("KG-N", Instruments::Off);
        let trace = if self.spec.mutators > 1 {
            self.mutator()
                .record_multi_configured(&mut heap, self.spec.mutators, K_MUTATOR)
        } else {
            self.mutator().record(&mut heap)
        };
        drop(heap.finish());
        trace
    }

    fn live_cell(&self, collector: &str, instruments: Instruments, spans: &mut SpanLog) -> CellOutcome {
        spans.enter(format!("cell {collector}"));
        let mut heap = self.heap(collector, instruments);
        spans.scope("live", |_| {
            if self.spec.mutators > 1 {
                self.mutator()
                    .run_multi_configured(&mut heap, self.spec.mutators, K_MUTATOR, |_, _| {});
            } else {
                self.mutator().run(&mut heap);
            }
        });
        let (report, _) = spans.scope("finish", |_| heap.finish());
        CellOutcome {
            wall_s: spans.exit(),
            decode_s: 0.0,
            report,
        }
    }

    /// Replays `source` under `collector`; with `sanitize`, under the
    /// shadow-heap sanitizer, whose violation count is returned alongside.
    fn replay_cell(
        &self,
        source: Source<'_>,
        collector: &str,
        instruments: Instruments,
        sanitize: bool,
        spans: &mut SpanLog,
    ) -> Result<(CellOutcome, usize), String> {
        spans.enter(format!("cell {collector}"));
        let result = (|| {
            let decoded;
            let (events, decode_s) = match source {
                Source::Encoded(bytes) => {
                    let (parsed, secs) = spans.scope("decode", |_| trace::parse_trace(bytes));
                    decoded = parsed.map_err(|err| format!("decode under {collector}: {err}"))?;
                    (&decoded, secs)
                }
                Source::Decoded(trace) => (trace, 0.0),
            };
            let mut heap = self.heap(collector, instruments);
            let sanitizer = sanitize.then(|| SanitizerHandle::install(&mut heap));
            let (replayed, _) = spans.scope("replay", |_| TraceReplayer::new(events).replay(&mut heap));
            replayed.map_err(|err| format!("replay under {collector}: {err}"))?;
            let (report, _) = spans.scope("finish", |_| heap.finish());
            let violations = sanitizer.map_or(0, |handle| handle.report().violations.len());
            Ok((report, decode_s, violations))
        })();
        let wall_s = spans.exit();
        result.map(|(report, decode_s, violations)| {
            (
                CellOutcome {
                    wall_s,
                    decode_s,
                    report,
                },
                violations,
            )
        })
    }

    /// One full set-up: record, encode, then the output checks — every
    /// collector live, every collector replayed from the encoded trace,
    /// fingerprints equal pairwise, PCM writes ordered as the paper orders
    /// them. The second half of the checks doubles as the warm-up pass.
    fn prepare(&self, spans: &mut SpanLog, tally: &mut Tally) -> Prepared {
        let (trace, record_s) = spans.scope("record", |_| self.record());
        let (bytes, encode_s) = spans.scope("encode", |_| trace::trace_to_bytes(&trace));
        spans.enter("check");
        let live: Vec<RunReport> = COLLECTORS
            .iter()
            .map(|collector| {
                tally.check(true, String::new);
                self.live_cell(collector, Instruments::Off, spans).report
            })
            .collect();
        let reference: Vec<Fingerprint> = live.iter().map(Fingerprint::of).collect();
        for (collector, expected) in COLLECTORS.iter().zip(&reference) {
            let replayed =
                self.replay_cell(Source::Encoded(&bytes), collector, Instruments::Off, false, spans);
            tally.check(replayed.is_ok(), || {
                replayed.as_ref().err().cloned().unwrap_or_default()
            });
            if let Ok((cell, _)) = &replayed {
                let got = Fingerprint::of(&cell.report);
                tally.check(got == *expected, || {
                    format!("{collector}: replay {got:?} differs from live {expected:?}")
                });
            }
        }
        let writes = |collector: usize| reference[collector].pcm_writes;
        // KG-A runs on all-cold advice here (no profiling run), which carries
        // no guarantee against KG-N; its ratio is reported, not checked.
        for (low, high) in [(KG_W, KG_N), (KG_N, PCM_ONLY), (KG_D, KG_N)] {
            tally.check(writes(low) <= writes(high), || {
                format!(
                    "PCM writes out of order: {} wrote {} > {} wrote {}",
                    COLLECTORS[low],
                    writes(low),
                    COLLECTORS[high],
                    writes(high)
                )
            });
        }
        spans.exit();
        Prepared {
            trace,
            bytes,
            reference,
            live,
            record_s,
            encode_s,
        }
    }

    /// One pass of the workload's timed flow. Every cell and every
    /// fingerprint comparison is an attempted operation.
    fn pass(
        &self,
        prepared: &Prepared,
        instruments: Instruments,
        spans: &mut SpanLog,
        tally: &mut Tally,
    ) -> PassOutcome {
        spans.enter("pass");
        let mut out = PassOutcome {
            wall_s: 0.0,
            decode_s: 0.0,
            cells: Vec::with_capacity(COLLECTORS.len()),
        };
        for (collector, expected) in COLLECTORS.iter().zip(&prepared.reference) {
            let cell = if self.spec.live {
                Ok(self.live_cell(collector, instruments, spans))
            } else {
                self.replay_cell(
                    Source::Encoded(&prepared.bytes),
                    collector,
                    instruments,
                    false,
                    spans,
                )
                .map(|(cell, _)| cell)
            };
            tally.check(cell.is_ok(), || cell.as_ref().err().cloned().unwrap_or_default());
            let cell = cell.ok();
            if let Some(cell) = &cell {
                let got = Fingerprint::of(&cell.report);
                tally.check(got == *expected, || {
                    format!("{collector}: pass digest {got:?} differs from reference {expected:?}")
                });
                out.wall_s += cell.wall_s;
                out.decode_s += cell.decode_s;
            }
            out.cells.push(cell);
        }
        spans.exit();
        out
    }

    fn apply(&self, inject: Option<Inject>, prepared: &mut Prepared) {
        match inject {
            Some(Inject::FlipTraceByte) => {
                let middle = prepared.bytes.len() / 2;
                prepared.bytes[middle] ^= 0x40;
            }
            Some(Inject::ForgeDigest) => prepared.reference[KG_N].pcm_writes += 1,
            None => {}
        }
    }

    fn describe(&self, prepared: &Prepared) -> String {
        format!(
            "{} at scale {} (seed {}), K={}, {:?}; {} events, {} trace bytes; {} cells/pass",
            self.spec.benchmark,
            self.workload.scale,
            self.workload.seed,
            self.spec.mutators,
            self.spec.memory,
            prepared.events(),
            prepared.bytes.len(),
            COLLECTORS.len()
        )
    }
}

/// The `--trace 0` run: set-ups, then timed passes with every instrument off.
pub fn run_end_to_end(
    spec: &CellSpec,
    options: &RunOptions,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Measurement {
    let runner = Runner::new(spec, options);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..options.setups() {
        let (state, secs) = spans.scope("setup", |spans| runner.prepare(spans, tally));
        setup_s.push(secs);
        prepared = Some(state);
    }
    let mut prepared = prepared.expect("at least one set-up");
    runner.apply(options.inject, &mut prepared);

    let mut cell_times = CellTimes::default();
    let mut rates = Vec::new();
    let events = (prepared.events() * COLLECTORS.len() as u64) as f64;
    let passes = repeat_for(options.budget(), options.min_passes(), |_| {
        let pass = runner.pass(&prepared, Instruments::Off, spans, tally);
        cell_times.push(&pass);
        if pass.cells.iter().all(Option::is_some) {
            rates.push(events / pass.wall_s);
        }
    });

    let mut values = Values::default();
    let pass_s = cell_times.pass_s();
    let rate = if pass_s > 0.0 { events / pass_s } else { 0.0 };
    values.set_measured("events_per_sec", rate, &rates);
    values.set_samples("setup_s", &setup_s);
    values.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    let pcm_writes: u64 = prepared.reference.iter().map(|cell| cell.pcm_writes).sum();
    values.set("sim_pcm_writes_per_event", pcm_writes as f64 / events);
    Measurement {
        values,
        passes,
        setups: setup_s.len(),
        notes: vec![runner.describe(&prepared)],
    }
}

/// Wall-clock samples of each collector's cell across passes. Cells are the
/// unit of repetition: identical deterministic work, a fifth of a second
/// each, so the undisturbed time of a pass is the sum of its cells'
/// undisturbed times (see [`crate::stats::UNDISTURBED`]).
#[derive(Default)]
struct CellTimes([Vec<f64>; COLLECTORS.len()]);

impl CellTimes {
    fn push(&mut self, pass: &PassOutcome) {
        for (samples, cell) in self.0.iter_mut().zip(&pass.cells) {
            samples.extend(cell.as_ref().map(|cell| cell.wall_s));
        }
    }

    fn pass_s(&self) -> f64 {
        self.0.iter().map(|samples| undisturbed(samples)).sum()
    }
}

/// Named sample series of per-layer metrics, one sample per instrument round.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

const GC_KINDS: [&str; 3] = ["gc.nursery", "gc.observer", "gc.major"];
const GC_PHASES: [&str; 12] = [
    "gc.nursery.roots",
    "gc.nursery.remset",
    "gc.nursery.copy",
    "gc.observer.roots",
    "gc.observer.remset",
    "gc.observer.trace",
    "gc.observer.copy",
    "gc.observer.patch",
    "gc.major.prepare",
    "gc.major.roots",
    "gc.major.trace",
    "gc.major.sweep",
];

fn span_ns(report: &RunReport, name: &str, self_time: bool) -> u64 {
    report
        .telemetry
        .as_ref()
        .and_then(|telemetry| telemetry.span(name))
        .map_or(0, |span| if self_time { span.self_ns } else { span.total_ns })
}

fn gc_seconds(cells: &[&CellOutcome]) -> f64 {
    cells
        .iter()
        .flat_map(|cell| GC_KINDS.iter().map(|kind| span_ns(&cell.report, kind, false)))
        .sum::<u64>() as f64
        / 1e9
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report
        .telemetry
        .as_ref()
        .and_then(|telemetry| telemetry.counter(name))
        .unwrap_or(0)
}

/// Records the exact simulated statistics of a pass, from the set-up's live
/// runs (every later cell reproduced their fingerprints).
fn record_simulated(prepared: &Prepared, values: &mut Values) {
    let live = &prepared.live;
    let sum = |f: &dyn Fn(&RunReport) -> u64| live.iter().map(f).sum::<u64>() as f64;
    values.set(
        "kingsguard.collections.nursery",
        sum(&|r| r.gc.nursery.collections),
    );
    values.set(
        "kingsguard.collections.observer",
        sum(&|r| r.gc.observer.collections),
    );
    values.set("kingsguard.collections.major", sum(&|r| r.gc.major.collections));
    values.set("kingsguard.remset_insertions", sum(&|r| r.gc.remset_insertions));
    values.set(
        "kingsguard.bytes_copied",
        sum(&|r| r.gc.nursery.bytes_copied + r.gc.observer.bytes_copied + r.gc.major.bytes_copied),
    );
    values.set("kingsguard.rescues", sum(&|r| r.gc.pcm_to_dram_rescues));
    values.set("kingsguard.demotions", sum(&|r| r.gc.dram_to_pcm_demotions));
    for (index, collector) in COLLECTORS.iter().enumerate() {
        values.set(
            &format!("hybrid-mem.pcm_writes.{collector}"),
            prepared.pcm_writes(index) as f64,
        );
    }
    let writes_vs = |a: usize, b: usize| ratio(prepared.pcm_writes(a), prepared.pcm_writes(b));
    values.set("kingsguard.kgn_pcm_writes_vs_pcm_only", writes_vs(KG_N, PCM_ONLY));
    values.set("kingsguard.kgw_pcm_writes_vs_pcm_only", writes_vs(KG_W, PCM_ONLY));
    values.set("advice.kga_pcm_writes_vs_kgn", writes_vs(KG_A, KG_N));
    values.set("advice.kgd_pcm_writes_vs_kgn", writes_vs(KG_D, KG_N));
    let modelled_s = |collector: usize| {
        let report = &live[collector];
        ExecutionModel::default()
            .breakdown(&report.gc.work, &report.memory)
            .total_s()
    };
    if modelled_s(KG_N) > 0.0 {
        values.set("kingsguard.kgw_time_vs_kgn", modelled_s(KG_W) / modelled_s(KG_N));
    }
    let (hits, misses) = live.iter().fold((0, 0), |(hits, misses), report| {
        (hits + report.memory.cache_hits, misses + report.memory.llc_misses)
    });
    values.set("hybrid-mem.cache_hit_rate", ratio(hits, hits + misses));
}

/// The `--trace 1` run: one set-up, then rounds of (instruments off,
/// telemetry, telemetry + profiler) passes, then the single-layer drivers.
pub fn run_traced(
    spec: &CellSpec,
    options: &RunOptions,
    spans: &mut SpanLog,
    tally: &mut Tally,
) -> Measurement {
    let runner = Runner::new(spec, options);
    let (mut prepared, _) = spans.scope("setup", |spans| runner.prepare(spans, tally));
    runner.apply(options.inject, &mut prepared);
    let events = prepared.events();
    let pass_events = (events * COLLECTORS.len() as u64) as f64;

    // Repeated timings of identical work (read at the undisturbed quantile)
    // and ratios/differences (read at the median).
    let mut times = Samples::default();
    let mut ratios = Samples::default();
    let (mut off_cells, mut telemetry_cells, mut profiler_cells) =
        (CellTimes::default(), CellTimes::default(), CellTimes::default());
    let mut pauses: Option<HistogramSummary> = None;
    let mut touches = 0u64;
    let mut stage_events = [0u64; Stage::ALL.len()];
    let rounds = repeat_for(options.budget(), if options.quick { 1 } else { 2 }, |_| {
        // Instruments off: the reference for overheads, per-cell times and decode.
        let off = runner.pass(&prepared, Instruments::Off, spans, tally);
        off_cells.push(&off);
        times.push("trace.decode_s", off.decode_s);

        // Telemetry on: the GC/mutator decomposition of the pass.
        let traced = runner.pass(&prepared, Instruments::Telemetry, spans, tally);
        telemetry_cells.push(&traced);
        let cells: Vec<&CellOutcome> = traced.cells.iter().flatten().collect();
        let gc_s = gc_seconds(&cells);
        times.push("kingsguard.gc_s", gc_s);
        ratios.push("kingsguard.gc_share", gc_s / traced.wall_s.max(f64::MIN_POSITIVE));
        for phase in GC_PHASES {
            let self_ns: u64 = cells.iter().map(|cell| span_ns(&cell.report, phase, true)).sum();
            times.push(format!("kingsguard.{phase}_s"), self_ns as f64 / 1e9);
        }
        let mut round_pauses: Option<HistogramSummary> = None;
        for cell in &cells {
            let hist = cell.report.telemetry.as_ref().and_then(|t| t.hist("gc.pause_ns"));
            if let Some(hist) = hist {
                match &mut round_pauses {
                    Some(merged) => merged.merge(hist),
                    None => round_pauses = Some(hist.clone()),
                }
            }
        }
        pauses = round_pauses;
        if spec.live {
            // Generation cost = live cell − replay of its own recording,
            // paired per collector under the same instruments; what is left
            // of the replay after its GC spans is mutator/barrier/touch.
            let mut generate_s = 0.0;
            let mut replays = Vec::new();
            spans.enter("paired-replays");
            for (collector, live) in COLLECTORS.iter().zip(&traced.cells) {
                let replayed = runner.replay_cell(
                    Source::Decoded(&prepared.trace),
                    collector,
                    Instruments::Telemetry,
                    false,
                    spans,
                );
                tally.check(replayed.is_ok(), || {
                    replayed.as_ref().err().cloned().unwrap_or_default()
                });
                if let (Ok((replayed, _)), Some(live)) = (replayed, live) {
                    generate_s += live.wall_s - replayed.wall_s;
                    replays.push(replayed);
                }
            }
            spans.exit();
            let replays: Vec<&CellOutcome> = replays.iter().collect();
            let replay_wall: f64 = replays.iter().map(|cell| cell.wall_s).sum();
            ratios.push("workloads.generate_s", generate_s);
            times.push("kingsguard.mutator_s", replay_wall - gc_seconds(&replays));
        } else {
            times.push("kingsguard.mutator_s", traced.wall_s - traced.decode_s - gc_s);
        }

        // Telemetry + profiler: exact touch and stage counts.
        let profiled = runner.pass(&prepared, Instruments::Profiler, spans, tally);
        profiler_cells.push(&profiled);
        touches = 0;
        stage_events = [0; Stage::ALL.len()];
        for cell in profiled.cells.iter().flatten() {
            touches += counter(&cell.report, "profile.touches");
            for (slot, stage) in stage_events.iter_mut().zip(Stage::ALL) {
                *slot += counter(&cell.report, &format!("profile.events.{}", stage.label()));
            }
        }
    });

    // Single-layer drivers, outside the rounds.
    let off_wall = off_cells.pass_s();
    let micro = spans.scope("micro", |spans| micro::run(options, spans, tally)).0;
    spans.enter("check");
    let plain = runner.replay_cell(
        Source::Decoded(&prepared.trace),
        "KG-W",
        Instruments::Off,
        false,
        spans,
    );
    let sanitized = runner.replay_cell(
        Source::Decoded(&prepared.trace),
        "KG-W",
        Instruments::Off,
        true,
        spans,
    );
    let (analysis, analyze_s) = spans.scope("analyze", |_| check::analyze_trace(&prepared.trace));
    spans.exit();

    let mut values = Values::default();
    for (name, series) in &times.0 {
        values.set_times(name, series);
    }
    for (name, series) in &ratios.0 {
        values.set_samples(name, series);
    }
    for (collector, series) in COLLECTORS.iter().zip(&off_cells.0) {
        values.set_times(&format!("kingsguard.cell_s.{collector}"), series);
    }
    let decode_s = undisturbed(times.get("trace.decode_s"));
    if decode_s > 0.0 {
        let rates: Vec<f64> = times
            .get("trace.decode_s")
            .iter()
            .map(|secs| pass_events / secs)
            .collect();
        values.set_measured("trace.decode_events_per_sec", pass_events / decode_s, &rates);
    }
    values.set("trace.record_s", prepared.record_s);
    values.set("trace.encode_s", prepared.encode_s);
    values.set(
        "trace.bytes_per_event",
        ratio(prepared.bytes.len() as u64, events),
    );
    if let Some(pauses) = &pauses {
        values.set("kingsguard.pause_p50_us", pauses.quantile(0.5) as f64 / 1e3);
        values.set("kingsguard.pause_max_us", pauses.max as f64 / 1e3);
    }

    record_simulated(&prepared, &mut values);

    values.set("hybrid-mem.touches", touches as f64);
    values.set("hybrid-mem.touches_per_event", touches as f64 / pass_events);
    for (count, stage) in stage_events.iter().zip(Stage::ALL) {
        values.set(
            &format!("hybrid-mem.stage_events.{}", stage.label()),
            *count as f64,
        );
    }
    micro.record(&mut values);
    let touch_ns = micro.touch_ns(spec.memory == Memory::Simulated);
    if off_wall > 0.0 {
        values.set(
            "hybrid-mem.est_touch_share",
            touches as f64 * touch_ns / 1e9 / off_wall,
        );
        let pct =
            |later: &CellTimes, earlier: &CellTimes| (later.pass_s() - earlier.pass_s()) / off_wall * 100.0;
        values.set("telemetry.overhead_pct", pct(&telemetry_cells, &off_cells));
        values.set(
            "telemetry.profiler_overhead_pct",
            pct(&profiler_cells, &telemetry_cells),
        );
    }

    for cell in [&plain, &sanitized] {
        tally.check(cell.is_ok(), || cell.as_ref().err().cloned().unwrap_or_default());
    }
    if let (Ok((plain, _)), Ok((sanitized, violations))) = (&plain, &sanitized) {
        tally.check(
            Fingerprint::of(&sanitized.report) == Fingerprint::of(&plain.report),
            || "the sanitizer changed the simulated results".to_string(),
        );
        let found = violations + analysis.violations.len();
        tally.check(found == 0, || {
            format!("{found} sanitizer/trace-grammar violations")
        });
        values.set("check.sanitizer_slowdown_x", sanitized.wall_s / plain.wall_s);
        values.set("check.violations", found as f64);
    }
    if analyze_s > 0.0 {
        values.set("check.analyze_events_per_sec", events as f64 / analyze_s);
    }

    let notes = vec![
        runner.describe(&prepared),
        format!(
            "instruments-off pass {:.3} s: decode {:.1} %, GC {:.1} % (telemetry pass), est. touch {:.1} %",
            off_wall,
            decode_s / off_wall.max(f64::MIN_POSITIVE) * 100.0,
            median(ratios.get("kingsguard.gc_share")) * 100.0,
            touches as f64 * touch_ns / 1e9 / off_wall.max(f64::MIN_POSITIVE) * 100.0,
        ),
    ];
    Measurement {
        values,
        passes: rounds,
        setups: 1,
        notes,
    }
}
