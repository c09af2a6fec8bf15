//! The fleet driver: waves of tenant sessions over sharded worker threads.
//!
//! A *tenant* is one `KingsguardHeap` + placement policy running one
//! deterministic workload — a synthetic benchmark, the streaming-graph
//! workload, or the replay of a recorded `.kgtrace` session — for one
//! session lifetime, after which it is recycled: its PCM wear is absorbed
//! into the shared device, its learned advice deposited in the store, its
//! heap dropped. Tenants arrive in fixed *waves* (discretised arrival
//! rounds): every placement and warm-start decision for a wave is taken
//! from fleet state at wave start, the wave's sessions fan over up to
//! `jobs` worker threads, and their effects are absorbed back in
//! tenant-index order. That ordering discipline is what makes
//! [`run_fleet`] bit-identical for any `--jobs` value.
//!
//! Sessions are crash-isolated exactly like the experiment runner's cells:
//! each runs under `catch_unwind`, a panicking tenant becomes a
//! [`TenantFailure`] row (and a `died` outcome), and the fleet completes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use advice::AdviceTable;
use hybrid_mem::timing::ExecutionModel;
use hybrid_mem::{Endurance, FaultConfig, MemoryConfig, MemoryKind, WearSummary};
use kingsguard::{HeapConfig, KingsguardHeap};
use telemetry::{HistogramSummary, TelemetryEvent, TelemetryReport, Value};
use trace::{Trace, TraceReplayer};
use workloads::{
    benchmark, site_map_hash, StreamingConfig, StreamingWorkload, SyntheticMutator, WorkloadConfig,
    STREAMING_HEAP_BUDGET_BYTES,
};

use crate::advice_store::{AdviceLookup, AdviceStore};
use crate::broker::{PlacementStrategy, WearBroker};
use crate::device::FleetDevice;

/// The workload one tenant session runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantWorkload {
    /// A synthetic benchmark session ([`workloads::SyntheticMutator`]).
    Synthetic {
        /// Benchmark name (see [`workloads::benchmark`]).
        benchmark: String,
    },
    /// A streaming-graph analytics session ([`workloads::StreamingWorkload`]).
    Streaming,
    /// Replay of a `.kgtrace` heap-event stream recorded once per
    /// `(benchmark, scale)` by the driver and replayed by every tenant of
    /// this kind — the same session, served again and again.
    Replay {
        /// Benchmark the recorded session ran.
        benchmark: String,
    },
}

impl TenantWorkload {
    /// The store/report key: the benchmark name, or `"streaming"`.
    pub fn benchmark_name(&self) -> &str {
        match self {
            TenantWorkload::Synthetic { benchmark } | TenantWorkload::Replay { benchmark } => benchmark,
            TenantWorkload::Streaming => "streaming",
        }
    }
}

/// The collector a tenant runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantCollector {
    /// Kingsguard-nursery (static, all-PCM mature).
    KgN,
    /// Kingsguard-writers (online per-object observation).
    KgW,
    /// Kingsguard-dynamic (online-adaptive per-site advice; the only
    /// collector the advice store can warm-start).
    KgD,
}

impl TenantCollector {
    /// Stable collector label.
    pub fn label(self) -> &'static str {
        match self {
            TenantCollector::KgN => "KG-N",
            TenantCollector::KgW => "KG-W",
            TenantCollector::KgD => "KG-D",
        }
    }
}

/// One tenant's session plan, fixed before its wave runs.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Fleet-wide tenant index (arrival order).
    pub index: usize,
    /// The session's workload.
    pub workload: TenantWorkload,
    /// The session's collector.
    pub collector: TenantCollector,
    /// Workload scale divisor (larger = smaller session).
    pub scale: u64,
    /// Workload seed (derived from the fleet seed and tenant index).
    pub seed: u64,
}

/// How a tenant was started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No usable advice: the tenant started from scratch.
    Cold,
    /// Warm-started from a same-site-map advice snapshot.
    Warm,
    /// Warm-started from a *stale* snapshot (site-map hash mismatch); the
    /// advice was applied per-site via the drift-fallback path.
    Drifted,
}

impl WarmStart {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::Warm => "warm",
            WarmStart::Drifted => "drifted",
        }
    }

    /// `true` for either warm variant.
    pub fn is_warm(self) -> bool {
        !matches!(self, WarmStart::Cold)
    }
}

/// Fleet run configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Tenant sessions to run.
    pub tenants: usize,
    /// Fleet seed: tenant workload seeds, region fault schedules and the
    /// trace-recording seed all derive from it.
    pub seed: u64,
    /// Base session scale divisor; the spec cycle multiplies it per slot
    /// so the fleet mixes heavy and light tenants.
    pub scale: u64,
    /// Worker threads per wave (results are identical for any value).
    pub jobs: usize,
    /// PCM device regions the wear broker places tenants on.
    pub regions: usize,
    /// Tenants per scheduling wave (arrival round).
    pub wave: usize,
    /// Placement strategy of the wear broker.
    pub strategy: PlacementStrategy,
    /// Whether KG-D tenants warm-start from the fleet advice store.
    pub warm_start: bool,
    /// Fault schedule template for the device regions (each region
    /// re-seeds it; see [`FleetDevice::new`]).
    pub fault: FaultConfig,
}

/// The device fault schedule matched to the fleet size: accelerated wear
/// around mid-range endurance, boosted by `2^14 / tenants` so the whole
/// fleet's cumulative traffic compresses into the same fixed fraction of
/// device lifetime at any fleet size. Per-*line* churn is what ages a line,
/// and it is proportional to the sessions a region hosts (session *size* —
/// the workload scale — stretches a session's footprint, not its per-line
/// write counts), so the boost depends on tenant count alone. The
/// normalization keeps every fleet in the regime placement actually
/// governs: regions a naive placement keeps hammering cross their line
/// budgets, regions the broker levels stay below them. (As in the fault
/// sweep, reported years always divide the acceleration back out.)
pub fn default_fleet_fault(seed: u64, tenants: usize) -> FaultConfig {
    let accelerated = FaultConfig::accelerated(seed, Endurance::Mid30M);
    let boost = ((1u64 << 14) / tenants.max(1) as u64).max(1);
    accelerated.with_wear_multiplier(accelerated.wear_multiplier.saturating_mul(boost))
}

impl FleetConfig {
    /// A fleet of `tenants` sessions with the default geometry: 8 regions,
    /// waves of 16, wear-levelled placement, warm starts enabled, base
    /// session scale 2048 (sessions are short-lived; the interesting
    /// volume is their number).
    pub fn new(tenants: usize) -> Self {
        let seed = 0xF1EE7;
        let scale = 2048;
        FleetConfig {
            tenants,
            seed,
            scale,
            jobs: 1,
            regions: 8,
            wave: 16,
            strategy: PlacementStrategy::WearLevelled,
            warm_start: true,
            fault: default_fleet_fault(seed, tenants),
        }
    }

    /// Same fleet with a different seed (re-derives the fault schedule).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.fault = default_fleet_fault(seed, self.tenants);
        self
    }

    /// Same fleet with a different base session scale (the fault schedule
    /// is scale-independent; see [`default_fleet_fault`]).
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Same fleet with a different worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Same fleet with a different placement strategy.
    pub fn with_strategy(mut self, strategy: PlacementStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The default tenant mix: a fixed 8-slot cycle of (workload,
    /// collector, scale multiplier) templates, so the fleet interleaves
    /// heavy and light writers, three workload kinds and three collectors
    /// — and, under round-robin placement with 8 regions, every slot pins
    /// to one region (the naive-placement failure mode the wear broker
    /// exists to fix). Each tenant draws its own workload seed from the
    /// fleet seed.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        const CYCLE: [(&str, TenantCollector, u64); 8] = [
            ("lusearch", TenantCollector::KgD, 1),
            ("lu.fix", TenantCollector::KgD, 4),
            ("streaming", TenantCollector::KgD, 1),
            ("xalan", TenantCollector::KgD, 2),
            ("lusearch", TenantCollector::KgD, 2),
            ("pmd.s", TenantCollector::KgN, 4),
            ("antlr", TenantCollector::KgD, 4),
            ("bloat", TenantCollector::KgW, 2),
        ];
        (0..self.tenants)
            .map(|index| {
                let (name, collector, mul) = CYCLE[index % CYCLE.len()];
                let workload = match (index % CYCLE.len(), name) {
                    (_, "streaming") => TenantWorkload::Streaming,
                    // Slot 4 replays a recorded lusearch session instead of
                    // re-running workload generation.
                    (4, _) => TenantWorkload::Replay {
                        benchmark: name.to_string(),
                    },
                    _ => TenantWorkload::Synthetic {
                        benchmark: name.to_string(),
                    },
                };
                TenantSpec {
                    index,
                    workload,
                    collector,
                    scale: self.scale.saturating_mul(mul).max(1),
                    seed: mix(self.seed ^ index as u64),
                }
            })
            .collect()
    }
}

/// One recycled tenant session, as reported by the fleet.
#[derive(Clone, Debug)]
pub struct TenantOutcome {
    /// Fleet-wide tenant index.
    pub index: usize,
    /// Workload name (`"streaming"` for streaming tenants).
    pub benchmark: String,
    /// Collector label.
    pub collector: String,
    /// Device region the broker placed the session on.
    pub region: usize,
    /// Session scale divisor.
    pub scale: u64,
    /// How the tenant was started.
    pub warm: WarmStart,
    /// Device line writes to PCM.
    pub pcm_writes: u64,
    /// Bytes written to PCM.
    pub pcm_bytes: u64,
    /// Modeled session execution time in seconds.
    pub elapsed_s: f64,
    /// Modeled PCM write rate in bytes/second.
    pub pcm_write_rate: f64,
    /// Heap events driven through the session (telemetry `touch.events`).
    pub touch_events: u64,
    /// GC pause histogram of the session.
    pub pauses: HistogramSummary,
    /// `None` when the session completed; `Some(panic message)` when it
    /// died (all counters zero in that case).
    pub died: Option<String>,
}

/// One tenant that panicked, for the fleet's failure summary.
#[derive(Clone, Debug)]
pub struct TenantFailure {
    /// Fleet-wide tenant index.
    pub index: usize,
    /// Workload name.
    pub benchmark: String,
    /// Rendered panic payload.
    pub message: String,
}

/// Per-(benchmark, scale) warm-vs-cold KG-D comparison row.
#[derive(Clone, Debug)]
pub struct WarmColdRow {
    /// Workload name.
    pub benchmark: String,
    /// Session scale divisor.
    pub scale: u64,
    /// Cold KG-D sessions in the group.
    pub cold_sessions: usize,
    /// Warm-started KG-D sessions in the group.
    pub warm_sessions: usize,
    /// Mean modeled PCM write rate of the cold sessions (bytes/s).
    pub cold_rate: f64,
    /// Mean modeled PCM write rate of the warm sessions (bytes/s).
    pub warm_rate: f64,
}

/// Deterministic aggregates of one arrival wave: how the fleet's load and
/// device damage grew round by round. Every field is a pure function of
/// the simulation (no wall-clock), so the series is bit-identical for any
/// `--jobs` fan-out and survives `repro metrics diff`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaveSummary {
    /// Wave index (0-based arrival round).
    pub wave: usize,
    /// Sessions the wave ran (completed + died).
    pub sessions: usize,
    /// Sessions that died in this wave.
    pub died: usize,
    /// Heap events the wave's sessions drove.
    pub touch_events: u64,
    /// Bytes the wave's sessions wrote to PCM.
    pub pcm_bytes: u64,
    /// Device lines permanently failed by the end of the wave (cumulative).
    pub failed_lines: u64,
    /// Device pages retired by the end of the wave (cumulative).
    pub retired_pages: u64,
}

/// Everything a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Placement strategy the run used.
    pub strategy: PlacementStrategy,
    /// Whether warm starts were enabled.
    pub warm_start_enabled: bool,
    /// Fleet seed.
    pub seed: u64,
    /// Base session scale.
    pub scale: u64,
    /// Device regions.
    pub regions: usize,
    /// Per-tenant outcomes in arrival order (died rows included).
    pub outcomes: Vec<TenantOutcome>,
    /// Panicked tenants, in index order.
    pub failures: Vec<TenantFailure>,
    /// Device lines permanently failed across the fleet.
    pub failed_lines: u64,
    /// Device pages retired (ECC-uncorrectable) across the fleet.
    pub retired_pages: u64,
    /// PCM capacity lost to retired pages, in bytes.
    pub degraded_bytes: u64,
    /// Analytic real-time years until the device's first uncorrectable
    /// page at the fleet's cumulative write rates.
    pub years_to_first_ue: Option<f64>,
    /// Device-wide wear distribution.
    pub device_wear: WearSummary,
    /// GC pauses merged across every completed session.
    pub pauses: HistogramSummary,
    /// Heap events driven across the fleet.
    pub touch_events: u64,
    /// Total modeled execution seconds across sessions.
    pub modeled_s: f64,
    /// Total bytes written to PCM across sessions.
    pub pcm_bytes: u64,
    /// Advice snapshots deposited in the store.
    pub advice_deposits: u64,
    /// KG-D tenants warm-started from matching advice.
    pub warm_starts: u64,
    /// KG-D tenants warm-started from *stale* (drifted) advice.
    pub drifted_warm_starts: u64,
    /// KG-D tenants that cold-started.
    pub cold_starts: u64,
    /// Per-wave deterministic aggregates, in arrival order.
    pub wave_series: Vec<WaveSummary>,
}

impl FleetOutcome {
    /// Sessions that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.died.is_none()).count()
    }

    /// Aggregate modeled heap-event throughput: total events over total
    /// modeled session time (deterministic — no wall-clock involved).
    pub fn events_per_sec(&self) -> f64 {
        if self.modeled_s <= 0.0 {
            return 0.0;
        }
        self.touch_events as f64 / self.modeled_s
    }

    /// Like-for-like warm-vs-cold KG-D comparison: completed KG-D sessions
    /// grouped by `(benchmark, scale)`, restricted to groups that have both
    /// cohorts. Deterministic (BTreeMap grouping, index-order folds).
    pub fn warm_cold_comparison(&self) -> Vec<WarmColdRow> {
        let mut groups: BTreeMap<(String, u64), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for outcome in &self.outcomes {
            if outcome.died.is_some() || outcome.collector != "KG-D" {
                continue;
            }
            let entry = groups
                .entry((outcome.benchmark.clone(), outcome.scale))
                .or_default();
            if outcome.warm.is_warm() {
                entry.1.push(outcome.pcm_write_rate);
            } else {
                entry.0.push(outcome.pcm_write_rate);
            }
        }
        groups
            .into_iter()
            .filter(|(_, (cold, warm))| !cold.is_empty() && !warm.is_empty())
            .map(|((benchmark, scale), (cold, warm))| WarmColdRow {
                benchmark,
                scale,
                cold_sessions: cold.len(),
                warm_sessions: warm.len(),
                cold_rate: mean(&cold),
                warm_rate: mean(&warm),
            })
            .collect()
    }

    /// The fleet-wide warm/cold PCM write-rate ratio: mean over the
    /// like-for-like groups of `warm_rate / cold_rate` (< 1 means warm
    /// starts saved PCM writes). `None` without comparable groups.
    pub fn warm_cold_ratio(&self) -> Option<f64> {
        let rows = self.warm_cold_comparison();
        let ratios: Vec<f64> = rows
            .iter()
            .filter(|row| row.cold_rate > 0.0)
            .map(|row| row.warm_rate / row.cold_rate)
            .collect();
        if ratios.is_empty() {
            None
        } else {
            Some(mean(&ratios))
        }
    }

    /// Synthesises the fleet-level telemetry report written to
    /// `.kgmetrics`: deterministic counters and gauges for everything the
    /// fleet measures, plus the merged GC pause histogram. `elapsed_ns` is
    /// the modeled fleet time.
    pub fn fleet_report(&self) -> TelemetryReport {
        let mut counters: Vec<(String, u64)> = vec![
            ("fleet.advice_deposits".into(), self.advice_deposits),
            ("fleet.cold_starts".into(), self.cold_starts),
            ("fleet.completed".into(), self.completed() as u64),
            ("fleet.degraded_bytes".into(), self.degraded_bytes),
            ("fleet.device_failed_lines".into(), self.failed_lines),
            ("fleet.device_retired_pages".into(), self.retired_pages),
            ("fleet.drifted_warm_starts".into(), self.drifted_warm_starts),
            ("fleet.failed".into(), self.failures.len() as u64),
            ("fleet.pcm_bytes".into(), self.pcm_bytes),
            ("fleet.regions".into(), self.regions as u64),
            ("fleet.tenants".into(), self.outcomes.len() as u64),
            ("fleet.touch_events".into(), self.touch_events),
            ("fleet.warm_starts".into(), self.warm_starts),
        ];
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64, bool)> = vec![
            ("fleet.events_per_sec".into(), self.events_per_sec(), true),
            (
                "fleet.wear_cov".into(),
                self.device_wear.coefficient_of_variation,
                true,
            ),
        ];
        if let Some(years) = self.years_to_first_ue {
            gauges.push(("fleet.years_to_first_ue".into(), years, true));
        }
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        // One deterministic event per arrival wave: the per-wave load plus
        // the device's cumulative damage, so a `.kgmetrics` reader can plot
        // fleet growth over rounds. No wall-clock fields — the series must
        // stay bit-identical across `--jobs` fan-outs.
        let events = self
            .wave_series
            .iter()
            .enumerate()
            .map(|(seq, wave)| TelemetryEvent {
                seq: seq as u64,
                name: "fleet.wave".to_string(),
                deterministic: true,
                fields: vec![
                    ("wave".to_string(), Value::U64(wave.wave as u64)),
                    ("sessions".to_string(), Value::U64(wave.sessions as u64)),
                    ("died".to_string(), Value::U64(wave.died as u64)),
                    ("touch_events".to_string(), Value::U64(wave.touch_events)),
                    ("pcm_bytes".to_string(), Value::U64(wave.pcm_bytes)),
                    ("failed_lines".to_string(), Value::U64(wave.failed_lines)),
                    ("retired_pages".to_string(), Value::U64(wave.retired_pages)),
                ],
            })
            .collect();
        TelemetryReport {
            elapsed_ns: (self.modeled_s * 1e9) as u64,
            counters,
            gauges,
            hists: vec![("gc.pause_ns".to_string(), self.pauses.clone())],
            spans: Vec::new(),
            events,
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One tenant's full wave-time plan.
#[derive(Clone, Debug)]
struct SessionPlan {
    spec: TenantSpec,
    region: usize,
    warm: WarmStart,
    advice: Option<AdviceTable>,
}

/// What a completed session hands back to the driver.
struct SessionResult {
    outcome: TenantOutcome,
    line_writes: Vec<(u64, u64)>,
    advice_snapshot: Option<AdviceTable>,
}

fn memory_config() -> MemoryConfig {
    // Architecture-independent mode (every heap store reaches the device
    // counters) with per-line write tracking on: the device absorption
    // needs `pcm_line_writes` exports.
    let mut config = MemoryConfig::architecture_independent();
    config.track_line_writes = true;
    config
}

/// Runs one tenant session to completion and harvests everything the
/// fleet needs before the heap is recycled.
fn run_session(plan: &SessionPlan, traces: &BTreeMap<(String, u64), Trace>) -> SessionResult {
    let base = match plan.spec.collector {
        TenantCollector::KgN => HeapConfig::kg_n(),
        TenantCollector::KgW => HeapConfig::kg_w(),
        TenantCollector::KgD => match &plan.advice {
            Some(table) => HeapConfig::kg_d_with(table.clone()),
            None => HeapConfig::kg_d(),
        },
    };
    let profile = |name: &str| benchmark(name).unwrap_or_else(|| panic!("unknown fleet benchmark {name:?}"));
    let heap_config = match &plan.spec.workload {
        TenantWorkload::Synthetic { benchmark: name } | TenantWorkload::Replay { benchmark: name } => {
            profile(name).heap_config(base, plan.spec.scale)
        }
        TenantWorkload::Streaming => base.with_heap_budget(STREAMING_HEAP_BUDGET_BYTES),
    };
    let mut heap = KingsguardHeap::new(heap_config, memory_config());
    heap.enable_telemetry();
    match &plan.spec.workload {
        TenantWorkload::Synthetic { benchmark: name } => {
            SyntheticMutator::new(
                profile(name),
                WorkloadConfig {
                    scale: plan.spec.scale,
                    seed: plan.spec.seed,
                },
            )
            .run(&mut heap);
        }
        TenantWorkload::Streaming => {
            StreamingWorkload::new(StreamingConfig {
                scale: plan.spec.scale,
                seed: plan.spec.seed,
                mutators: 2,
                ..Default::default()
            })
            .run(&mut heap);
        }
        TenantWorkload::Replay { benchmark: name } => {
            let trace = traces
                .get(&(name.clone(), plan.spec.scale))
                .unwrap_or_else(|| panic!("no recorded trace for {name:?} at scale {}", plan.spec.scale));
            TraceReplayer::new(trace)
                .replay(&mut heap)
                .unwrap_or_else(|err| panic!("tenant replay failed: {err}"));
        }
    }
    // Harvest before `finish` consumes the heap: learned advice from the
    // policy, per-line device write counts for the wear broker.
    let advice_snapshot = heap.policy().advice_snapshot();
    let line_writes = heap.with_synced_memory(|mem| {
        mem.flush_caches();
        mem.pcm_line_writes()
    });
    let report = heap.finish();
    let elapsed_s = ExecutionModel::default()
        .breakdown(&report.gc.work, &report.memory)
        .total_s();
    let pcm_bytes = report.memory.bytes_written(MemoryKind::Pcm);
    let telemetry = report.telemetry.as_ref();
    SessionResult {
        outcome: TenantOutcome {
            index: plan.spec.index,
            benchmark: plan.spec.workload.benchmark_name().to_string(),
            collector: plan.spec.collector.label().to_string(),
            region: plan.region,
            scale: plan.spec.scale,
            warm: plan.warm,
            pcm_writes: report.memory.writes(MemoryKind::Pcm),
            pcm_bytes,
            elapsed_s,
            pcm_write_rate: if elapsed_s > 0.0 {
                pcm_bytes as f64 / elapsed_s
            } else {
                0.0
            },
            touch_events: telemetry.and_then(|t| t.counter("touch.events")).unwrap_or(0),
            pauses: telemetry
                .and_then(|t| t.hist("gc.pause_ns").cloned())
                .unwrap_or_default(),
            died: None,
        },
        line_writes,
        advice_snapshot,
    }
}

/// Records the `.kgtrace` session that replay tenants of `(name, scale)`
/// will be served. The recording seed derives from the fleet seed and the
/// key only — every replay tenant serves the *same* recorded session.
fn record_trace(name: &str, scale: u64, fleet_seed: u64) -> Trace {
    let profile = benchmark(name).unwrap_or_else(|| panic!("unknown fleet benchmark {name:?}"));
    let seed = name
        .bytes()
        .fold(mix(fleet_seed ^ scale), |hash, byte| mix(hash ^ byte as u64));
    let mut heap = KingsguardHeap::new(profile.heap_config(HeapConfig::kg_d(), scale), memory_config());
    let recorded = SyntheticMutator::new(profile, WorkloadConfig { scale, seed }).record(&mut heap);
    heap.finish();
    recorded
}

/// Crash-isolated wave execution: the `run_jobs_reporting` pattern (atomic
/// work queue, `catch_unwind` per cell) local to the fleet, which cannot
/// depend on the experiments crate.
fn run_wave<R: Send>(
    plans: &[SessionPlan],
    jobs: usize,
    f: impl Fn(&SessionPlan) -> R + Sync,
) -> Vec<Result<R, String>> {
    let call = |plan: &SessionPlan| -> Result<R, String> {
        // Each session builds its own heap and memory system; a panic
        // cannot leave state any sibling observes, so unwind safety is by
        // construction.
        catch_unwind(AssertUnwindSafe(|| f(plan))).map_err(|payload| panic_message(payload.as_ref()))
    };
    if jobs <= 1 || plans.len() <= 1 {
        return plans.iter().map(call).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = Vec::new();
    slots.resize_with(plans.len(), || None);
    let shared = std::sync::Mutex::new(slots);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(plans.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(plan) = plans.get(index) else {
                    break;
                };
                let result = call(plan);
                shared.lock().expect("worker poisoned the result set")[index] = Some(result);
            });
        }
    });
    shared
        .into_inner()
        .expect("worker poisoned the result set")
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by exactly one worker"))
        .collect()
}

/// Renders a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the fleet described by `config` with its default tenant mix.
pub fn run_fleet(config: &FleetConfig) -> FleetOutcome {
    run_fleet_with_specs(config, config.tenant_specs())
}

/// Runs the fleet over an explicit tenant list (tests inject custom mixes
/// and poison tenants through this entry point). Tenants are processed in
/// waves of `config.wave`; see the module docs for the determinism
/// discipline.
pub fn run_fleet_with_specs(config: &FleetConfig, specs: Vec<TenantSpec>) -> FleetOutcome {
    let broker = WearBroker::new(config.strategy);
    let mut device = FleetDevice::new(config.seed, config.regions, config.fault);
    let mut store = AdviceStore::new();
    let mut traces: BTreeMap<(String, u64), Trace> = BTreeMap::new();
    let current_hash = site_map_hash();
    let mut outcomes: Vec<TenantOutcome> = Vec::with_capacity(specs.len());
    let mut failures: Vec<TenantFailure> = Vec::new();
    let mut pauses = HistogramSummary::default();
    let mut touch_events = 0u64;
    let mut modeled_s = 0.0f64;
    let mut pcm_bytes = 0u64;
    let (mut warm_starts, mut drifted_warm_starts, mut cold_starts) = (0u64, 0u64, 0u64);
    let mut wave_series: Vec<WaveSummary> = Vec::new();

    for (wave_index, wave) in specs.chunks(config.wave.max(1)).enumerate() {
        // Record any `.kgtrace` sessions this wave replays (inline, in the
        // driver thread, so recording order is deterministic).
        for spec in wave {
            if let TenantWorkload::Replay { benchmark: name } = &spec.workload {
                if let std::collections::btree_map::Entry::Vacant(slot) =
                    traces.entry((name.clone(), spec.scale))
                {
                    // A failing recording surfaces as per-tenant replay
                    // failures, not a dead fleet.
                    if let Ok(recorded) =
                        catch_unwind(AssertUnwindSafe(|| record_trace(name, spec.scale, config.seed)))
                    {
                        slot.insert(recorded);
                    }
                }
            }
        }
        // All placement and warm-start decisions for the wave come from
        // fleet state at wave start.
        let indices: Vec<usize> = wave.iter().map(|spec| spec.index).collect();
        let regions = broker.place_wave(&indices, &device);
        let plans: Vec<SessionPlan> = wave
            .iter()
            .zip(regions)
            .map(|(spec, region)| {
                let (warm, advice) = if config.warm_start && spec.collector == TenantCollector::KgD {
                    match store.lookup(spec.workload.benchmark_name(), current_hash) {
                        AdviceLookup::Cold => (WarmStart::Cold, None),
                        AdviceLookup::Warm { snapshot, drift } => {
                            let warm = if matches!(drift, advice::SiteMapDrift::Match) {
                                WarmStart::Warm
                            } else {
                                WarmStart::Drifted
                            };
                            (warm, Some(snapshot.table))
                        }
                    }
                } else {
                    (WarmStart::Cold, None)
                };
                if spec.collector == TenantCollector::KgD && config.warm_start {
                    match warm {
                        WarmStart::Cold => cold_starts += 1,
                        WarmStart::Warm => warm_starts += 1,
                        WarmStart::Drifted => drifted_warm_starts += 1,
                    }
                }
                SessionPlan {
                    spec: spec.clone(),
                    region,
                    warm,
                    advice,
                }
            })
            .collect();
        let results = run_wave(&plans, config.jobs, |plan| run_session(plan, &traces));
        let mut summary = WaveSummary {
            wave: wave_index,
            sessions: plans.len(),
            died: 0,
            touch_events: 0,
            pcm_bytes: 0,
            failed_lines: 0,
            retired_pages: 0,
        };
        // Absorb wave effects in tenant-index order.
        for (plan, slot) in plans.iter().zip(results) {
            match slot {
                Ok(session) => {
                    device.absorb(plan.region, &session.line_writes, session.outcome.elapsed_s);
                    if let Some(table) = session.advice_snapshot {
                        store.deposit(
                            plan.spec.workload.benchmark_name(),
                            current_hash,
                            table,
                            plan.spec.index,
                        );
                    }
                    pauses.merge(&session.outcome.pauses);
                    touch_events += session.outcome.touch_events;
                    modeled_s += session.outcome.elapsed_s;
                    pcm_bytes += session.outcome.pcm_bytes;
                    summary.touch_events += session.outcome.touch_events;
                    summary.pcm_bytes += session.outcome.pcm_bytes;
                    outcomes.push(session.outcome);
                }
                Err(message) => {
                    summary.died += 1;
                    failures.push(TenantFailure {
                        index: plan.spec.index,
                        benchmark: plan.spec.workload.benchmark_name().to_string(),
                        message: message.clone(),
                    });
                    outcomes.push(TenantOutcome {
                        index: plan.spec.index,
                        benchmark: plan.spec.workload.benchmark_name().to_string(),
                        collector: plan.spec.collector.label().to_string(),
                        region: plan.region,
                        scale: plan.spec.scale,
                        warm: plan.warm,
                        pcm_writes: 0,
                        pcm_bytes: 0,
                        elapsed_s: 0.0,
                        pcm_write_rate: 0.0,
                        touch_events: 0,
                        pauses: HistogramSummary::default(),
                        died: Some(message),
                    });
                }
            }
        }
        summary.failed_lines = device.failed_line_count();
        summary.retired_pages = device.retired_page_count();
        wave_series.push(summary);
    }

    FleetOutcome {
        strategy: config.strategy,
        warm_start_enabled: config.warm_start,
        seed: config.seed,
        scale: config.scale,
        regions: config.regions,
        failed_lines: device.failed_line_count(),
        retired_pages: device.retired_page_count(),
        degraded_bytes: device.degraded_bytes(),
        years_to_first_ue: device.years_to_first_uncorrectable(),
        device_wear: device.wear_summary(),
        advice_deposits: store.counters().0,
        outcomes,
        failures,
        pauses,
        touch_events,
        modeled_s,
        pcm_bytes,
        warm_starts,
        drifted_warm_starts,
        cold_starts,
        wave_series,
    }
}

/// splitmix64 finalizer — the workspace's standard bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig::new(32).with_scale(4096)
    }

    fn assert_outcomes_bit_identical(a: &FleetOutcome, b: &FleetOutcome) {
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            let tag = format!("tenant #{} ({})", x.index, x.benchmark);
            assert_eq!(x.benchmark, y.benchmark, "{tag}");
            assert_eq!(x.collector, y.collector, "{tag}");
            assert_eq!(x.region, y.region, "{tag}");
            assert_eq!(x.warm, y.warm, "{tag}");
            assert_eq!(x.pcm_writes, y.pcm_writes, "{tag}");
            assert_eq!(x.pcm_bytes, y.pcm_bytes, "{tag}");
            assert_eq!(x.touch_events, y.touch_events, "{tag}");
            assert_eq!(x.elapsed_s.to_bits(), y.elapsed_s.to_bits(), "{tag}");
            assert_eq!(x.pcm_write_rate.to_bits(), y.pcm_write_rate.to_bits(), "{tag}");
            assert_eq!(x.pauses.count, y.pauses.count, "{tag}");
            assert_eq!(x.died, y.died, "{tag}");
        }
        assert_eq!(a.failed_lines, b.failed_lines);
        assert_eq!(a.retired_pages, b.retired_pages);
        assert_eq!(a.degraded_bytes, b.degraded_bytes);
        assert_eq!(
            a.years_to_first_ue.map(f64::to_bits),
            b.years_to_first_ue.map(f64::to_bits)
        );
        assert_eq!(a.touch_events, b.touch_events);
        assert_eq!(a.pcm_bytes, b.pcm_bytes);
        assert_eq!(a.modeled_s.to_bits(), b.modeled_s.to_bits());
        assert_eq!(
            a.wave_series, b.wave_series,
            "per-wave series must be jobs-invariant"
        );
        assert_eq!(
            (
                a.warm_starts,
                a.drifted_warm_starts,
                a.cold_starts,
                a.advice_deposits
            ),
            (
                b.warm_starts,
                b.drifted_warm_starts,
                b.cold_starts,
                b.advice_deposits
            )
        );
    }

    #[test]
    fn fleet_is_bit_identical_for_any_worker_count() {
        let base = small_config();
        let one = run_fleet(&base);
        let four = run_fleet(&base.clone().with_jobs(4));
        assert!(one.failures.is_empty(), "no tenant may die: {:?}", one.failures);
        assert_eq!(one.outcomes.len(), 32);
        assert_outcomes_bit_identical(&one, &four);
        // The default mix actually exercises every workload kind and
        // collector, warm starts happen after the first wave, and the fleet
        // moves real PCM traffic.
        assert!(one.warm_starts > 0, "repeat tenants must warm-start");
        assert!(one.cold_starts > 0, "first-wave tenants are cold");
        assert!(one.advice_deposits > 0, "KG-D tenants must deposit learnings");
        assert!(one.pcm_bytes > 0 && one.touch_events > 0 && one.modeled_s > 0.0);
        assert!(one.outcomes.iter().any(|o| o.benchmark == "streaming"));
        assert!(one.outcomes.iter().any(|o| o.collector == "KG-N"));
        assert!(one.outcomes.iter().any(|o| o.collector == "KG-W"));
        assert!(one.events_per_sec() > 0.0);
    }

    #[test]
    fn wave_series_tracks_arrival_rounds_and_reaches_the_report() {
        let config = small_config();
        let outcome = run_fleet(&config);
        let waves = outcome.outcomes.len().div_ceil(config.wave.max(1));
        assert_eq!(outcome.wave_series.len(), waves);
        for (index, wave) in outcome.wave_series.iter().enumerate() {
            assert_eq!(wave.wave, index);
            assert!(wave.sessions > 0);
        }
        // Per-wave loads sum to the fleet totals; cumulative damage counts
        // never decrease and end at the device's final state.
        let touch: u64 = outcome.wave_series.iter().map(|w| w.touch_events).sum();
        let bytes: u64 = outcome.wave_series.iter().map(|w| w.pcm_bytes).sum();
        assert_eq!(touch, outcome.touch_events);
        assert_eq!(bytes, outcome.pcm_bytes);
        for pair in outcome.wave_series.windows(2) {
            assert!(pair[1].failed_lines >= pair[0].failed_lines);
            assert!(pair[1].retired_pages >= pair[0].retired_pages);
        }
        assert_eq!(
            outcome.wave_series.last().unwrap().failed_lines,
            outcome.failed_lines
        );
        // The synthesized telemetry report carries one deterministic
        // `fleet.wave` event per wave.
        let report = outcome.fleet_report();
        let wave_events: Vec<_> = report.events.iter().filter(|e| e.name == "fleet.wave").collect();
        assert_eq!(wave_events.len(), waves);
        assert!(wave_events.iter().all(|e| e.deterministic));
        assert!(wave_events[0].fields.iter().any(|(key, _)| key == "touch_events"));
    }

    #[test]
    fn a_panicking_tenant_is_reported_not_fatal() {
        let config = small_config().with_jobs(2);
        let mut specs = config.tenant_specs();
        specs[3].workload = TenantWorkload::Synthetic {
            benchmark: "no-such-benchmark".to_string(),
        };
        let outcome = run_fleet_with_specs(&config, specs);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 3);
        assert!(outcome.failures[0].message.contains("no-such-benchmark"));
        assert_eq!(
            outcome.outcomes.len(),
            32,
            "the fleet completes around the failure"
        );
        assert_eq!(outcome.completed(), 31);
        let died = &outcome.outcomes[3];
        assert!(died.died.is_some() && died.pcm_writes == 0);
    }

    #[test]
    fn warm_starts_lower_kg_d_pcm_write_rates() {
        let outcome = run_fleet(&small_config());
        let rows = outcome.warm_cold_comparison();
        assert!(
            !rows.is_empty(),
            "the default mix must produce like-for-like groups"
        );
        let ratio = outcome.warm_cold_ratio().expect("comparable groups exist");
        assert!(
            ratio < 1.0,
            "warm-started KG-D tenants must write less PCM than cold ones (ratio {ratio:.3}, rows {rows:?})"
        );
    }

    #[test]
    fn wear_levelling_retires_fewer_pages_than_round_robin() {
        let base = FleetConfig::new(64).with_scale(4096);
        let naive = run_fleet(&base.clone().with_strategy(PlacementStrategy::RoundRobin));
        let levelled = run_fleet(&base.with_strategy(PlacementStrategy::WearLevelled));
        assert!(
            naive.retired_pages > 0,
            "the naive fleet must actually damage the device (failed lines: {})",
            naive.failed_lines
        );
        assert!(
            levelled.retired_pages < naive.retired_pages,
            "wear levelling must retire fewer pages ({} vs {})",
            levelled.retired_pages,
            naive.retired_pages
        );
        // Levelling spreads the same traffic more evenly: under round-robin
        // the heavy slots pin to fixed regions, so the hottest region takes
        // strictly more cumulative writes than any region of the levelled
        // fleet.
        let hottest = |outcome: &FleetOutcome| {
            let mut per_region = vec![0u64; outcome.regions];
            for tenant in &outcome.outcomes {
                per_region[tenant.region] += tenant.pcm_writes;
            }
            per_region.into_iter().max().unwrap_or(0)
        };
        assert!(
            hottest(&levelled) < hottest(&naive),
            "levelling must cap the hottest region ({} vs {})",
            hottest(&levelled),
            hottest(&naive)
        );
    }
}
