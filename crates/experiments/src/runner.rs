//! Experiment runner: one run is a [`Cell`] (a benchmark under one
//! collector, driver, measurement mode, scale, seed, cache scale and fault
//! schedule), and a [`Matrix`] runs each distinct cell of a `repro`
//! invocation once. Every figure, table and comparison asks the matrix for
//! the cells it shows, so a (benchmark, collector, mode) cell that five
//! figures compare is run once and reported once; `repro` prints the run
//! and cell counts on stderr. The matrix keeps each cell's
//! [`ExperimentResult`], from which every metric the paper reports is
//! derived, and never a heap.
//!
//! When [`ExperimentConfig::telemetry_dir`] is set, each run writes one
//! `.kgmetrics` report named after its cell ([`Cell::metrics_path`]).
//!
//! When [`ExperimentConfig::trace_dir`] is set, runs are **trace-backed**:
//! the first run of a (benchmark, scale, seed, space-sizing) combination
//! records its heap-event stream to a `.kgtrace` file in that directory
//! (recording is passive, so its results equal a live run), and every
//! subsequent run of the same combination — under *any* collector,
//! including hook-driven baselines like OS Write Partitioning — replays the
//! stream instead of re-running workload generation. Replay is bit-identical
//! to a live run and measurably faster, so an N-collector comparison pays
//! the workload-generation cost once instead of N times.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use advice::SiteProfile;
use hybrid_mem::energy::{EnergyBreakdown, EnergyModel};
use hybrid_mem::lifetime::LifetimeModel;
use hybrid_mem::timing::{ExecutionModel, TimeBreakdown};
use hybrid_mem::{years_to_first_uncorrectable, FaultConfig, MemoryConfig, MemoryKind, MemoryStats, Phase};
use kingsguard::{GcStats, HeapConfig, KingsguardHeap};
use oswp::{WritePartitioning, WritePartitioningConfig, WritePartitioningStats};
use trace::TraceReplayer;
use workloads::{BenchmarkProfile, SyntheticMutator, WorkloadConfig};

/// How the memory system is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasurementMode {
    /// Cycle-level simulation mode: scaled cache hierarchy + memory
    /// controller (used for Figures 5–10, as in Section 6.1).
    Simulation,
    /// Architecture-independent mode: no caches, every heap store reaches
    /// the device counters (used for Figures 11–12 and Table 4, matching the
    /// paper's barrier-reported "real hardware" numbers of Section 6.2).
    ArchitectureIndependent,
}

impl MeasurementMode {
    /// The mode's name in `.kgmetrics` file names and headers.
    pub(crate) fn label(self) -> &'static str {
        match self {
            MeasurementMode::Simulation => "simulation",
            MeasurementMode::ArchitectureIndependent => "arch-independent",
        }
    }
}

/// Configuration shared by all experiments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Divisor applied to the paper's allocation volumes and heap sizes.
    pub scale: u64,
    /// RNG seed for the synthetic mutators.
    pub seed: u64,
    /// Divisor applied to the cache hierarchy in simulation mode so the
    /// scaled-down working sets see realistic miss rates.
    pub cache_scale: usize,
    /// Measurement mode.
    pub mode: MeasurementMode,
    /// Worker threads for fanning the embarrassingly parallel per-benchmark
    /// runs of an experiment over [`run_jobs`] (`1` runs inline; results and
    /// output ordering are identical either way).
    pub jobs: usize,
    /// Directory of recorded `.kgtrace` heap-event streams. When set, every
    /// benchmark run records its trace on first use and replays it on every
    /// later use (see the module docs); when `None`, runs are always live.
    pub trace_dir: Option<PathBuf>,
    /// Directory for `.kgmetrics` telemetry emissions. Runs always collect
    /// telemetry (it is host-side bookkeeping, bit-identical on or off, and
    /// feeds the pause columns of the experiment tables); when this is set,
    /// each run additionally writes its report as a JSON-lines file named
    /// after its cell ([`Cell::metrics_path`]), and per-line write tracking
    /// is forced on so wear-distribution snapshots are included.
    pub telemetry_dir: Option<PathBuf>,
    /// Deterministic PCM fault injection. `None` (the default) runs
    /// fault-free and is bit-identical to builds that predate the fault
    /// model; `Some` installs the schedule in every heap the experiment
    /// builds, and its seed is stamped into recorded `.kgtrace` provenance
    /// so replays only reuse traces taken under the same schedule.
    pub fault: Option<FaultConfig>,
}

impl ExperimentConfig {
    /// The default experiment configuration (scale 256, simulation mode).
    pub fn simulation() -> Self {
        ExperimentConfig {
            scale: 256,
            seed: 0xC0FFEE,
            cache_scale: 16,
            mode: MeasurementMode::Simulation,
            jobs: 1,
            trace_dir: None,
            telemetry_dir: None,
            fault: None,
        }
    }

    /// Architecture-independent mode at the default scale.
    pub fn architecture_independent() -> Self {
        ExperimentConfig {
            mode: MeasurementMode::ArchitectureIndependent,
            ..Self::simulation()
        }
    }

    /// A much smaller configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 2048,
            seed: 7,
            cache_scale: 64,
            mode: MeasurementMode::ArchitectureIndependent,
            jobs: 1,
            trace_dir: None,
            telemetry_dir: None,
            fault: None,
        }
    }

    /// Same configuration with a different scale.
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.scale = scale;
        self
    }

    /// Same configuration with a different worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Same configuration with trace-backed runs recording to / replaying
    /// from `dir`.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Same configuration with `.kgmetrics` telemetry files written to
    /// `dir` (see [`ExperimentConfig::telemetry_dir`]).
    pub fn with_telemetry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry_dir = Some(dir.into());
        self
    }

    /// Same configuration with deterministic PCM fault injection enabled
    /// (see [`ExperimentConfig::fault`]).
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    pub(crate) fn memory_config(&self) -> MemoryConfig {
        let mut config = match self.mode {
            MeasurementMode::Simulation => MemoryConfig::hybrid_scaled(self.cache_scale),
            MeasurementMode::ArchitectureIndependent => MemoryConfig::architecture_independent(),
        };
        if self.telemetry_dir.is_some() {
            // Emitted telemetry includes wear-distribution snapshots, which
            // need per-line write counts. Tracking only adds host-side
            // bookkeeping; the simulated traffic is unchanged.
            config.track_line_writes = true;
        }
        if let Some(fault) = self.fault {
            config = config.with_faults(fault);
        }
        config
    }

    pub(crate) fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            scale: self.scale,
            seed: self.seed,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::simulation()
    }
}

/// The outcome of running one benchmark under one collector.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector label ("KG-N", "KG-W", "PCM-only", "WP", ...).
    pub collector: String,
    /// Collector statistics.
    pub gc: GcStats,
    /// Memory-system statistics (caches flushed).
    pub memory: MemoryStats,
    /// Execution-time breakdown from the mechanistic model.
    pub time: TimeBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
    /// OS Write Partitioning statistics when the WP baseline was active.
    pub wp: Option<WritePartitioningStats>,
    /// The profile's 4→32-core write-rate scaling factor (1.0 if the paper
    /// did not report one).
    pub scaling_factor: f64,
    /// The per-site profile gathered by the run. Always present for runs
    /// driven by this module: site profiling leaves the simulation
    /// bit-identical, so every run profiles.
    pub site_profile: Option<SiteProfile>,
    /// The run's telemetry snapshot: GC-phase spans, pause histograms,
    /// device/cache counters and adaptation events (see the `telemetry`
    /// crate). Always present for runs driven by this module.
    pub telemetry: Option<telemetry::TelemetryReport>,
    /// Real-time years until the first ECC-uncorrectable PCM page at the
    /// run's per-line write rates. `None` for a fault-free run, and for a
    /// faulted run in which no page would ever fail.
    pub years_to_uncorrectable: Option<f64>,
}

impl ExperimentResult {
    /// Device writes to PCM (cache lines).
    pub fn pcm_writes(&self) -> u64 {
        self.memory.writes(MemoryKind::Pcm)
    }

    /// Device writes to DRAM (cache lines).
    pub fn dram_writes(&self) -> u64 {
        self.memory.writes(MemoryKind::Dram)
    }

    /// Application (barrier-level) writes that reached PCM, i.e. mutator
    /// phase device writes.
    pub fn pcm_app_writes(&self) -> u64 {
        self.memory.phase_writes(MemoryKind::Pcm).get(Phase::Mutator)
    }

    /// Execution time in seconds from the mechanistic model.
    pub fn execution_time_s(&self) -> f64 {
        self.time.total_s()
    }

    /// Simulated 4-core PCM write rate in bytes per second.
    pub fn pcm_write_rate_4core(&self) -> f64 {
        let time = self.execution_time_s();
        if time <= 0.0 {
            return 0.0;
        }
        self.memory.bytes_written(MemoryKind::Pcm) as f64 / time
    }

    /// Estimated 32-core PCM write rate in bytes per second: the simulated
    /// 4-core rate multiplied by the measured scaling factor (Table 3
    /// methodology).
    pub fn pcm_write_rate_32core(&self) -> f64 {
        self.pcm_write_rate_4core() * self.scaling_factor
    }

    /// PCM lifetime in years for `endurance_writes` per cell under the
    /// estimated 32-core write rate (Equation 1 of the paper).
    pub fn pcm_lifetime_years(&self, endurance_writes: u64) -> f64 {
        let model = LifetimeModel {
            capacity_bytes: 32 << 30,
            endurance_writes,
        };
        model.years(self.pcm_write_rate_32core())
    }
}

impl AsRef<ExperimentResult> for ExperimentResult {
    fn as_ref(&self) -> &ExperimentResult {
        self
    }
}

/// Estimated 32-core PCM write rate of a raw [`kingsguard::RunReport`] in
/// bytes/s: the same derivation `finalize` bakes into
/// [`ExperimentResult::pcm_write_rate_32core`] (default execution model,
/// PCM bytes over modeled time, times the published scaling factor), for
/// callers holding a report instead of a finalized result.
pub fn report_pcm_write_rate_32core(report: &kingsguard::RunReport, scaling_factor: f64) -> f64 {
    let time = ExecutionModel::default()
        .breakdown(&report.gc.work, &report.memory)
        .total_s();
    if time <= 0.0 {
        return 0.0;
    }
    report.memory.bytes_written(MemoryKind::Pcm) as f64 / time * scaling_factor
}

/// How a [`Cell`]'s workload reaches its heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Driver {
    /// The workload alone.
    Plain,
    /// The OS Write Partitioning baseline (Section 6.1.3): the workload,
    /// with the OS migrating pages between DRAM and PCM every quantum.
    WritePartitioning,
}

/// One run of the evaluation: a benchmark under one collector and driver,
/// in one measurement mode, at one scale, seed, cache scale and fault
/// schedule. Two cells are equal when all of those agree; the rest of the
/// [`ExperimentConfig`] (worker threads, trace and telemetry directories)
/// says how and where a run happens, not what it computes.
#[derive(Clone, Debug)]
pub struct Cell {
    profile: BenchmarkProfile,
    heap: HeapConfig,
    driver: Driver,
    config: ExperimentConfig,
}

impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        let (a, b) = (&self.config, &other.config);
        (&self.profile, &self.heap, self.driver) == (&other.profile, &other.heap, other.driver)
            && (a.mode, a.scale, a.seed, a.cache_scale, a.fault)
                == (b.mode, b.scale, b.seed, b.cache_scale, b.fault)
    }
}

impl Cell {
    /// `profile` under the collector `heap` describes. The heap budget is
    /// sized from the profile and the scale when the cell runs.
    pub fn new(profile: &BenchmarkProfile, heap: HeapConfig, config: &ExperimentConfig) -> Cell {
        Cell {
            profile: profile.clone(),
            heap,
            driver: Driver::Plain,
            config: config.clone(),
        }
    }

    /// `profile` on a PCM-only generational Immix heap managed by the OS
    /// Write Partitioning baseline (Section 6.1.3).
    pub fn write_partitioning(profile: &BenchmarkProfile, config: &ExperimentConfig) -> Cell {
        Cell {
            driver: Driver::WritePartitioning,
            ..Cell::new(profile, HeapConfig::gen_immix_pcm(), config)
        }
    }

    /// The collector label of the cell's result ("KG-N", "WP", ...).
    pub(crate) fn label(&self) -> String {
        match self.driver {
            Driver::Plain => self.heap.label(),
            Driver::WritePartitioning => "WP".to_string(),
        }
    }

    /// The cell's `.kgmetrics` file in `dir`:
    /// `{benchmark}-{collector}-{mode}.kgmetrics`. A cell with an advice
    /// table or a fault schedule adds an 8-digit digest of them, because
    /// the name shows neither and two such cells could otherwise share it.
    pub fn metrics_path(&self, dir: &Path) -> PathBuf {
        let mut stem = format!(
            "{}-{}-{}",
            self.profile.name,
            self.label(),
            self.config.mode.label()
        );
        if self.heap.advice.is_some() || self.config.fault.is_some() {
            stem.push_str(&format!("-{:08x}", self.digest()));
        }
        metrics_path(dir, &stem)
    }

    /// FNV-1a over the fault schedule and the advice table (in site order),
    /// truncated to 32 bits.
    fn digest(&self) -> u32 {
        let mut text = format!("{:?}", self.config.fault);
        if let Some(advice) = &self.heap.advice {
            let sites: Vec<_> = advice.iter().collect();
            text.push_str(&format!("{:?}{sites:?}", advice.default_placement()));
        }
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        hash as u32
    }

    /// Runs the cell on a fresh heap. `attach` sees the heap before the
    /// workload does (the sanitizer installs itself there).
    ///
    /// Every run collects telemetry and a per-site profile. Both are
    /// host-side bookkeeping that leave the simulation bit-identical, so
    /// one run serves the callers that read them and the callers that do
    /// not. A faulted run ends with a maintenance collection: only a full
    /// collection processes the fault backlog at a safepoint (evacuating
    /// live objects off dying pages before retiring them), and a short run
    /// can finish without one. Its per-line write counts, flushed first,
    /// feed [`ExperimentResult::years_to_uncorrectable`].
    pub(crate) fn execute(&self, attach: impl FnOnce(&mut KingsguardHeap)) -> ExperimentResult {
        let heap_config = self.profile.heap_config(self.heap.clone(), self.config.scale);
        let mut heap = KingsguardHeap::new(heap_config.clone(), self.config.memory_config());
        heap.enable_telemetry();
        heap.enable_profiling(self.profile.name);
        attach(&mut heap);
        let mut wp = match self.driver {
            Driver::Plain => None,
            Driver::WritePartitioning => Some(WritePartitioning::new(WritePartitioningConfig::default())),
        };
        drive_workload(
            &self.profile,
            &mut heap,
            &heap_config,
            &self.config,
            |heap, progress| {
                if let Some(wp) = &mut wp {
                    heap.with_synced_memory(|mem| wp.advance(mem, progress.elapsed_ms));
                }
            },
        );
        let line_writes = self.config.fault.map(|_| {
            heap.collect_full();
            heap.with_synced_memory(|mem| {
                mem.flush_caches();
                mem.pcm_line_writes()
            })
        });
        let mut result = self.finalize(heap, wp.map(|wp| wp.stats()));
        if let (Some(fault), Some(line_writes)) = (self.config.fault, line_writes) {
            result.years_to_uncorrectable =
                years_to_first_uncorrectable(&fault, &line_writes, result.execution_time_s());
        }
        result
    }

    fn finalize(&self, heap: KingsguardHeap, wp: Option<WritePartitioningStats>) -> ExperimentResult {
        // Provisioned capacities of the paper's memory systems: 32 GB
        // DRAM-only, 32 GB PCM-only, or hybrid 1 GB DRAM + 32 GB PCM (any
        // topology mixing the two technologies, and the OS-partitioned WP
        // baseline).
        let topology = heap.constraints().topology;
        let (dram_fraction, pcm_fraction) = if wp.is_some() || topology.nursery != topology.mature {
            (1.0 / 32.0, 1.0)
        } else if topology.nursery == MemoryKind::Dram {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        };
        let report = heap.finish();
        let model = ExecutionModel::default();
        let time = model.breakdown(&report.gc.work, &report.memory);
        let energy_model = EnergyModel::default();
        let energy = energy_model.breakdown(&report.memory, time.total_s(), dram_fraction, pcm_fraction);
        let edp = energy.total_j() * time.total_s();
        let collector = self.label();
        if let (Some(dir), Some(telemetry)) = (&self.config.telemetry_dir, &report.telemetry) {
            let meta = telemetry::RunMeta {
                benchmark: self.profile.name.to_string(),
                collector: collector.clone(),
                mode: self.config.mode.label().to_string(),
                seed: self.config.seed,
                scale: self.config.scale,
            };
            let path = self.metrics_path(dir);
            if let Err(err) = std::fs::create_dir_all(dir)
                .map_err(telemetry::TelemetryError::from)
                .and_then(|()| telemetry::write_jsonl(&path, &meta, telemetry))
            {
                eprintln!("warning: could not write telemetry {}: {err}", path.display());
            }
        }
        ExperimentResult {
            benchmark: self.profile.name.to_string(),
            collector,
            gc: report.gc,
            memory: report.memory,
            time,
            energy,
            edp,
            wp,
            scaling_factor: self.profile.scaling_factor.unwrap_or(1.0),
            site_profile: report.site_profile,
            telemetry: report.telemetry,
            years_to_uncorrectable: None,
        }
    }
}

/// `dir/{stem}.kgmetrics`, with every character of `stem` other than ASCII
/// alphanumerics, `-` and `.` replaced by `_`.
pub(crate) fn metrics_path(dir: &Path, stem: &str) -> PathBuf {
    let stem: String = stem
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{stem}.{}", telemetry::FILE_EXTENSION))
}

/// A cell's result, filled by the one run that computes it.
type Slot = Arc<OnceLock<Arc<ExperimentResult>>>;

/// The runs of one `repro` invocation. [`Matrix::run`] runs each distinct
/// [`Cell`] once and hands every later request for it the kept result, so
/// experiments that compare the same collectors on the same benchmarks
/// share their runs. It keeps results, never heaps.
#[derive(Debug, Default)]
pub struct Matrix {
    slots: Mutex<Vec<(Cell, Slot)>>,
    runs: AtomicUsize,
}

impl Matrix {
    /// The result of `cell`, running it if no earlier request did. A cell
    /// that two workers request at once runs once: the second waits for
    /// the first's result. A run that panics leaves its slot empty, so the
    /// next request runs the cell again.
    pub fn run(&self, cell: Cell) -> Arc<ExperimentResult> {
        let slot = {
            let mut slots = self.slots.lock().expect("no panic while the slot list is held");
            match slots.iter().find(|(key, _)| *key == cell) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.push((cell.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| {
            self.runs.fetch_add(1, Ordering::Relaxed);
            Arc::new(cell.execute(|_| {}))
        }))
    }

    /// Runs made so far.
    pub fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Distinct cells requested so far.
    pub fn cells(&self) -> usize {
        self.slots
            .lock()
            .expect("no panic while the slot list is held")
            .len()
    }
}

/// Canonical trace file path for one workload: keyed by everything that
/// shapes the recorded op stream — workload name, scale, seed, the
/// nursery/observer sizes the driver derives lifetimes from, and the
/// mutator count `mutators` (K shapes context spawns, interleaving and SSB
/// drain points; only in architecture-independent mode are totals
/// K-invariant) — so distinct combinations never collide and every
/// collector sharing a combination shares one trace.
pub fn trace_path(
    dir: &Path,
    workload: &str,
    heap_config: &HeapConfig,
    config: &ExperimentConfig,
    mutators: usize,
) -> PathBuf {
    // Fault-injected runs get their own files (keyed by the fault seed):
    // their device-level schedules differ, and fault-free runs keep the
    // historical names.
    let fault = match config.fault {
        Some(fault) => format!("-f{:016x}", fault.seed),
        None => String::new(),
    };
    dir.join(format!(
        "{workload}-n{}-o{}-s{}-x{:016x}-k{}{fault}.{}",
        heap_config.nursery_bytes,
        heap_config.observer_bytes,
        config.scale,
        config.seed,
        mutators.max(1),
        trace::FILE_EXTENSION
    ))
}

/// The trace at `path` if it is current, `None` if the caller must record
/// it anew. A missing file is the normal first use and passes silently; a
/// damaged or stale one is reported on stderr. A trace is *stale* when its
/// `site-map-hash` no longer matches the workload site map (its site ids
/// would mislead KG-A, KG-D and the profiling pipeline, as a drifted
/// `.kgprof` would; hash 0, e.g. a hand-built trace, is trusted) or when
/// it was taken under another fault schedule than `config` installs (seed
/// 0 = fault-free, also what v1 traces report), so it would replay a
/// different device failure history.
pub(crate) fn current_trace(path: &Path, config: &ExperimentConfig) -> Option<trace::Trace> {
    let recorded = match trace::load_trace(path) {
        Ok(recorded) => recorded,
        Err(trace::TraceError::Io(_)) => return None,
        Err(err) => {
            eprintln!("warning: {}: {err}; re-recording", path.display());
            return None;
        }
    };
    let site_map_hash = recorded.header.site_map_hash;
    let fault_seed = config.fault.map(|fault| fault.seed).unwrap_or(0);
    if site_map_hash != 0 && site_map_hash != workloads::site_map_hash() {
        eprintln!(
            "warning: {}: site map drifted since recording; re-recording",
            path.display()
        );
        None
    } else if recorded.header.fault_seed != fault_seed {
        eprintln!(
            "warning: {}: fault schedule changed since recording \
             (recorded seed {:#x}); re-recording",
            path.display(),
            recorded.header.fault_seed
        );
        None
    } else {
        Some(recorded)
    }
}

/// Drives `heap` through `profile`'s workload. Live when
/// [`ExperimentConfig::trace_dir`] is unset; otherwise replays the
/// [`current_trace`], recording it first (passively, so the recording run
/// doubles as this collector's result) when there is none.
fn drive_workload(
    profile: &BenchmarkProfile,
    heap: &mut KingsguardHeap,
    heap_config: &HeapConfig,
    config: &ExperimentConfig,
    hook: impl FnMut(&mut KingsguardHeap, workloads::MutatorProgress),
) {
    let mutator = SyntheticMutator::new(profile.clone(), config.workload());
    let Some(dir) = &config.trace_dir else {
        mutator.run_with(heap, hook);
        return;
    };
    // The figure/table drivers run the single-mutator stream on context 0.
    let path = trace_path(dir, profile.name, heap_config, config, 1);
    match current_trace(&path, config) {
        Some(recorded) => {
            let started = std::time::Instant::now();
            let stats = TraceReplayer::new(&recorded)
                .replay_with(heap, hook)
                .unwrap_or_else(|err| panic!("replaying {} failed: {err}", path.display()));
            record_replay_telemetry(heap, &recorded, stats, started.elapsed());
        }
        None => {
            let recorded = mutator.record_with(heap, hook);
            if let Err(err) = trace::save_trace(&recorded, &path) {
                eprintln!("warning: could not save trace {}: {err}", path.display());
            }
        }
    }
}

/// Records replay-progress metrics after a trace-backed run: how much of
/// the stream was applied, its throughput, and the divergence of the
/// replayed heap from the recorded schedule (collections the heap ran on
/// its own allocation pressure beyond the explicitly recorded ones — zero
/// divergence means the replay hit every recorded safepoint position).
fn record_replay_telemetry(
    heap: &mut KingsguardHeap,
    recorded: &trace::Trace,
    stats: trace::ReplayStats,
    elapsed: std::time::Duration,
) {
    if !heap.telemetry().is_enabled() {
        return;
    }
    let (mut recorded_collects, mut recorded_safepoints) = (0u64, 0u64);
    for event in recorded.events.iter() {
        match event {
            trace::TraceEvent::Collect { .. } => recorded_collects += 1,
            trace::TraceEvent::Safepoint => recorded_safepoints += 1,
            _ => {}
        }
    }
    let observed_collections = {
        let gc = heap.stats();
        gc.nursery.collections + gc.observer.collections + gc.major.collections
    };
    let telemetry = heap.telemetry_mut();
    telemetry.counter_set("replay.events", stats.events);
    telemetry.counter_set("replay.allocations", stats.allocations);
    telemetry.counter_set("replay.hooks", stats.hooks);
    telemetry.counter_set("replay.recorded_collects", recorded_collects);
    telemetry.counter_set("replay.recorded_safepoints", recorded_safepoints);
    telemetry.counter_set(
        "replay.unscheduled_collections",
        observed_collections.saturating_sub(recorded_collects),
    );
    let elapsed_s = elapsed.as_secs_f64();
    if elapsed_s > 0.0 {
        telemetry.timing_gauge("replay.events_per_sec", stats.events as f64 / elapsed_s);
    }
}

/// One experiment cell that panicked under [`run_jobs_reporting`].
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// The panic payload, rendered (`Box<dyn Any>` payloads that are not
    /// strings become a placeholder).
    pub message: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell #{}: {}", self.index, self.message)
    }
}

/// Renders a caught panic payload for failure reports.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Crash-isolated variant of [`run_jobs`]: every cell runs under
/// `catch_unwind`, so one panicking (benchmark, collector) pair neither
/// aborts the process nor takes the sibling cells with it. Returns the
/// per-item results in input order (`None` where the cell panicked) plus
/// one [`JobFailure`] per panicked cell, in index order.
pub fn run_jobs_reporting<T, R, F>(items: &[T], jobs: usize, f: F) -> (Vec<Option<R>>, Vec<JobFailure>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let call = |index: usize, item: &T| -> Result<R, JobFailure> {
        // The closure only borrows `f` and the item; a panic cannot leave
        // them in a state any later cell observes (each cell builds its own
        // heap and memory system), so unwind safety is by construction.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(|payload| JobFailure {
            index,
            message: panic_message(payload.as_ref()),
        })
    };
    let mut slots: Vec<Option<Result<R, JobFailure>>>;
    if jobs <= 1 || items.len() <= 1 {
        slots = items
            .iter()
            .enumerate()
            .map(|(index, item)| Some(call(index, item)))
            .collect();
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        slots = Vec::new();
        slots.resize_with(items.len(), || None);
        let shared = std::sync::Mutex::new(slots);
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(items.len()) {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    let result = call(index, item);
                    shared.lock().expect("worker poisoned the result set")[index] = Some(result);
                });
            }
        });
        slots = shared.into_inner().expect("worker poisoned the result set");
    }
    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for slot in slots {
        match slot.expect("every index was claimed by exactly one worker") {
            Ok(result) => results.push(Some(result)),
            Err(failure) => {
                results.push(None);
                failures.push(failure);
            }
        }
    }
    (results, failures)
}

/// Runs `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order. Each (benchmark, collector) run is embarrassingly
/// parallel — every worker builds its own heap and memory system — so the
/// results are identical to a sequential run; only the wall-clock changes.
/// `jobs <= 1` runs inline.
///
/// A panicking cell no longer aborts its siblings: every cell runs to
/// completion (or failure) first, and only then does this function panic
/// with a summary naming each failed cell — which `repro` catches and turns
/// into a non-zero exit. Callers that want the partial results instead use
/// [`run_jobs_reporting`].
pub fn run_jobs<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let (results, failures) = run_jobs_reporting(items, jobs, f);
    if !failures.is_empty() {
        let lines: Vec<String> = failures.iter().map(JobFailure::to_string).collect();
        panic!(
            "{} of {} cells failed: {}",
            failures.len(),
            results.len(),
            lines.join("; ")
        );
    }
    results
        .into_iter()
        .map(|slot| slot.expect("no failures means every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::benchmark;

    /// One run of `heap` on `profile`, on a matrix of its own.
    fn run(profile: &BenchmarkProfile, heap: HeapConfig, config: &ExperimentConfig) -> Arc<ExperimentResult> {
        Matrix::default().run(Cell::new(profile, heap, config))
    }

    #[test]
    fn quick_run_produces_consistent_metrics() {
        let profile = benchmark("lu.fix").unwrap();
        let result = run(&profile, HeapConfig::kg_n(), &ExperimentConfig::quick());
        assert_eq!(result.collector, "KG-N");
        assert_eq!(result.benchmark, "lu.fix");
        assert!(result.gc.bytes_allocated > 0);
        assert!(result.pcm_writes() > 0, "KG-N promotes survivors to PCM");
        assert!(result.execution_time_s() > 0.0);
        assert!(result.edp > 0.0);
        assert!(result.pcm_write_rate_4core() > 0.0);
        assert!(result.pcm_lifetime_years(30_000_000).is_finite());
        assert!(result.pcm_write_rate_32core() >= result.pcm_write_rate_4core());
        assert!(result.site_profile.is_some(), "every run profiles its sites");
        assert_eq!(result.years_to_uncorrectable, None, "fault-free");
    }

    #[test]
    fn kg_n_writes_less_pcm_than_pcm_only() {
        let profile = benchmark("lusearch").unwrap();
        let config = ExperimentConfig::quick();
        let pcm_only = run(&profile, HeapConfig::gen_immix_pcm(), &config);
        let kg_n = run(&profile, HeapConfig::kg_n(), &config);
        assert!(
            kg_n.pcm_writes() < pcm_only.pcm_writes(),
            "KG-N must reduce PCM writes: {} vs {}",
            kg_n.pcm_writes(),
            pcm_only.pcm_writes()
        );
    }

    #[test]
    fn wp_runs_and_migrates_pages() {
        let profile = benchmark("pmd").unwrap();
        // WP is time-driven (10 ms quanta); use a scale at which the run
        // lasts long enough for several quanta to elapse.
        let config = ExperimentConfig::quick().with_scale(256);
        let result = Matrix::default().run(Cell::write_partitioning(&profile, &config));
        let wp = result.wp.expect("WP statistics present");
        assert!(wp.quanta > 0, "OS quanta must have elapsed");
        assert_eq!(result.collector, "WP");
    }

    #[test]
    fn the_matrix_runs_each_distinct_cell_once() {
        let profile = benchmark("lu.fix").unwrap();
        let quick = ExperimentConfig::quick();
        let matrix = Matrix::default();
        let kg_n = Cell::new(&profile, HeapConfig::kg_n(), &quick);
        let first = matrix.run(kg_n.clone());
        // Worker threads and output directories are not part of the key.
        let again = matrix.run(Cell::new(
            &profile,
            HeapConfig::kg_n(),
            &quick.clone().with_jobs(4).with_trace_dir("unused"),
        ));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((matrix.runs(), matrix.cells()), (1, 1));
        // Every field that shapes a run is.
        let distinct = [
            Cell::new(&profile, HeapConfig::kg_w(), &quick),
            Cell::new(&benchmark("pmd").unwrap(), HeapConfig::kg_n(), &quick),
            Cell::write_partitioning(&profile, &quick),
            Cell::new(&profile, HeapConfig::kg_n(), &quick.clone().with_scale(1024)),
            Cell::new(
                &profile,
                HeapConfig::kg_n(),
                &ExperimentConfig {
                    mode: MeasurementMode::Simulation,
                    ..quick.clone()
                },
            ),
        ];
        for cell in &distinct {
            assert_ne!(*cell, kg_n, "{}", cell.label());
        }
        // Four workers asking for one cell at once share one run.
        let barrier = std::sync::Barrier::new(4);
        let shared = run_jobs(&[0, 1, 2, 3], 4, |_| {
            barrier.wait();
            matrix.run(distinct[0].clone())
        });
        assert!(shared.iter().all(|result| Arc::ptr_eq(result, &shared[0])));
        assert_eq!((matrix.runs(), matrix.cells()), (2, 2));
    }

    #[test]
    fn modes_and_advice_tables_get_their_own_metrics_files() {
        let dir = Path::new("metrics");
        let profile = benchmark("lusearch").unwrap();
        let quick = ExperimentConfig::quick();
        let sim = ExperimentConfig {
            mode: MeasurementMode::Simulation,
            ..quick.clone()
        };
        let path = |heap: HeapConfig, config: &ExperimentConfig| {
            Cell::new(&profile, heap, config)
                .metrics_path(dir)
                .file_name()
                .unwrap()
                .to_string_lossy()
                .into_owned()
        };
        assert_eq!(
            path(HeapConfig::kg_w(), &quick),
            "lusearch-KG-W-arch-independent.kgmetrics"
        );
        assert_eq!(
            path(HeapConfig::kg_w(), &sim),
            "lusearch-KG-W-simulation.kgmetrics"
        );
        assert_eq!(
            Cell::write_partitioning(&profile, &sim).metrics_path(dir),
            dir.join("lusearch-WP-simulation.kgmetrics")
        );
        // Advice tables and fault schedules are not in the name, so cells
        // that carry them add a digest of them.
        let cold = path(HeapConfig::kg_a(advice::AdviceTable::all_cold()), &quick);
        let hot = path(
            HeapConfig::kg_a(advice::AdviceTable::from_entries(
                [(advice::SiteId(3), advice::Placement::DramMature)],
                advice::Placement::PcmMature,
            )),
            &quick,
        );
        assert!(cold.starts_with("lusearch-KG-A-arch-independent-"), "{cold}");
        assert_ne!(cold, hot);
        let faulted = |seed| {
            path(
                HeapConfig::kg_n(),
                &quick
                    .clone()
                    .with_faults(FaultConfig::accelerated(seed, hybrid_mem::Endurance::Low10M)),
            )
        };
        assert_ne!(faulted(1), faulted(2));
        assert_eq!(faulted(1), faulted(1));
    }

    #[test]
    fn trace_backed_runs_match_live_runs_exactly() {
        let dir = std::env::temp_dir().join(format!("kgtrace-runner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let profile = benchmark("lu.fix").unwrap();
        let live_config = ExperimentConfig::quick();
        let traced_config = ExperimentConfig::quick().with_trace_dir(&dir);
        let fingerprint = |result: &ExperimentResult| {
            (
                result.pcm_writes(),
                result.dram_writes(),
                result.gc.remset_insertions,
                result.gc.nursery.collections,
            )
        };
        for heap_config in [
            HeapConfig::kg_n(),
            HeapConfig::kg_w(),
            HeapConfig::gen_immix_pcm(),
        ] {
            let live = run(&profile, heap_config.clone(), &live_config);
            // First traced run records (passively), second replays; both
            // must equal the live run bit-for-bit.
            let recorded = run(&profile, heap_config.clone(), &traced_config);
            let replayed = run(&profile, heap_config.clone(), &traced_config);
            assert_eq!(
                fingerprint(&recorded),
                fingerprint(&live),
                "{}",
                heap_config.label()
            );
            assert_eq!(
                fingerprint(&replayed),
                fingerprint(&live),
                "{}",
                heap_config.label()
            );
        }
        // One trace file serves every collector of the same sizing.
        let traces: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(traces.len(), 1, "all collectors share one recorded trace");
        // The hook-driven OS Write Partitioning baseline replays its
        // mid-run migrations from the recorded hook markers.
        let wp_live = Matrix::default().run(Cell::write_partitioning(&profile, &live_config));
        let wp_replayed = Matrix::default().run(Cell::write_partitioning(&profile, &traced_config));
        assert_eq!(fingerprint(&wp_replayed), fingerprint(&wp_live));
        assert_eq!(
            wp_replayed.wp.as_ref().map(|wp| wp.quanta),
            wp_live.wp.as_ref().map(|wp| wp.quanta),
        );
        // Replayed runs reproduce the site profile from the replayed
        // site-tagged stream.
        let profiled_live = run(&profile, HeapConfig::kg_n(), &live_config);
        let profiled_replayed = run(&profile, HeapConfig::kg_n(), &traced_config);
        assert_eq!(
            profiled_replayed.site_profile.as_ref().map(|p| p.sites.len()),
            profiled_live.site_profile.as_ref().map(|p| p.sites.len()),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_site_map_traces_are_re_recorded_not_replayed() {
        let dir = std::env::temp_dir().join(format!("kgtrace-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let profile = benchmark("pmd").unwrap();
        let config = ExperimentConfig::quick().with_trace_dir(&dir);
        let live = run(&profile, HeapConfig::kg_n(), &ExperimentConfig::quick());
        // Plant a trace whose site-map hash no longer matches: well-formed,
        // but recorded "under an older program version". Its (empty) stream
        // must not be replayed.
        let heap_config = profile.heap_config(HeapConfig::kg_n(), config.scale);
        let path = trace_path(&dir, profile.name, &heap_config, &config, 1);
        let stale = trace::Trace {
            header: trace::TraceHeader {
                workload: profile.name.to_string(),
                seed: config.seed,
                scale: config.scale,
                nursery_bytes: heap_config.nursery_bytes as u64,
                observer_bytes: heap_config.observer_bytes as u64,
                site_map_hash: workloads::site_map_hash() ^ 1,
                fault_seed: 0,
            },
            events: trace::TraceEvents::default(),
        };
        trace::save_trace(&stale, &path).unwrap();
        assert!(current_trace(&path, &config).is_none());
        let result = run(&profile, HeapConfig::kg_n(), &config);
        assert_eq!(
            result.pcm_writes(),
            live.pcm_writes(),
            "stale trace must be re-recorded"
        );
        // The re-recorded trace replaced the stale one and replays cleanly.
        let refreshed = current_trace(&path, &config).expect("the refreshed trace is current");
        assert!(refreshed.allocations() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_runs_record_and_replay_bit_identically() {
        let dir = std::env::temp_dir().join(format!("kgtrace-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let profile = benchmark("lu.fix").unwrap();
        let fault = FaultConfig::accelerated(0xFA11, hybrid_mem::Endurance::Low10M);
        let live_config = ExperimentConfig::quick().with_faults(fault);
        let traced_config = live_config.clone().with_trace_dir(&dir);
        let fingerprint = |result: &ExperimentResult| {
            (
                result.pcm_writes(),
                result.dram_writes(),
                result.memory.failed_pcm_lines,
                result.memory.retired_pcm_pages,
                result.gc.fault_pages_retired,
                result.years_to_uncorrectable.map(f64::to_bits),
            )
        };
        let live = run(&profile, HeapConfig::kg_n(), &live_config);
        let recorded = run(&profile, HeapConfig::kg_n(), &traced_config);
        let replayed = run(&profile, HeapConfig::kg_n(), &traced_config);
        assert_eq!(fingerprint(&recorded), fingerprint(&live), "recording is passive");
        assert_eq!(
            fingerprint(&replayed),
            fingerprint(&live),
            "replay is bit-identical"
        );
        // The fault seed is stamped into the trace provenance, and the
        // faulted trace does not collide with the fault-free one.
        let heap_config = profile.heap_config(HeapConfig::kg_n(), traced_config.scale);
        let path = trace_path(&dir, profile.name, &heap_config, &traced_config, 1);
        let trace = current_trace(&path, &traced_config).expect("the faulted trace is current");
        assert_eq!(trace.header.fault_seed, 0xFA11);
        let fault_free = ExperimentConfig::quick().with_trace_dir(&dir);
        assert_ne!(
            path,
            trace_path(&dir, profile.name, &heap_config, &fault_free, 1),
            "fault-injected traces get their own files"
        );
        // A configuration under a *different* schedule treats the trace as
        // stale and re-records rather than replaying the wrong failures.
        assert!(current_trace(&path, &fault_free).is_none());
        let other_seed = live_config
            .clone()
            .with_faults(FaultConfig::accelerated(0xBEEF, hybrid_mem::Endurance::Low10M));
        assert!(current_trace(&path, &other_seed).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_jobs_preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..17).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [0, 1, 2, 3, 8, 32] {
            assert_eq!(run_jobs(&items, jobs, |&i| i * i), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_cells_are_isolated_and_reported() {
        let items: Vec<u64> = (0..9).collect();
        for jobs in [1, 3] {
            let (results, failures) = run_jobs_reporting(&items, jobs, |&i| {
                if i % 4 == 2 {
                    panic!("cell {i} exploded");
                }
                i * 10
            });
            // Every non-panicking cell completed despite the failures.
            assert_eq!(results.len(), items.len(), "jobs={jobs}");
            for (i, slot) in results.iter().enumerate() {
                if i % 4 == 2 {
                    assert!(slot.is_none(), "jobs={jobs}: cell {i} should have failed");
                } else {
                    assert_eq!(*slot, Some(i as u64 * 10), "jobs={jobs}");
                }
            }
            // Failures carry the index and the panic message, in order.
            assert_eq!(
                failures.iter().map(|f| f.index).collect::<Vec<_>>(),
                vec![2, 6],
                "jobs={jobs}"
            );
            assert!(failures[0].message.contains("cell 2 exploded"), "jobs={jobs}");
        }
        // The strict wrapper completes every cell first, then panics with a
        // summary naming each failed cell.
        let caught =
            std::panic::catch_unwind(|| run_jobs(&items, 2, |&i| if i == 5 { panic!("boom") } else { i }));
        let message = panic_message(caught.unwrap_err().as_ref());
        assert!(message.contains("1 of 9 cells failed"), "{message}");
        assert!(message.contains("cell #5: boom"), "{message}");
    }

    #[test]
    fn threaded_runs_match_sequential_runs_exactly() {
        let profile = benchmark("lu.fix").unwrap();
        let config = ExperimentConfig::quick();
        let pairs: Vec<HeapConfig> = vec![HeapConfig::kg_n(), HeapConfig::gen_immix_pcm()];
        let sequential = run_jobs(&pairs, 1, |c| run(&profile, c.clone(), &config).pcm_writes());
        let threaded = run_jobs(&pairs, 2, |c| run(&profile, c.clone(), &config).pcm_writes());
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn figure_experiments_are_jobs_invariant() {
        // The figure/table experiments fan per-benchmark rows over
        // `config.jobs`; results and ordering must be identical to a
        // sequential run.
        let sequential = crate::writes::figure6(&Matrix::default(), &ExperimentConfig::quick());
        let threaded = crate::writes::figure6(&Matrix::default(), &ExperimentConfig::quick().with_jobs(3));
        assert_eq!(sequential.rows.len(), threaded.rows.len());
        for (a, b) in sequential.rows.iter().zip(&threaded.rows) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.relative, b.relative);
        }
        // On one matrix, `headline` reads only runs that Figures 1, 7, 8
        // and 11 already made.
        let sim = ExperimentConfig {
            mode: MeasurementMode::Simulation,
            ..ExperimentConfig::quick().with_jobs(2)
        };
        let hw = ExperimentConfig::quick().with_jobs(2);
        let matrix = Matrix::default();
        crate::lifetime::run(&matrix, &sim);
        crate::writes::figure7(&matrix, &sim);
        crate::energy_time::figure8(&matrix, &sim);
        crate::writes::figure11(&matrix, &hw);
        let runs = matrix.runs();
        assert_eq!(runs, matrix.cells(), "each cell ran once");
        crate::headline(&matrix, &sim, &hw);
        assert_eq!(matrix.runs(), runs, "headline added runs");
    }
}
