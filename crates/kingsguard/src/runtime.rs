//! The Kingsguard heap runtime: spaces, allocation and write barriers.
//!
//! [`KingsguardHeap`] owns the simulated memory system and every heap space
//! required by the configured collector (Figure 3 of the paper), exposes the
//! mutator interface used by the synthetic workloads (allocation, reference
//! and primitive writes through the write barrier, root management) and
//! gathers the statistics the evaluation needs. The collection algorithms
//! themselves live in [`crate::collect`]; every placement decision is
//! delegated to the heap's [`PlacementPolicy`].
//!
//! Every allocation, store and read goes through a per-thread
//! [`crate::mutator::MutatorContext`]: allocations through its private TLAB,
//! barrier bookkeeping through its store buffer, drained at safepoints. A
//! heap is born with context 0 ([`KingsguardHeap::default_mutator`]), which
//! drains every event immediately; further contexts come from
//! [`KingsguardHeap::spawn_mutator_with`].

use std::collections::BTreeMap;

use advice::{SiteId, SiteProfile, SiteProfiler};
use hybrid_mem::{Address, FaultEvent, MemoryConfig, MemoryKind, MemorySystem, PageId, Phase, ShardId};
use kingsguard_heap::object::{ObjectRef, ObjectShape};
use kingsguard_heap::{
    AddressBitmap, CopySpace, Handle, ImmixSpace, LargeObjectSpace, MetadataSpace, RememberedSet, RootTable,
    SpaceId,
};

use crate::config::HeapConfig;
use crate::mutator::{MutatorConfig, MutatorContext, MutatorState, WriteEvent};
use crate::observer::{
    CheckPoint, HeapEvent, HeapObserver, MutatorSnapshot, ObserverId, Observers, ShardConservation,
};
use crate::policy::{self, BarrierMode, LargePlacement, PlacementPolicy, PolicyConstraints};
use crate::stats::{GcStats, WriteTarget};
use telemetry::{Stage, Telemetry, TelemetryReport, TouchProfile, Value};

// Every site id the API accepts fits the header's site field.
const _: () = assert!(SiteId::LIMIT <= 1 << kingsguard_heap::SITE_BITS);

/// Where an address lives within the heap. Exposed read-only through
/// [`KingsguardHeap::location_of`] for passive inspection (the
/// `kingsguard-check` sanitizer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// In the nursery region.
    Nursery,
    /// In the observer-space region (KG-W only).
    Observer,
    /// In the primary mature Immix space (PCM for hybrid collectors).
    MaturePrimary,
    /// In the DRAM mature Immix space (KG-W only).
    MatureDram,
    /// In the primary large object space (PCM for hybrid collectors).
    LargePrimary,
    /// In the DRAM large object space (KG-W only).
    LargeDram,
    /// Not in any heap space (e.g. metadata).
    Other,
}

/// A managed heap governed by one of the paper's collectors.
///
/// # Example
///
/// ```
/// use kingsguard::{HeapConfig, KingsguardHeap};
/// use kingsguard_heap::ObjectShape;
///
/// let mut heap = KingsguardHeap::new(HeapConfig::kg_w(), Default::default());
/// let mut m = heap.default_mutator().unwrap();
/// let parent = m.alloc(&mut heap, ObjectShape::new(1, 32), 1);
/// let child = m.alloc(&mut heap, ObjectShape::new(0, 64), 2);
/// m.write_ref(&mut heap, parent, 0, Some(child));
/// m.write_prim(&mut heap, child, 0, 8);
/// heap.release(child); // still reachable through `parent`
/// let report = heap.finish();
/// assert!(report.gc.bytes_allocated > 0);
/// ```
#[derive(Debug)]
pub struct KingsguardHeap {
    pub(crate) config: HeapConfig,
    pub(crate) mem: MemorySystem,
    pub(crate) nursery: CopySpace,
    pub(crate) observer: Option<CopySpace>,
    pub(crate) mature_primary: ImmixSpace,
    pub(crate) mature_dram: Option<ImmixSpace>,
    pub(crate) los_primary: LargeObjectSpace,
    pub(crate) los_dram: Option<LargeObjectSpace>,
    pub(crate) metadata: MetadataSpace,
    pub(crate) roots: RootTable,
    pub(crate) remset_nursery: RememberedSet,
    pub(crate) remset_observer: RememberedSet,
    /// The objects a full collection has reached in place (not copied) so
    /// far; cleared, not reallocated, when the next one starts.
    pub(crate) marked: AddressBitmap,
    /// The same for the nursery objects an observer collection scans in
    /// place before its second pass copies them.
    pub(crate) nursery_marked: AddressBitmap,
    pub(crate) stats: GcStats,
    /// Exponential moving average of recent nursery survival (sizes the room
    /// the observer space reserves for incoming nursery survivors).
    pub(crate) survival_estimate: f64,
    /// Whether the Large Object Optimization is currently steering large
    /// objects into the nursery (re-evaluated after every nursery GC).
    pub(crate) loo_active: bool,
    /// Bytes allocated into the LOS since the last nursery collection.
    pub(crate) los_alloc_since_gc: u64,
    /// Bytes allocated into the nursery since the last nursery collection.
    pub(crate) nursery_alloc_since_gc: u64,
    /// Per-site profiler, present only during a profiling run.
    pub(crate) profiler: Option<SiteProfiler>,
    /// The placement policy making every DRAM-vs-PCM decision.
    pub(crate) policy: Box<dyn PlacementPolicy>,
    /// The policy's constant properties, read once at construction so the
    /// allocation and store paths never ask the policy for them.
    pub(crate) constraints: PolicyConstraints,
    /// Per-context mutator state (TLAB, store buffer, counter shard); slot 0
    /// is the built-in context 0, which is never retired.
    pub(crate) mutators: Vec<MutatorState>,
    /// The handle to context 0 until [`KingsguardHeap::default_mutator`]
    /// hands it out (one handle per context).
    pub(crate) default_mutator: Option<MutatorContext>,
    /// PCM pages declared uncorrectable by the fault model during the
    /// current full collection, with the allocation sites of the live
    /// objects evacuated off each page so far. Fenced before tracing,
    /// retired (remapped off PCM) after the sweep, then cleared; empty
    /// outside a full collection and on fault-free runs.
    pub(crate) dying_pages: BTreeMap<u64, Vec<SiteId>>,
    /// The attached passive observers (see [`crate::observer`]): the
    /// shadow-heap sanitizer, or any other [`HeapObserver`].
    pub(crate) observers: Observers,
    /// Test-only corruption switch: when set, draining a store buffer drops
    /// its events instead of replaying the barrier bookkeeping. See
    /// [`KingsguardHeap::debug_skip_barrier_bookkeeping_for_test`].
    pub(crate) skip_barrier_bookkeeping: bool,
    /// The metrics handle (disabled by default; see
    /// [`KingsguardHeap::enable_telemetry`]). Purely host-side: it never
    /// issues simulated memory traffic, so enabling it cannot change any
    /// simulation result.
    pub(crate) telemetry: Telemetry,
}

/// End-of-run report: collector statistics plus the flushed memory-system
/// statistics.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Collector statistics.
    pub gc: GcStats,
    /// Memory-system statistics (caches flushed).
    pub memory: hybrid_mem::MemoryStats,
    /// The per-site profile gathered by this run, when profiling was enabled
    /// through [`KingsguardHeap::enable_profiling`].
    pub site_profile: Option<SiteProfile>,
    /// The metrics snapshot, when telemetry was enabled through
    /// [`KingsguardHeap::enable_telemetry`]; `None` otherwise (a disabled
    /// handle emits exactly nothing).
    pub telemetry: Option<TelemetryReport>,
}

impl KingsguardHeap {
    /// Creates a heap for `config` on a memory system built from
    /// `memory_config`, governed by the built-in policy for
    /// `config.collector`.
    pub fn new(config: HeapConfig, memory_config: MemoryConfig) -> Self {
        let policy = policy::from_config(&config);
        Self::with_policy(config, memory_config, policy)
    }

    /// Creates a heap governed by a custom [`PlacementPolicy`]. The
    /// [`policy::Topology`] of the policy's [`PolicyConstraints`] decides
    /// which spaces exist and where they live; `config.collector` is ignored
    /// (only the sizes are used).
    pub fn with_policy(
        config: HeapConfig,
        memory_config: MemoryConfig,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        let constraints = policy.constraints();
        let topology = constraints.topology;
        let mut mem = MemorySystem::new(memory_config);

        let nursery_base = mem.reserve_extent("nursery", config.nursery_bytes);
        let nursery = CopySpace::new(
            SpaceId::NURSERY,
            topology.nursery,
            nursery_base,
            config.nursery_bytes,
        );

        let observer = if topology.observer {
            let base = mem.reserve_extent("observer", config.observer_bytes);
            Some(CopySpace::new(
                SpaceId::OBSERVER,
                MemoryKind::Dram,
                base,
                config.observer_bytes,
            ))
        } else {
            None
        };

        let mature_extent = config.heap_budget_bytes * 4;
        let mature_base = mem.reserve_extent("mature-primary", mature_extent);
        let mature_primary =
            ImmixSpace::new(SpaceId::MATURE_PCM, topology.mature, mature_base, mature_extent);

        let mature_dram = if topology.dram_mature {
            let base = mem.reserve_extent("mature-dram", mature_extent);
            Some(ImmixSpace::new(
                SpaceId::MATURE_DRAM,
                MemoryKind::Dram,
                base,
                mature_extent,
            ))
        } else {
            None
        };

        let los_base = mem.reserve_extent("los-primary", config.los_capacity_bytes);
        let los_primary = LargeObjectSpace::new(
            SpaceId::LARGE_PCM,
            topology.mature,
            los_base,
            config.los_capacity_bytes,
        );

        let los_dram = if topology.dram_mature {
            let base = mem.reserve_extent("los-dram", config.los_capacity_bytes);
            Some(LargeObjectSpace::new(
                SpaceId::LARGE_DRAM,
                MemoryKind::Dram,
                base,
                config.los_capacity_bytes,
            ))
        } else {
            None
        };

        let metadata_base = mem.reserve_extent("metadata", config.metadata_capacity_bytes);
        let metadata = MetadataSpace::new(topology.metadata, metadata_base, config.metadata_capacity_bytes);

        // Context 0: exact TLABs and immediate drains, so a single-context
        // run keeps the access order and addresses of an unbuffered barrier.
        let default_shard = mem.register_mutator_shard();
        let mutators = vec![MutatorState::new(MutatorConfig::eager(), default_shard, (0, 0))];

        KingsguardHeap {
            config,
            mem,
            nursery,
            observer,
            mature_primary,
            mature_dram,
            los_primary,
            los_dram,
            metadata,
            roots: RootTable::new(),
            remset_nursery: RememberedSet::new(),
            remset_observer: RememberedSet::new(),
            marked: AddressBitmap::new(),
            nursery_marked: AddressBitmap::new(),
            stats: GcStats::default(),
            survival_estimate: 0.2,
            loo_active: false,
            los_alloc_since_gc: 0,
            nursery_alloc_since_gc: 0,
            profiler: None,
            policy,
            constraints,
            mutators,
            default_mutator: Some(MutatorContext { index: 0 }),
            dying_pages: BTreeMap::new(),
            observers: Observers::default(),
            skip_barrier_bookkeeping: false,
            telemetry: Telemetry::disabled(),
        }
    }

    // ------------------------------------------------------------------
    // The observer seam (see `crate::observer`)
    // ------------------------------------------------------------------

    /// Attaches a passive observer: it sees every mutator-visible API event
    /// in program order, every TLAB carve, and every safepoint/GC checkpoint
    /// (see [`crate::observer`]). Observers are independent; any number can
    /// be attached, and each is notified in attachment order.
    pub fn attach_observer(&mut self, observer: Box<dyn HeapObserver>) -> ObserverId {
        self.observers.attach(observer)
    }

    /// Detaches the observer `id` names and hands it back; `None` if it was
    /// already detached.
    pub fn detach_observer(&mut self, id: ObserverId) -> Option<Box<dyn HeapObserver>> {
        self.observers.detach(id)
    }

    /// The placement policy governing this heap.
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// The policy's constant properties, as cached at construction.
    pub fn constraints(&self) -> &PolicyConstraints {
        &self.constraints
    }

    /// Emits one mutator-visible heap event to the attached observers.
    /// `make` is only evaluated when there is one, so unobserved hot paths
    /// pay a single branch.
    #[inline]
    pub(crate) fn emit_event(&mut self, make: impl FnOnce() -> HeapEvent) {
        if !self.observers.is_empty() {
            self.observers.on_event(&make());
        }
    }

    /// Runs the observers' checks at `point` (a no-op without observers)
    /// and surfaces each returned violation note as a deterministic
    /// `check.violation` telemetry event plus the `check.violations`
    /// counter.
    pub(crate) fn run_checkpoint(&mut self, point: CheckPoint) {
        if self.observers.is_empty() {
            return;
        }
        // Checks read the heap, so the observers step outside it meanwhile.
        let mut observers = std::mem::take(&mut self.observers);
        let checked = observers.at_checkpoint(point, self);
        self.observers = observers;
        let Some(notes) = checked else {
            return;
        };
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("check.checkpoints", 1);
            if !notes.is_empty() {
                self.telemetry.counter_add("check.violations", notes.len() as u64);
            }
        }
        for note in notes {
            let point_label = point.label();
            self.telemetry.event("check.violation", true, move || {
                vec![
                    ("kind", Value::Str(note.kind.to_string())),
                    ("at", Value::Str(point_label.to_string())),
                    ("detail", Value::Str(note.detail)),
                ]
            });
        }
    }

    // ------------------------------------------------------------------
    // Telemetry (see the `telemetry` crate)
    // ------------------------------------------------------------------

    /// Switches on metrics collection for this run: GC-phase spans, pause
    /// histograms, policy adaptation events, and the end-of-run traffic and
    /// cache statistics sampled from the counter shards the simulator
    /// already merges at safepoints. Telemetry is host-side bookkeeping like
    /// profiling — it adds no simulated memory traffic, so results are
    /// bit-identical with it on or off. The run clock starts here.
    pub fn enable_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
    }

    /// The metrics handle (disabled unless
    /// [`KingsguardHeap::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the metrics handle, for drivers recording their
    /// own counters and gauges (e.g. trace replay progress) into the run's
    /// report.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Samples cumulative collector statistics into telemetry counters and
    /// drains the policy's buffered adaptation events. Called after every
    /// collection's policy feedback and once at [`KingsguardHeap::finish`].
    pub(crate) fn record_policy_adaptation(&mut self) {
        // Always drain (the buffer is bounded by actual promotions and
        // reversions, but dropping it keeps disabled runs allocation-free).
        let events = self.policy.drain_adaptation_events();
        if !self.telemetry.is_enabled() {
            return;
        }
        if let Some((promotions, reversions)) = self.policy.adaptation_counters() {
            self.telemetry.counter_set("policy.promotions", promotions);
            self.telemetry.counter_set("policy.reversions", reversions);
        }
        for event in events {
            self.telemetry.event(
                if event.learned {
                    "policy.promote"
                } else {
                    "policy.revert"
                },
                true,
                || {
                    vec![
                        ("site", Value::U64(event.site as u64)),
                        ("trigger", Value::Str(event.trigger.label().to_string())),
                    ]
                },
            );
        }
        self.telemetry
            .counter_set("gc.rescues.pcm_to_dram", self.stats.pcm_to_dram_rescues);
        self.telemetry
            .counter_set("gc.demotions.dram_to_pcm", self.stats.dram_to_pcm_demotions);
        self.telemetry
            .counter_set("gc.large_moves.pcm_to_dram", self.stats.large_pcm_to_dram_moves);
    }

    /// Emits a deterministic wear-distribution snapshot for the PCM device
    /// (a no-op unless telemetry is on and the memory system tracks per-line
    /// writes). Call at safepoints only, so the line counts are complete.
    pub(crate) fn record_wear_snapshot(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        if let Some(wear) = self.mem.wear_summary(MemoryKind::Pcm) {
            self.telemetry.event("wear.snapshot", true, || {
                vec![
                    ("device", Value::Str("pcm".to_string())),
                    ("lines_written", Value::U64(wear.lines_written)),
                    ("total_writes", Value::U64(wear.total_writes)),
                    ("max_line_writes", Value::U64(wear.max_line_writes)),
                    ("mean_line_writes", Value::F64(wear.mean_line_writes)),
                    (
                        "coefficient_of_variation",
                        Value::F64(wear.coefficient_of_variation),
                    ),
                ]
            });
        }
    }

    // ------------------------------------------------------------------
    // PCM fault pump and page retirement (see `hybrid_mem::fault`)
    // ------------------------------------------------------------------

    /// Pumps the PCM fault model at the start of a full collection (the
    /// heap is at a safepoint, so per-line write counts are complete) and
    /// fences every page that just crossed the uncorrectable threshold.
    /// Heap pages (mature PCM, large PCM) are fenced inside their space so
    /// neither the trace nor any later allocation can place an object on
    /// them — the trace then force-evacuates the live objects still there —
    /// and are retired after the sweep by [`Self::finish_page_retirement`].
    /// Non-heap PCM pages (a PCM nursery, metadata) hold no mature objects
    /// the trace must save, so they are remapped off PCM immediately (the
    /// migration preserves contents). A no-op on fault-free runs.
    pub(crate) fn pump_faults_and_fence(&mut self) {
        if self.mem.fault_model().is_none() {
            return;
        }
        let events = self.mem.pump_faults();
        for event in events {
            if let FaultEvent::PageUncorrectable { page, .. } = event {
                let start = PageId(page).start();
                if self.mature_primary.kind() == MemoryKind::Pcm && self.mature_primary.contains(start) {
                    self.mature_primary.retire_page(start);
                    self.dying_pages.insert(page, Vec::new());
                } else if self.los_primary.kind() == MemoryKind::Pcm && self.los_primary.in_region(start) {
                    self.los_primary.retire_page(start);
                    self.dying_pages.insert(page, Vec::new());
                } else {
                    let moved = self.mem.retire_page(PageId(page));
                    self.stats.fault_pages_retired += 1;
                    self.emit_page_retired(page, 0, moved);
                }
            }
        }
        self.record_fault_telemetry();
    }

    /// Retires every page fenced by [`Self::pump_faults_and_fence`] once
    /// the sweep has finished: the memory system remaps the page off PCM
    /// (only dead bytes remain on it by now) and the policy hears which
    /// sites were evacuated, so adaptive policies can treat retirement as
    /// a demotion-like signal.
    pub(crate) fn finish_page_retirement(&mut self) {
        if self.dying_pages.is_empty() {
            return;
        }
        let dying = std::mem::take(&mut self.dying_pages);
        for (page, sites) in dying {
            let moved = self.mem.retire_page(PageId(page));
            self.stats.fault_pages_retired += 1;
            self.policy.on_page_retired(page, &sites);
            self.emit_page_retired(page, sites.len() as u64, moved);
        }
        self.record_fault_telemetry();
    }

    /// Emits the deterministic page-retirement telemetry event.
    fn emit_page_retired(&mut self, page: u64, evacuated: u64, moved: Option<MemoryKind>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let to = match moved {
            Some(MemoryKind::Dram) => "dram",
            Some(MemoryKind::Pcm) => "pcm",
            None => "fenced",
        };
        self.telemetry.event("fault.page_retired", true, || {
            vec![
                ("page", Value::U64(page)),
                ("evacuated_objects", Value::U64(evacuated)),
                ("remapped_to", Value::Str(to.to_string())),
            ]
        });
    }

    /// Folds the fault model's cumulative counters into telemetry. A no-op
    /// on fault-free runs, so their metrics reports stay byte-identical to
    /// runs of builds without the fault subsystem.
    pub(crate) fn record_fault_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let Some(model) = self.mem.fault_model() else {
            return;
        };
        let failed = model.failed_line_count();
        let retired = model.retired_page_count();
        let transient = model.transient_fault_count();
        let degraded = model.degraded_bytes();
        self.telemetry.counter_set("fault.lines_failed", failed);
        self.telemetry.counter_set("fault.pages_retired", retired);
        self.telemetry.counter_set("fault.transient_flips", transient);
        self.telemetry.counter_set("fault.degraded_bytes", degraded);
        self.telemetry
            .counter_set("fault.evacuated_objects", self.stats.fault_evacuated_objects);
    }

    /// Folds the end-of-run device, cache and throughput statistics into
    /// telemetry. The device counters come from the shard-merged memory
    /// statistics (exact at this point: every mutator reached its final
    /// safepoint and the caches are flushed), so the touch fast path paid
    /// nothing for them during the run.
    fn finalize_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        debug_assert_eq!(
            self.telemetry.open_spans(),
            0,
            "every GC-phase span must be closed at finish"
        );
        self.record_policy_adaptation();
        self.record_wear_snapshot();
        self.record_fault_telemetry();
        let mem_stats = self.mem.stats();
        let t = &mut self.telemetry;
        t.counter_set("mem.reads.dram", mem_stats.reads(MemoryKind::Dram));
        t.counter_set("mem.reads.pcm", mem_stats.reads(MemoryKind::Pcm));
        t.counter_set("mem.writes.dram", mem_stats.writes(MemoryKind::Dram));
        t.counter_set("mem.writes.pcm", mem_stats.writes(MemoryKind::Pcm));
        t.counter_set("cache.hits", mem_stats.cache_hits);
        t.counter_set("cache.misses", mem_stats.llc_misses);
        t.counter_set("alloc.bytes", self.stats.bytes_allocated);
        t.counter_set("alloc.objects", self.stats.objects_allocated);
        t.counter_set("gc.collections.nursery", self.stats.nursery.collections);
        t.counter_set("gc.collections.observer", self.stats.observer.collections);
        t.counter_set("gc.collections.major", self.stats.major.collections);
        let cached = mem_stats.cache_hits + mem_stats.llc_misses;
        let events = if cached > 0 {
            cached
        } else {
            mem_stats.total_reads() + mem_stats.total_writes()
        };
        t.counter_set("touch.events", events);
        if cached > 0 {
            t.gauge("cache.hit_rate", mem_stats.cache_hits as f64 / cached as f64);
        }
        let elapsed_s = t.elapsed_ns() as f64 / 1e9;
        if elapsed_s > 0.0 {
            t.timing_gauge("touch.events_per_sec", events as f64 / elapsed_s);
        }
        if let Some(profile) = self.mem.touch_profile() {
            self.merge_touch_profile(&profile);
        }
    }

    /// Folds a hot-path [`TouchProfile`] into the run's telemetry as
    /// deterministic `profile.*` counters: total touches, events per stage
    /// and touches per execution phase.
    fn merge_touch_profile(&mut self, profile: &TouchProfile) {
        let t = &mut self.telemetry;
        t.counter_set("profile.touches", profile.touches);
        for stage in &profile.stages {
            t.counter_set(stage_event_counter(stage.stage), stage.events);
        }
        for (phase, counted) in Phase::ALL.into_iter().zip(&profile.phases) {
            t.counter_set(phase_touch_counter(phase), counted.touches);
        }
    }

    /// Enables per-site profiling for this run. The gathered
    /// [`SiteProfile`] is returned by [`KingsguardHeap::finish`] and can be
    /// persisted with [`advice::save_profile`] to drive a later KG-A run.
    pub fn enable_profiling(&mut self, workload: &str) {
        let collector = self.config.label();
        self.profiler = Some(SiteProfiler::new(workload, &collector));
    }

    /// Enables the hot-path profiler on the memory system: every touch is
    /// counted per simulator stage and per execution phase (see
    /// [`telemetry::TouchProfiler`]). Like telemetry and site profiling it
    /// is passive — the simulation stays bit-identical with it on or off.
    /// The gathered profile is merged into the run's telemetry report (as
    /// `profile.*` counters) at [`KingsguardHeap::finish`]. The argument is
    /// ignored: the profiler has nothing to configure, and only the frozen
    /// `kgbench` call site, which still passes one, keeps it in the
    /// signature.
    pub fn enable_hot_path_profiler(&mut self, sample_every: u64) {
        self.mem.enable_touch_profiler(sample_every);
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Collector statistics gathered so far.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// The underlying memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Runs `f` on the memory system after draining every mutator context's
    /// store buffer and merging the counter shards, so `f` observes complete
    /// and exact statistics. This is the only mutable access to the memory
    /// system — it replaces the old `memory_mut` escape hatch, which let
    /// callers read (or reset) counters while events were still buffered in
    /// mutator shards. The OS Write Partitioning baseline runs its quanta
    /// through this, and tests use it for accounted object reads.
    pub fn with_synced_memory<R>(&mut self, f: impl FnOnce(&mut MemorySystem) -> R) -> R {
        self.drain_all_mutators();
        self.debug_assert_mutators_drained();
        f(&mut self.mem)
    }

    /// Debug-asserts that every live mutator context is fully drained: no
    /// buffered store-buffer events and no unmerged counter-shard traffic.
    /// Aggregate statistics read while a shard still holds events would be
    /// exact anyway (aggregates fold across shards), but a non-empty store
    /// buffer at a read point means barrier bookkeeping — remembered-set
    /// insertions, write bits, write demographics — is silently missing from
    /// collector statistics. The synced-memory accessor and the trace replay
    /// driver call this so such undercounts fail fast in debug builds.
    ///
    /// The `kingsguard-check` sanitizer promotes both assertions into
    /// release-mode checkpoint checks with typed violations
    /// (`ssb-not-drained` / `shard-not-merged`), built on the same
    /// [`MutatorSnapshot`] data this
    /// reads; the debug asserts stay as the zero-dependency fast path.
    pub fn debug_assert_mutators_drained(&self) {
        if cfg!(debug_assertions) {
            for (index, state) in self.mutators.iter().enumerate() {
                if state.retired {
                    continue;
                }
                debug_assert!(
                    state.ssb.is_empty(),
                    "mutator context {index} still buffers {} store-barrier events at a drained read point",
                    state.ssb.len()
                );
                let shard = self.mem.shard_stats(state.shard);
                debug_assert!(
                    shard.reads == [0, 0] && shard.writes == [0, 0],
                    "mutator context {index} still holds unmerged shard traffic \
                     (reads {:?}, writes {:?}) at a drained read point",
                    shard.reads,
                    shard.writes
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutator contexts and safepoints
    // ------------------------------------------------------------------

    /// Hands out context 0, the context every heap is born with: exact
    /// TLABs and immediate barrier drains ([`MutatorConfig::eager`]), its
    /// own counter shard, and no spawn event. It lives as long as the heap
    /// and cannot be retired. Returns `None` once the handle was handed
    /// out: like any context, context 0 has one handle.
    pub fn default_mutator(&mut self) -> Option<MutatorContext> {
        self.default_mutator.take()
    }

    /// Spawns a mutator context with `config` (see [`crate::mutator`] for
    /// the lifecycle), reusing the slot and counter shard of a previously
    /// retired context when one exists (so spawn/retire churn does not grow
    /// the mutator table).
    pub fn spawn_mutator_with(&mut self, config: MutatorConfig) -> MutatorContext {
        if let Some(index) = self.mutators.iter().position(|state| state.retired) {
            let shard = self.mutators[index].shard;
            let stats = self.mem.shard_stats(shard);
            self.mutators[index] = MutatorState::new(config, shard, (stats.cache_hits, stats.cache_misses));
            self.emit_event(|| HeapEvent::MutatorSpawned { ctx: index, config });
            return MutatorContext { index };
        }
        let shard = self.mem.register_mutator_shard();
        self.mutators.push(MutatorState::new(config, shard, (0, 0)));
        let index = self.mutators.len() - 1;
        self.emit_event(|| HeapEvent::MutatorSpawned { ctx: index, config });
        MutatorContext { index }
    }

    /// Retires a context (see [`MutatorContext::retire`]): drains its store
    /// buffer, merges its counter shard, drops its TLAB and marks its slot
    /// for reuse. Safepoints skip retired slots.
    ///
    /// # Panics
    ///
    /// Panics on context 0, which lives as long as the heap.
    pub fn retire_mutator(&mut self, ctx: MutatorContext) {
        assert_ne!(
            ctx.index, 0,
            "context 0 lives as long as the heap and cannot be retired"
        );
        self.emit_event(|| HeapEvent::MutatorRetired { ctx: ctx.index });
        self.drain_mutator(ctx.index);
        self.mutators[ctx.index].tlab = None;
        self.mutators[ctx.index].retired = true;
    }

    /// Number of live mutator contexts, including context 0 (retired
    /// contexts are not counted).
    pub fn mutator_count(&self) -> usize {
        self.mutators.iter().filter(|state| !state.retired).count()
    }

    /// A GC safepoint: drains every context's store buffer, merges every
    /// counter shard and retires every TLAB. Every collection entry point
    /// runs this first, so collections always see complete remembered sets
    /// and write bits; call it manually before reading mid-run statistics
    /// that must include batched contexts' buffered events.
    pub fn safepoint(&mut self) {
        self.emit_event(|| HeapEvent::Safepoint);
        self.enter_safepoint();
        self.run_checkpoint(CheckPoint::Safepoint);
    }

    /// The safepoint body, shared by the public (observer-reported) entry point
    /// and the internal callers (collection entries, `finish`) whose
    /// safepoints replay implicitly and therefore are not recorded.
    pub(crate) fn enter_safepoint(&mut self) {
        self.drain_all_mutators();
        for state in &mut self.mutators {
            state.tlab = None;
        }
    }

    /// Drains every live context's store buffer and merges the counter
    /// shards without retiring TLABs (the policy-decision sync of the
    /// safepoint protocol; see [`crate::mutator`]).
    pub(crate) fn drain_all_mutators(&mut self) {
        for m in 0..self.mutators.len() {
            if !self.mutators[m].retired {
                self.drain_mutator(m);
            }
        }
        self.mem.set_active_shard(ShardId::BASE);
    }

    /// Drains one context's store buffer and merges its counter shard.
    pub(crate) fn drain_mutator(&mut self, m: usize) {
        self.drain_mutator_events(m);
        let shard = self.mutators[m].shard;
        let stats = self.mem.shard_stats(shard);
        for kind in 0..2 {
            self.mutators[m].merged.reads[kind] += stats.reads[kind];
            self.mutators[m].merged.writes[kind] += stats.writes[kind];
        }
        self.mem.merge_shard(shard);
        self.mem.set_active_shard(ShardId::BASE);
    }

    /// Replays and clears one context's buffered write-barrier events.
    fn drain_mutator_events(&mut self, m: usize) {
        if self.mutators[m].ssb.is_empty() {
            return;
        }
        if self.skip_barrier_bookkeeping {
            // Broken-fixture path: drop the events without replaying the
            // barrier halves, so remembered sets silently miss edges.
            self.mutators[m].ssb.clear();
            return;
        }
        self.mem.set_active_shard(self.mutators[m].shard);
        let events = std::mem::take(&mut self.mutators[m].ssb);
        for event in &events {
            match *event {
                WriteEvent::Ref {
                    src,
                    slot_addr,
                    target,
                } => {
                    self.generational_barrier(slot_addr, target);
                    self.monitoring_barrier(src, true);
                    self.record_write_demographics(src);
                }
                WriteEvent::Prim { src } => {
                    if self.constraints.monitor_primitive_writes {
                        self.monitoring_barrier(src, false);
                    }
                    self.record_write_demographics(src);
                }
            }
        }
        // Hand the (now empty) buffer back so its capacity is reused.
        let mut buffer = events;
        buffer.clear();
        self.mutators[m].ssb = buffer;
    }

    /// Buffers one barrier event, draining once the context holds its full
    /// capacity (capacity 0 drains every event immediately, as context 0
    /// does).
    fn push_event(&mut self, m: usize, event: WriteEvent) {
        self.mutators[m].ssb.push(event);
        if self.mutators[m].ssb.len() >= self.mutators[m].config.ssb_capacity.max(1) {
            self.drain_mutator_events(m);
        }
    }

    pub(crate) fn mutator_pending_events(&self, m: usize) -> usize {
        self.mutators[m].ssb.len()
    }

    pub(crate) fn mutator_traffic(&self, m: usize) -> hybrid_mem::ShardStats {
        let state = &self.mutators[m];
        let live = self.mem.shard_stats(state.shard);
        hybrid_mem::ShardStats {
            reads: [
                state.merged.reads[0] + live.reads[0],
                state.merged.reads[1] + live.reads[1],
            ],
            writes: [
                state.merged.writes[0] + live.writes[0],
                state.merged.writes[1] + live.writes[1],
            ],
            cache_hits: live.cache_hits - state.cache_base.0,
            cache_misses: live.cache_misses - state.cache_base.1,
        }
    }

    // ------------------------------------------------------------------
    // Mutator interface (the bodies of `MutatorContext`'s methods)
    // ------------------------------------------------------------------

    pub(crate) fn mutator_alloc_site(
        &mut self,
        m: usize,
        shape: ObjectShape,
        type_id: u16,
        site: SiteId,
    ) -> Handle {
        assert!(
            site.raw() < SiteId::LIMIT,
            "site id {} is at or above SiteId::LIMIT",
            site.raw()
        );
        self.mem.set_active_shard(self.mutators[m].shard);
        let size = shape.size();
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size as u64;
        self.stats.work.mutator_ops += 2 + (size as u64) / 64;
        if !site.is_unknown() {
            if let Some(profiler) = self.profiler.as_mut() {
                profiler.record_alloc(site, size as u64, shape.is_large());
            }
        }

        let obj = if shape.is_large() {
            self.alloc_large(m, shape, type_id, site)
        } else {
            self.alloc_small(m, shape, type_id, site)
        };
        let handle = self.roots.add(obj);
        self.emit_event(|| HeapEvent::Alloc {
            ctx: m,
            handle,
            ref_slots: shape.ref_slots,
            payload_bytes: shape.payload_bytes,
            type_id,
            site,
            large: shape.is_large(),
        });
        handle
    }

    /// The site `obj` was allocated at ([`SiteId::UNKNOWN`] for an untagged
    /// object), read host-side from its header: no simulated access.
    pub(crate) fn site_of(&self, obj: ObjectRef) -> SiteId {
        SiteId(obj.site(&self.mem))
    }

    /// The TLAB allocation fast path: bump the context's private window;
    /// carve a fresh window from the nursery when it is exhausted; collect
    /// when the nursery itself cannot fit the object.
    fn alloc_small(&mut self, m: usize, shape: ObjectShape, type_id: u16, site: SiteId) -> ObjectRef {
        let size = shape.size();
        self.nursery_alloc_since_gc += size as u64;
        loop {
            self.mem.set_active_shard(self.mutators[m].shard);
            if let Some(addr) = self.mutators[m].tlab.as_mut().and_then(|tlab| tlab.alloc(size)) {
                return self.nursery.init_object(
                    &mut self.mem,
                    addr,
                    shape,
                    type_id,
                    site.raw(),
                    Phase::Mutator,
                );
            }
            let chunk = self.mutators[m].config.tlab_bytes;
            if let Some(tlab) = self.nursery.carve_tlab(&mut self.mem, size, chunk) {
                if !self.observers.is_empty() {
                    self.observers
                        .on_tlab_carve(m, tlab.cursor().raw(), tlab.remaining_bytes());
                }
                self.mutators[m].tlab = Some(tlab);
                continue;
            }
            self.collect_young_impl();
        }
    }

    fn alloc_large(&mut self, m: usize, shape: ObjectShape, type_id: u16, site: SiteId) -> ObjectRef {
        self.stats.large_bytes_allocated += shape.size() as u64;
        let use_loo = self.constraints.large_object_optimization
            && self.loo_active
            && shape.size() < self.nursery.free_bytes() / 2;
        if use_loo {
            // Give the large object a chance to die young: allocate it in the
            // nursery (Section 4.2.4).
            if let Some(obj) = self
                .nursery
                .alloc(&mut self.mem, shape, type_id, site.raw(), Phase::Mutator)
            {
                self.stats.large_objects_in_nursery += 1;
                self.nursery_alloc_since_gc += shape.size() as u64;
                return obj;
            }
        }
        // Per-site policies: a write-hot large site is allocated directly
        // into the DRAM large space; everything else — including a
        // DRAM-advised object that no longer fits there — lands in PCM,
        // where the large-object rescue of the full collection remains the
        // fallback. Large placement is the one policy decision taken outside
        // a collection, so the safepoint protocol drains all store buffers
        // first: adaptive policies must see the same barrier-event totals at
        // every decision point regardless of SSB capacities. Only
        // site-reading policies can observe barrier events at all
        // (`on_mature_write` is gated on `needs_sites`), so the drain is
        // skipped on the static policies' hot path.
        if self.constraints.needs_sites {
            self.drain_all_mutators();
            self.mem.set_active_shard(self.mutators[m].shard);
        }
        match self.policy.large_placement(site) {
            LargePlacement::Default => {}
            LargePlacement::AdvisedDram => {
                let mut placed = None;
                if let Some(los_dram) = self.los_dram.as_mut() {
                    placed = los_dram.alloc(&mut self.mem, shape, type_id, site.raw(), Phase::Mutator);
                }
                if let Some(obj) = placed {
                    self.stats.advised_to_dram_objects += 1;
                    self.stats.advised_to_dram_bytes += shape.size() as u64;
                    return obj;
                }
                // Placed in PCM by DRAM overflow.
                self.stats.advised_to_pcm_objects += 1;
                self.stats.advised_to_pcm_bytes += shape.size() as u64;
            }
            LargePlacement::AdvisedPcm => {
                self.stats.advised_to_pcm_objects += 1;
                self.stats.advised_to_pcm_bytes += shape.size() as u64;
            }
        }
        self.los_alloc_since_gc += shape.size() as u64;
        if let Some(obj) = self
            .los_primary
            .alloc(&mut self.mem, shape, type_id, site.raw(), Phase::Mutator)
        {
            return obj;
        }
        self.collect_full_impl();
        self.mem.set_active_shard(self.mutators[m].shard);
        if let Some(obj) = self
            .los_primary
            .alloc(&mut self.mem, shape, type_id, site.raw(), Phase::Mutator)
        {
            return obj;
        }
        panic!("large object space exhausted even after a full collection; increase los_capacity_bytes");
    }

    /// Unregisters a root. The object it referenced becomes garbage unless it
    /// is reachable from another root.
    pub fn release(&mut self, handle: Handle) {
        self.emit_event(|| HeapEvent::Release { handle });
        self.roots.remove(handle);
    }

    /// Returns the object currently referenced by `handle` (the address is
    /// only valid until the next collection).
    pub fn resolve(&self, handle: Handle) -> ObjectRef {
        self.roots.get(handle)
    }

    pub(crate) fn mutator_write_ref(&mut self, m: usize, src: Handle, slot: usize, target: Option<Handle>) {
        self.emit_event(|| HeapEvent::WriteRef {
            ctx: m,
            src,
            slot,
            target,
        });
        let src_obj = self.roots.get(src);
        let target_obj = target.map(|t| self.roots.get(t)).unwrap_or(ObjectRef::NULL);
        self.reference_write(m, src_obj, slot, target_obj);
    }

    pub(crate) fn reference_write(&mut self, m: usize, src: ObjectRef, slot: usize, target: ObjectRef) {
        self.mem.set_active_shard(self.mutators[m].shard);
        let shape = src.shape(&mut self.mem, Phase::Mutator);
        assert!(
            slot < shape.ref_slots as usize,
            "reference slot {slot} out of bounds for object with {} slots",
            shape.ref_slots
        );
        self.stats.reference_writes += 1;
        self.stats.work.mutator_ops += 1;

        // Both barrier halves (Figure 4 lines 7–17) are buffered in the
        // context's store buffer; an eager context drains them here and now.
        let slot_addr = src.ref_slot(slot);
        self.push_event(
            m,
            WriteEvent::Ref {
                src,
                slot_addr,
                target,
            },
        );

        // The actual store (Figure 4 line 18).
        src.write_ref_raw(&mut self.mem, slot, target, Phase::Mutator);
    }

    pub(crate) fn mutator_write_prim(&mut self, m: usize, src: Handle, offset: usize, len: usize) {
        self.emit_event(|| HeapEvent::WritePrim {
            ctx: m,
            src,
            offset,
            len,
        });
        let src_obj = self.roots.get(src);
        self.primitive_write(m, src_obj, offset, len);
    }

    pub(crate) fn primitive_write(&mut self, m: usize, src: ObjectRef, offset: usize, len: usize) {
        self.mem.set_active_shard(self.mutators[m].shard);
        let shape = src.shape(&mut self.mem, Phase::Mutator);
        let payload = shape.payload_bytes as usize;
        if payload == 0 {
            return;
        }
        let offset = offset % payload;
        let len = len.clamp(1, (payload - offset).max(1)).min(64);
        self.stats.primitive_writes += 1;
        self.stats.work.mutator_ops += 1;

        let addr = src.payload_addr(&mut self.mem, offset, Phase::Mutator);
        self.mem.write_bytes(addr, &[0xA5u8; 64][..len], Phase::Mutator);

        // The monitoring barrier (gated on the policy's primitive-monitoring
        // toggle at drain time) and write demographics are buffered after
        // the store, so an eager context accesses memory in the order of an
        // unbuffered barrier (store, then monitor) and cached-mode runs on
        // context 0 keep that access sequence.
        self.push_event(m, WriteEvent::Prim { src });
    }

    pub(crate) fn mutator_read_ref(&mut self, m: usize, src: Handle, slot: usize) -> Option<ObjectRef> {
        self.emit_event(|| HeapEvent::ReadRef { ctx: m, src, slot });
        self.mem.set_active_shard(self.mutators[m].shard);
        let src_obj = self.roots.get(src);
        self.stats.work.mutator_ops += 1;
        let target = src_obj.read_ref(&mut self.mem, slot, Phase::Mutator);
        if target.is_null() {
            None
        } else {
            Some(target)
        }
    }

    pub(crate) fn mutator_read_prim(&mut self, m: usize, src: Handle, offset: usize, len: usize) {
        self.emit_event(|| HeapEvent::ReadPrim {
            ctx: m,
            src,
            offset,
            len,
        });
        self.mem.set_active_shard(self.mutators[m].shard);
        let src_obj = self.roots.get(src);
        let shape = src_obj.shape(&mut self.mem, Phase::Mutator);
        let payload = shape.payload_bytes as usize;
        if payload == 0 {
            return;
        }
        let offset = offset % payload;
        let len = len.clamp(1, (payload - offset).max(1)).min(64);
        self.stats.work.mutator_ops += 1;
        let addr = src_obj.payload_addr(&mut self.mem, offset, Phase::Mutator);
        self.mem.read_bytes(addr, &mut [0u8; 64][..len], Phase::Mutator);
    }

    // ------------------------------------------------------------------
    // Write barrier pieces
    // ------------------------------------------------------------------

    /// The generational (remembered-set) half of the barrier: lines 7–12 of
    /// Figure 4.
    fn generational_barrier(&mut self, slot_addr: Address, target: ObjectRef) {
        self.stats.work.barrier_remset_ops += 1;
        if target.is_null() {
            return;
        }
        let slot_in_nursery = self.nursery.in_region(slot_addr);
        let target_in_nursery = self.nursery.in_region(target.address());
        if !slot_in_nursery && target_in_nursery {
            self.stats.remset_insertions += 1;
            if self.remset_nursery.insert(slot_addr) {
                self.metadata.record_remset_store(&mut self.mem, Phase::Mutator);
            }
        }
        if let Some(observer) = &self.observer {
            let slot_in_young = slot_in_nursery || observer.in_region(slot_addr);
            let target_in_young = target_in_nursery || observer.in_region(target.address());
            if !slot_in_young && target_in_young {
                self.stats.remset_insertions += 1;
                if self.remset_observer.insert(slot_addr) {
                    self.metadata.record_remset_store(&mut self.mem, Phase::Mutator);
                }
            }
        }
    }

    /// The object-monitoring half of the barrier: lines 13–17 of Figure 4,
    /// in the mode the policy selects. `is_reference` distinguishes
    /// reference from primitive monitoring for the work model.
    fn monitoring_barrier(&mut self, src: ObjectRef, _is_reference: bool) {
        let mode = self.constraints.barrier;
        if mode == BarrierMode::None {
            return;
        }
        if self.nursery.in_region(src.address()) {
            return;
        }
        self.stats.work.barrier_monitor_ops += 1;
        // The write-word store is collector bookkeeping rather than an
        // application store, so it is attributed to the runtime phase (the
        // paper's Figure 11 reports application writes as seen by the
        // barrier, and Figure 10 folds metadata stores into the runtime /
        // collector components).
        match mode {
            BarrierMode::SetWritten => src.set_written(&mut self.mem, Phase::Runtime),
            BarrierMode::FirstWriteOnly => {
                if !src.is_written(&mut self.mem, Phase::Runtime) {
                    src.set_written(&mut self.mem, Phase::Runtime);
                }
            }
            BarrierMode::None => unreachable!("checked above"),
        }
    }

    fn record_write_demographics(&mut self, src: ObjectRef) {
        let target = if self.nursery.in_region(src.address()) {
            WriteTarget::Nursery
        } else {
            WriteTarget::Mature
        };
        if target == WriteTarget::Mature && (self.profiler.is_some() || self.constraints.needs_sites) {
            let site = self.site_of(src);
            if !site.is_unknown() {
                if let Some(profiler) = self.profiler.as_mut() {
                    profiler.record_post_nursery_write(site);
                }
                // Write-barrier event notification for adaptive policies.
                if self.constraints.needs_sites {
                    let kind = self.mem.kind_of(src.address());
                    self.policy.on_mature_write(site, kind);
                }
            }
        }
        self.stats.record_app_write(target, src.address());
    }

    // ------------------------------------------------------------------
    // Space queries shared with the collection algorithms
    // ------------------------------------------------------------------

    pub(crate) fn locate(&self, addr: Address) -> Location {
        if self.nursery.in_region(addr) {
            return Location::Nursery;
        }
        if let Some(observer) = &self.observer {
            if observer.in_region(addr) {
                return Location::Observer;
            }
        }
        if self.mature_primary.contains(addr) {
            return Location::MaturePrimary;
        }
        if let Some(mature_dram) = &self.mature_dram {
            if mature_dram.contains(addr) {
                return Location::MatureDram;
            }
        }
        if self.los_primary.in_region(addr) {
            return Location::LargePrimary;
        }
        if let Some(los_dram) = &self.los_dram {
            if los_dram.in_region(addr) {
                return Location::LargeDram;
            }
        }
        Location::Other
    }

    // ------------------------------------------------------------------
    // Passive inspection (observer support; see `crate::observer`)
    //
    // None of these methods issues simulated memory traffic: the heap's own
    // statistics are bit-identical whether or not they are ever called.
    // ------------------------------------------------------------------

    /// Which heap space `addr` lies in (passive).
    pub fn location_of(&self, addr: Address) -> Location {
        self.locate(addr)
    }

    /// Reads the `u64` at `addr` directly from the backing store — no cache
    /// lookup, no traffic, no wear. `None` if the page is unmapped. See
    /// [`MemorySystem::peek_u64`].
    pub fn peek_u64(&self, addr: Address) -> Option<u64> {
        self.mem.peek_u64(addr)
    }

    /// Snapshot of the root table: every live `(handle, object address)`
    /// pair in handle-index order (passive, deterministic).
    pub fn roots_snapshot(&self) -> Vec<(Handle, Address)> {
        self.roots.iter().map(|(h, obj)| (h, obj.address())).collect()
    }

    /// The slots currently in the nursery remembered set, ascending
    /// (passive; does not drain the set).
    pub fn remset_nursery_slots(&self) -> Vec<Address> {
        self.remset_nursery.iter().collect()
    }

    /// The slots currently in the observer remembered set, ascending
    /// (passive; empty for collectors without an observer space).
    pub fn remset_observer_slots(&self) -> Vec<Address> {
        self.remset_observer.iter().collect()
    }

    /// The nursery's reserved region as `(base, capacity)` (passive).
    pub fn nursery_region(&self) -> (Address, usize) {
        (self.nursery.base(), self.nursery.capacity())
    }

    /// Drain-discipline snapshot of every live mutator context (passive).
    /// At a checkpoint each context must report zero pending events and a
    /// zero (merged) counter shard — the typed promotion of the
    /// [`KingsguardHeap::debug_assert_mutators_drained`] debug assertions.
    pub fn mutator_snapshots(&self) -> Vec<MutatorSnapshot> {
        self.mutators
            .iter()
            .enumerate()
            .filter(|(_, state)| !state.retired)
            .map(|(ctx, state)| {
                let shard = self.mem.shard_stats(state.shard);
                MutatorSnapshot {
                    ctx,
                    pending_events: state.ssb.len(),
                    shard_reads: shard.reads,
                    shard_writes: shard.writes,
                }
            })
            .collect()
    }

    /// Compares the memory controller's folded totals against the heap's
    /// own shard accounting (base shard + every mutator shard, including
    /// retired slots). The two sides travel independent code paths; a
    /// difference means a counter shard leaked out of the heap's
    /// bookkeeping (passive).
    pub fn shard_conservation(&self) -> ShardConservation {
        let stats = self.mem.stats();
        let mut folded = self.mem.shard_stats(ShardId::BASE);
        for state in &self.mutators {
            let shard = self.mem.shard_stats(state.shard);
            for kind in 0..2 {
                folded.reads[kind] += shard.reads[kind];
                folded.writes[kind] += shard.writes[kind];
            }
        }
        ShardConservation {
            total_reads: [stats.reads(MemoryKind::Dram), stats.reads(MemoryKind::Pcm)],
            total_writes: [stats.writes(MemoryKind::Dram), stats.writes(MemoryKind::Pcm)],
            shard_reads: folded.reads,
            shard_writes: folded.writes,
        }
    }

    /// Returns `true` if any byte of `[addr, addr + size)` lies on a page
    /// or line fenced by PCM retirement in any space (passive). After a
    /// full collection no live object may overlap such memory.
    pub fn overlaps_retired_memory(&self, addr: Address, size: usize) -> bool {
        if self.mature_primary.overlaps_retired(addr, size) {
            return true;
        }
        if let Some(mature_dram) = &self.mature_dram {
            if mature_dram.overlaps_retired(addr, size) {
                return true;
            }
        }
        if self.los_primary.in_region(addr) && self.los_primary.overlaps_retired(addr, size) {
            return true;
        }
        if let Some(los_dram) = &self.los_dram {
            if los_dram.in_region(addr) && los_dram.overlaps_retired(addr, size) {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Deliberate corruption (broken-fixture support)
    //
    // Hidden test-only helpers that break heap invariants on purpose so the
    // broken-fixture suite can prove the sanitizer catches each violation
    // class. Never call these outside fixtures.
    // ------------------------------------------------------------------

    /// Empties both remembered sets, silently dropping every remembered
    /// old-to-young edge.
    #[doc(hidden)]
    pub fn debug_clear_remsets_for_test(&mut self) {
        self.remset_nursery.clear();
        self.remset_observer.clear();
    }

    /// Pokes `value` into reference slot `slot` of the object behind
    /// `handle`, bypassing the write barrier, the traffic accounting and
    /// the observers' event stream.
    #[doc(hidden)]
    pub fn debug_corrupt_ref_slot_for_test(&mut self, handle: Handle, slot: usize, value: u64) {
        let obj = self.roots.get(handle);
        self.mem.debug_poke_u64_for_test(obj.ref_slot(slot), value);
    }

    /// Switches the drop-barrier-bookkeeping corruption on or off: while
    /// on, store-buffer drains discard their events instead of replaying
    /// the generational and monitoring barrier halves.
    #[doc(hidden)]
    pub fn debug_skip_barrier_bookkeeping_for_test(&mut self, on: bool) {
        self.skip_barrier_bookkeeping = on;
    }

    /// Inflates the reference-write statistic by one without a matching
    /// mutator event, modelling a barrier path whose bookkeeping drifted
    /// from the event stream.
    #[doc(hidden)]
    pub fn debug_forge_write_stats_for_test(&mut self) {
        self.stats.reference_writes += 1;
    }

    /// Fences the page under the (live) object behind `handle` inside its
    /// space, without scheduling the evacuation a real fault would.
    ///
    /// # Panics
    ///
    /// Panics if the object is not in a mature or large space.
    #[doc(hidden)]
    pub fn debug_retire_live_page_for_test(&mut self, handle: Handle) {
        let addr = self.roots.get(handle).address();
        let start = addr.page().start();
        match self.locate(addr) {
            Location::MaturePrimary => self.mature_primary.retire_page(start),
            Location::MatureDram => {
                if let Some(space) = self.mature_dram.as_mut() {
                    space.retire_page(start);
                }
            }
            Location::LargePrimary => self.los_primary.retire_page(start),
            Location::LargeDram => {
                if let Some(space) = self.los_dram.as_mut() {
                    space.retire_page(start);
                }
            }
            other => panic!("cannot retire a page in {other:?}"),
        }
    }

    /// Reports two overlapping TLAB carves to the observers without
    /// performing them.
    #[doc(hidden)]
    pub fn debug_overlapping_tlab_carves_for_test(&mut self) {
        let (base, _) = self.nursery_region();
        self.observers.on_tlab_carve(0, base.raw(), 256);
        self.observers.on_tlab_carve(1, base.raw() + 128, 256);
    }

    /// Bytes of mature + large heap currently residing in PCM.
    pub fn pcm_heap_bytes(&self) -> u64 {
        let mut total = 0u64;
        if self.mature_primary.kind() == MemoryKind::Pcm {
            total += self.mature_primary.used_bytes() as u64;
        }
        if self.los_primary.kind() == MemoryKind::Pcm {
            total += self.los_primary.used_bytes() as u64;
        }
        total
    }

    /// Bytes of mature + large heap currently residing in DRAM (excluding
    /// the nursery and observer space, as in Figure 13).
    pub fn dram_heap_bytes(&self) -> u64 {
        let mut total = 0u64;
        if self.mature_primary.kind() == MemoryKind::Dram {
            total += self.mature_primary.used_bytes() as u64;
        }
        if self.los_primary.kind() == MemoryKind::Dram {
            total += self.los_primary.used_bytes() as u64;
        }
        if let Some(mature_dram) = &self.mature_dram {
            total += mature_dram.used_bytes() as u64;
        }
        if let Some(los_dram) = &self.los_dram {
            total += los_dram.used_bytes() as u64;
        }
        total
    }

    /// Bytes used by the mature spaces (budget accounting for triggering
    /// full-heap collections).
    pub(crate) fn mature_used_bytes(&self) -> usize {
        let mut total = self.mature_primary.used_bytes() + self.los_primary.used_bytes();
        if let Some(mature_dram) = &self.mature_dram {
            total += mature_dram.used_bytes();
        }
        if let Some(los_dram) = &self.los_dram {
            total += los_dram.used_bytes();
        }
        total
    }

    pub(crate) fn update_peaks(&mut self) {
        let stats = self.mem.stats();
        self.stats.peak_pcm_mapped = self
            .stats
            .peak_pcm_mapped
            .max(stats.mapped_bytes(MemoryKind::Pcm));
        self.stats.peak_dram_mapped = self
            .stats
            .peak_dram_mapped
            .max(stats.mapped_bytes(MemoryKind::Dram));
        if let Some(mature_dram) = &self.mature_dram {
            let used = (mature_dram.used_bytes()
                + self.los_dram.as_ref().map(|l| l.used_bytes()).unwrap_or(0)) as u64;
            self.stats.peak_mature_dram_used = self.stats.peak_mature_dram_used.max(used);
        }
        self.stats.peak_metadata_used = self
            .stats
            .peak_metadata_used
            .max(self.metadata.used_bytes() as u64);
    }

    // ------------------------------------------------------------------
    // Run finalisation
    // ------------------------------------------------------------------

    /// Flushes the cache hierarchy and returns the end-of-run report. All
    /// mutator contexts reach a final safepoint first, so every buffered
    /// barrier event and counter shard is folded into the report.
    pub fn finish(mut self) -> RunReport {
        self.enter_safepoint();
        self.debug_assert_mutators_drained();
        self.run_checkpoint(CheckPoint::Finish);
        self.update_peaks();
        self.mem.flush_caches();
        // Final fault pump: the cache flush just wrote its dirty lines back
        // to the devices, so end-of-run failed-line counts are complete.
        // Pages crossing the uncorrectable threshold here are not retired —
        // no access follows — but their failed lines reach the report.
        let _ = self.mem.pump_faults();
        self.finalize_telemetry();
        let site_profile = self.profiler.take().map(SiteProfiler::finish);
        self.stats.fold_object_tables();
        RunReport {
            gc: self.stats,
            memory: self.mem.stats(),
            site_profile,
            telemetry: self.telemetry.report(),
        }
    }
}

/// Telemetry counter holding the exact event count of a hot-path stage:
/// `profile.events.<stage label>`.
fn stage_event_counter(stage: Stage) -> &'static str {
    match stage {
        Stage::PageMap => "profile.events.page-map",
        Stage::CacheModel => "profile.events.cache-model",
        Stage::LineBookkeeping => "profile.events.line-bookkeeping",
        Stage::BackingStore => "profile.events.backing-store",
        Stage::WearTracking => "profile.events.wear-tracking",
    }
}

/// Telemetry counter holding the exact touch count of an execution phase:
/// `profile.touches.<phase label>`.
fn phase_touch_counter(phase: Phase) -> &'static str {
    match phase {
        Phase::Mutator => "profile.touches.application",
        Phase::NurseryGc => "profile.touches.nursery-GC",
        Phase::ObserverGc => "profile.touches.observer-GC",
        Phase::MajorGc => "profile.touches.major-GC",
        Phase::Runtime => "profile.touches.runtime",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh heap and its context 0.
    fn heap(config: HeapConfig) -> (KingsguardHeap, MutatorContext) {
        let mut heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
        let m = heap.default_mutator().unwrap();
        (heap, m)
    }

    #[test]
    fn spaces_are_placed_per_configuration() {
        let (kg_n, _) = heap(HeapConfig::kg_n());
        assert_eq!(kg_n.nursery.kind(), MemoryKind::Dram);
        assert_eq!(kg_n.mature_primary.kind(), MemoryKind::Pcm);
        assert!(kg_n.observer.is_none());
        assert!(kg_n.mature_dram.is_none());

        let (kg_w, _) = heap(HeapConfig::kg_w());
        assert!(kg_w.observer.is_some());
        assert_eq!(kg_w.observer.as_ref().unwrap().kind(), MemoryKind::Dram);
        assert_eq!(kg_w.mature_dram.as_ref().unwrap().kind(), MemoryKind::Dram);
        assert_eq!(kg_w.metadata.kind(), MemoryKind::Dram);

        let (pcm_only, _) = heap(HeapConfig::gen_immix_pcm());
        assert_eq!(pcm_only.nursery.kind(), MemoryKind::Pcm);
        assert_eq!(pcm_only.mature_primary.kind(), MemoryKind::Pcm);
    }

    #[test]
    fn alloc_returns_live_rooted_objects() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        let handle = m.alloc(&mut heap, ObjectShape::new(2, 32), 7);
        let obj = heap.resolve(handle);
        assert!(!obj.is_null());
        assert_eq!(heap.roots.len(), 1);
        assert_eq!(heap.stats().objects_allocated, 1);
        assert!(heap.stats().bytes_allocated >= 56);
        heap.release(handle);
        assert_eq!(heap.roots.len(), 0);
    }

    #[test]
    fn small_objects_go_to_the_nursery_and_large_to_the_los() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        let small = m.alloc(&mut heap, ObjectShape::new(0, 128), 1);
        let large = m.alloc(&mut heap, ObjectShape::primitive(16 * 1024), 2);
        let small_obj = heap.resolve(small);
        let large_obj = heap.resolve(large);
        assert_eq!(heap.locate(small_obj.address()), Location::Nursery);
        assert_eq!(heap.locate(large_obj.address()), Location::LargePrimary);
        assert_eq!(heap.memory().kind_of(large_obj.address()), MemoryKind::Pcm);
    }

    #[test]
    fn reference_write_records_remset_for_old_to_young_pointers() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        // Create an object and force it into the mature space via collection.
        let old = m.alloc(&mut heap, ObjectShape::new(1, 8), 1);
        heap.collect_young();
        let old_obj = heap.resolve(old);
        assert_eq!(heap.locate(old_obj.address()), Location::MaturePrimary);
        // A young target written into the old object must be remembered.
        let young = m.alloc(&mut heap, ObjectShape::new(0, 8), 2);
        m.write_ref(&mut heap, old, 0, Some(young));
        assert_eq!(heap.stats().remset_insertions, 1);
        assert!(!heap.remset_nursery.is_empty());
        // Writing a null reference does not grow the remset.
        m.write_ref(&mut heap, old, 0, None);
        assert_eq!(heap.stats().remset_insertions, 1);
    }

    #[test]
    fn kgw_barrier_sets_write_bit_only_outside_nursery() {
        let (mut heap, mut m) = heap(HeapConfig::kg_w());
        let young = m.alloc(&mut heap, ObjectShape::new(1, 16), 1);
        m.write_ref(&mut heap, young, 0, None);
        let obj = heap.resolve(young);
        assert!(
            !obj.is_written(&mut heap.mem, Phase::Mutator),
            "nursery writes are not monitored"
        );
        // Promote to the observer space, then write again.
        heap.collect_young();
        let promoted = heap.resolve(young);
        assert_eq!(heap.locate(promoted.address()), Location::Observer);
        m.write_ref(&mut heap, young, 0, None);
        let promoted = heap.resolve(young);
        assert!(promoted.is_written(&mut heap.mem, Phase::Mutator));
    }

    #[test]
    fn primitive_monitoring_toggle_controls_write_bit() {
        for (config, expect_bit) in [
            (HeapConfig::kg_w(), true),
            (HeapConfig::kg_w_no_primitive_monitoring(), false),
        ] {
            let (mut heap, mut m) = heap(config);
            let handle = m.alloc(&mut heap, ObjectShape::new(0, 64), 1);
            heap.collect_young();
            m.write_prim(&mut heap, handle, 0, 8);
            let obj = heap.resolve(handle);
            assert_eq!(obj.is_written(&mut heap.mem, Phase::Mutator), expect_bit);
        }
    }

    #[test]
    fn write_demographics_split_nursery_and_mature() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        let a = m.alloc(&mut heap, ObjectShape::new(0, 32), 1);
        m.write_prim(&mut heap, a, 0, 8);
        heap.collect_young();
        m.write_prim(&mut heap, a, 0, 8);
        m.write_prim(&mut heap, a, 0, 8);
        assert_eq!(heap.stats().writes_to_nursery_objects, 1);
        assert_eq!(heap.stats().writes_to_mature_objects, 2);
        assert!((heap.stats().nursery_write_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_reference_slot_panics() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        let handle = m.alloc(&mut heap, ObjectShape::new(1, 0), 1);
        m.write_ref(&mut heap, handle, 5, None);
    }

    #[test]
    fn profiling_run_gathers_a_site_profile() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        heap.enable_profiling("unit");
        assert!(heap.profiler.is_some());
        // Site 1: survives and is written after promotion. Site 2: dies young.
        let survivor = m.alloc_site(&mut heap, ObjectShape::new(0, 64), 1, advice::SiteId(1));
        for _ in 0..40 {
            let doomed = m.alloc_site(&mut heap, ObjectShape::new(0, 64), 2, advice::SiteId(2));
            heap.release(doomed);
        }
        heap.collect_young();
        for _ in 0..10 {
            m.write_prim(&mut heap, survivor, 0, 8);
        }
        let report = heap.finish();
        let profile = report.site_profile.expect("profiling was enabled");
        assert_eq!(profile.collector, "KG-N");
        assert_eq!(profile.workload, "unit");
        let site1 = profile.site(advice::SiteId(1)).expect("site 1 observed");
        assert_eq!(site1.objects, 1);
        assert_eq!(site1.survived_objects, 1);
        assert_eq!(site1.post_nursery_writes, 10);
        let site2 = profile.site(advice::SiteId(2)).expect("site 2 observed");
        assert_eq!(site2.objects, 40);
        assert_eq!(site2.survived_objects, 0);
        assert_eq!(site2.post_nursery_writes, 0);
    }

    #[test]
    fn unprofiled_runs_report_no_site_profile() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        assert!(heap.profiler.is_none());
        let h = m.alloc(&mut heap, ObjectShape::new(0, 32), 1);
        heap.release(h);
        assert!(heap.finish().site_profile.is_none());
    }

    #[test]
    fn site_tags_survive_collections() {
        let (mut heap, mut m) = heap(HeapConfig::kg_w());
        heap.enable_profiling("tags");
        let tagged = m.alloc_site(&mut heap, ObjectShape::new(0, 64), 1, advice::SiteId(17));
        heap.collect_young();
        heap.collect_observer();
        heap.collect_full();
        let obj = heap.resolve(tagged);
        assert_eq!(heap.site_of(obj), advice::SiteId(17));
    }

    #[test]
    fn every_heap_carries_sites_without_a_consumer() {
        // The site rides in the header, so collectors that never read it
        // (no profiler, no site policy) still carry it through every copy.
        for config in [HeapConfig::kg_n(), HeapConfig::kg_w()] {
            let (mut heap, mut m) = heap(config);
            assert!(heap.profiler.is_none() && !heap.constraints.needs_sites);
            let small = m.alloc_site(&mut heap, ObjectShape::new(0, 64), 1, advice::SiteId(17));
            let large = m.alloc_site(
                &mut heap,
                ObjectShape::primitive(16 * 1024),
                2,
                advice::SiteId(18),
            );
            let untagged = m.alloc(&mut heap, ObjectShape::new(0, 64), 3);
            let mut collections: Vec<fn(&mut KingsguardHeap)> = vec![KingsguardHeap::collect_young];
            if heap.observer.is_some() {
                collections.push(KingsguardHeap::collect_observer);
            }
            collections.push(KingsguardHeap::collect_full);
            for collect in collections {
                collect(&mut heap);
                assert_eq!(heap.site_of(heap.resolve(small)), advice::SiteId(17));
                assert_eq!(heap.site_of(heap.resolve(large)), advice::SiteId(18));
                assert_eq!(heap.site_of(heap.resolve(untagged)), advice::SiteId::UNKNOWN);
            }
            assert!(
                !heap.nursery.in_region(heap.resolve(small).address()),
                "the object moved"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at or above SiteId::LIMIT")]
    fn a_site_id_beyond_the_header_field_is_rejected() {
        let (mut heap, mut m) = heap(HeapConfig::kg_n());
        m.alloc_site(
            &mut heap,
            ObjectShape::new(0, 64),
            1,
            advice::SiteId(advice::SiteId::LIMIT),
        );
    }

    #[test]
    fn custom_policies_plug_in_through_with_policy() {
        use crate::policy::{BarrierMode, PlacementPolicy, PolicyConstraints, Topology};
        use crate::runtime::Location;

        // The README's worked example: KG-N plus the rescue fallback, as a
        // minimal custom policy.
        #[derive(Debug)]
        struct RescueOnly;
        impl PlacementPolicy for RescueOnly {
            fn name(&self) -> String {
                "KG-N+rescue".into()
            }
            fn constraints(&self) -> PolicyConstraints {
                PolicyConstraints {
                    barrier: BarrierMode::FirstWriteOnly,
                    ..PolicyConstraints::new(Topology::hybrid_rationing())
                }
            }
        }

        let mut heap = KingsguardHeap::with_policy(
            HeapConfig::kg_n(),
            MemoryConfig::architecture_independent(),
            Box::new(RescueOnly),
        );
        let mut m = heap.default_mutator().unwrap();
        assert_eq!(heap.policy().name(), "KG-N+rescue");
        let handle = m.alloc(&mut heap, ObjectShape::new(0, 128), 1);
        heap.collect_nursery();
        assert_eq!(
            heap.locate(heap.resolve(handle).address()),
            Location::MaturePrimary
        );
        // Written in PCM: the custom policy's rescue saves it.
        m.write_prim(&mut heap, handle, 0, 8);
        heap.collect_full();
        assert_eq!(heap.locate(heap.resolve(handle).address()), Location::MatureDram);
        assert_eq!(heap.stats().pcm_to_dram_rescues, 1);
    }

    #[test]
    fn spawned_contexts_batch_barrier_events_until_a_safepoint() {
        let (mut h, _) = heap(HeapConfig::kg_n());
        let mut ctx = h.spawn_mutator_with(MutatorConfig::default());
        // An old object pointing at a young one: the remset insertion sits
        // in the store buffer until the safepoint, and the collection that
        // follows still sees it (safepoints precede tracing).
        let old = ctx.alloc(&mut h, ObjectShape::new(1, 8), 1);
        h.collect_young();
        let young = ctx.alloc(&mut h, ObjectShape::new(0, 8), 2);
        ctx.write_ref(&mut h, old, 0, Some(young));
        assert_eq!(ctx.pending_events(&h), 1, "the event is buffered, not drained");
        assert_eq!(h.stats().remset_insertions, 0);
        h.collect_young();
        assert_eq!(ctx.pending_events(&h), 0);
        assert_eq!(h.stats().remset_insertions, 1);
        h.release(young);
        h.collect_young();
        // The child reached the mature space through the remembered parent.
        let old_obj = h.resolve(old);
        let child = h.with_synced_memory(|mem| old_obj.read_ref(mem, 0, Phase::Mutator));
        assert!(!child.is_null(), "buffered remset event must not lose the child");
    }

    #[test]
    fn eager_and_batched_contexts_produce_identical_totals() {
        // `None` runs the program on context 0, `Some(config)` on a context
        // spawned with `config`.
        let run = |config: Option<MutatorConfig>| {
            let (mut h, context0) = heap(HeapConfig::kg_w());
            let mut ctx = match config {
                None => context0,
                Some(config) => h.spawn_mutator_with(config),
            };
            let mut handles = Vec::new();
            for i in 0..400u32 {
                let handle = ctx.alloc(&mut h, ObjectShape::new(1, 40 + (i % 64)), 1);
                ctx.write_prim(&mut h, handle, 0, 8);
                if i % 3 == 0 {
                    ctx.write_ref(&mut h, handle, 0, handles.last().copied());
                }
                if i % 2 == 0 {
                    h.release(handle);
                } else {
                    handles.push(handle);
                }
            }
            let report = h.finish();
            (
                report.memory.writes(MemoryKind::Pcm),
                report.memory.writes(MemoryKind::Dram),
                report.gc.remset_insertions,
                report.gc.writes_to_mature_objects,
            )
        };
        let on_context0 = run(None);
        let spawned = [1, 16, 4096].map(|capacity| MutatorConfig::default().with_ssb_capacity(capacity));
        for config in [MutatorConfig::eager()].into_iter().chain(spawned) {
            assert_eq!(run(Some(config)), on_context0, "{config:?} changed run totals");
        }
    }

    #[test]
    fn retired_contexts_free_their_slot_for_reuse() {
        let (mut h, _) = heap(HeapConfig::kg_n());
        let mut a = h.spawn_mutator_with(MutatorConfig::default());
        let handle = a.alloc(&mut h, ObjectShape::new(0, 64), 1);
        a.write_prim(&mut h, handle, 0, 8);
        let index = a.index();
        assert_eq!(h.mutator_count(), 2);
        a.retire(&mut h); // drains the buffered event on the way out
        assert_eq!(h.stats().primitive_writes, 1);
        assert_eq!(h.mutator_count(), 1, "retired contexts are not counted");
        // The next spawn reuses the retired slot and shard, with fresh
        // attribution.
        let b = h.spawn_mutator_with(MutatorConfig::default());
        assert_eq!(b.index(), index, "retired slot is reused");
        assert_eq!(h.mutator_count(), 2);
        assert_eq!(b.traffic(&h).writes(MemoryKind::Dram), 0);
    }

    #[test]
    #[should_panic(expected = "context 0 lives as long as the heap")]
    fn context_0_cannot_be_retired() {
        let (mut h, m) = heap(HeapConfig::kg_n());
        m.retire(&mut h);
    }

    #[test]
    fn context_traffic_attribution_sums_to_the_aggregate_mutator_view() {
        let (mut h, _) = heap(HeapConfig::kg_n());
        let mut a = h.spawn_mutator_with(MutatorConfig::default());
        let mut b = h.spawn_mutator_with(MutatorConfig::default());
        for i in 0..50u32 {
            let ctx = if i % 2 == 0 { &mut a } else { &mut b };
            let handle = ctx.alloc(&mut h, ObjectShape::new(0, 64), 1);
            ctx.write_prim(&mut h, handle, 0, 8);
            h.release(handle);
        }
        h.safepoint();
        let a_writes = a.traffic(&h).writes(MemoryKind::Dram);
        let b_writes = b.traffic(&h).writes(MemoryKind::Dram);
        assert!(a_writes > 0 && b_writes > 0, "both contexts wrote the nursery");
        // Context 0 idled; collector traffic lands on the base
        // shard. Context attribution survives the safepoint merge.
        let total = h.memory().stats().writes(MemoryKind::Dram);
        assert!(
            a_writes + b_writes <= total,
            "attributed traffic ({}) cannot exceed the aggregate ({total})",
            a_writes + b_writes
        );
        assert_eq!(h.mutator_count(), 3, "context 0 plus two spawned");
    }

    #[test]
    fn chunked_tlabs_serve_allocations_from_private_windows() {
        let (mut h, _) = heap(HeapConfig::kg_n());
        let mut ctx = h.spawn_mutator_with(MutatorConfig {
            tlab_bytes: 8 * 1024,
            ..MutatorConfig::default()
        });
        let mut handles = Vec::new();
        for _ in 0..200 {
            handles.push(ctx.alloc(&mut h, ObjectShape::new(0, 48), 1));
        }
        // All objects landed in the nursery and survive a collection.
        for &handle in &handles {
            assert_eq!(h.locate(h.resolve(handle).address()), Location::Nursery);
        }
        h.collect_young();
        for &handle in &handles {
            assert_eq!(h.locate(h.resolve(handle).address()), Location::MaturePrimary);
        }
        assert_eq!(h.stats().objects_allocated, 200);
    }

    #[test]
    fn finish_reports_memory_and_gc_stats() {
        let (mut heap, mut m) = heap(HeapConfig::kg_w());
        for _ in 0..50 {
            let h = m.alloc(&mut heap, ObjectShape::new(1, 64), 1);
            m.write_prim(&mut heap, h, 0, 16);
            heap.release(h);
        }
        let report = heap.finish();
        assert_eq!(report.gc.objects_allocated, 50);
        assert!(report.memory.total_writes() > 0);
    }

    fn drive_allocation_churn(heap: &mut KingsguardHeap, m: &mut MutatorContext) {
        for i in 0..300u32 {
            let h = m.alloc(heap, ObjectShape::new(1, 64), (i % 7) as u16);
            m.write_prim(heap, h, 0, 16);
            if i % 3 == 0 {
                heap.release(h);
            }
        }
        heap.collect_young();
    }

    #[test]
    fn hot_path_profile_merges_into_telemetry() {
        let (mut heap, mut m) = heap(HeapConfig::kg_w());
        heap.enable_telemetry();
        heap.enable_hot_path_profiler(telemetry::DEFAULT_SAMPLE_EVERY);
        drive_allocation_churn(&mut heap, &mut m);
        let report = heap.finish().telemetry.expect("telemetry enabled");
        let touches = report.counter("profile.touches").unwrap();
        for stage in Stage::ALL {
            assert_eq!(
                stage_event_counter(stage),
                format!("profile.events.{}", stage.label())
            );
            assert!(
                report.counter(stage_event_counter(stage)).is_some(),
                "missing event counter for {stage}"
            );
        }
        let mut by_phase = 0;
        for phase in Phase::ALL {
            assert_eq!(
                phase_touch_counter(phase),
                format!("profile.touches.{}", phase.label())
            );
            by_phase += report.counter(phase_touch_counter(phase)).unwrap();
        }
        assert_eq!(by_phase, touches);
        assert!(report.counter("profile.touches.application").unwrap() > 0);
        assert!(report.counter("profile.touches.nursery-GC").unwrap() > 0);
    }
}
