//! The top-level simulated memory system.
//!
//! [`MemorySystem`] glues together the address-space reservation, the page
//! map, the byte-level backing store, the cache hierarchy and the memory
//! controller. Heap code issues *tagged* accesses (each access carries the
//! [`Phase`] that performed it); the system looks up the backing technology
//! of the touched page, runs the access through the cache hierarchy and
//! accounts the resulting device traffic.

use telemetry::{Counted, Stage, StageSink, TouchProfile, TouchProfiler, Unprofiled};

use crate::address::{
    align_up_usize, Address, PageId, CACHE_LINES_PER_PAGE, CACHE_LINE_SIZE, LINE_SIZE, PAGE_SIZE,
};
use crate::backing::ChunkedMemory;
use crate::cache::{CacheConfig, CacheHierarchy, MemEvent, MAX_LEVELS};
use crate::controller::{MemoryController, ShardId};
use crate::fault::{FaultConfig, FaultEvent, FaultModel};
use crate::page_map::{PageInfo, PageMap};
use crate::stats::{MemoryStats, ShardStats};

/// Memory technology backing a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryKind {
    /// Volatile DRAM: fast, write-unlimited, energy-hungry at rest.
    Dram = 0,
    /// Phase-change memory: dense and non-volatile but slow to write and
    /// write-endurance-limited.
    Pcm = 1,
}

impl MemoryKind {
    /// Both memory kinds, DRAM first.
    pub const ALL: [MemoryKind; 2] = [MemoryKind::Dram, MemoryKind::Pcm];
}

impl std::fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryKind::Dram => write!(f, "DRAM"),
            MemoryKind::Pcm => write!(f, "PCM"),
        }
    }
}

/// The execution phase that performed a memory access. Used to attribute
/// device writes to their origin (Figure 10 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Application (mutator) code, including write-barrier book-keeping.
    Mutator = 0,
    /// Nursery (minor) collection.
    NurseryGc = 1,
    /// Observer-space collection (KG-W only).
    ObserverGc = 2,
    /// Full-heap (major) collection.
    MajorGc = 3,
    /// Runtime and collector metadata (mark tables, remsets, treadmills).
    Runtime = 4,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 5;
    /// All phases in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Mutator,
        Phase::NurseryGc,
        Phase::ObserverGc,
        Phase::MajorGc,
        Phase::Runtime,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Mutator => "application",
            Phase::NurseryGc => "nursery-GC",
            Phase::ObserverGc => "observer-GC",
            Phase::MajorGc => "major-GC",
            Phase::Runtime => "runtime",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Kind of a single access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Configuration of the simulated memory system.
#[derive(Clone, Debug)]
pub struct MemoryConfig {
    /// Cache hierarchy configuration; `None` disables caching entirely
    /// (architecture-independent measurement mode).
    pub cache: Option<CacheConfig>,
    /// Track per-cache-line write counts (wear statistics).
    pub track_line_writes: bool,
    /// Nominal PCM capacity used by the lifetime model, in bytes.
    pub pcm_capacity_bytes: u64,
    /// Nominal DRAM capacity, in bytes (1 GB in the paper's hybrid system).
    pub dram_capacity_bytes: u64,
    /// Deterministic PCM fault injection; `None` (the default everywhere)
    /// disables the fault model entirely.
    pub fault: Option<FaultConfig>,
}

impl MemoryConfig {
    /// The paper's hybrid memory system: 1 GB DRAM + 32 GB PCM with the
    /// Table 2 cache hierarchy.
    pub fn hybrid() -> Self {
        MemoryConfig {
            cache: Some(CacheConfig::paper_default()),
            track_line_writes: false,
            pcm_capacity_bytes: 32 << 30,
            dram_capacity_bytes: 1 << 30,
            fault: None,
        }
    }

    /// Hybrid system with a cache hierarchy scaled down by `divisor`, for the
    /// scaled-down workloads used in tests and quick experiments.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is 0 (see [`CacheConfig::scaled`]).
    pub fn hybrid_scaled(divisor: usize) -> Self {
        MemoryConfig {
            cache: Some(CacheConfig::scaled(divisor)),
            ..Self::hybrid()
        }
    }

    /// Architecture-independent mode: no caches, every heap write reaches the
    /// device counters (Section 6.2: "these results are architecture-
    /// independent since they do not consider cache effects").
    pub fn architecture_independent() -> Self {
        MemoryConfig {
            cache: None,
            ..Self::hybrid()
        }
    }

    /// Enables deterministic PCM fault injection with `fault`'s schedule.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::hybrid()
    }
}

/// The simulated memory system.
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemoryConfig,
    backing: ChunkedMemory,
    page_map: PageMap,
    cache: CacheHierarchy,
    controller: MemoryController,
    fault: Option<FaultModel>,
    profiler: TouchProfiler,
    next_extent: u64,
    extents: Vec<(String, Address, usize)>,
}

/// Alignment of reserved extents (256 MB) so that space membership can be
/// decided by address comparison alone, and the slot size of the dense
/// side-metadata tables ([`crate::dense`]).
const EXTENT_ALIGN: u64 = 1 << crate::dense::SLOT_SHIFT;
/// First reserved extent starts at 1 GB to keep low addresses obviously
/// invalid.
const EXTENT_BASE: u64 = 1 << 30;

impl MemorySystem {
    /// Creates a memory system from `config`.
    pub fn new(config: MemoryConfig) -> Self {
        let cache = match &config.cache {
            Some(c) => CacheHierarchy::new(c),
            None => CacheHierarchy::disabled(),
        };
        MemorySystem {
            // The fault model consumes per-line write counts, so it forces
            // line tracking on even when wear statistics were not requested.
            controller: MemoryController::new(config.track_line_writes || config.fault.is_some()),
            cache,
            fault: config.fault.map(FaultModel::new),
            profiler: TouchProfiler::default(),
            config,
            backing: ChunkedMemory::new(),
            page_map: PageMap::new(),
            next_extent: EXTENT_BASE,
            extents: Vec::new(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Reserves a named virtual extent of at least `bytes` bytes and returns
    /// its base address. Reservation does not map any pages.
    pub fn reserve_extent(&mut self, name: &str, bytes: usize) -> Address {
        let base = Address::new(self.next_extent);
        let size = align_up_usize(bytes.max(PAGE_SIZE), EXTENT_ALIGN as usize);
        self.next_extent += size as u64;
        self.extents.push((name.to_string(), base, size));
        base
    }

    /// Returns the reserved extents as `(name, base, size)` tuples.
    pub fn extents(&self) -> &[(String, Address, usize)] {
        &self.extents
    }

    /// Maps `count` pages starting at `start` onto `kind` for space `space`.
    pub fn map_pages(&mut self, start: Address, count: usize, kind: MemoryKind, space: u8) {
        self.page_map.map_pages(start, count, kind, space);
    }

    /// Unmaps `count` pages starting at `start`.
    pub fn unmap_pages(&mut self, start: Address, count: usize) {
        self.page_map.unmap_pages(start, count);
    }

    /// Migrates one page to `to`, accounting the copy traffic, and returns
    /// the previous kind (used by the OS Write Partitioning baseline).
    pub fn migrate_page(&mut self, page: PageId, to: MemoryKind) -> Option<MemoryKind> {
        let prev = self.page_map.migrate_page(page, to)?;
        if prev != to {
            self.controller.record_page_migration(prev, to);
        }
        Some(prev)
    }

    /// Returns placement information for the page containing `addr`.
    pub fn page_info(&self, addr: Address) -> Option<PageInfo> {
        self.page_map.info(addr)
    }

    /// Returns the memory technology backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn kind_of(&self, addr: Address) -> MemoryKind {
        self.page_map.kind_of(addr)
    }

    /// Returns `true` if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: Address) -> bool {
        self.page_map.is_mapped(addr)
    }

    /// Immutable access to the page map.
    pub fn page_map(&self) -> &PageMap {
        &self.page_map
    }

    /// Immutable access to the memory controller counters.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Per-cache-line write counts of the lines currently mapped on `kind`,
    /// in ascending line order.
    fn line_writes_on(&self, kind: MemoryKind) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.controller.line_writes().filter(move |&(line, _)| {
            self.page_map.kind_of_page(PageId(line / CACHE_LINES_PER_PAGE)) == Some(kind)
        })
    }

    /// Summarises the write distribution over the *mapped* lines of `kind`,
    /// or `None` when per-line write tracking is disabled. Call at a
    /// safepoint (after shard merges) so the counts are complete.
    pub fn wear_summary(&self, kind: MemoryKind) -> Option<crate::wear::WearSummary> {
        if !self.config.track_line_writes {
            return None;
        }
        let counts = self.line_writes_on(kind).map(|(_, writes)| writes);
        Some(crate::wear::WearTracker::from_counts(counts).summary())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The fault model's state, when fault injection is enabled.
    pub fn fault_model(&self) -> Option<&FaultModel> {
        self.fault.as_ref()
    }

    /// Device write counts per *mapped PCM line* (256 B granularity), sorted
    /// by line id. Aggregates the controller's per-cache-line counts; call at
    /// a safepoint so shard folds are complete. Empty when line tracking is
    /// off.
    pub fn pcm_line_writes(&self) -> Vec<(u64, u64)> {
        let cache_lines_per_line = (LINE_SIZE / CACHE_LINE_SIZE) as u64;
        let mut lines: Vec<(u64, u64)> = Vec::new();
        for (cache_line, writes) in self.line_writes_on(MemoryKind::Pcm) {
            // Cache lines arrive in ascending order, so those of one line
            // are adjacent.
            let line = cache_line / cache_lines_per_line;
            match lines.last_mut() {
                Some((last, total)) if *last == line => *total += writes,
                _ => lines.push((line, writes)),
            }
        }
        lines
    }

    /// Advances the fault schedule against the current PCM line-write counts
    /// and returns the newly fired events. Pages reported
    /// [`FaultEvent::PageUncorrectable`] must be retired by the caller (after
    /// evacuating live data) via [`Self::retire_page`]. No-op without fault
    /// injection. Call at a safepoint.
    pub fn pump_faults(&mut self) -> Vec<FaultEvent> {
        if self.fault.is_none() {
            return Vec::new();
        }
        let line_writes = self.pcm_line_writes();
        self.fault
            .as_mut()
            .expect("fault model present")
            .pump(&line_writes)
    }

    /// Retires an uncorrectable PCM page: marks it retired in the fault
    /// model and, when the page is still mapped on PCM, remaps it to DRAM
    /// spare capacity (accounting the full-page copy like any migration).
    /// Returns the page's previous kind when a remap happened.
    pub fn retire_page(&mut self, page: PageId) -> Option<MemoryKind> {
        let model = self.fault.as_mut()?;
        model.mark_page_retired(page.0);
        if self.page_map.info(page.start())?.kind != MemoryKind::Pcm {
            return None;
        }
        self.migrate_page(page, MemoryKind::Dram)
    }

    /// Mutable access to the memory controller (used by the OS baseline to
    /// consume per-page write counters).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }

    // ------------------------------------------------------------------
    // Counter shards (multi-mutator accounting)
    // ------------------------------------------------------------------

    /// Registers a per-mutator counter shard: subsequent accesses recorded
    /// while the shard is active ([`Self::set_active_shard`]) accumulate into
    /// its block instead of the base counters. Aggregate statistics fold
    /// across shards on read, so no event is ever lost; [`Self::merge_shard`]
    /// compacts a shard at mutator drain points.
    pub fn register_mutator_shard(&mut self) -> ShardId {
        let shard = self.controller.register_shard();
        self.cache.ensure_shard(shard.index());
        shard
    }

    /// Selects the counter shard subsequent accesses are attributed to.
    /// Collector and runtime phases run on [`ShardId::BASE`].
    pub fn set_active_shard(&mut self, shard: ShardId) {
        // Every mutator operation starts with this call and a K=1 run never
        // changes shard. (An unregistered shard is never the active one, so
        // it still reaches the controller's panic.)
        if shard == self.controller.active_shard() {
            return;
        }
        self.controller.set_active_shard(shard);
        self.cache.set_active_shard(shard.index());
    }

    /// The shard currently receiving accesses.
    pub fn active_shard(&self) -> ShardId {
        self.controller.active_shard()
    }

    /// Folds `shard`'s device counters into the base shard (exactness does
    /// not depend on this — aggregates fold on read — but merging bounds
    /// per-shard map growth; the heap calls it from the mutator drain path).
    pub fn merge_shard(&mut self, shard: ShardId) {
        self.controller.merge_shard(shard);
    }

    /// Per-shard traffic attribution: device reads/writes recorded into
    /// `shard` since its last merge, plus its cache hit/miss tallies (which
    /// survive merges).
    pub fn shard_stats(&self, shard: ShardId) -> ShardStats {
        ShardStats {
            reads: [
                self.controller.shard_reads(shard, MemoryKind::Dram),
                self.controller.shard_reads(shard, MemoryKind::Pcm),
            ],
            writes: [
                self.controller.shard_writes(shard, MemoryKind::Dram),
                self.controller.shard_writes(shard, MemoryKind::Pcm),
            ],
            cache_hits: self.cache.shard_hits(shard.index()),
            cache_misses: self.cache.shard_misses(shard.index()),
        }
    }

    // ------------------------------------------------------------------
    // Hot-path profiling
    // ------------------------------------------------------------------

    /// Enables the hot-path profiler: every touch is counted per stage and
    /// per phase (see [`telemetry::TouchProfiler`]). It never feeds back
    /// into the simulation — traffic, wear and statistics are bit-identical
    /// with it on or off. The argument is ignored: the profiler has nothing
    /// to configure, and only the frozen `kgbench` call sites, which still
    /// pass one, keep it in the signature.
    pub fn enable_touch_profiler(&mut self, _sample_every: u64) {
        self.profiler = TouchProfiler::enabled(Phase::COUNT);
    }

    /// Snapshots the hot-path profile; `None` when the profiler is off.
    pub fn touch_profile(&self) -> Option<TouchProfile> {
        self.profiler.profile()
    }

    /// Accounts one tagged access of `len` bytes: cache simulation per
    /// touched line, then device accounting per memory-side event.
    fn touch(&mut self, addr: Address, len: usize, kind: AccessKind, phase: Phase) {
        if self.profiler.begin_touch(phase as usize) {
            let mut sink = Counted::default();
            self.touch_lines(addr, len, kind, phase, &mut sink);
            self.profiler.finish_touch(&sink.0);
        } else {
            self.touch_lines(addr, len, kind, phase, &mut Unprofiled);
        }
    }

    /// The touch loop, written once: profiled or not, it runs the same
    /// simulation and differs only in what `sink` does around each stage
    /// (nothing at all when the profiler is off). Without caches it is a
    /// loop of its own that stages nothing — sharing the cached loop's event
    /// buffer cost the uncached workloads 5–11 %. Always inlined, so the
    /// sink is a local of [`Self::touch`] and its tallies stay in registers;
    /// out of line, counting costs ~3 ns a touch instead of ~1.7.
    #[inline(always)]
    fn touch_lines<S: StageSink>(
        &mut self,
        addr: Address,
        len: usize,
        kind: AccessKind,
        phase: Phase,
        sink: &mut S,
    ) {
        debug_assert!(len > 0);
        let write = kind == AccessKind::Write;
        let lines = addr.cache_line()..=addr.add(len - 1).cache_line();
        if !self.cache.is_enabled() {
            // Each access is its own device event, straight to the
            // controller; the cache-model stage still counts one per line.
            for line in lines {
                sink.stage(Stage::CacheModel, || ());
                self.account(MemEvent { line, write, phase }, sink);
            }
            return;
        }
        // One access's events, staged so that accounting them is not part
        // of the cache-model stage (the hierarchy emits at most this many).
        let mut events = [MemEvent {
            line: 0,
            write,
            phase,
        }; MAX_LEVELS + 1];
        for line in lines {
            let mut emitted = 0;
            sink.stage(Stage::CacheModel, || {
                self.cache.access(line, write, phase, |event| {
                    events[emitted] = event;
                    emitted += 1;
                });
            });
            for &event in &events[..emitted] {
                self.account(event, sink);
            }
        }
    }

    /// Accounts one memory-side event against the device counters.
    /// Write-backs to pages that have since been unmapped are dropped.
    #[inline(always)]
    fn account<S: StageSink>(&mut self, event: MemEvent, sink: &mut S) {
        let page = PageId(event.line / CACHE_LINES_PER_PAGE);
        let Some(info) = sink.stage(Stage::PageMap, || self.page_map.page_info(page)) else {
            return;
        };
        sink.stage(Stage::LineBookkeeping, || {
            if event.write {
                self.controller
                    .record_write_counters(info.kind, event.phase, event.line);
            } else {
                self.controller.record_read(info.kind, event.phase);
            }
        });
        if event.write && self.controller.tracks_lines() {
            sink.stage(Stage::WearTracking, || {
                self.controller.record_line_wear(event.line)
            });
        }
    }

    /// Reads a `u64` at `addr` on behalf of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    pub fn read_u64(&mut self, addr: Address, phase: Phase) -> u64 {
        assert!(self.page_map.is_mapped(addr), "read of unmapped address {addr}");
        self.touch(addr, 8, AccessKind::Read, phase);
        self.profiler.backing_op();
        self.backing.read_u64(addr)
    }

    /// Writes a `u64` at `addr` on behalf of `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    pub fn write_u64(&mut self, addr: Address, value: u64, phase: Phase) {
        assert!(self.page_map.is_mapped(addr), "write of unmapped address {addr}");
        self.touch(addr, 8, AccessKind::Write, phase);
        self.profiler.backing_op();
        self.backing.write_u64(addr, value);
    }

    /// Reads a `u64` at `addr` **without** simulating the access: no cache
    /// lookup, no device traffic, no wear, no counters. Returns `None` if
    /// the page containing `addr` is not mapped.
    ///
    /// Every simulated write is written through to the backing store
    /// ([`MemorySystem::write_u64`] and friends), so a peek always observes
    /// the current architectural value. This is the inspection primitive the
    /// heap sanitizer (`kingsguard-check`) uses to walk live objects without
    /// perturbing the statistics it is validating.
    pub fn peek_u64(&self, addr: Address) -> Option<u64> {
        if !self.page_map.is_mapped(addr) {
            return None;
        }
        Some(self.backing.read_u64(addr))
    }

    /// Writes a `u64` directly into the backing store, bypassing the cache
    /// model, traffic accounting and wear tracking.
    ///
    /// This deliberately violates the simulation's bookkeeping — it exists
    /// only so broken-fixture tests can corrupt heap memory behind the
    /// write barrier's back and prove the sanitizer notices.
    ///
    /// # Panics
    ///
    /// Panics if the page containing `addr` is not mapped.
    #[doc(hidden)]
    pub fn debug_poke_u64_for_test(&mut self, addr: Address, value: u64) {
        assert!(self.page_map.is_mapped(addr), "poke of unmapped address {addr}");
        self.backing.write_u64(addr, value);
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&mut self, addr: Address, buf: &mut [u8], phase: Phase) {
        if buf.is_empty() {
            return;
        }
        self.touch(addr, buf.len(), AccessKind::Read, phase);
        self.profiler.backing_op();
        self.backing.read_bytes(addr, buf);
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Address, buf: &[u8], phase: Phase) {
        if buf.is_empty() {
            return;
        }
        self.touch(addr, buf.len(), AccessKind::Write, phase);
        self.profiler.backing_op();
        self.backing.write_bytes(addr, buf);
    }

    /// Copies `len` bytes from `src` to `dst` on behalf of `phase`,
    /// accounting both the reads and the writes.
    pub fn copy(&mut self, src: Address, dst: Address, len: usize, phase: Phase) {
        if len == 0 {
            return;
        }
        self.touch(src, len, AccessKind::Read, phase);
        self.touch(dst, len, AccessKind::Write, phase);
        self.profiler.backing_op();
        self.backing.copy(src, dst, len);
    }

    /// Zeroes `len` bytes starting at `addr` (nursery zeroing, block reset).
    pub fn zero(&mut self, addr: Address, len: usize, phase: Phase) {
        if len == 0 {
            return;
        }
        self.touch(addr, len, AccessKind::Write, phase);
        self.profiler.backing_op();
        self.backing.fill(addr, len, 0);
    }

    /// Writes a single conceptual store without touching backing bytes.
    ///
    /// Used for runtime book-keeping structures (remembered-set buffers,
    /// treadmill pointers) whose values live in host data structures but
    /// whose memory traffic must still be accounted.
    pub fn account_write(&mut self, addr: Address, phase: Phase) {
        self.touch(addr, 8, AccessKind::Write, phase);
    }

    /// Flushes all dirty cache lines to the device counters. Call once at the
    /// end of a run before reading statistics.
    pub fn flush_caches(&mut self) {
        // Once a run, and accounting needs the rest of `self`: collect first.
        let mut events = Vec::new();
        self.cache.flush_all(|event| events.push(event));
        // Not a touch, but the same stages run; a disabled profiler drops
        // the tallies.
        let mut sink = Counted::default();
        for event in events {
            self.account(event, &mut sink);
        }
        self.profiler.finish_touch(&sink.0);
    }

    /// Takes a statistics snapshot (does not flush caches; call
    /// [`Self::flush_caches`] first for end-of-run numbers).
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            reads: [
                self.controller.reads(MemoryKind::Dram),
                self.controller.reads(MemoryKind::Pcm),
            ],
            writes: [
                self.controller.writes(MemoryKind::Dram),
                self.controller.writes(MemoryKind::Pcm),
            ],
            migration_writes: [
                self.controller.migration_writes(MemoryKind::Dram),
                self.controller.migration_writes(MemoryKind::Pcm),
            ],
            phase_writes: [
                self.controller.phase_writes(MemoryKind::Dram),
                self.controller.phase_writes(MemoryKind::Pcm),
            ],
            phase_reads: [
                self.controller.phase_reads(MemoryKind::Dram),
                self.controller.phase_reads(MemoryKind::Pcm),
            ],
            mapped_bytes: [
                self.page_map.mapped_bytes(MemoryKind::Dram),
                self.page_map.mapped_bytes(MemoryKind::Pcm),
            ],
            llc_misses: self.cache.llc_misses(),
            cache_hits: self.cache.hits(),
            failed_pcm_lines: self.fault.as_ref().map_or(0, FaultModel::failed_line_count),
            retired_pcm_pages: self.fault.as_ref().map_or(0, FaultModel::retired_page_count),
            transient_pcm_faults: self.fault.as_ref().map_or(0, FaultModel::transient_fault_count),
            degraded_pcm_bytes: self.fault.as_ref().map_or(0, FaultModel::degraded_bytes),
        }
    }

    /// Bytes of host memory resident in the backing store (diagnostic).
    pub fn resident_bytes(&self) -> usize {
        self.backing.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MemorySystem {
        MemorySystem::new(MemoryConfig::architecture_independent())
    }

    #[test]
    fn reserve_map_read_write() {
        let mut mem = small_system();
        let base = mem.reserve_extent("test", 1 << 20);
        mem.map_pages(base, 4, MemoryKind::Pcm, 1);
        mem.write_u64(base.add(16), 99, Phase::Mutator);
        assert_eq!(mem.read_u64(base.add(16), Phase::Mutator), 99);
        let stats = mem.stats();
        assert_eq!(stats.writes(MemoryKind::Pcm), 1);
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::Mutator), 1);
    }

    #[test]
    fn extents_do_not_overlap() {
        let mut mem = small_system();
        let a = mem.reserve_extent("a", 10 << 20);
        let b = mem.reserve_extent("b", 10 << 20);
        assert!(b.raw() >= a.raw() + (10 << 20));
        assert_eq!(mem.extents().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_write_panics() {
        let mut mem = small_system();
        let base = mem.reserve_extent("x", 1 << 20);
        mem.write_u64(base, 1, Phase::Mutator);
    }

    #[test]
    fn copy_accounts_reads_and_writes() {
        let mut mem = small_system();
        let base = mem.reserve_extent("copy", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Dram, 0);
        mem.map_pages(base.add(PAGE_SIZE), 2, MemoryKind::Pcm, 0);
        mem.write_bytes(base, &[7u8; 128], Phase::Mutator);
        mem.copy(base, base.add(PAGE_SIZE), 128, Phase::NurseryGc);
        let mut out = [0u8; 128];
        mem.read_bytes(base.add(PAGE_SIZE), &mut out, Phase::Mutator);
        assert!(out.iter().all(|&b| b == 7));
        let stats = mem.stats();
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::NurseryGc), 2);
        assert!(stats.reads(MemoryKind::Dram) >= 2);
    }

    #[test]
    fn cached_mode_filters_repeated_writes() {
        let mut mem = MemorySystem::new(MemoryConfig::hybrid());
        let base = mem.reserve_extent("hot", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for _ in 0..1000 {
            mem.write_u64(base, 1, Phase::Mutator);
        }
        mem.flush_caches();
        let stats = mem.stats();
        assert_eq!(
            stats.writes(MemoryKind::Pcm),
            1,
            "cache must coalesce repeated writes to one line"
        );
    }

    #[test]
    fn uncached_mode_counts_every_write() {
        let mut mem = small_system();
        let base = mem.reserve_extent("hot", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for _ in 0..10 {
            mem.write_u64(base, 1, Phase::Mutator);
        }
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 10);
    }

    #[test]
    fn migration_updates_kind_and_traffic() {
        let mut mem = small_system();
        let base = mem.reserve_extent("mig", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        mem.migrate_page(base.page(), MemoryKind::Dram);
        assert_eq!(mem.kind_of(base), MemoryKind::Dram);
        let stats = mem.stats();
        assert!(stats.writes(MemoryKind::Dram) > 0);
        assert_eq!(
            stats.migration_writes(MemoryKind::Dram),
            stats.writes(MemoryKind::Dram)
        );
    }

    #[test]
    fn zero_initialisation_writes_are_charged() {
        let mut mem = small_system();
        let base = mem.reserve_extent("zero", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Dram, 0);
        mem.zero(base, 512, Phase::NurseryGc);
        assert_eq!(mem.stats().writes(MemoryKind::Dram), 512 / 64);
    }

    #[test]
    fn shard_attribution_folds_into_aggregate_stats() {
        let mut mem = small_system();
        let base = mem.reserve_extent("sharded", 1 << 20);
        mem.map_pages(base, 4, MemoryKind::Pcm, 0);
        let shard = mem.register_mutator_shard();
        mem.write_u64(base, 1, Phase::Mutator);
        mem.set_active_shard(shard);
        mem.write_u64(base.add(64), 2, Phase::Mutator);
        mem.set_active_shard(ShardId::BASE);
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 2, "aggregates fold shards");
        assert_eq!(mem.shard_stats(shard).writes(MemoryKind::Pcm), 1);
        mem.merge_shard(shard);
        assert_eq!(mem.shard_stats(shard).writes(MemoryKind::Pcm), 0);
        assert_eq!(mem.stats().writes(MemoryKind::Pcm), 2);
    }

    #[test]
    #[should_panic(expected = "unregistered shard")]
    fn reselecting_the_active_shard_is_free_but_an_unregistered_one_still_panics() {
        let mut mem = small_system();
        let shard = mem.register_mutator_shard();
        mem.set_active_shard(shard);
        mem.set_active_shard(shard);
        assert_eq!(mem.active_shard(), shard);
        mem.set_active_shard(ShardId(shard.index() + 1));
    }

    #[test]
    fn fault_pump_fails_lines_and_retirement_remaps_to_dram() {
        let fault = FaultConfig {
            ecc_correctable_lines: 0,
            ..FaultConfig::accelerated(11, crate::lifetime::Endurance::Low10M)
                .with_wear_multiplier(u64::MAX / 4)
        };
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent().with_faults(fault));
        let base = mem.reserve_extent("faulty", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Pcm, 3);
        mem.write_u64(base, 1, Phase::Mutator);
        let events = mem.pump_faults();
        assert!(
            events.iter().any(|e| matches!(e, FaultEvent::LineFailed { .. })),
            "extreme acceleration must fail the written line: {events:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, FaultEvent::PageUncorrectable { .. })));
        assert_eq!(mem.retire_page(base.page()), Some(MemoryKind::Pcm));
        assert_eq!(mem.kind_of(base), MemoryKind::Dram, "retired page remapped");
        let stats = mem.stats();
        assert_eq!(stats.retired_pcm_pages, 1);
        assert!(stats.failed_pcm_lines >= 1);
        assert_eq!(stats.degraded_pcm_bytes, PAGE_SIZE as u64);
        // Re-pumping after retirement is quiescent: the page is DRAM now.
        assert!(mem.pump_faults().is_empty());
        // Retiring an already-DRAM page does not migrate again.
        assert_eq!(mem.retire_page(base.page()), None);
        assert_eq!(mem.stats().retired_pcm_pages, 1);
    }

    #[test]
    fn fault_free_system_reports_no_faults() {
        let mut mem = small_system();
        let base = mem.reserve_extent("clean", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        mem.write_u64(base, 1, Phase::Mutator);
        assert!(mem.pump_faults().is_empty());
        assert!(mem.fault_model().is_none());
        assert_eq!(mem.retire_page(base.page()), None);
        let stats = mem.stats();
        assert_eq!(stats.failed_pcm_lines, 0);
        assert_eq!(stats.degraded_pcm_bytes, 0);
    }

    #[test]
    fn account_write_has_no_data_effect() {
        let mut mem = small_system();
        let base = mem.reserve_extent("acct", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Dram, 0);
        mem.write_u64(base, 42, Phase::Mutator);
        mem.account_write(base, Phase::Runtime);
        assert_eq!(mem.read_u64(base, Phase::Mutator), 42);
        assert_eq!(mem.stats().phase_writes(MemoryKind::Dram).get(Phase::Runtime), 1);
    }

    /// Mixed read/write/copy/zero workload spanning DRAM and PCM pages and
    /// two mutator shards (one merged half-way, one left unmerged), used to
    /// compare profiled against unprofiled runs.
    fn drive_mixed_workload(mem: &mut MemorySystem) -> [ShardId; 2] {
        let base = mem.reserve_extent("work", 1 << 20);
        mem.map_pages(base, 2, MemoryKind::Dram, 0);
        mem.map_pages(base.add(2 * PAGE_SIZE), 2, MemoryKind::Pcm, 0);
        let shards = [mem.register_mutator_shard(), mem.register_mutator_shard()];
        for i in 0..200u64 {
            mem.set_active_shard(shards[i as usize % 2]);
            let slot = base.add((i as usize % 64) * 8 + (i as usize % 3) * PAGE_SIZE);
            mem.write_u64(slot, i, Phase::Mutator);
            let _ = mem.read_u64(slot, Phase::Mutator);
            if i == 100 {
                mem.merge_shard(shards[0]);
            }
        }
        mem.set_active_shard(ShardId::BASE);
        mem.write_bytes(base, &[3u8; 256], Phase::NurseryGc);
        mem.copy(base, base.add(2 * PAGE_SIZE), 256, Phase::NurseryGc);
        mem.zero(base.add(PAGE_SIZE), 512, Phase::MajorGc);
        let _ = mem.read_u64(base, Phase::Runtime);
        mem.account_write(base, Phase::Runtime);
        mem.flush_caches();
        shards
    }

    #[test]
    fn touch_profiler_does_not_perturb_simulation() {
        // The touch loop exists once; profiled and unprofiled it must
        // simulate identically, with and without the cache model in front
        // of the controller.
        for mut config in [MemoryConfig::hybrid(), MemoryConfig::architecture_independent()] {
            config.track_line_writes = true;
            let observe = |profiled: bool| {
                let mut mem = MemorySystem::new(config.clone());
                if profiled {
                    mem.enable_touch_profiler(telemetry::DEFAULT_SAMPLE_EVERY);
                }
                let shards = drive_mixed_workload(&mut mem);
                let profile = mem.touch_profile();
                assert_eq!(profile.is_some(), profiled);
                if let Some(profile) = profile {
                    // Every device access was counted, the final flush's too.
                    let stats = mem.stats();
                    let events = |stage: Stage| profile.stages[stage as usize].events;
                    assert_eq!(
                        events(Stage::LineBookkeeping),
                        stats.total_reads() + stats.total_writes()
                    );
                    assert_eq!(events(Stage::WearTracking), stats.total_writes());
                }
                format!(
                    "{:?} {:?} {:?} {:?} {:?}",
                    mem.stats(),
                    mem.pcm_line_writes(),
                    mem.controller().page_writes().collect::<Vec<_>>(),
                    mem.shard_stats(shards[0]),
                    mem.shard_stats(shards[1]),
                )
            };
            assert_eq!(
                observe(false),
                observe(true),
                "simulation must be bit-identical with the profiler on"
            );
        }
    }

    #[test]
    fn touch_profiler_counts_stage_events() {
        let mut mem = small_system();
        mem.enable_touch_profiler(telemetry::DEFAULT_SAMPLE_EVERY);
        let base = mem.reserve_extent("count", 1 << 20);
        mem.map_pages(base, 1, MemoryKind::Pcm, 0);
        for i in 0..10u64 {
            mem.write_u64(base.add(i as usize * 8), i, Phase::Mutator);
        }
        let profile = mem.touch_profile().expect("profiler enabled");
        assert_eq!(profile.touches, 10);
        let events = |stage: Stage| profile.stages[stage as usize].events;
        // Uncached mode: one cache-model pass, one page-map lookup and one
        // bookkeeping record per touched line; no line tracking configured.
        assert_eq!(events(Stage::CacheModel), 10);
        assert_eq!(events(Stage::PageMap), 10);
        assert_eq!(events(Stage::LineBookkeeping), 10);
        assert_eq!(events(Stage::WearTracking), 0);
        assert_eq!(events(Stage::BackingStore), 10);
        assert_eq!(profile.phases[Phase::Mutator as usize].touches, 10);
    }

    #[test]
    #[should_panic(expected = "cannot be scaled down by a divisor of 0")]
    fn hybrid_scaled_by_zero_is_rejected() {
        MemoryConfig::hybrid_scaled(0);
    }

    #[test]
    fn a_wide_cached_access_accounts_every_staged_event() {
        // One touch spanning many lines through a tiny hierarchy: every line
        // misses, fills and (second time round) writes a victim back, all
        // staged on the stack and accounted line by line.
        let mut mem = MemorySystem::new(MemoryConfig::hybrid_scaled(4096));
        let base = mem.reserve_extent("wide", 1 << 20);
        mem.map_pages(base, 64, MemoryKind::Pcm, 0);
        let len = 64 * PAGE_SIZE;
        mem.zero(base, len, Phase::Mutator);
        mem.zero(base, len, Phase::MajorGc);
        mem.flush_caches();
        let stats = mem.stats();
        let lines = (len / CACHE_LINE_SIZE) as u64;
        assert_eq!(stats.reads(MemoryKind::Pcm), 2 * lines);
        assert_eq!(stats.writes(MemoryKind::Pcm), 2 * lines);
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::Mutator), lines);
        assert_eq!(stats.phase_writes(MemoryKind::Pcm).get(Phase::MajorGc), lines);
    }
}
