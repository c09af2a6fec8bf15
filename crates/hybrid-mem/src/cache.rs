//! Set-associative write-back cache hierarchy.
//!
//! The paper stresses that modelling the cache hierarchy matters because
//! caches absorb writes and are "the first line of defense in protecting PCM
//! from writes" (Section 6.1). This module implements a configurable
//! multi-level, set-associative, write-allocate, write-back hierarchy with
//! exact LRU replacement. Each cache line remembers the *phase* (mutator,
//! nursery GC, observer GC, major GC, runtime) that last wrote it so that
//! when a dirty line is finally evicted to memory the resulting device write
//! can be attributed to the phase that produced it — the mechanism behind
//! Figure 10 of the paper.
//!
//! # Layout
//!
//! A level is two flat side arrays `sets × ways` long, set after set: one
//! `u64` tag (the cache-line index) per way and, parallel to it, one byte of
//! `dirty | phase << 1`. A probe of an 8-way set reads one 64-byte host
//! cache line of tags; the metadata byte is only touched on a hit.
//!
//! **An empty way** holds the tag `INVALID` (`u64::MAX`) and metadata 0,
//! so there is no `valid` flag and a set dirty bit implies a real line.
//! Line indices are byte addresses divided by 64 and so stay below 2⁵⁸;
//! no access can match the sentinel.
//!
//! **Way order is recency order.** Each set is kept most-recently-used
//! first, with its empty ways at the end. A hit rotates the way to the front
//! (a hit on way 0 — the common case — moves nothing); an install shifts the
//! set right by one and whatever falls off the end is the victim, which is an
//! empty way whenever the set has one and the least recently used line
//! otherwise; removing a line closes the gap and parks `INVALID` at the
//! end. That is exactly the order a per-way timestamp would record, so the
//! replacement decisions are those of timestamped LRU with no `tick` to
//! bump and no minimum to search for.
//!
//! **The set index** is `line & (sets - 1)` when the set count is a power of
//! two (every shipped geometry) and `line % sets` otherwise, decided once at
//! construction.
//!
//! # Events
//!
//! [`CacheHierarchy::access`] and [`CacheHierarchy::flush_all`] hand the
//! memory-side [`MemEvent`]s to a caller-supplied `FnMut(MemEvent)` sink, in
//! order, and allocate nothing. One access produces at most `levels + 1`
//! events: the miss fill first, then at most one write-back per level
//! installed into (a dirty victim is pushed down until some level absorbs it
//! or it falls out of the last one). With at most [`MAX_LEVELS`] levels a
//! caller can stage one access's events in a `[MemEvent; MAX_LEVELS + 1]`.

use crate::address::CACHE_LINE_SIZE;
use crate::system::Phase;

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheLevelConfig {
    /// Number of sets implied by the capacity, associativity and line size
    /// (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / CACHE_LINE_SIZE / self.ways).max(1)
    }
}

/// Configuration of the whole hierarchy (closest level first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache levels ordered from L1 to LLC.
    pub levels: Vec<CacheLevelConfig>,
}

impl CacheConfig {
    /// The paper's simulated hierarchy (Table 2): 32 KB 8-way L1-D, 256 KB
    /// 8-way L2 and a shared 4 MB 16-way L3.
    pub fn paper_default() -> Self {
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 32 * 1024,
                    ways: 8,
                },
                CacheLevelConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                },
                CacheLevelConfig {
                    capacity_bytes: 4 * 1024 * 1024,
                    ways: 16,
                },
            ],
        }
    }

    /// A small hierarchy useful for unit tests and scaled-down workloads: the
    /// capacities are divided by `divisor` (at least one set per level).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is 0.
    pub fn scaled(divisor: usize) -> Self {
        assert!(
            divisor > 0,
            "cache capacities cannot be scaled down by a divisor of {divisor}"
        );
        let mut cfg = Self::paper_default();
        for level in &mut cfg.levels {
            level.capacity_bytes = (level.capacity_bytes / divisor).max(level.ways * CACHE_LINE_SIZE);
        }
        cfg
    }
}

/// A memory-side event produced by the hierarchy: a device read (miss fill)
/// or a device write (dirty eviction / flush).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemEvent {
    /// Cache-line index (address / 64).
    pub line: u64,
    /// `true` for a device write (write-back), `false` for a device read.
    pub write: bool,
    /// Phase responsible for the event: the requester for reads, the last
    /// writer of the line for write-backs.
    pub phase: Phase,
}

/// The most levels a hierarchy may have, so that the events of one access
/// fit a `[MemEvent; MAX_LEVELS + 1]` (see the module docs).
pub const MAX_LEVELS: usize = 4;

/// Tag of an empty way; no line index reaches it (they stay below 2⁵⁸).
const INVALID: u64 = u64::MAX;
/// The dirty bit of a way's metadata byte; the last writer sits above it.
const DIRTY: u8 = 1;

/// Metadata of a line last written (or, while clean, requested) by `phase`.
#[inline]
fn meta_of(dirty: bool, phase: Phase) -> u8 {
    u8::from(dirty) | (phase as u8) << 1
}

/// A dirty line on its way out of a level, as `(tag, metadata)`.
type Victim = (u64, u8);

/// The write-back of a dirty victim.
fn write_back((line, meta): Victim) -> MemEvent {
    MemEvent {
        line,
        write: true,
        phase: Phase::ALL[usize::from(meta >> 1)],
    }
}

/// How a level maps a line to its set, decided once at construction.
#[derive(Clone, Copy, Debug)]
enum SetIndex {
    /// `line & mask`: the set count is a power of two.
    Mask(u64),
    /// `line % sets`: any other set count.
    Modulo(u64),
}

/// One level: flat tag and metadata arrays, each set most recently used
/// first (see the module docs).
#[derive(Debug)]
struct CacheLevel {
    tags: Vec<u64>,
    meta: Vec<u8>,
    ways: usize,
    index: SetIndex,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    fn new(config: CacheLevelConfig) -> Self {
        let sets = config.sets();
        CacheLevel {
            tags: vec![INVALID; sets * config.ways],
            meta: vec![0; sets * config.ways],
            ways: config.ways,
            index: if sets.is_power_of_two() {
                SetIndex::Mask(sets as u64 - 1)
            } else {
                SetIndex::Modulo(sets as u64)
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Index of way 0 of `line`'s set.
    #[inline]
    fn set_start(&self, line: u64) -> usize {
        let set = match self.index {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::Modulo(sets) => line % sets,
        };
        set as usize * self.ways
    }

    /// The way of the set at `start` that holds `line`.
    #[inline]
    fn find(&self, start: usize, line: u64) -> Option<usize> {
        self.tags[start..start + self.ways]
            .iter()
            .position(|&tag| tag == line)
    }

    /// Makes `line` the most recently used way of the set at `start`: ways
    /// `0..way` move one place towards the end, over the old way `way`.
    #[inline]
    fn place_in_front(&mut self, start: usize, way: usize, line: u64, meta: u8) {
        let tags = &mut self.tags[start..=start + way];
        let metas = &mut self.meta[start..=start + way];
        for i in (0..way).rev() {
            tags[i + 1] = tags[i];
            metas[i + 1] = metas[i];
        }
        tags[0] = line;
        metas[0] = meta;
    }

    /// Installs `line` in the set at `start`; returns the line that fell off
    /// the end if it was dirty (an empty way or a clean line just goes).
    #[inline]
    fn install_at(&mut self, start: usize, line: u64, meta: u8) -> Option<Victim> {
        let last = self.ways - 1;
        let victim = (self.tags[start + last], self.meta[start + last]);
        self.place_in_front(start, last, line, meta);
        (victim.1 & DIRTY != 0).then_some(victim)
    }

    fn install(&mut self, line: u64, meta: u8) -> Option<Victim> {
        self.install_at(self.set_start(line), line, meta)
    }

    /// An access by the core: on a hit the line becomes most recently used
    /// and a write marks it dirty by `phase`.
    fn touch(&mut self, line: u64, write: bool, phase: Phase) -> bool {
        let start = self.set_start(line);
        let Some(way) = self.find(start, line) else {
            self.misses += 1;
            return false;
        };
        let meta = if write {
            meta_of(true, phase)
        } else {
            self.meta[start + way]
        };
        self.place_in_front(start, way, line, meta);
        self.hits += 1;
        true
    }

    /// A probe on behalf of the levels above: a hit hands the line's
    /// metadata over and removes it from this level (it moves up), closing
    /// the gap and leaving the empty way at the end of the set.
    fn take(&mut self, line: u64) -> Option<u8> {
        let start = self.set_start(line);
        let Some(way) = self.find(start, line) else {
            self.misses += 1;
            return None;
        };
        let meta = self.meta[start + way];
        let end = start + self.ways;
        self.tags.copy_within(start + way + 1..end, start + way);
        self.meta.copy_within(start + way + 1..end, start + way);
        self.tags[end - 1] = INVALID;
        self.meta[end - 1] = 0;
        self.hits += 1;
        Some(meta)
    }

    /// Takes in a dirty line evicted from the level above, in one scan of
    /// the set: a copy already here is marked dirty (a hit), otherwise the
    /// line is installed (a miss) and may push out a dirty victim of its own.
    fn absorb(&mut self, (line, meta): Victim) -> Option<Victim> {
        let start = self.set_start(line);
        match self.find(start, line) {
            Some(way) => {
                self.hits += 1;
                self.place_in_front(start, way, line, meta);
                None
            }
            None => {
                self.misses += 1;
                self.install_at(start, line, meta)
            }
        }
    }

    fn holds_dirty(&self, line: u64) -> bool {
        let start = self.set_start(line);
        self.find(start, line)
            .is_some_and(|way| self.meta[start + way] & DIRTY != 0)
    }
}

/// A multi-level write-back cache hierarchy.
///
/// Accesses are performed at cache-line (64 B) granularity; the caller is
/// responsible for splitting wider accesses into lines (the
/// [`crate::MemorySystem`] does this automatically).
#[derive(Debug)]
pub struct CacheHierarchy {
    /// L1 first; empty for the pass-through hierarchy.
    levels: Vec<CacheLevel>,
    /// Per-shard tallies of accesses that hit in some level / missed all the
    /// way to memory (index = shard). Sharded alongside the controller's
    /// counters so multi-mutator runs get per-mutator locality for free.
    shard_hits: Vec<u64>,
    shard_misses: Vec<u64>,
    active_shard: usize,
}

impl CacheHierarchy {
    /// Builds a hierarchy from `config`; one without levels passes every
    /// access through, like [`Self::disabled`].
    ///
    /// # Panics
    ///
    /// Panics if a level has 0 ways or there are more than [`MAX_LEVELS`]
    /// levels.
    pub fn new(config: &CacheConfig) -> Self {
        assert!(
            config.levels.len() <= MAX_LEVELS,
            "a cache hierarchy has at most {MAX_LEVELS} levels, not {}",
            config.levels.len()
        );
        for (i, level) in config.levels.iter().enumerate() {
            assert!(
                level.ways > 0,
                "cache level L{} ({} bytes) has {} ways; it needs at least one",
                i + 1,
                level.capacity_bytes,
                level.ways
            );
        }
        CacheHierarchy {
            levels: config.levels.iter().map(|&c| CacheLevel::new(c)).collect(),
            shard_hits: vec![0],
            shard_misses: vec![0],
            active_shard: 0,
        }
    }

    /// Builds a pass-through "hierarchy" with no caching at all, used for the
    /// architecture-independent measurement mode.
    pub fn disabled() -> Self {
        Self::new(&CacheConfig { levels: Vec::new() })
    }

    /// Returns `true` if caching is active.
    pub fn is_enabled(&self) -> bool {
        !self.levels.is_empty()
    }

    /// Ensures per-shard tallies exist for shard indices `0..=shard`.
    pub fn ensure_shard(&mut self, shard: usize) {
        if shard >= self.shard_hits.len() {
            self.shard_hits.resize(shard + 1, 0);
            self.shard_misses.resize(shard + 1, 0);
        }
    }

    /// Selects the shard whose hit/miss tallies subsequent accesses update.
    pub fn set_active_shard(&mut self, shard: usize) {
        self.ensure_shard(shard);
        self.active_shard = shard;
    }

    /// Accesses of `shard` that hit in some cache level (0 with caching
    /// disabled). One per access, however many levels it probed — unlike
    /// [`Self::hits`], which counts per level and includes spill probes.
    pub fn shard_hits(&self, shard: usize) -> u64 {
        self.shard_hits.get(shard).copied().unwrap_or(0)
    }

    /// Accesses of `shard` that missed every level and reached memory (0
    /// with caching disabled). Summed over the shards this is the number of
    /// miss fills; [`Self::llc_misses`] is at least that.
    pub fn shard_misses(&self, shard: usize) -> u64 {
        self.shard_misses.get(shard).copied().unwrap_or(0)
    }

    /// Accesses cache line `line`, passing the memory-side events caused by
    /// the access (the miss fill, then dirty write-backs) to `sink` in
    /// order — at most `levels + 1` of them, none on a hit.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool, phase: Phase, mut sink: impl FnMut(MemEvent)) {
        debug_assert!(line != INVALID, "line index {line:#x} is the empty-way sentinel");
        let Some(l1) = self.levels.first_mut() else {
            sink(MemEvent { line, write, phase });
            return;
        };
        // The most recently used way of the L1 set: one compare, no move.
        let front = l1.set_start(line);
        if l1.tags[front] == line {
            if write {
                l1.meta[front] = meta_of(true, phase);
            }
            l1.hits += 1;
            self.shard_hits[self.active_shard] += 1;
            return;
        }
        self.access_past_front(line, write, phase, &mut sink);
    }

    /// Everything but the hit on L1's front way, out of line.
    #[inline(never)]
    fn access_past_front(&mut self, line: u64, write: bool, phase: Phase, sink: &mut impl FnMut(MemEvent)) {
        if self.levels[0].touch(line, write, phase) {
            self.shard_hits[self.active_shard] += 1;
            return;
        }
        // Probe the lower levels closest-first.
        for level_idx in 1..self.levels.len() {
            if let Some(found) = self.levels[level_idx].take(line) {
                self.shard_hits[self.active_shard] += 1;
                // Move the line up into the levels above (inclusive-style
                // fill), preserving its dirty state from where it was found.
                let meta = if write { meta_of(true, phase) } else { found };
                self.fill(level_idx, line, meta, sink);
                return;
            }
        }
        // Full miss: fetch the line from memory and install it in every
        // level up to L1.
        self.shard_misses[self.active_shard] += 1;
        sink(MemEvent {
            line,
            write: false,
            phase,
        });
        self.fill(self.levels.len(), line, meta_of(write, phase), sink);
    }

    /// Installs `line` into levels `[0, to)` — dirty in L1 only — pushing
    /// dirty victims downwards.
    fn fill(&mut self, to: usize, line: u64, meta: u8, sink: &mut impl FnMut(MemEvent)) {
        for level_idx in 0..to {
            let meta = if level_idx == 0 { meta } else { meta & !DIRTY };
            if let Some(victim) = self.levels[level_idx].install(line, meta) {
                self.spill(level_idx + 1, victim, sink);
            }
        }
    }

    /// Pushes a dirty victim into level `level_idx` and whatever that evicts
    /// further down; a victim falling out of the last level is written back.
    fn spill(&mut self, level_idx: usize, mut victim: Victim, sink: &mut impl FnMut(MemEvent)) {
        for level in &mut self.levels[level_idx..] {
            match level.absorb(victim) {
                Some(next) => victim = next,
                None => return,
            }
        }
        sink(write_back(victim));
    }

    /// Flushes every dirty line to memory and empties the hierarchy, passing
    /// the write-backs to `sink` level by level from L1 down. Called at the
    /// end of a run so that pending writes are accounted; the order within a
    /// level is that of the sets' ways and carries no meaning.
    ///
    /// Each dirty line is written back once: a line has at most one dirty
    /// copy, the one closest to the core. (A copy turns dirty in L1 by a
    /// write, or in the level below the one that just evicted it; a probe
    /// finds the closest copy first and moves it up, out of its level. So no
    /// copy sits above a dirty one, and two dirty copies would each have to
    /// be the closest.)
    pub fn flush_all(&mut self, mut sink: impl FnMut(MemEvent)) {
        for (level_idx, level) in self.levels.iter().enumerate() {
            for (&tag, &meta) in level.tags.iter().zip(&level.meta) {
                if meta & DIRTY != 0 {
                    debug_assert!(
                        !self.levels[..level_idx]
                            .iter()
                            .any(|above| above.holds_dirty(tag)),
                        "line {tag:#x} is dirty in L{} and above it",
                        level_idx + 1
                    );
                    sink(write_back((tag, meta)));
                }
            }
        }
        for level in &mut self.levels {
            level.tags.fill(INVALID);
            level.meta.fill(0);
        }
    }

    /// Probes that hit, summed over all levels: the accesses that hit in
    /// some level (the sum of [`Self::shard_hits`]) **plus** the *spill
    /// probes* that hit — the lookup a dirty victim makes in the level below
    /// when it is evicted, which finds a copy of the line more often than
    /// not. So this is **not** a count of accesses; for per-access rates use
    /// the shard tallies ([`Self::shard_hits`] / [`Self::shard_misses`]).
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.hits).sum()
    }

    /// Probes that missed in the last level: the accesses that reached
    /// memory (the sum of [`Self::shard_misses`]) **plus** the spill probes
    /// of dirty victims that found no copy of themselves in the last level.
    /// Equal to the per-access count as long as nothing dirty was evicted
    /// into the last level.
    pub fn llc_misses(&self) -> u64 {
        self.levels.last().map_or(0, |l| l.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CacheConfig {
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 4 * CACHE_LINE_SIZE,
                    ways: 2,
                },
                CacheLevelConfig {
                    capacity_bytes: 8 * CACHE_LINE_SIZE,
                    ways: 2,
                },
            ],
        }
    }

    #[test]
    fn repeated_writes_to_one_line_produce_one_writeback() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        for _ in 0..100 {
            cache.access(42, true, Phase::Mutator, |e| events.push(e));
        }
        // One miss fill, no write-backs yet.
        assert_eq!(events.iter().filter(|e| e.write).count(), 0);
        assert_eq!(events.iter().filter(|e| !e.write).count(), 1);
        cache.flush_all(|e| events.push(e));
        assert_eq!(events.iter().filter(|e| e.write).count(), 1);
    }

    #[test]
    fn disabled_cache_passes_every_access_through() {
        let mut cache = CacheHierarchy::disabled();
        let mut events = Vec::new();
        for i in 0..10 {
            cache.access(i, i % 2 == 0, Phase::Mutator, |e| events.push(e));
        }
        assert_eq!(events.len(), 10);
        assert_eq!(events.iter().filter(|e| e.write).count(), 5);
    }

    #[test]
    fn dirty_eviction_attributes_last_writer() {
        let mut cache = CacheHierarchy::new(&CacheConfig {
            levels: vec![CacheLevelConfig {
                capacity_bytes: 2 * CACHE_LINE_SIZE,
                ways: 1,
            }],
        });
        let mut events = Vec::new();
        // Write line 0 as the nursery GC, then touch enough conflicting lines
        // (same set, different tags) to force it out.
        cache.access(0, true, Phase::NurseryGc, |e| events.push(e));
        cache.access(2, false, Phase::Mutator, |e| events.push(e));
        cache.access(4, false, Phase::Mutator, |e| events.push(e));
        let wb: Vec<_> = events.iter().filter(|e| e.write).collect();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].line, 0);
        assert_eq!(wb[0].phase, Phase::NurseryGc);
    }

    #[test]
    fn hit_in_lower_level_promotes_without_memory_traffic() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(7, false, Phase::Mutator, |e| events.push(e));
        let before = events.len();
        // Evict line 7 from L1 by filling its set, then access it again: it
        // should be found in L2 without a new memory read.
        cache.access(7 + 2, false, Phase::Mutator, |e| events.push(e));
        cache.access(7 + 4, false, Phase::Mutator, |e| events.push(e));
        cache.access(7 + 6, false, Phase::Mutator, |e| events.push(e));
        let mid = events.iter().filter(|e| !e.write).count();
        cache.access(7, false, Phase::Mutator, |e| events.push(e));
        let after = events.iter().filter(|e| !e.write).count();
        assert!(before >= 1);
        assert_eq!(after, mid, "L2 hit must not produce another memory read");
    }

    #[test]
    fn flush_is_idempotent() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(11, true, Phase::MajorGc, |e| events.push(e));
        cache.flush_all(|e| events.push(e));
        let n = events.len();
        cache.flush_all(|e| events.push(e));
        assert_eq!(events.len(), n);
    }

    #[test]
    fn shard_tallies_follow_the_active_shard() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let mut events = Vec::new();
        cache.access(1, false, Phase::Mutator, |e| events.push(e)); // miss, shard 0
        cache.set_active_shard(2);
        cache.access(1, false, Phase::Mutator, |e| events.push(e)); // hit, shard 2
        cache.access(9, false, Phase::Mutator, |e| events.push(e)); // miss, shard 2
        assert_eq!(cache.shard_misses(0), 1);
        assert_eq!(cache.shard_hits(0), 0);
        assert_eq!(cache.shard_hits(2), 1);
        assert_eq!(cache.shard_misses(2), 1);
        assert_eq!(cache.shard_hits(7), 0, "unknown shards read as zero");
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.levels.len(), 3);
        assert_eq!(cfg.levels[2].capacity_bytes, 4 * 1024 * 1024);
        assert_eq!(cfg.levels[2].sets(), 4 * 1024 * 1024 / 64 / 16);
        let scaled = CacheConfig::scaled(16);
        assert!(scaled.levels[0].capacity_bytes < cfg.levels[0].capacity_bytes);
    }

    /// Every access of `lines` as a read by the mutator; returns the events.
    fn read_all(cache: &mut CacheHierarchy, lines: &[u64]) -> Vec<MemEvent> {
        let mut events = Vec::new();
        for &line in lines {
            cache.access(line, false, Phase::Mutator, |e| events.push(e));
        }
        events
    }

    fn one_level(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            levels: vec![CacheLevelConfig {
                capacity_bytes: sets * ways * CACHE_LINE_SIZE,
                ways,
            }],
        }
    }

    #[test]
    fn way_order_is_recency_order() {
        // One 4-way set. Touch 0 1 2 3, re-touch 0 and 2, take 1 out of the
        // middle by evicting: the victims must come out least recent first.
        let mut cache = CacheHierarchy::new(&one_level(1, 4));
        read_all(&mut cache, &[0, 1, 2, 3, 0, 2]);
        assert_eq!(cache.levels[0].tags, [2, 0, 3, 1]);
        read_all(&mut cache, &[4]);
        assert_eq!(cache.levels[0].tags, [4, 2, 0, 3], "1 was least recently used");
        read_all(&mut cache, &[3]);
        assert_eq!(cache.levels[0].tags, [3, 4, 2, 0], "a hit rotates to the front");
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.llc_misses(), 5);
    }

    #[test]
    fn a_line_moving_up_leaves_its_empty_way_at_the_end() {
        let mut cache = CacheHierarchy::new(&CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: CACHE_LINE_SIZE,
                    ways: 1,
                },
                CacheLevelConfig {
                    capacity_bytes: 4 * CACHE_LINE_SIZE,
                    ways: 4,
                },
            ],
        });
        read_all(&mut cache, &[0, 1, 2]);
        assert_eq!(cache.levels[1].tags, [2, 1, 0, INVALID]);
        // 1 hits in L2 and moves up to L1; the clean 2 it replaces is dropped.
        let events = read_all(&mut cache, &[1]);
        assert!(events.is_empty());
        assert_eq!(cache.levels[0].tags, [1]);
        assert_eq!(cache.levels[1].tags, [2, 0, INVALID, INVALID]);
        // The next install takes the empty way, not a victim.
        read_all(&mut cache, &[3]);
        assert_eq!(cache.levels[1].tags, [3, 2, 0, INVALID]);
    }

    #[test]
    fn a_set_count_that_is_no_power_of_two_indexes_by_remainder() {
        // 3 direct-mapped sets: lines 0 and 3 conflict, 0 and 4 do not (a
        // mask would fold 4 onto 0).
        let mut cache = CacheHierarchy::new(&one_level(3, 1));
        assert!(matches!(cache.levels[0].index, SetIndex::Modulo(3)));
        assert_eq!(read_all(&mut cache, &[0, 4, 0]).len(), 2);
        assert_eq!(read_all(&mut cache, &[3, 0]).len(), 2);
        let masked = CacheHierarchy::new(&one_level(4, 1));
        assert!(matches!(masked.levels[0].index, SetIndex::Mask(3)));
    }

    #[test]
    fn one_access_emits_at_most_levels_plus_one_events_fill_first() {
        // Direct-mapped single-set levels: every miss evicts, and a dirty
        // victim cascades all the way down.
        let level = CacheLevelConfig {
            capacity_bytes: CACHE_LINE_SIZE,
            ways: 1,
        };
        let mut cache = CacheHierarchy::new(&CacheConfig {
            levels: vec![level; 3],
        });
        let mut events = Vec::new();
        for line in 0..4 {
            cache.access(line, true, Phase::ObserverGc, |e| events.push(e));
        }
        events.clear();
        cache.access(9, true, Phase::Mutator, |e| events.push(e));
        assert!(events.len() <= 3 + 1);
        assert_eq!(
            events[0],
            MemEvent {
                line: 9,
                write: false,
                phase: Phase::Mutator
            }
        );
        assert!(events[1..]
            .iter()
            .all(|e| e.write && e.phase == Phase::ObserverGc));
    }

    #[test]
    fn llc_misses_count_spill_probes_on_top_of_the_shard_misses() {
        // Read-only traffic evicts nothing dirty: the two counts agree.
        let mut cache = CacheHierarchy::new(&tiny_config());
        let lines: Vec<u64> = (0..64).map(|i| i * 7 % 40).collect();
        read_all(&mut cache, &lines);
        assert_eq!(cache.llc_misses(), cache.shard_misses(0));
        assert_eq!(cache.hits(), cache.shard_hits(0));
        // Line 0 is written and then kept hot in L1 while 4 and 8 push its
        // (clean) copy out of L2; 12 and 16 then evict it from L1. The dirty
        // victim probes L2, finds no copy and is installed: an LLC miss that
        // no access made.
        let mut cache = CacheHierarchy::new(&tiny_config());
        cache.set_active_shard(1);
        cache.access(0, true, Phase::Mutator, |_| {});
        let events = read_all(&mut cache, &[4, 0, 8, 0, 12, 16]);
        assert_eq!(events.len(), 4, "four more fills, the spill stays in L2");
        assert_eq!(cache.shard_misses(0) + cache.shard_misses(1), 5);
        assert_eq!(cache.llc_misses(), 5 + 1);
        assert_eq!(cache.shard_hits(1), 2);
        assert!(cache.levels[1].holds_dirty(0));
    }

    #[test]
    fn a_line_spilled_and_written_again_is_flushed_once_by_its_last_writer() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        // Dirtied by the nursery GC, then pushed out of L1 by 2 and 4: the
        // copy the fill left in L2 turns dirty.
        cache.access(0, true, Phase::NurseryGc, |_| {});
        read_all(&mut cache, &[2, 4]);
        assert!(cache.levels[1].holds_dirty(0) && !cache.levels[0].holds_dirty(0));
        // The next write finds it in L2 and moves it up, out of L2: still one
        // dirty copy, now the major GC's.
        cache.access(0, true, Phase::MajorGc, |_| {});
        assert!(cache.levels[0].holds_dirty(0) && !cache.levels[1].holds_dirty(0));
        let mut events = Vec::new();
        cache.flush_all(|e| events.push(e));
        assert_eq!(
            events,
            [MemEvent {
                line: 0,
                write: true,
                phase: Phase::MajorGc
            }]
        );
        assert!(cache.levels.iter().all(|l| l.tags.iter().all(|&t| t == INVALID)));
    }

    #[test]
    #[should_panic(expected = "cache level L2 (512 bytes) has 0 ways")]
    fn a_level_without_ways_is_rejected_by_name() {
        let mut config = tiny_config();
        config.levels[1].ways = 0;
        CacheHierarchy::new(&config);
    }

    #[test]
    #[should_panic(expected = "cannot be scaled down by a divisor of 0")]
    fn scaling_by_zero_is_rejected() {
        CacheConfig::scaled(0);
    }

    #[test]
    #[should_panic(expected = "at most 4 levels, not 5")]
    fn more_levels_than_an_access_can_report_on_are_rejected() {
        let level = CacheLevelConfig {
            capacity_bytes: 4 * CACHE_LINE_SIZE,
            ways: 2,
        };
        CacheHierarchy::new(&CacheConfig {
            levels: vec![level; 5],
        });
    }
}
