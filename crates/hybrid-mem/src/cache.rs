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
//! `dirty | phase << 1`. These are **physical ways**: a line stays in the
//! way it was installed at for as long as it is resident, and no hit,
//! install or removal moves a tag.
//!
//! **An empty way** holds the tag `INVALID` (`u64::MAX`) and metadata 0,
//! so there is no `valid` flag and a set dirty bit implies a real line.
//! Line indices stay below [`ADDRESS_SPACE`]` / 64` (a line beyond it cannot
//! be installed, see [`CacheHierarchy::access`]); no access can match the
//! sentinel.
//!
//! **Recency is a word per set**, not a position: sixteen 4-bit ranks in one
//! `u64`, rank 0 (the low nibble) naming the most recently used physical way
//! and rank `ways - 1` the least — hence at most [`MAX_WAYS`] ways. A hit
//! moves the way's nibble to rank 0, an install overwrites the way at the
//! last rank and moves it to rank 0, and removing a line (it moves up a
//! level) writes `INVALID` and moves the way to the last rank, so a set's
//! empty ways always occupy its last ranks and an install takes an empty way
//! whenever there is one. Each is a few shifts and masks. Rank order is
//! the order per-way timestamps would sort in — every operation that would
//! stamp a way with the newest tick moves it to rank 0 and leaves the others
//! in their relative order — so the replacement decisions are those of
//! timestamped LRU with no `tick` to bump and no minimum to search for.
//!
//! **A probe reads a way hint and verifies it; it never scans a set.** The
//! hierarchy keeps one `u32` per line ever installed, in a [`DenseTable`]
//! keyed by line: byte *k* is the physical way (plus one) the line was last
//! installed at in level *k*. A line resident in a level sits where it was
//! installed, so its hint names its way; a line that has left, or was never
//! there, has a hint that names a way now holding some other tag (or no way
//! at all). The probe therefore compares the hinted way's tag with the line
//! and that compare alone decides hit or miss: correctness rests on the
//! tags. Nothing ever clears a hint — evictions, removals and
//! [`CacheHierarchy::flush_all`] leave the table alone; only an install
//! writes it.
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
//! A flush emits each level's write-backs in physical-way order, which
//! carries no meaning.
//!
//! [`ADDRESS_SPACE`]: crate::dense::ADDRESS_SPACE

use crate::address::CACHE_LINE_SIZE;
use crate::dense::DenseTable;
use crate::system::Phase;

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set), from 1 to [`MAX_WAYS`].
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
/// fit a `[MemEvent; MAX_LEVELS + 1]` and a line's way hints one `u32` (see
/// the module docs).
pub const MAX_LEVELS: usize = 4;

/// The most ways a level may have (the paper's LLC has this many): a set's
/// recency order is sixteen 4-bit ranks in one `u64` (see the module docs).
pub const MAX_WAYS: usize = 16;

/// Tag of an empty way; no line index reaches it (they stay below
/// `ADDRESS_SPACE / 64`).
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

/// The recency word of a set nothing has touched: way `i` at rank `i`. All
/// sixteen nibbles stay a permutation of the ways, those beyond the level's
/// associativity never moving, so [`rank_of`] always finds its way.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;
/// The low bit of every nibble.
const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// The physical way at `rank` of a recency word.
#[inline]
fn way_at(order: u64, rank: usize) -> usize {
    (order >> (4 * rank)) as usize & 15
}

/// The rank `way` holds in a recency word: the position of the one nibble
/// equal to it, found by zeroing that nibble and locating the lowest zero.
#[inline]
fn rank_of(order: u64, way: usize) -> usize {
    let x = order ^ (way as u64 * NIBBLES);
    // A zero nibble borrows into its top bit; nibbles below the lowest zero
    // are at least 1 and borrow nothing, so the lowest mark is exact.
    let zeros = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
    zeros.trailing_zeros() as usize / 4
}

/// Moves the way at `rank` to rank 0 (most recently used); the ranks below
/// it move up by one.
#[inline]
fn promote(order: u64, rank: usize) -> u64 {
    // Two shifts, because `4 * rank + 4` is 64 at rank 15.
    let above = u64::MAX << (4 * rank) << 4;
    let below = !(u64::MAX << (4 * rank));
    order & above | (order & below) << 4 | way_at(order, rank) as u64
}

/// Moves the way at `rank` to rank `last` (least recently used); the ranks
/// between them move down by one.
#[inline]
fn demote(order: u64, rank: usize, last: usize) -> u64 {
    let keep = !(u64::MAX << (4 * rank)) | u64::MAX << (4 * last) << 4;
    let between = u64::MAX << (4 * rank) << 4 & !(u64::MAX << (4 * last) << 4);
    order & keep | (order & between) >> 4 | (way_at(order, rank) as u64) << (4 * last)
}

/// How a level maps a line to its set, decided once at construction.
#[derive(Clone, Copy, Debug)]
enum SetIndex {
    /// `line & mask`: the set count is a power of two.
    Mask(u64),
    /// `line % sets`: any other set count.
    Modulo(u64),
}

/// One level: flat tag and metadata arrays of physical ways and one recency
/// word per set (see the module docs).
#[derive(Debug)]
struct CacheLevel {
    tags: Vec<u64>,
    meta: Vec<u8>,
    order: Vec<u64>,
    ways: usize,
    index: SetIndex,
    /// Where this level's byte sits in a line's way hints.
    hint_shift: u32,
    hits: u64,
    misses: u64,
}

impl CacheLevel {
    fn new(level_idx: usize, config: CacheLevelConfig) -> Self {
        let sets = config.sets();
        CacheLevel {
            tags: vec![INVALID; sets * config.ways],
            meta: vec![0; sets * config.ways],
            order: vec![IDENTITY_ORDER; sets],
            ways: config.ways,
            index: if sets.is_power_of_two() {
                SetIndex::Mask(sets as u64 - 1)
            } else {
                SetIndex::Modulo(sets as u64)
            },
            hint_shift: 8 * level_idx as u32,
            hits: 0,
            misses: 0,
        }
    }

    /// The set `line` maps to.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (match self.index {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::Modulo(sets) => line % sets,
        }) as usize
    }

    /// The way of `set` that holds `line`, by scanning: what the hinted
    /// probe is checked against in debug builds.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        self.tags[set * self.ways..][..self.ways]
            .iter()
            .position(|&tag| tag == line)
    }

    /// The way of `set` that holds `line`: the one its `hints` name for this
    /// level, if that way's tag agrees.
    #[inline]
    fn probe(&self, set: usize, line: u64, hints: u32) -> Option<usize> {
        let hint = (hints >> self.hint_shift) as usize & 0xFF;
        let way = (hint != 0 && self.tags[set * self.ways + hint - 1] == line).then(|| hint - 1);
        debug_assert_eq!(self.find(set, line), way, "way hint of line {line:#x}");
        way
    }

    /// Makes `way` the most recently used of `set`.
    #[inline]
    fn make_most_recent(&mut self, set: usize, way: usize) {
        let order = self.order[set];
        self.order[set] = promote(order, rank_of(order, way));
    }

    /// Installs `line` over the least recently used way of `set` (an empty
    /// one whenever there is one) and notes the way in `hints`; returns the
    /// line it replaced if that was dirty.
    #[inline]
    fn install(&mut self, set: usize, line: u64, meta: u8, hints: &mut u32) -> Option<Victim> {
        let last = self.ways - 1;
        let order = self.order[set];
        let way = way_at(order, last);
        let slot = set * self.ways + way;
        let victim = (self.tags[slot], self.meta[slot]);
        self.tags[slot] = line;
        self.meta[slot] = meta;
        self.order[set] = promote(order, last);
        *hints = *hints & !(0xFF << self.hint_shift) | (way as u32 + 1) << self.hint_shift;
        (victim.1 & DIRTY != 0).then_some(victim)
    }

    /// An access by the core: on a hit the line becomes most recently used
    /// and a write marks it dirty by `phase`.
    fn touch(&mut self, line: u64, hints: u32, write: bool, phase: Phase) -> bool {
        let set = self.set_of(line);
        let Some(way) = self.probe(set, line, hints) else {
            self.misses += 1;
            return false;
        };
        if write {
            self.meta[set * self.ways + way] = meta_of(true, phase);
        }
        self.make_most_recent(set, way);
        self.hits += 1;
        true
    }

    /// A probe on behalf of the levels above: a hit hands the line's
    /// metadata over and removes it from this level (it moves up), leaving
    /// its way empty and least recently used.
    fn take(&mut self, line: u64, hints: u32) -> Option<u8> {
        let set = self.set_of(line);
        let Some(way) = self.probe(set, line, hints) else {
            self.misses += 1;
            return None;
        };
        let slot = set * self.ways + way;
        let meta = std::mem::take(&mut self.meta[slot]);
        self.tags[slot] = INVALID;
        let order = self.order[set];
        self.order[set] = demote(order, rank_of(order, way), self.ways - 1);
        self.hits += 1;
        Some(meta)
    }

    /// Takes in a dirty line evicted from the level above: a copy already
    /// here is marked dirty (a hit), otherwise the line is installed (a
    /// miss) and may push out a dirty victim of its own.
    fn absorb(&mut self, (line, meta): Victim, hints: &mut u32) -> Option<Victim> {
        let set = self.set_of(line);
        match self.probe(set, line, *hints) {
            Some(way) => {
                self.hits += 1;
                self.meta[set * self.ways + way] = meta;
                self.make_most_recent(set, way);
                None
            }
            None => {
                self.misses += 1;
                self.install(set, line, meta, hints)
            }
        }
    }

    /// The lines of `set` most recently used first, `INVALID` for an empty
    /// way.
    #[cfg(test)]
    fn by_recency(&self, set: usize) -> Vec<u64> {
        (0..self.ways)
            .map(|rank| self.tags[set * self.ways + way_at(self.order[set], rank)])
            .collect()
    }

    fn holds_dirty(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.find(set, line)
            .is_some_and(|way| self.meta[set * self.ways + way] & DIRTY != 0)
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
    /// Per line, the physical way (plus one) it was last installed at in
    /// each level, level *k* in byte *k*; verified against the tag on every
    /// use and never cleared (see the module docs).
    hints: DenseTable<u32, CACHE_LINE_SIZE>,
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
    /// Panics if a level has 0 ways or more than [`MAX_WAYS`], or there are
    /// more than [`MAX_LEVELS`] levels.
    pub fn new(config: &CacheConfig) -> Self {
        assert!(
            config.levels.len() <= MAX_LEVELS,
            "a cache hierarchy has at most {MAX_LEVELS} levels, not {}",
            config.levels.len()
        );
        for (i, level) in config.levels.iter().enumerate() {
            let (name, bytes, ways) = (i + 1, level.capacity_bytes, level.ways);
            assert!(
                ways > 0,
                "cache level L{name} ({bytes} bytes) has {ways} ways; it needs at least one"
            );
            assert!(
                ways <= MAX_WAYS,
                "cache level L{name} ({bytes} bytes) has {ways} ways; at most {MAX_WAYS}"
            );
        }
        CacheHierarchy {
            levels: config
                .levels
                .iter()
                .enumerate()
                .map(|(i, &c)| CacheLevel::new(i, c))
                .collect(),
            hints: DenseTable::new(),
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
    ///
    /// # Panics
    ///
    /// With caching enabled, panics if `line` misses and lies at or beyond
    /// [`ADDRESS_SPACE`]` / 64`, the end of the simulated address space: its
    /// way hints cannot be recorded, so it cannot be installed.
    ///
    /// [`ADDRESS_SPACE`]: crate::dense::ADDRESS_SPACE
    #[inline]
    pub fn access(&mut self, line: u64, write: bool, phase: Phase, mut sink: impl FnMut(MemEvent)) {
        debug_assert!(line != INVALID, "line index {line:#x} is the empty-way sentinel");
        let Some(l1) = self.levels.first_mut() else {
            sink(MemEvent { line, write, phase });
            return;
        };
        // The most recently used way of the L1 set: one compare, no update.
        let set = l1.set_of(line);
        let front = set * l1.ways + way_at(l1.order[set], 0);
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

    /// Everything but the hit on L1's most recently used way, out of line.
    #[inline(never)]
    fn access_past_front(&mut self, line: u64, write: bool, phase: Phase, sink: &mut impl FnMut(MemEvent)) {
        let hints = self.hints.get(line).copied().unwrap_or(0);
        if self.levels[0].touch(line, hints, write, phase) {
            self.shard_hits[self.active_shard] += 1;
            return;
        }
        // Probe the lower levels closest-first.
        for level_idx in 1..self.levels.len() {
            if let Some(found) = self.levels[level_idx].take(line, hints) {
                self.shard_hits[self.active_shard] += 1;
                // Move the line up into the levels above (inclusive-style
                // fill), preserving its dirty state from where it was found.
                let meta = if write { meta_of(true, phase) } else { found };
                self.fill(level_idx, line, meta, hints, sink);
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
        self.fill(self.levels.len(), line, meta_of(write, phase), hints, sink);
    }

    /// Installs `line` into levels `[0, to)` — dirty in L1 only — pushing
    /// dirty victims downwards, and records the ways it went to over the
    /// `hints` it was probed with.
    fn fill(&mut self, to: usize, line: u64, meta: u8, mut hints: u32, sink: &mut impl FnMut(MemEvent)) {
        for level_idx in 0..to {
            let level = &mut self.levels[level_idx];
            let meta = if level_idx == 0 { meta } else { meta & !DIRTY };
            if let Some(victim) = level.install(level.set_of(line), line, meta, &mut hints) {
                self.spill(level_idx + 1, victim, sink);
            }
        }
        // A spill installs victims, never `line`: its entry is still the one
        // the probe read.
        *self.hints.entry(line) = hints;
    }

    /// Pushes a dirty victim into level `level_idx` and whatever that evicts
    /// further down; a victim falling out of the last level is written back.
    fn spill(&mut self, level_idx: usize, mut victim: Victim, sink: &mut impl FnMut(MemEvent)) {
        for level in &mut self.levels[level_idx..] {
            match level.absorb(victim, self.hints.entry(victim.0)) {
                Some(next) => victim = next,
                None => return,
            }
        }
        sink(write_back(victim));
    }

    /// Flushes every dirty line to memory and empties the hierarchy, passing
    /// the write-backs to `sink` level by level from L1 down. Called at the
    /// end of a run so that pending writes are accounted; the order within a
    /// level is that of the sets' physical ways and carries no meaning.
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
        assert_eq!(cache.levels[0].by_recency(0), [2, 0, 3, 1]);
        read_all(&mut cache, &[4]);
        assert_eq!(
            cache.levels[0].by_recency(0),
            [4, 2, 0, 3],
            "1 was least recently used"
        );
        assert_eq!(cache.levels[0].tags, [3, 2, 4, 0], "and 4 took its physical way");
        read_all(&mut cache, &[3]);
        assert_eq!(
            cache.levels[0].by_recency(0),
            [3, 4, 2, 0],
            "a hit moves to the front"
        );
        assert_eq!(cache.levels[0].tags, [3, 2, 4, 0], "without moving a tag");
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
        assert_eq!(cache.levels[1].by_recency(0), [2, 1, 0, INVALID]);
        // 1 hits in L2 and moves up to L1; the clean 2 it replaces is dropped.
        let events = read_all(&mut cache, &[1]);
        assert!(events.is_empty());
        assert_eq!(cache.levels[0].by_recency(0), [1]);
        assert_eq!(cache.levels[1].by_recency(0), [2, 0, INVALID, INVALID]);
        // The next install takes the empty way, not a victim.
        read_all(&mut cache, &[3]);
        assert_eq!(cache.levels[1].by_recency(0), [3, 2, 0, INVALID]);
    }

    #[test]
    fn recency_words_match_a_move_to_front_list_at_every_rank() {
        for ways in 1..=MAX_WAYS {
            // A scrambled starting order, so that way and rank differ.
            let mut model: Vec<usize> = (0..ways).collect();
            model.sort_by_key(|&way| (way * 11 + 5) % 16);
            let mut order = IDENTITY_ORDER;
            for (rank, &way) in model.iter().enumerate() {
                order = order & !(15 << (4 * rank)) | (way as u64) << (4 * rank);
            }
            // Ranks beyond the associativity must come through untouched.
            let beyond = |order: u64| order.checked_shr(4 * ways as u32).unwrap_or(0);
            let check = |order: u64, model: &[usize], what: &str| {
                for (rank, &way) in model.iter().enumerate() {
                    assert_eq!(way_at(order, rank), way, "{what}, {ways} ways, rank {rank}");
                    assert_eq!(rank_of(order, way), rank, "{what}, {ways} ways, way {way}");
                }
                assert_eq!(beyond(order), beyond(IDENTITY_ORDER), "{what}, {ways} ways");
            };
            check(order, &model, "the starting order");
            for rank in 0..ways {
                let way = model.remove(rank);
                model.insert(0, way);
                order = promote(order, rank);
                check(order, &model, &format!("promote({rank})"));
                let way = model.remove(rank);
                model.push(way);
                order = demote(order, rank, ways - 1);
                check(order, &model, &format!("demote({rank})"));
            }
        }
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
    #[should_panic(expected = "cache level L3 (81920 bytes) has 20 ways; at most 16")]
    fn a_level_with_more_ways_than_a_recency_word_ranks_is_rejected_by_name() {
        let mut config = CacheConfig::paper_default();
        config.levels[2] = CacheLevelConfig {
            capacity_bytes: 64 * 20 * CACHE_LINE_SIZE,
            ways: 20,
        };
        CacheHierarchy::new(&config);
    }

    #[test]
    #[should_panic(expected = "beyond the simulated 0x10000000000-byte address space")]
    fn a_line_beyond_the_simulated_address_space_cannot_be_installed() {
        let mut cache = CacheHierarchy::new(&tiny_config());
        let end = crate::dense::ADDRESS_SPACE / CACHE_LINE_SIZE as u64;
        cache.access(end - 1, true, Phase::Mutator, |_| {});
        cache.access(end, false, Phase::Mutator, |_| {});
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
