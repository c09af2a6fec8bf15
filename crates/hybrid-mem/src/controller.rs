//! Memory controller: device-side access accounting.
//!
//! Every memory-side event (cache miss fill or dirty write-back) lands here.
//! The controller keeps the counters the paper's evaluation needs:
//!
//! * reads and writes per memory technology (DRAM vs PCM),
//! * writes per technology broken down by the phase that produced them
//!   (Figure 10),
//! * per-page write counts (consumed by the OS Write Partitioning baseline
//!   and by the wear statistics),
//! * writes per cache line (wear-distribution statistics, optional),
//! * migration writes performed by the OS (Figure 7).
//!
//! # Counter shards
//!
//! The hot counters are *sharded*: every counter lives in one
//! `CounterShard`-shaped block per registered shard, and each device event
//! is recorded into the currently active shard ([`ShardId::BASE`] unless a
//! mutator context is executing). Shards exist so that multi-mutator
//! workloads can account their traffic without contending on one global
//! block; they never lose events because every aggregate accessor folds
//! across all shards on read, and [`MemoryController::merge_shard`] compacts
//! a shard into the base block at mutator drain points. The per-shard
//! accessors double as per-mutator traffic attribution.
//!
//! The per-page and per-line write counts are [`DenseTable`]s indexed by
//! page / cache-line number. A mutator shard's tables are dense *deltas*:
//! merging adds them into the base tables index by index and empties them,
//! so a shard only ever spans what it wrote since its last merge. The folded
//! views ([`MemoryController::page_writes`], [`MemoryController::line_writes`])
//! sum the tables entry by entry and yield ascending ids.

use crate::address::{PageId, CACHE_LINES_PER_PAGE, CACHE_LINE_SIZE, PAGE_SIZE};
use crate::dense::DenseTable;
use crate::stats::PhaseWrites;
use crate::system::{MemoryKind, Phase};

/// Identifier of one counter shard. Shard 0 ([`ShardId::BASE`]) always
/// exists and receives collector/runtime traffic; further shards are
/// registered per mutator context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub(crate) usize);

impl ShardId {
    /// The always-present base shard (collector, runtime and any traffic not
    /// attributed to a mutator context).
    pub const BASE: ShardId = ShardId(0);

    /// Raw shard index (diagnostic only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One block of device counters. Every counter of the controller exists once
/// per shard; aggregates fold across shards.
#[derive(Clone, Debug, Default)]
struct CounterShard {
    reads: [u64; 2],
    writes: [u64; 2],
    phase_writes: [PhaseWrites; 2],
    phase_reads: [PhaseWrites; 2],
    page_writes: DenseTable<u64, PAGE_SIZE>,
    line_writes: DenseTable<u64, CACHE_LINE_SIZE>,
    migration_writes: [u64; 2],
}

impl CounterShard {
    /// Moves every count of `other` into `self`, leaving `other` at zero.
    fn absorb(&mut self, other: &mut CounterShard) {
        for kind in 0..2 {
            self.reads[kind] += std::mem::take(&mut other.reads[kind]);
            self.writes[kind] += std::mem::take(&mut other.writes[kind]);
            self.migration_writes[kind] += std::mem::take(&mut other.migration_writes[kind]);
            for (phase, n) in std::mem::take(&mut other.phase_writes[kind]).iter() {
                self.phase_writes[kind].add(phase, n);
            }
            for (phase, n) in std::mem::take(&mut other.phase_reads[kind]).iter() {
                self.phase_reads[kind].add(phase, n);
            }
        }
        self.page_writes.absorb(&mut other.page_writes);
        self.line_writes.absorb(&mut other.line_writes);
    }
}

/// Device-side access counters (sharded; see the module docs).
#[derive(Debug)]
pub struct MemoryController {
    shards: Vec<CounterShard>,
    active: usize,
    track_lines: bool,
}

impl Default for MemoryController {
    fn default() -> Self {
        Self::new(false)
    }
}

impl MemoryController {
    /// Creates a controller. `track_lines` enables per-cache-line write
    /// tracking (needed only for wear-distribution statistics; per-page
    /// tracking is always on because the WP baseline requires it).
    pub fn new(track_lines: bool) -> Self {
        MemoryController {
            shards: vec![CounterShard::default()],
            active: 0,
            track_lines,
        }
    }

    /// Registers a new counter shard (one per mutator context) and returns
    /// its id.
    pub fn register_shard(&mut self) -> ShardId {
        self.shards.push(CounterShard::default());
        ShardId(self.shards.len() - 1)
    }

    /// Selects the shard subsequent events are recorded into.
    ///
    /// # Panics
    ///
    /// Panics if the shard was never registered.
    pub fn set_active_shard(&mut self, shard: ShardId) {
        assert!(shard.0 < self.shards.len(), "unregistered shard {shard:?}");
        self.active = shard.0;
    }

    /// The shard currently receiving events.
    pub fn active_shard(&self) -> ShardId {
        ShardId(self.active)
    }

    /// Folds `shard`'s counters into the base shard and clears it. Aggregate
    /// accessors are exact whether or not shards have been merged (they fold
    /// on read); merging bounds per-shard table growth and is called from
    /// the mutator drain path.
    pub fn merge_shard(&mut self, shard: ShardId) {
        if shard.0 == 0 || shard.0 >= self.shards.len() {
            return;
        }
        let (base, mutators) = self.shards.split_at_mut(1);
        base[0].absorb(&mut mutators[shard.0 - 1]);
    }

    /// Records a device read of one cache line.
    #[inline]
    pub fn record_read(&mut self, kind: MemoryKind, phase: Phase) {
        let shard = &mut self.shards[self.active];
        shard.reads[kind as usize] += 1;
        shard.phase_reads[kind as usize].add(phase, 1);
    }

    /// Records a device write of cache line `line`: the per-kind/phase
    /// tallies and the per-page write count. The per-line wear update is
    /// [`Self::record_line_wear`], a separate call so the profiler can
    /// attribute wear tracking as its own stage.
    #[inline]
    pub fn record_write_counters(&mut self, kind: MemoryKind, phase: Phase, line: u64) {
        let shard = &mut self.shards[self.active];
        shard.writes[kind as usize] += 1;
        shard.phase_writes[kind as usize].add(phase, 1);
        *shard.page_writes.entry(line / CACHE_LINES_PER_PAGE) += 1;
    }

    /// Bumps `line`'s write count (the wear half of a device write).
    /// Callers must gate on [`Self::tracks_lines`].
    #[inline]
    pub fn record_line_wear(&mut self, line: u64) {
        *self.shards[self.active].line_writes.entry(line) += 1;
    }

    /// `true` when per-cache-line write tracking is enabled.
    pub fn tracks_lines(&self) -> bool {
        self.track_lines
    }

    /// Records the device traffic of the OS migrating one page from `from`
    /// to `to`: a full page of reads from the source and a full page of
    /// writes to the destination. The writes are counted separately so that
    /// Figure 7 can distinguish write-backs from migrations.
    pub fn record_page_migration(&mut self, from: MemoryKind, to: MemoryKind) {
        let lines = CACHE_LINES_PER_PAGE;
        let shard = &mut self.shards[self.active];
        shard.reads[from as usize] += lines;
        shard.writes[to as usize] += lines;
        shard.migration_writes[to as usize] += lines;
        shard.phase_writes[to as usize].add(Phase::Runtime, lines);
    }

    /// Total device reads to `kind` (in cache lines), folded across shards.
    pub fn reads(&self, kind: MemoryKind) -> u64 {
        self.shards.iter().map(|s| s.reads[kind as usize]).sum()
    }

    /// Total device writes to `kind` (in cache lines), including migrations,
    /// folded across shards.
    pub fn writes(&self, kind: MemoryKind) -> u64 {
        self.shards.iter().map(|s| s.writes[kind as usize]).sum()
    }

    /// Device writes to `kind` caused by OS page migration.
    pub fn migration_writes(&self, kind: MemoryKind) -> u64 {
        self.shards
            .iter()
            .map(|s| s.migration_writes[kind as usize])
            .sum()
    }

    /// Device writes to `kind` excluding migration traffic ("write-backs" in
    /// Figure 7).
    pub fn writeback_writes(&self, kind: MemoryKind) -> u64 {
        self.writes(kind) - self.migration_writes(kind)
    }

    /// Per-phase write breakdown for `kind`, folded across shards.
    pub fn phase_writes(&self, kind: MemoryKind) -> PhaseWrites {
        let mut total = PhaseWrites::default();
        for shard in &self.shards {
            for (phase, n) in shard.phase_writes[kind as usize].iter() {
                total.add(phase, n);
            }
        }
        total
    }

    /// Per-phase read breakdown for `kind`, folded across shards.
    pub fn phase_reads(&self, kind: MemoryKind) -> PhaseWrites {
        let mut total = PhaseWrites::default();
        for shard in &self.shards {
            for (phase, n) in shard.phase_reads[kind as usize].iter() {
                total.add(phase, n);
            }
        }
        total
    }

    /// Device reads to `kind` recorded into `shard` and not yet merged (the
    /// per-mutator attribution view).
    pub fn shard_reads(&self, shard: ShardId, kind: MemoryKind) -> u64 {
        self.shards.get(shard.0).map_or(0, |s| s.reads[kind as usize])
    }

    /// Device writes to `kind` recorded into `shard` and not yet merged.
    pub fn shard_writes(&self, shard: ShardId, kind: MemoryKind) -> u64 {
        self.shards.get(shard.0).map_or(0, |s| s.writes[kind as usize])
    }

    /// Write count of a specific page (0 if never written), folded across
    /// shards.
    pub fn page_write_count(&self, page: PageId) -> u64 {
        self.shards.iter().filter_map(|s| s.page_writes.get(page.0)).sum()
    }

    /// Iterates over `(page, writes)` pairs for all written pages, folded
    /// across shards, in ascending page order.
    pub fn page_writes(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        DenseTable::folded(self.shards.iter().map(|s| &s.page_writes)).map(|(p, w)| (PageId(p), w))
    }

    /// Iterates over `(cache line, writes)` pairs if line tracking is on,
    /// folded across shards, in ascending line order.
    pub fn line_writes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        DenseTable::folded(self.shards.iter().map(|s| &s.line_writes))
    }

    /// Resets the per-page write counters across every shard (the WP
    /// baseline consumes and clears them each OS quantum), returning the
    /// folded counts in ascending page order.
    pub fn take_page_writes(&mut self) -> Vec<(PageId, u64)> {
        let taken = self.page_writes().collect();
        for shard in &mut self.shards {
            shard.page_writes.clear();
        }
        taken
    }

    /// Total bytes written to `kind` (cache-line granularity).
    pub fn bytes_written(&self, kind: MemoryKind) -> u64 {
        self.writes(kind) * CACHE_LINE_SIZE as u64
    }

    /// Total bytes read from `kind` (cache-line granularity).
    pub fn bytes_read(&self, kind: MemoryKind) -> u64 {
        self.reads(kind) * CACHE_LINE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryController {
        /// Both halves of a device write of cache line `line`, as the
        /// touch path composes them.
        fn record_write(&mut self, kind: MemoryKind, phase: Phase, line: u64) {
            self.record_write_counters(kind, phase, line);
            if self.tracks_lines() {
                self.record_line_wear(line);
            }
        }
    }

    #[test]
    fn read_write_counters_are_per_kind() {
        let mut mc = MemoryController::new(false);
        mc.record_read(MemoryKind::Dram, Phase::Mutator);
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 100);
        mc.record_write(MemoryKind::Pcm, Phase::MajorGc, 101);
        assert_eq!(mc.reads(MemoryKind::Dram), 1);
        assert_eq!(mc.reads(MemoryKind::Pcm), 0);
        assert_eq!(mc.writes(MemoryKind::Pcm), 2);
        assert_eq!(mc.writes(MemoryKind::Dram), 0);
        assert_eq!(mc.phase_writes(MemoryKind::Pcm).get(Phase::MajorGc), 1);
        assert_eq!(mc.bytes_written(MemoryKind::Pcm), 2 * CACHE_LINE_SIZE as u64);
    }

    #[test]
    fn page_write_counts_aggregate_lines() {
        let mut mc = MemoryController::new(false);
        let lines_per_page = CACHE_LINES_PER_PAGE;
        for line in 0..lines_per_page {
            mc.record_write(MemoryKind::Pcm, Phase::Mutator, line);
        }
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, lines_per_page); // next page
        assert_eq!(mc.page_write_count(PageId(0)), lines_per_page);
        assert_eq!(mc.page_write_count(PageId(1)), 1);
        assert_eq!(mc.page_write_count(PageId(2)), 0);
    }

    #[test]
    fn migrations_are_separated_from_writebacks() {
        let mut mc = MemoryController::new(false);
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 7);
        mc.record_page_migration(MemoryKind::Dram, MemoryKind::Pcm);
        let lines = CACHE_LINES_PER_PAGE;
        assert_eq!(mc.writes(MemoryKind::Pcm), 1 + lines);
        assert_eq!(mc.migration_writes(MemoryKind::Pcm), lines);
        assert_eq!(mc.writeback_writes(MemoryKind::Pcm), 1);
        assert_eq!(mc.reads(MemoryKind::Dram), lines);
    }

    #[test]
    fn line_tracking_is_optional() {
        let mut off = MemoryController::new(false);
        off.record_write(MemoryKind::Pcm, Phase::Mutator, 9);
        assert_eq!(off.line_writes().count(), 0);
        let mut on = MemoryController::new(true);
        on.record_write(MemoryKind::Pcm, Phase::Mutator, 9);
        on.record_write(MemoryKind::Pcm, Phase::Mutator, 9);
        assert_eq!(on.line_writes().collect::<Vec<_>>(), vec![(9, 2)]);
    }

    #[test]
    fn take_page_writes_clears() {
        let mut mc = MemoryController::new(false);
        mc.record_write(MemoryKind::Dram, Phase::Mutator, 3);
        let taken = mc.take_page_writes();
        assert_eq!(taken.len(), 1);
        assert_eq!(mc.page_write_count(PageId(0)), 0);
    }

    #[test]
    fn sharded_events_fold_into_every_aggregate_accessor() {
        let mut mc = MemoryController::new(true);
        let shard = mc.register_shard();
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 1);
        mc.set_active_shard(shard);
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 1);
        mc.record_write(MemoryKind::Pcm, Phase::Runtime, 2);
        mc.record_read(MemoryKind::Dram, Phase::Mutator);
        mc.set_active_shard(ShardId::BASE);
        // Aggregates fold across shards without a merge.
        assert_eq!(mc.writes(MemoryKind::Pcm), 3);
        assert_eq!(mc.reads(MemoryKind::Dram), 1);
        assert_eq!(mc.phase_writes(MemoryKind::Pcm).get(Phase::Mutator), 2);
        assert_eq!(mc.page_write_count(PageId(0)), 3);
        assert_eq!(mc.line_writes().count(), 2);
        // Per-shard attribution before the merge.
        assert_eq!(mc.shard_writes(shard, MemoryKind::Pcm), 2);
        assert_eq!(mc.shard_writes(ShardId::BASE, MemoryKind::Pcm), 1);
        // Merging moves the shard's counts into the base without changing
        // any aggregate.
        mc.merge_shard(shard);
        assert_eq!(mc.shard_writes(shard, MemoryKind::Pcm), 0);
        assert_eq!(mc.shard_writes(ShardId::BASE, MemoryKind::Pcm), 3);
        assert_eq!(mc.writes(MemoryKind::Pcm), 3);
        assert_eq!(mc.page_write_count(PageId(0)), 3);
        assert_eq!(mc.line_writes().collect::<Vec<_>>(), vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn take_page_writes_drains_unmerged_shards() {
        let mut mc = MemoryController::new(false);
        let shard = mc.register_shard();
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 0);
        mc.set_active_shard(shard);
        mc.record_write(MemoryKind::Pcm, Phase::Mutator, 0);
        let taken = mc.take_page_writes();
        assert_eq!(
            taken,
            vec![(PageId(0), 2)],
            "sharded page counts must not be lost"
        );
        assert_eq!(mc.page_write_count(PageId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "unregistered shard")]
    fn activating_an_unregistered_shard_panics() {
        let mut mc = MemoryController::new(false);
        mc.set_active_shard(ShardId(3));
    }
}
