//! Aggregated memory-system statistics.

use crate::system::{MemoryKind, Phase};

/// A per-phase counter (used for both reads and writes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseWrites {
    counts: [u64; Phase::COUNT],
}

impl PhaseWrites {
    /// Adds `n` events for `phase`.
    pub fn add(&mut self, phase: Phase, n: u64) {
        self.counts[phase as usize] += n;
    }

    /// Returns the count for `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterates over `(phase, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.counts[p as usize]))
    }
}

/// Snapshot of the memory system at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct MemoryStats {
    /// Device reads per kind (cache lines), indexed by `MemoryKind as usize`.
    pub reads: [u64; 2],
    /// Device writes per kind (cache lines).
    pub writes: [u64; 2],
    /// Device writes per kind caused by OS page migration.
    pub migration_writes: [u64; 2],
    /// Per-phase device writes per kind.
    pub phase_writes: [PhaseWrites; 2],
    /// Per-phase device reads per kind.
    pub phase_reads: [PhaseWrites; 2],
    /// Bytes currently mapped per kind.
    pub mapped_bytes: [u64; 2],
    /// Probes that missed in the last cache level
    /// ([`crate::CacheHierarchy::llc_misses`]): the accesses that reached
    /// memory plus the spill probes of dirty victims evicted into the last
    /// level that found no copy there — so at least the sum of the shards'
    /// [`ShardStats::cache_misses`], which is the per-access count.
    pub llc_misses: u64,
    /// Probes that hit, summed over the cache levels
    /// ([`crate::CacheHierarchy::hits`]): the accesses that hit in some
    /// level plus the spill probes that found a copy of the evicted line
    /// below. For a per-access hit rate use [`ShardStats::cache_hits`] and
    /// [`ShardStats::cache_misses`].
    pub cache_hits: u64,
    /// PCM lines permanently failed by the fault model (0 without fault
    /// injection).
    pub failed_pcm_lines: u64,
    /// PCM pages retired as uncorrectable and remapped to spare capacity.
    pub retired_pcm_pages: u64,
    /// Transient (ECC-corrected) PCM faults absorbed.
    pub transient_pcm_faults: u64,
    /// PCM capacity lost to retired pages, in bytes.
    pub degraded_pcm_bytes: u64,
}

impl MemoryStats {
    /// Device reads to `kind` in cache lines.
    pub fn reads(&self, kind: MemoryKind) -> u64 {
        self.reads[kind as usize]
    }

    /// Device writes to `kind` in cache lines.
    pub fn writes(&self, kind: MemoryKind) -> u64 {
        self.writes[kind as usize]
    }

    /// Device writes to `kind` caused by page migration.
    pub fn migration_writes(&self, kind: MemoryKind) -> u64 {
        self.migration_writes[kind as usize]
    }

    /// Device writes to `kind` excluding migration traffic.
    pub fn writeback_writes(&self, kind: MemoryKind) -> u64 {
        self.writes(kind) - self.migration_writes(kind)
    }

    /// Bytes written to `kind`.
    pub fn bytes_written(&self, kind: MemoryKind) -> u64 {
        self.writes(kind) * crate::address::CACHE_LINE_SIZE as u64
    }

    /// Bytes read from `kind`.
    pub fn bytes_read(&self, kind: MemoryKind) -> u64 {
        self.reads(kind) * crate::address::CACHE_LINE_SIZE as u64
    }

    /// Per-phase write breakdown for `kind`.
    pub fn phase_writes(&self, kind: MemoryKind) -> PhaseWrites {
        self.phase_writes[kind as usize]
    }

    /// Bytes currently mapped onto `kind`.
    pub fn mapped_bytes(&self, kind: MemoryKind) -> u64 {
        self.mapped_bytes[kind as usize]
    }

    /// Total writes across both kinds.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total reads across both kinds.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }
}

/// Per-shard traffic attribution: what one mutator context's accesses did
/// to the devices and caches since the shard's last merge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Device reads per kind (cache lines), indexed by `MemoryKind as usize`.
    pub reads: [u64; 2],
    /// Device writes per kind (cache lines).
    pub writes: [u64; 2],
    /// Accesses that hit in some cache level (0 with caching disabled).
    pub cache_hits: u64,
    /// Accesses that missed every cache level (0 with caching disabled).
    pub cache_misses: u64,
}

impl ShardStats {
    /// Device reads to `kind` in cache lines.
    pub fn reads(&self, kind: MemoryKind) -> u64 {
        self.reads[kind as usize]
    }

    /// Device writes to `kind` in cache lines.
    pub fn writes(&self, kind: MemoryKind) -> u64 {
        self.writes[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_writes_accumulate_and_total() {
        let mut pw = PhaseWrites::default();
        pw.add(Phase::Mutator, 5);
        pw.add(Phase::MajorGc, 2);
        pw.add(Phase::Mutator, 1);
        assert_eq!(pw.get(Phase::Mutator), 6);
        assert_eq!(pw.get(Phase::MajorGc), 2);
        assert_eq!(pw.get(Phase::ObserverGc), 0);
        assert_eq!(pw.total(), 8);
        assert_eq!(pw.iter().count(), Phase::COUNT);
    }

    #[test]
    fn stats_accessors() {
        let mut stats = MemoryStats::default();
        stats.writes[MemoryKind::Pcm as usize] = 10;
        stats.migration_writes[MemoryKind::Pcm as usize] = 4;
        stats.reads[MemoryKind::Dram as usize] = 3;
        assert_eq!(stats.writes(MemoryKind::Pcm), 10);
        assert_eq!(stats.writeback_writes(MemoryKind::Pcm), 6);
        assert_eq!(stats.total_writes(), 10);
        assert_eq!(stats.total_reads(), 3);
        assert_eq!(stats.bytes_written(MemoryKind::Pcm), 640);
    }
}
