//! The Write Partitioning migration policy.

use std::collections::HashSet;

use hybrid_mem::{MemoryKind, MemorySystem, PageId, PAGE_SIZE};

use crate::multi_queue::{MultiQueue, MultiQueueConfig};

/// Configuration of OS Write Partitioning (the paper's recommended values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WritePartitioningConfig {
    /// Multi-Queue configuration (8 queues).
    pub multi_queue: MultiQueueConfig,
    /// OS mapping quantum in milliseconds (10 ms): how often page write
    /// counts are folded into the ranking and hot pages are migrated.
    pub quantum_ms: u64,
    /// Pages in the `migrate_queues` highest-ranked queues migrate to DRAM
    /// (4 of the 8 queues).
    pub migrate_queues: u8,
    /// Demotion interval in milliseconds (50 ms): all DRAM pages drop one
    /// queue; pages falling out of the migration set return to PCM.
    pub demote_interval_ms: u64,
    /// Maximum number of pages the DRAM partition may hold.
    pub dram_capacity_pages: usize,
}

impl Default for WritePartitioningConfig {
    fn default() -> Self {
        WritePartitioningConfig {
            multi_queue: MultiQueueConfig::default(),
            quantum_ms: 10,
            migrate_queues: 4,
            demote_interval_ms: 50,
            dram_capacity_pages: (64 << 20) / PAGE_SIZE,
        }
    }
}

/// Statistics of the Write Partitioning policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WritePartitioningStats {
    /// Pages migrated from PCM to DRAM.
    pub promotions: u64,
    /// Pages migrated from DRAM back to PCM.
    pub demotions: u64,
    /// OS quanta processed.
    pub quanta: u64,
    /// Peak number of pages resident in the DRAM partition.
    pub peak_dram_pages: usize,
}

/// The OS Write Partitioning policy driver.
///
/// Call [`WritePartitioning::advance`] with a monotonically increasing
/// simulated time; the driver consumes the memory controller's per-page
/// write counters at every OS quantum and performs migrations through
/// [`MemorySystem::migrate_page`], which also accounts the migration write
/// traffic (Figure 7's "Migrations" component).
#[derive(Debug)]
pub struct WritePartitioning {
    config: WritePartitioningConfig,
    ranking: MultiQueue,
    dram_pages: HashSet<u64>,
    last_quantum_ms: u64,
    last_demotion_ms: u64,
    stats: WritePartitioningStats,
}

impl WritePartitioning {
    /// Creates a policy driver with `config`.
    pub fn new(config: WritePartitioningConfig) -> Self {
        WritePartitioning {
            ranking: MultiQueue::new(config.multi_queue),
            config,
            dram_pages: HashSet::new(),
            last_quantum_ms: 0,
            last_demotion_ms: 0,
            stats: WritePartitioningStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WritePartitioningConfig {
        &self.config
    }

    /// Policy statistics so far.
    pub fn stats(&self) -> WritePartitioningStats {
        self.stats
    }

    /// The rank threshold above which pages live in DRAM.
    fn migration_threshold(&self) -> u8 {
        self.config.multi_queue.queues - self.config.migrate_queues
    }

    /// Advances simulated time to `now_ms`, running any OS quanta and
    /// demotion passes that have elapsed.
    pub fn advance(&mut self, mem: &mut MemorySystem, now_ms: u64) {
        while now_ms.saturating_sub(self.last_quantum_ms) >= self.config.quantum_ms {
            self.last_quantum_ms += self.config.quantum_ms;
            self.run_quantum(mem);
            if self.last_quantum_ms.saturating_sub(self.last_demotion_ms) >= self.config.demote_interval_ms {
                self.last_demotion_ms = self.last_quantum_ms;
                self.run_demotion(mem);
            }
        }
    }

    /// One OS quantum: fold new write counts into the ranking and migrate
    /// hot PCM pages to DRAM.
    fn run_quantum(&mut self, mem: &mut MemorySystem) {
        self.stats.quanta += 1;
        for (page, writes) in mem.controller_mut().take_page_writes() {
            self.ranking.record_writes(page, writes);
        }
        let threshold = self.migration_threshold();
        for page in self.ranking.pages_at_or_above(threshold) {
            if self.dram_pages.len() >= self.config.dram_capacity_pages {
                break;
            }
            if self.dram_pages.contains(&page.0) {
                continue;
            }
            if mem.page_map().kind_of_page(page) != Some(MemoryKind::Pcm) {
                continue;
            }
            mem.migrate_page(page, MemoryKind::Dram);
            self.dram_pages.insert(page.0);
            self.stats.promotions += 1;
        }
        self.stats.peak_dram_pages = self.stats.peak_dram_pages.max(self.dram_pages.len());
    }

    /// One demotion pass: every DRAM page drops one queue; pages that fall
    /// below the migration threshold move back to PCM.
    fn run_demotion(&mut self, mem: &mut MemorySystem) {
        let threshold = self.migration_threshold();
        let mut resident: Vec<u64> = self.dram_pages.iter().copied().collect();
        resident.sort_unstable();
        for raw in resident {
            let page = PageId(raw);
            let level = self.ranking.demote(page);
            if level < threshold {
                // The page no longer earns its DRAM slot: migrate it back.
                if mem.page_map().kind_of_page(page) == Some(MemoryKind::Dram) {
                    mem.migrate_page(page, MemoryKind::Pcm);
                }
                self.dram_pages.remove(&raw);
                self.stats.demotions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::{Address, MemoryConfig, Phase};

    fn memory_with_pcm_pages(pages: usize) -> (MemorySystem, Address) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("wp-test", pages * PAGE_SIZE);
        mem.map_pages(base, pages, MemoryKind::Pcm, 0);
        (mem, base)
    }

    fn hammer(mem: &mut MemorySystem, addr: Address, writes: usize) {
        for i in 0..writes {
            mem.write_u64(addr.add((i % 32) * 64), i as u64, Phase::Mutator);
        }
    }

    #[test]
    fn hot_pcm_pages_are_promoted_to_dram() {
        let (mut mem, base) = memory_with_pcm_pages(8);
        let mut wp = WritePartitioning::new(WritePartitioningConfig::default());
        hammer(&mut mem, base, 100); // page 0 becomes hot
        mem.write_u64(base.add(PAGE_SIZE), 1, Phase::Mutator); // page 1 cold
        wp.advance(&mut mem, 10);
        assert_eq!(
            mem.kind_of(base),
            MemoryKind::Dram,
            "hot page must migrate to DRAM"
        );
        assert_eq!(
            mem.kind_of(base.add(PAGE_SIZE)),
            MemoryKind::Pcm,
            "cold page stays in PCM"
        );
        assert_eq!(wp.stats().promotions, 1);
        assert_eq!(wp.dram_pages.len(), 1);
    }

    #[test]
    fn idle_dram_pages_are_demoted_back_to_pcm() {
        let (mut mem, base) = memory_with_pcm_pages(4);
        let mut wp = WritePartitioning::new(WritePartitioningConfig::default());
        hammer(&mut mem, base, 40);
        wp.advance(&mut mem, 10);
        assert_eq!(mem.kind_of(base), MemoryKind::Dram);
        // No further writes: repeated demotion passes push it back to PCM.
        wp.advance(&mut mem, 500);
        assert_eq!(mem.kind_of(base), MemoryKind::Pcm, "idle page must return to PCM");
        assert!(wp.stats().demotions >= 1);
        assert!(wp.dram_pages.is_empty());
    }

    #[test]
    fn migrations_are_accounted_as_pcm_and_dram_traffic() {
        let (mut mem, base) = memory_with_pcm_pages(2);
        let mut wp = WritePartitioning::new(WritePartitioningConfig::default());
        hammer(&mut mem, base, 64);
        wp.advance(&mut mem, 10);
        wp.advance(&mut mem, 600); // demote back to PCM
        let stats = mem.stats();
        assert!(
            stats.migration_writes(MemoryKind::Dram) > 0,
            "promotion writes the page into DRAM"
        );
        assert!(
            stats.migration_writes(MemoryKind::Pcm) > 0,
            "demotion writes the page back into PCM"
        );
    }

    #[test]
    fn dram_capacity_is_respected() {
        let (mut mem, base) = memory_with_pcm_pages(8);
        let config = WritePartitioningConfig {
            dram_capacity_pages: 2,
            ..Default::default()
        };
        let mut wp = WritePartitioning::new(config);
        for p in 0..8 {
            hammer(&mut mem, base.add(p * PAGE_SIZE), 64);
        }
        wp.advance(&mut mem, 10);
        assert!(wp.dram_pages.len() <= 2);
        assert!(wp.stats().peak_dram_pages <= 2);
    }

    #[test]
    fn quanta_fire_per_interval() {
        let (mut mem, _) = memory_with_pcm_pages(1);
        let mut wp = WritePartitioning::new(WritePartitioningConfig::default());
        wp.advance(&mut mem, 9);
        assert_eq!(wp.stats().quanta, 0);
        wp.advance(&mut mem, 35);
        assert_eq!(wp.stats().quanta, 3);
        wp.advance(&mut mem, 35);
        assert_eq!(wp.stats().quanta, 3, "time must advance for more quanta");
    }
}
