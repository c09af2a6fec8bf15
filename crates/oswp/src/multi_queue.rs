//! Multi-Queue page ranking.
//!
//! A variation of the Multi-Queue algorithm of Zhou, Philbin and Li (USENIX
//! ATC 2001) used by OS Write Partitioning to rank pages by write intensity:
//! a page with `2^n` cumulative writes belongs to queue `n` (capped at the
//! highest queue). Demotion lowers a page one queue at a time, letting the
//! ranking forget stale phase behaviour.

use std::collections::HashMap;

use hybrid_mem::PageId;

/// Configuration of the Multi-Queue ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiQueueConfig {
    /// Number of queues (the paper's recommended value is 8).
    pub queues: u8,
}

impl Default for MultiQueueConfig {
    fn default() -> Self {
        MultiQueueConfig { queues: 8 }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PageRank {
    writes: u64,
    level: u8,
}

/// Ranks pages into queues by cumulative write count.
#[derive(Debug)]
pub struct MultiQueue {
    config: MultiQueueConfig,
    pages: HashMap<u64, PageRank>,
}

impl MultiQueue {
    /// Creates an empty ranking.
    pub fn new(config: MultiQueueConfig) -> Self {
        MultiQueue {
            config,
            pages: HashMap::new(),
        }
    }

    /// Records `writes` additional writes to `page` and returns its new
    /// queue level.
    pub fn record_writes(&mut self, page: PageId, writes: u64) -> u8 {
        let max_level = self.config.queues - 1;
        let entry = self.pages.entry(page.0).or_default();
        entry.writes += writes;
        // Queue n holds pages with at least 2^n writes.
        let mut level = 0u8;
        while level < max_level && entry.writes >= 1u64 << (level + 1) {
            level += 1;
        }
        entry.level = entry.level.max(level);
        entry.level
    }

    /// Current queue level of `page` (0 if never written).
    pub fn level(&self, page: PageId) -> u8 {
        self.pages.get(&page.0).map(|p| p.level).unwrap_or(0)
    }

    /// Cumulative write count of `page`.
    pub fn writes(&self, page: PageId) -> u64 {
        self.pages.get(&page.0).map(|p| p.writes).unwrap_or(0)
    }

    /// Demotes `page` by one queue level (used on the periodic demotion
    /// pass). The cumulative write count is halved so that a page must keep
    /// being written to regain its rank.
    pub fn demote(&mut self, page: PageId) -> u8 {
        if let Some(entry) = self.pages.get_mut(&page.0) {
            entry.level = entry.level.saturating_sub(1);
            entry.writes /= 2;
            entry.level
        } else {
            0
        }
    }

    /// Pages whose queue level is at least `min_level`, in ascending page
    /// order (deterministic regardless of hash-map iteration order).
    pub fn pages_at_or_above(&self, min_level: u8) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .pages
            .iter()
            .filter(|(_, rank)| rank.level >= min_level)
            .map(|(&page, _)| PageId(page))
            .collect();
        pages.sort_unstable();
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_grows_with_powers_of_two() {
        let mut mq = MultiQueue::new(MultiQueueConfig::default());
        let page = PageId(7);
        assert_eq!(mq.record_writes(page, 1), 0);
        assert_eq!(mq.record_writes(page, 1), 1); // 2 writes -> queue 1
        assert_eq!(mq.record_writes(page, 2), 2); // 4 writes -> queue 2
        assert_eq!(mq.record_writes(page, 4), 3); // 8 writes -> queue 3
        assert_eq!(mq.writes(page), 8);
    }

    #[test]
    fn level_saturates_at_top_queue() {
        let mut mq = MultiQueue::new(MultiQueueConfig { queues: 8 });
        let page = PageId(1);
        let level = mq.record_writes(page, 1 << 20);
        assert_eq!(level, 7);
    }

    #[test]
    fn demote_lowers_level_and_halves_count() {
        let mut mq = MultiQueue::new(MultiQueueConfig::default());
        let page = PageId(3);
        mq.record_writes(page, 64);
        let before = mq.level(page);
        let after = mq.demote(page);
        assert_eq!(after, before - 1);
        assert_eq!(mq.writes(page), 32);
        // Demoting an unknown page is a no-op at level 0.
        assert_eq!(mq.demote(PageId(999)), 0);
    }

    #[test]
    fn pages_at_or_above_selects_hot_pages() {
        let mut mq = MultiQueue::new(MultiQueueConfig::default());
        mq.record_writes(PageId(1), 100); // hot
        mq.record_writes(PageId(2), 2); // warm
        mq.record_writes(PageId(3), 1); // cold
        let hot = mq.pages_at_or_above(4);
        assert_eq!(hot, vec![PageId(1)]);
        assert_eq!(mq.pages.len(), 3, "every written page is ranked");
    }

    #[test]
    fn unknown_page_is_level_zero() {
        let mq = MultiQueue::new(MultiQueueConfig::default());
        assert_eq!(mq.level(PageId(42)), 0);
        assert_eq!(mq.writes(PageId(42)), 0);
    }
}
