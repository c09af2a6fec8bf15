//! Wear-leveling statistics.
//!
//! The paper assumes the fine-grained line wear-leveling hardware of Qureshi
//! et al. \[42\] and therefore models lifetime from the aggregate write rate
//! alone. This module provides the supporting analysis: given per-line write
//! counts it reports how uniform the write distribution actually is, what
//! lifetime ideal wear-leveling achieves, and what lifetime would result with
//! no wear-leveling at all (the most-written line wearing out first).

use crate::address::CACHE_LINE_SIZE;
use crate::lifetime::SECONDS_PER_YEAR;

/// Summary of the write distribution over PCM lines.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WearSummary {
    /// Number of distinct lines written at least once.
    pub lines_written: u64,
    /// Total line writes.
    pub total_writes: u64,
    /// Maximum writes to a single line.
    pub max_line_writes: u64,
    /// Mean writes per written line.
    pub mean_line_writes: f64,
    /// Coefficient of variation of the per-line write counts.
    pub coefficient_of_variation: f64,
}

/// Accumulates per-line write counts and derives wear statistics.
#[derive(Clone, Debug, Default)]
pub struct WearTracker {
    counts: Vec<u64>,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tracker from an iterator of per-line write counts.
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        WearTracker {
            counts: counts.into_iter().collect(),
        }
    }

    /// Builds a tracker from `(line, writes)` pairs as exported by
    /// [`crate::MemorySystem::pcm_line_writes`] — the line ids only carry
    /// ordering, the distribution statistics come from the counts. This is
    /// the device-region rollup used by fleet-level wear brokers: each
    /// region's cumulative pairs summarise to one [`WearSummary`] that can
    /// be ranked against the other regions.
    pub fn from_line_writes(pairs: &[(u64, u64)]) -> Self {
        Self::from_counts(pairs.iter().map(|&(_, writes)| writes))
    }

    /// Records the write count of one line.
    pub fn record(&mut self, writes: u64) {
        self.counts.push(writes);
    }

    /// Summarises the distribution. The moments are accumulated as integer
    /// sums, so the result is independent of the order counts were recorded
    /// in (float accumulation would make the coefficient of variation depend
    /// on it in its last bits).
    pub fn summary(&self) -> WearSummary {
        if self.counts.is_empty() {
            return WearSummary::default();
        }
        let total: u64 = self.counts.iter().sum();
        let sum_sq: u128 = self.counts.iter().map(|&c| (c as u128) * (c as u128)).sum();
        let n = self.counts.len() as f64;
        let mean = total as f64 / n;
        // E[c²] − mean², clamped: the two terms are equal for a uniform
        // distribution and rounding may leave a tiny negative residue.
        let var = (sum_sq as f64 / n - mean * mean).max(0.0);
        WearSummary {
            lines_written: self.counts.len() as u64,
            total_writes: total,
            max_line_writes: self.counts.iter().copied().max().unwrap_or(0),
            mean_line_writes: mean,
            coefficient_of_variation: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }

    /// Lifetime in years with *ideal* wear-leveling: total write traffic is
    /// spread uniformly over `capacity_bytes` of PCM (the paper's model).
    pub fn ideal_wear_leveled_years(
        &self,
        capacity_bytes: u64,
        endurance_writes: u64,
        elapsed_s: f64,
    ) -> f64 {
        let bytes_written: u64 = self.counts.iter().sum::<u64>() * CACHE_LINE_SIZE as u64;
        if elapsed_s <= 0.0 || bytes_written == 0 {
            return f64::INFINITY;
        }
        crate::lifetime::lifetime_years(capacity_bytes, endurance_writes, bytes_written as f64 / elapsed_s)
    }

    /// Lifetime in years with *no* wear-leveling: the device fails when its
    /// most-written line reaches the endurance limit.
    pub fn unleveled_years(&self, endurance_writes: u64, elapsed_s: f64) -> f64 {
        let summary = self.summary();
        if elapsed_s <= 0.0 || summary.max_line_writes == 0 {
            return f64::INFINITY;
        }
        let writes_per_second = summary.max_line_writes as f64 / elapsed_s;
        endurance_writes as f64 / writes_per_second / SECONDS_PER_YEAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_distribution() {
        let tracker = WearTracker::from_counts(vec![10, 10, 10, 10]);
        let s = tracker.summary();
        assert_eq!(s.lines_written, 4);
        assert_eq!(s.total_writes, 40);
        assert_eq!(s.max_line_writes, 10);
        assert!((s.mean_line_writes - 10.0).abs() < 1e-12);
        assert!(s.coefficient_of_variation.abs() < 1e-12);
    }

    #[test]
    fn skewed_distribution_has_high_cv_and_short_unleveled_life() {
        let uniform = WearTracker::from_counts(vec![100; 64]);
        let mut skewed_counts = vec![1u64; 63];
        skewed_counts.push(100 * 64 - 63);
        let skewed = WearTracker::from_counts(skewed_counts);
        assert!(skewed.summary().coefficient_of_variation > uniform.summary().coefficient_of_variation);
        // Same total traffic => same ideal-wear-leveled lifetime, but far
        // shorter unleveled lifetime for the skewed distribution.
        let cap = 1 << 30;
        let ideal_u = uniform.ideal_wear_leveled_years(cap, 30_000_000, 1.0);
        let ideal_s = skewed.ideal_wear_leveled_years(cap, 30_000_000, 1.0);
        assert!((ideal_u - ideal_s).abs() / ideal_u < 1e-9);
        assert!(skewed.unleveled_years(30_000_000, 1.0) < uniform.unleveled_years(30_000_000, 1.0));
    }

    #[test]
    fn empty_tracker_is_infinite_lifetime() {
        let t = WearTracker::new();
        assert_eq!(t.summary(), WearSummary::default());
        assert!(t.ideal_wear_leveled_years(1 << 30, 30_000_000, 1.0).is_infinite());
        assert!(t.unleveled_years(30_000_000, 1.0).is_infinite());
    }

    #[test]
    fn record_accumulates() {
        let mut t = WearTracker::new();
        t.record(5);
        t.record(7);
        assert_eq!(t.summary().total_writes, 12);
        assert_eq!(t.summary().max_line_writes, 7);
    }
}
