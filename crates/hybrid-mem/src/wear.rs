//! Wear-leveling statistics.
//!
//! The paper assumes the fine-grained line wear-leveling hardware of Qureshi
//! et al. \[42\] and therefore models lifetime from the aggregate write rate
//! alone. This module provides the supporting analysis: given per-line write
//! counts it reports how uniform the write distribution actually is.

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
    fn skewed_distribution_has_high_cv() {
        let uniform = WearTracker::from_counts(vec![100; 64]);
        let mut skewed_counts = vec![1u64; 63];
        skewed_counts.push(100 * 64 - 63);
        let skewed = WearTracker::from_counts(skewed_counts);
        assert_eq!(skewed.summary().total_writes, uniform.summary().total_writes);
        assert!(skewed.summary().coefficient_of_variation > uniform.summary().coefficient_of_variation);
    }

    #[test]
    fn empty_tracker_summarises_to_zero() {
        let t = WearTracker::new();
        assert_eq!(t.summary(), WearSummary::default());
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
