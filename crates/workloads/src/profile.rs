//! Benchmark profile definition, and the one rule that sizes a
//! workload's heap.

use kingsguard::HeapConfig;

/// The smallest heap budget a profile-sized run gets, whatever the scale
/// ([`BenchmarkProfile::heap_config`]).
pub const MIN_HEAP_BUDGET_BYTES: u64 = 2 << 20;

/// The smallest allocation volume the synthetic generator emits.
pub(crate) const MIN_ALLOCATION_BYTES: u64 = 1 << 20;

/// The smallest live-set target of the synthetic generator (half the
/// scaled heap otherwise).
pub(crate) const MIN_LIVE_TARGET_BYTES: u64 = 256 << 10;

/// The heap budget of the streaming workload at every scale: its working
/// set is bounded by the interval, not by a profile's heap size.
pub const STREAMING_HEAP_BUDGET_BYTES: usize = 512 << 10;

/// Which benchmark suite a profile belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The DaCapo 2006 suite (and the lu.Fix / pmd.S fixed variants).
    DaCapo,
    /// pseudojbb2005.
    Pjbb,
    /// GraphChi disk-based graph analytics (PR, CC, ALS).
    GraphChi,
}

/// A synthetic model of one Java application, parameterised from the paper's
/// published measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name as used in the paper's figures (e.g. "lusearch").
    pub name: &'static str,
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// Total allocation volume in MB (Table 4, column 1).
    pub allocation_mb: u64,
    /// Heap size in MB — 2× the minimum live size (Table 4, column 2).
    pub heap_mb: u64,
    /// Nursery survival rate in `[0,1]` (Table 4, column 3).
    pub nursery_survival: f64,
    /// Observer-space survival rate in `[0,1]` (Table 4, column 16).
    pub observer_survival: f64,
    /// Fraction of application writes that target nursery objects
    /// (per-benchmark bar of Figure 2).
    pub nursery_write_fraction: f64,
    /// Share of mature-object writes captured by the hottest 2 % of mature
    /// objects (Figure 2 reports an 81 % average).
    pub hot_mature_share: f64,
    /// Fraction of allocated bytes that are large objects (> 8 KB).
    pub large_alloc_fraction: f64,
    /// Fraction of mature-object writes that target large objects.
    pub large_write_fraction: f64,
    /// Fraction of application writes that are primitive (non-reference)
    /// stores; the rest are reference stores.
    pub primitive_write_fraction: f64,
    /// Application writes issued per KB of allocation (controls the write
    /// rate; calibrated so the simulated 4-core write rates have the same
    /// ordering as Table 3).
    pub writes_per_kb: f64,
    /// Whether the benchmark is part of the cycle-level simulation subset
    /// (the seven benchmarks of Figures 7 and 10 and Table 3).
    pub simulated: bool,
    /// Measured 4→32-core write-rate scaling factor (Table 3), if reported.
    pub scaling_factor: Option<f64>,
    /// The paper's estimated 32-core write rate in GB/s (Table 3), if
    /// reported.
    pub paper_write_rate_gbps: Option<f64>,
    /// Whether the benchmark is multi-threaded on the 32-core estimation
    /// platform (8 instances) or single-threaded (32 instances).
    pub multithreaded: bool,
}

impl BenchmarkProfile {
    /// Average object size in bytes used by the synthetic mutator.
    pub const MEAN_OBJECT_BYTES: usize = 64;

    /// Fraction of mature objects treated as "hot" (the paper's top 2 %).
    pub const HOT_OBJECT_FRACTION: f64 = 0.02;

    /// Total allocation in bytes after applying `scale` (a divisor).
    pub fn scaled_allocation_bytes(&self, scale: u64) -> u64 {
        (self.allocation_mb << 20) / scale.max(1)
    }

    /// Heap budget in bytes after applying `scale`.
    pub fn scaled_heap_bytes(&self, scale: u64) -> u64 {
        (self.heap_mb << 20) / scale.max(1)
    }

    /// `base` with this benchmark's heap budget at `scale`: the paper's
    /// heap size (2× the minimum live size, Table 4) divided by the scale,
    /// floored at [`MIN_HEAP_BUDGET_BYTES`]. Every heap sized from a
    /// profile goes through here; the space sizes are `base`'s.
    pub fn heap_config(&self, base: HeapConfig, scale: u64) -> HeapConfig {
        base.with_heap_budget(self.scaled_heap_bytes(scale).max(MIN_HEAP_BUDGET_BYTES) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "sample",
            suite: Suite::DaCapo,
            allocation_mb: 1024,
            heap_mb: 100,
            nursery_survival: 0.1,
            observer_survival: 0.3,
            nursery_write_fraction: 0.7,
            hot_mature_share: 0.81,
            large_alloc_fraction: 0.05,
            large_write_fraction: 0.1,
            primitive_write_fraction: 0.7,
            writes_per_kb: 30.0,
            simulated: false,
            scaling_factor: None,
            paper_write_rate_gbps: None,
            multithreaded: false,
        }
    }

    #[test]
    fn scaling_divides_volumes() {
        let p = sample();
        assert_eq!(p.scaled_allocation_bytes(1), 1024 << 20);
        assert_eq!(p.scaled_allocation_bytes(16), 64 << 20);
        assert_eq!(p.scaled_heap_bytes(16), (100 << 20) / 16);
        assert_eq!(p.scaled_allocation_bytes(0), 1024 << 20, "scale 0 behaves like 1");
    }

    #[test]
    fn heap_budget_is_the_scaled_heap_floored_at_two_mb() {
        let p = sample();
        let budget = |scale| p.heap_config(HeapConfig::kg_n(), scale).heap_budget_bytes;
        assert_eq!(budget(16), (100 << 20) / 16);
        assert_eq!(
            budget(256),
            MIN_HEAP_BUDGET_BYTES as usize,
            "100 MB / 256 is below the floor"
        );
        let base = HeapConfig::kg_w();
        let sized = p.heap_config(base.clone(), 16);
        assert_eq!(sized, base.with_heap_budget((100 << 20) / 16));
    }
}
