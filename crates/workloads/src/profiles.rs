//! The 18 benchmark profiles of the paper's evaluation.
//!
//! Numbers are taken from the paper: allocation volume, heap size and
//! survival rates from Table 4; the nursery/mature write split from
//! Figure 2; 32-core scaling factors and estimated write rates from Table 3.
//! Parameters the paper does not report directly (object size mix,
//! large-object share, primitive/reference write mix, writes per allocated
//! KB) are chosen to match the qualitative behaviour the paper describes for
//! each benchmark (e.g. lusearch's heavily written primitive arrays, xalan
//! and lusearch allocating many large objects, luindex and CC writing to
//! large PCM objects).

use crate::profile::{BenchmarkProfile, Suite};

macro_rules! profile {
    (
        $name:literal, $suite:expr, alloc: $alloc:expr, heap: $heap:expr,
        nsurv: $nsurv:expr, osurv: $osurv:expr, nwf: $nwf:expr,
        large_alloc: $la:expr, large_write: $lw:expr, prim: $prim:expr,
        wpk: $wpk:expr, sim: $sim:expr, scaling: $scaling:expr, rate: $rate:expr,
        mt: $mt:expr
    ) => {
        BenchmarkProfile {
            name: $name,
            suite: $suite,
            allocation_mb: $alloc,
            heap_mb: $heap,
            nursery_survival: $nsurv,
            observer_survival: $osurv,
            nursery_write_fraction: $nwf,
            hot_mature_share: 0.81,
            large_alloc_fraction: $la,
            large_write_fraction: $lw,
            primitive_write_fraction: $prim,
            writes_per_kb: $wpk,
            simulated: $sim,
            scaling_factor: $scaling,
            paper_write_rate_gbps: $rate,
            multithreaded: $mt,
        }
    };
}

/// Returns all 18 benchmark profiles in the paper's Figure 2 order
/// (ascending nursery-write fraction).
pub fn all_benchmarks() -> Vec<BenchmarkProfile> {
    vec![
        profile!("lusearch", Suite::DaCapo, alloc: 4294, heap: 68, nsurv: 0.04, osurv: 0.29, nwf: 0.26,
                 large_alloc: 0.15, large_write: 0.30, prim: 0.85, wpk: 60.0, sim: true,
                 scaling: Some(5.0), rate: Some(9.3), mt: true),
        profile!("pjbb", Suite::Pjbb, alloc: 2314, heap: 400, nsurv: 0.20, osurv: 0.84, nwf: 0.30,
                 large_alloc: 0.05, large_write: 0.10, prim: 0.75, wpk: 35.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("lu.fix", Suite::DaCapo, alloc: 848, heap: 68, nsurv: 0.02, osurv: 0.25, nwf: 0.35,
                 large_alloc: 0.10, large_write: 0.20, prim: 0.85, wpk: 55.0, sim: true,
                 scaling: Some(5.2), rate: Some(7.0), mt: true),
        profile!("avrora", Suite::DaCapo, alloc: 64, heap: 98, nsurv: 0.15, osurv: 0.0, nwf: 0.42,
                 large_alloc: 0.02, large_write: 0.05, prim: 0.80, wpk: 25.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("luindex", Suite::DaCapo, alloc: 37, heap: 44, nsurv: 0.22, osurv: 0.0, nwf: 0.47,
                 large_alloc: 0.20, large_write: 0.50, prim: 0.85, wpk: 30.0, sim: false,
                 scaling: None, rate: None, mt: false),
        profile!("hsqldb", Suite::DaCapo, alloc: 165, heap: 254, nsurv: 0.63, osurv: 0.88, nwf: 0.55,
                 large_alloc: 0.03, large_write: 0.05, prim: 0.70, wpk: 30.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("xalan", Suite::DaCapo, alloc: 980, heap: 108, nsurv: 0.16, osurv: 0.09, nwf: 0.60,
                 large_alloc: 0.20, large_write: 0.25, prim: 0.75, wpk: 45.0, sim: true,
                 scaling: Some(7.3), rate: Some(8.5), mt: true),
        profile!("sunflow", Suite::DaCapo, alloc: 1920, heap: 108, nsurv: 0.02, osurv: 0.13, nwf: 0.66,
                 large_alloc: 0.02, large_write: 0.05, prim: 0.80, wpk: 30.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("pmd", Suite::DaCapo, alloc: 364, heap: 98, nsurv: 0.23, osurv: 0.68, nwf: 0.71,
                 large_alloc: 0.05, large_write: 0.10, prim: 0.70, wpk: 40.0, sim: true,
                 scaling: Some(7.7), rate: Some(3.1), mt: false),
        profile!("jython", Suite::DaCapo, alloc: 1150, heap: 80, nsurv: 0.002, osurv: 0.12, nwf: 0.75,
                 large_alloc: 0.01, large_write: 0.02, prim: 0.70, wpk: 30.0, sim: false,
                 scaling: None, rate: None, mt: false),
        profile!("pagerank", Suite::GraphChi, alloc: 6946, heap: 512, nsurv: 0.36, osurv: 0.99, nwf: 0.78,
                 large_alloc: 0.10, large_write: 0.20, prim: 0.80, wpk: 25.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("pmd.s", Suite::DaCapo, alloc: 202, heap: 98, nsurv: 0.27, osurv: 0.47, nwf: 0.80,
                 large_alloc: 0.05, large_write: 0.10, prim: 0.70, wpk: 45.0, sim: true,
                 scaling: Some(10.0), rate: Some(7.0), mt: false),
        profile!("cc", Suite::GraphChi, alloc: 5507, heap: 512, nsurv: 0.24, osurv: 0.97, nwf: 0.83,
                 large_alloc: 0.10, large_write: 0.30, prim: 0.80, wpk: 25.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("als", Suite::GraphChi, alloc: 14245, heap: 512, nsurv: 0.09, osurv: 0.63, nwf: 0.86,
                 large_alloc: 0.08, large_write: 0.15, prim: 0.85, wpk: 20.0, sim: false,
                 scaling: None, rate: None, mt: true),
        profile!("fop", Suite::DaCapo, alloc: 56, heap: 80, nsurv: 0.20, osurv: 0.82, nwf: 0.90,
                 large_alloc: 0.03, large_write: 0.05, prim: 0.70, wpk: 25.0, sim: false,
                 scaling: None, rate: None, mt: false),
        profile!("antlr", Suite::DaCapo, alloc: 246, heap: 48, nsurv: 0.15, osurv: 0.0016, nwf: 0.93,
                 large_alloc: 0.02, large_write: 0.03, prim: 0.70, wpk: 35.0, sim: true,
                 scaling: Some(52.0), rate: Some(19.0), mt: false),
        profile!("eclipse", Suite::DaCapo, alloc: 3082, heap: 160, nsurv: 0.15, osurv: 0.37, nwf: 0.96,
                 large_alloc: 0.03, large_write: 0.05, prim: 0.70, wpk: 30.0, sim: false,
                 scaling: None, rate: None, mt: false),
        profile!("bloat", Suite::DaCapo, alloc: 1246, heap: 66, nsurv: 0.04, osurv: 0.19, nwf: 0.99,
                 large_alloc: 0.02, large_write: 0.03, prim: 0.70, wpk: 40.0, sim: true,
                 scaling: Some(63.0), rate: Some(24.0), mt: false),
    ]
}

/// Returns the cycle-level simulation subset: the seven benchmarks of
/// Table 3, Figure 7 and Figure 10 (xalan, pmd, pmd.s, lusearch, lu.fix,
/// antlr, bloat).
pub fn simulated_benchmarks() -> Vec<BenchmarkProfile> {
    all_benchmarks().into_iter().filter(|p| p.simulated).collect()
}

/// Looks a profile up by its paper name (case-insensitive).
pub fn benchmark(name: &str) -> Option<BenchmarkProfile> {
    let lower = name.to_ascii_lowercase();
    all_benchmarks()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_18_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 18);
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18);
    }

    #[test]
    fn simulation_subset_matches_table3() {
        let sim = simulated_benchmarks();
        let names: Vec<_> = sim.iter().map(|p| p.name).collect();
        assert_eq!(sim.len(), 7);
        for expected in ["xalan", "pmd", "pmd.s", "lusearch", "lu.fix", "antlr", "bloat"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        for p in &sim {
            assert!(p.scaling_factor.is_some());
            assert!(p.paper_write_rate_gbps.is_some());
        }
    }

    #[test]
    fn nursery_write_fraction_averages_roughly_seventy_percent() {
        let all = all_benchmarks();
        let avg: f64 = all.iter().map(|p| p.nursery_write_fraction).sum::<f64>() / all.len() as f64;
        assert!(
            (0.60..0.75).contains(&avg),
            "Figure 2 reports ~70% nursery writes on average, got {avg}"
        );
        // The range matches the paper's 26% .. 99%.
        assert!(all.iter().any(|p| p.nursery_write_fraction <= 0.30));
        assert!(all.iter().any(|p| p.nursery_write_fraction >= 0.95));
    }

    #[test]
    fn survival_rates_match_table4_extremes() {
        let all = all_benchmarks();
        let jython = all.iter().find(|p| p.name == "jython").unwrap();
        assert!(
            jython.nursery_survival < 0.01,
            "jython has a ~0.001% nursery survival"
        );
        let hsqldb = all.iter().find(|p| p.name == "hsqldb").unwrap();
        assert!(
            hsqldb.nursery_survival > 0.5,
            "hsqldb has the highest nursery survival (~60-66%)"
        );
        let avg: f64 = all.iter().map(|p| p.nursery_survival).sum::<f64>() / all.len() as f64;
        assert!(
            (0.10..0.25).contains(&avg),
            "average nursery survival is ~17%, got {avg}"
        );
    }

    #[test]
    fn graphchi_benchmarks_allocate_the_most() {
        let all = all_benchmarks();
        let graphchi_min = all
            .iter()
            .filter(|p| p.suite == Suite::GraphChi)
            .map(|p| p.allocation_mb)
            .min()
            .unwrap();
        assert!(graphchi_min >= 5000);
        let als = benchmark("ALS").unwrap();
        assert_eq!(als.allocation_mb, 14245);
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(benchmark("Lusearch").is_some());
        assert!(benchmark("XALAN").is_some());
        assert!(benchmark("nonexistent").is_none());
    }

    #[test]
    fn low_allocation_benchmarks_are_flagged() {
        let low: Vec<_> = all_benchmarks()
            .into_iter()
            .filter(|p| p.allocation_mb < 100)
            .map(|p| p.name)
            .collect();
        assert_eq!(low, vec!["avrora", "luindex", "fop"]);
    }
}
