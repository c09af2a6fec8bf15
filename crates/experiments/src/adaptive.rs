//! The online-adaptive comparison (`repro adaptive`).
//!
//! Runs every simulated benchmark under the online-adaptive KG-D collector
//! — which starts from KG-N-like all-PCM placement and learns per-site
//! advice *during* the run, with no prior profiling run and no observer
//! space — next to the collectors it interpolates between: PCM-only and
//! KG-N below it, KG-W (online per-object learning) and KG-A (offline
//! profile replay) above it. The headline check is that KG-D's PCM write
//! rate never exceeds KG-N's: the rescue fallback alone guarantees the
//! bound, and the learned pretenuring closes most of the remaining gap to
//! KG-W.

use std::path::Path;

use kingsguard::HeapConfig;
use workloads::simulated_benchmarks;

use crate::advise::run_profiled_waves;
use crate::report::{self, ratio, TextTable};
use crate::runner::{ExperimentConfig, ExperimentResult};

/// The collector labels of the comparison, in column order.
pub const ADAPTIVE_CONFIGS: [&str; 5] = ["PCM-only", "KG-N", "KG-W", "KG-A", "KG-D"];

/// Endurance level used for the lifetime column.
pub use crate::report::LIFETIME_ENDURANCE;

/// One benchmark's adaptive comparison.
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Results in [`ADAPTIVE_CONFIGS`] order.
    pub results: Vec<ExperimentResult>,
}

impl AdaptiveRow {
    fn result(&self, collector: &str) -> &ExperimentResult {
        report::result_for(&self.results, &self.benchmark, collector)
    }

    /// Estimated 32-core PCM write rate of `collector` in GB/s.
    pub fn write_rate_gbps(&self, collector: &str) -> f64 {
        report::write_rate_gbps(self.result(collector))
    }

    /// PCM lifetime of `collector` in years at [`LIFETIME_ENDURANCE`].
    pub fn lifetime_years(&self, collector: &str) -> f64 {
        report::lifetime_years(self.result(collector))
    }

    /// Energy-delay product of `collector` relative to KG-N.
    pub fn edp_vs_kg_n(&self, collector: &str) -> f64 {
        report::edp_relative(&self.results, &self.benchmark, collector, "KG-N")
    }

    /// Objects KG-D pretenured into DRAM by its *learned* advice — direct
    /// evidence the policy adapted during the run.
    pub fn kg_d_learned_dram_objects(&self) -> u64 {
        self.result("KG-D").gc.advised_to_dram_objects
    }

    /// Returns `true` if KG-D's PCM write rate is no worse than KG-N's.
    pub fn kg_d_beats_kg_n(&self) -> bool {
        self.result("KG-D").pcm_write_rate_32core() <= self.result("KG-N").pcm_write_rate_32core()
    }
}

/// Results of the adaptive comparison.
#[derive(Clone, Debug)]
pub struct AdaptiveResults {
    /// Per-benchmark rows.
    pub rows: Vec<AdaptiveRow>,
}

impl AdaptiveResults {
    /// Number of benchmarks where KG-D's PCM write rate is ≤ KG-N's.
    pub fn kg_d_wins(&self) -> usize {
        self.rows.iter().filter(|r| r.kg_d_beats_kg_n()).count()
    }

    /// Renders the comparison table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Online-adaptive placement: KG-D (no profiling run, no observer space) vs the paper's collectors\n\
             (PCM write rate in GB/s at 32 cores; lifetime in years at 30M writes/cell; EDP relative to KG-N;\n\
             'Learned' = objects KG-D pretenured into DRAM by advice it learned during the run)",
            &[
                "Benchmark",
                "Rate PCM-only",
                "Rate KG-N",
                "Rate KG-W",
                "Rate KG-A",
                "Rate KG-D",
                "Life KG-D",
                "EDP KG-D",
                "Learned",
                "GCs KG-D",
                "Max pause",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                format!("{:.2}", row.write_rate_gbps("PCM-only")),
                format!("{:.2}", row.write_rate_gbps("KG-N")),
                format!("{:.2}", row.write_rate_gbps("KG-W")),
                format!("{:.2}", row.write_rate_gbps("KG-A")),
                format!("{:.2}", row.write_rate_gbps("KG-D")),
                format!("{:.1}", row.lifetime_years("KG-D")),
                ratio(row.edp_vs_kg_n("KG-D")),
                row.kg_d_learned_dram_objects().to_string(),
                report::pause_count_cell(row.result("KG-D")),
                report::max_pause_cell(row.result("KG-D")),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "KG-D PCM write rate <= KG-N on {}/{} benchmarks (no prior profiling run)\n",
            self.kg_d_wins(),
            self.rows.len()
        ));
        if let Some(summary) = report::telemetry_summary(self.rows.iter().flat_map(|row| row.results.iter()))
        {
            out.push_str(&summary);
            out.push('\n');
        }
        out
    }
}

/// Runs the adaptive comparison over `benchmarks`, fanning the
/// (benchmark, collector) pairs over up to `jobs` worker threads. KG-D runs
/// with no prior profile; the KG-A reference column reuses the
/// profile→advise pipeline (its profiling runs double as the KG-N rows),
/// writing the `.kgprof` files into `dir`.
pub fn adaptive_comparison(
    config: &ExperimentConfig,
    benchmarks: &[&str],
    dir: &Path,
    jobs: usize,
) -> AdaptiveResults {
    // KG-D joins wave 2 with no advice seed: unlike KG-A, it learns its
    // table during the run.
    let waves = run_profiled_waves(config, benchmarks, dir, jobs, |table| {
        vec![
            HeapConfig::gen_immix_pcm(),
            HeapConfig::kg_w(),
            HeapConfig::kg_a(table.clone()),
            HeapConfig::kg_d(),
        ]
    });
    let rows = waves
        .into_iter()
        .map(|wave| {
            let [pcm_only, kg_w, kg_a, kg_d]: [ExperimentResult; 4] =
                wave.results.try_into().expect("four wave-2 runs per benchmark");
            AdaptiveRow {
                benchmark: wave.profile.name.to_string(),
                results: vec![pcm_only, wave.kg_n, kg_w, kg_a, kg_d],
            }
        })
        .collect();
    AdaptiveResults { rows }
}

/// The default benchmark set: the paper's simulation subset.
pub fn default_benchmarks() -> Vec<&'static str> {
    simulated_benchmarks().iter().map(|p| p.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kingsguard-adaptive-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn kg_d_adapts_online_and_stays_at_or_below_kg_n() {
        let dir = temp_dir("one");
        let config = ExperimentConfig::quick();
        let results = adaptive_comparison(&config, &["lusearch"], &dir, 1);
        assert_eq!(results.rows.len(), 1);
        let row = &results.rows[0];
        assert_eq!(row.results.len(), ADAPTIVE_CONFIGS.len());
        let kg_d = row.result("KG-D");
        assert_eq!(kg_d.gc.observer.collections, 0, "KG-D has no observer space");
        assert!(
            row.kg_d_learned_dram_objects() > 0,
            "KG-D must learn hot sites during the run"
        );
        assert!(
            row.kg_d_beats_kg_n(),
            "KG-D rate {} must not exceed KG-N {}",
            row.write_rate_gbps("KG-D"),
            row.write_rate_gbps("KG-N")
        );
        let report = results.report();
        assert!(report.contains("KG-D"));
        assert!(report.contains("lusearch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_adaptive_comparison_matches_sequential() {
        let dir = temp_dir("jobs");
        let config = ExperimentConfig::quick();
        let sequential = adaptive_comparison(&config, &["lu.fix", "pmd"], &dir, 1);
        let threaded = adaptive_comparison(&config, &["lu.fix", "pmd"], &dir, 2);
        for (a, b) in sequential.rows.iter().zip(&threaded.rows) {
            assert_eq!(a.benchmark, b.benchmark);
            for (ra, rb) in a.results.iter().zip(&b.results) {
                assert_eq!(ra.collector, rb.collector);
                assert_eq!(
                    ra.pcm_writes(),
                    rb.pcm_writes(),
                    "{}: {}",
                    a.benchmark,
                    ra.collector
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
