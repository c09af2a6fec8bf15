//! The two-phase profile→advise pipeline.
//!
//! Phase 1 (**profile**) runs each benchmark once under KG-N with per-site
//! profiling enabled and persists the resulting [`SiteProfile`] to a
//! versioned on-disk file. Phase 2 (**advise**) reloads the profile from
//! disk — exercising the same path a separate production process would use —
//! derives an [`AdviceTable`] from it, and runs the benchmark under the
//! profile-guided KG-A collector. The comparison table reports PCM write
//! rate, PCM lifetime and energy-delay product for GenImmix (PCM-only),
//! KG-N, KG-W and KG-A side by side: KG-A should approach KG-W's write
//! rationing without paying KG-W's observer-space tax.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use advice::{
    load_profile, save_profile, site_map_drift, AdviceTable, ClassifyParams, SiteMapDrift, SiteProfile,
};
use hybrid_mem::lifetime::Endurance;
use kingsguard::HeapConfig;
use workloads::{benchmark, site_map_hash, BenchmarkProfile};

use crate::report::{self, ratio, TextTable};
use crate::runner::{run_jobs, Cell, ExperimentConfig, ExperimentResult, Matrix};

/// The collector labels of the comparison, in column order.
pub const ADVISE_CONFIGS: [&str; 4] = ["PCM-only", "KG-N", "KG-W", "KG-A"];

/// Endurance level used for the lifetime column (the paper's headline
/// 30 M writes-per-cell point).
pub const LIFETIME_ENDURANCE: Endurance = report::LIFETIME_ENDURANCE;

/// One benchmark's end-to-end comparison.
#[derive(Clone, Debug)]
pub struct AdviseRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Path of the persisted profile file.
    pub profile_path: PathBuf,
    /// Sites observed by the profiling run.
    pub sites: usize,
    /// Sites advised into DRAM.
    pub hot_sites: usize,
    /// Results in [`ADVISE_CONFIGS`] order.
    pub results: Vec<Arc<ExperimentResult>>,
}

impl AdviseRow {
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

    /// Returns `true` if KG-A's PCM write rate is no worse than KG-N's.
    pub fn kg_a_beats_kg_n(&self) -> bool {
        self.result("KG-A").pcm_write_rate_32core() <= self.result("KG-N").pcm_write_rate_32core()
    }
}

/// Results of the full profile→advise pipeline.
#[derive(Clone, Debug)]
pub struct AdviseResults {
    /// Per-benchmark rows.
    pub rows: Vec<AdviseRow>,
}

impl AdviseResults {
    /// Number of benchmarks where KG-A's PCM write rate is ≤ KG-N's.
    pub fn kg_a_wins(&self) -> usize {
        self.rows.iter().filter(|r| r.kg_a_beats_kg_n()).count()
    }

    /// Renders the comparison table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Profile-guided placement: profile (KG-N) -> advise (KG-A), vs the paper's collectors\n\
             (PCM write rate in GB/s at 32 cores; lifetime in years at 30M writes/cell; EDP relative to KG-N)",
            &[
                "Benchmark",
                "Sites",
                "Hot",
                "Rate PCM-only",
                "Rate KG-N",
                "Rate KG-W",
                "Rate KG-A",
                "Life KG-N",
                "Life KG-W",
                "Life KG-A",
                "EDP KG-W",
                "EDP KG-A",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                row.sites.to_string(),
                row.hot_sites.to_string(),
                format!("{:.2}", row.write_rate_gbps("PCM-only")),
                format!("{:.2}", row.write_rate_gbps("KG-N")),
                format!("{:.2}", row.write_rate_gbps("KG-W")),
                format!("{:.2}", row.write_rate_gbps("KG-A")),
                format!("{:.1}", row.lifetime_years("KG-N")),
                format!("{:.1}", row.lifetime_years("KG-W")),
                format!("{:.1}", row.lifetime_years("KG-A")),
                ratio(row.edp_vs_kg_n("KG-W")),
                ratio(row.edp_vs_kg_n("KG-A")),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "KG-A PCM write rate <= KG-N on {}/{} benchmarks\n",
            self.kg_a_wins(),
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

/// Phase 1: runs `profile` under KG-N and persists the run's site profile
/// to `<dir>/<benchmark>.kgprof`. Returns the run's result (the KG-N row:
/// profiling adds no simulated traffic) and the path written.
pub fn profile_workload(
    matrix: &Matrix,
    profile: &BenchmarkProfile,
    config: &ExperimentConfig,
    dir: &Path,
) -> (Arc<ExperimentResult>, PathBuf) {
    let result = matrix.run(Cell::new(profile, HeapConfig::kg_n(), config));
    let mut site_profile = result
        .site_profile
        .clone()
        .expect("every run gathers a site profile");
    // Stamp the workload's site-map hash so a later program version whose
    // site map drifted can detect the mismatch (and still apply the advice
    // per-site instead of rejecting the file).
    site_profile.site_map_hash = Some(site_map_hash());
    let path = dir.join(format!("{}.kgprof", profile.name));
    save_profile(&site_profile, &path)
        .unwrap_or_else(|err| panic!("cannot persist site profile to {}: {err}", path.display()));
    (result, path)
}

/// Phase 2: reloads the persisted profile and derives the KG-A advice table
/// from it with profile-adaptive classification thresholds, checking the
/// profile's recorded site-map hash against `current_hash`. A drifted
/// profile is *not* rejected: the drift is logged and the advice is applied
/// per-site — sites whose ids survived the drift keep their advice,
/// everything else falls back to the table's default (PCM) placement,
/// where the rescue fallback corrects mispredictions.
pub fn advice_from_disk_checked(path: &Path, current_hash: u64) -> (SiteProfile, AdviceTable, SiteMapDrift) {
    let site_profile = load_profile(path)
        .unwrap_or_else(|err| panic!("cannot reload site profile {}: {err}", path.display()));
    let drift = site_map_drift(&site_profile, current_hash);
    if let SiteMapDrift::Drifted { stored, current } = drift {
        eprintln!(
            "warning: site profile {} was collected under site map {stored:016x}, but this run's \
             site map hashes to {current:016x}; applying its advice per-site (unmatched sites use \
             the default PCM placement and rely on the rescue fallback)",
            path.display()
        );
    }
    let params = ClassifyParams::for_profile(&site_profile);
    let table = AdviceTable::from_profile(&site_profile, &params);
    (site_profile, table, drift)
}

/// One benchmark's output from [`run_profiled_waves`]: the profiling run
/// (the KG-N row), the persisted profile and its derived advice, and the
/// wave-2 results in the order the caller's `configs_for` listed their
/// configurations.
pub(crate) struct ProfiledWave {
    pub(crate) profile: BenchmarkProfile,
    pub(crate) kg_n: Arc<ExperimentResult>,
    pub(crate) path: PathBuf,
    pub(crate) site_profile: SiteProfile,
    pub(crate) table: AdviceTable,
    pub(crate) results: Vec<Arc<ExperimentResult>>,
}

/// Shared two-wave orchestration of the advise and adaptive experiments,
/// with the (benchmark, collector) pairs fanned out over `config.jobs`
/// worker threads. Wave 1 profiles every benchmark under KG-N (each
/// benchmark's advice must exist before its advised runs) and derives the
/// advice table from disk; wave 2 runs every `configs_for(table)`
/// configuration per benchmark into the matrix, from which the rows then
/// read their results in order. Each run owns its heap and memory system,
/// so the results are identical for any job count; only the wall-clock
/// changes.
pub(crate) fn run_profiled_waves(
    matrix: &Matrix,
    config: &ExperimentConfig,
    benchmarks: &[&str],
    dir: &Path,
    configs_for: impl Fn(&AdviceTable) -> Vec<HeapConfig>,
) -> Vec<ProfiledWave> {
    let profiles: Vec<BenchmarkProfile> = benchmarks
        .iter()
        .map(|name| benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}")))
        .collect();
    // Wave 1: the profiling runs (the KG-N rows) and their advice.
    let profiled = run_jobs(&profiles, config.jobs, |profile| {
        let (kg_n, path) = profile_workload(matrix, profile, config, dir);
        let (site_profile, table, _) = advice_from_disk_checked(&path, site_map_hash());
        (kg_n, path, site_profile, table)
    });
    let cells: Vec<Vec<Cell>> = profiles
        .iter()
        .zip(&profiled)
        .map(|(profile, (.., table))| {
            let configs = configs_for(table).into_iter();
            configs.map(|heap| Cell::new(profile, heap, config)).collect()
        })
        .collect();
    // Wave 2: every remaining (benchmark, collector) pair.
    run_jobs(&cells.concat(), config.jobs, |cell| matrix.run(cell.clone()));
    profiles
        .into_iter()
        .zip(profiled)
        .zip(cells)
        .map(
            |((profile, (kg_n, path, site_profile, table)), cells)| ProfiledWave {
                profile,
                kg_n,
                path,
                site_profile,
                table,
                results: cells.into_iter().map(|cell| matrix.run(cell)).collect(),
            },
        )
        .collect()
}

/// Runs the profile→advise pipeline over `benchmarks` (names resolved
/// against the paper's profiles), writing profile files into `dir`: per
/// benchmark, profile, persist, reload, advise, and compare against the
/// PCM-only and KG-W baselines.
pub fn profile_then_advise(
    matrix: &Matrix,
    config: &ExperimentConfig,
    benchmarks: &[&str],
    dir: &Path,
) -> AdviseResults {
    let waves = run_profiled_waves(matrix, config, benchmarks, dir, |table| {
        vec![
            HeapConfig::gen_immix_pcm(),
            HeapConfig::kg_w(),
            HeapConfig::kg_a(table.clone()),
        ]
    });
    let rows = waves
        .into_iter()
        .map(|wave| {
            let [pcm_only, kg_w, kg_a]: [Arc<ExperimentResult>; 3] =
                wave.results.try_into().expect("three wave-2 runs per benchmark");
            AdviseRow {
                benchmark: wave.profile.name.to_string(),
                profile_path: wave.path,
                sites: wave.site_profile.sites.len(),
                hot_sites: wave.table.hot_sites(),
                results: vec![pcm_only, wave.kg_n, kg_w, kg_a],
            }
        })
        .collect();
    AdviseResults { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kingsguard-advise-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pipeline_round_trips_through_disk_and_runs_kg_a() {
        let dir = temp_dir("pipeline");
        let config = ExperimentConfig::quick();
        let results = profile_then_advise(&Matrix::default(), &config, &["lusearch"], &dir);
        let row = &results.rows[0];
        assert!(row.profile_path.exists(), "profile file must be written");
        assert!(row.sites > 5, "profiling run must observe the site map");
        assert!(row.hot_sites > 0, "lusearch has write-hot sites");
        assert_eq!(row.results.len(), 4);
        let kg_a = row.result("KG-A");
        assert!(
            kg_a.gc.advised_to_dram_objects > 0,
            "KG-A must pretenure hot-site objects into DRAM"
        );
        assert!(
            kg_a.gc.advised_to_pcm_objects > 0,
            "KG-A must pretenure cold-site objects into PCM"
        );
        assert_eq!(kg_a.gc.observer.collections, 0, "KG-A pays no observer-space tax");
        // The headline: advice keeps PCM writes at or below KG-N.
        assert!(
            row.kg_a_beats_kg_n(),
            "KG-A write rate {} must not exceed KG-N {}",
            row.write_rate_gbps("KG-A"),
            row.write_rate_gbps("KG-N")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threaded_pipeline_matches_the_sequential_pipeline() {
        let dir = temp_dir("jobs");
        let config = ExperimentConfig::quick();
        let sequential = profile_then_advise(&Matrix::default(), &config, &["lu.fix", "pmd"], &dir);
        let threaded =
            profile_then_advise(&Matrix::default(), &config.with_jobs(2), &["lu.fix", "pmd"], &dir);
        assert_eq!(sequential.rows.len(), threaded.rows.len());
        for (a, b) in sequential.rows.iter().zip(&threaded.rows) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.sites, b.sites);
            assert_eq!(a.hot_sites, b.hot_sites);
            for (ra, rb) in a.results.iter().zip(&b.results) {
                assert_eq!(ra.collector, rb.collector);
                assert_eq!(
                    ra.pcm_writes(),
                    rb.pcm_writes(),
                    "{}: {}",
                    a.benchmark,
                    ra.collector
                );
                assert_eq!(ra.dram_writes(), rb.dram_writes());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_profiles_carry_the_site_map_hash_and_survive_drift() {
        use advice::SiteMapDrift;
        let dir = temp_dir("drift");
        let config = ExperimentConfig::quick();
        let profile = benchmark("pmd").unwrap();
        let (_, path) = profile_workload(&Matrix::default(), &profile, &config, &dir);
        let current = workloads::site_map_hash();
        let (site_profile, _, drift) = advice_from_disk_checked(&path, current);
        assert_eq!(site_profile.site_map_hash, Some(current));
        assert_eq!(drift, SiteMapDrift::Match);
        // A run whose site map hashes differently sees the drift but still
        // gets a usable per-site table.
        let (_, table, drift) = advice_from_disk_checked(&path, current ^ 1);
        assert!(matches!(drift, SiteMapDrift::Drifted { .. }));
        assert!(!table.is_empty(), "drifted advice still applies per-site");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advise_report_renders_all_rows() {
        let dir = temp_dir("report");
        let config = ExperimentConfig::quick();
        let results = profile_then_advise(&Matrix::default(), &config, &["lu.fix", "pmd"], &dir);
        assert_eq!(results.rows.len(), 2);
        let report = results.report();
        assert!(report.contains("lu.fix"));
        assert!(report.contains("pmd"));
        assert!(report.contains("KG-A"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
