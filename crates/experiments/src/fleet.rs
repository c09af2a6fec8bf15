//! The multi-tenant fleet experiment (`repro fleet`).
//!
//! Runs the same fleet of tenant sessions twice — once with naive
//! round-robin tenant placement, once with the wear broker's levelling —
//! and reports what only fleet scope can show: cumulative device damage
//! (failed lines, retired pages, lost capacity), the real-time
//! years-to-first-uncorrectable projection, tail GC pauses across every
//! session, aggregate modeled throughput, and the warm-vs-cold KG-D
//! comparison enabled by the shared advice store. Both runs are
//! deterministic for a fixed seed regardless of `--jobs`; with
//! `--telemetry-dir` each writes a fleet-level `.kgmetrics` document
//! (`fleet-round-robin.kgmetrics`, `fleet-wear-levelled.kgmetrics`) whose
//! deterministic half is drift-free across same-seed runs.

use std::path::Path;

use ::fleet::{run_fleet, FleetConfig, FleetOutcome, PlacementStrategy};
use telemetry::{fmt_ns, write_jsonl, RunMeta};

use crate::report::TextTable;
use crate::runner::{metrics_path, ExperimentConfig, MeasurementMode};

/// Fleet size when `--tenants` is not given.
pub const DEFAULT_TENANTS: usize = 256;

/// Results of the two-strategy fleet comparison.
#[derive(Clone, Debug)]
pub struct FleetResults {
    /// Tenant sessions per fleet.
    pub tenants: usize,
    /// One outcome per strategy: round-robin first, wear-levelled second.
    pub runs: Vec<FleetOutcome>,
}

/// The fleet configuration `repro fleet` derives from the experiment
/// flags: the experiment's seed, scale and worker threads over the fleet
/// crate's default geometry (8 regions, waves of 16, warm starts on).
pub fn fleet_config(config: &ExperimentConfig, tenants: usize) -> FleetConfig {
    FleetConfig::new(tenants)
        .with_seed(config.seed)
        .with_scale(config.scale)
        .with_jobs(config.jobs)
}

/// Runs the round-robin and wear-levelled fleets and (when
/// `config.telemetry_dir` is set) writes one fleet-level `.kgmetrics`
/// document per strategy.
pub fn fleet_comparison(config: &ExperimentConfig, tenants: usize) -> FleetResults {
    let runs = [PlacementStrategy::RoundRobin, PlacementStrategy::WearLevelled]
        .iter()
        .map(|&strategy| {
            let outcome = run_fleet(&fleet_config(config, tenants).with_strategy(strategy));
            if let Some(dir) = &config.telemetry_dir {
                write_fleet_metrics(dir, &outcome);
            }
            outcome
        })
        .collect();
    FleetResults { tenants, runs }
}

fn write_fleet_metrics(dir: &Path, outcome: &FleetOutcome) {
    let path = metrics_path(dir, &format!("fleet-{}", outcome.strategy.label()));
    let meta = RunMeta {
        benchmark: "fleet".to_string(),
        collector: outcome.strategy.label().to_string(),
        mode: MeasurementMode::ArchitectureIndependent.label().to_string(),
        seed: outcome.seed,
        scale: outcome.scale,
    };
    write_jsonl(&path, &meta, &outcome.fleet_report())
        .unwrap_or_else(|err| panic!("cannot write {}: {err}", path.display()));
}

fn format_years(years: Option<f64>) -> String {
    match years {
        None => "never".to_string(),
        Some(years) if !(0.1..1_000.0).contains(&years) => format!("{years:.1e}"),
        Some(years) => format!("{years:.1}"),
    }
}

fn format_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1} MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes} B")
    }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

fn pause_cell(outcome: &FleetOutcome, value: u64) -> String {
    if outcome.pauses.count > 0 {
        fmt_ns(value)
    } else {
        "-".to_string()
    }
}

impl FleetResults {
    /// Tenant sessions that died (panicked) across both fleets.
    pub fn failures(&self) -> usize {
        self.runs.iter().map(|run| run.failures.len()).sum()
    }

    /// The outcome of one strategy's fleet.
    pub fn run(&self, strategy: PlacementStrategy) -> &FleetOutcome {
        self.runs
            .iter()
            .find(|run| run.strategy == strategy)
            .expect("both strategies ran")
    }

    /// Renders the comparison: one device/throughput row per strategy, the
    /// wear-levelled fleet's warm-vs-cold KG-D table, and a row per died
    /// tenant (if any).
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Multi-tenant fleet: {} sessions over {} device regions, round-robin vs\n\
                 wear-levelled placement ('Years to UE' = real-time years until the device's\n\
                 first ECC-uncorrectable page at the fleet's cumulative write rates; pauses\n\
                 are wall-clock timing over every session; events/s is modeled)",
                self.tenants,
                self.runs.first().map_or(0, |run| run.regions),
            ),
            &[
                "Placement",
                "Done",
                "Died",
                "Warm/drift/cold",
                "Failed lines",
                "Retired pages",
                "Degraded",
                "Years to UE",
                "p99 pause",
                "Max pause",
                "Events/s",
            ],
        );
        for run in &self.runs {
            table.row(vec![
                run.strategy.label().to_string(),
                run.completed().to_string(),
                run.failures.len().to_string(),
                format!(
                    "{}/{}/{}",
                    run.warm_starts, run.drifted_warm_starts, run.cold_starts
                ),
                run.failed_lines.to_string(),
                run.retired_pages.to_string(),
                format_bytes(run.degraded_bytes),
                format_years(run.years_to_first_ue),
                pause_cell(run, run.pauses.p99),
                pause_cell(run, run.pauses.max),
                format_rate(run.events_per_sec()),
            ]);
        }
        let mut out = table.render();
        let levelled = self.run(PlacementStrategy::WearLevelled);
        let rows = levelled.warm_cold_comparison();
        if !rows.is_empty() {
            let mut warm = TextTable::new(
                "Advice-store warm starts vs cold starts (wear-levelled fleet, KG-D tenants,\n\
                 like-for-like (benchmark, scale) groups; rates are modeled PCM bytes/s)",
                &[
                    "Benchmark",
                    "Scale",
                    "Cold n",
                    "Warm n",
                    "Cold PCM B/s",
                    "Warm PCM B/s",
                    "Warm/cold",
                ],
            );
            for row in &rows {
                warm.row(vec![
                    row.benchmark.clone(),
                    row.scale.to_string(),
                    row.cold_sessions.to_string(),
                    row.warm_sessions.to_string(),
                    format_rate(row.cold_rate),
                    format_rate(row.warm_rate),
                    if row.cold_rate > 0.0 {
                        format!("{:.2}", row.warm_rate / row.cold_rate)
                    } else {
                        "-".to_string()
                    },
                ]);
            }
            out.push('\n');
            out.push_str(&warm.render());
        }
        if let Some(ratio) = levelled.warm_cold_ratio() {
            out.push_str(&format!(
                "warm-started KG-D tenants wrote {:.0}% of the cold tenants' PCM rate\n",
                ratio * 100.0
            ));
        }
        for run in &self.runs {
            for failure in &run.failures {
                out.push_str(&format!(
                    "tenant #{} ({}, {}) died: {}\n",
                    failure.index,
                    failure.benchmark,
                    run.strategy.label(),
                    failure.message
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ::fleet::{AdviceLookup, AdviceStore};
    use advice::SiteMapDrift;
    use hybrid_mem::{MemoryConfig, MemoryKind};
    use kingsguard::{HeapConfig, KingsguardHeap};
    use telemetry::{diff_docs, TelemetryDoc};
    use workloads::{benchmark, site_map_hash, SyntheticMutator, WorkloadConfig};

    #[test]
    fn fleet_metrics_have_zero_drift_across_jobs_and_reruns() {
        // Two same-seed fleet comparisons — one serial, one fanned over
        // worker threads — must emit bit-identical deterministic halves in
        // their .kgmetrics documents (`repro metrics diff` gates on this),
        // and the wear-levelled fleet must visibly out-live the naive one.
        let base = std::env::temp_dir().join(format!("kgfleet-metrics-{}", std::process::id()));
        let mut results = Vec::new();
        for (tag, jobs) in [("a", 1), ("b", 3)] {
            let dir = base.join(tag);
            std::fs::create_dir_all(&dir).unwrap();
            let config = ExperimentConfig::quick().with_jobs(jobs).with_telemetry_dir(&dir);
            results.push((dir, fleet_comparison(&config, 64)));
        }
        let (dir_a, first) = &results[0];
        let (dir_b, second) = &results[1];
        assert_eq!(
            first.failures(),
            0,
            "no tenant may die: {:?}",
            first.runs[0].failures
        );
        for strategy in [PlacementStrategy::RoundRobin, PlacementStrategy::WearLevelled] {
            let load = |dir: &Path| {
                TelemetryDoc::load(&metrics_path(dir, &format!("fleet-{}", strategy.label()))).unwrap()
            };
            let diff = diff_docs(&load(dir_a), &load(dir_b));
            assert!(
                !diff.has_drift(),
                "{} fleet metrics drifted across --jobs: {:?}",
                strategy.label(),
                diff.drift
            );
        }
        let naive = first.run(PlacementStrategy::RoundRobin);
        let levelled = first.run(PlacementStrategy::WearLevelled);
        assert!(naive.retired_pages > 0, "the naive fleet must damage the device");
        assert!(
            levelled.retired_pages < naive.retired_pages,
            "wear levelling must retire fewer pages ({} vs {})",
            levelled.retired_pages,
            naive.retired_pages
        );
        let report = first.report();
        assert!(report.contains("wear-levelled") && report.contains("round-robin"));
        assert!(report.contains("Years to UE"));
        let reports_match = second.run(PlacementStrategy::RoundRobin).retired_pages == naive.retired_pages;
        assert!(reports_match, "fleet damage must be jobs-invariant");
        std::fs::remove_dir_all(&base).ok();
    }

    fn session(heap_config: HeapConfig, name: &str, scale: u64) -> (u64, Option<advice::AdviceTable>) {
        let profile = benchmark(name).expect("known benchmark");
        let mut heap = KingsguardHeap::new(
            profile.heap_config(heap_config, scale),
            MemoryConfig::architecture_independent(),
        );
        SyntheticMutator::new(profile, WorkloadConfig { scale, seed: 7 }).run(&mut heap);
        let snapshot = heap.policy().advice_snapshot();
        let report = heap.finish();
        (report.memory.bytes_written(MemoryKind::Pcm), snapshot)
    }

    #[test]
    fn stale_drifted_advice_falls_back_per_site_and_never_loses_to_kg_n() {
        let scale = 2048;
        // Advice learned by KG-D on one workload...
        let (_, snapshot) = session(HeapConfig::kg_d(), "lusearch", scale);
        let stale = snapshot.expect("KG-D learns DRAM sites on lusearch");
        // ...deposited under a site-map hash that no longer matches: the
        // store reports it *drifted*, not rejected.
        let mut store = AdviceStore::new();
        store.deposit("xalan", 0xDEAD_BEEF, stale, 0);
        let lookup = store.lookup("xalan", site_map_hash());
        let AdviceLookup::Warm { snapshot, drift } = lookup else {
            panic!("stale advice must still warm-start");
        };
        assert!(matches!(drift, SiteMapDrift::Drifted { .. }));
        // Warm-starting a *different* workload from the stale table applies
        // it per-site: sites it wrongly sends to DRAM cost DRAM (harmless
        // here), sites it sends to PCM are KG-D's cold default, and online
        // adaptation still moves write-heavy sites off PCM — so the stale
        // warm start can never write more PCM than the static KG-N baseline.
        let (stale_pcm, _) = session(HeapConfig::kg_d_with(snapshot.table), "xalan", scale);
        let (kg_n_pcm, _) = session(HeapConfig::kg_n(), "xalan", scale);
        assert!(
            stale_pcm <= kg_n_pcm,
            "stale warm start must stay at or below KG-N PCM bytes ({stale_pcm} vs {kg_n_pcm})"
        );
    }
}
