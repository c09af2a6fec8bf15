//! Figure 1 and Figure 5: PCM lifetime.

use std::sync::Arc;

use hybrid_mem::lifetime::Endurance;
use kingsguard::HeapConfig;
use workloads::simulated_benchmarks;

use crate::report::{mean, telemetry_summary, TextTable};
use crate::runner::{run_jobs, Cell, ExperimentConfig, ExperimentResult, Matrix};

/// One benchmark's lifetime results under the three collectors.
#[derive(Clone, Debug)]
pub struct LifetimeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Lifetime in years of the PCM-only system at 30 M endurance.
    pub pcm_only_years: f64,
    /// Lifetime in years under KG-N.
    pub kg_n_years: f64,
    /// Lifetime in years under KG-W.
    pub kg_w_years: f64,
}

impl LifetimeRow {
    /// KG-N lifetime improvement over PCM-only.
    pub fn kg_n_improvement(&self) -> f64 {
        self.kg_n_years / self.pcm_only_years
    }

    /// KG-W lifetime improvement over PCM-only.
    pub fn kg_w_improvement(&self) -> f64 {
        self.kg_w_years / self.pcm_only_years
    }
}

/// Results for Figures 1 and 5.
#[derive(Clone, Debug)]
pub struct LifetimeResults {
    /// Per-benchmark rows (simulation subset).
    pub rows: Vec<LifetimeRow>,
    /// The underlying experiment results (PCM-only, KG-N, KG-W per
    /// benchmark), for reuse by other figures.
    pub raw: Vec<Arc<ExperimentResult>>,
}

impl LifetimeResults {
    /// Average PCM-only lifetime at the given endurance level, in years
    /// (the per-endurance bars of Figure 1).
    pub fn average_years(&self, collector: &str, endurance: Endurance) -> f64 {
        let years: Vec<f64> = self
            .raw
            .iter()
            .filter(|r| r.collector == collector)
            .map(|r| r.pcm_lifetime_years(endurance.writes_per_cell()))
            .collect();
        mean(&years)
    }

    /// Average KG-N lifetime improvement over PCM-only (the paper reports 5×).
    pub fn average_kg_n_improvement(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_n_improvement()).collect::<Vec<_>>())
    }

    /// Average KG-W lifetime improvement over PCM-only (the paper reports 11×).
    pub fn average_kg_w_improvement(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_w_improvement()).collect::<Vec<_>>())
    }

    /// Figure 1 report: lifetime in years per endurance level.
    pub fn figure1_report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 1: PCM lifetime in years (32 GB, line wear-leveling), averaged over the simulated benchmarks",
            &["Endurance", "PCM-only", "KG-N", "KG-W"],
        );
        for endurance in Endurance::ALL {
            table.row(vec![
                endurance.label().to_string(),
                format!("{:.1}", self.average_years("PCM-only", endurance)),
                format!("{:.1}", self.average_years("KG-N", endurance)),
                format!("{:.1}", self.average_years("KG-W", endurance)),
            ]);
        }
        table.render()
    }

    /// Figure 5 report: per-benchmark lifetime relative to PCM-only.
    pub fn figure5_report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 5: PCM lifetime relative to PCM-only (30 M endurance)",
            &["Benchmark", "KG-N", "KG-W"],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                format!("{:.1}x", row.kg_n_improvement()),
                format!("{:.1}x", row.kg_w_improvement()),
            ]);
        }
        table.row(vec![
            "Average".to_string(),
            format!("{:.1}x", self.average_kg_n_improvement()),
            format!("{:.1}x", self.average_kg_w_improvement()),
        ]);
        let mut out = table.render();
        if let Some(summary) = telemetry_summary(&self.raw) {
            out.push_str(&summary);
            out.push('\n');
        }
        out
    }
}

/// Runs the lifetime experiments (Figures 1 and 5) over the simulation
/// subset.
pub fn run(matrix: &Matrix, config: &ExperimentConfig) -> LifetimeResults {
    let benchmarks = simulated_benchmarks();
    let per_benchmark = run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, config));
        let pcm_only = run(HeapConfig::gen_immix_pcm());
        let kg_n = run(HeapConfig::kg_n());
        let kg_w = run(HeapConfig::kg_w());
        let endurance = Endurance::Mid30M.writes_per_cell();
        let row = LifetimeRow {
            benchmark: profile.name.to_string(),
            pcm_only_years: pcm_only.pcm_lifetime_years(endurance),
            kg_n_years: kg_n.pcm_lifetime_years(endurance),
            kg_w_years: kg_w.pcm_lifetime_years(endurance),
        };
        (row, [pcm_only, kg_n, kg_w])
    });
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    for (row, results) in per_benchmark {
        rows.push(row);
        raw.extend(results);
    }
    LifetimeResults { rows, raw }
}
