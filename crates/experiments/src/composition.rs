//! Figure 13: heap composition over time.

use kingsguard::{CompositionSample, HeapConfig};
use workloads::benchmark;

use crate::report::{collect_rows, TelemetryRollup, TextTable};
use crate::runner::{Cell, ExperimentConfig, Matrix};

/// Heap-composition time series for one benchmark under KG-W.
#[derive(Clone, Debug)]
pub struct CompositionSeries {
    /// Benchmark name.
    pub benchmark: String,
    /// One sample per collection: allocated bytes (time proxy), PCM bytes,
    /// DRAM bytes of the mature + large heap.
    pub samples: Vec<CompositionSample>,
}

impl CompositionSeries {
    /// Peak PCM bytes used by the mature heap.
    pub fn peak_pcm_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.pcm_bytes).max().unwrap_or(0)
    }

    /// Peak DRAM bytes used by the mature heap.
    pub fn peak_dram_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.dram_bytes).max().unwrap_or(0)
    }
}

/// Figure 13 results.
#[derive(Clone, Debug)]
pub struct CompositionResults {
    /// One series per requested benchmark.
    pub series: Vec<CompositionSeries>,
    /// Telemetry rollup of the runs behind the tables.
    pub telemetry: TelemetryRollup,
}

impl CompositionResults {
    /// Renders the Figure 13 table (sub-sampled to at most 20 points per
    /// benchmark so the report stays readable).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for series in &self.series {
            let mut table = TextTable::new(
                &format!(
                    "Figure 13 ({}): mature heap in PCM vs DRAM over time (KG-W)",
                    series.benchmark
                ),
                &["Allocated MB", "PCM MB", "DRAM MB"],
            );
            let step = (series.samples.len() / 20).max(1);
            for sample in series.samples.iter().step_by(step) {
                table.row(vec![
                    format!("{:.1}", sample.allocated_bytes as f64 / (1 << 20) as f64),
                    format!("{:.2}", sample.pcm_bytes as f64 / (1 << 20) as f64),
                    format!("{:.2}", sample.dram_bytes as f64 / (1 << 20) as f64),
                ]);
            }
            out.push_str(&table.render());
            out.push_str(&format!(
                "peak PCM {:.1} MB, peak DRAM {:.1} MB\n\n",
                series.peak_pcm_bytes() as f64 / (1 << 20) as f64,
                series.peak_dram_bytes() as f64 / (1 << 20) as f64,
            ));
        }
        out.push_str(&self.telemetry.appendix());
        out
    }
}

/// Figure 13: heap composition over time for Page Rank and eclipse under
/// KG-W (the paper's two exemplars).
pub fn figure13(matrix: &Matrix, config: &ExperimentConfig) -> CompositionResults {
    figure13_for(matrix, config, &["pagerank", "eclipse"])
}

/// Heap composition over time for an arbitrary set of benchmarks.
pub fn figure13_for(matrix: &Matrix, config: &ExperimentConfig, names: &[&str]) -> CompositionResults {
    let (series, telemetry) = collect_rows(crate::runner::run_jobs(names, config.jobs, |name| {
        let profile = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
        let result = matrix.run(Cell::new(&profile, HeapConfig::kg_w(), config));
        (
            CompositionSeries {
                benchmark: profile.name.to_string(),
                samples: result.gc.composition.clone(),
            },
            TelemetryRollup::of([&result]),
        )
    }));
    CompositionResults { series, telemetry }
}
