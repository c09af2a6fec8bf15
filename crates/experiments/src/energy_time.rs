//! Energy and execution-time experiments: Figures 8, 9 and 12.

use hybrid_mem::timing::ExecutionModel;
use hybrid_mem::{MemoryKind, MemoryStats};
use kingsguard::HeapConfig;
use workloads::{all_benchmarks, simulated_benchmarks};

use crate::report::{collect_rows, mean, ratio, TelemetryRollup, TextTable};
use crate::runner::{run_jobs, Cell, ExperimentConfig, ExperimentResult, Matrix};

// ---------------------------------------------------------------------------
// Figure 8: energy-delay product
// ---------------------------------------------------------------------------

/// Per-benchmark energy-delay product relative to DRAM-only (Figure 8).
#[derive(Clone, Debug)]
pub struct EdpRow {
    /// Benchmark name.
    pub benchmark: String,
    /// PCM-only EDP relative to DRAM-only.
    pub pcm_only: f64,
    /// KG-N EDP relative to DRAM-only.
    pub kg_n: f64,
    /// KG-W EDP relative to DRAM-only.
    pub kg_w: f64,
}

/// Figure 8 results.
#[derive(Clone, Debug)]
pub struct EdpResults {
    /// Per-benchmark rows (simulation subset).
    pub rows: Vec<EdpRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl EdpResults {
    /// Average KG-N EDP relative to DRAM-only (the paper reports 0.64,
    /// i.e. a 36 % reduction).
    pub fn average_kg_n(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_n).collect::<Vec<_>>())
    }

    /// Average KG-W EDP relative to DRAM-only (the paper reports 0.68).
    pub fn average_kg_w(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_w).collect::<Vec<_>>())
    }

    /// Average PCM-only EDP relative to DRAM-only.
    pub fn average_pcm_only(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.pcm_only).collect::<Vec<_>>())
    }

    /// Renders the Figure 8 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 8: energy-delay product relative to DRAM-only (lower is better)",
            &["Benchmark", "DRAM-only", "PCM-only", "KG-N", "KG-W"],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                "1.00".to_string(),
                ratio(row.pcm_only),
                ratio(row.kg_n),
                ratio(row.kg_w),
            ]);
        }
        table.row(vec![
            "Average".to_string(),
            "1.00".to_string(),
            ratio(self.average_pcm_only()),
            ratio(self.average_kg_n()),
            ratio(self.average_kg_w()),
        ]);
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 8: EDP of PCM-only, KG-N and KG-W relative to DRAM-only on the
/// simulation subset.
pub fn figure8(matrix: &Matrix, config: &ExperimentConfig) -> EdpResults {
    let benchmarks = simulated_benchmarks();
    let rows = run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, config));
        let dram = run(HeapConfig::gen_immix_dram());
        let pcm = run(HeapConfig::gen_immix_pcm());
        let kg_n = run(HeapConfig::kg_n());
        let kg_w = run(HeapConfig::kg_w());
        let base = dram.edp.max(f64::MIN_POSITIVE);
        (
            EdpRow {
                benchmark: profile.name.to_string(),
                pcm_only: pcm.edp / base,
                kg_n: kg_n.edp / base,
                kg_w: kg_w.edp / base,
            },
            TelemetryRollup::of([&dram, &pcm, &kg_n, &kg_w]),
        )
    });
    let (rows, telemetry) = collect_rows(rows);
    EdpResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 9: KG-W overhead breakdown
// ---------------------------------------------------------------------------

/// Per-benchmark breakdown of KG-W's execution-time overhead over DRAM-only
/// (Figure 9), each component expressed as a percentage of the DRAM-only
/// execution time.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Overhead due to PCM's longer access latencies.
    pub pcm_pct: f64,
    /// Overhead of the observer-space remembered sets.
    pub remsets_pct: f64,
    /// Overhead of additional (observer) collections.
    pub gc_pct: f64,
    /// Overhead of monitoring writes to non-nursery objects.
    pub monitoring_pct: f64,
    /// Everything else (cache effects, copying, model residue).
    pub other_pct: f64,
}

impl OverheadRow {
    /// Total overhead percentage over DRAM-only.
    pub fn total_pct(&self) -> f64 {
        self.pcm_pct + self.remsets_pct + self.gc_pct + self.monitoring_pct + self.other_pct
    }
}

/// Figure 9 results.
#[derive(Clone, Debug)]
pub struct OverheadResults {
    /// Per-benchmark rows (simulation subset).
    pub rows: Vec<OverheadRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl OverheadResults {
    /// Renders the Figure 9 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 9: breakdown of KG-W execution-time overhead over DRAM-only (% of DRAM-only time)",
            &[
                "Benchmark",
                "PCM",
                "Remsets",
                "GC",
                "Monitoring",
                "Other",
                "Total",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                format!("{:.1}", row.pcm_pct),
                format!("{:.1}", row.remsets_pct),
                format!("{:.1}", row.gc_pct),
                format!("{:.1}", row.monitoring_pct),
                format!("{:.1}", row.other_pct),
                format!("{:.1}", row.total_pct()),
            ]);
        }
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 9: decomposes KG-W's overhead over DRAM-only into PCM latency,
/// remembered sets, collection work, write monitoring and other.
pub fn figure9(matrix: &Matrix, config: &ExperimentConfig) -> OverheadResults {
    let benchmarks = simulated_benchmarks();
    let rows = run_jobs(&benchmarks, config.jobs, |profile| {
        let dram = matrix.run(Cell::new(profile, HeapConfig::gen_immix_dram(), config));
        let kg_w = matrix.run(Cell::new(profile, HeapConfig::kg_w(), config));
        let base = dram.execution_time_s().max(f64::MIN_POSITIVE);
        let total_pct = (kg_w.execution_time_s() - dram.execution_time_s()) / base * 100.0;
        let pcm_pct = kg_w.time.pcm_s / base * 100.0;
        let remsets_pct = (kg_w.time.remset_s - dram.time.remset_s).max(0.0) / base * 100.0;
        let gc_pct = (kg_w.time.gc_s - dram.time.gc_s).max(0.0) / base * 100.0;
        let monitoring_pct = kg_w.time.monitoring_s / base * 100.0;
        let other_pct = (total_pct - pcm_pct - remsets_pct - gc_pct - monitoring_pct).max(0.0);
        (
            OverheadRow {
                benchmark: profile.name.to_string(),
                pcm_pct,
                remsets_pct,
                gc_pct,
                monitoring_pct,
                other_pct,
            },
            TelemetryRollup::of([&dram, &kg_w]),
        )
    });
    let (rows, telemetry) = collect_rows(rows);
    OverheadResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 12: execution time relative to KG-N on DRAM hardware
// ---------------------------------------------------------------------------

/// Per-benchmark execution time relative to KG-N (Figure 12).
#[derive(Clone, Debug)]
pub struct PerformanceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Execution time of each configuration relative to KG-N, in the order
    /// KG-W, KG-W–LOO, KG-W–LOO–MDO, KG-W–PM.
    pub relative: [f64; 4],
}

/// Figure 12 results.
#[derive(Clone, Debug)]
pub struct PerformanceResults {
    /// One row per benchmark (all 18).
    pub rows: Vec<PerformanceRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

/// Configuration labels of Figure 12 in order.
pub const FIGURE12_CONFIGS: [&str; 4] = ["KG-W", "KG-W-LOO", "KG-W-LOO-MDO", "KG-W-PM"];

impl PerformanceResults {
    /// Average slowdown of configuration `index` relative to KG-N
    /// (the paper reports ~1.07 for KG-W).
    pub fn average(&self, index: usize) -> f64 {
        mean(&self.rows.iter().map(|r| r.relative[index]).collect::<Vec<_>>())
    }

    /// Renders the Figure 12 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 12: execution time relative to KG-N on DRAM hardware (lower is better)",
            &["Benchmark", "KG-N", "KG-W", "KG-W-LOO", "KG-W-LOO-MDO", "KG-W-PM"],
        );
        for row in &self.rows {
            let mut cells = vec![row.benchmark.clone(), "1.00".to_string()];
            cells.extend(row.relative.iter().map(|&v| ratio(v)));
            table.row(cells);
        }
        let mut avg = vec!["Average".to_string(), "1.00".to_string()];
        avg.extend((0..4).map(|i| ratio(self.average(i))));
        table.row(avg);
        table.render() + &self.telemetry.appendix()
    }
}

/// Computes execution time as if every memory access were served by DRAM —
/// the paper's real-hardware runs have no PCM, so all latencies are DRAM
/// latencies (Section 6.2).
fn dram_hardware_time(result: &ExperimentResult) -> f64 {
    let mut stats = MemoryStats::default();
    stats.reads[MemoryKind::Dram as usize] = result.memory.total_reads();
    stats.writes[MemoryKind::Dram as usize] = result.memory.total_writes();
    ExecutionModel::default().execution_time_s(&result.gc.work, &stats)
}

/// Figure 12: execution time of the KG-W variants relative to KG-N on DRAM
/// hardware, for all 18 benchmarks.
pub fn figure12(matrix: &Matrix, config: &ExperimentConfig) -> PerformanceResults {
    let config = ExperimentConfig {
        mode: crate::MeasurementMode::ArchitectureIndependent,
        ..config.clone()
    };
    let benchmarks = all_benchmarks();
    let rows = run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, &config));
        let kg_n = run(HeapConfig::kg_n());
        let base = dram_hardware_time(&kg_n).max(f64::MIN_POSITIVE);
        let results = [
            HeapConfig::kg_w(),
            HeapConfig::kg_w_no_loo(),
            HeapConfig::kg_w_no_loo_no_mdo(),
            HeapConfig::kg_w_no_primitive_monitoring(),
        ]
        .map(run);
        (
            PerformanceRow {
                benchmark: profile.name.to_string(),
                relative: results.each_ref().map(|result| dram_hardware_time(result) / base),
            },
            TelemetryRollup::of(std::iter::once(&kg_n).chain(&results)),
        )
    });
    let (rows, telemetry) = collect_rows(rows);
    PerformanceResults { rows, telemetry }
}
