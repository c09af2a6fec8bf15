//! Write-centric experiments: Figures 2, 6, 7, 10 and 11.

use hybrid_mem::{MemoryKind, Phase};
use kingsguard::HeapConfig;
use workloads::{all_benchmarks, simulated_benchmarks};

use crate::report::{collect_rows, mean, percent, ratio, TelemetryRollup, TextTable};
use crate::runner::{run_jobs, Cell, ExperimentConfig, ExperimentResult, Matrix};

// ---------------------------------------------------------------------------
// Figure 2: write demographics
// ---------------------------------------------------------------------------

/// Per-benchmark write demographics (Figure 2).
#[derive(Clone, Debug)]
pub struct DemographicsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of application writes to nursery objects.
    pub nursery_fraction: f64,
    /// Fraction of mature-object writes captured by the top 10 % of mature
    /// objects.
    pub top10_share: f64,
    /// Fraction of mature-object writes captured by the top 2 % of mature
    /// objects.
    pub top2_share: f64,
}

/// Figure 2 results.
#[derive(Clone, Debug)]
pub struct DemographicsResults {
    /// Per-benchmark rows for all 18 benchmarks.
    pub rows: Vec<DemographicsRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl DemographicsResults {
    /// Average nursery write fraction (the paper reports 70 %).
    pub fn average_nursery_fraction(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.nursery_fraction).collect::<Vec<_>>())
    }

    /// Average top-2 % share of mature writes (the paper reports 81 %).
    pub fn average_top2_share(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.top2_share).collect::<Vec<_>>())
    }

    /// Average top-10 % share of mature writes (the paper reports 93 %).
    pub fn average_top10_share(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.top10_share).collect::<Vec<_>>())
    }

    /// Renders the Figure 2 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 2: distribution of application writes (nursery vs mature, hot-object concentration)",
            &[
                "Benchmark",
                "Nursery",
                "Mature",
                "Top 10% of mature",
                "Top 2% of mature",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                percent(row.nursery_fraction),
                percent(1.0 - row.nursery_fraction),
                percent(row.top10_share),
                percent(row.top2_share),
            ]);
        }
        table.row(vec![
            "Average".to_string(),
            percent(self.average_nursery_fraction()),
            percent(1.0 - self.average_nursery_fraction()),
            percent(self.average_top10_share()),
            percent(self.average_top2_share()),
        ]);
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 2: measures write demographics with the instrumented baseline
/// generational collector on all 18 benchmarks.
pub fn figure2(matrix: &Matrix, config: &ExperimentConfig) -> DemographicsResults {
    let config = ExperimentConfig {
        mode: crate::MeasurementMode::ArchitectureIndependent,
        ..config.clone()
    };
    let benchmarks = all_benchmarks();
    let (rows, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let result = matrix.run(Cell::new(profile, HeapConfig::gen_immix_dram(), &config));
        (
            DemographicsRow {
                benchmark: profile.name.to_string(),
                nursery_fraction: result.gc.nursery_write_fraction(),
                top10_share: result.gc.top_mature_writer_share(0.10),
                top2_share: result.gc.top_mature_writer_share(0.02),
            },
            TelemetryRollup::of([&result]),
        )
    }));
    DemographicsResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 6: PCM writes relative to PCM-only
// ---------------------------------------------------------------------------

/// Per-benchmark PCM-write reduction (Figure 6).
#[derive(Clone, Debug)]
pub struct WriteReductionRow {
    /// Benchmark name.
    pub benchmark: String,
    /// PCM writes of each Kingsguard configuration relative to PCM-only, in
    /// the order KG-N, KG-W, KG-W–LOO, KG-W–LOO–MDO.
    pub relative: [f64; 4],
}

/// Figure 6 results.
#[derive(Clone, Debug)]
pub struct WriteReductionResults {
    /// Per-benchmark rows (simulation subset).
    pub rows: Vec<WriteReductionRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

/// Configuration labels of Figure 6 in order.
pub const FIGURE6_CONFIGS: [&str; 4] = ["KG-N", "KG-W", "KG-W-LOO", "KG-W-LOO-MDO"];

impl WriteReductionResults {
    /// Average relative PCM writes of configuration `index` (0 = KG-N, ...).
    pub fn average(&self, index: usize) -> f64 {
        mean(&self.rows.iter().map(|r| r.relative[index]).collect::<Vec<_>>())
    }

    /// Renders the Figure 6 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 6: PCM writes relative to PCM-only (lower is better)",
            &["Benchmark", "KG-N", "KG-W", "KG-W-LOO", "KG-W-LOO-MDO"],
        );
        for row in &self.rows {
            let mut cells = vec![row.benchmark.clone()];
            cells.extend(row.relative.iter().map(|&v| ratio(v)));
            table.row(cells);
        }
        let mut avg = vec!["Average".to_string()];
        avg.extend((0..4).map(|i| ratio(self.average(i))));
        table.row(avg);
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 6: PCM writes of the four Kingsguard configurations relative to
/// PCM-only, on the simulation subset.
pub fn figure6(matrix: &Matrix, config: &ExperimentConfig) -> WriteReductionResults {
    let benchmarks = simulated_benchmarks();
    let (rows, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, config));
        let baseline = run(HeapConfig::gen_immix_pcm());
        let base_writes = baseline.pcm_writes().max(1) as f64;
        let results = [
            HeapConfig::kg_n(),
            HeapConfig::kg_w(),
            HeapConfig::kg_w_no_loo(),
            HeapConfig::kg_w_no_loo_no_mdo(),
        ]
        .map(run);
        (
            WriteReductionRow {
                benchmark: profile.name.to_string(),
                relative: results
                    .each_ref()
                    .map(|result| result.pcm_writes() as f64 / base_writes),
            },
            TelemetryRollup::of(std::iter::once(&baseline).chain(&results)),
        )
    }));
    WriteReductionResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 7: comparison with OS Write Partitioning
// ---------------------------------------------------------------------------

/// Per-benchmark comparison with Write Partitioning (Figure 7).
#[derive(Clone, Debug)]
pub struct WpComparisonRow {
    /// Benchmark name.
    pub benchmark: String,
    /// KG-N PCM writes relative to PCM-only.
    pub kg_n: f64,
    /// KG-W PCM writes relative to PCM-only.
    pub kg_w: f64,
    /// WP write-back PCM writes relative to PCM-only.
    pub wp_writebacks: f64,
    /// WP migration PCM writes relative to PCM-only.
    pub wp_migrations: f64,
    /// DRAM bytes used by the WP DRAM partition at its peak.
    pub wp_dram_bytes: u64,
}

/// Figure 7 results.
#[derive(Clone, Debug)]
pub struct WpComparisonResults {
    /// Per-benchmark rows (simulation subset).
    pub rows: Vec<WpComparisonRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl WpComparisonResults {
    /// Average relative PCM writes of WP (write-backs + migrations).
    pub fn average_wp(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.wp_writebacks + r.wp_migrations)
                .collect::<Vec<_>>(),
        )
    }

    /// Average relative PCM writes of KG-W.
    pub fn average_kg_w(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_w).collect::<Vec<_>>())
    }

    /// Average relative PCM writes of KG-N.
    pub fn average_kg_n(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_n).collect::<Vec<_>>())
    }

    /// Renders the Figure 7 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 7: PCM writes relative to PCM-only — Kingsguard vs OS Write Partitioning",
            &[
                "Benchmark",
                "KG-N",
                "KG-W",
                "WP writebacks",
                "WP migrations",
                "WP total",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                ratio(row.kg_n),
                ratio(row.kg_w),
                ratio(row.wp_writebacks),
                ratio(row.wp_migrations),
                ratio(row.wp_writebacks + row.wp_migrations),
            ]);
        }
        table.row(vec![
            "Average".to_string(),
            ratio(self.average_kg_n()),
            ratio(self.average_kg_w()),
            String::new(),
            String::new(),
            ratio(self.average_wp()),
        ]);
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 7: KG-N, KG-W and OS Write Partitioning PCM writes relative to
/// PCM-only on the simulation subset.
pub fn figure7(matrix: &Matrix, config: &ExperimentConfig) -> WpComparisonResults {
    let benchmarks = simulated_benchmarks();
    let (rows, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, config));
        let baseline = run(HeapConfig::gen_immix_pcm());
        let base_writes = baseline.pcm_writes().max(1) as f64;
        let kg_n = run(HeapConfig::kg_n());
        let kg_w = run(HeapConfig::kg_w());
        let wp = matrix.run(Cell::write_partitioning(profile, config));
        (
            WpComparisonRow {
                benchmark: profile.name.to_string(),
                kg_n: kg_n.pcm_writes() as f64 / base_writes,
                kg_w: kg_w.pcm_writes() as f64 / base_writes,
                wp_writebacks: wp.memory.writeback_writes(MemoryKind::Pcm) as f64 / base_writes,
                wp_migrations: wp.memory.migration_writes(MemoryKind::Pcm) as f64 / base_writes,
                wp_dram_bytes: wp
                    .wp
                    .map(|s| (s.peak_dram_pages * hybrid_mem::PAGE_SIZE) as u64)
                    .unwrap_or(0),
            },
            TelemetryRollup::of([&baseline, &kg_n, &kg_w, &wp]),
        )
    }));
    WpComparisonResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 10: the origin of PCM writes
// ---------------------------------------------------------------------------

/// Per-benchmark, per-collector breakdown of where PCM writes originate
/// (Figure 10).
#[derive(Clone, Debug)]
pub struct WriteOriginRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector label (KG-N or KG-W).
    pub collector: String,
    /// PCM writes attributed to the application, relative to the
    /// benchmark's KG-N total.
    pub application: f64,
    /// PCM writes attributed to nursery collections (same normalisation).
    pub nursery_gc: f64,
    /// PCM writes attributed to observer collections.
    pub observer_gc: f64,
    /// PCM writes attributed to major collections.
    pub major_gc: f64,
    /// PCM writes attributed to runtime metadata.
    pub runtime: f64,
}

/// Figure 10 results.
#[derive(Clone, Debug)]
pub struct WriteOriginResults {
    /// Two rows (KG-N, KG-W) per benchmark of the simulation subset.
    pub rows: Vec<WriteOriginRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl WriteOriginResults {
    /// Renders the Figure 10 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 10: origin of PCM writes (relative to each benchmark's KG-N total)",
            &[
                "Benchmark",
                "Config",
                "application",
                "nursery-GC",
                "observer-GC",
                "major-GC",
                "runtime",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                row.collector.clone(),
                ratio(row.application),
                ratio(row.nursery_gc),
                ratio(row.observer_gc),
                ratio(row.major_gc),
                ratio(row.runtime),
            ]);
        }
        table.render() + &self.telemetry.appendix()
    }
}

fn origin_row(result: &ExperimentResult, normaliser: f64) -> WriteOriginRow {
    let phase_writes = result.memory.phase_writes(MemoryKind::Pcm);
    WriteOriginRow {
        benchmark: result.benchmark.clone(),
        collector: result.collector.clone(),
        application: phase_writes.get(Phase::Mutator) as f64 / normaliser,
        nursery_gc: phase_writes.get(Phase::NurseryGc) as f64 / normaliser,
        observer_gc: phase_writes.get(Phase::ObserverGc) as f64 / normaliser,
        major_gc: phase_writes.get(Phase::MajorGc) as f64 / normaliser,
        runtime: phase_writes.get(Phase::Runtime) as f64 / normaliser,
    }
}

/// Figure 10: attributes PCM writes to the phase that last wrote each cache
/// line, for KG-N and KG-W on the simulation subset.
pub fn figure10(matrix: &Matrix, config: &ExperimentConfig) -> WriteOriginResults {
    let benchmarks = simulated_benchmarks();
    let (pairs, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let kg_n = matrix.run(Cell::new(profile, HeapConfig::kg_n(), config));
        let kg_w = matrix.run(Cell::new(profile, HeapConfig::kg_w(), config));
        let normaliser = kg_n.pcm_writes().max(1) as f64;
        (
            [origin_row(&kg_n, normaliser), origin_row(&kg_w, normaliser)],
            TelemetryRollup::of([&kg_n, &kg_w]),
        )
    }));
    let rows = pairs.into_iter().flatten().collect();
    WriteOriginResults { rows, telemetry }
}

// ---------------------------------------------------------------------------
// Figure 11: architecture-independent application writes to PCM
// ---------------------------------------------------------------------------

/// Per-benchmark application PCM writes relative to KG-N (Figure 11).
#[derive(Clone, Debug)]
pub struct HardwareWritesRow {
    /// Benchmark name.
    pub benchmark: String,
    /// KG-N with a 3× (12 MB-equivalent) nursery, relative to KG-N.
    pub kg_n_12: f64,
    /// KG-W relative to KG-N.
    pub kg_w: f64,
    /// KG-W without primitive monitoring, relative to KG-N.
    pub kg_w_pm: f64,
}

/// Figure 11 results.
#[derive(Clone, Debug)]
pub struct HardwareWritesResults {
    /// One row per benchmark (all 18).
    pub rows: Vec<HardwareWritesRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl HardwareWritesResults {
    /// Average KG-W application PCM writes relative to KG-N (the paper
    /// reports an 80 % reduction, i.e. ~0.20).
    pub fn average_kg_w(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_w).collect::<Vec<_>>())
    }

    /// Average KG-W–PM relative writes (the paper reports a 65 % reduction).
    pub fn average_kg_w_pm(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_w_pm).collect::<Vec<_>>())
    }

    /// Average KG-N-12 relative writes (the paper reports a 24 % reduction).
    pub fn average_kg_n_12(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.kg_n_12).collect::<Vec<_>>())
    }

    /// Renders the Figure 11 table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Figure 11: application writes to PCM relative to KG-N (architecture-independent)",
            &["Benchmark", "KG-N-12", "KG-W", "KG-W-PM"],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                ratio(row.kg_n_12),
                ratio(row.kg_w),
                ratio(row.kg_w_pm),
            ]);
        }
        table.row(vec![
            "Average".to_string(),
            ratio(self.average_kg_n_12()),
            ratio(self.average_kg_w()),
            ratio(self.average_kg_w_pm()),
        ]);
        table.render() + &self.telemetry.appendix()
    }
}

/// Figure 11: barrier-level application PCM writes of KG-N-12, KG-W and
/// KG-W–PM relative to KG-N, on all 18 benchmarks.
pub fn figure11(matrix: &Matrix, config: &ExperimentConfig) -> HardwareWritesResults {
    let config = ExperimentConfig {
        mode: crate::MeasurementMode::ArchitectureIndependent,
        ..config.clone()
    };
    let benchmarks = all_benchmarks();
    let (rows, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let run = |heap| matrix.run(Cell::new(profile, heap, &config));
        let kg_n = run(HeapConfig::kg_n());
        let baseline = kg_n.pcm_app_writes().max(1) as f64;
        let kg_n_12 = run(HeapConfig::kg_n_large_nursery());
        let kg_w = run(HeapConfig::kg_w());
        let kg_w_pm = run(HeapConfig::kg_w_no_primitive_monitoring());
        (
            HardwareWritesRow {
                benchmark: profile.name.to_string(),
                kg_n_12: kg_n_12.pcm_app_writes() as f64 / baseline,
                kg_w: kg_w.pcm_app_writes() as f64 / baseline,
                kg_w_pm: kg_w_pm.pcm_app_writes() as f64 / baseline,
            },
            TelemetryRollup::of([&kg_n, &kg_n_12, &kg_w, &kg_w_pm]),
        )
    }));
    HardwareWritesResults { rows, telemetry }
}
