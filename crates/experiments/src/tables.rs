//! Tables 1–4 of the paper.

use hybrid_mem::devices::{self, CPU_FREQ_GHZ, MEMORY_BANDWIDTH_GBPS};
use hybrid_mem::MemoryKind;
use kingsguard::{BarrierMode, HeapConfig};
use workloads::{all_benchmarks, simulated_benchmarks};

use crate::report::{collect_rows, mean, percent, TelemetryRollup, TextTable};
use crate::runner::{run_benchmark, run_benchmark_with_wp, run_jobs, ExperimentConfig};

/// Table 1: collector configurations (a static description).
pub fn table1() -> String {
    let mut table = TextTable::new(
        "Table 1: collector configurations",
        &[
            "Configuration",
            "monitor writes",
            "metadata in DRAM",
            "LOO in nursery",
        ],
    );
    let configs = [
        HeapConfig::kg_n(),
        HeapConfig::kg_w(),
        HeapConfig::kg_w_no_loo(),
        HeapConfig::kg_w_no_loo_no_mdo(),
    ];
    let yes_no = |flag: bool| if flag { "yes" } else { "no" }.to_string();
    for config in configs {
        let constraints = kingsguard::policy::from_config(&config).constraints();
        table.row(vec![
            config.label(),
            yes_no(constraints.barrier != BarrierMode::None),
            yes_no(constraints.metadata_marks_in_dram),
            yes_no(constraints.large_object_optimization),
        ]);
    }
    table.render()
}

/// Table 2: simulated system parameters (the memory-model constants in use).
pub fn table2() -> String {
    let dram = devices::params_for(MemoryKind::Dram);
    let pcm = devices::params_for(MemoryKind::Pcm);
    let mut table = TextTable::new(
        "Table 2: simulated system parameters",
        &["Component", "Parameters"],
    );
    table.row(vec![
        "Core".into(),
        format!("{CPU_FREQ_GHZ} GHz, out-of-order (mechanistic model)"),
    ]);
    table.row(vec![
        "Memory bandwidth".into(),
        format!("{MEMORY_BANDWIDTH_GBPS} GB/s"),
    ]);
    table.row(vec![
        "Memory systems".into(),
        "32 GB DRAM-only / 32 GB PCM-only / hybrid 1 GB DRAM + 32 GB PCM".into(),
    ]);
    table.row(vec![
        "DRAM parameters".into(),
        format!(
            "{:.0} ns read/write, {:.3} W read, {:.3} W write",
            dram.read_latency_ns, dram.read_power_w, dram.write_power_w
        ),
    ]);
    table.row(vec![
        "PCM parameters".into(),
        format!(
            "{:.0} ns read, {:.0} ns write, {:.3} W read, {:.1} W write, {} M writes/cell, fine-grained wear-leveling",
            pcm.read_latency_ns,
            pcm.write_latency_ns,
            pcm.read_power_w,
            pcm.write_power_w,
            pcm.endurance_writes.unwrap_or(0) / 1_000_000
        ),
    ]);
    table.row(vec![
        "Caches".into(),
        "32 KB L1-D (8-way), 256 KB L2 (8-way), 4 MB shared L3 (16-way), 64 B lines".into(),
    ]);
    table.render()
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct WriteRateRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured (published) 4→32-core scaling factor.
    pub scaling_factor: f64,
    /// Simulated 4-core PCM write rate in GB/s (PCM-only system).
    pub simulated_4core_gbps: f64,
    /// Estimated 32-core write rate in GB/s (simulated × scaling factor).
    pub estimated_32core_gbps: f64,
    /// The paper's estimated 32-core write rate in GB/s.
    pub paper_gbps: f64,
}

/// Table 3 results.
#[derive(Clone, Debug)]
pub struct WriteRateResults {
    /// One row per simulation-subset benchmark.
    pub rows: Vec<WriteRateRow>,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl WriteRateResults {
    /// Average estimated 32-core write rate in GB/s.
    pub fn average_estimated_gbps(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.estimated_32core_gbps)
                .collect::<Vec<_>>(),
        )
    }

    /// Renders the Table 3 report.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            "Table 3: measured scaling and estimated 32-core write rates (PCM-only)",
            &[
                "Benchmark",
                "Scaling factor",
                "4-core GB/s (sim)",
                "32-core GB/s (est.)",
                "32-core GB/s (paper)",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                format!("{:.1}x", row.scaling_factor),
                format!("{:.2}", row.simulated_4core_gbps),
                format!("{:.1}", row.estimated_32core_gbps),
                format!("{:.1}", row.paper_gbps),
            ]);
        }
        table.render() + &self.telemetry.appendix()
    }
}

/// Table 3: write-rate estimation for the simulation subset.
pub fn table3(config: &ExperimentConfig) -> WriteRateResults {
    let benchmarks = simulated_benchmarks();
    let (rows, telemetry) = collect_rows(run_jobs(&benchmarks, config.jobs, |profile| {
        let result = run_benchmark(profile, HeapConfig::gen_immix_pcm(), config);
        let four_core = result.pcm_write_rate_4core() / 1e9;
        let scaling = profile.scaling_factor.unwrap_or(1.0);
        let mut rollup = TelemetryRollup::default();
        rollup.absorb(&result);
        (
            WriteRateRow {
                benchmark: profile.name.to_string(),
                scaling_factor: scaling,
                simulated_4core_gbps: four_core,
                estimated_32core_gbps: four_core * scaling,
                paper_gbps: profile.paper_write_rate_gbps.unwrap_or(0.0),
            },
            rollup,
        )
    }));
    WriteRateResults { rows, telemetry }
}

/// One row of Table 4.
#[derive(Clone, Debug)]
pub struct DemographicsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Allocation volume in MB (scaled back to the paper's units).
    pub allocation_mb: f64,
    /// Heap size in MB (the paper's 2× minimum live size).
    pub heap_mb: f64,
    /// Nursery survival under KG-N.
    pub nursery_survival_kg_n: f64,
    /// Nursery survival under KG-W.
    pub nursery_survival_kg_w: f64,
    /// Peak PCM mapped by KG-N, in (unscaled) MB.
    pub kg_n_pcm_mb: f64,
    /// Peak PCM mapped by KG-W, in MB.
    pub kg_w_pcm_mb: f64,
    /// Peak DRAM mapped by KG-W, in MB.
    pub kg_w_dram_mb: f64,
    /// Peak DRAM used by the WP baseline's DRAM partition, in MB (only for
    /// the simulation subset; 0 otherwise).
    pub wp_dram_mb: f64,
    /// Fraction of the KG-W heap held in the DRAM mature space.
    pub kg_w_mature_dram_fraction: f64,
    /// KG-W metadata (mark tables) in MB.
    pub kg_w_metadata_mb: f64,
    /// Observer-space survival rate.
    pub observer_survival: f64,
    /// Fraction of observer survivors (bytes) held in DRAM.
    pub held_in_dram_bytes: f64,
    /// Fraction of observer survivors (objects) held in DRAM.
    pub held_in_dram_objects: f64,
}

/// Table 4 results.
#[derive(Clone, Debug)]
pub struct Table4Results {
    /// One row per benchmark (all 18).
    pub rows: Vec<DemographicsRow>,
    /// The scale factor used (needed to interpret absolute MB values).
    pub scale: u64,
    /// Telemetry rollup of the runs behind the table.
    pub telemetry: TelemetryRollup,
}

impl Table4Results {
    /// Average nursery survival across benchmarks (the paper reports ~17 %).
    pub fn average_nursery_survival(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.nursery_survival_kg_w)
                .collect::<Vec<_>>(),
        )
    }

    /// Average fraction of observer survivors held in DRAM (the paper
    /// reports ~10 % of objects).
    pub fn average_held_in_dram_objects(&self) -> f64 {
        mean(
            &self
                .rows
                .iter()
                .map(|r| r.held_in_dram_objects)
                .collect::<Vec<_>>(),
        )
    }

    /// Renders the Table 4 report.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Table 4: object demographics (spaces scaled down by {}x)",
                self.scale
            ),
            &[
                "Benchmark",
                "alloc MB",
                "heap MB",
                "% nursery survival",
                "KG-N PCM MB",
                "KG-W PCM MB",
                "KG-W DRAM MB",
                "WP DRAM MB",
                "% mature in DRAM",
                "metadata MB",
                "% observer survival",
                "% held in DRAM (MB/obj)",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                format!("{:.0}", row.allocation_mb),
                format!("{:.0}", row.heap_mb),
                percent(row.nursery_survival_kg_w),
                format!("{:.1}", row.kg_n_pcm_mb),
                format!("{:.1}", row.kg_w_pcm_mb),
                format!("{:.1}", row.kg_w_dram_mb),
                if row.wp_dram_mb > 0.0 {
                    format!("{:.1}", row.wp_dram_mb)
                } else {
                    "-".to_string()
                },
                percent(row.kg_w_mature_dram_fraction),
                format!("{:.2}", row.kg_w_metadata_mb),
                percent(row.observer_survival),
                format!(
                    "{}/{}",
                    percent(row.held_in_dram_bytes),
                    percent(row.held_in_dram_objects)
                ),
            ]);
        }
        table.render() + &self.telemetry.appendix()
    }
}

/// Table 4: object demographics and space consumption per benchmark.
///
/// When `include_wp` is `true`, the WP baseline is additionally run for the
/// simulation subset to fill the "WP DRAM" column.
pub fn table4(config: &ExperimentConfig, include_wp: bool) -> Table4Results {
    let config = ExperimentConfig {
        mode: crate::MeasurementMode::ArchitectureIndependent,
        ..config.clone()
    };
    let to_mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    let benchmarks = all_benchmarks();
    let pairs = run_jobs(&benchmarks, config.jobs, |profile| {
        let kg_n = run_benchmark(profile, HeapConfig::kg_n(), &config);
        let kg_w = run_benchmark(profile, HeapConfig::kg_w(), &config);
        let mut rollup = TelemetryRollup::default();
        rollup.absorb(&kg_n);
        rollup.absorb(&kg_w);
        let wp_dram_mb = if include_wp && profile.simulated {
            let wp = run_benchmark_with_wp(profile, &config);
            wp.wp
                .map(|s| to_mb((s.peak_dram_pages * hybrid_mem::PAGE_SIZE) as u64))
                .unwrap_or(0.0)
        } else {
            0.0
        };
        let heap_bytes = kg_w.gc.peak_pcm_mapped + kg_w.gc.peak_dram_mapped;
        let row = DemographicsRow {
            benchmark: profile.name.to_string(),
            allocation_mb: to_mb(kg_w.gc.bytes_allocated) * config.scale as f64,
            heap_mb: profile.heap_mb as f64,
            nursery_survival_kg_n: kg_n.gc.nursery_survival(),
            nursery_survival_kg_w: kg_w.gc.nursery_survival(),
            kg_n_pcm_mb: to_mb(kg_n.gc.peak_pcm_mapped),
            kg_w_pcm_mb: to_mb(kg_w.gc.peak_pcm_mapped),
            kg_w_dram_mb: to_mb(kg_w.gc.peak_dram_mapped),
            wp_dram_mb,
            kg_w_mature_dram_fraction: if heap_bytes > 0 {
                kg_w.gc.peak_mature_dram_used as f64 / heap_bytes as f64
            } else {
                0.0
            },
            kg_w_metadata_mb: to_mb(kg_w.gc.peak_metadata_used),
            observer_survival: kg_w.gc.observer_survival(),
            held_in_dram_bytes: kg_w.gc.observer_dram_fraction(),
            held_in_dram_objects: kg_w.gc.observer_dram_object_fraction(),
        };
        (row, rollup)
    });
    let (rows, telemetry) = collect_rows(pairs);
    Table4Results {
        rows,
        scale: config.scale,
        telemetry,
    }
}
