//! The PCM fault-injection sweep (`repro faults`).
//!
//! Runs one benchmark under each collector with deterministic, accelerated
//! line wear-out injected at every [`hybrid_mem::Endurance`] level, and
//! reports how gracefully each collector degrades: how many lines failed,
//! how many pages became ECC-uncorrectable and were retired (their live
//! objects evacuated at a safepoint, the page remapped to DRAM spare
//! capacity), how much PCM capacity was lost, and the analytic *real-time*
//! years until the first uncorrectable page under the run's observed
//! per-line write rates (the acceleration knob divides back out of that
//! projection, so the column is comparable to Figure 1's lifetime model).
//! The years column is a *calendar* projection at each configuration's own
//! execution speed: a slow PCM-nursery run spreads the same wear over more
//! wall-clock, so compare it alongside the per-work columns (failed lines,
//! retired pages), which fall monotonically from PCM-only to KG-D.
//!
//! Every cell is crash-isolated: a collector that cannot survive its fault
//! schedule is reported as `died` in the survival column (with its panic
//! message) instead of taking the sweep down, and the sweep itself stays
//! deterministic — same seed, same schedule, same table.

use hybrid_mem::{Endurance, FaultConfig};
use workloads::benchmark;

use crate::report::TextTable;
use crate::runner::{run_jobs_reporting, Cell, ExperimentConfig, Matrix};
use crate::traces::config_for;

/// Collector labels of the sweep, in row order: the unprotected baseline,
/// the paper's two static Kingsguard variants, and the online-adaptive
/// KG-D (which additionally treats every retirement as a demotion signal
/// for the page's allocation sites).
pub const FAULT_COLLECTORS: [&str; 4] = ["PCM-only", "KG-N", "KG-W", "KG-D"];

/// The fault schedule one sweep cell runs under: accelerated wear around
/// `endurance`, additionally boosted by the workload scale so the injected
/// wear per line is roughly scale-invariant (scaled-down workloads write
/// each line proportionally fewer times), plus a transient-flip cadence to
/// exercise the ECC-corrected (non-fatal) path.
pub fn sweep_fault_config(config: &ExperimentConfig, endurance: Endurance) -> FaultConfig {
    let accelerated = FaultConfig::accelerated(config.seed, endurance);
    accelerated
        .with_wear_multiplier(accelerated.wear_multiplier.saturating_mul(config.scale.max(1)))
        .with_transient_period(1 << 12)
}

/// One (collector, endurance) cell of the sweep.
#[derive(Clone, Debug)]
pub struct FaultCell {
    /// Collector label.
    pub collector: String,
    /// Endurance level the per-line budgets were drawn around.
    pub endurance: Endurance,
    /// Permanently failed PCM lines at the end of the run.
    pub failed_lines: u64,
    /// Pages that crossed the ECC-correctable threshold and were retired.
    pub retired_pages: u64,
    /// PCM capacity lost to retired pages, in bytes.
    pub degraded_bytes: u64,
    /// Transient (ECC-corrected) bit flips absorbed during the run.
    pub transient_faults: u64,
    /// Live objects evacuated off dying pages before they were fenced.
    pub evacuated_objects: u64,
    /// Analytic real-time years until the first uncorrectable page at the
    /// run's observed write rates (`None`: no page would ever fail).
    pub years_to_uncorrectable: Option<f64>,
    /// `None` when the run completed; `Some(panic message)` when it died.
    pub died: Option<String>,
}

impl FaultCell {
    /// `true` when the collector completed the run under its fault schedule.
    pub fn survived(&self) -> bool {
        self.died.is_none()
    }
}

/// Results of the endurance sweep over one benchmark.
#[derive(Clone, Debug)]
pub struct FaultResults {
    /// Benchmark the sweep ran.
    pub benchmark: String,
    /// One cell per (endurance, collector), endurance-major.
    pub cells: Vec<FaultCell>,
}

fn run_cell(
    matrix: &Matrix,
    config: &ExperimentConfig,
    benchmark_name: &str,
    label: &str,
    endurance: Endurance,
) -> FaultCell {
    let profile = benchmark(benchmark_name)
        .unwrap_or_else(|| panic!("unknown fault-sweep benchmark {benchmark_name:?}"));
    let cell_config = config.clone().with_faults(sweep_fault_config(config, endurance));
    // A faulted cell ends with the maintenance collection that retires the
    // pages its late wear failed (see `Cell`), and reports the real-time
    // projection from its per-line write counts.
    let result = matrix.run(Cell::new(&profile, config_for(label), &cell_config));
    FaultCell {
        collector: label.to_string(),
        endurance,
        failed_lines: result.memory.failed_pcm_lines,
        retired_pages: result.memory.retired_pcm_pages,
        degraded_bytes: result.memory.degraded_pcm_bytes,
        transient_faults: result.memory.transient_pcm_faults,
        evacuated_objects: result.gc.fault_evacuated_objects,
        years_to_uncorrectable: result.years_to_uncorrectable,
        died: None,
    }
}

/// Runs the endurance sweep: [`FAULT_COLLECTORS`] × [`Endurance::ALL`] over
/// `benchmark_name`, fanned over `config.jobs` worker threads. Cells are
/// crash-isolated; a panicking collector becomes a `died` row.
pub fn fault_sweep(matrix: &Matrix, config: &ExperimentConfig, benchmark_name: &str) -> FaultResults {
    let pairs: Vec<(Endurance, &str)> = Endurance::ALL
        .iter()
        .flat_map(|&endurance| FAULT_COLLECTORS.iter().map(move |&label| (endurance, label)))
        .collect();
    let (results, failures) = run_jobs_reporting(&pairs, config.jobs, |&(endurance, label)| {
        run_cell(matrix, config, benchmark_name, label, endurance)
    });
    let cells = results
        .into_iter()
        .enumerate()
        .zip(&pairs)
        .map(|((index, slot), &(endurance, label))| match slot {
            Some(cell) => cell,
            None => {
                let message = failures
                    .iter()
                    .find(|failure| failure.index == index)
                    .map(|failure| failure.message.clone())
                    .unwrap_or_else(|| "unknown failure".to_string());
                FaultCell {
                    collector: label.to_string(),
                    endurance,
                    failed_lines: 0,
                    retired_pages: 0,
                    degraded_bytes: 0,
                    transient_faults: 0,
                    evacuated_objects: 0,
                    years_to_uncorrectable: None,
                    died: Some(message),
                }
            }
        })
        .collect();
    FaultResults {
        benchmark: benchmark_name.to_string(),
        cells,
    }
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

impl FaultResults {
    /// Number of cells whose collector survived its fault schedule.
    pub fn survivors(&self) -> usize {
        self.cells.iter().filter(|cell| cell.survived()).count()
    }

    /// Renders the sweep table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "PCM fault injection on {}: accelerated line wear-out per endurance level\n\
                 ('Years to UE' = analytic real-time years until the first ECC-uncorrectable page\n\
                 at the run's observed write rates; 'Evacuated' = live objects moved off dying\n\
                 pages before retirement; survival 'ok' = the run completed without data loss)",
                self.benchmark
            ),
            &[
                "Collector",
                "Endurance",
                "Failed lines",
                "Retired pages",
                "Degraded",
                "Transients",
                "Evacuated",
                "Years to UE",
                "Survived",
            ],
        );
        for cell in &self.cells {
            table.row(vec![
                cell.collector.clone(),
                cell.endurance.label().to_string(),
                cell.failed_lines.to_string(),
                cell.retired_pages.to_string(),
                format_bytes(cell.degraded_bytes),
                cell.transient_faults.to_string(),
                cell.evacuated_objects.to_string(),
                format_years(cell.years_to_uncorrectable),
                match &cell.died {
                    None => "ok".to_string(),
                    Some(message) => format!("died: {message}"),
                },
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "{}/{} cells survived their fault schedule\n",
            self.survivors(),
            self.cells.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{diff_docs, TelemetryDoc};

    #[test]
    fn fault_sweep_is_deterministic_and_every_collector_survives() {
        let config = ExperimentConfig::quick();
        let first = fault_sweep(&Matrix::default(), &config, "lusearch");
        let second = fault_sweep(&Matrix::default(), &config.clone().with_jobs(3), "lusearch");
        assert_eq!(first.cells.len(), FAULT_COLLECTORS.len() * Endurance::ALL.len());
        assert_eq!(first.survivors(), first.cells.len(), "no collector may die");
        for (a, b) in first.cells.iter().zip(&second.cells) {
            assert_eq!(a.collector, b.collector);
            assert_eq!(a.endurance, b.endurance);
            let tag = format!("{} @ {}", a.collector, a.endurance.label());
            assert_eq!(a.failed_lines, b.failed_lines, "{tag}");
            assert_eq!(a.retired_pages, b.retired_pages, "{tag}");
            assert_eq!(a.degraded_bytes, b.degraded_bytes, "{tag}");
            assert_eq!(a.transient_faults, b.transient_faults, "{tag}");
            assert_eq!(a.evacuated_objects, b.evacuated_objects, "{tag}");
            assert_eq!(
                a.years_to_uncorrectable.map(f64::to_bits),
                b.years_to_uncorrectable.map(f64::to_bits),
                "{tag}"
            );
        }
        // The accelerated schedule must actually exercise the wear-out
        // machinery: the unprotected baseline, whose nursery churns PCM
        // lines hardest, must fail lines at every endurance level. (The
        // acceleration knob normalizes endurance out of *in-run* failure
        // counts by construction; endurance differentiates the rows through
        // the real-time years-to-uncorrectable projection instead.)
        for endurance in Endurance::ALL {
            let baseline = first
                .cells
                .iter()
                .find(|cell| cell.collector == "PCM-only" && cell.endurance == endurance)
                .unwrap();
            assert!(
                baseline.failed_lines > 0,
                "accelerated wear never failed a line at {}",
                endurance.label()
            );
            assert!(
                baseline.retired_pages > 0,
                "the maintenance collection never retired a page at {}",
                endurance.label()
            );
            assert!(
                baseline.degraded_bytes > 0 && baseline.transient_faults > 0,
                "degradation accounting is dead at {}",
                endurance.label()
            );
        }
        // Retirement must flow through the safepoint evacuation protocol,
        // not just the non-heap fast path: at least one collector moves
        // live objects off dying mature pages.
        assert!(
            first.cells.iter().any(|cell| cell.evacuated_objects > 0),
            "no cell ever evacuated a live object off a dying page"
        );
        let report = first.report();
        assert!(report.contains("lusearch"));
        assert!(report.contains("ok"));
        assert!(!report.contains("died"));
    }

    #[test]
    fn a_dying_cell_is_reported_not_fatal() {
        let config = ExperimentConfig::quick();
        let results = fault_sweep(&Matrix::default(), &config, "lusearch");
        // Simulate a died cell through the same rendering path.
        let mut cells = results.cells.clone();
        cells[0].died = Some("mature space exhausted".to_string());
        let doctored = FaultResults {
            benchmark: results.benchmark.clone(),
            cells,
        };
        assert_eq!(doctored.survivors(), doctored.cells.len() - 1);
        assert!(doctored.report().contains("died: mature space exhausted"));
        // And an unknown benchmark panics inside the cell, which the sweep
        // converts into a died row instead of propagating.
        let bad = fault_sweep(&Matrix::default(), &config, "no-such-benchmark");
        assert_eq!(bad.survivors(), 0);
        assert!(bad.cells.iter().all(|cell| {
            cell.died
                .as_deref()
                .is_some_and(|message| message.contains("no-such-benchmark"))
        }));
    }

    #[test]
    fn faulted_telemetry_runs_have_zero_metric_drift() {
        // Same seed, same fault schedule -> bit-identical .kgmetrics
        // documents, pinning fault determinism end to end through the
        // telemetry pipeline (`repro metrics diff` gates on exactly this).
        let base = std::env::temp_dir().join(format!("kgfault-metrics-{}", std::process::id()));
        let profile = benchmark("lu.fix").unwrap();
        let fault = sweep_fault_config(&ExperimentConfig::quick(), Endurance::Low10M);
        let mut docs = Vec::new();
        for tag in ["a", "b"] {
            let dir = base.join(tag);
            let config = ExperimentConfig::quick()
                .with_faults(fault)
                .with_telemetry_dir(&dir);
            // The PCM-nursery baseline churns PCM lines hardest, so the
            // schedule is guaranteed to fire.
            let cell = Cell::new(&profile, kingsguard::HeapConfig::gen_immix_pcm(), &config);
            let result = Matrix::default().run(cell.clone());
            assert!(result.memory.failed_pcm_lines > 0, "faults must actually fire");
            docs.push(TelemetryDoc::load(&cell.metrics_path(&dir)).unwrap());
        }
        let diff = diff_docs(&docs[0], &docs[1]);
        assert!(!diff.has_drift(), "fault metrics drifted: {:?}", diff.drift);
        // The fault counters are part of the compared document.
        assert!(docs[0].counters.contains_key("fault.lines_failed"));
        std::fs::remove_dir_all(&base).ok();
    }
}
