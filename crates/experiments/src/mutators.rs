//! The multi-mutator comparison (`repro mutators --mutators K`).
//!
//! Runs every simulated benchmark under the `MutatorContext` API with K
//! interleaved mutator threads and verifies the redesign's exactness
//! guarantee end to end: in architecture-independent mode (the measurement
//! mode this experiment always uses), for every (benchmark, collector)
//! pair, the aggregate PCM and DRAM device write counts at K mutators are
//! **identical** to the K=1 run — every barrier event batched in a
//! context's store buffer and every device event recorded in a context's
//! counter shard arrives, none twice. The table also reports the per-context PCM write attribution
//! the sharded counters provide for free, and re-checks the KG-D ≤ KG-N
//! bound under K mutators. A final row exercises the GraphChi-style
//! streaming workload (phase change mid-run) under the same driver.

use kingsguard::{HeapConfig, KingsguardHeap};
use workloads::{benchmark, StreamingConfig, StreamingWorkload, SyntheticMutator};

use hybrid_mem::{MemoryKind, ShardStats};

use crate::report::TextTable;
use crate::runner::{heap_config_for, run_jobs, ExperimentConfig};
use crate::traces::config_for;

/// The collector labels of the comparison, in row order per benchmark.
pub const MUTATOR_CONFIGS: [&str; 5] = ["PCM-only", "KG-N", "KG-W", "KG-A", "KG-D"];

/// One (benchmark, collector) comparison.
#[derive(Clone, Debug)]
pub struct MutatorRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Collector label.
    pub collector: String,
    /// Aggregate PCM device writes of the K=1 run.
    pub pcm_writes_k1: u64,
    /// Aggregate PCM device writes of the K-mutator run.
    pub pcm_writes_k: u64,
    /// Aggregate DRAM device writes of the K=1 run.
    pub dram_writes_k1: u64,
    /// Aggregate DRAM device writes of the K-mutator run.
    pub dram_writes_k: u64,
    /// Estimated 32-core PCM write rate of the K-mutator run in bytes/s
    /// (the metric of the paper's lifetime bound and of the adaptive
    /// comparison).
    pub pcm_write_rate_k: f64,
    /// Per-context PCM write attribution of the K-mutator run.
    pub context_pcm_writes: Vec<u64>,
    /// GC pause count of the K-mutator run, rendered (deterministic: one
    /// sample per collection).
    pub gc_pauses_k: String,
    /// Maximum GC pause of the K-mutator run, rendered (wall-clock timing).
    pub max_pause_k: String,
}

impl MutatorRow {
    /// Returns `true` if the K-mutator aggregates match K=1 exactly.
    pub fn exact(&self) -> bool {
        self.pcm_writes_k1 == self.pcm_writes_k && self.dram_writes_k1 == self.dram_writes_k
    }
}

/// Outcome of the streaming-workload row.
#[derive(Clone, Debug)]
pub struct StreamingRow {
    /// KG-N PCM device writes.
    pub kg_n_pcm_writes: u64,
    /// KG-D PCM device writes.
    pub kg_d_pcm_writes: u64,
    /// Per-site advisories KG-D learned during the run.
    pub kg_d_promotions: u64,
    /// Stale advisories KG-D revoked after the phase change.
    pub kg_d_reversions: u64,
}

/// Results of the multi-mutator comparison.
#[derive(Clone, Debug)]
pub struct MutatorResults {
    /// Mutator threads of the K runs.
    pub mutators: usize,
    /// Per-(benchmark, collector) rows.
    pub rows: Vec<MutatorRow>,
    /// The streaming-workload comparison under the same driver.
    pub streaming: StreamingRow,
}

impl MutatorResults {
    /// Number of rows whose K aggregates match K=1 exactly.
    pub fn exact_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.exact()).count()
    }

    /// Number of benchmarks where KG-D's estimated 32-core PCM write rate
    /// at K mutators is ≤ KG-N's at K (the same metric as the adaptive
    /// comparison and the paper's lifetime bound).
    pub fn kg_d_wins(&self) -> usize {
        let kg_n_rate = |benchmark: &str| {
            self.rows
                .iter()
                .find(|r| r.benchmark == benchmark && r.collector == "KG-N")
                .map(|r| r.pcm_write_rate_k)
        };
        self.rows
            .iter()
            .filter(|r| r.collector == "KG-D")
            .filter(|r| r.pcm_write_rate_k <= kg_n_rate(&r.benchmark).unwrap_or(0.0))
            .count()
    }

    /// Number of benchmarks in the comparison.
    pub fn benchmarks(&self) -> usize {
        self.rows.len() / MUTATOR_CONFIGS.len()
    }

    /// Renders the comparison table.
    pub fn report(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Multi-mutator heap API: {} interleaved mutator threads vs 1\n\
                 (PCM/DRAM device writes must match exactly — sharded counters and batched\n\
                 barriers lose no events; 'Per-context PCM' is the K-run write attribution)",
                self.mutators
            ),
            &[
                "Benchmark",
                "Collector",
                "PCM K=1",
                &format!("PCM K={}", self.mutators),
                "Exact",
                "Per-context PCM",
                "GCs",
                "Max pause",
            ],
        );
        for row in &self.rows {
            table.row(vec![
                row.benchmark.clone(),
                row.collector.clone(),
                row.pcm_writes_k1.to_string(),
                row.pcm_writes_k.to_string(),
                if row.exact() { "yes" } else { "NO" }.to_string(),
                row.context_pcm_writes
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                row.gc_pauses_k.clone(),
                row.max_pause_k.clone(),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "exact shard merge on {}/{} (benchmark, collector) pairs; KG-D PCM write rate <= KG-N on {}/{} benchmarks at K={}\n",
            self.exact_rows(),
            self.rows.len(),
            self.kg_d_wins(),
            self.benchmarks(),
            self.mutators
        ));
        out.push_str(&format!(
            "graphchi.stream (phase change): KG-D {} vs KG-N {} PCM writes, {} sites learned, {} un-learned\n",
            self.streaming.kg_d_pcm_writes,
            self.streaming.kg_n_pcm_writes,
            self.streaming.kg_d_promotions,
            self.streaming.kg_d_reversions
        ));
        out
    }
}

fn run_with_mutators(
    name: &str,
    heap_config: HeapConfig,
    config: &ExperimentConfig,
    mutators: usize,
) -> (kingsguard::RunReport, Vec<ShardStats>) {
    let profile = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut heap = KingsguardHeap::new(
        heap_config_for(&profile, heap_config, config),
        hybrid_mem::MemoryConfig::architecture_independent(),
    );
    heap.enable_telemetry();
    let workload = SyntheticMutator::new(profile, config.workload());
    let traffic = workload.run_multi_configured(
        &mut heap,
        mutators,
        kingsguard::MutatorConfig::default(),
        |_, _| {},
    );
    (heap.finish(), traffic)
}

/// Estimated 32-core PCM write rate of a run in bytes/s (the shared
/// derivation of [`crate::runner::report_pcm_write_rate_32core`]).
fn pcm_write_rate(name: &str, report: &kingsguard::RunReport) -> f64 {
    let profile = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    crate::runner::report_pcm_write_rate_32core(report, profile.scaling_factor.unwrap_or(1.0))
}

fn streaming_row(config: &ExperimentConfig, mutators: usize) -> StreamingRow {
    let run = |heap_config: HeapConfig| {
        let mut heap = KingsguardHeap::new(
            heap_config.with_heap_budget(512 * 1024),
            hybrid_mem::MemoryConfig::architecture_independent(),
        );
        let workload = StreamingWorkload::new(StreamingConfig {
            mutators,
            seed: config.seed,
            scale: config.scale,
            ..Default::default()
        });
        workload.run(&mut heap);
        let adaptation = heap.policy().adaptation_counters().unwrap_or((0, 0));
        (heap.finish(), adaptation)
    };
    let (kg_n, _) = run(HeapConfig::kg_n());
    let (kg_d, (promotions, reversions)) = run(HeapConfig::kg_d());
    StreamingRow {
        kg_n_pcm_writes: kg_n.memory.writes(MemoryKind::Pcm),
        kg_d_pcm_writes: kg_d.memory.writes(MemoryKind::Pcm),
        kg_d_promotions: promotions,
        kg_d_reversions: reversions,
    }
}

/// Runs the multi-mutator comparison over `benchmarks` with `mutators`
/// interleaved mutator threads per run, fanning the (benchmark, collector)
/// pairs over `config.jobs` worker threads.
pub fn mutator_scaling(config: &ExperimentConfig, benchmarks: &[&str], mutators: usize) -> MutatorResults {
    let mutators = mutators.max(1);
    let pairs: Vec<(&str, &str)> = benchmarks
        .iter()
        .flat_map(|&b| MUTATOR_CONFIGS.iter().map(move |&c| (b, c)))
        .collect();
    let rows = run_jobs(&pairs, config.jobs, |&(name, collector)| {
        let (base, _) = run_with_mutators(name, config_for(collector), config, 1);
        let (multi, traffic) = run_with_mutators(name, config_for(collector), config, mutators);
        MutatorRow {
            benchmark: name.to_string(),
            collector: collector.to_string(),
            pcm_writes_k1: base.memory.writes(MemoryKind::Pcm),
            pcm_writes_k: multi.memory.writes(MemoryKind::Pcm),
            dram_writes_k1: base.memory.writes(MemoryKind::Dram),
            dram_writes_k: multi.memory.writes(MemoryKind::Dram),
            pcm_write_rate_k: pcm_write_rate(name, &multi),
            context_pcm_writes: traffic.iter().map(|t| t.writes(MemoryKind::Pcm)).collect(),
            gc_pauses_k: crate::report::pause_count_cell_of(multi.telemetry.as_ref()),
            max_pause_k: crate::report::max_pause_cell_of(multi.telemetry.as_ref()),
        }
    });
    MutatorResults {
        mutators,
        rows,
        streaming: streaming_row(config, mutators),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_exact_for_every_collector_and_kg_d_holds() {
        let config = ExperimentConfig::quick();
        let results = mutator_scaling(&config, &["lusearch", "pmd"], 4);
        assert_eq!(results.rows.len(), 2 * MUTATOR_CONFIGS.len());
        assert_eq!(
            results.exact_rows(),
            results.rows.len(),
            "sharded merge lost or duplicated events:\n{}",
            results.report()
        );
        assert_eq!(results.kg_d_wins(), 2, "KG-D must hold its bound at K=4");
        for row in &results.rows {
            assert_eq!(row.context_pcm_writes.len(), 4);
        }
        assert!(
            results.streaming.kg_d_reversions > 0,
            "the streaming phase change must trigger un-learning"
        );
        let report = results.report();
        assert!(report.contains("graphchi.stream"));
        assert!(report.contains("exact shard merge"));
    }

    #[test]
    fn threaded_mutator_comparison_matches_sequential() {
        let sequential = mutator_scaling(&ExperimentConfig::quick(), &["lu.fix"], 2);
        let threaded = mutator_scaling(&ExperimentConfig::quick().with_jobs(4), &["lu.fix"], 2);
        for (a, b) in sequential.rows.iter().zip(&threaded.rows) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.collector, b.collector);
            assert_eq!(a.pcm_writes_k, b.pcm_writes_k);
            assert_eq!(a.context_pcm_writes, b.context_pcm_writes);
        }
    }
}
