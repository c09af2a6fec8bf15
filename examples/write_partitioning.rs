//! Compares the Kingsguard collectors against the OS Write Partitioning
//! baseline (the paper's Section 6.1.3 / Figure 7) for one benchmark.
//!
//! Run with `cargo run --release --example write_partitioning [benchmark]`.

use experiments::runner::{Cell, ExperimentConfig, Matrix};
use hybrid_mem::MemoryKind;
use kingsguard::HeapConfig;
use workloads::benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lusearch".to_string());
    let profile = benchmark(&name).unwrap_or_else(|| panic!("unknown benchmark: {name}"));
    let config = ExperimentConfig::simulation();

    let matrix = Matrix::default();
    let run = |heap_config| matrix.run(Cell::new(&profile, heap_config, &config));
    let pcm_only = run(HeapConfig::gen_immix_pcm());
    let kg_n = run(HeapConfig::kg_n());
    let kg_w = run(HeapConfig::kg_w());
    let wp = matrix.run(Cell::write_partitioning(&profile, &config));
    let base = pcm_only.pcm_writes().max(1) as f64;

    println!("benchmark: {}", profile.name);
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>12}",
        "system", "PCM writes", "vs PCM-only", "migrations", "DRAM MB"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>12}",
        "PCM-only",
        pcm_only.pcm_writes(),
        "1.00",
        "-",
        "-"
    );
    for result in [&kg_n, &kg_w] {
        println!(
            "{:<10} {:>12} {:>12.2} {:>14} {:>12.1}",
            result.collector,
            result.pcm_writes(),
            result.pcm_writes() as f64 / base,
            "-",
            result.gc.peak_dram_mapped as f64 / (1 << 20) as f64,
        );
    }
    let wp_stats = wp.wp.expect("WP run carries WP statistics");
    println!(
        "{:<10} {:>12} {:>12.2} {:>14} {:>12.1}",
        "WP",
        wp.pcm_writes(),
        wp.pcm_writes() as f64 / base,
        wp.memory.migration_writes(MemoryKind::Pcm),
        (wp_stats.peak_dram_pages * hybrid_mem::PAGE_SIZE) as f64 / (1 << 20) as f64,
    );
    println!(
        "\nWP promoted {} pages to DRAM and demoted {} back over {} OS quanta.",
        wp_stats.promotions, wp_stats.demotions, wp_stats.quanta
    );
}
