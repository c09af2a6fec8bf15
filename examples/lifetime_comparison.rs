//! Compares PCM lifetime under PCM-only, KG-N and KG-W for one benchmark,
//! reproducing the per-benchmark story of Figures 1 and 5.
//!
//! Run with `cargo run --release --example lifetime_comparison [benchmark]`.

use experiments::runner::{Cell, ExperimentConfig, Matrix};
use hybrid_mem::lifetime::Endurance;
use kingsguard::HeapConfig;
use workloads::benchmark;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lusearch".to_string());
    let profile = benchmark(&name).unwrap_or_else(|| panic!("unknown benchmark: {name}"));
    let config = ExperimentConfig::simulation();

    println!(
        "benchmark: {} ({} MB allocation, {} MB heap)",
        profile.name, profile.allocation_mb, profile.heap_mb
    );
    println!(
        "{:<10} {:>14} {:>18} {:>12}",
        "collector", "PCM writes", "32-core GB/s", "years @30M"
    );

    let mut baseline_years = None;
    for heap_config in [
        HeapConfig::gen_immix_pcm(),
        HeapConfig::kg_n(),
        HeapConfig::kg_w(),
    ] {
        let result = Matrix::default().run(Cell::new(&profile, heap_config, &config));
        let years = result.pcm_lifetime_years(Endurance::Mid30M.writes_per_cell());
        let improvement = match baseline_years {
            None => {
                baseline_years = Some(years);
                "1.0x".to_string()
            }
            Some(base) => format!("{:.1}x", years / base),
        };
        println!(
            "{:<10} {:>14} {:>18.2} {:>9.1} ({improvement})",
            result.collector,
            result.pcm_writes(),
            result.pcm_write_rate_32core() / 1e9,
            years,
        );
    }
}
