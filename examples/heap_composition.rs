//! Prints the heap-composition time series of Figure 13: how many MB of the
//! mature heap live in PCM vs DRAM over time under Kingsguard-writers.
//!
//! Run with `cargo run --release --example heap_composition [benchmark...]`.

use experiments::composition;
use experiments::runner::{ExperimentConfig, Matrix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["pagerank", "eclipse"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let config = ExperimentConfig::architecture_independent();
    let results = composition::figure13_for(&Matrix::default(), &config, &names);
    print!("{}", results.report());
    for series in &results.series {
        println!(
            "{}: KG-W uses up to {:.1} MB of PCM while holding only {:.1} MB in mature DRAM",
            series.benchmark,
            series.peak_pcm_bytes() as f64 / (1 << 20) as f64,
            series.peak_dram_bytes() as f64 / (1 << 20) as f64,
        );
    }
}
