//! Regenerates the golden numbers pinned in `tests/policy_conformance.rs`.
//!
//! Run with `cargo run --release --example golden_capture` and paste the
//! output into the `GOLDEN`, `SIM_GOLDEN` and `OBJECT_GOLDEN` tables **only** when the
//! simulator or the workloads legitimately change behaviour; a
//! placement-policy change that shifts `GOLDEN`, or a cache-model change
//! that shifts `SIM_GOLDEN`, is a conformance regression, not a reason to
//! regenerate.

use experiments::runner::{run_benchmark, ExperimentConfig, MeasurementMode};
use hybrid_mem::{MemoryKind, Phase};
use kingsguard::HeapConfig;
use workloads::benchmark;

fn collectors() -> [HeapConfig; 7] {
    [
        HeapConfig::gen_immix_dram(),
        HeapConfig::gen_immix_pcm(),
        HeapConfig::kg_n(),
        HeapConfig::kg_w(),
        HeapConfig::kg_w_no_loo_no_mdo(),
        HeapConfig::kg_w_no_primitive_monitoring(),
        HeapConfig::kg_a(advice::AdviceTable::all_cold()),
    ]
}

fn main() {
    println!("// GOLDEN");
    for (name, config) in [
        ("lusearch", ExperimentConfig::quick()),
        ("lusearch", ExperimentConfig::quick().with_scale(512)),
        ("pmd", ExperimentConfig::quick()),
    ] {
        let profile = benchmark(name).unwrap();
        for heap_config in collectors() {
            let r = run_benchmark(&profile, heap_config, &config);
            println!(
                "(\"{}\", {}, \"{}\", {}, {}, {}, {}),",
                name,
                config.scale,
                r.collector,
                r.memory.writes(MemoryKind::Pcm),
                r.memory.writes(MemoryKind::Dram),
                r.gc.pcm_to_dram_rescues,
                r.gc.dram_to_pcm_demotions,
            );
        }
    }
    // The per-object statistics (Figure 2's write counts, the site tags
    // behind rescue/demotion/advice), which none of the rows above reads.
    println!("// OBJECT_GOLDEN");
    for (name, config) in [
        ("lusearch", ExperimentConfig::quick()),
        ("pmd", ExperimentConfig::quick()),
        ("lusearch", ExperimentConfig::quick().with_scale(512)),
        ("pmd", ExperimentConfig::quick().with_scale(48)),
    ] {
        let profile = benchmark(name).unwrap();
        for heap_config in [
            HeapConfig::kg_n(),
            HeapConfig::kg_w(),
            HeapConfig::kg_a(advice::AdviceTable::all_cold()),
            HeapConfig::kg_d(),
        ] {
            let r = run_benchmark(&profile, heap_config, &config);
            println!(
                "(\"{}\", {}, \"{}\", {:?}, {:?}, {}, {}, {}),",
                name,
                config.scale,
                r.collector,
                r.gc.top_mature_writer_share(0.02),
                r.gc.top_mature_writer_share(0.10),
                r.gc.pcm_to_dram_rescues,
                r.gc.dram_to_pcm_demotions,
                r.gc.advised_to_dram_objects,
            );
        }
    }
    // Simulation mode: the same runs behind the scaled cache hierarchy, the
    // only rows that depend on the cache model's replacement decisions.
    println!("// SIM_GOLDEN");
    for name in ["lusearch", "pmd", "xalan"] {
        let profile = benchmark(name).unwrap();
        for cache_scale in [16, 64] {
            let config = ExperimentConfig {
                mode: MeasurementMode::Simulation,
                cache_scale,
                ..ExperimentConfig::quick()
            };
            for heap_config in collectors() {
                let r = run_benchmark(&profile, heap_config, &config);
                let m = &r.memory;
                let phase_writes = m.phase_writes(MemoryKind::Pcm);
                println!(
                    "(\"{}\", {}, \"{}\", {}, {}, {}, {}, {}, {}, {:?}),",
                    name,
                    cache_scale,
                    r.collector,
                    m.writes(MemoryKind::Pcm),
                    m.writes(MemoryKind::Dram),
                    m.reads(MemoryKind::Pcm),
                    m.reads(MemoryKind::Dram),
                    m.cache_hits,
                    m.llc_misses,
                    Phase::ALL.map(|p| phase_writes.get(p)),
                );
            }
        }
    }
}
