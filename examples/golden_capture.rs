//! Regenerates the four golden tables pinned in `tests/policy_conformance.rs`.
//!
//! Run with `cargo run --release --example golden_capture` and paste the
//! output into the `GOLDEN`, `OBJECT_GOLDEN`, `GC_GOLDEN` and `SIM_GOLDEN`
//! tables **only** when the simulator or the workloads legitimately change
//! behaviour; a placement-policy change that shifts `GOLDEN`, a collector
//! refactor that shifts `GC_GOLDEN`, or a cache-model change that shifts
//! `SIM_GOLDEN`, is a conformance regression, not a reason to regenerate.

use experiments::runner::{Cell, ExperimentConfig, Matrix, MeasurementMode};
use hybrid_mem::{MemoryKind, Phase};
use kingsguard::{GcStats, HeapConfig};
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

/// `OBJECT_GOLDEN`'s and `GC_GOLDEN`'s (benchmark, scale) points.
fn object_points() -> [(&'static str, ExperimentConfig); 4] {
    [
        ("lusearch", ExperimentConfig::quick()),
        ("pmd", ExperimentConfig::quick()),
        ("lusearch", ExperimentConfig::quick().with_scale(512)),
        ("pmd", ExperimentConfig::quick().with_scale(48)),
    ]
}

/// The counters `GC_GOLDEN` digests, in the order of the test's
/// `gc_counters`.
fn gc_counters(gc: &GcStats) -> Vec<u64> {
    let mut counters = Vec::new();
    for c in [gc.nursery, gc.observer, gc.major] {
        counters.extend([c.collections, c.bytes_copied, c.objects_copied]);
    }
    counters.extend([
        gc.nursery_survived_bytes,
        gc.nursery_collected_bytes,
        gc.observer_survived_bytes,
        gc.observer_collected_bytes,
        gc.observer_to_dram_bytes,
        gc.observer_to_dram_objects,
        gc.observer_to_pcm_bytes,
        gc.observer_to_pcm_objects,
        gc.advised_to_dram_bytes,
        gc.advised_to_dram_objects,
        gc.advised_to_pcm_bytes,
        gc.advised_to_pcm_objects,
        gc.pcm_to_dram_rescues,
        gc.dram_to_pcm_demotions,
        gc.large_pcm_to_dram_moves,
        gc.work.gc_ops,
        gc.composition.len() as u64,
    ]);
    counters
}

/// 64-bit FNV-1a over the little-endian bytes of `values`.
fn fnv1a(values: &[u64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn main() {
    let matrix = Matrix::default();
    let run_benchmark = |profile: &workloads::BenchmarkProfile, heap_config, config: &ExperimentConfig| {
        matrix.run(Cell::new(profile, heap_config, config))
    };
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
    for (name, config) in object_points() {
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
    // The collector's own counters (copies per collection kind, placement
    // counts, GC work), under every collector including KG-D.
    println!("// GC_GOLDEN");
    for (name, config) in object_points() {
        let profile = benchmark(name).unwrap();
        for heap_config in collectors().into_iter().chain([HeapConfig::kg_d()]) {
            let r = run_benchmark(&profile, heap_config, &config);
            let gc = &r.gc;
            println!(
                "(\"{}\", {}, \"{}\", {}, {}, {}, {:#018x}),",
                name,
                config.scale,
                r.collector,
                gc.work.gc_ops,
                gc.nursery.bytes_copied + gc.observer.bytes_copied + gc.major.bytes_copied,
                gc.composition.len(),
                fnv1a(&gc_counters(gc)),
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
