//! Policy-conformance suite: the `PlacementPolicy`-based collectors must
//! reproduce the behaviour of the pre-refactor `CollectorKind`-dispatched
//! implementations exactly, and the online-adaptive KG-D must respect its
//! write-rate bound.
//!
//! The golden numbers below were captured from the enum-dispatched
//! implementation immediately before the trait refactor (the workloads are
//! deterministic for a given seed, so equality is exact). Regenerate them
//! with `cargo run --release --example golden_capture` if the simulator
//! itself legitimately changes. `SIM_GOLDEN` does the same for simulation
//! mode (the cache hierarchy on the path), which `GOLDEN`'s
//! architecture-independent runs never exercise, `OBJECT_GOLDEN` for
//! the per-object statistics neither of them reads, and `GC_GOLDEN` for the
//! collector's own counters (copies per collection kind, placement counts,
//! GC work).

use advice::AdviceTable;
use experiments::runner::{Cell, ExperimentConfig, ExperimentResult, Matrix, MeasurementMode};
use hybrid_mem::{MemoryKind, Phase};
use kingsguard::{GcStats, HeapConfig};
use std::sync::Arc;
use workloads::{benchmark, BenchmarkProfile};

/// One run of `heap` on `profile`, on a matrix of its own.
fn run(profile: &BenchmarkProfile, heap: HeapConfig, config: &ExperimentConfig) -> Arc<ExperimentResult> {
    Matrix::default().run(Cell::new(profile, heap, config))
}

/// (benchmark, scale, collector, PCM writes, DRAM writes, rescues,
/// demotions) captured from the pre-refactor implementation.
const GOLDEN: &[(&str, u64, &str, u64, u64, u64, u64)] = &[
    ("lusearch", 2048, "DRAM-only", 0, 262571, 0, 0),
    ("lusearch", 2048, "PCM-only", 262571, 0, 0, 0),
    ("lusearch", 2048, "KG-N", 101376, 161195, 0, 0),
    ("lusearch", 2048, "KG-W", 19166, 319749, 0, 0),
    ("lusearch", 2048, "KG-W-LOO-MDO", 19166, 319749, 0, 0),
    ("lusearch", 2048, "KG-W-PM", 12661, 249738, 0, 0),
    ("lusearch", 2048, "KG-A", 101162, 161725, 0, 0),
    ("lusearch", 512, "DRAM-only", 0, 1059933, 0, 0),
    ("lusearch", 512, "PCM-only", 1059933, 0, 0, 0),
    ("lusearch", 512, "KG-N", 476898, 583035, 0, 0),
    ("lusearch", 512, "KG-W", 63686, 1368283, 0, 0),
    ("lusearch", 512, "KG-W-LOO-MDO", 63686, 1368283, 0, 0),
    ("lusearch", 512, "KG-W-PM", 136194, 956328, 0, 0),
    ("lusearch", 512, "KG-A", 414489, 650826, 692, 0),
    ("pmd", 2048, "DRAM-only", 0, 111260, 0, 0),
    ("pmd", 2048, "PCM-only", 111260, 0, 0, 0),
    ("pmd", 2048, "KG-N", 19026, 92234, 0, 0),
    ("pmd", 2048, "KG-W", 2497, 117747, 0, 0),
    ("pmd", 2048, "KG-W-LOO-MDO", 2497, 117747, 0, 0),
    ("pmd", 2048, "KG-W-PM", 1933, 111556, 0, 0),
    ("pmd", 2048, "KG-A", 19469, 92730, 0, 0),
];

/// One simulation-mode golden row: (benchmark, cache scale, collector, PCM
/// writes, DRAM writes, PCM reads, DRAM reads, cache hits, LLC misses, PCM
/// writes per phase in [`Phase::ALL`] order).
#[rustfmt::skip]
type SimGolden = (&'static str, usize, &'static str, u64, u64, u64, u64, u64, u64, [u64; Phase::COUNT]);

/// Simulation-mode goldens: `--quick` scale behind `hybrid_scaled(16)` and
/// `hybrid_scaled(64)`, captured from the timestamped `Vec<Vec<Entry>>`
/// cache model immediately before it was replaced by the flat way-ordered
/// one. Unlike [`GOLDEN`] these depend on every replacement decision the
/// cache hierarchy makes.
#[rustfmt::skip]
const SIM_GOLDEN: &[SimGolden] = &[
    ("lusearch", 16, "DRAM-only", 0, 36882, 0, 36938, 603439, 65244, [0, 0, 0, 0, 0]),
    ("lusearch", 16, "PCM-only", 36882, 0, 36938, 0, 603439, 65244, [32317, 4557, 0, 0, 8]),
    ("lusearch", 16, "KG-N", 8977, 27905, 8978, 27960, 603439, 65244, [5983, 2986, 0, 0, 8]),
    ("lusearch", 16, "KG-W", 5389, 31472, 5389, 31529, 680068, 65528, [5376, 0, 0, 0, 13]),
    ("lusearch", 16, "KG-W-LOO-MDO", 5389, 31472, 5389, 31529, 680068, 65528, [5376, 0, 0, 0, 13]),
    ("lusearch", 16, "KG-W-PM", 5389, 31473, 5389, 31530, 603381, 65359, [5381, 0, 0, 0, 8]),
    ("lusearch", 16, "KG-A", 8909, 27973, 8910, 28028, 683047, 65455, [5879, 2917, 0, 0, 113]),
    ("lusearch", 64, "DRAM-only", 0, 41742, 0, 44900, 625072, 93351, [0, 0, 0, 0, 0]),
    ("lusearch", 64, "PCM-only", 41742, 0, 44900, 0, 625072, 93351, [36289, 5445, 0, 0, 8]),
    ("lusearch", 64, "KG-N", 11659, 30083, 13466, 31434, 625072, 93351, [8340, 3311, 0, 0, 8]),
    ("lusearch", 64, "KG-W", 5390, 36713, 5390, 38997, 704173, 94076, [5377, 0, 0, 0, 13]),
    ("lusearch", 64, "KG-W-LOO-MDO", 5390, 36713, 5390, 38997, 704173, 94076, [5377, 0, 0, 0, 13]),
    ("lusearch", 64, "KG-W-PM", 5389, 36462, 5389, 40209, 624250, 93940, [5381, 0, 0, 0, 8]),
    ("lusearch", 64, "KG-A", 11569, 30156, 13362, 31508, 704862, 93781, [8198, 3241, 0, 0, 130]),
    ("pmd", 16, "DRAM-only", 0, 20527, 0, 20983, 244226, 35485, [0, 0, 0, 0, 0]),
    ("pmd", 16, "PCM-only", 20527, 0, 20983, 0, 244226, 35485, [15543, 4980, 0, 0, 4]),
    ("pmd", 16, "KG-N", 6364, 14163, 6659, 14324, 244226, 35485, [2832, 3528, 0, 0, 4]),
    ("pmd", 16, "KG-W", 1285, 19472, 1285, 19716, 253800, 35629, [1280, 0, 0, 0, 5]),
    ("pmd", 16, "KG-W-LOO-MDO", 1285, 19472, 1285, 19716, 253800, 35629, [1280, 0, 0, 0, 5]),
    ("pmd", 16, "KG-W-PM", 1285, 19289, 1285, 19697, 246627, 35588, [1281, 0, 0, 0, 4]),
    ("pmd", 16, "KG-A", 6398, 14229, 6601, 14395, 254233, 35519, [2599, 3321, 0, 0, 478]),
    ("pmd", 64, "DRAM-only", 0, 26386, 0, 32497, 253615, 55825, [0, 0, 0, 0, 0]),
    ("pmd", 64, "PCM-only", 26386, 0, 32497, 0, 253615, 55825, [19059, 7323, 0, 0, 4]),
    ("pmd", 64, "KG-N", 8080, 18306, 10763, 21734, 253615, 55825, [3334, 4742, 0, 0, 4]),
    ("pmd", 64, "KG-W", 1285, 25765, 1285, 30903, 264832, 56049, [1280, 0, 0, 0, 5]),
    ("pmd", 64, "KG-W-LOO-MDO", 1285, 25765, 1285, 30903, 264832, 56049, [1280, 0, 0, 0, 5]),
    ("pmd", 64, "KG-W-PM", 1285, 25210, 1285, 30967, 256501, 55779, [1281, 0, 0, 0, 4]),
    ("pmd", 64, "KG-A", 8369, 18372, 10671, 21803, 264522, 56177, [3059, 4730, 0, 0, 580]),
    ("xalan", 16, "DRAM-only", 0, 18855, 0, 18972, 239876, 31733, [0, 0, 0, 0, 0]),
    ("xalan", 16, "PCM-only", 18855, 0, 18972, 0, 239876, 31733, [15080, 3773, 0, 0, 2]),
    ("xalan", 16, "KG-N", 6321, 12534, 6321, 12651, 239876, 31733, [3710, 2609, 0, 0, 2]),
    ("xalan", 16, "KG-W", 3412, 15438, 3412, 15561, 256355, 31750, [3404, 0, 0, 0, 8]),
    ("xalan", 16, "KG-W-LOO-MDO", 3412, 15438, 3412, 15561, 256355, 31750, [3404, 0, 0, 0, 8]),
    ("xalan", 16, "KG-W-PM", 3412, 15438, 3412, 15561, 242626, 31737, [3410, 0, 0, 0, 2]),
    ("xalan", 16, "KG-A", 6295, 12560, 6295, 12677, 256568, 31745, [3670, 2575, 0, 0, 50]),
    ("xalan", 64, "DRAM-only", 0, 21838, 0, 24904, 246923, 44172, [0, 0, 0, 0, 0]),
    ("xalan", 64, "PCM-only", 21838, 0, 24904, 0, 246923, 44172, [17093, 4743, 0, 0, 2]),
    ("xalan", 64, "KG-N", 7112, 14726, 8125, 16779, 246923, 44172, [4147, 2963, 0, 0, 2]),
    ("xalan", 64, "KG-W", 3412, 18483, 3412, 21422, 263857, 44338, [3404, 0, 0, 0, 8]),
    ("xalan", 64, "KG-W-LOO-MDO", 3412, 18483, 3412, 21422, 263857, 44338, [3404, 0, 0, 0, 8]),
    ("xalan", 64, "KG-W-PM", 3412, 18435, 3412, 21463, 249809, 44231, [3410, 0, 0, 0, 2]),
    ("xalan", 64, "KG-A", 7096, 14757, 8049, 16811, 263771, 44247, [4098, 2942, 0, 0, 56]),
];

/// One per-object-statistics golden row: (benchmark, scale, collector,
/// top-2 % and top-10 % mature writer share, rescues, demotions, objects
/// advised to DRAM).
type ObjectGolden = (&'static str, u64, &'static str, f64, f64, u64, u64, u64);

/// Captured from the `HashMap`-keyed per-object statistics immediately
/// before they became dense side metadata. The shares are Figure 2's statistic, which device
/// traffic does not show; the pmd rows at scale 48 (kgbench's `replay-gc`)
/// are the ones where a dead object's write count lingers one word away
/// from a later object's, so they also pin the tables' 8-byte granule.
#[rustfmt::skip]
const OBJECT_GOLDEN: &[ObjectGolden] = &[
    ("lusearch", 2048, "KG-N", 0.7806019221041983, 0.8589529590288315, 0, 0, 0),
    ("lusearch", 2048, "KG-W", 0.7806019221041983, 0.8589529590288315, 0, 0, 0),
    ("lusearch", 2048, "KG-A", 0.7806019221041983, 0.8589529590288315, 0, 0, 0),
    ("lusearch", 2048, "KG-D", 0.7806019221041983, 0.8589529590288315, 0, 0, 231),
    ("pmd", 2048, "KG-N", 0.7040804792585057, 0.8115745450435176, 0, 0, 0),
    ("pmd", 2048, "KG-W", 0.7040804792585057, 0.8115745450435176, 0, 0, 0),
    ("pmd", 2048, "KG-A", 0.7040804792585057, 0.8115745450435176, 0, 0, 0),
    ("pmd", 2048, "KG-D", 0.7040804792585057, 0.8115745450435176, 0, 0, 846),
    ("lusearch", 512, "KG-N", 0.7861387613519683, 0.8665189425578438, 0, 0, 0),
    ("lusearch", 512, "KG-W", 0.7800684177205088, 0.8636832780919649, 0, 0, 0),
    ("lusearch", 512, "KG-A", 0.7870857562392598, 0.867077563137426, 692, 0, 0),
    ("lusearch", 512, "KG-D", 0.7861041800779941, 0.8665189425578438, 36, 552, 5328),
    ("pmd", 48, "KG-N", 0.7313640725111686, 0.8229212880327683, 0, 0, 0),
    ("pmd", 48, "KG-W", 0.7301156588219514, 0.8229831928438038, 4587, 3878, 0),
    ("pmd", 48, "KG-A", 0.7301362937589633, 0.8231792247454165, 8797, 6354, 0),
    ("pmd", 48, "KG-D", 0.7307347069323071, 0.8229212880327683, 2767, 12214, 18196),
];

/// One collector-statistics golden row: (benchmark, scale, collector,
/// `work.gc_ops`, bytes copied by all three collection kinds, composition
/// samples, FNV-1a digest of [`gc_counters`]).
type GcGolden = (&'static str, u64, &'static str, u64, u64, usize, u64);

/// The `GcStats` counters the tables above do not read — which collection
/// kind copied what, survival, observer tenure, advice, large-object moves
/// and the GC work charged to the execution-time model — at
/// `OBJECT_GOLDEN`'s four points under every collector. A collector
/// refactor that keeps device traffic but charges a copy to the wrong
/// counter moves these.
#[rustfmt::skip]
const GC_GOLDEN: &[GcGolden] = &[
    ("lusearch", 2048, "DRAM-only", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "PCM-only", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "KG-N", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "KG-W", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "KG-W-LOO-MDO", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "KG-W-PM", 51562, 220808, 7, 0xb9be8dd29abad93b),
    ("lusearch", 2048, "KG-A", 51562, 220808, 7, 0xa17f60bb024acc9c),
    ("lusearch", 2048, "KG-D", 51562, 220808, 7, 0xab3507a783095021),
    ("pmd", 2048, "DRAM-only", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "PCM-only", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "KG-N", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "KG-W", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "KG-W-LOO-MDO", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "KG-W-PM", 39325, 263528, 3, 0x5b1a3281e4d7626a),
    ("pmd", 2048, "KG-A", 39325, 263528, 3, 0x8be8bd05d78df9d5),
    ("pmd", 2048, "KG-D", 39325, 263528, 3, 0xc05e8d3d2fd4f255),
    ("lusearch", 512, "DRAM-only", 229975, 1060768, 29, 0x250494465bf45145),
    ("lusearch", 512, "PCM-only", 229975, 1060768, 29, 0x250494465bf45145),
    ("lusearch", 512, "KG-N", 229975, 1060768, 29, 0x250494465bf45145),
    ("lusearch", 512, "KG-W", 259283, 1248184, 28, 0x7515282dce652e7e),
    ("lusearch", 512, "KG-W-LOO-MDO", 259283, 1248184, 28, 0x7515282dce652e7e),
    ("lusearch", 512, "KG-W-PM", 259283, 1248184, 28, 0x48361471adad1e71),
    ("lusearch", 512, "KG-A", 229975, 1285624, 29, 0x846807a1ce5e5e90),
    ("lusearch", 512, "KG-D", 229975, 1120312, 29, 0x3fc15fb8d732a4ec),
    ("pmd", 48, "DRAM-only", 650905, 2747656, 36, 0x18668ea9c3aca1d8),
    ("pmd", 48, "PCM-only", 650905, 2747656, 36, 0x18668ea9c3aca1d8),
    ("pmd", 48, "KG-N", 650905, 2747656, 36, 0x18668ea9c3aca1d8),
    ("pmd", 48, "KG-W", 775297, 6261544, 32, 0xb8192fa420b83bd3),
    ("pmd", 48, "KG-W-LOO-MDO", 775297, 6261544, 32, 0xb8192fa420b83bd3),
    ("pmd", 48, "KG-W-PM", 775297, 5647216, 32, 0x933016b246340c51),
    ("pmd", 48, "KG-A", 621906, 4555720, 35, 0x9606992b6a8b5fa7),
    ("pmd", 48, "KG-D", 591710, 4281320, 34, 0x1ca392ee00e8159e),
];

/// The counters [`GC_GOLDEN`] digests, in a fixed order.
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

fn config_for(label: &str) -> HeapConfig {
    match label {
        "DRAM-only" => HeapConfig::gen_immix_dram(),
        "PCM-only" => HeapConfig::gen_immix_pcm(),
        "KG-N" => HeapConfig::kg_n(),
        "KG-W" => HeapConfig::kg_w(),
        "KG-W-LOO-MDO" => HeapConfig::kg_w_no_loo_no_mdo(),
        "KG-W-PM" => HeapConfig::kg_w_no_primitive_monitoring(),
        "KG-A" => HeapConfig::kg_a(AdviceTable::all_cold()),
        "KG-D" => HeapConfig::kg_d(),
        other => panic!("unknown collector label {other}"),
    }
}

#[test]
fn trait_based_collectors_reproduce_the_pre_refactor_stats_exactly() {
    for &(name, scale, label, pcm, dram, rescues, demotions) in GOLDEN {
        let profile = benchmark(name).unwrap();
        let config = ExperimentConfig::quick().with_scale(scale);
        let result = run(&profile, config_for(label), &config);
        assert_eq!(result.collector, label);
        assert_eq!(
            (
                result.memory.writes(MemoryKind::Pcm),
                result.memory.writes(MemoryKind::Dram),
                result.gc.pcm_to_dram_rescues,
                result.gc.dram_to_pcm_demotions,
            ),
            (pcm, dram, rescues, demotions),
            "{name} @ scale {scale} under {label} diverged from the pre-refactor implementation"
        );
    }
}

/// The side-metadata conformance pin: how per-object write counts and site
/// tags are stored may only move host time.
#[test]
fn per_object_statistics_reproduce_the_hash_keyed_tables_exactly() {
    for &(name, scale, label, top2, top10, rescues, demotions, advised_dram) in OBJECT_GOLDEN {
        let profile = benchmark(name).unwrap();
        let config = ExperimentConfig::quick().with_scale(scale);
        let result = run(&profile, config_for(label), &config);
        assert_eq!(result.collector, label);
        assert_eq!(
            (
                result.gc.top_mature_writer_share(0.02),
                result.gc.top_mature_writer_share(0.10),
                result.gc.pcm_to_dram_rescues,
                result.gc.dram_to_pcm_demotions,
                result.gc.advised_to_dram_objects,
            ),
            (top2, top10, rescues, demotions, advised_dram),
            "{name} @ scale {scale} under {label} diverged from the hash-keyed per-object statistics"
        );
    }
}

/// The collector's accounting pin: a rewrite of `collect.rs` may only move
/// host time — every copy stays charged to the same collection kind,
/// placement counter and GC work.
#[test]
fn collector_statistics_reproduce_the_pinned_counters_exactly() {
    for &(name, scale, label, gc_ops, copied, samples, digest) in GC_GOLDEN {
        let profile = benchmark(name).unwrap();
        let config = ExperimentConfig::quick().with_scale(scale);
        let gc = run(&profile, config_for(label), &config).gc.clone();
        let total_copied = gc.nursery.bytes_copied + gc.observer.bytes_copied + gc.major.bytes_copied;
        assert_eq!(
            (
                gc.work.gc_ops,
                total_copied,
                gc.composition.len(),
                fnv1a(&gc_counters(&gc))
            ),
            (gc_ops, copied, samples, digest),
            "{name} @ scale {scale} under {label} diverged from the pinned collector counters: {:?}",
            gc_counters(&gc)
        );
    }
}

/// The cache model's conformance pin: a rewrite of `hybrid_mem::cache` may
/// only move host time — device traffic, its phase attribution and the
/// hierarchy's own hit/miss counters stay bit-identical.
#[test]
fn simulation_mode_reproduces_the_pre_rewrite_cache_model_exactly() {
    for &(name, cache_scale, label, pcm_w, dram_w, pcm_r, dram_r, hits, misses, phase_writes) in SIM_GOLDEN {
        let profile = benchmark(name).unwrap();
        let config = ExperimentConfig {
            mode: MeasurementMode::Simulation,
            cache_scale,
            ..ExperimentConfig::quick()
        };
        let result = run(&profile, config_for(label), &config);
        assert_eq!(result.collector, label);
        let memory = &result.memory;
        let pcm_phase_writes = memory.phase_writes(MemoryKind::Pcm);
        assert_eq!(
            (
                memory.writes(MemoryKind::Pcm),
                memory.writes(MemoryKind::Dram),
                memory.reads(MemoryKind::Pcm),
                memory.reads(MemoryKind::Dram),
                memory.cache_hits,
                memory.llc_misses,
                Phase::ALL.map(|p| pcm_phase_writes.get(p)),
            ),
            (pcm_w, dram_w, pcm_r, dram_r, hits, misses, phase_writes),
            "{name} behind hybrid_scaled({cache_scale}) under {label} diverged from the pre-rewrite cache model"
        );
    }
}

/// The multi-mutator redesign's exactness guarantee, pinned against the
/// same goldens: a K=1 run on a spawned context (TLABs, batched store
/// buffers, sharded counters) is bit-identical to the same run on the eager
/// context 0, and the aggregates of K∈{2,4} runs are identical to
/// K=1 — the sharded merge loses no event and the batched barrier defers
/// but never drops work.
#[test]
fn mutator_context_runs_reproduce_the_goldens_for_any_mutator_count() {
    use hybrid_mem::MemoryConfig;
    use kingsguard::KingsguardHeap;
    use workloads::{SyntheticMutator, WorkloadConfig};

    for &(name, scale, label, pcm, dram, rescues, demotions) in GOLDEN {
        // The slower scale-512 rows only check K=1; the scale-2048 rows
        // sweep the mutator count.
        let mutator_counts: &[usize] = if scale == 2048 { &[1, 2, 4] } else { &[1] };
        for &mutators in mutator_counts {
            let profile = benchmark(name).unwrap();
            let heap_config = profile.heap_config(config_for(label), scale);
            let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
            let workload = SyntheticMutator::new(
                profile,
                WorkloadConfig {
                    scale,
                    seed: ExperimentConfig::quick().seed,
                },
            );
            workload.run_multi_configured(
                &mut heap,
                mutators,
                kingsguard::MutatorConfig::default(),
                |_, _| {},
            );
            let report = heap.finish();
            assert_eq!(
                (
                    report.memory.writes(MemoryKind::Pcm),
                    report.memory.writes(MemoryKind::Dram),
                    report.gc.pcm_to_dram_rescues,
                    report.gc.dram_to_pcm_demotions,
                ),
                (pcm, dram, rescues, demotions),
                "{name} @ scale {scale} under {label} with {mutators} mutators diverged from the goldens"
            );
        }
    }
}

/// The KG-D bound: on a stationary workload, the adaptive collector's PCM
/// write rate never exceeds KG-N's once it has converged — checked over
/// multiple seeds and benchmarks, with no prior profiling run and no advice
/// seed. (The rescue fallback alone guarantees the bound; adaptation only
/// widens it.)
#[test]
fn kg_d_never_exceeds_kg_n_pcm_write_rate_on_stationary_workloads() {
    for name in ["lusearch", "pmd", "xalan"] {
        let profile = benchmark(name).unwrap();
        for seed in [7u64, 0xC0FFEE, 0xD1FF_5EED] {
            let config = ExperimentConfig {
                seed,
                ..ExperimentConfig::quick()
            };
            let kg_n = run(&profile, HeapConfig::kg_n(), &config);
            let kg_d = run(&profile, HeapConfig::kg_d(), &config);
            assert!(
                kg_d.pcm_write_rate_32core() <= kg_n.pcm_write_rate_32core(),
                "{name} seed {seed:#x}: KG-D rate {} exceeds KG-N {}",
                kg_d.pcm_write_rate_32core(),
                kg_n.pcm_write_rate_32core()
            );
            assert_eq!(kg_d.gc.observer.collections, 0, "KG-D has no observer space");
        }
    }
}

/// KG-D seeded from a stale profile must still respect the KG-N bound and
/// keep adapting (the stale table is a starting point, not a contract).
#[test]
fn kg_d_with_a_stale_seed_still_respects_the_kg_n_bound() {
    use experiments::advise::{advice_from_disk_checked, profile_workload};
    let dir = std::env::temp_dir().join(format!("kingsguard-kgd-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = benchmark("lusearch").unwrap();
    let (_, path) = profile_workload(&Matrix::default(), &profile, &ExperimentConfig::quick(), &dir);
    let (_, table, _) = advice_from_disk_checked(&path, workloads::site_map_hash());
    // "Stale": a different seed changes which concrete objects each site
    // produces, as a new program version would.
    let production = ExperimentConfig {
        seed: 0xBEEF,
        ..ExperimentConfig::quick()
    };
    let kg_n = run(&profile, HeapConfig::kg_n(), &production);
    let kg_d = run(&profile, HeapConfig::kg_d_with(table), &production);
    assert!(
        kg_d.pcm_write_rate_32core() <= kg_n.pcm_write_rate_32core(),
        "stale-seeded KG-D rate {} exceeds KG-N {}",
        kg_d.pcm_write_rate_32core(),
        kg_n.pcm_write_rate_32core()
    );
    std::fs::remove_dir_all(&dir).ok();
}
