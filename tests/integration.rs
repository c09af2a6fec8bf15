//! Cross-crate integration tests: drive full benchmark workloads through the
//! collectors and check the paper's qualitative claims end to end.

use advice::{load_profile, parse_profile, profile_to_string, AdviceTable, ClassifyParams};
use std::sync::Arc;

use experiments::advise::{profile_then_advise, profile_workload};
use experiments::runner::{Cell, ExperimentConfig, ExperimentResult, Matrix};
use hybrid_mem::{MemoryConfig, MemoryKind, Phase};
use kingsguard::{HeapConfig, KingsguardHeap};
use kingsguard_heap::ObjectShape;
use workloads::{benchmark, BenchmarkProfile, SyntheticMutator, WorkloadConfig};

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick()
}

/// One run of `heap` on `profile`, on a matrix of its own.
fn run(profile: &BenchmarkProfile, heap: HeapConfig, config: &ExperimentConfig) -> Arc<ExperimentResult> {
    Matrix::default().run(Cell::new(profile, heap, config))
}

#[test]
fn kingsguard_collectors_reduce_pcm_writes_versus_pcm_only() {
    for name in ["lusearch", "xalan", "bloat"] {
        let profile = benchmark(name).unwrap();
        let pcm_only = run(&profile, HeapConfig::gen_immix_pcm(), &quick());
        let kg_n = run(&profile, HeapConfig::kg_n(), &quick());
        let kg_w = run(&profile, HeapConfig::kg_w(), &quick());
        assert!(
            kg_n.pcm_writes() < pcm_only.pcm_writes(),
            "{name}: KG-N must reduce PCM writes ({} vs {})",
            kg_n.pcm_writes(),
            pcm_only.pcm_writes()
        );
        assert!(
            kg_w.pcm_writes() < kg_n.pcm_writes(),
            "{name}: KG-W must reduce PCM writes below KG-N ({} vs {})",
            kg_w.pcm_writes(),
            kg_n.pcm_writes()
        );
    }
}

#[test]
fn kg_w_extends_pcm_lifetime_more_than_kg_n() {
    let profile = benchmark("lu.fix").unwrap();
    let pcm_only = run(&profile, HeapConfig::gen_immix_pcm(), &quick());
    let kg_n = run(&profile, HeapConfig::kg_n(), &quick());
    let kg_w = run(&profile, HeapConfig::kg_w(), &quick());
    let endurance = 30_000_000;
    let base = pcm_only.pcm_lifetime_years(endurance);
    assert!(kg_n.pcm_lifetime_years(endurance) > base);
    assert!(kg_w.pcm_lifetime_years(endurance) > kg_n.pcm_lifetime_years(endurance));
}

#[test]
fn kg_w_keeps_most_of_the_heap_in_pcm() {
    // The paper: KG-W still places ~68-80% of the heap in PCM; the DRAM
    // mature space stays small.
    let profile = benchmark("pmd").unwrap();
    let kg_w = run(&profile, HeapConfig::kg_w(), &quick());
    let pcm = kg_w.gc.peak_pcm_mapped as f64;
    let dram_mature = kg_w.gc.peak_mature_dram_used as f64;
    assert!(pcm > 0.0);
    assert!(
        dram_mature < pcm,
        "mature DRAM ({dram_mature}) must stay below PCM footprint ({pcm})"
    );
}

#[test]
fn dram_only_baseline_never_writes_pcm_and_pcm_only_never_writes_dram() {
    let profile = benchmark("antlr").unwrap();
    let dram = run(&profile, HeapConfig::gen_immix_dram(), &quick());
    assert_eq!(dram.pcm_writes(), 0);
    let pcm = run(&profile, HeapConfig::gen_immix_pcm(), &quick());
    assert_eq!(pcm.dram_writes(), 0);
}

#[test]
fn write_partitioning_reduces_pcm_writes_but_less_than_kg_w() {
    let profile = benchmark("lusearch").unwrap();
    let config = ExperimentConfig::quick().with_scale(256);
    let pcm_only = run(&profile, HeapConfig::gen_immix_pcm(), &config);
    let kg_w = run(&profile, HeapConfig::kg_w(), &config);
    let wp = Matrix::default().run(Cell::write_partitioning(&profile, &config));
    assert!(
        wp.pcm_writes() < pcm_only.pcm_writes(),
        "WP must reduce PCM writes"
    );
    assert!(
        kg_w.pcm_writes() < wp.pcm_writes(),
        "KG-W must beat OS write partitioning"
    );
}

#[test]
fn primitive_monitoring_ablation_increases_pcm_writes() {
    let profile = benchmark("lusearch").unwrap();
    let kg_w = run(&profile, HeapConfig::kg_w(), &quick());
    let kg_w_pm = run(&profile, HeapConfig::kg_w_no_primitive_monitoring(), &quick());
    assert!(
        kg_w_pm.pcm_app_writes() >= kg_w.pcm_app_writes(),
        "dropping primitive monitoring must not reduce application PCM writes ({} vs {})",
        kg_w_pm.pcm_app_writes(),
        kg_w.pcm_app_writes()
    );
}

#[test]
fn observer_survivors_split_between_dram_and_pcm() {
    let profile = benchmark("pjbb").unwrap();
    // Needs a long enough run for the observer space to fill and be collected.
    let kg_w = run(&profile, HeapConfig::kg_w(), &quick().with_scale(512));
    assert!(
        kg_w.gc.observer_to_pcm_objects > 0,
        "most observer survivors go to PCM"
    );
    assert!(
        kg_w.gc.observer_to_dram_objects > 0,
        "written observer survivors go to DRAM"
    );
    let dram_fraction = kg_w.gc.observer_dram_object_fraction();
    assert!(
        dram_fraction < 0.6,
        "only a minority of survivors should be retained in DRAM, got {dram_fraction}"
    );
}

#[test]
fn heap_composition_series_shows_pcm_dominating_dram() {
    let profile = benchmark("eclipse").unwrap();
    let kg_w = run(&profile, HeapConfig::kg_w(), &quick());
    assert!(!kg_w.gc.composition.is_empty());
    let peak_pcm = kg_w.gc.composition.iter().map(|s| s.pcm_bytes).max().unwrap();
    let peak_dram = kg_w.gc.composition.iter().map(|s| s.dram_bytes).max().unwrap();
    assert!(
        peak_pcm > peak_dram,
        "KG-W exploits PCM capacity: {peak_pcm} vs {peak_dram}"
    );
}

#[test]
fn workload_runs_are_reproducible_across_processes_for_a_fixed_seed() {
    let profile = benchmark("pmd").unwrap();
    let run = || {
        let heap_config = HeapConfig::kg_w().with_heap_budget(4 << 20);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        SyntheticMutator::new(
            profile.clone(),
            WorkloadConfig {
                scale: 2048,
                seed: 99,
            },
        )
        .run(&mut heap);
        heap.finish()
    };
    let a = run();
    let b = run();
    assert_eq!(a.gc.objects_allocated, b.gc.objects_allocated);
    assert_eq!(a.gc.bytes_allocated, b.gc.bytes_allocated);
    assert_eq!(a.memory.writes(MemoryKind::Pcm), b.memory.writes(MemoryKind::Pcm));
    assert_eq!(
        a.memory.writes(MemoryKind::Dram),
        b.memory.writes(MemoryKind::Dram)
    );
}

#[test]
fn profile_then_advise_pipeline_runs_end_to_end() {
    // The full two-phase pipeline: profile under KG-N, persist the profile,
    // reload it from disk, and replay it through KG-A — checking the paper's
    // qualitative ordering PCM-only > KG-N >= KG-A along the way.
    let dir = std::env::temp_dir().join(format!("kingsguard-integration-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = benchmark("lusearch").unwrap();
    let config = quick();
    let results = profile_then_advise(&Matrix::default(), &config, &["lusearch"], &dir);
    let row = &results.rows[0];

    // The on-disk profile round-trips exactly.
    let text = std::fs::read_to_string(&row.profile_path).unwrap();
    let reloaded = parse_profile(&text).unwrap();
    assert_eq!(profile_to_string(&reloaded), text);
    assert_eq!(reloaded.workload, "lusearch");

    let pcm_only = run(&profile, HeapConfig::gen_immix_pcm(), &config);
    let kg_n = run(&profile, HeapConfig::kg_n(), &config);
    let kg_a = &row.results[3];
    assert_eq!(kg_a.collector, "KG-A");
    assert!(
        kg_a.pcm_writes() < pcm_only.pcm_writes(),
        "KG-A must reduce PCM writes vs PCM-only"
    );
    assert!(
        kg_a.pcm_write_rate_32core() <= kg_n.pcm_write_rate_32core(),
        "KG-A write rate {} must not exceed KG-N {}",
        kg_a.pcm_write_rate_32core(),
        kg_n.pcm_write_rate_32core()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kg_a_advice_transfers_across_seeds() {
    // A profile collected under one seed must still help a run with a
    // different seed — the whole point of offline profiling.
    let dir = std::env::temp_dir().join(format!("kingsguard-xfer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = benchmark("pmd").unwrap();
    let profiling_config = ExperimentConfig::quick();
    let (_, path) = profile_workload(&Matrix::default(), &profile, &profiling_config, &dir);
    let site_profile = load_profile(&path).unwrap();
    let table = AdviceTable::from_profile(&site_profile, &ClassifyParams::for_profile(&site_profile));

    let production_config = ExperimentConfig {
        seed: 0xD1FF_5EED,
        ..ExperimentConfig::quick()
    };
    let kg_n = run(&profile, HeapConfig::kg_n(), &production_config);
    let kg_a = run(&profile, HeapConfig::kg_a(table), &production_config);
    assert!(
        kg_a.pcm_write_rate_32core() <= kg_n.pcm_write_rate_32core(),
        "stale-seed advice must still ration writes: KG-A {} vs KG-N {}",
        kg_a.pcm_write_rate_32core(),
        kg_n.pcm_write_rate_32core()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adaptive_kg_d_converges_without_a_profiling_run() {
    // KG-D starts blind (all-PCM placement) and must learn the hot sites
    // online: by the end of the run it has pretenured objects into DRAM,
    // pays no observer-space tax, and its PCM write rate sits at or below
    // KG-N's — the acceptance bound of the adaptive design.
    let profile = benchmark("lusearch").unwrap();
    let config = quick();
    let kg_n = run(&profile, HeapConfig::kg_n(), &config);
    let kg_w = run(&profile, HeapConfig::kg_w(), &config);
    let kg_d = run(&profile, HeapConfig::kg_d(), &config);
    assert_eq!(kg_d.collector, "KG-D");
    assert_eq!(kg_d.gc.observer.collections, 0, "KG-D pays no observer-space tax");
    assert!(
        kg_d.gc.advised_to_dram_objects > 0,
        "KG-D must learn hot sites during the run"
    );
    assert!(
        kg_d.pcm_write_rate_32core() <= kg_n.pcm_write_rate_32core(),
        "KG-D rate {} must not exceed KG-N {}",
        kg_d.pcm_write_rate_32core(),
        kg_n.pcm_write_rate_32core()
    );
    // Sanity: the adaptive collector lands between the static bounds.
    assert!(kg_d.pcm_writes() < kg_n.pcm_writes());
    assert!(kg_w.pcm_writes() > 0);
}

#[test]
fn mutator_data_survives_collections_intact() {
    // Write a recognisable pattern into a long-lived object, force it
    // through nursery, observer and major collections, and check the bytes.
    let mut heap = KingsguardHeap::new(HeapConfig::kg_w(), MemoryConfig::architecture_independent());
    let keeper = heap.alloc(ObjectShape::new(0, 64), 7);
    heap.write_prim(keeper, 0, 16);
    let addr = heap.resolve(keeper);
    let shape_before = heap.with_synced_memory(|mem| addr.shape(mem, Phase::Mutator));
    heap.collect_nursery();
    heap.collect_observer();
    heap.collect_full();
    let moved = heap.resolve(keeper);
    assert_ne!(addr, moved, "the object must have moved at least once");
    let shape_after = heap.with_synced_memory(|mem| moved.shape(mem, Phase::Mutator));
    assert_eq!(shape_before, shape_after, "object shape must survive copying");
    assert_eq!(
        heap.with_synced_memory(|mem| moved.type_id(mem, Phase::Mutator)),
        7
    );
}
