//! End-to-end tests of the hot-path profiler: it must be invisible to the
//! simulation (bit-identical results on or off, for every collector) while
//! attributing every touch.

use hybrid_mem::{MemoryConfig, MemoryKind};
use kingsguard::{HeapConfig, KingsguardHeap};
use telemetry::{TouchProfile, DEFAULT_SAMPLE_EVERY, STAGE_COUNT};
use workloads::{benchmark, SyntheticMutator, WorkloadConfig};

const SCALE: u64 = 2048;

fn collectors() -> Vec<HeapConfig> {
    vec![
        HeapConfig::gen_immix_dram(),
        HeapConfig::gen_immix_pcm(),
        HeapConfig::kg_n(),
        HeapConfig::kg_w(),
        HeapConfig::kg_a(advice::AdviceTable::all_cold()),
        HeapConfig::kg_d(),
    ]
}

/// Every simulated-state statistic the acceptance bar cares about.
fn fingerprint(report: &kingsguard::RunReport) -> Vec<u64> {
    vec![
        report.memory.writes(MemoryKind::Pcm),
        report.memory.writes(MemoryKind::Dram),
        report.memory.reads(MemoryKind::Pcm),
        report.memory.reads(MemoryKind::Dram),
        report.gc.remset_insertions,
        report.gc.nursery.collections,
        report.gc.observer.collections,
        report.gc.major.collections,
        report.gc.reference_writes,
        report.gc.primitive_writes,
        report.gc.writes_to_mature_objects,
        report.gc.pcm_to_dram_rescues,
    ]
}

fn run_live(
    heap_config: &HeapConfig,
    profiler_cadence: Option<u64>,
) -> (kingsguard::RunReport, Option<TouchProfile>) {
    let profile = benchmark("lusearch").unwrap();
    let budget = profile.scaled_heap_bytes(SCALE).max(2 << 20) as usize;
    let mutator = SyntheticMutator::new(
        profile,
        WorkloadConfig {
            scale: SCALE,
            seed: 11,
        },
    );
    let mut heap = KingsguardHeap::new(
        heap_config.clone().with_heap_budget(budget),
        MemoryConfig::architecture_independent(),
    );
    if let Some(cadence) = profiler_cadence {
        heap.enable_hot_path_profiler(cadence);
    }
    mutator.run(&mut heap);
    let touch_profile = heap.hot_path_profile();
    (heap.finish(), touch_profile)
}

#[test]
fn hot_path_profiler_is_invisible_for_every_collector() {
    for heap_config in collectors() {
        let (disabled, no_profile) = run_live(&heap_config, None);
        let (enabled, touch_profile) = run_live(&heap_config, Some(DEFAULT_SAMPLE_EVERY));
        assert_eq!(
            fingerprint(&disabled),
            fingerprint(&enabled),
            "the hot-path profiler perturbed the simulation under {}",
            heap_config.label()
        );
        assert!(no_profile.is_none(), "a disabled profiler must report nothing");
        let profile = touch_profile
            .unwrap_or_else(|| panic!("{}: enabled run produced no profile", heap_config.label()));
        assert!(profile.touches > 0, "{}", heap_config.label());
        assert_eq!(profile.stages.len(), STAGE_COUNT, "{}", heap_config.label());
        assert!(
            profile.stages.iter().any(|s| s.events > 0),
            "{}: no stage saw any events",
            heap_config.label()
        );
    }
}

#[test]
fn profiler_event_counts_do_not_depend_on_the_sampling_cadence() {
    let config = HeapConfig::kg_w();
    let (_, coarse) = run_live(&config, Some(1 << 20));
    let (_, fine) = run_live(&config, Some(3));
    let events = |p: &TouchProfile| -> Vec<u64> { p.stages.iter().map(|s| s.events).collect() };
    let coarse = coarse.unwrap();
    let fine = fine.unwrap();
    assert_eq!(
        events(&coarse),
        events(&fine),
        "event counts must be exact regardless of how often touches are timed"
    );
    assert_eq!(coarse.touches, fine.touches);
    assert!(fine.sampled_touches > coarse.sampled_touches);
}
