//! End-to-end tests of the hot-path profiler: it must be invisible to the
//! simulation (bit-identical results on or off, for every collector) while
//! its exact counts add up to the device counters of the same run.

use hybrid_mem::{MemoryConfig, Phase};
use kingsguard::{HeapConfig, KingsguardHeap};
use telemetry::{Stage, DEFAULT_SAMPLE_EVERY};
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

/// Every collector and memory-system statistic of a finished run.
fn fingerprint(report: &kingsguard::RunReport) -> String {
    format!("{:?} {:?}", report.gc, report.memory)
}

/// One live lusearch run with telemetry on, with or without the profiler.
fn run_live(heap_config: &HeapConfig, memory: &MemoryConfig, profiled: bool) -> kingsguard::RunReport {
    let profile = benchmark("lusearch").unwrap();
    let mutator = SyntheticMutator::new(
        profile.clone(),
        WorkloadConfig {
            scale: SCALE,
            seed: 11,
        },
    );
    let mut heap = KingsguardHeap::new(profile.heap_config(heap_config.clone(), SCALE), memory.clone());
    heap.enable_telemetry();
    if profiled {
        heap.enable_hot_path_profiler(DEFAULT_SAMPLE_EVERY);
    }
    mutator.run(&mut heap);
    heap.finish()
}

/// The `profile.*` counters of a finished run, in a fixed order.
fn profile_counters(report: &kingsguard::RunReport) -> Vec<(String, u64)> {
    let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
    telemetry
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("profile."))
        .map(|(name, value)| (name.to_string(), *value))
        .collect()
}

/// Six collectors × {uncached, cached}: the profiler changes nothing it
/// observes, and what it counts is what the devices saw. The cached half
/// holds only because the end-of-run flush is counted too.
#[test]
fn hot_path_profiler_is_invisible_for_every_collector() {
    let memories = [
        ("uncached", MemoryConfig::architecture_independent()),
        ("cached", MemoryConfig::hybrid_scaled(64)),
    ];
    for (mode, memory) in &memories {
        for heap_config in collectors() {
            let case = format!("{} {mode}", heap_config.label());
            let disabled = run_live(&heap_config, memory, false);
            let enabled = run_live(&heap_config, memory, true);
            assert_eq!(
                fingerprint(&disabled),
                fingerprint(&enabled),
                "{case}: the hot-path profiler perturbed the simulation"
            );
            assert_eq!(
                profile_counters(&disabled),
                [],
                "{case}: a disabled profiler must report nothing"
            );

            let telemetry = enabled.telemetry.as_ref().expect("telemetry enabled");
            let counter = |name: &str| {
                telemetry
                    .counter(name)
                    .unwrap_or_else(|| panic!("{case}: no {name} counter"))
            };
            let events = |stage: Stage| counter(&format!("profile.events.{}", stage.label()));
            let device: u64 = [
                "mem.reads.dram",
                "mem.reads.pcm",
                "mem.writes.dram",
                "mem.writes.pcm",
            ]
            .into_iter()
            .map(counter)
            .sum();
            assert!(device > 0, "{case}");
            assert_eq!(
                events(Stage::LineBookkeeping),
                device,
                "{case}: line-bookkeeping events vs device reads + writes"
            );
            assert!(events(Stage::PageMap) >= events(Stage::LineBookkeeping), "{case}");
            let touches = counter("profile.touches");
            let by_phase: u64 = Phase::ALL
                .iter()
                .map(|phase| counter(&format!("profile.touches.{}", phase.label())))
                .sum();
            assert_eq!(by_phase, touches, "{case}: per-phase touches vs profile.touches");

            assert_eq!(
                profile_counters(&enabled),
                profile_counters(&run_live(&heap_config, memory, true)),
                "{case}: a rerun must reproduce every count"
            );
        }
    }
}
