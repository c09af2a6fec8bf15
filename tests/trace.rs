//! Property tests of the heap-event trace subsystem: record → replay is
//! bit-identical to the live run for every collector, across seeds, mutator
//! counts K and store-buffer capacities, the `.kgtrace` format round-trips
//! byte-exactly through its binary encoding, and the benchmark traces pack
//! into 8-byte slots and encode to pinned bytes.

use hybrid_mem::{MemoryConfig, MemoryKind};
use kingsguard::{HeapConfig, KingsguardHeap, MutatorConfig};
use trace::{Trace, TraceEvent, TraceEvents, TraceReplayer};
use workloads::{
    benchmark, BenchmarkProfile, StreamingConfig, StreamingWorkload, SyntheticMutator, WorkloadConfig,
    STREAMING_HEAP_BUDGET_BYTES,
};

const SCALE: u64 = 2048;

fn heap_for(heap_config: &HeapConfig, profile: &BenchmarkProfile) -> KingsguardHeap {
    KingsguardHeap::new(
        profile.heap_config(heap_config.clone(), SCALE),
        MemoryConfig::architecture_independent(),
    )
}

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

/// Everything the acceptance bar cares about: device write/read totals
/// ("PcmWrites" and line-level stats are derived from these in
/// architecture-independent mode) plus the collector counters.
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

/// Live-runs and records the workload at (K, ssb), returning both
/// fingerprints and the trace.
fn live_and_recorded(
    heap_config: &HeapConfig,
    profile: &BenchmarkProfile,
    mutator: &SyntheticMutator,
    k: usize,
    ssb: usize,
) -> (Vec<u64>, Vec<u64>, Trace) {
    let context_config = MutatorConfig::default().with_ssb_capacity(ssb);
    let mut live_heap = heap_for(heap_config, profile);
    if k == 0 {
        mutator.run(&mut live_heap);
    } else {
        mutator.run_multi_configured(&mut live_heap, k, context_config, |_, _| {});
    }
    let live = fingerprint(&live_heap.finish());

    let mut record_heap = heap_for(heap_config, profile);
    let recorded_trace = if k == 0 {
        mutator.record(&mut record_heap)
    } else {
        mutator.record_multi_configured(&mut record_heap, k, context_config)
    };
    let recorded = fingerprint(&record_heap.finish());
    (live, recorded, recorded_trace)
}

fn replayed(heap_config: &HeapConfig, profile: &BenchmarkProfile, recorded: &Trace) -> Vec<u64> {
    let mut heap = heap_for(heap_config, profile);
    TraceReplayer::new(recorded)
        .replay(&mut heap)
        .unwrap_or_else(|err| panic!("replay under {} failed: {err}", heap_config.label()));
    fingerprint(&heap.finish())
}

#[test]
fn record_replay_is_bit_identical_for_every_collector() {
    let profile = benchmark("lusearch").unwrap();
    let mutator = SyntheticMutator::new(
        profile.clone(),
        WorkloadConfig {
            scale: SCALE,
            seed: 11,
        },
    );
    // Record once (single-mutator stream, under KG-N as the vehicle)...
    let (_, _, recorded) = live_and_recorded(&HeapConfig::kg_n(), &profile, &mutator, 0, 0);
    // ...then replay under every collector and compare against that
    // collector's own live run.
    for heap_config in collectors() {
        let mut live_heap = heap_for(&heap_config, &profile);
        mutator.run(&mut live_heap);
        let live = fingerprint(&live_heap.finish());
        assert_eq!(
            replayed(&heap_config, &profile, &recorded),
            live,
            "replay under {} diverged from its live run",
            heap_config.label()
        );
    }
}

#[test]
fn record_replay_is_bit_identical_across_seeds_k_and_ssb_capacities() {
    // K ∈ {1, 2, 4} crossed with SSB capacities {0, 7, 4096} (0 drains
    // every event eagerly, as context 0 does), two seeds each,
    // exercising both a hybrid and a single-technology collector.
    let profile = benchmark("pmd").unwrap();
    for seed in [3u64, 77] {
        let mutator = SyntheticMutator::new(profile.clone(), WorkloadConfig { scale: SCALE, seed });
        for (k, ssb) in [(1usize, 0usize), (1, 4096), (2, 7), (2, 0), (4, 4096), (4, 7)] {
            for heap_config in [HeapConfig::kg_n(), HeapConfig::kg_d()] {
                let (live, recorded_fp, recorded) =
                    live_and_recorded(&heap_config, &profile, &mutator, k, ssb);
                assert_eq!(
                    recorded_fp,
                    live,
                    "recording perturbed the run (seed {seed}, K={k}, ssb={ssb}, {})",
                    heap_config.label()
                );
                assert_eq!(
                    replayed(&heap_config, &profile, &recorded),
                    live,
                    "replay diverged (seed {seed}, K={k}, ssb={ssb}, {})",
                    heap_config.label()
                );
            }
        }
    }
}

#[test]
fn kgtrace_binary_round_trip_is_byte_exact_for_a_real_workload() {
    let profile = benchmark("lu.fix").unwrap();
    let mutator = SyntheticMutator::new(
        profile.clone(),
        WorkloadConfig {
            scale: SCALE,
            seed: 5,
        },
    );
    let mut heap = heap_for(&HeapConfig::kg_n(), &profile);
    let recorded = mutator.record_multi_configured(&mut heap, 2, MutatorConfig::default());
    drop(heap.finish());
    let bytes = trace::trace_to_bytes(&recorded);
    let parsed = trace::parse_trace(&bytes).expect("encoded trace parses");
    assert_eq!(parsed, recorded);
    assert_eq!(trace::trace_to_bytes(&parsed), bytes);
    // Truncations anywhere are rejected, never mis-parsed.
    for cut in [8usize, bytes.len() / 3, bytes.len() - 9] {
        assert!(
            trace::parse_trace(&bytes[..cut]).is_err(),
            "cut at {cut} must fail"
        );
    }
    // And a replay of the parsed copy still drives a heap.
    let mut replay_heap = heap_for(&HeapConfig::kg_w(), &profile);
    let stats = TraceReplayer::new(&parsed).replay(&mut replay_heap).unwrap();
    assert_eq!(stats.allocations, recorded.allocations());
    assert!(replay_heap.finish().gc.bytes_allocated > 0);
}

/// FNV-1a over a byte string: the digest the trace-byte pins below use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The encoded length and FNV-1a digest of every trace below, in the order
/// the test records them: the three kgbench shapes at seed 7, then at seed
/// 11, then the default streaming workload (K = 4). A change to how a
/// workload drives a heap must leave these bytes alone.
const TRACE_BYTE_PINS: [(&str, usize, u64); 7] = [
    ("lusearch@512 K=1 seed 7", 4_240_136, 0x1380_09ef_e0f6_8073),
    ("pmd@48 K=1 seed 7", 2_996_721, 0x4383_7cb8_f1f7_279f),
    ("xalan@192 K=4 seed 7", 2_064_432, 0x5790_2586_0929_5244),
    ("lusearch@512 K=1 seed 11", 4_270_904, 0x0cfa_45ac_eb10_eb2b),
    ("pmd@48 K=1 seed 11", 3_007_175, 0x37ed_5161_34cd_4167),
    ("xalan@192 K=4 seed 11", 2_034_553, 0x7bcf_b352_f550_c38b),
    ("streaming K=4", 12_681, 0x56b3_bc2c_c92f_745f),
];

#[test]
fn the_benchmark_traces_pack_every_event_but_the_hook_markers() {
    // The traces kgbench records, at its two seeds: replay-mutator,
    // replay-gc and live-sim-k4 (whose K contexts run with real TLABs and
    // short store buffers).
    let k_mutator = MutatorConfig {
        tlab_bytes: 8192,
        ssb_capacity: 64,
    };
    let mut traces = Vec::new();
    for seed in [7, 11] {
        for (name, scale, k, memory) in [
            ("lusearch", 512, 1, MemoryConfig::architecture_independent()),
            ("pmd", 48, 1, MemoryConfig::architecture_independent()),
            ("xalan", 192, 4, MemoryConfig::hybrid_scaled(16)),
        ] {
            let profile = benchmark(name).unwrap();
            let mut heap = KingsguardHeap::new(profile.heap_config(HeapConfig::kg_n(), scale), memory);
            let mutator = SyntheticMutator::new(profile, WorkloadConfig { scale, seed });
            let recorded = if k > 1 {
                mutator.record_multi_configured(&mut heap, k, k_mutator)
            } else {
                mutator.record(&mut heap)
            };
            drop(heap.finish());
            traces.push((format!("{name}@{scale} K={k} seed {seed}"), recorded));
        }
    }
    let mut streaming_heap = KingsguardHeap::new(
        HeapConfig::kg_n().with_heap_budget(STREAMING_HEAP_BUDGET_BYTES),
        MemoryConfig::architecture_independent(),
    );
    let (_, streaming) = StreamingWorkload::new(StreamingConfig::default()).record(&mut streaming_heap);
    drop(streaming_heap.finish());
    traces.push(("streaming K=4".to_string(), streaming));

    let mut pins = Vec::new();
    for (name, recorded) in &traces {
        let events = &recorded.events;
        let is_hook = |event: &TraceEvent| matches!(event, TraceEvent::Hook { .. });
        let hooks = events.iter().filter(is_hook).count();
        assert_eq!(hooks > 0, !name.starts_with("streaming"), "{name}: hook markers");
        // Hook markers are always wide; anything else in the side list
        // is an operand past its field's width.
        assert_eq!(
            events.memory_bytes(),
            events.len() * TraceEvents::SLOT_BYTES + hooks * std::mem::size_of::<TraceEvent>(),
            "{name}: wide events besides the hook markers: {:?}",
            events
                .iter()
                .filter(|event| !is_hook(event))
                .filter(|&event| TraceEvents::from(vec![event]).memory_bytes() > TraceEvents::SLOT_BYTES)
                .take(8)
                .collect::<Vec<_>>()
        );
        let bytes = trace::trace_to_bytes(recorded);
        let parsed = trace::parse_trace(&bytes).expect("encoded trace parses");
        assert_eq!(&parsed, recorded, "{name}");
        assert_eq!(trace::trace_to_bytes(&parsed), bytes, "{name}");
        pins.push((name.as_str(), bytes.len(), fnv1a(&bytes)));
    }
    assert_eq!(
        pins, TRACE_BYTE_PINS,
        "recorded .kgtrace bytes moved (name, encoded length, FNV-1a digest)"
    );
}
