//! Property-based tests of the core invariants: whatever sequence of
//! allocations, writes, releases and collections the mutator performs, the
//! heap never loses or corrupts reachable data, and the write-rationing
//! accounting stays consistent.
//!
//! The properties are driven by a seeded in-repo RNG (`sim_rng`) rather than
//! an external property-testing framework: each property runs a fixed number
//! of cases with seeds derived from a base seed, so failures reproduce
//! exactly and the failing seed is printed in the panic message.

use advice::{AdviceTable, SiteId};
use hybrid_mem::{MemoryConfig, MemoryKind, Phase};
use kingsguard::{HeapConfig, KingsguardHeap};
use kingsguard_heap::{Handle, ObjectShape};
use sim_rng::{Rng, SeedableRng, SmallRng};

/// One step of the randomised mutator program.
#[derive(Clone, Debug)]
enum Step {
    Alloc { ref_slots: u16, payload: u32 },
    AllocLarge { payload: u32 },
    WritePrim { victim: usize, offset: usize },
    WriteRef { src: usize, slot: usize, target: usize },
    Release { victim: usize },
    CollectNursery,
    CollectFull,
}

/// Draws one step with the weights 6:1:4:3:2:1:1
/// (alloc : large : prim write : ref write : release : minor : major).
fn arbitrary_step(rng: &mut SmallRng) -> Step {
    match rng.gen_range(0u32..18) {
        0..=5 => Step::Alloc {
            ref_slots: rng.gen_range(0u16..4),
            payload: rng.gen_range(8u32..160),
        },
        6 => Step::AllocLarge {
            payload: rng.gen_range(9_000u32..20_000),
        },
        7..=10 => Step::WritePrim {
            victim: rng.gen_range(0usize..64),
            offset: rng.gen_range(0usize..160),
        },
        11..=13 => Step::WriteRef {
            src: rng.gen_range(0usize..64),
            slot: rng.gen_range(0usize..4),
            target: rng.gen_range(0usize..64),
        },
        14..=15 => Step::Release {
            victim: rng.gen_range(0usize..64),
        },
        16 => Step::CollectNursery,
        _ => Step::CollectFull,
    }
}

fn arbitrary_program(rng: &mut SmallRng, min_len: usize, max_len: usize) -> Vec<Step> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| arbitrary_step(rng)).collect()
}

/// Runs `cases` instances of `property`, deriving one seed per case; panics
/// with the offending seed on failure.
fn check_property(name: &str, cases: u64, property: impl Fn(&mut SmallRng)) {
    for case in 0..cases {
        let seed = 0x5eed_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property {name} failed for seed {seed:#x} (case {case})");
            std::panic::resume_unwind(panic);
        }
    }
}

fn heap_configs() -> Vec<HeapConfig> {
    vec![
        HeapConfig::gen_immix_dram(),
        HeapConfig::gen_immix_pcm(),
        HeapConfig::kg_n(),
        HeapConfig::kg_w(),
        HeapConfig::kg_w_no_loo_no_mdo(),
        HeapConfig::kg_w_no_primitive_monitoring(),
        HeapConfig::kg_a(AdviceTable::all_cold()),
        HeapConfig::kg_d(),
    ]
}

/// Runs a random program against one heap configuration, checking invariants
/// as it goes.
fn run_program(config: HeapConfig, steps: &[Step]) {
    let mut heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
    let mut m = heap.default_mutator().unwrap();
    // (handle, ref_slots, payload, type_id) of every still-live object.
    let mut live: Vec<(Handle, u16, u32, u16)> = Vec::new();
    let mut next_type: u16 = 1;
    let mut next_site: u32 = 1;

    for step in steps {
        match step {
            Step::Alloc { ref_slots, payload } => {
                let shape = ObjectShape::new(*ref_slots, *payload);
                let handle = m.alloc_site(&mut heap, shape, next_type, SiteId(next_site));
                live.push((handle, *ref_slots, *payload, next_type));
                next_type = next_type.wrapping_add(1).max(1);
                next_site = (next_site % 16) + 1;
            }
            Step::AllocLarge { payload } => {
                let shape = ObjectShape::primitive(*payload);
                let handle = m.alloc(&mut heap, shape, next_type);
                live.push((handle, 0, *payload, next_type));
                next_type = next_type.wrapping_add(1).max(1);
            }
            Step::WritePrim { victim, offset } => {
                if !live.is_empty() {
                    let (handle, _, payload, _) = live[victim % live.len()];
                    if payload > 0 {
                        m.write_prim(&mut heap, handle, offset % payload as usize, 8);
                    }
                }
            }
            Step::WriteRef { src, slot, target } => {
                if !live.is_empty() {
                    let (src_handle, ref_slots, _, _) = live[src % live.len()];
                    let (target_handle, ..) = live[target % live.len()];
                    if ref_slots > 0 {
                        m.write_ref(
                            &mut heap,
                            src_handle,
                            slot % ref_slots as usize,
                            Some(target_handle),
                        );
                    }
                }
            }
            Step::Release { victim } => {
                if !live.is_empty() {
                    let index = victim % live.len();
                    let (handle, ..) = live.swap_remove(index);
                    heap.release(handle);
                }
            }
            Step::CollectNursery => heap.collect_young(),
            Step::CollectFull => heap.collect_full(),
        }

        // Invariant: every live handle still resolves to an object with the
        // exact shape and type it was created with.
        for &(handle, ref_slots, payload, type_id) in &live {
            let obj = heap.resolve(handle);
            let (shape, observed_type) = heap
                .with_synced_memory(|mem| (obj.shape(mem, Phase::Mutator), obj.type_id(mem, Phase::Mutator)));
            assert_eq!(
                shape,
                ObjectShape::new(ref_slots, payload),
                "shape corrupted for {handle:?}"
            );
            assert_eq!(observed_type, type_id, "type corrupted for {handle:?}");
        }
    }

    // Invariant: accounting is self-consistent.
    let report = heap.finish();
    assert!(report.gc.nursery_survived_bytes <= report.gc.nursery_collected_bytes);
    assert!(report.gc.observer_survived_bytes <= report.gc.observer_collected_bytes);
    assert!(report.gc.nursery_survival() <= 1.0);
    assert_eq!(
        report.gc.writes_to_nursery_objects + report.gc.writes_to_mature_objects,
        report.gc.reference_writes + report.gc.primitive_writes,
        "every barrier-observed write targets exactly one generation"
    );
}

/// Barrier bookkeeping is commutative between safepoints, so end-of-run
/// totals — device writes per kind, remembered-set work, barrier-observed
/// writes — are **exactly** independent of the number of mutator contexts
/// and of where the store-buffer drain boundaries fall (capacity 0 drains
/// every event eagerly; a huge capacity drains only at safepoints).
#[test]
fn totals_are_invariant_to_mutator_count_and_ssb_drain_timing() {
    use kingsguard::MutatorConfig;
    use workloads::{benchmark, SyntheticMutator, WorkloadConfig};

    let profile = benchmark("lusearch").unwrap();
    let workload_config = WorkloadConfig {
        scale: 2048,
        seed: 99,
    };
    for heap_config in [HeapConfig::kg_n(), HeapConfig::kg_w(), HeapConfig::kg_d()] {
        let mut baseline = None;
        for mutators in [1usize, 4] {
            for ssb_capacity in [0usize, 7, 4096] {
                let mut heap = KingsguardHeap::new(
                    profile.heap_config(heap_config.clone(), workload_config.scale),
                    MemoryConfig::architecture_independent(),
                );
                let mutator_config = MutatorConfig {
                    tlab_bytes: 0,
                    ssb_capacity,
                };
                SyntheticMutator::new(profile.clone(), workload_config).run_multi_configured(
                    &mut heap,
                    mutators,
                    mutator_config,
                    |_, _| {},
                );
                let report = heap.finish();
                let fingerprint = (
                    report.memory.writes(MemoryKind::Pcm),
                    report.memory.writes(MemoryKind::Dram),
                    report.gc.remset_insertions,
                    report.gc.writes_to_nursery_objects,
                    report.gc.writes_to_mature_objects,
                    report.gc.pcm_to_dram_rescues,
                    report.gc.dram_to_pcm_demotions,
                );
                match &baseline {
                    None => baseline = Some(fingerprint),
                    Some(expected) => assert_eq!(
                        &fingerprint, expected,
                        "K={mutators}, ssb_capacity={ssb_capacity} changed the totals"
                    ),
                }
            }
        }
    }
}

/// Reachable objects keep their identity and shape across arbitrary
/// interleavings of mutation and collection, for every collector (including
/// the profile-guided KG-A and the online-adaptive KG-D).
#[test]
fn live_objects_survive_any_program() {
    check_property("live_objects_survive_any_program", 24, |rng| {
        let steps = arbitrary_program(rng, 1, 120);
        for config in heap_configs() {
            run_program(config.clone(), &steps);
        }
    });
}

/// The DRAM-only baseline never produces PCM traffic and the PCM-only
/// baseline never produces DRAM traffic, whatever the program does.
#[test]
fn single_technology_baselines_stay_on_their_technology() {
    check_property(
        "single_technology_baselines_stay_on_their_technology",
        16,
        |rng| {
            let steps = arbitrary_program(rng, 1, 80);
            let mut dram_heap = KingsguardHeap::new(
                HeapConfig::gen_immix_dram(),
                MemoryConfig::architecture_independent(),
            );
            let mut pcm_heap = KingsguardHeap::new(
                HeapConfig::gen_immix_pcm(),
                MemoryConfig::architecture_independent(),
            );
            for heap in [&mut dram_heap, &mut pcm_heap] {
                let mut m = heap.default_mutator().unwrap();
                let mut handles: Vec<Handle> = Vec::new();
                for step in &steps {
                    match step {
                        Step::Alloc { ref_slots, payload } => {
                            handles.push(m.alloc(heap, ObjectShape::new(*ref_slots, *payload), 1))
                        }
                        Step::AllocLarge { payload } => {
                            handles.push(m.alloc(heap, ObjectShape::primitive(*payload), 1))
                        }
                        Step::WritePrim { victim, offset } if !handles.is_empty() => {
                            let handle = handles[victim % handles.len()];
                            m.write_prim(heap, handle, *offset, 8);
                        }
                        Step::Release { victim } if !handles.is_empty() => {
                            let handle = handles.swap_remove(victim % handles.len());
                            heap.release(handle);
                        }
                        Step::CollectNursery => heap.collect_young(),
                        Step::CollectFull => heap.collect_full(),
                        _ => {}
                    }
                }
            }
            assert_eq!(dram_heap.finish().memory.writes(MemoryKind::Pcm), 0);
            assert_eq!(pcm_heap.finish().memory.writes(MemoryKind::Dram), 0);
        },
    );
}

/// The write-rationing guarantee: for the same program, KG-W never sends
/// more application writes to PCM than KG-N does... within a tolerance
/// for the rare programs whose writes all target long-lived unwritten
/// objects (where both collectors behave identically).
#[test]
fn kg_w_never_greatly_exceeds_kg_n_pcm_application_writes() {
    check_property(
        "kg_w_never_greatly_exceeds_kg_n_pcm_application_writes",
        16,
        |rng| {
            let steps = arbitrary_program(rng, 20, 150);
            let run = |config: HeapConfig| {
                let mut heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
                let mut m = heap.default_mutator().unwrap();
                let mut handles: Vec<(Handle, u16, u32)> = Vec::new();
                for step in &steps {
                    match step {
                        Step::Alloc { ref_slots, payload } => handles.push((
                            m.alloc(&mut heap, ObjectShape::new(*ref_slots, *payload), 1),
                            *ref_slots,
                            *payload,
                        )),
                        Step::AllocLarge { payload } => handles.push((
                            m.alloc(&mut heap, ObjectShape::primitive(*payload), 1),
                            0,
                            *payload,
                        )),
                        Step::WritePrim { victim, offset } if !handles.is_empty() => {
                            let (handle, _, payload) = handles[victim % handles.len()];
                            if payload > 0 {
                                m.write_prim(&mut heap, handle, offset % payload as usize, 8);
                            }
                        }
                        Step::WriteRef { src, slot, target } if !handles.is_empty() => {
                            let (src_handle, ref_slots, _) = handles[src % handles.len()];
                            let (target_handle, ..) = handles[target % handles.len()];
                            if ref_slots > 0 {
                                m.write_ref(
                                    &mut heap,
                                    src_handle,
                                    slot % ref_slots as usize,
                                    Some(target_handle),
                                );
                            }
                        }
                        Step::Release { victim } if !handles.is_empty() => {
                            let (handle, ..) = handles.swap_remove(victim % handles.len());
                            heap.release(handle);
                        }
                        Step::CollectNursery => heap.collect_young(),
                        Step::CollectFull => heap.collect_full(),
                        _ => {}
                    }
                }
                let report = heap.finish();
                report.memory.phase_writes(MemoryKind::Pcm).get(Phase::Mutator)
            };
            let kg_n = run(HeapConfig::kg_n());
            let kg_w = run(HeapConfig::kg_w());
            // KG-W may add a handful of PCM writes through extra copying-related
            // reference updates, but application writes must not blow up.
            assert!(kg_w <= kg_n + 64, "KG-W app PCM writes {} vs KG-N {}", kg_w, kg_n);
        },
    );
}

/// The adaptive analogue of the KG-W bound: for the same program, the
/// online-adaptive KG-D never sends meaningfully more application writes to
/// PCM than KG-N does — whatever it learns, the rescue fallback and DRAM
/// pretenuring only remove PCM write targets.
#[test]
fn kg_d_never_greatly_exceeds_kg_n_pcm_application_writes() {
    check_property(
        "kg_d_never_greatly_exceeds_kg_n_pcm_application_writes",
        16,
        |rng| {
            let steps = arbitrary_program(rng, 20, 150);
            let run = |config: HeapConfig| {
                let mut heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
                let mut m = heap.default_mutator().unwrap();
                let mut handles: Vec<(Handle, u16, u32)> = Vec::new();
                let mut site: u32 = 1;
                for step in &steps {
                    match step {
                        Step::Alloc { ref_slots, payload } => {
                            let handle = m.alloc_site(
                                &mut heap,
                                ObjectShape::new(*ref_slots, *payload),
                                1,
                                SiteId(site),
                            );
                            handles.push((handle, *ref_slots, *payload));
                            site = (site % 16) + 1;
                        }
                        Step::AllocLarge { payload } => handles.push((
                            m.alloc(&mut heap, ObjectShape::primitive(*payload), 1),
                            0,
                            *payload,
                        )),
                        Step::WritePrim { victim, offset } if !handles.is_empty() => {
                            let (handle, _, payload) = handles[victim % handles.len()];
                            if payload > 0 {
                                m.write_prim(&mut heap, handle, offset % payload as usize, 8);
                            }
                        }
                        Step::WriteRef { src, slot, target } if !handles.is_empty() => {
                            let (src_handle, ref_slots, _) = handles[src % handles.len()];
                            let (target_handle, ..) = handles[target % handles.len()];
                            if ref_slots > 0 {
                                m.write_ref(
                                    &mut heap,
                                    src_handle,
                                    slot % ref_slots as usize,
                                    Some(target_handle),
                                );
                            }
                        }
                        Step::Release { victim } if !handles.is_empty() => {
                            let (handle, ..) = handles.swap_remove(victim % handles.len());
                            heap.release(handle);
                        }
                        Step::CollectNursery => heap.collect_young(),
                        Step::CollectFull => heap.collect_full(),
                        _ => {}
                    }
                }
                let report = heap.finish();
                report.memory.phase_writes(MemoryKind::Pcm).get(Phase::Mutator)
            };
            let kg_n = run(HeapConfig::kg_n());
            let kg_d = run(HeapConfig::kg_d());
            assert!(kg_d <= kg_n + 64, "KG-D app PCM writes {} vs KG-N {}", kg_d, kg_n);
        },
    );
}

/// A KG-A heap running under an all-cold profile places no mature object in
/// DRAM, whatever program runs: every advised placement chooses PCM, and —
/// as long as nothing is written after promotion (so the rescue fallback
/// never fires) — the DRAM mature and large spaces stay byte-for-byte empty.
#[test]
fn kg_a_with_all_cold_profile_places_no_mature_objects_in_dram() {
    check_property(
        "kg_a_with_all_cold_profile_places_no_mature_objects_in_dram",
        24,
        |rng| {
            // Write-free program: allocations, releases and collections only.
            let mut heap = KingsguardHeap::new(
                HeapConfig::kg_a(AdviceTable::all_cold()),
                MemoryConfig::architecture_independent(),
            );
            let mut m = heap.default_mutator().unwrap();
            let mut handles: Vec<Handle> = Vec::new();
            let mut site: u32 = 1;
            for _ in 0..rng.gen_range(10usize..150) {
                match rng.gen_range(0u32..10) {
                    0..=5 => {
                        let shape = ObjectShape::new(rng.gen_range(0u16..4), rng.gen_range(8u32..160));
                        handles.push(m.alloc_site(&mut heap, shape, 1, SiteId(site)));
                        site = (site % 32) + 1;
                    }
                    6 => {
                        let shape = ObjectShape::primitive(rng.gen_range(9_000u32..20_000));
                        handles.push(m.alloc_site(&mut heap, shape, 1, SiteId(site)));
                    }
                    7 => {
                        if !handles.is_empty() {
                            let index = rng.gen_range(0usize..handles.len());
                            heap.release(handles.swap_remove(index));
                        }
                    }
                    8 => heap.collect_young(),
                    _ => heap.collect_full(),
                }
                assert_eq!(
                    heap.dram_heap_bytes(),
                    0,
                    "a mature object reached DRAM under all-cold advice"
                );
            }
            let report = heap.finish();
            assert_eq!(report.gc.advised_to_dram_objects, 0);
            assert_eq!(report.gc.advised_to_dram_bytes, 0);
            assert_eq!(
                report.gc.pcm_to_dram_rescues, 0,
                "nothing was written, so nothing may be rescued"
            );
        },
    );
}

/// With arbitrary writes the rescue fallback may legitimately move written
/// objects into DRAM, but the *advised placements* of an all-cold profile
/// still never choose DRAM.
#[test]
fn kg_a_all_cold_advised_placements_never_choose_dram_even_with_writes() {
    check_property(
        "kg_a_all_cold_advised_placements_never_choose_dram_even_with_writes",
        16,
        |rng| {
            let steps = arbitrary_program(rng, 10, 120);
            let mut heap = KingsguardHeap::new(
                HeapConfig::kg_a(AdviceTable::all_cold()),
                MemoryConfig::architecture_independent(),
            );
            let mut m = heap.default_mutator().unwrap();
            let mut handles: Vec<(Handle, u16, u32)> = Vec::new();
            let mut site: u32 = 1;
            for step in &steps {
                match step {
                    Step::Alloc { ref_slots, payload } => {
                        let handle =
                            m.alloc_site(&mut heap, ObjectShape::new(*ref_slots, *payload), 1, SiteId(site));
                        handles.push((handle, *ref_slots, *payload));
                        site = (site % 32) + 1;
                    }
                    Step::AllocLarge { payload } => handles.push((
                        m.alloc_site(&mut heap, ObjectShape::primitive(*payload), 1, SiteId(site)),
                        0,
                        *payload,
                    )),
                    Step::WritePrim { victim, offset } if !handles.is_empty() => {
                        let (handle, _, payload) = handles[victim % handles.len()];
                        if payload > 0 {
                            m.write_prim(&mut heap, handle, offset % payload as usize, 8);
                        }
                    }
                    Step::WriteRef { src, slot, target } if !handles.is_empty() => {
                        let (src_handle, ref_slots, _) = handles[src % handles.len()];
                        let (target_handle, ..) = handles[target % handles.len()];
                        if ref_slots > 0 {
                            m.write_ref(
                                &mut heap,
                                src_handle,
                                slot % ref_slots as usize,
                                Some(target_handle),
                            );
                        }
                    }
                    Step::Release { victim } if !handles.is_empty() => {
                        let (handle, ..) = handles.swap_remove(victim % handles.len());
                        heap.release(handle);
                    }
                    Step::CollectNursery => heap.collect_young(),
                    Step::CollectFull => heap.collect_full(),
                    _ => {}
                }
            }
            let report = heap.finish();
            assert_eq!(
                report.gc.advised_to_dram_objects, 0,
                "all-cold advice must never pretenure into DRAM"
            );
        },
    );
}
