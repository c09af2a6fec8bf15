//! Sanitizer and trace-verifier integration suite.
//!
//! The guarantees the `kingsguard-check` subsystem makes (the fault
//! test below adds a fourth: page-retirement evacuation loses nothing and
//! leaves the retired pages empty):
//!
//! 1. **Soundness of detection** — every deliberately broken mutator in
//!    [`workloads::broken`] trips *exactly* its intended violation class,
//!    with provenance, and nothing else.
//! 2. **Passivity** — installing the sanitizer changes no simulated metric:
//!    a sanitized run is bit-identical to an unsanitized one for all six
//!    collectors (the shadow checker reads through the passive inspection
//!    API only).
//! 3. **Determinism of the static analyzer** — a freshly recorded
//!    multi-mutator trace is grammatically sound, re-records to the same
//!    bytes and analyzes to the same counts.

use experiments::runner::{Cell, ExperimentConfig, Matrix};
use experiments::traces::{config_for, REPLAY_COLLECTORS};
use hybrid_mem::MemoryKind;
use kingsguard::{HeapConfig, HeapEvent, HeapObserver, KingsguardHeap, MutatorConfig};
use workloads::{
    benchmark, StreamingConfig, StreamingWorkload, SyntheticMutator, WorkloadConfig, ALL_FIXTURES,
    STREAMING_HEAP_BUDGET_BYTES,
};

#[test]
fn broken_fixtures_trip_exactly_their_expected_violations() {
    for &fixture in &ALL_FIXTURES {
        let report = experiments::check::run_broken_fixture(fixture);
        assert_eq!(
            report.kinds(),
            fixture.expected_kinds(),
            "fixture {} reported {:#?}",
            fixture.name(),
            report.violations
        );
        // Every violation carries provenance: the rendered form names the
        // offending object/handle and the checkpoint, never an empty
        // placeholder, and the telemetry note mirrors the typed kind.
        for violation in &report.violations {
            let rendered = violation.to_string();
            assert!(!rendered.is_empty());
            assert_eq!(violation.note().kind, violation.kind());
        }
    }
}

#[test]
fn sanitizer_is_passive_and_clean_for_every_collector() {
    let config = ExperimentConfig::quick();
    let profile = benchmark("lusearch").expect("lusearch profile");
    for label in REPLAY_COLLECTORS {
        let base = Matrix::default().run(Cell::new(&profile, config_for(label), &config));
        let (checked, report) = experiments::run_benchmark_checked(&profile, config_for(label), &config);
        assert!(
            report.is_clean(),
            "{label}: sanitizer found violations on a healthy run: {:#?}",
            report.violations
        );
        assert!(report.checkpoints > 0, "{label}: no checkpoints ran");
        assert!(report.objects_verified > 0, "{label}: no objects verified");
        for kind in [MemoryKind::Dram, MemoryKind::Pcm] {
            assert_eq!(
                base.memory.writes(kind),
                checked.memory.writes(kind),
                "{label}: sanitizer perturbed {kind:?} writes"
            );
            assert_eq!(
                base.memory.reads(kind),
                checked.memory.reads(kind),
                "{label}: sanitizer perturbed {kind:?} reads"
            );
        }
        assert_eq!(
            base.gc.pcm_to_dram_rescues, checked.gc.pcm_to_dram_rescues,
            "{label}"
        );
        assert_eq!(
            base.gc.dram_to_pcm_demotions, checked.gc.dram_to_pcm_demotions,
            "{label}"
        );
    }
}

#[test]
fn streaming_workload_is_violation_free_for_every_collector() {
    let config = ExperimentConfig::quick();
    for label in REPLAY_COLLECTORS {
        let report = experiments::check::run_streaming_checked(config_for(label), &config);
        assert!(
            report.is_clean(),
            "{label}: streaming violations: {:#?}",
            report.violations
        );
        assert!(report.checkpoints > 0, "{label}: no checkpoints ran");
    }
}

/// The full collection's dying-page evacuation, watched by the sanitizer:
/// lusearch at `--quick` scale under the `repro faults` schedule at the
/// lowest endurance, ending with the sweep's maintenance collection, on
/// every collector of the sweep. Each row pins (collector, objects
/// evacuated, bytes evacuated, pages retired).
#[test]
fn fault_evacuation_is_violation_free_under_the_sanitizer() {
    use experiments::faults::{sweep_fault_config, FAULT_COLLECTORS};
    use hybrid_mem::{Endurance, MemoryConfig};

    const EVACUATIONS: [(&str, u64, u64, u64); 4] = [
        ("PCM-only", 624, 113432, 189),
        ("KG-N", 624, 113432, 125),
        ("KG-W", 2, 50872, 72),
        ("KG-D", 383, 38752, 57),
    ];
    let config = ExperimentConfig::quick();
    let profile = benchmark("lusearch").expect("lusearch profile");
    let fault = sweep_fault_config(&config, Endurance::Low10M);
    let mut seen = Vec::new();
    for label in FAULT_COLLECTORS {
        let mut heap = KingsguardHeap::new(
            profile.heap_config(config_for(label), config.scale),
            MemoryConfig::architecture_independent().with_faults(fault),
        );
        let sanitizer = check::SanitizerHandle::install(&mut heap);
        let workload = WorkloadConfig {
            scale: config.scale,
            seed: config.seed,
        };
        SyntheticMutator::new(profile.clone(), workload).run_with(&mut heap, |_, _| {});
        heap.collect_full();
        let gc = heap.finish().gc;
        let report = sanitizer.report();
        assert!(report.is_clean(), "{label}: {:#?}", report.violations);
        assert!(gc.fault_pages_retired > 0, "{label}: no page retired");
        assert!(gc.fault_evacuated_objects > 0, "{label}: nothing evacuated");
        seen.push((
            label,
            gc.fault_evacuated_objects,
            gc.fault_evacuated_bytes,
            gc.fault_pages_retired,
        ));
    }
    assert_eq!(seen, EVACUATIONS);
}

/// A third-party observer: logs the event stream it is shown.
#[derive(Debug)]
struct EventLog(std::rc::Rc<std::cell::RefCell<Vec<HeapEvent>>>);

impl HeapObserver for EventLog {
    fn on_event(&mut self, event: &HeapEvent) {
        self.0.borrow_mut().push(*event);
    }
}

#[test]
fn recorder_sanitizer_and_a_custom_observer_share_one_heap() {
    use trace::TraceEvent as T;
    let profile = benchmark("lusearch").expect("lusearch profile");
    let scale = ExperimentConfig::quick().scale;
    let mutator = SyntheticMutator::new(
        profile.clone(),
        WorkloadConfig {
            scale,
            ..Default::default()
        },
    );
    let fresh_heap = || {
        KingsguardHeap::new(
            profile.heap_config(HeapConfig::kg_w(), scale),
            hybrid_mem::MemoryConfig::architecture_independent(),
        )
    };

    let mut plain = fresh_heap();
    mutator.run_multi_configured(&mut plain, 2, MutatorConfig::default(), |_, _| {});
    let plain = plain.finish();

    let mut heap = fresh_heap();
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log_id = heap.attach_observer(Box::new(EventLog(log.clone())));
    let sanitizer = check::SanitizerHandle::install(&mut heap);
    let recorded = mutator.record_multi_configured(&mut heap, 2, MutatorConfig::default());
    let returned = heap.detach_observer(log_id).expect("the log is still attached");
    assert!(
        format!("{returned:?}").starts_with("EventLog"),
        "the box comes back"
    );
    assert!(heap.detach_observer(log_id).is_none(), "an id detaches once");
    drop(returned);
    let observed = heap.finish();
    let report = sanitizer.report();

    let log = std::rc::Rc::try_unwrap(log)
        .expect("the heap dropped its observer")
        .into_inner();
    assert!(
        log.len() > 1_000,
        "the workload emitted only {} events",
        log.len()
    );
    assert_eq!(
        report.events,
        log.len() as u64,
        "sanitizer and log saw different streams"
    );
    // Hook markers issue no heap call; every other recorded event is one.
    let calls: Vec<T> = recorded
        .events
        .iter()
        .filter(|event| !matches!(event, T::Hook { .. }))
        .collect();
    assert_eq!(
        calls.len(),
        log.len(),
        "the trace and the log saw different streams"
    );
    for (index, (seen, persisted)) in log.iter().zip(calls).enumerate() {
        let same = matches!(
            (seen, persisted),
            (HeapEvent::MutatorSpawned { .. }, T::Spawn { .. })
                | (HeapEvent::MutatorRetired { .. }, T::Retire { .. })
                | (HeapEvent::Alloc { .. }, T::Alloc { .. })
                | (HeapEvent::WriteRef { .. }, T::WriteRef { .. })
                | (HeapEvent::WritePrim { .. }, T::WritePrim { .. })
                | (HeapEvent::ReadRef { .. }, T::ReadRef { .. })
                | (HeapEvent::ReadPrim { .. }, T::ReadPrim { .. })
                | (HeapEvent::Release { .. }, T::Release { .. })
                | (HeapEvent::Safepoint, T::Safepoint)
                | (HeapEvent::Collect { .. }, T::Collect { .. })
        );
        assert!(
            same,
            "event {index}: log saw {seen:?}, the trace holds {persisted:?}"
        );
    }

    assert!(report.is_clean(), "violations: {:#?}", report.violations);
    assert!(report.checkpoints > 0);
    let gc = |report: &kingsguard::RunReport| {
        let gc = &report.gc;
        (
            (gc.nursery, gc.observer, gc.major),
            (gc.bytes_allocated, gc.reference_writes, gc.primitive_writes),
            (gc.remset_insertions, gc.writes_to_mature_objects),
            (gc.pcm_to_dram_rescues, gc.dram_to_pcm_demotions),
        )
    };
    assert_eq!(gc(&plain), gc(&observed));
    assert_eq!(format!("{:?}", plain.memory), format!("{:?}", observed.memory));
}

fn record_streaming_trace(mutators: usize) -> trace::Trace {
    let mut heap = KingsguardHeap::new(
        HeapConfig::kg_n().with_heap_budget(STREAMING_HEAP_BUDGET_BYTES),
        hybrid_mem::MemoryConfig::architecture_independent(),
    );
    let workload = StreamingWorkload::new(StreamingConfig {
        mutators,
        ..Default::default()
    });
    let (_, recorded) = workload.record(&mut heap);
    heap.finish();
    recorded
}

#[test]
fn streaming_trace_analysis_is_deterministic() {
    let recorded = record_streaming_trace(4);
    let first = check::analyze_trace(&recorded);
    assert!(
        first.violations.is_empty(),
        "recorded trace is grammatically sound: {:#?}",
        first.violations
    );
    assert_eq!(first.mutators, 5, "4 spawned contexts + the base context");
    assert!(first.sync_points > 0);
    let counts = |analysis: &check::TraceAnalysis| {
        (
            analysis.events,
            analysis.allocations,
            analysis.mutators,
            analysis.sync_points,
        )
    };

    // Fresh heap, fresh recording: the same bytes, the same analysis.
    let rerecorded = record_streaming_trace(4);
    assert_eq!(
        trace::trace_to_bytes(&recorded),
        trace::trace_to_bytes(&rerecorded)
    );
    assert_eq!(counts(&check::analyze_trace(&rerecorded)), counts(&first));
}

#[test]
fn single_mutator_streaming_trace_is_grammatically_sound() {
    let analysis = check::analyze_trace(&record_streaming_trace(1));
    assert!(analysis.violations.is_empty(), "{:#?}", analysis.violations);
    assert_eq!(analysis.mutators, 2, "1 spawned context + the base context");
    assert!(analysis.sync_points > 0);
}
