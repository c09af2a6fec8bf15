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
//! 3. **Determinism of the static analyzer** — `repro trace check` over a
//!    freshly recorded multi-mutator trace produces a bit-identical race
//!    report across analyses *and* across re-recordings.

use experiments::runner::{run_benchmark, ExperimentConfig};
use experiments::traces::{config_for, REPLAY_COLLECTORS};
use hybrid_mem::MemoryKind;
use kingsguard::{HeapConfig, HeapEvent, HeapObserver, KingsguardHeap};
use workloads::{
    benchmark, StreamingConfig, StreamingWorkload, SyntheticMutator, WorkloadConfig, ALL_FIXTURES,
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
        let base = run_benchmark(&profile, config_for(label), &config);
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
        let budget = profile.scaled_heap_bytes(config.scale).max(2 << 20) as usize;
        let mut heap = KingsguardHeap::new(
            config_for(label).with_heap_budget(budget),
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
        let budget = profile.scaled_heap_bytes(scale).max(2 << 20) as usize;
        KingsguardHeap::new(
            HeapConfig::kg_w().with_heap_budget(budget),
            hybrid_mem::MemoryConfig::architecture_independent(),
        )
    };

    let mut plain = fresh_heap();
    mutator.run_multi(&mut plain, 2);
    let plain = plain.finish();

    let mut heap = fresh_heap();
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log_id = heap.attach_observer(Box::new(EventLog(log.clone())));
    let sanitizer = check::SanitizerHandle::install(&mut heap);
    // Attaches the recorder, runs the workload, detaches the recorder.
    let recorded = mutator.record_multi(&mut heap, 2);
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
    assert_eq!(
        recorded.events.len(),
        log.len(),
        "recorder and log saw different streams"
    );
    for (index, (seen, persisted)) in log.iter().zip(recorded.events.iter()).enumerate() {
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
                | (HeapEvent::HookMark { .. }, T::Hook { .. })
        );
        assert!(
            same,
            "event {index}: log saw {seen:?}, recorder persisted {persisted:?}"
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
        HeapConfig::kg_n().with_heap_budget(512 * 1024),
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
fn multi_mutator_race_report_is_deterministic() {
    let recorded = record_streaming_trace(4);
    let first = check::analyze_trace(&recorded);
    assert!(
        first.violations.is_empty(),
        "recorded trace is grammatically sound: {:#?}",
        first.violations
    );
    assert_eq!(first.mutators, 5, "4 spawned contexts + the base context");
    assert!(first.sync_points > 0);

    // Same trace, second analysis: bit-identical report.
    let second = check::analyze_trace(&recorded);
    assert_eq!(
        check::render_race_report(&first),
        check::render_race_report(&second)
    );

    // Fresh heap, fresh recording: still bit-identical.
    let rerecorded = record_streaming_trace(4);
    let third = check::analyze_trace(&rerecorded);
    assert_eq!(
        check::render_race_report(&first),
        check::render_race_report(&third)
    );
}

#[test]
fn single_mutator_trace_has_no_races() {
    let recorded = record_streaming_trace(1);
    let analysis = check::analyze_trace(&recorded);
    assert!(analysis.violations.is_empty(), "{:#?}", analysis.violations);
    assert!(
        analysis.races.is_empty(),
        "a single-context stream cannot race: {:#?}",
        analysis.races
    );
}
