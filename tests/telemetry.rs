//! End-to-end tests of the telemetry subsystem: telemetry must be invisible
//! to the simulation (bit-identical results on or off, for every collector),
//! a `--telemetry-dir` run must yield a parseable `.kgmetrics` file with
//! GC-phase spans, pause histograms, throughput gauges, cache hit rate and
//! a wear snapshot, and two same-seed runs must diff with zero drift.

use experiments::runner::{Cell, ExperimentConfig, Matrix};
use experiments::MeasurementMode;
use hybrid_mem::{MemoryConfig, MemoryKind};
use kingsguard::{HeapConfig, KingsguardHeap};
use telemetry::{diff_docs, TelemetryDoc};
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

fn run_live(heap_config: &HeapConfig, enable_telemetry: bool) -> kingsguard::RunReport {
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
    if enable_telemetry {
        heap.enable_telemetry();
    }
    mutator.run(&mut heap);
    heap.finish()
}

#[test]
fn telemetry_is_invisible_to_the_simulation_for_every_collector() {
    for heap_config in collectors() {
        let disabled = run_live(&heap_config, false);
        let enabled = run_live(&heap_config, true);
        assert_eq!(
            fingerprint(&disabled),
            fingerprint(&enabled),
            "telemetry perturbed the simulation under {}",
            heap_config.label()
        );
        assert!(
            disabled.telemetry.is_none(),
            "a disabled handle must emit exactly nothing"
        );
        let report = enabled
            .telemetry
            .as_ref()
            .unwrap_or_else(|| panic!("{}: enabled run produced no report", heap_config.label()));
        // The derived counters must agree exactly with the run's own stats.
        assert_eq!(
            report.counter("mem.writes.pcm"),
            Some(enabled.memory.writes(MemoryKind::Pcm)),
            "{}",
            heap_config.label()
        );
        assert_eq!(
            report.counter("gc.collections.nursery"),
            Some(enabled.gc.nursery.collections),
            "{}",
            heap_config.label()
        );
        let pauses = report.hist("gc.pause_ns").expect("pause histogram");
        let total_gcs =
            enabled.gc.nursery.collections + enabled.gc.observer.collections + enabled.gc.major.collections;
        assert_eq!(pauses.count, total_gcs, "{}", heap_config.label());
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kgmetrics-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sim_quick() -> ExperimentConfig {
    ExperimentConfig {
        mode: MeasurementMode::Simulation,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn replayed_run_with_telemetry_dir_is_fully_observable() {
    let trace_dir = temp_dir("traces");
    let tm_dir = temp_dir("metrics");
    let config = sim_quick().with_trace_dir(&trace_dir).with_telemetry_dir(&tm_dir);
    let profile = benchmark("lusearch").unwrap();

    // First run records the heap-event trace; the second replays it.
    let matrix = Matrix::default();
    matrix.run(Cell::new(&profile, HeapConfig::kg_n(), &config));
    let kg_w = Cell::new(&profile, HeapConfig::kg_w(), &config);
    let replayed = matrix.run(kg_w.clone());
    let report = replayed.telemetry.as_ref().expect("telemetry report");
    assert!(
        report.counter("replay.events").unwrap_or(0) > 0,
        "second run must have replayed the recorded trace"
    );

    // The on-disk .kgmetrics file, named after the cell, must carry the
    // full picture.
    let path = kg_w.metrics_path(&tm_dir);
    assert_eq!(path, tm_dir.join("lusearch-KG-W-simulation.kgmetrics"));
    let doc = TelemetryDoc::load(&path).expect("load .kgmetrics");
    assert_eq!(doc.meta.benchmark, "lusearch");
    assert_eq!(doc.meta.collector, "KG-W");
    assert_eq!(doc.meta.mode, "simulation");
    assert!(doc.spans.contains_key("gc.nursery"), "per-phase GC spans");
    assert!(doc.spans.contains_key("gc.nursery.copy"), "nested phase spans");
    let pauses = &doc.hists["gc.pause_ns"];
    assert!(pauses.count > 0, "pause histogram must have samples");
    assert!(pauses.p99 >= pauses.p50, "quantiles must be ordered");
    assert!(
        doc.gauges["replay.events_per_sec"].0 > 0.0,
        "replay throughput gauge"
    );
    let (hit_rate, deterministic) = doc.gauges["cache.hit_rate"];
    assert!((0.0..=1.0).contains(&hit_rate) && deterministic, "cache hit rate");
    assert!(
        doc.events.iter().any(|e| e.name == "wear.snapshot"),
        "wear snapshot event"
    );
    let summary = doc.summary();
    assert!(summary.contains("lusearch") && summary.contains("KG-W"));

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&tm_dir).ok();
}

#[test]
fn same_seed_runs_diff_with_zero_drift() {
    let dir_a = temp_dir("drift-a");
    let dir_b = temp_dir("drift-b");
    let profile = benchmark("pmd").unwrap();
    let cell = Cell::new(&profile, HeapConfig::kg_w(), &sim_quick());
    for dir in [&dir_a, &dir_b] {
        let config = sim_quick().with_telemetry_dir(dir);
        Matrix::default().run(Cell::new(&profile, HeapConfig::kg_w(), &config));
    }
    let a = TelemetryDoc::load(&cell.metrics_path(&dir_a)).unwrap();
    let b = TelemetryDoc::load(&cell.metrics_path(&dir_b)).unwrap();
    let diff = diff_docs(&a, &b);
    assert!(
        !diff.has_drift(),
        "same-seed runs must not drift:\n{}",
        diff.report()
    );
    assert!(diff.report().contains(", 0 drifted"));
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn both_modes_of_one_pair_write_their_own_reports() {
    let dir = temp_dir("modes");
    let profile = benchmark("pmd").unwrap();
    let matrix = Matrix::default();
    let sim = sim_quick().with_telemetry_dir(&dir);
    let hw = ExperimentConfig::quick().with_telemetry_dir(&dir);
    for config in [&sim, &hw] {
        matrix.run(Cell::new(&profile, HeapConfig::kg_w(), config));
    }
    assert_eq!((matrix.runs(), matrix.cells()), (2, 2));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "pmd-KG-W-arch-independent.kgmetrics",
            "pmd-KG-W-simulation.kgmetrics"
        ]
    );
    let load = |name: &str| TelemetryDoc::load(&dir.join(name)).unwrap();
    let (arch, simulated) = (load(&names[0]), load(&names[1]));
    assert_eq!(arch.meta.mode, "arch-independent");
    assert_eq!(simulated.meta.mode, "simulation");
    // Each keeps its own run: only the simulated one went through caches.
    assert!(simulated.counters.get("cache.hits").is_some_and(|&hits| hits > 0));
    assert!(diff_docs(&arch, &simulated).has_drift());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_schema_versions_are_rejected() {
    let good = "{\"schema\":\"kingsguard-telemetry\",\"version\":1,\"benchmark\":\"x\",\
                \"collector\":\"KG-N\",\"seed\":1,\"scale\":1,\"elapsed_ns\":1}\n";
    assert!(TelemetryDoc::parse(good).is_ok());
    let bad = good.replace("\"version\":1", "\"version\":999");
    assert!(
        TelemetryDoc::parse(&bad).is_err(),
        "future schema versions must be rejected, not misread"
    );
}
