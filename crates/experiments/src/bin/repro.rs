//! `repro` — regenerates the paper's tables and figures.
//!
//! Run `repro --help` for the full experiment list and flags. Highlights:
//!
//! * `repro <fig*|table*|headline|advise|adaptive|mutators|all>` regenerates
//!   one (or every) figure/table; `--scale N` shrinks the workloads,
//!   `--quick` is the smoke-test configuration, `--jobs N` fans the
//!   embarrassingly parallel per-benchmark runs over worker threads with
//!   identical results and ordering. The experiments of one invocation share
//!   one run matrix: each distinct (benchmark, collector, mode, ...) cell
//!   runs once, and the run and cell counts are printed on stderr.
//! * `repro trace record|replay|diff` exposes the heap-event trace
//!   subsystem: record one `.kgtrace` per benchmark, replay recorded traces
//!   under every collector (`--verify` checks each replay bit-identical to
//!   its live run and reports the live-vs-replay wall-clock), and diff two
//!   traces on aggregate PCM writes *and* wear uniformity.
//! * Passing `--trace-dir DIR` to any figure/table experiment makes its
//!   runs trace-backed: the first run of each benchmark records its heap-
//!   event stream, every later run — any collector, both measurement modes,
//!   any `--jobs` fan-out — replays it instead of re-running workload
//!   generation.
//! * Passing `--telemetry-dir DIR` writes one `.kgmetrics` JSON-lines
//!   telemetry file per cell (GC-phase spans, pause histograms, cache and
//!   wear snapshots), named `{benchmark}-{collector}-{mode}.kgmetrics`;
//!   `repro metrics show|diff` renders one file or compares two, failing
//!   when deterministic metrics drift.
//!   `repro metrics export <file> --chrome|--folded` converts any
//!   `.kgmetrics` file to a Chrome `trace_event` timeline (chrome://tracing,
//!   Perfetto) or collapsed stacks (flamegraph.pl, speedscope).
//! * `repro profile` replays one recorded trace under every collector with
//!   the hot-path profiler on and prints exact events per simulator stage
//!   and touches per execution phase beside each replay's wall-clock; exits
//!   non-zero if the counts disagree with the run's device counters.
//! * `repro fleet [--tenants N]` runs the multi-tenant fleet comparison:
//!   the same N tenant heap sessions placed round-robin vs wear-levelled
//!   across the PCM device's regions, with the shared advice store
//!   warm-starting repeat KG-D tenants. Exits non-zero if any tenant
//!   session dies (each failure is a per-tenant report row, not a crash).
//!
//! Build with `--release`; full-scale runs of `all` take a few minutes.

use std::env;
use std::path::Path;
use std::process::ExitCode;

use experiments::cli::{self, ParsedArgs};
use experiments::runner::{panic_message, ExperimentConfig, Matrix};
use experiments::{
    adaptive, advise, composition, energy_time, faults, lifetime, mutators, tables, traces, writes,
};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let parsed = match cli::parse_args(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: {err}\n\n{}", cli::help_text());
            return ExitCode::FAILURE;
        }
    };
    if parsed.help {
        println!("{}", cli::help_text());
        return ExitCode::SUCCESS;
    }
    let Some(experiment) = parsed.experiment.clone() else {
        // `--mutators K` alone keeps its historical meaning of running the
        // mutators experiment.
        if parsed.mutators.is_some() {
            return run(&parsed, "mutators");
        }
        eprintln!("{}", cli::help_text());
        return ExitCode::FAILURE;
    };
    if experiment != "trace"
        && experiment != "metrics"
        && experiment != "check"
        && !parsed.positional.is_empty()
    {
        eprintln!(
            "error: unexpected argument {:?} after experiment {experiment:?}\n\n{}",
            parsed.positional[0],
            cli::help_text()
        );
        return ExitCode::FAILURE;
    }
    if let Err(message) = validate_dirs(&parsed, &experiment) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    run(&parsed, &experiment)
}

/// Validates the output directories up front: a missing directory is
/// created, an uncreatable or unwritable one is a descriptive error instead
/// of a panic deep inside a half-finished experiment.
fn validate_dirs(parsed: &ParsedArgs, experiment: &str) -> Result<(), String> {
    // `trace diff` and `metrics` only read explicit file paths.
    let trace_mode = (experiment == "trace")
        .then(|| parsed.positional.first().map(String::as_str))
        .flatten();
    let needs_trace_dir = parsed.trace_dir_set
        || experiment == "profile"
        || matches!(trace_mode, Some("record") | Some("replay"));
    if needs_trace_dir {
        ensure_writable_dir(&parsed.trace_dir, "--trace-dir")?;
    }
    if parsed.telemetry_dir_set {
        ensure_writable_dir(&parsed.telemetry_dir, "--telemetry-dir")?;
    }
    Ok(())
}

fn ensure_writable_dir(dir: &Path, flag: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|err| format!("{flag} {}: cannot create directory: {err}", dir.display()))?;
    let probe = dir.join(format!(".repro-probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|err| format!("{flag} {}: directory is not writable: {err}", dir.display()))?;
    std::fs::remove_file(&probe).ok();
    Ok(())
}

/// Builds the simulation- and architecture-independent-mode configurations
/// from the parsed flags.
fn configs(parsed: &ParsedArgs) -> (ExperimentConfig, ExperimentConfig) {
    let mut sim = ExperimentConfig::simulation();
    let mut hw = ExperimentConfig::architecture_independent();
    if parsed.quick {
        sim = ExperimentConfig {
            mode: experiments::MeasurementMode::Simulation,
            ..ExperimentConfig::quick()
        };
        hw = ExperimentConfig::quick();
    }
    if let Some(scale) = parsed.scale {
        sim = sim.with_scale(scale);
        hw = hw.with_scale(scale);
    }
    sim = sim.with_jobs(parsed.jobs);
    hw = hw.with_jobs(parsed.jobs);
    if parsed.trace_dir_set {
        sim = sim.with_trace_dir(&parsed.trace_dir);
        hw = hw.with_trace_dir(&parsed.trace_dir);
    }
    if parsed.telemetry_dir_set {
        sim = sim.with_telemetry_dir(&parsed.telemetry_dir);
        hw = hw.with_telemetry_dir(&parsed.telemetry_dir);
    }
    (sim, hw)
}

fn run(parsed: &ParsedArgs, experiment: &str) -> ExitCode {
    let (sim, hw) = configs(parsed);
    let profile_dir = parsed.profile_dir.clone();
    let mutator_threads = parsed.mutators.unwrap_or(4);

    if experiment == "trace" {
        return run_trace(parsed, &hw);
    }
    if experiment == "metrics" {
        return run_metrics(parsed);
    }
    if experiment == "profile" {
        return run_profile(parsed, &hw);
    }
    if experiment == "fleet" {
        return run_fleet(parsed, &hw);
    }
    if experiment == "check" {
        return run_check(parsed, &hw);
    }

    // One matrix for the whole invocation: an experiment reads the runs an
    // earlier one made instead of repeating them.
    let matrix = Matrix::default();
    let m = &matrix;
    let run_one = |name: &str| -> Option<String> {
        match name {
            "fig1" => Some(lifetime::run(m, &sim).figure1_report()),
            "fig5" => Some(lifetime::run(m, &sim).figure5_report()),
            "fig2" => Some(writes::figure2(m, &hw).report()),
            "fig6" => Some(writes::figure6(m, &sim).report()),
            "fig7" => Some(writes::figure7(m, &sim).report()),
            "fig8" => Some(energy_time::figure8(m, &sim).report()),
            "fig9" => Some(energy_time::figure9(m, &sim).report()),
            "fig10" => Some(writes::figure10(m, &sim).report()),
            "fig11" => Some(writes::figure11(m, &hw).report()),
            "fig12" => Some(energy_time::figure12(m, &hw).report()),
            "fig13" => Some(composition::figure13(m, &hw).report()),
            "table1" => Some(tables::table1()),
            "table2" => Some(tables::table2()),
            "table3" => Some(tables::table3(m, &sim).report()),
            "table4" => Some(tables::table4(m, &hw, true).report()),
            "advise" => {
                let benchmarks = experiments::default_benchmarks();
                Some(advise::profile_then_advise(m, &hw, &benchmarks, &profile_dir).report())
            }
            "adaptive" => {
                let benchmarks = experiments::default_benchmarks();
                Some(adaptive::adaptive_comparison(m, &hw, &benchmarks, &profile_dir).report())
            }
            "mutators" => {
                let benchmarks = experiments::default_benchmarks();
                Some(mutators::mutator_scaling(&hw, &benchmarks, mutator_threads).report())
            }
            "faults" => Some(faults::fault_sweep(m, &hw, "lusearch").report()),
            "headline" => Some(experiments::headline(m, &sim, &hw)),
            _ => None,
        }
    };

    let experiments: Vec<&str> = if experiment == "all" {
        cli::EXPERIMENTS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !matches!(*name, "all" | "trace" | "metrics" | "fleet" | "check" | "profile"))
            .collect()
    } else {
        vec![experiment]
    };

    // Crash isolation: one panicking experiment (e.g. a single cell that
    // `run_jobs` summarized after its siblings completed) is reported and
    // the remaining experiments of an `all` run still execute; the process
    // then exits non-zero with a summary of the failed experiments.
    let mut failed: Vec<String> = Vec::new();
    for name in experiments {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(name))) {
            Ok(Some(report)) => println!("{report}"),
            Ok(None) => {
                eprintln!("unknown experiment: {name}\n\n{}", cli::help_text());
                return ExitCode::FAILURE;
            }
            Err(payload) => {
                eprintln!(
                    "error: experiment {name} failed: {}",
                    panic_message(payload.as_ref())
                );
                failed.push(name.to_string());
            }
        }
    }
    if matrix.cells() > 0 {
        eprintln!(
            "run matrix: {} runs of {} distinct cells",
            matrix.runs(),
            matrix.cells()
        );
    }
    if !failed.is_empty() {
        eprintln!(
            "error: {} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_fleet(parsed: &ParsedArgs, hw: &ExperimentConfig) -> ExitCode {
    let tenants = parsed.tenants.unwrap_or(experiments::fleet::DEFAULT_TENANTS);
    let results = experiments::fleet::fleet_comparison(hw, tenants);
    println!("{}", results.report());
    let died = results.failures();
    if died > 0 {
        eprintln!("error: {died} tenant session(s) died; see the failure rows above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_check(parsed: &ParsedArgs, hw: &ExperimentConfig) -> ExitCode {
    match parsed.positional.first().map(String::as_str) {
        None => {
            let results = experiments::check_sweep(hw);
            println!("{}", results.report());
            let violations = results.violations();
            if violations > 0 {
                eprintln!("error: the sanitizer found {violations} invariant violation(s)");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        // Negative fixtures: exit 0 iff every fixture tripped exactly its
        // expected violation (CI inverts this to prove detection).
        Some("broken") => {
            if parsed.positional.len() > 1 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[1]);
                return ExitCode::FAILURE;
            }
            let results = experiments::broken_sweep();
            println!("{}", results.report());
            if !results.all_detected() {
                eprintln!("error: some broken fixtures were not detected (or over-reported)");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown check mode: {other}\n\n{}", cli::help_text());
            ExitCode::FAILURE
        }
    }
}

fn run_profile(parsed: &ParsedArgs, hw: &ExperimentConfig) -> ExitCode {
    // Like the trace experiment, the profiler replays traces recorded in
    // architecture-independent mode; strip the trace-backing flag so the
    // replays themselves are direct.
    let config = ExperimentConfig {
        trace_dir: None,
        ..hw.clone()
    };
    let dir = parsed.trace_dir.clone();
    let benchmark = workloads::benchmark(experiments::profile::DEFAULT_BENCHMARK)
        .expect("default profile benchmark exists");
    let results = experiments::hot_path_profile(&config, &benchmark, &dir);
    println!("{}", results.report());
    if let Err(broken) = results.check() {
        eprintln!("error: profile counts do not add up: {broken}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_metrics(parsed: &ParsedArgs) -> ExitCode {
    let mode = parsed.positional.first().map(String::as_str);
    match mode {
        Some("show") => {
            let Some(path) = parsed.positional.get(1) else {
                eprintln!("usage: repro metrics show <file.kgmetrics> [--top N]");
                return ExitCode::FAILURE;
            };
            if parsed.positional.len() > 2 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[2]);
                return ExitCode::FAILURE;
            }
            match telemetry::TelemetryDoc::load(Path::new(path)) {
                Ok(doc) => {
                    println!("{}", doc.summary_top(parsed.top));
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("export") => {
            let Some(path) = parsed.positional.get(1) else {
                eprintln!("usage: repro metrics export <file.kgmetrics> <--chrome|--folded> [--out PATH]");
                return ExitCode::FAILURE;
            };
            if parsed.positional.len() > 2 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[2]);
                return ExitCode::FAILURE;
            }
            if parsed.chrome == parsed.folded {
                eprintln!("error: pass exactly one of --chrome or --folded");
                return ExitCode::FAILURE;
            }
            let doc = match telemetry::TelemetryDoc::load(Path::new(path)) {
                Ok(doc) => doc,
                Err(err) => {
                    eprintln!("error: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let rendered = if parsed.chrome {
                telemetry::chrome_trace(&doc)
            } else {
                telemetry::folded_stacks(&doc)
            };
            match &parsed.out {
                Some(out) => {
                    if let Err(err) = std::fs::write(out, &rendered) {
                        eprintln!("error: {}: {err}", out.display());
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {} bytes to {}", rendered.len(), out.display());
                }
                None => print!("{rendered}"),
            }
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let (Some(path_a), Some(path_b)) = (parsed.positional.get(1), parsed.positional.get(2)) else {
                eprintln!("usage: repro metrics diff <a.kgmetrics> <b.kgmetrics>");
                return ExitCode::FAILURE;
            };
            if parsed.positional.len() > 3 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[3]);
                return ExitCode::FAILURE;
            }
            let load = |path: &str| telemetry::TelemetryDoc::load(Path::new(path));
            match (load(path_a), load(path_b)) {
                (Ok(a), Ok(b)) => {
                    let diff = telemetry::diff_docs(&a, &b);
                    println!("{}", diff.report());
                    if diff.has_drift() {
                        eprintln!("error: deterministic metrics drifted between the two runs");
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(err), _) | (_, Err(err)) => {
                    eprintln!("error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(other) => {
            eprintln!("unknown metrics mode: {other}\n\n{}", cli::help_text());
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: repro metrics <show|diff> [flags]\n\n{}", cli::help_text());
            ExitCode::FAILURE
        }
    }
}

fn run_trace(parsed: &ParsedArgs, hw: &ExperimentConfig) -> ExitCode {
    // Trace record/replay work on the architecture-independent configuration
    // (the mode behind the paper's exact write counts); the trace directory
    // flag only selects where files live, so strip it from the config to
    // avoid recursive trace-backing.
    let config = ExperimentConfig {
        trace_dir: None,
        ..hw.clone()
    };
    let dir = parsed.trace_dir.clone();
    let mutators = parsed.mutators.unwrap_or(1).max(1);
    let benchmarks = workloads::simulated_benchmarks();
    let mode = parsed.positional.first().map(String::as_str);
    match mode {
        Some("record") => {
            let results = traces::record_traces(&config, &benchmarks, &dir, mutators, parsed.jobs);
            println!("{}", results.report());
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let collectors: Vec<&str> = match parsed.collector.as_deref() {
                None => traces::REPLAY_COLLECTORS.to_vec(),
                Some(one) => match traces::REPLAY_COLLECTORS.iter().find(|label| **label == one) {
                    Some(label) => vec![*label],
                    None => {
                        eprintln!(
                            "error: unknown collector {one:?} (expected one of {})",
                            traces::REPLAY_COLLECTORS.join(", ")
                        );
                        return ExitCode::FAILURE;
                    }
                },
            };
            let results = traces::replay_traces(
                &config,
                &benchmarks,
                &dir,
                mutators,
                parsed.jobs,
                parsed.verify,
                &collectors,
            );
            println!("{}", results.report());
            if results.mismatches() > 0 {
                eprintln!(
                    "error: {} replays diverged from their live runs",
                    results.mismatches()
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("diff") => {
            let (Some(path_a), Some(path_b)) = (parsed.positional.get(1), parsed.positional.get(2)) else {
                eprintln!("usage: repro trace diff <a.kgtrace> <b.kgtrace> [--collector NAME]");
                return ExitCode::FAILURE;
            };
            if parsed.positional.len() > 3 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[3]);
                return ExitCode::FAILURE;
            }
            let collector = parsed.collector.as_deref().unwrap_or("KG-N");
            if !traces::REPLAY_COLLECTORS.contains(&collector) {
                eprintln!(
                    "error: unknown collector {collector:?} (expected one of {})",
                    traces::REPLAY_COLLECTORS.join(", ")
                );
                return ExitCode::FAILURE;
            }
            match traces::diff_traces(&config, Path::new(path_a), Path::new(path_b), collector) {
                Ok(diff) => {
                    println!("{}", diff.report());
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check") => {
            let Some(path) = parsed.positional.get(1) else {
                eprintln!("usage: repro trace check <file.kgtrace>");
                return ExitCode::FAILURE;
            };
            if parsed.positional.len() > 2 {
                eprintln!("error: unexpected argument {:?}", parsed.positional[2]);
                return ExitCode::FAILURE;
            }
            let recorded = match trace::load_trace(Path::new(path)) {
                Ok(recorded) => recorded,
                Err(err) => {
                    eprintln!("error: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let analysis = check::analyze_trace(&recorded);
            println!(
                "trace {path}: workload {:?}, {} event(s), {} allocation(s)",
                recorded.header.workload, analysis.events, analysis.allocations
            );
            println!(
                "{} mutator(s), {} sync point(s)",
                analysis.mutators, analysis.sync_points
            );
            // Grammar and lifetime violations mean the trace itself is
            // unsound.
            if !analysis.violations.is_empty() {
                for violation in &analysis.violations {
                    println!("{violation}");
                }
                eprintln!(
                    "error: {} grammar/lifetime violation(s) in {path}",
                    analysis.violations.len()
                );
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown trace mode: {other}\n\n{}", cli::help_text());
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: repro trace <record|replay|diff|check> [flags]\n\n{}",
                cli::help_text()
            );
            ExitCode::FAILURE
        }
    }
}
