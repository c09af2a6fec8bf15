//! The benchmark's own contract: `BENCHMARK.json` and the catalogue agree,
//! every workload smokes in `--quick` mode with exactly the declared
//! metrics, the output checks can fail (negative controls), and the result
//! records round-trip through `kgbench compare`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use kgbench::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use kgbench::WORKLOADS;
use telemetry::Json;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgbench-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary in `dir` (its Chrome traces land under `dir/target`).
fn kgbench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kgbench"))
        .args(args)
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .output()
        .expect("kgbench runs")
}

fn result_of(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("kgbench printed a result line");
    Json::parse(last).unwrap_or_else(|err| panic!("result line is not JSON ({err}): {last}"))
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (w.str_field("name").unwrap(), w.str_field("why").unwrap())
        })
        .collect();
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, expected);
    for (name, why) in &declared {
        assert!(well_formed(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one line of at most 200 chars"
        );
    }

    let check_table = |key: &str, table: &[MetricSpec], limit: usize| {
        let entries = doc.get(key).and_then(Json::as_arr).unwrap();
        assert!(entries.len() <= limit, "{key} has {} entries", entries.len());
        assert_eq!(
            entries.len(),
            table.len(),
            "{key} and the catalogue differ in length"
        );
        for (entry, spec) in entries.iter().zip(table) {
            assert!(well_formed(spec.name), "{}", spec.name);
            assert_eq!(entry.str_field("name"), Some(spec.name));
            assert_eq!(entry.str_field("unit"), Some(spec.unit), "{}", spec.name);
            assert_eq!(
                entry.str_field("better"),
                Some(spec.better.label()),
                "{}",
                spec.name
            );
            assert_eq!(entry.num_field("bound"), spec.bound, "{}", spec.name);
            assert!(spec.bound.is_none_or(|bound| bound > 0.0 && bound <= 0.25));
        }
    };
    check_table("end_to_end", END_TO_END, 16);
    check_table("per_layer", PER_LAYER, 128);

    let end_to_end: BTreeSet<&str> = END_TO_END.iter().map(|spec| spec.name).collect();
    let all: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|spec| spec.name).collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "metric names are unique"
    );
    assert!(end_to_end.contains("setup_s"));
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for spec in PER_LAYER {
        for target in spec.moves {
            assert!(
                end_to_end.contains(target),
                "{} moves unknown metric {target}",
                spec.name
            );
        }
        for on in spec.on {
            assert!(
                *on == "*" || workloads.contains(on),
                "{} on unknown workload {on}",
                spec.name
            );
        }
    }
}

#[test]
fn every_workload_smokes_with_exactly_the_declared_metrics() {
    let dir = scratch("smoke");
    for workload in WORKLOADS {
        for (flag, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let output = kgbench(&dir, &["--workload", workload.name, "--quick", "--trace", flag]);
            let context = format!("{} --trace {flag}", workload.name);
            assert!(
                output.status.success(),
                "{context}: {}\n{}",
                String::from_utf8_lossy(&output.stdout),
                String::from_utf8_lossy(&output.stderr)
            );
            let result = result_of(&output);
            assert_eq!(
                keys(&result),
                ["correct", "attempted", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(result.bool_field("correct"), Some(true), "{context}");
            assert_eq!(result.u64_field("failed"), Some(0), "{context}");
            assert!(result.u64_field("attempted").unwrap() >= 1, "{context}");
            let metrics = result.get("metrics").unwrap();
            let expected: Vec<&str> = table.iter().map(|spec| spec.name).collect();
            assert_eq!(keys(metrics), expected, "{context}");
            for spec in table {
                let metric = metrics.get(spec.name).unwrap();
                assert_eq!(
                    metric.str_field("unit"),
                    Some(spec.unit),
                    "{context} {}",
                    spec.name
                );
                let value = metric.num_field("value").unwrap();
                assert!(value.is_finite(), "{context} {}", spec.name);
                if spec.bound.is_some() {
                    assert!(
                        value > 0.0,
                        "{context}: end-to-end metric {} is {value}",
                        spec.name
                    );
                }
            }
        }
        let trace = dir
            .join("target/kgbench")
            .join(format!("{}.trace.json", workload.name));
        let text = std::fs::read_to_string(&trace).unwrap_or_else(|err| panic!("{}: {err}", trace.display()));
        let stats = telemetry::validate_chrome_trace(&text).expect("harness spans form a valid Chrome trace");
        assert!(
            stats.begins > 10 && stats.begins == stats.ends,
            "{}: {stats:?}",
            workload.name
        );
        assert!(text.contains("\"parent\":0"), "spans carry parent ids");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_inputs_fail_loudly() {
    let dir = scratch("negative");
    for (workload, inject) in [
        ("replay-gc", "flip-trace-byte"),
        ("replay-gc", "forge-digest"),
        ("fleet", "forge-digest"),
    ] {
        let output = kgbench(&dir, &["--workload", workload, "--quick", "--inject", inject]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{workload} --inject {inject} must exit 1"
        );
        let result = result_of(&output);
        assert_eq!(result.bool_field("correct"), Some(false), "{workload} {inject}");
        let (attempted, failed) = (
            result.u64_field("attempted").unwrap(),
            result.u64_field("failed").unwrap(),
        );
        assert!(
            failed > 0 && failed < attempted,
            "{workload} {inject}: {failed}/{attempted}"
        );
    }
    // Usage errors are distinct from failed checks and print no result.
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "fleet", "--trace", "2"],
        &["--workload", "fleet", "--quick", "--inject", "flip-trace-byte"],
        &[],
    ] {
        let output = kgbench(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn records_carry_provenance_and_compare_against_themselves() {
    let dir = scratch("records");
    let out = dir.join("a.jsonl");
    let out = out.to_str().unwrap();
    for flag in ["0", "1"] {
        let args = [
            "--workload",
            "replay-mutator",
            "--quick",
            "--trace",
            flag,
            "--out",
            out,
        ];
        assert!(kgbench(&dir, &args).status.success());
    }
    let text = std::fs::read_to_string(out).unwrap();
    let records: Vec<Json> = text.lines().map(|line| Json::parse(line).unwrap()).collect();
    assert_eq!(records.len(), 2);
    for record in &records {
        for key in ["seed", "nproc", "passes", "setups"] {
            assert!(record.u64_field(key).is_some(), "record lacks {key}");
        }
        for key in ["commit", "rustc", "workload"] {
            assert!(
                record.str_field(key).is_some_and(|value| !value.is_empty()),
                "record lacks {key}"
            );
        }
    }
    // Same seed, same simulated result; another seed, another input.
    let ratio = |result: &Json| {
        result
            .get("metrics")
            .and_then(|m| m.get("sim_pcm_writes_per_event"))
            .and_then(|m| m.num_field("value"))
    };
    let rerun = |seed: &str| {
        result_of(&kgbench(
            &dir,
            &["--workload", "replay-mutator", "--quick", "--seed", seed],
        ))
    };
    assert_eq!(ratio(&rerun("7")), ratio(&records[0]));
    assert_ne!(ratio(&rerun("8")), ratio(&records[0]));

    let same = kgbench(&dir, &["compare", out, out]);
    let report = String::from_utf8_lossy(&same.stdout).into_owned();
    assert!(same.status.success(), "{report}");
    assert!(
        report.contains("PASS") && report.contains(" 0 worse,"),
        "{report}"
    );

    // A forged exact metric on one side fails the comparison.
    let forged = dir.join("b.jsonl");
    let needle = format!(
        "\"sim_pcm_writes_per_event\": {{\"value\": {}",
        ratio(&records[0]).unwrap()
    );
    assert!(text.contains(&needle));
    std::fs::write(
        &forged,
        text.replace(&needle, "\"sim_pcm_writes_per_event\": {\"value\": 0.99"),
    )
    .unwrap();
    let differs = kgbench(&dir, &["compare", out, forged.to_str().unwrap()]);
    assert_eq!(differs.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&differs.stdout).contains("WORSE"));
    std::fs::remove_dir_all(&dir).ok();
}
