//! Rendering: the contract's one-line result, the human-readable table, the
//! provenance-stamped result record and the Chrome trace of harness spans.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{nproc, RunOptions, RunOutcome};
use crate::metrics::{MetricSpec, END_TO_END, PER_LAYER};

/// Escapes `value` for embedding in a JSON string literal.
pub fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The metric table a run of this kind prints.
pub fn table(traced: bool) -> &'static [MetricSpec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn value_of(outcome: &RunOutcome, spec: &MetricSpec) -> f64 {
    outcome
        .measurement
        .values
        .get(spec.name)
        .map_or(0.0, |measured| measured.value)
}

/// `true` when no operation failed.
pub fn correct(outcome: &RunOutcome) -> bool {
    outcome.tally.failed == 0
}

/// The contract's result: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, every metric of the run's table
/// present (0 where the layer is not on this workload's path).
pub fn result_line(outcome: &RunOutcome, traced: bool) -> String {
    let metrics: Vec<String> = table(traced)
        .iter()
        .map(|spec| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                value_of(outcome, spec),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct(outcome),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

/// The human-readable report printed above the result line.
pub fn human(workload: &str, options: &RunOptions, outcome: &RunOutcome) -> String {
    let mut out = String::new();
    let kind = if options.traced {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    let _ = writeln!(
        out,
        "kgbench {workload}: {kind} run, seed {}, {} set-up(s), {} {}, nproc {}",
        options.seed,
        outcome.measurement.setups,
        outcome.measurement.passes,
        if options.traced {
            "instrument round(s)"
        } else {
            "timed pass(es)"
        },
        nproc()
    );
    for note in &outcome.measurement.notes {
        let _ = writeln!(out, "  {note}");
    }
    let _ = writeln!(
        out,
        "  {:<44} {:>16} {:<12} {:>14} {:>14} {:>14} {:>4}",
        "metric", "value", "unit", "median", "q1", "q3", "n"
    );
    for spec in table(options.traced) {
        let Some(measured) = outcome.measurement.values.get(spec.name) else {
            continue;
        };
        let [median, q1, q3, n] = match measured.summary {
            Some(s) => [
                format!("{:.6}", s.median),
                format!("{:.6}", s.q1),
                format!("{:.6}", s.q3),
                s.n.to_string(),
            ],
            None => ["-", "-", "-", "-"].map(String::from),
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>16.6} {:<12} {:>14} {:>14} {:>14} {:>4}",
            spec.name, measured.value, spec.unit, median, q1, q3, n
        );
    }
    let _ = writeln!(
        out,
        "  operations: {} attempted, {} failed (fail share {})",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64
    );
    for failure in &outcome.tally.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// One result record (a single JSON line) for `--out`: the result plus
/// seed, `nproc`, commit, rustc and pass count, and the quartiles behind
/// every host-time metric — what `kgbench compare` reads.
pub fn record(workload: &str, options: &RunOptions, outcome: &RunOutcome) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let metrics: Vec<String> = table(options.traced)
        .iter()
        .filter_map(|spec| {
            let measured = outcome.measurement.values.get(spec.name)?;
            let spread = measured.summary.map_or(String::new(), |s| {
                format!(
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                    s.median, s.q1, s.q3, s.n
                )
            });
            Some(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                spec.name, measured.value, spec.unit
            ))
        })
        .collect();
    format!(
        "{{\"schema\": \"kgbench-result-1\", \"workload\": \"{}\", \"traced\": {}, \"quick\": {}, \
         \"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \
         \"passes\": {}, \"setups\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {{{}}}}}",
        json_escape(workload),
        options.traced,
        options.quick,
        options.seed,
        options.seconds,
        nproc(),
        json_escape(&commit),
        json_escape(&rustc),
        outcome.measurement.passes,
        outcome.measurement.setups,
        correct(outcome),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

/// Where traced runs leave their Chrome trace: `<target dir>/kgbench/`,
/// the target directory being `CARGO_TARGET_DIR` when set and `target`
/// otherwise — inside the checkout either way.
pub fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("kgbench").join(format!("{workload}.trace.json"))
}

/// Writes the run's harness spans as a Chrome trace to `path`.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    options: &RunOptions,
    outcome: &RunOutcome,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let other = format!(
        "\"schema\":\"kgbench-spans-1\",\"workload\":\"{}\",\"seed\":{},\"nproc\":{}",
        json_escape(workload),
        options.seed,
        nproc()
    );
    std::fs::write(path, outcome.spans.chrome_trace(&other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_what_json_requires() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
