//! Shared command-line parsing for the `repro` binary.
//!
//! One small hand-rolled parser (the workspace is dependency-free) replaces
//! the ad-hoc flag loop `repro` grew over time: every experiment is listed
//! in [`EXPERIMENTS`] with a one-line description (rendered by
//! [`help_text`]), flags are recognised in any position relative to the
//! experiment name, unknown flags and stray positionals are **rejected**
//! with a descriptive error instead of being silently ignored, and every
//! flag that takes a value validates it.

use std::fmt;
use std::path::PathBuf;

/// Every experiment `repro` knows, with the one-liner shown by `--help`.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "PCM lifetime in years vs cell endurance"),
    ("fig2", "write demographics (nursery vs mature)"),
    ("fig5", "PCM lifetime relative to PCM-only"),
    ("fig6", "PCM writes relative to PCM-only"),
    ("fig7", "comparison with OS Write Partitioning"),
    ("fig8", "energy-delay product"),
    ("fig9", "KG-W overhead breakdown"),
    ("fig10", "origin of PCM writes (mutator/GC phases)"),
    ("fig11", "application PCM writes, architecture-independent"),
    ("fig12", "execution time relative to KG-N"),
    ("fig13", "heap composition over time"),
    ("table1", "collector configurations"),
    ("table2", "simulated system parameters"),
    ("table3", "write-rate scaling"),
    ("table4", "object demographics"),
    ("headline", "the paper's headline claims, side by side"),
    ("advise", "profile -> advise pipeline (KG-A vs baselines)"),
    ("adaptive", "online-adaptive KG-D vs baselines"),
    ("mutators", "multi-mutator exactness and attribution (K threads)"),
    (
        "faults",
        "PCM fault injection: endurance sweep, page retirement, survival",
    ),
    (
        "fleet",
        "multi-tenant heap fleet: wear-levelled placement + advice warm starts",
    ),
    ("trace", "heap-event traces: record | replay | diff | check"),
    ("metrics", ".kgmetrics telemetry files: show | diff | export"),
    (
        "profile",
        "hot-path profiler: exact per-stage and per-phase counts under every collector (replayed)",
    ),
    (
        "check",
        "shadow-heap sanitizer sweep (add `broken` to run the negative fixtures)",
    ),
    ("all", "every figure and table above"),
];

/// Modes of the `trace` experiment.
pub const TRACE_MODES: &[(&str, &str)] = &[
    ("record", "record one .kgtrace per benchmark into --trace-dir"),
    (
        "replay",
        "replay recorded traces under every collector (--verify compares vs live)",
    ),
    (
        "diff",
        "replay two trace files under one collector and compare writes + wear",
    ),
    (
        "check",
        "statically verify a .kgtrace: grammar and handle lifetimes",
    ),
];

/// Modes of the `metrics` experiment.
pub const METRICS_MODES: &[(&str, &str)] = &[
    (
        "show",
        "render one .kgmetrics telemetry file as a human summary (--top N ranks)",
    ),
    (
        "diff",
        "compare two .kgmetrics files; exits non-zero on deterministic drift",
    ),
    (
        "export",
        "export a .kgmetrics file as a Chrome trace (--chrome) or collapsed stacks (--folded)",
    ),
];

/// A parse failure, with the message `repro` prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedArgs {
    /// The experiment name (first positional), if any.
    pub experiment: Option<String>,
    /// Remaining positionals (the `trace` subcommand's mode and file paths).
    pub positional: Vec<String>,
    /// `--scale N`.
    pub scale: Option<u64>,
    /// `--quick`.
    pub quick: bool,
    /// `--jobs N` (defaults to 1).
    pub jobs: usize,
    /// `--mutators K`, and whether the flag appeared at all.
    pub mutators: Option<usize>,
    /// `--tenants N` (fleet experiment; defaults to 256 when absent).
    pub tenants: Option<usize>,
    /// `--profile-dir DIR`.
    pub profile_dir: PathBuf,
    /// `--trace-dir DIR`.
    pub trace_dir: PathBuf,
    /// Whether `--trace-dir` was given explicitly.
    pub trace_dir_set: bool,
    /// `--telemetry-dir DIR`.
    pub telemetry_dir: PathBuf,
    /// Whether `--telemetry-dir` was given explicitly.
    pub telemetry_dir_set: bool,
    /// `--verify` (trace replay: compare against live runs).
    pub verify: bool,
    /// `--collector NAME` (trace replay/diff).
    pub collector: Option<String>,
    /// `--top N` (metrics show: rows per section).
    pub top: Option<usize>,
    /// `--chrome` (metrics export: Chrome trace_event JSON).
    pub chrome: bool,
    /// `--folded` (metrics export: collapsed-stack lines).
    pub folded: bool,
    /// `--out PATH` (metrics export: write here instead of stdout).
    pub out: Option<PathBuf>,
    /// `--help` / `-h`.
    pub help: bool,
}

impl Default for ParsedArgs {
    fn default() -> Self {
        ParsedArgs {
            experiment: None,
            positional: Vec::new(),
            scale: None,
            quick: false,
            jobs: 1,
            mutators: None,
            tenants: None,
            profile_dir: PathBuf::from("target/site-profiles"),
            trace_dir: PathBuf::from("target/traces"),
            trace_dir_set: false,
            telemetry_dir: PathBuf::from("target/telemetry"),
            telemetry_dir_set: false,
            verify: false,
            collector: None,
            top: None,
            chrome: false,
            folded: false,
            out: None,
            help: false,
        }
    }
}

/// Returns `true` if `name` is a known experiment.
pub fn is_experiment(name: &str) -> bool {
    EXPERIMENTS.iter().any(|(known, _)| *known == name)
}

fn value_of<'a>(flag: &str, iter: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, CliError> {
    iter.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

fn parsed_value_of<'a, T: std::str::FromStr>(
    flag: &str,
    iter: &mut impl Iterator<Item = &'a String>,
    valid: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let raw = value_of(flag, iter)?;
    raw.parse::<T>()
        .ok()
        .filter(|v| valid(v))
        .ok_or_else(|| CliError(format!("invalid {flag} value: {raw}")))
}

/// Parses `args` (without the program name). Unknown flags are an error;
/// positionals are collected in order, the first becoming the experiment
/// when it names one.
pub fn parse_args(args: &[String]) -> Result<ParsedArgs, CliError> {
    let mut parsed = ParsedArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => parsed.help = true,
            "--quick" => parsed.quick = true,
            "--verify" => parsed.verify = true,
            "--scale" => {
                parsed.scale = Some(parsed_value_of("--scale", &mut iter, |&scale: &u64| scale > 0)?)
            }
            "--jobs" => parsed.jobs = parsed_value_of("--jobs", &mut iter, |&jobs: &usize| jobs > 0)?,
            "--mutators" => {
                parsed.mutators = Some(parsed_value_of("--mutators", &mut iter, |&k: &usize| k > 0)?)
            }
            "--tenants" => {
                parsed.tenants = Some(parsed_value_of("--tenants", &mut iter, |&n: &usize| n > 0)?)
            }
            "--profile-dir" => parsed.profile_dir = PathBuf::from(value_of("--profile-dir", &mut iter)?),
            "--trace-dir" => {
                parsed.trace_dir = PathBuf::from(value_of("--trace-dir", &mut iter)?);
                parsed.trace_dir_set = true;
            }
            "--telemetry-dir" => {
                parsed.telemetry_dir = PathBuf::from(value_of("--telemetry-dir", &mut iter)?);
                parsed.telemetry_dir_set = true;
            }
            "--collector" => parsed.collector = Some(value_of("--collector", &mut iter)?.clone()),
            "--top" => parsed.top = Some(parsed_value_of("--top", &mut iter, |&n: &usize| n > 0)?),
            "--chrome" => parsed.chrome = true,
            "--folded" => parsed.folded = true,
            "--out" => parsed.out = Some(PathBuf::from(value_of("--out", &mut iter)?)),
            flag if flag.starts_with('-') => {
                return Err(CliError(format!("unknown flag: {flag}")));
            }
            name if parsed.experiment.is_none() => {
                if !is_experiment(name) {
                    return Err(CliError(format!("unknown experiment: {name}")));
                }
                parsed.experiment = Some(name.to_string());
            }
            positional => parsed.positional.push(positional.to_string()),
        }
    }
    Ok(parsed)
}

/// The full `--help` text: usage, flags, and one line per experiment.
pub fn help_text() -> String {
    let mut out = String::from(
        "usage: repro <experiment> [flags]\n\
         \n\
         flags:\n\
         \x20 --scale N         divide the paper's allocation volumes and heap sizes by N (default 256)\n\
         \x20 --quick           small smoke-test configuration (scale 2048)\n\
         \x20 --jobs N          fan per-benchmark runs over N worker threads (same results, same order)\n\
         \x20 --mutators K      drive workloads through K interleaved MutatorContexts (default 4)\n\
         \x20 --tenants N       fleet experiment: tenant sessions per fleet (default 256)\n\
         \x20 --profile-dir DIR .kgprof site profiles for advise/adaptive (default target/site-profiles)\n\
         \x20 --trace-dir DIR   .kgtrace heap-event traces; with a figure/table experiment, makes the\n\
         \x20                   runs trace-backed: record on first use, replay after (default target/traces)\n\
         \x20 --telemetry-dir DIR write one .kgmetrics telemetry file per run (JSON lines; read them\n\
         \x20                   back with `repro metrics show|diff`)\n\
         \x20 --verify          trace replay: also run live and check bit-identity + speedup\n\
         \x20 --collector NAME  trace replay/diff: restrict to one collector (e.g. KG-N)\n\
         \x20 --top N           metrics show: rows per section, ranked by self-time/value\n\
         \x20 --chrome          metrics export: Chrome trace_event JSON (chrome://tracing, Perfetto)\n\
         \x20 --folded          metrics export: collapsed stacks (flamegraph.pl / speedscope)\n\
         \x20 --out PATH        metrics export: write to PATH instead of stdout\n\
         \x20 --help, -h        this text\n\
         \n\
         experiments:\n",
    );
    for (name, description) in EXPERIMENTS {
        out.push_str(&format!("  {name:<10} {description}\n"));
    }
    out.push_str("\ntrace modes (repro trace <mode>):\n");
    for (name, description) in TRACE_MODES {
        out.push_str(&format!("  {name:<10} {description}\n"));
    }
    out.push_str("\nmetrics modes (repro metrics <mode>):\n");
    for (name, description) in METRICS_MODES {
        out.push_str(&format!("  {name:<10} {description}\n"));
    }
    out.push_str(
        "\nexamples:\n\
         \x20 repro fig6 --jobs 4\n\
         \x20 repro advise --quick\n\
         \x20 repro fig6 --trace-dir target/traces   # trace-backed figure\n\
         \x20 repro trace record --quick\n\
         \x20 repro trace replay --quick --verify --jobs 4\n\
         \x20 repro trace diff A.kgtrace B.kgtrace --collector KG-N\n\
         \x20 repro faults --quick --jobs 4\n\
         \x20 repro fleet --quick --tenants 128 --jobs 4\n\
         \x20 repro fig11 --quick --telemetry-dir target/telemetry\n\
         \x20 repro metrics show target/telemetry/lusearch-KG-W.kgmetrics --top 10\n\
         \x20 repro metrics diff A.kgmetrics B.kgmetrics\n\
         \x20 repro metrics export run.kgmetrics --chrome --out run.trace.json\n\
         \x20 repro profile --quick\n\
         \x20 repro check --quick --jobs 4\n\
         \x20 repro check broken --quick          # negative fixtures: exit 0 iff all detected\n\
         \x20 repro trace check run.kgtrace\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_experiment_and_flags_in_any_order() {
        let parsed = parse(&["--jobs", "3", "fig6", "--scale", "512"]).unwrap();
        assert_eq!(parsed.experiment.as_deref(), Some("fig6"));
        assert_eq!(parsed.jobs, 3);
        assert_eq!(parsed.scale, Some(512));
        let parsed = parse(&["fig6", "--jobs", "3"]).unwrap();
        assert_eq!(parsed.jobs, 3);
    }

    #[test]
    fn rejects_unknown_flags_and_experiments() {
        assert!(parse(&["fig6", "--frobnicate"])
            .unwrap_err()
            .to_string()
            .contains("--frobnicate"));
        assert!(parse(&["fig99"]).unwrap_err().to_string().contains("fig99"));
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        assert!(parse(&["fig6", "--jobs"]).is_err());
        assert!(parse(&["fig6", "--jobs", "0"]).is_err());
        assert!(parse(&["fig6", "--scale", "banana"]).is_err());
        assert!(parse(&["fig6", "--mutators", "-1"]).is_err());
        assert!(parse(&["fleet", "--tenants", "0"]).is_err());
        assert!(parse(&["fleet", "--tenants"]).is_err());
    }

    #[test]
    fn tenants_flag_parses() {
        let parsed = parse(&["fleet", "--tenants", "128", "--jobs", "2"]).unwrap();
        assert_eq!(parsed.experiment.as_deref(), Some("fleet"));
        assert_eq!(parsed.tenants, Some(128));
        assert_eq!(parse(&["fleet"]).unwrap().tenants, None);
    }

    #[test]
    fn trace_subcommand_collects_positionals() {
        let parsed = parse(&["trace", "diff", "a.kgtrace", "b.kgtrace", "--collector", "KG-W"]).unwrap();
        assert_eq!(parsed.experiment.as_deref(), Some("trace"));
        assert_eq!(parsed.positional, vec!["diff", "a.kgtrace", "b.kgtrace"]);
        assert_eq!(parsed.collector.as_deref(), Some("KG-W"));
    }

    #[test]
    fn metrics_subcommand_collects_positionals() {
        let parsed = parse(&["metrics", "diff", "a.kgmetrics", "b.kgmetrics"]).unwrap();
        assert_eq!(parsed.experiment.as_deref(), Some("metrics"));
        assert_eq!(parsed.positional, vec!["diff", "a.kgmetrics", "b.kgmetrics"]);
    }

    #[test]
    fn the_profile_experiment_has_no_cadence_flag() {
        let parsed = parse(&["profile", "--quick"]).unwrap();
        assert_eq!(parsed.experiment.as_deref(), Some("profile"));
        let err = parse(&["profile", "--quick", "--sample-every", "16"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag: --sample-every");
        assert!(!help_text().contains("--sample-every"));
    }

    #[test]
    fn metrics_export_flags_parse() {
        let parsed = parse(&[
            "metrics",
            "export",
            "run.kgmetrics",
            "--chrome",
            "--out",
            "t.json",
        ])
        .unwrap();
        assert_eq!(parsed.positional, vec!["export", "run.kgmetrics"]);
        assert!(parsed.chrome && !parsed.folded);
        assert_eq!(parsed.out, Some(PathBuf::from("t.json")));
        let parsed = parse(&["metrics", "show", "run.kgmetrics", "--top", "5"]).unwrap();
        assert_eq!(parsed.top, Some(5));
        assert!(parse(&["metrics", "show", "x", "--top", "0"]).is_err());
    }

    #[test]
    fn telemetry_dir_flag_parses() {
        let parsed = parse(&["fig11", "--telemetry-dir", "out/tm"]).unwrap();
        assert!(parsed.telemetry_dir_set);
        assert_eq!(parsed.telemetry_dir, PathBuf::from("out/tm"));
        assert!(parse(&["fig11", "--telemetry-dir"]).is_err());
    }

    #[test]
    fn help_lists_every_experiment() {
        let help = help_text();
        for (name, _) in EXPERIMENTS {
            assert!(help.contains(name), "help is missing {name}");
        }
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
    }

    #[test]
    fn defaults_are_stable() {
        let parsed = parse(&["fig1"]).unwrap();
        assert_eq!(parsed.jobs, 1);
        assert!(!parsed.quick && !parsed.verify && !parsed.trace_dir_set && !parsed.telemetry_dir_set);
        assert_eq!(parsed.profile_dir, PathBuf::from("target/site-profiles"));
        assert_eq!(parsed.trace_dir, PathBuf::from("target/traces"));
        assert_eq!(parsed.telemetry_dir, PathBuf::from("target/telemetry"));
    }
}
