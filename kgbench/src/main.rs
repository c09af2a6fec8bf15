//! `kgbench` command line. See the crate documentation and `README.md`.

use std::io::Write as _;
use std::process::ExitCode;

use kgbench::harness::{Inject, RunOptions};
use kgbench::{compare, report, workload, WORKLOADS};

const USAGE: &str = "usage:
  kgbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  kgbench compare A.jsonl B.jsonl

  --workload  replay-mutator | replay-gc | live-sim-k4 | fleet
  --seed      seed every input is derived from (default 7)
  --seconds   how long the timed passes run (default 15)
  --trace     0: end-to-end metrics, instruments off (default); 1: per-layer metrics
  --quick     smoke run: inputs 16x smaller, one set-up, one pass
  --out       append the result record (with provenance and quartiles) to FILE
  --inject    flip-trace-byte | forge-digest: negative control, must fail";

struct Args {
    workload: String,
    options: RunOptions,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut out = None;
    let mut options = RunOptions {
        seed: 7,
        seconds: 15.0,
        traced: false,
        quick: false,
        inject: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed takes an unsigned integer")?,
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| seconds.is_finite() && *seconds >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => options.quick = true,
            "--out" => out = Some(value()?.clone()),
            "--inject" => {
                options.inject =
                    Some(Inject::parse(value()?).ok_or("--inject takes flip-trace-byte or forge-digest")?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        options,
        out,
    })
}

fn run(args: &[String]) -> Result<bool, String> {
    let Args {
        workload: name,
        options,
        out,
    } = parse(args)?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let outcome = workload.run(&options)?;
    print!("{}", report::human(workload.name, &options, &outcome));
    if options.traced {
        let path = report::trace_path(workload.name);
        match report::write_chrome_trace(&path, workload.name, &options, &outcome) {
            Ok(()) => println!("  harness spans: {}", path.display()),
            Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
        }
    }
    if let Some(out) = out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .and_then(|mut file| writeln!(file, "{}", report::record(workload.name, &options, &outcome)))
            .map_err(|err| format!("cannot append to {out}: {err}"))?;
    }
    println!("{}", report::result_line(&outcome, options.traced));
    Ok(report::correct(&outcome))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"));
    let comparison = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", comparison.report());
    Ok(comparison.passes())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [command, a, b] if command == "compare" => compare_files(a, b),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Failed operations or a failed comparison: the report says which.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("kgbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
