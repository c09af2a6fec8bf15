//! Pieces every workload shares: run options, the operation tally behind
//! `attempted`/`failed`, the timed-pass loop and host-side process counters.

use std::time::Instant;

use crate::metrics::Values;
use crate::spans::SpanLog;

/// A deliberate fault for the negative-control tests: the benchmark must
/// report failed operations and exit non-zero under either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip one byte of the encoded trace after set-up (six-collector
    /// workloads): every timed decode must fail its checksum.
    FlipTraceByte,
    /// Alter the reference digest after set-up: every timed pass must fail
    /// its digest comparison.
    ForgeDigest,
}

impl Inject {
    /// Parses the `--inject` argument.
    pub fn parse(text: &str) -> Option<Inject> {
        match text {
            "flip-trace-byte" => Some(Inject::FlipTraceByte),
            "forge-digest" => Some(Inject::ForgeDigest),
            _ => None,
        }
    }
}

/// Options of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of an end-to-end run.
    pub traced: bool,
    /// Smoke mode: inputs 16× smaller, one set-up, one pass.
    pub quick: bool,
    /// Negative-control fault, if any.
    pub inject: Option<Inject>,
}

impl RunOptions {
    /// Set-ups per end-to-end run (`setup_s` is their median).
    pub fn setups(&self) -> usize {
        if self.quick || self.traced {
            1
        } else {
            3
        }
    }

    /// Fewest timed passes of an end-to-end run, whatever `seconds` says.
    pub fn min_passes(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// Wall-clock budget of the timed passes.
    pub fn budget(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.seconds
        }
    }
}

/// Operations attempted and failed: replay/live cells, tenant sessions and
/// output checks.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    const KEPT: usize = 8;

    /// Counts one operation; `describe` is only called when it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < Self::KEPT {
                self.failures.push(describe());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64, describe: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < Self::KEPT {
            self.failures.push(describe());
        }
    }
}

/// What a workload's measurement returns to [`crate::Workload::run`].
#[derive(Debug)]
pub struct Measurement {
    /// Measured metrics.
    pub values: Values,
    /// Timed passes (end-to-end runs) or instrument rounds (traced runs).
    pub passes: usize,
    /// Set-ups performed.
    pub setups: usize,
    /// Human-readable notes (sizes, shares) printed above the result line.
    pub notes: Vec<String>,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Operation tally.
    pub tally: Tally,
    /// Harness spans of the whole run.
    pub spans: SpanLog,
    /// What was measured.
    pub measurement: Measurement,
}

/// Calls `body(i)` for `i = 0, 1, …` until `seconds` have elapsed and at
/// least `min` calls were made; returns the number of calls.
pub fn repeat_for(seconds: f64, min: usize, mut body: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut calls = 0;
    while calls < min || start.elapsed().as_secs_f64() < seconds {
        body(calls);
        calls += 1;
    }
    calls
}

/// Worker threads of the parallel configuration: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process in MB; `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has consumed;
/// `None` where `/proc` does not provide it. Resolution is one clock tick
/// (10 ms: Linux reports `/proc` times in 100 Hz ticks on every mainstream
/// architecture).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields 14 and 15
    // (utime, stime) are counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_honours_the_minimum_and_the_budget() {
        let mut seen = Vec::new();
        assert_eq!(repeat_for(0.0, 3, |i| seen.push(i)), 3);
        assert_eq!(seen, [0, 1, 2]);
        let calls = repeat_for(0.02, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(calls >= 2, "a 20 ms budget fits several 5 ms bodies, got {calls}");
    }

    #[test]
    fn tally_counts_and_keeps_the_first_failures() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!());
        for i in 0..20 {
            tally.check(false, || format!("failure {i}"));
        }
        tally.add(5, 2, || "two of five".to_string());
        assert_eq!((tally.attempted, tally.failed), (26, 22));
        assert_eq!(tally.failures.len(), Tally::KEPT);
        assert_eq!(tally.failures[0], "failure 0");
    }

    #[test]
    fn process_counters_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_seconds().unwrap() >= 0.0);
        }
    }
}
