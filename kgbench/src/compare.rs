//! `kgbench compare A B`: per (workload, metric) verdicts between two sets
//! of result records (the JSON lines `--out` appends).
//!
//! Host-time metrics compare medians against the metric's bound and the
//! recorded quartile spread; exact (simulated) metrics compare bit-for-bit,
//! seed by seed. Several records of one workload on a side are pooled.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use telemetry::Json;

use crate::metrics::{spec, Better, MetricSpec};
use crate::stats::Summary;

/// Bound applied to host-time per-layer metrics, which declare none (they
/// are reported, never gating).
const PER_LAYER_BOUND: f64 = 0.10;

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (host) or bit-identical (exact).
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound (host) or at all (exact).
    Worse,
    /// The spread is wider than the bound, or no common seed exists.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median on side A.
    pub a: f64,
    /// Median on side B.
    pub b: f64,
    /// Verdict.
    pub verdict: Verdict,
    /// Whether a worse/unresolved verdict fails the comparison
    /// (end-to-end and exact metrics).
    pub gating: bool,
}

/// The whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Compared pairs, by workload then metric.
    pub rows: Vec<Row>,
    /// `workload/metric` pairs present on one side only.
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// `true` when no gating row is worse or unresolved and nothing is
    /// unmatched.
    pub fn passes(&self) -> bool {
        self.unmatched.is_empty()
            && !self
                .rows
                .iter()
                .any(|row| row.gating && matches!(row.verdict, Verdict::Worse | Verdict::Unresolved))
    }

    /// Formatted report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<44} {:>16} {:>16} {:>9}  verdict",
            "workload", "metric", "A", "B", "delta-%"
        );
        for row in &self.rows {
            let delta = if row.a != 0.0 {
                (row.b - row.a) / row.a.abs() * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<16} {:<44} {:>16.6} {:>16.6} {:>+9.2}  {}{}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                delta,
                row.verdict.label(),
                if row.gating { "" } else { " (info)" }
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "UNMATCHED: {name} is present on one side only");
        }
        let count = |verdict| self.rows.iter().filter(|row| row.verdict == verdict).count();
        let _ = writeln!(
            out,
            "{} same, {} better, {} worse, {} unresolved, {} unmatched: {}",
            count(Verdict::Same),
            count(Verdict::Better),
            count(Verdict::Worse),
            count(Verdict::Unresolved),
            self.unmatched.len(),
            if self.passes() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// One metric value of one record.
#[derive(Clone, Copy, Debug)]
struct Sample {
    seed: u64,
    value: f64,
    q1: f64,
    q3: f64,
}

type Side = BTreeMap<(String, &'static str), Vec<Sample>>;

fn parse_side(text: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
    {
        let at = |what: &str| format!("line {}: {what}", number + 1);
        let doc = Json::parse(line).map_err(|err| at(&err))?;
        if doc.str_field("schema") != Some("kgbench-result-1") {
            return Err(at("not a kgbench-result-1 record"));
        }
        let workload = doc.str_field("workload").ok_or_else(|| at("missing workload"))?;
        let seed = doc.u64_field("seed").ok_or_else(|| at("missing seed"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("missing metrics"))?;
        for (name, metric) in metrics {
            let spec = spec(name).ok_or_else(|| at(&format!("unknown metric {name}")))?;
            let value = metric
                .num_field("value")
                .ok_or_else(|| at("metric without value"))?;
            side.entry((workload.to_string(), spec.name))
                .or_default()
                .push(Sample {
                    seed,
                    value,
                    q1: metric.num_field("q1").unwrap_or(value),
                    q3: metric.num_field("q3").unwrap_or(value),
                });
        }
    }
    Ok(side)
}

/// Median and quartiles of one side: across records when there are
/// several, the record's own quartiles when there is one.
fn pooled(samples: &[Sample]) -> Summary {
    if let [only] = samples {
        return Summary {
            n: 1,
            q1: only.q1.min(only.q3),
            median: only.value,
            q3: only.q1.max(only.q3),
        };
    }
    let values: Vec<f64> = samples.iter().map(|sample| sample.value).collect();
    Summary::of(&values).expect("a side holds at least one sample per metric")
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let base = if a == 0.0 { b.abs() } else { a.abs() };
    match spec.better {
        Better::Lower => (b - a) / base,
        Better::Higher => (a - b) / base,
    }
}

fn host_verdict(spec: &MetricSpec, a: &Summary, b: &Summary) -> Verdict {
    let bound = spec.bound.unwrap_or(PER_LAYER_BOUND);
    let worse = worse_by(spec, a.median, b.median);
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call unchanged; only a clean separation counts.
        let (b_above, b_below) = (b.q1 > a.q3, b.q3 < a.q1);
        return match (spec.better, b_above, b_below) {
            (Better::Higher, true, _) | (Better::Lower, _, true) => Verdict::Better,
            (Better::Higher, _, true) | (Better::Lower, true, _) if worse > bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if -worse > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn exact_verdict(spec: &MetricSpec, a: &[Sample], b: &[Sample]) -> Verdict {
    let mut verdict = Verdict::Unresolved;
    for left in a {
        for right in b.iter().filter(|right| right.seed == left.seed) {
            if left.value.to_bits() == right.value.to_bits() {
                if verdict == Verdict::Unresolved {
                    verdict = Verdict::Same;
                }
            } else if worse_by(spec, left.value, right.value) > 0.0 {
                return Verdict::Worse;
            } else {
                verdict = Verdict::Better;
            }
        }
    }
    verdict
}

/// Compares two sets of result records.
pub fn compare(a_text: &str, b_text: &str) -> Result<Comparison, String> {
    let a = parse_side(a_text).map_err(|err| format!("A: {err}"))?;
    let b = parse_side(b_text).map_err(|err| format!("B: {err}"))?;
    let mut out = Comparison::default();
    for (key, left) in &a {
        let Some(right) = b.get(key) else {
            out.unmatched.push(format!("{}/{}", key.0, key.1));
            continue;
        };
        let spec = spec(key.1).expect("parse_side only keeps catalogue metrics");
        let (left_summary, right_summary) = (pooled(left), pooled(right));
        let verdict = if spec.exact {
            exact_verdict(spec, left, right)
        } else {
            host_verdict(spec, &left_summary, &right_summary)
        };
        out.rows.push(Row {
            workload: key.0.clone(),
            metric: spec.name,
            a: left_summary.median,
            b: right_summary.median,
            verdict,
            gating: spec.exact || spec.bound.is_some(),
        });
    }
    for key in b.keys().filter(|key| !a.contains_key(*key)) {
        out.unmatched.push(format!("{}/{}", key.0, key.1));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, eps: (f64, f64, f64), ratio: f64) -> String {
        format!(
            "{{\"schema\": \"kgbench-result-1\", \"workload\": \"replay-gc\", \"seed\": {seed}, \
             \"metrics\": {{\"events_per_sec\": {{\"value\": {}, \"unit\": \"1/s\", \"q1\": {}, \"q3\": {}, \
             \"n\": 9}}, \"sim_pcm_writes_per_event\": {{\"value\": {ratio}, \"unit\": \"writes/event\"}}}}}}",
            eps.1, eps.0, eps.2
        )
    }

    fn verdicts(a: &str, b: &str) -> (Verdict, Verdict, bool) {
        let comparison = compare(a, b).unwrap();
        let of = |metric: &str| {
            comparison
                .rows
                .iter()
                .find(|row| row.metric == metric)
                .unwrap()
                .verdict
        };
        (
            of("events_per_sec"),
            of("sim_pcm_writes_per_event"),
            comparison.passes(),
        )
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_recorded_spread() {
        let base = record(7, (990.0, 1000.0, 1010.0), 0.13);
        assert_eq!(verdicts(&base, &base), (Verdict::Same, Verdict::Same, true));
        // 5 % slower: inside the 25 % bound.
        let slower = record(7, (940.0, 950.0, 960.0), 0.13);
        assert_eq!(verdicts(&base, &slower).0, Verdict::Same);
        // 30 % slower: a regression.
        let regressed = record(7, (690.0, 700.0, 710.0), 0.13);
        assert_eq!(
            verdicts(&base, &regressed),
            (Verdict::Worse, Verdict::Same, false)
        );
        // 40 % faster: better.
        let faster = record(7, (1390.0, 1400.0, 1410.0), 0.13);
        assert_eq!(verdicts(&base, &faster).0, Verdict::Better);
        // Spread wider than the bound and overlapping: unresolved, and that fails.
        let noisy = record(7, (700.0, 1000.0, 1300.0), 0.13);
        assert_eq!(
            verdicts(&base, &noisy),
            (Verdict::Unresolved, Verdict::Same, false)
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit_per_seed() {
        let base = record(7, (990.0, 1000.0, 1010.0), 0.13);
        let drifted = record(7, (990.0, 1000.0, 1010.0), 0.130_000_000_1);
        assert_eq!(verdicts(&base, &drifted), (Verdict::Same, Verdict::Worse, false));
        let improved = record(7, (990.0, 1000.0, 1010.0), 0.12);
        assert_eq!(verdicts(&base, &improved), (Verdict::Same, Verdict::Better, true));
        let other_seed = record(8, (990.0, 1000.0, 1010.0), 0.13);
        assert_eq!(verdicts(&base, &other_seed).1, Verdict::Unresolved);
    }

    #[test]
    fn several_records_pool_and_missing_pairs_are_flagged() {
        let a = [
            record(7, (1.0, 1000.0, 1.0), 0.13),
            record(8, (1.0, 1010.0, 1.0), 0.14),
        ]
        .join("\n");
        let b = [
            record(8, (1.0, 1005.0, 1.0), 0.14),
            record(7, (1.0, 995.0, 1.0), 0.13),
        ]
        .join("\n");
        assert_eq!(verdicts(&a, &b), (Verdict::Same, Verdict::Same, true));
        let other = record(7, (1.0, 1000.0, 1.0), 0.13).replace("replay-gc", "fleet");
        let comparison = compare(&a, &other).unwrap();
        assert_eq!(comparison.unmatched.len(), 4);
        assert!(!comparison.passes());
        assert!(compare("{\"schema\": \"other\"}", &a).is_err());
        assert!(compare("not json", &a).is_err());
    }
}
