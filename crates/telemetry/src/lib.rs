//! Low-overhead metrics for the write-rationing GC stack.
//!
//! This crate is the observability substrate of the reproduction: monotonic
//! counters, gauges, fixed-bucket [`Histogram`]s with p50/p95/p99, span
//! timers with nested phase attribution, and structured events — all behind
//! a [`Telemetry`] handle that is a **true no-op when disabled**. Every
//! recording method reduces to a single branch on an `Option` discriminant
//! when telemetry is off (the same idiom as the heap's observer seam), so
//! unobserved hot paths are unaffected and the simulation stays bit-identical
//! either way.
//!
//! The overhead story on the `touch` fast path mirrors the counter-shard
//! design of the memory system: telemetry adds **no per-access work at
//! all** — device traffic, cache hit/miss rates and touch-event throughput
//! are derived from the shard-local counters the simulator already
//! accumulates and merges at safepoints, sampled into telemetry at GC
//! boundaries and end of run. The only live instrumentation is span
//! enter/exit around GC phases (a handful per collection) and rare policy
//! adaptation events. Every `kgbench` run reports the enabled-vs-disabled
//! wall-clock delta as `telemetry.overhead_pct`.
//!
//! Lifecycle: create a handle with [`Telemetry::enabled`] (or leave the
//! default [`Telemetry::disabled`]), record during the run, then snapshot
//! with [`Telemetry::report`]. A [`TelemetryReport`] serialises to the
//! versioned `.kgmetrics` JSON-lines format via [`jsonl`], which also
//! parses, renders and diffs the files for regression triage.

#![forbid(unsafe_code)]

mod hist;
pub mod json;
pub mod jsonl;
pub mod profiler;
pub mod timeline;

pub use hist::Histogram;
pub use json::Json;
pub use jsonl::{
    diff_docs, fmt_ns, render_jsonl, write_jsonl, MetricsDiff, RunMeta, TelemetryDoc, TelemetryError,
    FILE_EXTENSION, SCHEMA_MIN_VERSION, SCHEMA_NAME, SCHEMA_VERSION,
};
pub use profiler::{
    Counted, PhaseProfile, Stage, StageProfile, StageSink, StageTotals, TouchProfile, TouchProfiler,
    Unprofiled, DEFAULT_SAMPLE_EVERY, STAGE_COUNT,
};
pub use timeline::{chrome_trace, folded_stacks, parse_folded, validate_chrome_trace, ChromeTraceStats};

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One structured-event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer (deterministic simulation quantities).
    U64(u64),
    /// A float (ratios and derived statistics).
    F64(f64),
    /// A string label.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.3}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event: a named occurrence with a stable sequence number
/// and key/value payload (e.g. a KG-D site promotion or a wear snapshot).
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryEvent {
    /// Position in the run's event stream (0-based, all events).
    pub seq: u64,
    /// Event name, e.g. `policy.promote`.
    pub name: String,
    /// `true` if the payload is a pure function of the simulation state
    /// (compared by `repro metrics diff`); `false` for timing data.
    pub deterministic: bool,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

/// Aggregate of one named span across all its enter/exit pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name, e.g. `gc.major.sweep`.
    pub name: String,
    /// Number of completed enter/exit pairs.
    pub count: u64,
    /// Total wall-clock nanoseconds inside the span.
    pub total_ns: u64,
    /// Nanoseconds not attributed to child spans nested inside this one.
    pub self_ns: u64,
}

/// Snapshot of one histogram: moments, quantiles and the non-empty buckets
/// (which make summaries exactly mergeable).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// `(upper_bound, count)` per non-empty bucket, in value order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// Snapshots a live histogram.
    pub fn from_histogram(hist: &Histogram) -> Self {
        HistogramSummary {
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min(),
            max: hist.max(),
            p50: hist.p50(),
            p95: hist.p95(),
            p99: hist.p99(),
            buckets: hist.nonzero_buckets(),
        }
    }

    /// The value at quantile `q`, recomputed from the stored buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        hist::quantile_from_buckets(self.count, self.max, self.buckets.iter().copied(), q)
    }

    /// Merges `other` into `self` (exact — buckets share boundaries) and
    /// recomputes the stored quantiles from the merged buckets.
    pub fn merge(&mut self, other: &HistogramSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(upper, count) in &other.buckets {
            *merged.entry(upper).or_insert(0) += count;
        }
        self.buckets = merged.into_iter().collect();
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.p50 = self.quantile(0.50);
        self.p95 = self.quantile(0.95);
        self.p99 = self.quantile(0.99);
    }
}

/// End-of-run snapshot of everything a [`Telemetry`] handle recorded.
/// All collections are sorted by name (events by sequence), so two
/// deterministic runs produce structurally identical reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Wall-clock nanoseconds from [`Telemetry::enabled`] to the snapshot.
    pub elapsed_ns: u64,
    /// Monotonic counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges, `(name, value, deterministic)`.
    pub gauges: Vec<(String, f64, bool)>,
    /// Histograms, `(name, summary)`.
    pub hists: Vec<(String, HistogramSummary)>,
    /// Span aggregates.
    pub spans: Vec<SpanSummary>,
    /// Structured events in emission order.
    pub events: Vec<TelemetryEvent>,
}

impl TelemetryReport {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Looks up a span by name.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }
}

#[derive(Default)]
struct SpanAccum {
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Inner {
    started: Instant,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, (f64, bool)>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanAccum>,
    stack: Vec<OpenSpan>,
    events: Vec<TelemetryEvent>,
}

/// The metrics handle. Disabled by default; every recording method is a
/// single branch when disabled, and [`Telemetry::report`] returns `None` —
/// a disabled handle emits exactly nothing.
#[derive(Default)]
pub struct Telemetry {
    inner: Option<Box<Inner>>,
}

impl Telemetry {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle; the run clock starts now.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Box::new(Inner {
                started: Instant::now(),
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                hists: BTreeMap::new(),
                spans: BTreeMap::new(),
                stack: Vec::new(),
                events: Vec::new(),
            })),
        }
    }

    /// `true` if this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the monotonic counter `name`.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        if let Some(inner) = self.inner.as_mut() {
            *inner.counters.entry(name).or_insert(0) += n;
        }
    }

    /// Raises the monotonic counter `name` to `value` (keeps the maximum, so
    /// cumulative simulator statistics can be re-sampled at every safepoint).
    #[inline]
    pub fn counter_set(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_mut() {
            let slot = inner.counters.entry(name).or_insert(0);
            *slot = (*slot).max(value);
        }
    }

    /// Sets the deterministic gauge `name` (a pure function of simulation
    /// state, compared exactly by `repro metrics diff`).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.gauges.insert(name, (value, true));
        }
    }

    /// Sets the timing gauge `name` (wall-clock-derived; reported but never
    /// compared for drift).
    #[inline]
    pub fn timing_gauge(&mut self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.gauges.insert(name, (value, false));
        }
    }

    /// Records one sample into the histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.hists.entry(name).or_default().record(value);
        }
    }

    /// Opens a span. Spans nest: time spent in a child is attributed to the
    /// child's `total_ns` and subtracted from the parent's `self_ns`.
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) {
        if let Some(inner) = self.inner.as_mut() {
            inner.stack.push(OpenSpan {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span and returns its wall-clock
    /// nanoseconds (0 when disabled or unbalanced).
    #[inline]
    pub fn span_exit(&mut self) -> u64 {
        let Some(inner) = self.inner.as_mut() else {
            return 0;
        };
        let Some(open) = inner.stack.pop() else {
            debug_assert!(false, "span_exit without a matching span_enter");
            return 0;
        };
        let elapsed = open.start.elapsed().as_nanos() as u64;
        let accum = inner.spans.entry(open.name).or_default();
        accum.count += 1;
        accum.total_ns += elapsed;
        accum.child_ns += open.child_ns;
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += elapsed;
        }
        elapsed
    }

    /// Number of currently open spans (0 at every safepoint by contract).
    pub fn open_spans(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.stack.len())
    }

    /// Emits a structured event. `make` builds the payload and is only
    /// evaluated when enabled, so call sites pay one branch when disabled.
    #[inline]
    pub fn event(
        &mut self,
        name: &'static str,
        deterministic: bool,
        make: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if let Some(inner) = self.inner.as_mut() {
            let seq = inner.events.len() as u64;
            inner.events.push(TelemetryEvent {
                seq,
                name: name.to_string(),
                deterministic,
                fields: make().into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            });
        }
    }

    /// Nanoseconds since [`Telemetry::enabled`] (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.started.elapsed().as_nanos() as u64)
    }

    /// Snapshots everything recorded so far; `None` when disabled.
    pub fn report(&self) -> Option<TelemetryReport> {
        let inner = self.inner.as_ref()?;
        Some(TelemetryReport {
            elapsed_ns: inner.started.elapsed().as_nanos() as u64,
            counters: inner
                .counters
                .iter()
                .map(|(&name, &value)| (name.to_string(), value))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&name, &(value, det))| (name.to_string(), value, det))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(&name, hist)| (name.to_string(), HistogramSummary::from_histogram(hist)))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(&name, accum)| SpanSummary {
                    name: name.to_string(),
                    count: accum.count,
                    total_ns: accum.total_ns,
                    self_ns: accum.total_ns.saturating_sub(accum.child_ns),
                })
                .collect(),
            events: inner.events.clone(),
        })
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Telemetry")
            .field(&if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Telemetry {
        /// Merges a span with chosen `count`/`total_ns`/`self_ns` into the
        /// span table, for exporter tests that need exact weights.
        pub(crate) fn span_record(&mut self, name: &'static str, count: u64, total_ns: u64, self_ns: u64) {
            if let Some(inner) = self.inner.as_mut() {
                let accum = inner.spans.entry(name).or_default();
                accum.count += count;
                accum.total_ns += total_ns;
                accum.child_ns += total_ns.saturating_sub(self_ns);
            }
        }
    }

    #[test]
    fn disabled_handle_records_and_reports_nothing() {
        let mut t = Telemetry::disabled();
        t.counter_add("c", 3);
        t.counter_set("c", 99);
        t.gauge("g", 1.0);
        t.timing_gauge("tg", 2.0);
        t.record("h", 5);
        t.span_enter("s");
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.span_exit(), 0);
        t.event("e", true, || panic!("payload must not be built when disabled"));
        assert_eq!(t.elapsed_ns(), 0);
        assert!(t.report().is_none());
        assert!(!t.is_enabled());
        assert_eq!(format!("{t:?}"), "Telemetry(\"disabled\")");
    }

    #[test]
    fn counters_gauges_hists_and_events_round_trip() {
        let mut t = Telemetry::enabled();
        t.counter_add("gc.count", 2);
        t.counter_add("gc.count", 1);
        t.counter_set("pcm.writes", 100);
        t.counter_set("pcm.writes", 40); // max-set keeps 100
        t.gauge("hit_rate", 0.75);
        t.timing_gauge("events_per_sec", 1e6);
        t.record("pause", 100);
        t.record("pause", 1_000);
        t.event("promote", true, || vec![("site", Value::U64(7))]);
        let report = t.report().unwrap();
        assert_eq!(report.counter("gc.count"), Some(3));
        assert_eq!(report.counter("pcm.writes"), Some(100));
        assert_eq!(report.gauge("hit_rate"), Some(0.75));
        assert_eq!(
            report
                .gauges
                .iter()
                .find(|(n, _, _)| n == "events_per_sec")
                .map(|g| g.2),
            Some(false)
        );
        let pause = report.hist("pause").unwrap();
        assert_eq!(pause.count, 2);
        assert_eq!(pause.max, 1_000);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "promote");
        assert_eq!(report.events[0].fields, vec![("site".to_string(), Value::U64(7))]);
    }

    #[test]
    fn spans_balance_and_attribute_child_time_to_parents() {
        let mut t = Telemetry::enabled();
        t.span_enter("outer");
        assert_eq!(t.open_spans(), 1);
        t.span_enter("inner");
        assert_eq!(t.open_spans(), 2);
        let inner_ns = t.span_exit();
        let outer_ns = t.span_exit();
        assert_eq!(t.open_spans(), 0);
        assert!(outer_ns >= inner_ns);
        let report = t.report().unwrap();
        let outer = report.span("outer").unwrap();
        let inner = report.span("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(inner.self_ns, inner.total_ns);
        // Exact by construction: parent's self time is total minus the
        // child's measured total.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn span_nesting_balance_holds_across_many_random_shapes() {
        // Property: after any balanced sequence of enters/exits the stack is
        // empty and the per-span counts equal the number of enters.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        for _ in 0..50 {
            let mut t = Telemetry::enabled();
            let mut enters = [0u64; 4];
            let mut depth = 0usize;
            for _ in 0..200 {
                if depth == 0 || rand() % 2 == 0 {
                    let which = (rand() % 4) as usize;
                    enters[which] += 1;
                    t.span_enter(NAMES[which]);
                    depth += 1;
                } else {
                    t.span_exit();
                    depth -= 1;
                }
            }
            while depth > 0 {
                t.span_exit();
                depth -= 1;
            }
            assert_eq!(t.open_spans(), 0);
            let report = t.report().unwrap();
            for (i, name) in NAMES.iter().enumerate() {
                let count = report.span(name).map_or(0, |s| s.count);
                assert_eq!(count, enters[i], "span {name} enter/exit mismatch");
                if let Some(span) = report.span(name) {
                    assert!(span.self_ns <= span.total_ns);
                }
            }
        }
    }

    #[test]
    fn histogram_summary_merge_recomputes_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..1_000u64 {
            if v % 2 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            both.record(v * 7);
        }
        let mut sa = HistogramSummary::from_histogram(&a);
        let sb = HistogramSummary::from_histogram(&b);
        sa.merge(&sb);
        assert_eq!(sa, HistogramSummary::from_histogram(&both));
        // Merging into an empty summary adopts the other side wholesale.
        let mut empty = HistogramSummary::default();
        empty.merge(&sb);
        assert_eq!(empty, sb);
    }
}
