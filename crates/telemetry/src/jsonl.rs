//! The versioned `.kgmetrics` JSON-lines format.
//!
//! One file per run, in the same spirit as the `.kgprof`/`.kgtrace`
//! formats: a header line carrying the schema name and version plus the run
//! identity (benchmark, collector, measurement mode, seed, scale), followed
//! by one JSON object per metric — counters, gauges, histograms, spans and
//! structured events. Readers reject files whose version is outside the
//! supported window, exactly like the binary trace format.
//!
//! Every record is (explicitly or by kind) *deterministic* or *timing*:
//! counters, deterministic gauges, histogram/span **counts** and
//! deterministic events are pure functions of the simulation and must not
//! drift between two runs of the same seed; wall-clock durations, rates and
//! quantiles are timing data and are reported but never compared. This
//! split is what lets `repro metrics diff` gate on zero metric drift while
//! still showing timing movement for triage.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::json::Json;
use crate::{HistogramSummary, SpanSummary, TelemetryEvent, TelemetryReport, Value};

/// Schema name stamped into the header line.
pub const SCHEMA_NAME: &str = "kingsguard-telemetry";
/// Version this build writes.
pub const SCHEMA_VERSION: u32 = 1;
/// Oldest version this build reads.
pub const SCHEMA_MIN_VERSION: u32 = 1;
/// Canonical file extension (without the dot).
pub const FILE_EXTENSION: &str = "kgmetrics";

/// Run identity stamped into the header line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Workload name.
    pub benchmark: String,
    /// Collector label (e.g. `KG-D`).
    pub collector: String,
    /// Measurement mode (`simulation` or `arch-independent`). Empty in
    /// files written before the header carried it; an empty mode matches
    /// any mode when two documents are compared.
    pub mode: String,
    /// Workload seed.
    pub seed: u64,
    /// Workload scale factor.
    pub scale: u64,
}

/// Errors reading or parsing a `.kgmetrics` file.
#[derive(Debug)]
pub enum TelemetryError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line is not what the schema requires.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The header declares a version outside the supported window.
    UnsupportedVersion(u32),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Io(err) => write!(f, "telemetry i/o error: {err}"),
            TelemetryError::Malformed { line, reason } => {
                write!(f, "malformed telemetry line {line}: {reason}")
            }
            TelemetryError::UnsupportedVersion(version) => write!(
                f,
                "unsupported telemetry schema version {version} (this build reads versions \
                 {SCHEMA_MIN_VERSION}..={SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<std::io::Error> for TelemetryError {
    fn from(err: std::io::Error) -> Self {
        TelemetryError::Io(err)
    }
}

// ---------------------------------------------------------------------------
// Rendering

pub(crate) fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `value` as a JSON number (`{:?}` on `f64` round-trips; the rare
/// non-finite value becomes `null` and parses back as missing).
pub(crate) fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn json_value(value: &Value) -> String {
    match value {
        Value::U64(v) => v.to_string(),
        Value::F64(v) => json_f64(*v),
        Value::Str(v) => format!("\"{}\"", json_escape(v)),
    }
}

/// Renders a report as the versioned JSON-lines document.
pub fn render_jsonl(meta: &RunMeta, report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"version\":{},\"benchmark\":\"{}\",\"collector\":\"{}\",\
         \"mode\":\"{}\",\"seed\":{},\"scale\":{},\"elapsed_ns\":{}}}\n",
        SCHEMA_NAME,
        SCHEMA_VERSION,
        json_escape(&meta.benchmark),
        json_escape(&meta.collector),
        json_escape(&meta.mode),
        meta.seed,
        meta.scale,
        report.elapsed_ns,
    ));
    for (name, value) in &report.counters {
        out.push_str(&format!(
            "{{\"t\":\"counter\",\"name\":\"{}\",\"value\":{}}}\n",
            json_escape(name),
            value
        ));
    }
    for (name, value, det) in &report.gauges {
        out.push_str(&format!(
            "{{\"t\":\"gauge\",\"name\":\"{}\",\"value\":{},\"det\":{}}}\n",
            json_escape(name),
            json_f64(*value),
            det
        ));
    }
    for (name, hist) in &report.hists {
        let buckets: Vec<String> = hist
            .buckets
            .iter()
            .map(|(upper, count)| format!("[{upper},{count}]"))
            .collect();
        out.push_str(&format!(
            "{{\"t\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}\n",
            json_escape(name),
            hist.count,
            hist.sum,
            hist.min,
            hist.max,
            hist.p50,
            hist.p95,
            hist.p99,
            buckets.join(","),
        ));
    }
    for span in &report.spans {
        out.push_str(&format!(
            "{{\"t\":\"span\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}\n",
            json_escape(&span.name),
            span.count,
            span.total_ns,
            span.self_ns,
        ));
    }
    for event in &report.events {
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(key, value)| format!("\"{}\":{}", json_escape(key), json_value(value)))
            .collect();
        out.push_str(&format!(
            "{{\"t\":\"event\",\"seq\":{},\"name\":\"{}\",\"det\":{},\"fields\":{{{}}}}}\n",
            event.seq,
            json_escape(&event.name),
            event.deterministic,
            fields.join(","),
        ));
    }
    out
}

/// Writes the JSON-lines document to `path`.
pub fn write_jsonl(path: &Path, meta: &RunMeta, report: &TelemetryReport) -> Result<(), TelemetryError> {
    std::fs::write(path, render_jsonl(meta, report))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Parsing

fn parse_json_line(line: &str, line_no: usize) -> Result<Json, TelemetryError> {
    Json::parse(line).map_err(|reason| TelemetryError::Malformed {
        line: line_no,
        reason,
    })
}

// ---------------------------------------------------------------------------
// Documents

/// A parsed `.kgmetrics` file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryDoc {
    /// Schema version declared by the header.
    pub version: u32,
    /// Run identity from the header.
    pub meta: RunMeta,
    /// Run wall-clock from the header (timing).
    pub elapsed_ns: u64,
    /// Counters by name (deterministic).
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name: `(value, deterministic)`.
    pub gauges: BTreeMap<String, (f64, bool)>,
    /// Histograms by name (counts deterministic, values timing).
    pub hists: BTreeMap<String, HistogramSummary>,
    /// Spans by name (counts deterministic, times timing).
    pub spans: BTreeMap<String, SpanSummary>,
    /// Structured events in sequence order.
    pub events: Vec<TelemetryEvent>,
}

fn require_u64(obj: &Json, key: &str, line: usize) -> Result<u64, TelemetryError> {
    obj.u64_field(key).ok_or_else(|| TelemetryError::Malformed {
        line,
        reason: format!("missing or non-integer field '{key}'"),
    })
}

fn require_str(obj: &Json, key: &str, line: usize) -> Result<String, TelemetryError> {
    obj.str_field(key)
        .map(str::to_string)
        .ok_or_else(|| TelemetryError::Malformed {
            line,
            reason: format!("missing or non-string field '{key}'"),
        })
}

impl TelemetryDoc {
    /// Parses a JSON-lines document, rejecting unsupported schema versions.
    pub fn parse(text: &str) -> Result<Self, TelemetryError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let (header_no, header_line) = lines.next().ok_or(TelemetryError::Malformed {
            line: 1,
            reason: "empty file".to_string(),
        })?;
        let header = parse_json_line(header_line, header_no)?;
        let schema = require_str(&header, "schema", header_no)?;
        if schema != SCHEMA_NAME {
            return Err(TelemetryError::Malformed {
                line: header_no,
                reason: format!("schema is '{schema}', expected '{SCHEMA_NAME}'"),
            });
        }
        let version = require_u64(&header, "version", header_no)? as u32;
        if !(SCHEMA_MIN_VERSION..=SCHEMA_VERSION).contains(&version) {
            return Err(TelemetryError::UnsupportedVersion(version));
        }
        let mut doc = TelemetryDoc {
            version,
            meta: RunMeta {
                benchmark: require_str(&header, "benchmark", header_no)?,
                collector: require_str(&header, "collector", header_no)?,
                mode: header.str_field("mode").unwrap_or_default().to_string(),
                seed: require_u64(&header, "seed", header_no)?,
                scale: require_u64(&header, "scale", header_no)?,
            },
            elapsed_ns: require_u64(&header, "elapsed_ns", header_no)?,
            ..TelemetryDoc::default()
        };
        for (line_no, line) in lines {
            let record = parse_json_line(line, line_no)?;
            let tag = require_str(&record, "t", line_no)?;
            match tag.as_str() {
                "counter" => {
                    doc.counters.insert(
                        require_str(&record, "name", line_no)?,
                        require_u64(&record, "value", line_no)?,
                    );
                }
                "gauge" => {
                    let det = record.bool_field("det").unwrap_or(false);
                    let value = record.num_field("value").unwrap_or(f64::NAN);
                    doc.gauges
                        .insert(require_str(&record, "name", line_no)?, (value, det));
                }
                "hist" => {
                    let buckets = match record.get("buckets") {
                        Some(Json::Arr(items)) => items
                            .iter()
                            .map(|item| match item {
                                Json::Arr(pair) if pair.len() == 2 => match (&pair[0], &pair[1]) {
                                    (Json::Num(u), Json::Num(c)) => Ok((*u as u64, *c as u64)),
                                    _ => Err(()),
                                },
                                _ => Err(()),
                            })
                            .collect::<Result<Vec<_>, ()>>()
                            .map_err(|()| TelemetryError::Malformed {
                                line: line_no,
                                reason: "bad bucket entry".to_string(),
                            })?,
                        _ => {
                            return Err(TelemetryError::Malformed {
                                line: line_no,
                                reason: "missing 'buckets' array".to_string(),
                            })
                        }
                    };
                    doc.hists.insert(
                        require_str(&record, "name", line_no)?,
                        HistogramSummary {
                            count: require_u64(&record, "count", line_no)?,
                            sum: require_u64(&record, "sum", line_no)?,
                            min: require_u64(&record, "min", line_no)?,
                            max: require_u64(&record, "max", line_no)?,
                            p50: require_u64(&record, "p50", line_no)?,
                            p95: require_u64(&record, "p95", line_no)?,
                            p99: require_u64(&record, "p99", line_no)?,
                            buckets,
                        },
                    );
                }
                "span" => {
                    let name = require_str(&record, "name", line_no)?;
                    doc.spans.insert(
                        name.clone(),
                        SpanSummary {
                            name,
                            count: require_u64(&record, "count", line_no)?,
                            total_ns: require_u64(&record, "total_ns", line_no)?,
                            self_ns: require_u64(&record, "self_ns", line_no)?,
                        },
                    );
                }
                "event" => {
                    let fields = match record.get("fields") {
                        Some(Json::Obj(pairs)) => pairs
                            .iter()
                            .map(|(key, value)| {
                                let value = match value {
                                    Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Value::U64(*n as u64),
                                    Json::Num(n) => Value::F64(*n),
                                    Json::Str(s) => Value::Str(s.clone()),
                                    Json::Null => Value::F64(f64::NAN),
                                    other => Value::Str(format!("{other:?}")),
                                };
                                (key.clone(), value)
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    doc.events.push(TelemetryEvent {
                        seq: require_u64(&record, "seq", line_no)?,
                        name: require_str(&record, "name", line_no)?,
                        deterministic: record.bool_field("det").unwrap_or(false),
                        fields,
                    });
                }
                other => {
                    return Err(TelemetryError::Malformed {
                        line: line_no,
                        reason: format!("unknown record type '{other}'"),
                    })
                }
            }
        }
        doc.events.sort_by_key(|e| e.seq);
        Ok(doc)
    }

    /// Loads and parses the file at `path`.
    pub fn load(path: &Path) -> Result<Self, TelemetryError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Human-readable rendering for `repro metrics show`.
    pub fn summary(&self) -> String {
        self.summary_top(None)
    }

    /// Like [`Self::summary`], but `top = Some(n)` keeps the output
    /// readable on large (e.g. fleet) files: counters sort by value,
    /// spans by self time and histograms by sample count — descending,
    /// truncated to the `n` largest — instead of dumping everything in
    /// name order.
    pub fn summary_top(&self, top: Option<usize>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry run: {} / {} ({}seed {}, scale {}), schema v{}, elapsed {}\n",
            self.meta.benchmark,
            self.meta.collector,
            if self.meta.mode.is_empty() {
                String::new()
            } else {
                format!("{}, ", self.meta.mode)
            },
            self.meta.seed,
            self.meta.scale,
            self.version,
            fmt_ns(self.elapsed_ns),
        ));
        // Sorts descending by `key` (ties broken by name for determinism)
        // and keeps the `top` largest; `None` keeps name order, complete.
        fn ranked<T, K: Ord>(
            map: &BTreeMap<String, T>,
            top: Option<usize>,
            key: impl Fn(&T) -> K,
        ) -> (Vec<(&String, &T)>, usize) {
            let mut rows: Vec<_> = map.iter().collect();
            let Some(n) = top else {
                return (rows, 0);
            };
            rows.sort_by(|(na, va), (nb, vb)| key(vb).cmp(&key(va)).then(na.cmp(nb)));
            let omitted = rows.len().saturating_sub(n);
            rows.truncate(n);
            (rows, omitted)
        }
        let section = |out: &mut String, label: &str, omitted: usize| {
            if omitted > 0 {
                out.push_str(&format!(
                    "{label} (top {} shown, {omitted} omitted):\n",
                    top.unwrap()
                ));
            } else {
                out.push_str(&format!("{label}:\n"));
            }
        };
        if !self.counters.is_empty() {
            let (rows, omitted) = ranked(&self.counters, top, |&v| v);
            section(&mut out, "counters", omitted);
            for (name, value) in rows {
                out.push_str(&format!("  {name} = {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, (value, det)) in &self.gauges {
                let kind = if *det { "det" } else { "timing" };
                out.push_str(&format!("  {name} = {value:.4} ({kind})\n"));
            }
        }
        if !self.hists.is_empty() {
            let (rows, omitted) = ranked(&self.hists, top, |h| h.count);
            section(&mut out, "histograms", omitted);
            for (name, hist) in rows {
                out.push_str(&format!(
                    "  {name}: count={} p50={} p95={} p99={} max={}\n",
                    hist.count,
                    fmt_ns(hist.p50),
                    fmt_ns(hist.p95),
                    fmt_ns(hist.p99),
                    fmt_ns(hist.max),
                ));
            }
        }
        if !self.spans.is_empty() {
            let (rows, omitted) = ranked(&self.spans, top, |s| s.self_ns);
            section(&mut out, "spans", omitted);
            for (name, span) in rows {
                out.push_str(&format!(
                    "  {name}: count={} total={} self={}\n",
                    span.count,
                    fmt_ns(span.total_ns),
                    fmt_ns(span.self_ns),
                ));
            }
        }
        out.push_str(&format!("events: {}\n", self.events.len()));
        let event_cap = top.unwrap_or(20);
        for event in self.events.iter().take(event_cap) {
            let fields: Vec<String> = event.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "  #{} {} [{}] {}\n",
                event.seq,
                event.name,
                if event.deterministic { "det" } else { "timing" },
                fields.join(" "),
            ));
        }
        if self.events.len() > event_cap {
            out.push_str(&format!("  ... {} more\n", self.events.len() - event_cap));
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `us`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// Diffing

/// Result of comparing two documents: deterministic drift (a regression
/// gate) and informational timing movement.
#[derive(Clone, Debug, Default)]
pub struct MetricsDiff {
    /// Number of deterministic quantities compared.
    pub compared: usize,
    /// One line per drifted deterministic quantity.
    pub drift: Vec<String>,
    /// One line per timing quantity that moved (informational).
    pub timing: Vec<String>,
}

impl MetricsDiff {
    /// `true` if any deterministic quantity differs.
    pub fn has_drift(&self) -> bool {
        !self.drift.is_empty()
    }

    /// Human-readable rendering for `repro metrics diff`.
    pub fn report(&self) -> String {
        let mut out = format!(
            "deterministic metrics: {} compared, {} drifted\n",
            self.compared,
            self.drift.len()
        );
        for line in &self.drift {
            out.push_str(&format!("  DRIFT {line}\n"));
        }
        if self.timing.is_empty() {
            out.push_str("timing metrics: unchanged or within noise\n");
        } else {
            out.push_str("timing metrics (informational):\n");
            for line in &self.timing {
                out.push_str(&format!("  {line}\n"));
            }
        }
        out
    }
}

fn diff_keyed<T, FD, FT>(
    diff: &mut MetricsDiff,
    kind: &str,
    a: &BTreeMap<String, T>,
    b: &BTreeMap<String, T>,
    det_value: FD,
    timing_line: FT,
) where
    FD: Fn(&T) -> String,
    FT: Fn(&str, &T, &T) -> Option<String>,
{
    let keys: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        match (a.get(key.as_str()), b.get(key.as_str())) {
            (Some(va), Some(vb)) => {
                diff.compared += 1;
                let (da, db) = (det_value(va), det_value(vb));
                if da != db {
                    diff.drift.push(format!("{kind} {key}: {da} != {db}"));
                }
                if let Some(line) = timing_line(key, va, vb) {
                    diff.timing.push(line);
                }
            }
            (Some(_), None) => {
                diff.compared += 1;
                diff.drift.push(format!("{kind} {key}: present only in A"));
            }
            (None, Some(_)) => {
                diff.compared += 1;
                diff.drift.push(format!("{kind} {key}: present only in B"));
            }
            (None, None) => unreachable!(),
        }
    }
}

fn ratio_note(name: &str, what: &str, a: f64, b: f64) -> Option<String> {
    if a == b {
        return None;
    }
    let ratio = if a != 0.0 { b / a } else { f64::INFINITY };
    Some(format!("{name} {what}: {a:.1} -> {b:.1} ({ratio:.2}x)"))
}

/// Compares two parsed documents. Deterministic records must match exactly;
/// timing records are reported as informational movement.
pub fn diff_docs(a: &TelemetryDoc, b: &TelemetryDoc) -> MetricsDiff {
    let mut diff = MetricsDiff::default();

    // Run identity: comparing different runs is almost always a mistake —
    // surface it as drift rather than silently comparing apples to oranges.
    diff.compared += 1;
    let modes_match = a.meta.mode == b.meta.mode || a.meta.mode.is_empty() || b.meta.mode.is_empty();
    if !modes_match
        || (&a.meta.benchmark, &a.meta.collector, a.meta.seed, a.meta.scale)
            != (&b.meta.benchmark, &b.meta.collector, b.meta.seed, b.meta.scale)
    {
        diff.drift.push(format!(
            "run identity: {}/{} ({}) seed {} scale {} != {}/{} ({}) seed {} scale {}",
            a.meta.benchmark,
            a.meta.collector,
            a.meta.mode,
            a.meta.seed,
            a.meta.scale,
            b.meta.benchmark,
            b.meta.collector,
            b.meta.mode,
            b.meta.seed,
            b.meta.scale,
        ));
    }
    if a.elapsed_ns != b.elapsed_ns {
        diff.timing.push(format!(
            "elapsed: {} -> {}",
            fmt_ns(a.elapsed_ns),
            fmt_ns(b.elapsed_ns)
        ));
    }

    diff_keyed(
        &mut diff,
        "counter",
        &a.counters,
        &b.counters,
        |v| v.to_string(),
        |_, _, _| None,
    );
    diff_keyed(
        &mut diff,
        "gauge",
        &a.gauges,
        &b.gauges,
        |(value, det)| {
            if *det {
                // Deterministic gauges compare exactly (bit-for-bit via the
                // round-tripping `{:?}` rendering).
                format!("{value:?}")
            } else {
                "timing".to_string()
            }
        },
        |name, (va, det), (vb, _)| {
            if *det {
                None
            } else {
                ratio_note(name, "gauge", *va, *vb)
            }
        },
    );
    diff_keyed(
        &mut diff,
        "hist",
        &a.hists,
        &b.hists,
        // Sample counts are deterministic (one sample per GC); the sampled
        // durations are wall-clock and therefore timing-only.
        |h| h.count.to_string(),
        |name, ha, hb| ratio_note(name, "p99", ha.p99 as f64, hb.p99 as f64),
    );
    diff_keyed(
        &mut diff,
        "span",
        &a.spans,
        &b.spans,
        |s| s.count.to_string(),
        |name, sa, sb| ratio_note(name, "total_ns", sa.total_ns as f64, sb.total_ns as f64),
    );

    // Deterministic events must match as an ordered sequence.
    let det_a: Vec<&TelemetryEvent> = a.events.iter().filter(|e| e.deterministic).collect();
    let det_b: Vec<&TelemetryEvent> = b.events.iter().filter(|e| e.deterministic).collect();
    diff.compared += det_a.len().max(det_b.len());
    if det_a.len() != det_b.len() {
        diff.drift.push(format!(
            "deterministic events: {} in A, {} in B",
            det_a.len(),
            det_b.len()
        ));
    } else {
        for (ea, eb) in det_a.iter().zip(det_b.iter()) {
            if ea.name != eb.name || !fields_match(&ea.fields, &eb.fields) {
                diff.drift.push(format!(
                    "event #{} {:?} != #{} {:?}",
                    ea.seq, ea.name, eb.seq, eb.name
                ));
            }
        }
    }
    diff
}

fn fields_match(a: &[(String, Value)], b: &[(String, Value)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| {
            ka == kb
                && match (va, vb) {
                    (Value::F64(x), Value::F64(y)) => {
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                    }
                    (x, y) => x == y,
                }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_report() -> (RunMeta, TelemetryReport) {
        let mut t = Telemetry::enabled();
        t.counter_add("gc.collections.nursery", 12);
        t.counter_set("mem.writes.pcm", 4_096);
        t.gauge("cache.hit_rate", 0.9375);
        t.timing_gauge("touch.events_per_sec", 1.25e7);
        for pause in [800u64, 1_200, 9_000, 64_000] {
            t.record("gc.pause_ns", pause);
        }
        t.span_enter("gc.nursery");
        t.span_enter("gc.nursery.copy");
        t.span_exit();
        t.span_exit();
        t.event("policy.promote", true, || {
            vec![
                ("site", Value::U64(42)),
                ("trigger", Value::Str("rescue".to_string())),
            ]
        });
        let meta = RunMeta {
            benchmark: "lusearch".to_string(),
            collector: "KG-D".to_string(),
            mode: "arch-independent".to_string(),
            seed: 7,
            scale: 2048,
        };
        let report = t.report().unwrap();
        (meta, report)
    }

    #[test]
    fn render_parse_round_trip() {
        let (meta, report) = sample_report();
        let text = render_jsonl(&meta, &report);
        let doc = TelemetryDoc::parse(&text).unwrap();
        assert_eq!(doc.version, SCHEMA_VERSION);
        assert_eq!(doc.meta, meta);
        assert_eq!(doc.counters["gc.collections.nursery"], 12);
        assert_eq!(doc.counters["mem.writes.pcm"], 4_096);
        assert_eq!(doc.gauges["cache.hit_rate"], (0.9375, true));
        assert!(!doc.gauges["touch.events_per_sec"].1);
        let pause = &doc.hists["gc.pause_ns"];
        assert_eq!(pause.count, 4);
        assert_eq!(pause.max, 64_000);
        assert_eq!(pause, report.hist("gc.pause_ns").unwrap());
        assert_eq!(doc.spans["gc.nursery"].count, 1);
        assert_eq!(doc.events.len(), 1);
        assert_eq!(doc.events[0].fields[0], ("site".to_string(), Value::U64(42)));
        // A second round trip is a fixed point.
        let doc2 = TelemetryDoc::parse(&text).unwrap();
        assert_eq!(doc, doc2);
        assert!(doc.summary().contains("lusearch"));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let text = format!(
            "{{\"schema\":\"{SCHEMA_NAME}\",\"version\":{},\"benchmark\":\"x\",\
             \"collector\":\"y\",\"seed\":0,\"scale\":1,\"elapsed_ns\":0}}\n",
            SCHEMA_VERSION + 1
        );
        match TelemetryDoc::parse(&text) {
            Err(TelemetryError::UnsupportedVersion(v)) => {
                assert_eq!(v, SCHEMA_VERSION + 1);
                let msg = TelemetryError::UnsupportedVersion(v).to_string();
                assert!(msg.contains("unsupported telemetry schema version"));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // Wrong schema name and garbage lines are malformed, not panics.
        assert!(matches!(
            TelemetryDoc::parse("{\"schema\":\"other\",\"version\":1}"),
            Err(TelemetryError::Malformed { .. })
        ));
        assert!(TelemetryDoc::parse("not json").is_err());
        assert!(TelemetryDoc::parse("").is_err());
    }

    #[test]
    fn identical_documents_diff_clean() {
        let (meta, report) = sample_report();
        let text = render_jsonl(&meta, &report);
        let a = TelemetryDoc::parse(&text).unwrap();
        let b = TelemetryDoc::parse(&text).unwrap();
        let diff = diff_docs(&a, &b);
        assert!(!diff.has_drift(), "unexpected drift: {:?}", diff.drift);
        assert!(diff.compared > 4);
        assert!(diff.report().contains("0 drifted"));
    }

    #[test]
    fn deterministic_drift_is_detected_and_timing_is_not() {
        let (meta, report) = sample_report();
        let a = TelemetryDoc::parse(&render_jsonl(&meta, &report)).unwrap();
        let mut b = a.clone();
        // Timing-only movement: elapsed and span durations may differ freely.
        b.elapsed_ns += 1_000_000;
        let span = b.spans.get_mut("gc.nursery").unwrap();
        span.total_ns *= 3;
        let diff = diff_docs(&a, &b);
        assert!(!diff.has_drift(), "timing flagged as drift: {:?}", diff.drift);
        assert!(!diff.timing.is_empty());
        // Deterministic drift: a counter change must be caught...
        let mut c = a.clone();
        *c.counters.get_mut("mem.writes.pcm").unwrap() += 1;
        assert!(diff_docs(&a, &c).has_drift());
        // ...as must a missing counter, a det-gauge change, a histogram
        // count change and a deterministic event change.
        let mut d = a.clone();
        d.counters.remove("gc.collections.nursery");
        assert!(diff_docs(&a, &d).has_drift());
        let mut e = a.clone();
        e.gauges.insert("cache.hit_rate".to_string(), (0.5, true));
        assert!(diff_docs(&a, &e).has_drift());
        let mut f = a.clone();
        f.hists.get_mut("gc.pause_ns").unwrap().count += 1;
        assert!(diff_docs(&a, &f).has_drift());
        let mut g = a.clone();
        g.events[0].fields[0].1 = Value::U64(43);
        assert!(diff_docs(&a, &g).has_drift());
    }

    #[test]
    fn headers_without_a_mode_parse_and_match_either_mode() {
        let (meta, report) = sample_report();
        let text = render_jsonl(&meta, &report);
        let current = TelemetryDoc::parse(&text).unwrap();
        let older = TelemetryDoc::parse(&text.replacen("\"mode\":\"arch-independent\",", "", 1)).unwrap();
        assert_eq!(older.meta.mode, "");
        assert!(!diff_docs(&older, &current).has_drift());
        let mut simulated = current.clone();
        simulated.meta.mode = "simulation".to_string();
        assert!(diff_docs(&simulated, &current).has_drift());
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut t = Telemetry::enabled();
        t.event("weird", true, || {
            vec![("label", Value::Str("a\"b\\c\nd\te".to_string()))]
        });
        let meta = RunMeta {
            benchmark: "bench \"q\"".to_string(),
            collector: "KG\\N".to_string(),
            mode: "simu\"lation".to_string(),
            seed: 1,
            scale: 2,
        };
        let report = t.report().unwrap();
        let doc = TelemetryDoc::parse(&render_jsonl(&meta, &report)).unwrap();
        assert_eq!(doc.meta, meta);
        assert_eq!(doc.events[0].fields[0].1, Value::Str("a\"b\\c\nd\te".to_string()));
    }

    #[test]
    fn hostile_inputs_error_without_panicking() {
        let (meta, report) = sample_report();
        let text = render_jsonl(&meta, &report);
        let parse_survives = |input: String| {
            std::panic::catch_unwind(move || {
                let _ = TelemetryDoc::parse(&input);
            })
            .is_ok()
        };
        // Every prefix truncation parses to Ok or a descriptive Err — never
        // a panic. A truncation that cuts a line mid-record must be an Err.
        let header_len = text.lines().next().unwrap().len();
        for cut in 0..text.len() {
            let prefix = text[..cut].to_string();
            assert!(parse_survives(prefix.clone()), "panic at truncation {cut}");
            if !prefix.is_empty() && !prefix.ends_with('\n') {
                let result = TelemetryDoc::parse(&prefix);
                if let Err(err) = &result {
                    assert!(!err.to_string().is_empty(), "cut {cut}: empty error message");
                }
                if cut < header_len {
                    // A mid-header truncation can never be a valid document.
                    assert!(result.is_err(), "cut {cut}: truncated header accepted");
                }
            }
        }
        // Every single-bit flip that stays valid UTF-8 parses without
        // panicking (the outcome may legitimately be Ok when the flip lands
        // in a value).
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[pos] ^= 1 << bit;
                if let Ok(corrupt) = String::from_utf8(flipped) {
                    assert!(parse_survives(corrupt), "panic at flip {pos}/{bit}");
                }
            }
        }
        // Targeted corruption keeps its descriptive messages.
        let missing = TelemetryDoc::load(Path::new("/nonexistent/run.kgmetrics"));
        assert!(matches!(missing, Err(TelemetryError::Io(_))));
        let garbage_record = format!(
            "{}{{\"t\":\"wat\"}}\n",
            text.lines().next().unwrap().to_owned() + "\n"
        );
        match TelemetryDoc::parse(&garbage_record) {
            Err(TelemetryError::Malformed { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("wat"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn summary_top_ranks_and_truncates() {
        let mut t = Telemetry::enabled();
        t.counter_add("small", 1);
        t.counter_add("large", 1_000);
        t.counter_add("medium", 50);
        t.span_record("cheap", 1, 10, 10);
        t.span_record("hot", 1, 9_000, 9_000);
        t.span_record("warm", 1, 500, 500);
        let meta = RunMeta::default();
        let doc = TelemetryDoc::parse(&render_jsonl(&meta, &t.report().unwrap())).unwrap();
        let full = doc.summary();
        assert!(full.contains("small"));
        assert!(full.contains("cheap"));
        let top = doc.summary_top(Some(2));
        // The two largest counters survive, the smallest is dropped and
        // the truncation is labelled.
        assert!(top.contains("large"));
        assert!(top.contains("medium"));
        assert!(!top.contains("small"));
        assert!(top.contains("counters (top 2 shown, 1 omitted):"));
        // Spans rank by self time: hot and warm survive, cheap is dropped.
        assert!(top.contains("hot"));
        assert!(top.contains("warm"));
        assert!(!top.contains("cheap"));
        // Ranking is descending: large before medium, hot before warm.
        assert!(top.find("large").unwrap() < top.find("medium").unwrap());
        assert!(top.find("hot").unwrap() < top.find("warm").unwrap());
    }

    #[test]
    fn fmt_ns_is_adaptive() {
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_500), "12.5us");
        assert_eq!(fmt_ns(2_345_678), "2.3ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
    }
}
