//! Timeline export: `.kgmetrics` → Chrome `trace_event` JSON and
//! collapsed-stack ("folded") flamegraph input.
//!
//! A `.kgmetrics` file stores span *aggregates* (count/total/self per
//! dotted name), not individual span instances, so the exporters synthesize
//! an aggregate flame chart: each span becomes one `B`/`E` pair whose
//! window is its total time, nested under its dotted-name parent (the
//! longest proper dotted prefix that is itself a span), with siblings laid
//! out sequentially and structured events rendered as instants after the
//! span area. Timestamps are synthetic but monotonic — the layout shows
//! *where time went*, not *when*, which is exactly what aggregate data can
//! support honestly.
//!
//! The Chrome output loads in `chrome://tracing`, Perfetto and speedscope;
//! the folded output feeds `flamegraph.pl` or speedscope's "folded" import.
//! [`validate_chrome_trace`] re-parses an export and checks the properties
//! the viewers rely on (well-formed JSON, monotonic timestamps, matched
//! `B`/`E` pairs); it backs both the exporter tests and the CI smoke.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::jsonl::{json_escape, json_f64, TelemetryDoc};
use crate::Value;

// ---------------------------------------------------------------------------
// Span tree

struct Node {
    name: String,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    children: Vec<usize>,
}

/// Builds the dotted-name span forest: `a.b.c` nests under the longest
/// proper dotted prefix (`a.b`, else `a`) that is itself a span. Returns
/// `(nodes, roots)`, children and roots in name order.
fn span_forest(doc: &TelemetryDoc) -> (Vec<Node>, Vec<usize>) {
    let mut nodes = Vec::with_capacity(doc.spans.len());
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut roots = Vec::new();
    // BTreeMap iteration is sorted, so every parent precedes its children.
    for (name, span) in &doc.spans {
        let id = nodes.len();
        nodes.push(Node {
            name: name.clone(),
            count: span.count,
            total_ns: span.total_ns,
            self_ns: span.self_ns,
            children: Vec::new(),
        });
        let mut parent = None;
        let mut prefix = name.as_str();
        while let Some(dot) = prefix.rfind('.') {
            prefix = &prefix[..dot];
            if let Some(&pid) = index.get(prefix) {
                parent = Some(pid);
                break;
            }
        }
        match parent {
            Some(pid) => nodes[pid].children.push(id),
            None => roots.push(id),
        }
        index.insert(name.as_str(), id);
    }
    (nodes, roots)
}

// ---------------------------------------------------------------------------
// Chrome trace_event export

/// Microsecond timestamp with nanosecond resolution (Chrome's `ts` unit).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn chrome_span(out: &mut Vec<String>, nodes: &[Node], id: usize, start_ns: u64) -> u64 {
    let node = &nodes[id];
    out.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":1,\
         \"args\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}}}",
        json_escape(&node.name),
        ts_us(start_ns),
        node.count,
        node.total_ns,
        node.self_ns,
    ));
    let mut cursor = start_ns;
    for &child in &node.children {
        cursor = chrome_span(out, nodes, child, cursor);
    }
    // The window covers the span's own total and, defensively, any child
    // overflow (merged aggregates can report children exceeding the
    // parent), keeping `E` timestamps monotonic by construction.
    let end_ns = start_ns + node.total_ns.max(cursor - start_ns);
    out.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":1}}",
        json_escape(&node.name),
        ts_us(end_ns),
    ));
    end_ns
}

fn chrome_arg(value: &Value) -> String {
    match value {
        Value::U64(v) => v.to_string(),
        Value::F64(v) => json_f64(*v),
        Value::Str(v) => format!("\"{}\"", json_escape(v)),
    }
}

/// Renders `doc` as a Chrome `trace_event` JSON document (object form,
/// with run identity in `otherData`).
pub fn chrome_trace(doc: &TelemetryDoc) -> String {
    let mut events = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"{} / {}\"}}}}",
        json_escape(&doc.meta.benchmark),
        json_escape(&doc.meta.collector),
    ));
    let (nodes, roots) = span_forest(doc);
    let mut cursor = 0u64;
    for root in roots {
        cursor = chrome_span(&mut events, &nodes, root, cursor);
    }
    // Structured events become instants laid out after the span area, in
    // sequence order, 1 µs apart — a deterministic strip viewers show as
    // the run's event timeline.
    for event in &doc.events {
        cursor += 1_000;
        let args: Vec<String> = event
            .fields
            .iter()
            .map(|(key, value)| format!("\"{}\":{}", json_escape(key), chrome_arg(value)))
            .collect();
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\
             \"s\":\"t\",\"args\":{{{}}}}}",
            json_escape(&event.name),
            ts_us(cursor),
            args.join(","),
        ));
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\
         \"schema\":\"kingsguard-telemetry\",\"benchmark\":\"{}\",\"collector\":\"{}\",\
         \"seed\":{},\"scale\":{},\"elapsed_ns\":{}}}}}\n",
        events.join(",\n"),
        json_escape(&doc.meta.benchmark),
        json_escape(&doc.meta.collector),
        doc.meta.seed,
        doc.meta.scale,
        doc.elapsed_ns,
    )
}

/// Statistics returned by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `ph:"B"` events.
    pub begins: usize,
    /// `ph:"E"` events.
    pub ends: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
}

/// Checks that `text` is a well-formed Chrome trace: parseable JSON with a
/// `traceEvents` array, timestamps monotonic (non-decreasing) in array
/// order, and every `B` matched by an `E` of the same name in stack order.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing 'traceEvents' array")?;
    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..ChromeTraceStats::default()
    };
    let mut last_ts = f64::NEG_INFINITY;
    let mut stack: Vec<String> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .str_field("ph")
            .ok_or_else(|| format!("event {i}: missing 'ph'"))?;
        let ts = event
            .num_field("ts")
            .ok_or_else(|| format!("event {i}: missing 'ts'"))?;
        if ph != "M" {
            if ts < last_ts {
                return Err(format!("event {i}: ts {ts} < previous {last_ts}"));
            }
            last_ts = ts;
        }
        let name = event
            .str_field("name")
            .ok_or_else(|| format!("event {i}: missing 'name'"))?;
        match ph {
            "B" => {
                stats.begins += 1;
                stack.push(name.to_string());
            }
            "E" => {
                stats.ends += 1;
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => return Err(format!("event {i}: E '{name}' closes B '{open}'")),
                    None => return Err(format!("event {i}: E '{name}' without open B")),
                }
            }
            "i" => stats.instants += 1,
            "M" => {}
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        }
    }
    if let Some(open) = stack.pop() {
        return Err(format!("unclosed B event '{open}'"));
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Collapsed-stack (folded) export

/// Frame names must not contain the folded format's separators.
fn fold_frame(name: &str) -> String {
    name.replace([';', ' '], "_")
}

fn folded_span(out: &mut String, nodes: &[Node], id: usize, prefix: &str) {
    let node = &nodes[id];
    let path = if prefix.is_empty() {
        fold_frame(&node.name)
    } else {
        format!("{prefix};{}", fold_frame(&node.name))
    };
    out.push_str(&format!("{path} {}\n", node.self_ns));
    for &child in &node.children {
        folded_span(out, nodes, child, &path);
    }
}

/// Renders `doc`'s span aggregates in collapsed-stack format: one line per
/// span, `frame;frame;... self_ns`, suitable for `flamegraph.pl` and
/// speedscope. Every span is emitted (including zero-weight ones), so the
/// output round-trips exactly through [`parse_folded`].
pub fn folded_stacks(doc: &TelemetryDoc) -> String {
    let (nodes, roots) = span_forest(doc);
    let mut out = String::new();
    for root in roots {
        folded_span(&mut out, &nodes, root, "");
    }
    out
}

/// Parses collapsed-stack text back into `(frames, weight)` rows.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight column", i + 1))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("line {}: bad weight '{weight}'", i + 1))?;
        let frames: Vec<String> = stack.split(';').map(str::to_string).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame", i + 1));
        }
        rows.push((frames, weight));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunMeta, Telemetry, TelemetryDoc, Value};

    fn golden_doc() -> TelemetryDoc {
        let mut t = Telemetry::enabled();
        t.span_enter("gc.nursery");
        t.span_enter("gc.nursery.copy");
        t.span_exit();
        t.span_exit();
        t.span_enter("gc.major");
        t.span_exit();
        t.span_record("touch", 10, 5_000, 0);
        t.span_record("touch.cache", 10, 3_000, 3_000);
        t.span_record("touch.page_map", 10, 1_500, 1_500);
        t.event("policy.promote", true, || vec![("site", Value::U64(7))]);
        t.event("wear.snapshot", false, || {
            vec![("cov", Value::F64(0.5)), ("kind", Value::Str("PCM".into()))]
        });
        let meta = RunMeta {
            benchmark: "lusearch".to_string(),
            collector: "KG-D".to_string(),
            mode: "arch-independent".to_string(),
            seed: 7,
            scale: 2048,
        };
        let text = crate::render_jsonl(&meta, &t.report().unwrap());
        TelemetryDoc::parse(&text).unwrap()
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let doc = golden_doc();
        let trace = chrome_trace(&doc);
        let stats = validate_chrome_trace(&trace).unwrap();
        // 6 spans (gc.nursery, gc.nursery.copy, gc.major, touch,
        // touch.cache, touch.page_map) → 6 B + 6 E, plus 2 instants.
        assert_eq!(stats.begins, 6);
        assert_eq!(stats.ends, 6);
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.events, 6 + 6 + 2 + 1); // + metadata event
                                                 // Run identity is embedded.
        assert!(trace.contains("\"benchmark\":\"lusearch\""));
        assert!(trace.contains("\"collector\":\"KG-D\""));
    }

    #[test]
    fn chrome_trace_nests_dotted_children_inside_parents() {
        let doc = golden_doc();
        let trace = chrome_trace(&doc);
        let json = Json::parse(&trace).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        let pos = |ph: &str, name: &str| {
            events
                .iter()
                .position(|e| e.str_field("ph") == Some(ph) && e.str_field("name") == Some(name))
                .unwrap_or_else(|| panic!("no {ph} event for {name}"))
        };
        // The child opens after its parent opens and closes before it.
        assert!(pos("B", "gc.nursery") < pos("B", "gc.nursery.copy"));
        assert!(pos("E", "gc.nursery.copy") < pos("E", "gc.nursery"));
        assert!(pos("B", "touch") < pos("B", "touch.cache"));
        let ts = |i: usize| events[i].num_field("ts").unwrap();
        assert!(ts(pos("E", "touch.cache")) <= ts(pos("E", "touch")));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let doc = golden_doc();
        assert_eq!(chrome_trace(&doc), chrome_trace(&doc));
    }

    #[test]
    fn folded_round_trips_and_weights_are_self_ns() {
        let doc = golden_doc();
        let folded = folded_stacks(&doc);
        let rows = parse_folded(&folded).unwrap();
        assert_eq!(rows.len(), doc.spans.len(), "one row per span");
        let find = |frames: &[&str]| {
            let want: Vec<String> = frames.iter().map(|s| s.to_string()).collect();
            rows.iter()
                .find(|(f, _)| *f == want)
                .map(|&(_, w)| w)
                .unwrap_or_else(|| panic!("missing stack {frames:?}"))
        };
        assert_eq!(find(&["touch"]), 0);
        assert_eq!(find(&["touch", "touch.cache"]), 3_000);
        assert_eq!(find(&["touch", "touch.page_map"]), 1_500);
        assert_eq!(
            find(&["gc.nursery", "gc.nursery.copy"]),
            doc.spans["gc.nursery.copy"].self_ns
        );
        // Total weight equals the sum of span self times.
        let total: u64 = rows.iter().map(|&(_, w)| w).sum();
        let expect: u64 = doc.spans.values().map(|s| s.self_ns).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn folded_parser_rejects_malformed_lines() {
        assert!(parse_folded("no_weight_column\n").is_err());
        assert!(parse_folded("frame notanumber\n").is_err());
        assert!(parse_folded("a;;b 10\n").is_err());
        assert_eq!(parse_folded("\n  \n").unwrap(), Vec::new());
        let ok = parse_folded("a;b 10\nc 2\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0], (vec!["a".to_string(), "b".to_string()], 10));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Unmatched B.
        let unmatched = r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(unmatched).unwrap_err().contains("unclosed"));
        // E closing the wrong span.
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        // Non-monotonic ts.
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(backwards).unwrap_err().contains("ts"));
    }
}
