//! Harness spans: workload → setup/pass → cell → decode/replay/finish.
//!
//! Spans are recorded around the harness's own calls into each crate (the
//! layers are not instrumented from inside), kept in memory, and written as
//! one Chrome-trace JSON document when the run ends. Every timing the
//! benchmark reports is the duration of one of these spans, so the trace
//! and the metrics cannot disagree.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Index of the enclosing span in [`SpanLog::spans`], if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created (0 while open).
    pub end_ns: u64,
}

/// An in-memory log of properly nested spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        let span = Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a harness bug).
    pub fn exit(&mut self) -> f64 {
        let index = self.open.pop().expect("span exit without a matching enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns.max(span.start_ns);
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn scope<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut SpanLog) -> R) -> (R, f64) {
        self.enter(name);
        let result = f(self);
        let secs = self.exit();
        (result, secs)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the log as a Chrome `trace_event` document (`B`/`E` pairs in
    /// time order; each `B` carries the span's id and parent id), with
    /// `other_data` — already-rendered `"key":value` JSON members — under
    /// `otherData`.
    ///
    /// # Panics
    ///
    /// Panics when a span is still open.
    pub fn chrome_trace(&self, other_data: &str) -> String {
        assert!(self.open.is_empty(), "chrome_trace with open spans");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            match span.parent {
                Some(parent) => children[parent].push(index),
                None => roots.push(index),
            }
        }
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        for root in roots {
            self.emit(root, &children, &mut events);
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{other_data}}}}}\n",
            events.join(",\n")
        )
    }

    fn emit(&self, index: usize, children: &[Vec<usize>], events: &mut Vec<String>) {
        let span = &self.spans[index];
        let name = crate::report::json_escape(&span.name);
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"harness\",\"ph\":\"B\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{index},\"parent\":{parent}}}}}",
            span.start_ns as f64 / 1e3
        ));
        for &child in &children[index] {
            self.emit(child, children, events);
        }
        events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"harness\",\"ph\":\"E\",\"ts\":{:.3},\"pid\":1,\"tid\":1}}",
            span.end_ns as f64 / 1e3
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_a_valid_chrome_trace() {
        let mut log = SpanLog::new();
        let ((), outer) = log.scope("pass", |log| {
            log.enter("cell \"KG-N\"");
            log.scope("decode", |_| ());
            log.scope("replay", |_| ());
            log.exit();
        });
        assert!(outer >= 0.0);
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[3].parent), (Some(1), Some(1)));
        let text = log.chrome_trace("\"workload\":\"unit\"");
        let stats = telemetry::validate_chrome_trace(&text).expect("valid chrome trace");
        assert_eq!((stats.begins, stats.ends), (4, 4));
    }
}
