//! Plain-text table formatting for experiment reports, plus the per-row
//! metric helpers shared by the advise and adaptive comparison tables.

use std::sync::Arc;

use hybrid_mem::lifetime::Endurance;

use crate::runner::ExperimentResult;

/// Endurance level used for the lifetime columns of the comparison tables
/// (the paper's headline 30 M writes-per-cell point).
pub const LIFETIME_ENDURANCE: Endurance = Endurance::Mid30M;

/// Finds `collector`'s result within one comparison row.
pub(crate) fn result_for<'a>(
    results: &'a [Arc<ExperimentResult>],
    benchmark: &str,
    collector: &str,
) -> &'a ExperimentResult {
    results
        .iter()
        .find(|r| r.collector == collector)
        .unwrap_or_else(|| panic!("missing {collector} result for {benchmark}"))
}

/// Estimated 32-core PCM write rate in GB/s.
pub(crate) fn write_rate_gbps(result: &ExperimentResult) -> f64 {
    result.pcm_write_rate_32core() / 1e9
}

/// PCM lifetime in years at [`LIFETIME_ENDURANCE`].
pub(crate) fn lifetime_years(result: &ExperimentResult) -> f64 {
    result.pcm_lifetime_years(LIFETIME_ENDURANCE.writes_per_cell())
}

/// Energy-delay product of `collector` relative to `baseline` within one
/// comparison row (0.0 when the baseline's EDP is zero).
pub(crate) fn edp_relative(
    results: &[Arc<ExperimentResult>],
    benchmark: &str,
    collector: &str,
    baseline: &str,
) -> f64 {
    let base = result_for(results, benchmark, baseline).edp;
    if base == 0.0 {
        return 0.0;
    }
    result_for(results, benchmark, collector).edp / base
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as the header).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let mut line = String::new();
        for (i, header) in self.header.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", header, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate().take(columns) {
                line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio as e.g. "0.19".
pub fn ratio(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats a percentage as e.g. "81%".
pub fn percent(value: f64) -> String {
    format!("{:.0}%", value * 100.0)
}

/// Geometric-mean helper used for "Average" rows (the paper averages ratios).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

// ---------------------------------------------------------------------------
// Telemetry summary lines and pause columns
// ---------------------------------------------------------------------------

/// GC pause count of one run's telemetry, rendered for a table cell
/// ("n/a" when the run carried no telemetry). The count is deterministic:
/// one histogram sample per collection.
pub fn pause_count_cell(result: &ExperimentResult) -> String {
    pause_count_cell_of(result.telemetry.as_ref())
}

/// [`pause_count_cell`] over a bare telemetry report (for drivers holding a
/// [`kingsguard::RunReport`] instead of an [`ExperimentResult`]).
pub fn pause_count_cell_of(telemetry: Option<&telemetry::TelemetryReport>) -> String {
    match telemetry {
        Some(report) => report
            .hist("gc.pause_ns")
            .map_or(0, |hist| hist.count)
            .to_string(),
        None => "n/a".to_string(),
    }
}

/// Maximum GC pause of one run's telemetry, rendered for a table cell
/// ("n/a" when the run carried no telemetry, "-" when it never collected).
/// The duration is wall-clock timing: informative, not deterministic.
pub fn max_pause_cell(result: &ExperimentResult) -> String {
    max_pause_cell_of(result.telemetry.as_ref())
}

/// [`max_pause_cell`] over a bare telemetry report.
pub fn max_pause_cell_of(telemetry: Option<&telemetry::TelemetryReport>) -> String {
    match telemetry {
        Some(report) => match report.hist("gc.pause_ns") {
            Some(hist) if hist.count > 0 => telemetry::fmt_ns(hist.max),
            _ => "-".to_string(),
        },
        None => "n/a".to_string(),
    }
}

/// Accumulates the telemetry of every run behind one experiment table into
/// the end-of-run summary line. The figure experiments derive their rows
/// from transient [`ExperimentResult`]s; each row absorbs its runs into a
/// rollup so the summary survives the results being dropped.
#[derive(Clone, Debug, Default)]
pub struct TelemetryRollup {
    runs: usize,
    pauses: telemetry::HistogramSummary,
    touch_events: u64,
    elapsed_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl TelemetryRollup {
    /// The rollup of `results`.
    pub(crate) fn of<R: AsRef<ExperimentResult>>(results: impl IntoIterator<Item = R>) -> Self {
        let mut rollup = Self::default();
        for result in results {
            rollup.absorb(result.as_ref());
        }
        rollup
    }

    /// Folds one run's telemetry in (a run without telemetry is skipped).
    pub fn absorb(&mut self, result: &ExperimentResult) {
        let Some(report) = result.telemetry.as_ref() else {
            return;
        };
        self.runs += 1;
        if let Some(hist) = report.hist("gc.pause_ns") {
            self.pauses.merge(hist);
        }
        self.touch_events += report.counter("touch.events").unwrap_or(0);
        self.cache_hits += report.counter("cache.hits").unwrap_or(0);
        self.cache_misses += report.counter("cache.misses").unwrap_or(0);
        self.elapsed_ns += report.elapsed_ns;
    }

    /// Folds another rollup in (for per-row rollups fanned over
    /// [`crate::runner::run_jobs`] worker threads).
    pub fn merge(&mut self, other: &TelemetryRollup) {
        self.runs += other.runs;
        self.pauses.merge(&other.pauses);
        self.touch_events += other.touch_events;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.elapsed_ns += other.elapsed_ns;
    }

    /// The summary line: GC pauses (count, p50/p99, max), touch-path
    /// throughput and cache hit rate ("n/a" without caches, e.g. in
    /// architecture-independent mode). `None` when no run carried telemetry.
    pub fn line(&self) -> Option<String> {
        if self.runs == 0 {
            return None;
        }
        let mut line = format!(
            "telemetry ({} runs): {} GC pauses (p50 {}, p99 {}, max {})",
            self.runs,
            self.pauses.count,
            telemetry::fmt_ns(self.pauses.p50),
            telemetry::fmt_ns(self.pauses.p99),
            telemetry::fmt_ns(self.pauses.max),
        );
        if self.elapsed_ns > 0 {
            let events_per_sec = self.touch_events as f64 / (self.elapsed_ns as f64 / 1e9);
            line.push_str(&format!(", {:.2} M events/s", events_per_sec / 1e6));
        }
        let cached = self.cache_hits + self.cache_misses;
        if cached > 0 {
            line.push_str(&format!(
                ", cache hit rate {}",
                percent(self.cache_hits as f64 / cached as f64)
            ));
        } else {
            line.push_str(", cache hit rate n/a");
        }
        Some(line)
    }

    /// [`TelemetryRollup::line`] with a trailing newline, or the empty
    /// string — ready to append to a rendered table.
    pub fn appendix(&self) -> String {
        match self.line() {
            Some(line) => format!("{line}\n"),
            None => String::new(),
        }
    }
}

/// Splits `(row, rollup)` pairs produced by a fanned per-benchmark closure
/// into the row list and the table-wide rollup.
pub(crate) fn collect_rows<R>(pairs: Vec<(R, TelemetryRollup)>) -> (Vec<R>, TelemetryRollup) {
    let mut rollup = TelemetryRollup::default();
    let rows = pairs
        .into_iter()
        .map(|(row, r)| {
            rollup.merge(&r);
            row
        })
        .collect();
    (rows, rollup)
}

/// The end-of-run telemetry summary over retained results (see
/// [`TelemetryRollup`] for the accumulating form).
pub fn telemetry_summary<R: AsRef<ExperimentResult>>(results: impl IntoIterator<Item = R>) -> Option<String> {
    TelemetryRollup::of(results).line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new("Demo", &["name", "value"]);
        table.row(vec!["a".into(), "1".into()]);
        table.row(vec!["longer-name".into(), "2".into()]);
        let text = table.render();
        assert!(text.contains("Demo"));
        assert!(text.contains("longer-name"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        // Header line and separator present.
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(0.191), "0.19");
        assert_eq!(percent(0.81), "81%");
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    /// A bare result carrying only the given telemetry report, for pinning
    /// the formatting of the pause columns and summary lines.
    fn result_with_telemetry(telemetry: Option<telemetry::TelemetryReport>) -> ExperimentResult {
        ExperimentResult {
            benchmark: "demo".to_string(),
            collector: "KG-W".to_string(),
            gc: Default::default(),
            memory: Default::default(),
            time: Default::default(),
            energy: Default::default(),
            edp: 0.0,
            wp: None,
            scaling_factor: 1.0,
            site_profile: None,
            telemetry,
            years_to_uncorrectable: None,
        }
    }

    fn report_with_pauses(pauses_ns: &[u64]) -> telemetry::TelemetryReport {
        let mut t = telemetry::Telemetry::enabled();
        for &pause in pauses_ns {
            t.record("gc.pause_ns", pause);
        }
        t.counter_set("touch.events", 1_000);
        t.counter_set("cache.hits", 75);
        t.counter_set("cache.misses", 25);
        let mut report = t.report().expect("enabled telemetry reports");
        report.elapsed_ns = 2_000_000_000; // pin: timing is not deterministic
        report
    }

    #[test]
    fn pause_cells_are_golden() {
        let run = result_with_telemetry(Some(report_with_pauses(&[1_000, 3_000_000, 2_000])));
        assert_eq!(pause_count_cell(&run), "3");
        assert_eq!(max_pause_cell(&run), "3.0ms");

        let idle = result_with_telemetry(Some(report_with_pauses(&[])));
        assert_eq!(pause_count_cell(&idle), "0");
        assert_eq!(max_pause_cell(&idle), "-");

        let dark = result_with_telemetry(None);
        assert_eq!(pause_count_cell(&dark), "n/a");
        assert_eq!(max_pause_cell(&dark), "n/a");
    }

    #[test]
    fn telemetry_summary_line_is_golden() {
        let runs = [
            result_with_telemetry(Some(report_with_pauses(&[1_000, 3_000_000, 2_000]))),
            result_with_telemetry(Some(report_with_pauses(&[500_000]))),
        ];
        let line = telemetry_summary(runs.iter()).expect("telemetry present");
        // 2 runs, 4 pauses, 500 events/s over 2+2 pinned seconds, 75% hits.
        assert_eq!(
            line,
            "telemetry (2 runs): 4 GC pauses (p50 2.0us, p99 3.0ms, max 3.0ms), \
             0.00 M events/s, cache hit rate 75%"
        );
        assert!(telemetry_summary(std::iter::empty::<ExperimentResult>()).is_none());
        assert!(telemetry_summary([result_with_telemetry(None)].iter()).is_none());
    }
}
