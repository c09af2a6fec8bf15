//! Deterministic PCM fault injection: line wear-out, transient flips and
//! page retirement.
//!
//! The lifetime model of [`crate::lifetime`] is optimistic by construction —
//! it assumes ideal wear-leveling and reduces endurance to one scalar "years
//! of lifetime", so nothing in the simulator ever actually *fails*. This
//! module makes failure a first-class, deterministic event:
//!
//! * every PCM line draws an **endurance budget** around the configured
//!   [`Endurance`] level (a pure hash of `(seed, line)`, so the schedule is
//!   independent of the order lines are examined in),
//! * a line whose device-level write count exceeds its budget is **failed**
//!   permanently,
//! * a page accumulating more failed lines than the ECC can correct becomes
//!   **uncorrectable** and must be retired (remapped to spare capacity —
//!   modeled as DRAM — after its live contents have been evacuated),
//! * optional **transient bit flips** fire at a deterministic per-line
//!   cadence; the ECC corrects them, so they are counted, not fatal.
//!
//! Everything is a pure function of the seed and the observed per-line write
//! counts: two runs with the same seed and the same write history produce a
//! bit-identical fault and retirement schedule, which is what keeps
//! record/replay traces and `repro metrics diff` drift-free under injected
//! faults.

use std::collections::{BTreeMap, BTreeSet};

use crate::address::{LINE_SIZE, PAGE_SIZE};
use crate::lifetime::{Endurance, SECONDS_PER_YEAR};

/// Number of PCM lines per OS page (4 KB / 256 B = 16).
pub const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

/// Configuration of the deterministic fault model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Recorded in `.kgtrace` provenance so a
    /// replay reproduces the exact same failures.
    pub seed: u64,
    /// Endurance level the per-line budgets are drawn around.
    pub endurance: Endurance,
    /// Wear acceleration: every observed device write ages its line by this
    /// many physical writes. `1` is real time (no run ever lives long enough
    /// to wear a line out); large values compress decades of wear into a
    /// seconds-long run so retirement paths are exercised. Reported
    /// years-to-failure figures always divide the acceleration back out.
    pub wear_multiplier: u64,
    /// Failed lines per page the ECC can still correct; one more and the
    /// page is uncorrectable and must be retired.
    pub ecc_correctable_lines: u32,
    /// Base period (in line writes) between transient bit flips on one line;
    /// `0` disables transient faults. The per-line period is jittered by the
    /// seed like the endurance budgets.
    pub transient_period: u64,
}

impl FaultConfig {
    /// Real-time fault model: budgets around `endurance`, no acceleration,
    /// a typical ECC strength of 4 correctable lines, transients off.
    pub fn new(seed: u64, endurance: Endurance) -> Self {
        FaultConfig {
            seed,
            endurance,
            wear_multiplier: 1,
            ecc_correctable_lines: 4,
            transient_period: 0,
        }
    }

    /// Accelerated wear for in-run failure: one device write ages a line by
    /// `endurance / 2^14` physical writes, so lines written a few dozen
    /// times during a run reach their budget and the retirement machinery
    /// actually runs.
    pub fn accelerated(seed: u64, endurance: Endurance) -> Self {
        FaultConfig {
            wear_multiplier: (endurance.writes_per_cell() >> 14).max(1),
            ..FaultConfig::new(seed, endurance)
        }
    }

    /// Same schedule with a different wear acceleration.
    pub fn with_wear_multiplier(mut self, multiplier: u64) -> Self {
        self.wear_multiplier = multiplier.max(1);
        self
    }

    /// Same schedule with transient bit flips every ~`period` line writes.
    pub fn with_transient_period(mut self, period: u64) -> Self {
        self.transient_period = period;
        self
    }

    /// The wear-out budget of `line` in physical writes: a deterministic
    /// draw from `[E/2, 3E/2)` around the endurance level `E`. A pure
    /// function of `(seed, line)`, so budgets do not depend on the order in
    /// which lines are examined.
    pub fn line_budget(&self, line: u64) -> u64 {
        let wpc = self.endurance.writes_per_cell();
        wpc / 2 + mix(self.seed ^ line.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % wpc
    }

    /// The jittered transient-flip period of `line` (`None` when transient
    /// faults are disabled).
    fn line_transient_period(&self, line: u64) -> Option<u64> {
        if self.transient_period == 0 {
            return None;
        }
        let base = self.transient_period;
        Some((base / 2 + mix(self.seed ^ !line.wrapping_mul(0xbf58_476d_1ce4_e5b9)) % base).max(1))
    }
}

/// One fault-model event produced by [`FaultModel::pump`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A line's accumulated (accelerated) writes exceeded its endurance
    /// budget; the line is failed permanently.
    LineFailed {
        /// Global line index (address / 256).
        line: u64,
        /// Page containing the line.
        page: u64,
        /// Device write count observed when the line failed.
        writes: u64,
        /// The line's endurance budget in physical writes.
        budget: u64,
    },
    /// Transient (ECC-corrected) bit flips on a line since the last pump.
    TransientFlips {
        /// Global line index.
        line: u64,
        /// Page containing the line.
        page: u64,
        /// Number of flips newly credited.
        count: u64,
    },
    /// A page's failed-line count exceeded the ECC-correctable threshold:
    /// it is uncorrectable and must be retired (evacuated and remapped).
    PageUncorrectable {
        /// Page id (address / 4096).
        page: u64,
        /// Failed lines on the page when it crossed the threshold.
        failed_lines: u32,
    },
}

/// Deterministic fault state: which lines have failed, which pages have been
/// retired, and how many transient flips the ECC has absorbed.
#[derive(Clone, Debug)]
pub struct FaultModel {
    config: FaultConfig,
    failed_lines: BTreeSet<u64>,
    failed_per_page: BTreeMap<u64, u32>,
    retired_pages: BTreeSet<u64>,
    transient_credited: BTreeMap<u64, u64>,
    transient_faults: u64,
}

impl FaultModel {
    /// Creates an un-worn fault model.
    pub fn new(config: FaultConfig) -> Self {
        FaultModel {
            config,
            failed_lines: BTreeSet::new(),
            failed_per_page: BTreeMap::new(),
            retired_pages: BTreeSet::new(),
            transient_credited: BTreeMap::new(),
            transient_faults: 0,
        }
    }

    /// The configuration this model runs under.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Advances the fault schedule against the current per-line device write
    /// counts (`(line, writes)` pairs for *mapped PCM* lines; the caller
    /// sorts them by line id so event order is deterministic). Returns the
    /// newly fired events; pages reported [`FaultEvent::PageUncorrectable`]
    /// must be retired by the caller via [`FaultModel::mark_page_retired`]
    /// once their live contents are safe.
    pub fn pump(&mut self, line_writes: &[(u64, u64)]) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for &(line, writes) in line_writes {
            let page = line / LINES_PER_PAGE;
            if writes == 0 || self.retired_pages.contains(&page) {
                continue;
            }
            if let Some(period) = self.config.line_transient_period(line) {
                let credit = writes / period;
                let seen = self.transient_credited.entry(line).or_insert(0);
                if credit > *seen {
                    let count = credit - *seen;
                    *seen = credit;
                    self.transient_faults += count;
                    events.push(FaultEvent::TransientFlips { line, page, count });
                }
            }
            if self.failed_lines.contains(&line) {
                continue;
            }
            let budget = self.config.line_budget(line);
            let aged = writes.saturating_mul(self.config.wear_multiplier);
            if aged < budget {
                continue;
            }
            self.failed_lines.insert(line);
            events.push(FaultEvent::LineFailed {
                line,
                page,
                writes,
                budget,
            });
            let failed = self.failed_per_page.entry(page).or_insert(0);
            *failed += 1;
            if *failed == self.config.ecc_correctable_lines + 1 {
                events.push(FaultEvent::PageUncorrectable {
                    page,
                    failed_lines: *failed,
                });
            }
        }
        events
    }

    /// Marks `page` retired: its lines stop aging and it never reports
    /// uncorrectable again. The caller is responsible for evacuating and
    /// remapping the page.
    pub fn mark_page_retired(&mut self, page: u64) {
        self.retired_pages.insert(page);
    }

    /// Number of permanently failed lines.
    pub fn failed_line_count(&self) -> u64 {
        self.failed_lines.len() as u64
    }

    /// Number of retired pages.
    pub fn retired_page_count(&self) -> u64 {
        self.retired_pages.len() as u64
    }

    /// PCM capacity lost to retired pages, in bytes.
    pub fn degraded_bytes(&self) -> u64 {
        self.retired_page_count() * PAGE_SIZE as u64
    }

    /// Transient (ECC-corrected) faults absorbed so far.
    pub fn transient_fault_count(&self) -> u64 {
        self.transient_faults
    }

    /// The retired pages in ascending order.
    pub fn retired_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.retired_pages.iter().copied()
    }
}

/// Analytic years until the first page becomes uncorrectable, assuming each
/// line keeps its observed write rate (`writes / elapsed_s`, *without* wear
/// acceleration — this is the real-time projection). A page fails when its
/// `ecc_correctable_lines + 1`-th line exceeds its budget; the system fails
/// with its first page. Returns `None` when no page would ever fail (too few
/// written lines per page, or no writes at all).
pub fn years_to_first_uncorrectable(
    config: &FaultConfig,
    line_writes: &[(u64, u64)],
    elapsed_s: f64,
) -> Option<f64> {
    if elapsed_s <= 0.0 {
        return None;
    }
    let mut per_page: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(line, writes) in line_writes {
        if writes == 0 {
            continue;
        }
        let rate = writes as f64 / elapsed_s;
        let years = config.line_budget(line) as f64 / (rate * SECONDS_PER_YEAR);
        per_page.entry(line / LINES_PER_PAGE).or_default().push(years);
    }
    let fatal_rank = config.ecc_correctable_lines as usize; // 0-indexed (ecc+1)-th
    per_page
        .values_mut()
        .filter(|lines| lines.len() > fatal_rank)
        .map(|lines| {
            lines.sort_by(|a, b| a.partial_cmp(b).expect("finite years"));
            lines[fatal_rank]
        })
        .min_by(|a, b| a.partial_cmp(b).expect("finite years"))
}

/// splitmix64 finalizer: the workspace's standard bit mixer (see `sim-rng`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accelerated() -> FaultConfig {
        FaultConfig::accelerated(42, Endurance::Mid30M)
    }

    #[test]
    fn budgets_are_seeded_and_bounded() {
        let config = FaultConfig::new(7, Endurance::Mid30M);
        let other = FaultConfig::new(8, Endurance::Mid30M);
        let wpc = Endurance::Mid30M.writes_per_cell();
        let mut differs = false;
        for line in 0..1000 {
            let budget = config.line_budget(line);
            assert!(budget >= wpc / 2 && budget < wpc / 2 + wpc);
            assert_eq!(budget, config.line_budget(line), "budget is pure");
            differs |= budget != other.line_budget(line);
        }
        assert!(differs, "different seeds draw different budgets");
    }

    #[test]
    fn pump_is_order_independent() {
        let lines: Vec<(u64, u64)> = (0..64).map(|l| (l, 1 + l * 37)).collect();
        let mut forward = FaultModel::new(accelerated());
        let mut forward_events = forward.pump(&lines);
        let mut reversed: Vec<_> = lines.iter().rev().copied().collect();
        reversed.reverse(); // back to sorted: the caller contract
        let mut backward = FaultModel::new(accelerated());
        let mut backward_events = backward.pump(&reversed);
        forward_events.sort_by_key(|e| format!("{e:?}"));
        backward_events.sort_by_key(|e| format!("{e:?}"));
        assert_eq!(forward_events, backward_events);
        assert_eq!(forward.failed_line_count(), backward.failed_line_count());
    }

    #[test]
    fn lines_fail_once_and_pages_retire_past_ecc() {
        let config = FaultConfig {
            ecc_correctable_lines: 1,
            ..accelerated()
        };
        let mut model = FaultModel::new(config);
        // Write every line of page 0 far past any budget.
        let writes: Vec<(u64, u64)> = (0..LINES_PER_PAGE).map(|l| (l, u64::MAX / 2)).collect();
        let events = model.pump(&writes);
        let failed = events
            .iter()
            .filter(|e| matches!(e, FaultEvent::LineFailed { .. }))
            .count();
        assert_eq!(failed as u64, LINES_PER_PAGE);
        let uncorrectable: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, FaultEvent::PageUncorrectable { .. }))
            .collect();
        assert_eq!(uncorrectable.len(), 1, "threshold crossing fires once");
        assert!(matches!(
            uncorrectable[0],
            FaultEvent::PageUncorrectable {
                page: 0,
                failed_lines: 2
            }
        ));
        // A second pump with the same counts is quiescent.
        assert!(model.pump(&writes).is_empty());
        // Retirement silences the page entirely.
        model.mark_page_retired(0);
        assert_eq!(model.degraded_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    fn transient_flips_are_counted_not_fatal() {
        let config = FaultConfig::new(3, Endurance::High100M).with_transient_period(100);
        let mut model = FaultModel::new(config);
        let events = model.pump(&[(5, 1_000)]);
        assert!(events
            .iter()
            .all(|e| matches!(e, FaultEvent::TransientFlips { .. })));
        let first = model.transient_fault_count();
        assert!(first > 0, "1000 writes at period ~100 must flip");
        // Re-pumping with the same count credits nothing new.
        assert!(model.pump(&[(5, 1_000)]).is_empty());
        assert_eq!(model.transient_fault_count(), first);
        // More writes credit more flips, and no line ever fails.
        model.pump(&[(5, 10_000)]);
        assert!(model.transient_fault_count() > first);
        assert_eq!(model.failed_line_count(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let lines: Vec<(u64, u64)> = (0..256).map(|l| (l * 3, (l % 40) * 1_000)).collect();
        let mut a = FaultModel::new(accelerated().with_transient_period(64));
        let mut b = FaultModel::new(accelerated().with_transient_period(64));
        assert_eq!(a.pump(&lines), b.pump(&lines));
        assert_eq!(a.failed_line_count(), b.failed_line_count());
        assert_eq!(a.transient_fault_count(), b.transient_fault_count());
    }

    #[test]
    fn years_projection_picks_first_fatal_page() {
        let config = FaultConfig {
            ecc_correctable_lines: 0,
            ..FaultConfig::new(1, Endurance::Mid30M)
        };
        // Page 0: one hot line. Page 1: one far hotter line.
        let writes = vec![(0u64, 1_000u64), (LINES_PER_PAGE, 100_000)];
        let years = years_to_first_uncorrectable(&config, &writes, 10.0).expect("fails eventually");
        let hot_rate = 100_000.0 / 10.0;
        let expected = config.line_budget(LINES_PER_PAGE) as f64 / (hot_rate * SECONDS_PER_YEAR);
        assert!((years - expected).abs() / expected < 1e-12);
        // With ECC strength 1 no page has two written lines: never fails.
        let strong = FaultConfig {
            ecc_correctable_lines: 1,
            ..config
        };
        assert!(years_to_first_uncorrectable(&strong, &writes, 10.0).is_none());
        // No writes or no elapsed time: never fails.
        assert!(years_to_first_uncorrectable(&config, &[], 10.0).is_none());
        assert!(years_to_first_uncorrectable(&config, &writes, 0.0).is_none());
    }

    #[test]
    fn acceleration_divides_out_of_projection() {
        let real = FaultConfig {
            ecc_correctable_lines: 0,
            ..FaultConfig::new(9, Endurance::Low10M)
        };
        let fast = real.with_wear_multiplier(1 << 20);
        let writes = vec![(7u64, 500u64)];
        let a = years_to_first_uncorrectable(&real, &writes, 2.0);
        let b = years_to_first_uncorrectable(&fast, &writes, 2.0);
        assert_eq!(a, b, "projection ignores the acceleration knob");
    }
}
