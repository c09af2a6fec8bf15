//! Sampled hot-path profiler for the simulated memory system.
//!
//! The ROADMAP's hot-path overhaul needs *component-level* attribution of
//! where `MemorySystem::touch` spends its time: the page-map lookup, the
//! cache model, the controller's line bookkeeping, the byte-level backing
//! store and the per-line wear tracking. Timing every touch would dwarf the
//! work being measured, so the profiler samples: every touch is **counted**
//! (cheap per-stage event tallies, batched into one call per touch), and
//! every Nth touch is **timed** stage by stage. Per-stage self time is then
//! extrapolated from the sampled population — `sampled_ns × events /
//! sampled_events` — which is exact when cost per event is uniform and
//! converges quickly in practice because touches are numerous and
//! homogeneous.
//!
//! Like [`crate::Telemetry`], a disabled profiler is one `Option`
//! discriminant branch per touch and records nothing, so the simulation is
//! bit-identical with the profiler on or off: the profiler only *observes*
//! host time, it never feeds back into simulated state.

use std::fmt;
use std::time::Instant;

/// Number of instrumented stages.
pub const STAGE_COUNT: usize = 5;

/// Default sampling cadence: one timed touch per 512. A simulated touch
/// costs a few tens of nanoseconds, so the `Instant::now()` brackets of a
/// sampled touch are several times the touch itself — at 1/64 they alone
/// cost ~9% of a touch-bound run. At 1/512 the timed population is still
/// statistically dense (thousands of samples on any realistic run) while
/// sampling cost drops to ~1%, keeping the whole profiler under the 10%
/// bar the `telemetry` bench pins.
pub const DEFAULT_SAMPLE_EVERY: u64 = 512;

/// One component of the memory-system hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Page-map lookups (address → placement info).
    PageMap = 0,
    /// The cache hierarchy model (hit/miss/eviction simulation).
    CacheModel = 1,
    /// Controller counter bookkeeping (per-kind/phase/page tallies).
    LineBookkeeping = 2,
    /// The byte-level backing store (actual data movement).
    BackingStore = 3,
    /// Per-cache-line wear tracking (optional; feeds the fault model).
    WearTracking = 4,
}

impl Stage {
    /// All stages in index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::PageMap,
        Stage::CacheModel,
        Stage::LineBookkeeping,
        Stage::BackingStore,
        Stage::WearTracking,
    ];

    /// Human-readable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::PageMap => "page-map",
            Stage::CacheModel => "cache-model",
            Stage::LineBookkeeping => "line-bookkeeping",
            Stage::BackingStore => "backing-store",
            Stage::WearTracking => "wear-tracking",
        }
    }

    /// Dotted span name under which the stage lands in `.kgmetrics` files
    /// (children of the synthetic `touch` parent span).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::PageMap => "touch.page_map",
            Stage::CacheModel => "touch.cache",
            Stage::LineBookkeeping => "touch.bookkeeping",
            Stage::BackingStore => "touch.backing",
            Stage::WearTracking => "touch.wear",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the instrumented hot path should do for the touch in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchMode {
    /// Profiler disabled: run the uninstrumented fast path.
    Off,
    /// Count per-stage events locally, no clocks.
    Counting,
    /// Count *and* time each stage with `Instant::now()` pairs.
    Sampled,
}

/// Per-stage event counts and (when sampled) nanoseconds, accumulated
/// locally by the hot path and handed to the profiler once per touch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Events per stage, indexed by [`Stage`].
    pub events: [u64; STAGE_COUNT],
    /// Sampled nanoseconds per stage, indexed by [`Stage`].
    pub ns: [u64; STAGE_COUNT],
}

impl StageTotals {
    /// Adds `events` untimed events to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, events: u64) {
        self.events[stage as usize] += events;
    }

    /// Adds `events` timed events taking `ns` nanoseconds to `stage`.
    #[inline]
    pub fn add_timed(&mut self, stage: Stage, events: u64, ns: u64) {
        self.events[stage as usize] += events;
        self.ns[stage as usize] += ns;
    }
}

/// How the hot path reports its stages. The touch loop is written once,
/// generic over the sink; each [`TouchMode`] has one instantiation and the
/// [`Unprofiled`] one compiles to the bare loop.
pub trait StageSink {
    /// Runs `work` as one event of `stage`.
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R;
}

/// The sink of [`TouchMode::Off`]: runs the work and records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unprofiled;

impl StageSink for Unprofiled {
    #[inline(always)]
    fn stage<R>(&mut self, _stage: Stage, work: impl FnOnce() -> R) -> R {
        work()
    }
}

/// The sink of [`TouchMode::Counting`]: tallies one event per stage run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counted(pub StageTotals);

impl StageSink for Counted {
    #[inline(always)]
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R {
        self.0.add(stage, 1);
        work()
    }
}

/// The sink of [`TouchMode::Sampled`]: tallies each stage run and brackets
/// it with `Instant::now()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed(pub StageTotals);

impl StageSink for Timed {
    #[inline]
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = work();
        self.0.add_timed(stage, 1, start.elapsed().as_nanos() as u64);
        result
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct StageAgg {
    events: u64,
    sampled_events: u64,
    sampled_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct PhaseAgg {
    touches: u64,
    sampled_touches: u64,
    sampled_ns: u64,
}

struct ProfilerInner {
    sample_every: u64,
    /// Touches left before the next sampled one (a countdown instead of a
    /// modulo keeps the per-touch cost to a decrement and a compare).
    until_sample: u64,
    /// Phase of the most recent sampled touch; backing-store timing issued
    /// by the access wrappers right after the touch attributes here.
    current_phase: usize,
    stages: [StageAgg; STAGE_COUNT],
    phases: Vec<PhaseAgg>,
}

/// The sampling profiler handle. Disabled by default; [`begin_touch`]
/// costs one branch when disabled.
///
/// [`begin_touch`]: TouchProfiler::begin_touch
#[derive(Default)]
pub struct TouchProfiler {
    inner: Option<Box<ProfilerInner>>,
}

impl TouchProfiler {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        TouchProfiler { inner: None }
    }

    /// A recording handle timing every `sample_every`-th touch (clamped to
    /// ≥ 1) across `phase_count` execution phases.
    pub fn enabled(sample_every: u64, phase_count: usize) -> Self {
        TouchProfiler {
            inner: Some(Box::new(ProfilerInner {
                sample_every: sample_every.max(1),
                until_sample: sample_every.max(1) - 1,
                current_phase: 0,
                stages: [StageAgg::default(); STAGE_COUNT],
                phases: vec![PhaseAgg::default(); phase_count.max(1)],
            })),
        }
    }

    /// `true` if this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling cadence, when enabled.
    pub fn sample_every(&self) -> Option<u64> {
        self.inner.as_ref().map(|inner| inner.sample_every)
    }

    /// Registers the start of one touch performed by `phase` (an index into
    /// the phase table) and decides how the hot path should instrument it.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is outside the `phase_count` the profiler was
    /// enabled with.
    #[inline]
    pub fn begin_touch(&mut self, phase: usize) -> TouchMode {
        let Some(inner) = self.inner.as_mut() else {
            return TouchMode::Off;
        };
        let agg = &mut inner.phases[phase];
        agg.touches += 1;
        if inner.until_sample == 0 {
            inner.until_sample = inner.sample_every - 1;
            agg.sampled_touches += 1;
            inner.current_phase = phase;
            TouchMode::Sampled
        } else {
            inner.until_sample -= 1;
            TouchMode::Counting
        }
    }

    /// Absorbs the per-stage totals of one touch. `sampled` must be `true`
    /// exactly when [`Self::begin_touch`] returned [`TouchMode::Sampled`]
    /// (the `ns` fields are only meaningful then).
    #[inline]
    pub fn finish_touch(&mut self, totals: &StageTotals, sampled: bool) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        if sampled {
            let mut touch_ns = 0u64;
            for i in 0..STAGE_COUNT {
                let stage = &mut inner.stages[i];
                stage.events += totals.events[i];
                stage.sampled_events += totals.events[i];
                stage.sampled_ns += totals.ns[i];
                touch_ns += totals.ns[i];
            }
            inner.phases[inner.current_phase].sampled_ns += touch_ns;
        } else {
            for i in 0..STAGE_COUNT {
                inner.stages[i].events += totals.events[i];
            }
        }
    }

    /// Records a backing-store operation issued outside the touch loop (the
    /// access wrappers hit the backing store after accounting the touch).
    /// `ns` is `Some` when the preceding touch was sampled and the wrapper
    /// timed the operation; the time attributes to the sampled touch's
    /// phase.
    #[inline]
    pub fn backing_op(&mut self, events: u64, ns: Option<u64>) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let stage = &mut inner.stages[Stage::BackingStore as usize];
        stage.events += events;
        if let Some(ns) = ns {
            stage.sampled_events += events;
            stage.sampled_ns += ns;
            inner.phases[inner.current_phase].sampled_ns += ns;
        }
    }

    /// Snapshots the profile so far; `None` when disabled.
    pub fn profile(&self) -> Option<TouchProfile> {
        let inner = self.inner.as_ref()?;
        Some(TouchProfile {
            sample_every: inner.sample_every,
            touches: inner.phases.iter().map(|p| p.touches).sum(),
            sampled_touches: inner.phases.iter().map(|p| p.sampled_touches).sum(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let agg = &inner.stages[stage as usize];
                    StageProfile {
                        stage,
                        events: agg.events,
                        sampled_events: agg.sampled_events,
                        sampled_ns: agg.sampled_ns,
                    }
                })
                .collect(),
            phases: inner
                .phases
                .iter()
                .enumerate()
                .map(|(phase, agg)| PhaseProfile {
                    phase,
                    touches: agg.touches,
                    sampled_touches: agg.sampled_touches,
                    sampled_ns: agg.sampled_ns,
                })
                .collect(),
        })
    }
}

impl fmt::Debug for TouchProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TouchProfiler")
            .field(&if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

/// Linear extrapolation from the sampled population to the full one.
fn extrapolate(sampled_ns: u64, total: u64, sampled: u64) -> u64 {
    if sampled == 0 || total == 0 {
        return 0;
    }
    (sampled_ns as f64 * total as f64 / sampled as f64) as u64
}

/// One stage's aggregate: exact event counts plus sampled timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// Which stage.
    pub stage: Stage,
    /// Exact event count (every touch counts, sampled or not).
    pub events: u64,
    /// Events belonging to sampled (timed) touches.
    pub sampled_events: u64,
    /// Measured nanoseconds across the sampled events.
    pub sampled_ns: u64,
}

impl StageProfile {
    /// Estimated self time across *all* events, extrapolated from the
    /// sampled population.
    pub fn estimated_self_ns(&self) -> u64 {
        extrapolate(self.sampled_ns, self.events, self.sampled_events)
    }
}

/// One phase's aggregate: how many touches it issued and the sampled time
/// they spent in the memory system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase index (the caller's phase table; the heap maps these to
    /// labels).
    pub phase: usize,
    /// Exact touch count.
    pub touches: u64,
    /// Touches that were timed.
    pub sampled_touches: u64,
    /// Measured nanoseconds across the sampled touches.
    pub sampled_ns: u64,
}

impl PhaseProfile {
    /// Estimated memory-system time spent on behalf of this phase.
    pub fn estimated_ns(&self) -> u64 {
        extrapolate(self.sampled_ns, self.touches, self.sampled_touches)
    }
}

/// End-of-run snapshot of the profiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TouchProfile {
    /// Sampling cadence the profile was taken at.
    pub sample_every: u64,
    /// Total touches observed.
    pub touches: u64,
    /// Touches that were timed.
    pub sampled_touches: u64,
    /// Per-stage aggregates, in [`Stage::ALL`] order.
    pub stages: Vec<StageProfile>,
    /// Per-phase aggregates, in phase-index order.
    pub phases: Vec<PhaseProfile>,
}

impl TouchProfile {
    /// Sum of the per-stage extrapolated self times.
    pub fn estimated_total_ns(&self) -> u64 {
        self.stages.iter().map(StageProfile::estimated_self_ns).sum()
    }

    /// Total events across all stages (exact).
    pub fn total_events(&self) -> u64 {
        self.stages.iter().map(|s| s.events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = TouchProfiler::disabled();
        assert_eq!(p.begin_touch(0), TouchMode::Off);
        let mut totals = StageTotals::default();
        totals.add(Stage::CacheModel, 5);
        p.finish_touch(&totals, false);
        p.backing_op(1, Some(10));
        assert!(!p.is_enabled());
        assert_eq!(p.sample_every(), None);
        assert!(p.profile().is_none());
        assert_eq!(format!("{p:?}"), "TouchProfiler(\"disabled\")");
    }

    #[test]
    fn sampling_cadence_times_every_nth_touch() {
        let mut p = TouchProfiler::enabled(4, 2);
        let mut sampled = 0;
        for i in 1..=16 {
            let mode = p.begin_touch(i % 2);
            if mode == TouchMode::Sampled {
                sampled += 1;
                assert_eq!(i % 4, 0, "touch {i} sampled off-cadence");
            }
            let mut totals = StageTotals::default();
            totals.add_timed(
                Stage::CacheModel,
                1,
                if mode == TouchMode::Sampled { 100 } else { 0 },
            );
            p.finish_touch(&totals, mode == TouchMode::Sampled);
        }
        assert_eq!(sampled, 4);
        let profile = p.profile().unwrap();
        assert_eq!(profile.sample_every, 4);
        assert_eq!(profile.touches, 16);
        assert_eq!(profile.sampled_touches, 4);
        let cache = &profile.stages[Stage::CacheModel as usize];
        assert_eq!(cache.events, 16);
        assert_eq!(cache.sampled_events, 4);
        assert_eq!(cache.sampled_ns, 400);
        // 400 ns over 4 sampled events, extrapolated to 16 events.
        assert_eq!(cache.estimated_self_ns(), 1_600);
        assert_eq!(profile.estimated_total_ns(), 1_600);
        assert_eq!(profile.total_events(), 16);
        // Touches alternated between the two phases.
        assert_eq!(profile.phases.len(), 2);
        assert_eq!(profile.phases[0].touches, 8);
        assert_eq!(profile.phases[1].touches, 8);
        // Every 4th touch had phase index (i % 2) == 0.
        assert_eq!(profile.phases[0].sampled_touches, 4);
        assert_eq!(profile.phases[0].sampled_ns, 400);
        assert_eq!(profile.phases[0].estimated_ns(), 800);
        assert_eq!(profile.phases[1].sampled_touches, 0);
        assert_eq!(profile.phases[1].estimated_ns(), 0);
    }

    #[test]
    fn backing_ops_attribute_to_the_sampled_phase() {
        let mut p = TouchProfiler::enabled(1, 3);
        assert_eq!(p.begin_touch(2), TouchMode::Sampled);
        let mut totals = StageTotals::default();
        totals.add_timed(Stage::PageMap, 2, 50);
        p.finish_touch(&totals, true);
        p.backing_op(1, Some(30));
        // An untimed backing op (counting-mode touch) still counts events.
        p.backing_op(1, None);
        let profile = p.profile().unwrap();
        let backing = &profile.stages[Stage::BackingStore as usize];
        assert_eq!(backing.events, 2);
        assert_eq!(backing.sampled_events, 1);
        assert_eq!(backing.sampled_ns, 30);
        assert_eq!(backing.estimated_self_ns(), 60);
        assert_eq!(profile.phases[2].sampled_ns, 80, "touch + backing ns");
    }

    #[test]
    fn zero_sample_every_is_clamped_and_zero_samples_extrapolate_to_zero() {
        let mut p = TouchProfiler::enabled(0, 1);
        assert_eq!(p.sample_every(), Some(1));
        assert_eq!(p.begin_touch(0), TouchMode::Sampled);
        let empty = StageProfile {
            stage: Stage::WearTracking,
            events: 100,
            sampled_events: 0,
            sampled_ns: 0,
        };
        assert_eq!(empty.estimated_self_ns(), 0);
    }

    #[test]
    fn stage_labels_and_span_names_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        let spans: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.span_name()).collect();
        assert_eq!(labels.len(), STAGE_COUNT);
        assert_eq!(spans.len(), STAGE_COUNT);
        assert!(spans.iter().all(|name| name.starts_with("touch.")));
        assert_eq!(format!("{}", Stage::PageMap), "page-map");
    }
}
