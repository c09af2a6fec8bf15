//! Exact hot-path counter for the simulated memory system.
//!
//! Attributes the work of `MemorySystem::touch` to its components: the
//! page-map lookup, the cache model, the controller's line bookkeeping, the
//! byte-level backing store and the per-line wear tracking. Every touch is
//! counted per stage (tallies batched into one call per touch) and per
//! execution phase; nothing is timed — a counter is either right or wrong,
//! and what a stage *costs* is measured from outside by whole-run
//! wall-clock (`kgbench`'s `hybrid-mem.touch_ns.*` micro-runs).
//!
//! Like [`crate::Telemetry`], a disabled profiler is one `Option`
//! discriminant branch per touch and records nothing, and an enabled one
//! never feeds back into simulated state, so the simulation is
//! bit-identical with the profiler on or off.

use std::fmt;

/// Number of instrumented stages.
pub const STAGE_COUNT: usize = 5;

/// What the frozen `kgbench` call sites pass to `enable_touch_profiler` /
/// `enable_hot_path_profiler`; ignored there, as the profiler has nothing
/// to configure.
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
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-stage event counts, accumulated locally by the hot path and handed
/// to the profiler once per touch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Events per stage, indexed by [`Stage`].
    pub events: [u64; STAGE_COUNT],
}

impl StageTotals {
    /// Adds `events` events to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, events: u64) {
        self.events[stage as usize] += events;
    }
}

/// How the hot path reports its stages. The touch loop is written once,
/// generic over the sink; it has two instantiations, and the [`Unprofiled`]
/// one compiles to the bare loop.
pub trait StageSink {
    /// Runs `work` as one event of `stage`.
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R;
}

/// The sink of a disabled profiler: runs the work and records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unprofiled;

impl StageSink for Unprofiled {
    #[inline(always)]
    fn stage<R>(&mut self, _stage: Stage, work: impl FnOnce() -> R) -> R {
        work()
    }
}

/// The sink of an enabled profiler: tallies one event per stage run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counted(pub StageTotals);

impl StageSink for Counted {
    #[inline(always)]
    fn stage<R>(&mut self, stage: Stage, work: impl FnOnce() -> R) -> R {
        self.0.add(stage, 1);
        work()
    }
}

#[derive(Debug)]
struct ProfilerInner {
    /// Events per stage, indexed by [`Stage`].
    stages: [u64; STAGE_COUNT],
    /// Touches per execution phase, indexed by the caller's phase table.
    phases: Vec<u64>,
}

/// The counting profiler handle. [`Default`] is disabled, and then
/// [`begin_touch`] costs one branch.
///
/// [`begin_touch`]: TouchProfiler::begin_touch
#[derive(Debug, Default)]
pub struct TouchProfiler {
    inner: Option<Box<ProfilerInner>>,
}

impl TouchProfiler {
    /// A recording handle counting touches across `phase_count` execution
    /// phases.
    pub fn enabled(phase_count: usize) -> Self {
        TouchProfiler {
            inner: Some(Box::new(ProfilerInner {
                stages: [0; STAGE_COUNT],
                phases: vec![0; phase_count],
            })),
        }
    }

    /// Counts one touch performed by `phase` (an index into the phase
    /// table) and returns whether the hot path should count its stages
    /// (`false`: disabled, run the uninstrumented loop).
    ///
    /// # Panics
    ///
    /// Panics if `phase` is outside the `phase_count` the profiler was
    /// enabled with.
    #[inline]
    pub fn begin_touch(&mut self, phase: usize) -> bool {
        let Some(inner) = self.inner.as_mut() else {
            return false;
        };
        inner.phases[phase] += 1;
        true
    }

    /// Absorbs per-stage totals: those of the touch [`Self::begin_touch`]
    /// opened, or of work outside any touch (the end-of-run cache flush) —
    /// it counts events only, never a touch.
    #[inline]
    pub fn finish_touch(&mut self, totals: &StageTotals) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        for (stage, events) in inner.stages.iter_mut().zip(totals.events) {
            *stage += events;
        }
    }

    /// Counts one backing-store operation issued outside the touch loop
    /// (the access wrappers hit the backing store after accounting the
    /// touch).
    #[inline]
    pub fn backing_op(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.stages[Stage::BackingStore as usize] += 1;
        }
    }

    /// Snapshots the profile so far; `None` when disabled.
    pub fn profile(&self) -> Option<TouchProfile> {
        let inner = self.inner.as_ref()?;
        Some(TouchProfile {
            touches: inner.phases.iter().sum(),
            stages: Stage::ALL
                .iter()
                .map(|&stage| StageProfile {
                    stage,
                    events: inner.stages[stage as usize],
                })
                .collect(),
            phases: inner
                .phases
                .iter()
                .enumerate()
                .map(|(phase, &touches)| PhaseProfile { phase, touches })
                .collect(),
        })
    }
}

/// One stage's exact event count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// Which stage.
    pub stage: Stage,
    /// Events the stage ran.
    pub events: u64,
}

/// One phase's exact touch count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase index (the caller's phase table; the heap maps these to
    /// labels).
    pub phase: usize,
    /// Touches the phase issued.
    pub touches: u64,
}

/// End-of-run snapshot of the profiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TouchProfile {
    /// Total touches observed (the sum over [`Self::phases`]).
    pub touches: u64,
    /// Per-stage counts, in [`Stage::ALL`] order.
    pub stages: Vec<StageProfile>,
    /// Per-phase counts, in phase-index order.
    pub phases: Vec<PhaseProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = TouchProfiler::default();
        assert!(!p.begin_touch(0));
        let mut totals = StageTotals::default();
        totals.add(Stage::CacheModel, 5);
        p.finish_touch(&totals);
        p.backing_op();
        assert!(p.profile().is_none());
    }

    #[test]
    fn enabled_profiler_counts_touches_per_phase_and_events_per_stage() {
        let mut p = TouchProfiler::enabled(2);
        for i in 0..16 {
            assert!(p.begin_touch(i % 2));
            let mut sink = Counted::default();
            sink.stage(Stage::CacheModel, || ());
            sink.stage(Stage::PageMap, || ());
            sink.stage(Stage::PageMap, || ());
            p.finish_touch(&sink.0);
            p.backing_op();
        }
        // Work outside a touch adds events and no touch.
        let mut flush = StageTotals::default();
        flush.add(Stage::LineBookkeeping, 3);
        p.finish_touch(&flush);
        let profile = p.profile().unwrap();
        assert_eq!(profile.touches, 16);
        let events: Vec<u64> = profile.stages.iter().map(|s| s.events).collect();
        assert_eq!(events, [32, 16, 3, 16, 0], "in Stage::ALL order");
        let touches: Vec<u64> = profile.phases.iter().map(|p| p.touches).collect();
        assert_eq!(touches, [8, 8]);
    }

    #[test]
    fn stage_labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), STAGE_COUNT);
        assert_eq!(format!("{}", Stage::PageMap), "page-map");
    }
}
