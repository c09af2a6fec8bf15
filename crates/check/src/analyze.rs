//! Mode 2: the static trace analyzer.
//!
//! [`analyze_trace`] verifies a recorded `.kgtrace` stream without
//! instantiating the memory system:
//!
//! * **event grammar** — every event must reference a spawned, still-live
//!   context and an allocated object, spawns must not collide, slot indices
//!   must lie inside the object's recorded shape;
//! * **handle lifetimes** — use-after-release, double-release and
//!   write-to-unallocated are reported with the event index of both the use
//!   and the earlier release;
//! * **cross-mutator races** — a vector-clock happens-before pass over the
//!   per-mutator event streams. The simulated heap's only synchronization
//!   is the global safepoint (explicit [`TraceEvent::Safepoint`] markers and
//!   mutator-initiated collections), so two accesses to the same object
//!   from different contexts with at least one write and no interleaving
//!   safepoint edge could not be ordered by a truly parallel runtime — exactly
//!   the schedules a future parallel mutator port must either synchronize
//!   or accept as racy.
//!
//! The pass is a single forward scan; its output depends only on the trace
//! bytes, so reports are bit-identical across reruns.

use std::collections::HashSet;
use std::fmt::Write as _;

use trace::{Trace, TraceEvent, TraceEvents};

use crate::violation::CheckViolation;

/// One access in a race report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The context that performed the access.
    pub ctx: u32,
    /// The event index of the access.
    pub event: usize,
    /// `true` for writes (including the allocating initialization).
    pub is_write: bool,
}

/// A pair of conflicting, unordered accesses to one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Allocation index of the contended object.
    pub object: u64,
    /// The earlier access (by event index).
    pub first: Access,
    /// The later access.
    pub second: Access,
}

/// Result of [`analyze_trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceAnalysis {
    /// Total events scanned.
    pub events: usize,
    /// Allocation events (== objects).
    pub allocations: usize,
    /// Contexts that participated (spawn events plus the base context).
    pub mutators: usize,
    /// Global synchronization points (safepoints and collections).
    pub sync_points: usize,
    /// Grammar and lifetime violations, in event order.
    pub violations: Vec<CheckViolation>,
    /// Unordered conflicting access pairs, in discovery order
    /// (deduplicated per object/context-pair/access-kind).
    pub races: Vec<RaceReport>,
}

impl TraceAnalysis {
    /// `true` when the trace is grammatically valid and race-free.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.races.is_empty()
    }
}

/// Per-context vector-clock state.
#[derive(Clone, Debug)]
struct CtxState {
    live: bool,
    retired_at: usize,
    clock: Vec<u64>,
}

/// Last-access metadata for one object (FastTrack-style: a single last
/// write epoch plus one read epoch per reading context).
#[derive(Debug, Default)]
struct ObjState {
    ref_slots: u16,
    released_at: Option<usize>,
    last_write: Option<(u32, u64, usize)>,
    reads: Vec<(u32, u64, usize)>,
}

struct Analyzer {
    contexts: Vec<CtxState>,
    objects: Vec<ObjState>,
    /// Join of every clock that passed through a global barrier; newly
    /// spawned contexts inherit it.
    global: Vec<u64>,
    analysis: TraceAnalysis,
    race_keys: HashSet<(u64, u32, u32, bool, bool)>,
}

fn join_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl Analyzer {
    fn new() -> Self {
        // The base context (slot 0) exists before recording starts; the
        // trace carries no spawn event for it.
        Analyzer {
            contexts: vec![CtxState {
                live: true,
                retired_at: 0,
                clock: vec![1],
            }],
            objects: Vec::new(),
            global: Vec::new(),
            analysis: TraceAnalysis::default(),
            race_keys: HashSet::new(),
        }
    }

    /// Validates that `ctx` is live at event `event`; reports otherwise.
    fn ctx_ok(&mut self, ctx: u32, event: usize) -> bool {
        match self.contexts.get(ctx as usize) {
            Some(state) if state.live => true,
            Some(state) => {
                self.analysis.violations.push(CheckViolation::DanglingContext {
                    event,
                    ctx,
                    retired_at: state.retired_at,
                });
                false
            }
            None => {
                self.analysis
                    .violations
                    .push(CheckViolation::UnknownContext { event, ctx });
                false
            }
        }
    }

    /// Validates that `obj` is allocated and unreleased at `event`.
    fn obj_ok(&mut self, obj: u64, event: usize) -> bool {
        match self.objects.get(obj as usize) {
            None => {
                self.analysis
                    .violations
                    .push(CheckViolation::UnknownObject { event, object: obj });
                false
            }
            Some(state) => match state.released_at {
                Some(released_at) => {
                    self.analysis.violations.push(CheckViolation::UseAfterRelease {
                        event,
                        object: obj,
                        released_at,
                    });
                    false
                }
                None => true,
            },
        }
    }

    /// Ticks `ctx`'s own clock component and returns the new timestamp.
    fn tick(&mut self, ctx: u32) -> u64 {
        let slot = ctx as usize;
        let clock = &mut self.contexts[slot].clock;
        if clock.len() <= slot {
            clock.resize(slot + 1, 0);
        }
        clock[slot] += 1;
        clock[slot]
    }

    /// `true` when the prior access `(by, ts)` happens-before the current
    /// state of `ctx`'s clock.
    fn ordered(&self, ctx: u32, by: u32, ts: u64) -> bool {
        if ctx == by {
            return true;
        }
        self.contexts[ctx as usize]
            .clock
            .get(by as usize)
            .is_some_and(|&seen| seen >= ts)
    }

    fn report_race(&mut self, object: u64, prior: (u32, u64, usize), prior_write: bool, now: Access) {
        let (a, b) = if prior.0 <= now.ctx {
            (prior.0, now.ctx)
        } else {
            (now.ctx, prior.0)
        };
        if self.race_keys.insert((object, a, b, prior_write, now.is_write)) {
            self.analysis.races.push(RaceReport {
                object,
                first: Access {
                    ctx: prior.0,
                    event: prior.2,
                    is_write: prior_write,
                },
                second: now,
            });
        }
    }

    /// Records an access to `obj` and checks it against the object's
    /// access history.
    fn access(&mut self, ctx: u32, obj: u64, event: usize, is_write: bool) {
        let ts = self.tick(ctx);
        let now = Access { ctx, event, is_write };
        let last_write = self.objects[obj as usize].last_write;
        if let Some((wctx, wts, wevent)) = last_write {
            if wctx != ctx && !self.ordered(ctx, wctx, wts) {
                self.report_race(obj, (wctx, wts, wevent), true, now);
            }
        }
        if is_write {
            let reads = std::mem::take(&mut self.objects[obj as usize].reads);
            for (rctx, rts, revent) in reads {
                if rctx != ctx && !self.ordered(ctx, rctx, rts) {
                    self.report_race(obj, (rctx, rts, revent), false, now);
                }
            }
            self.objects[obj as usize].last_write = Some((ctx, ts, event));
        } else {
            let reads = &mut self.objects[obj as usize].reads;
            if let Some(entry) = reads.iter_mut().find(|(rctx, _, _)| *rctx == ctx) {
                *entry = (ctx, ts, event);
            } else {
                reads.push((ctx, ts, event));
            }
        }
    }

    /// A global barrier: every live context's clock joins the global clock
    /// and inherits the join — everything before the barrier
    /// happens-before everything after it.
    fn barrier(&mut self) {
        self.analysis.sync_points += 1;
        let mut joined = std::mem::take(&mut self.global);
        for state in self.contexts.iter().filter(|s| s.live) {
            join_into(&mut joined, &state.clock);
        }
        for state in self.contexts.iter_mut().filter(|s| s.live) {
            join_into(&mut state.clock, &joined);
        }
        self.global = joined;
    }

    #[allow(clippy::too_many_lines)]
    fn scan(&mut self, events: &TraceEvents) {
        self.analysis.events = events.len();
        for (index, event) in events.iter().enumerate() {
            match event {
                TraceEvent::Spawn { ctx, .. } => {
                    let slot = ctx as usize;
                    if self.contexts.get(slot).is_some_and(|s| s.live) {
                        self.analysis
                            .violations
                            .push(CheckViolation::DuplicateSpawn { event: index, ctx });
                        continue;
                    }
                    if slot >= self.contexts.len() {
                        self.contexts.resize(
                            slot + 1,
                            CtxState {
                                live: false,
                                retired_at: 0,
                                clock: Vec::new(),
                            },
                        );
                    }
                    let mut clock = self.global.clone();
                    if clock.len() <= slot {
                        clock.resize(slot + 1, 0);
                    }
                    clock[slot] += 1;
                    self.contexts[slot] = CtxState {
                        live: true,
                        retired_at: 0,
                        clock,
                    };
                    self.analysis.mutators += 1;
                }
                TraceEvent::Retire { ctx } => {
                    if !self.ctx_ok(ctx, index) {
                        continue;
                    }
                    // Retiring drains and merges into the driver: the
                    // retired clock joins the global one.
                    let clock = std::mem::take(&mut self.contexts[ctx as usize].clock);
                    join_into(&mut self.global, &clock);
                    self.contexts[ctx as usize] = CtxState {
                        live: false,
                        retired_at: index,
                        clock,
                    };
                }
                TraceEvent::Alloc { ctx, ref_slots, .. } => {
                    // The allocation index is positional: consume it even
                    // when the allocating context is invalid, so later
                    // events keep resolving against the right objects.
                    let obj = self.objects.len() as u64;
                    self.objects.push(ObjState {
                        ref_slots,
                        ..ObjState::default()
                    });
                    self.analysis.allocations += 1;
                    if !self.ctx_ok(ctx, index) {
                        continue;
                    }
                    // Allocation initializes the object: a write.
                    self.access(ctx, obj, index, true);
                }
                TraceEvent::WriteRef {
                    ctx,
                    src,
                    slot,
                    target,
                } => {
                    if !self.ctx_ok(ctx, index) || !self.obj_ok(src, index) {
                        continue;
                    }
                    let ref_slots = self.objects[src as usize].ref_slots;
                    if slot >= u32::from(ref_slots) {
                        self.analysis.violations.push(CheckViolation::SlotOutOfBounds {
                            event: index,
                            object: src,
                            slot,
                            ref_slots,
                        });
                    }
                    if let Some(target) = target {
                        // Storing a released or unallocated object's index
                        // is a dangling-handle store.
                        self.obj_ok(target, index);
                    }
                    self.access(ctx, src, index, true);
                }
                TraceEvent::WritePrim { ctx, src, .. } => {
                    if !self.ctx_ok(ctx, index) || !self.obj_ok(src, index) {
                        continue;
                    }
                    self.access(ctx, src, index, true);
                }
                TraceEvent::ReadRef { ctx, src, slot } => {
                    if !self.ctx_ok(ctx, index) || !self.obj_ok(src, index) {
                        continue;
                    }
                    let ref_slots = self.objects[src as usize].ref_slots;
                    if slot >= u32::from(ref_slots) {
                        self.analysis.violations.push(CheckViolation::SlotOutOfBounds {
                            event: index,
                            object: src,
                            slot,
                            ref_slots,
                        });
                    }
                    self.access(ctx, src, index, false);
                }
                TraceEvent::ReadPrim { ctx, src, .. } => {
                    if !self.ctx_ok(ctx, index) || !self.obj_ok(src, index) {
                        continue;
                    }
                    self.access(ctx, src, index, false);
                }
                TraceEvent::Release { obj } => match self.objects.get(obj as usize) {
                    None => self.analysis.violations.push(CheckViolation::UnknownObject {
                        event: index,
                        object: obj,
                    }),
                    Some(state) => match state.released_at {
                        Some(released_at) => {
                            self.analysis.violations.push(CheckViolation::DoubleRelease {
                                event: index,
                                object: obj,
                                released_at,
                            });
                        }
                        None => self.objects[obj as usize].released_at = Some(index),
                    },
                },
                TraceEvent::Safepoint | TraceEvent::Collect { .. } => self.barrier(),
                TraceEvent::Hook { .. } => {}
            }
        }
    }
}

/// Analyzes a recorded trace: grammar, handle lifetimes and cross-mutator
/// happens-before. Pure — no heap, no memory system, no I/O.
#[must_use]
pub fn analyze_trace(trace: &Trace) -> TraceAnalysis {
    let mut analyzer = Analyzer::new();
    analyzer.analysis.mutators = 1; // the base context
    analyzer.scan(&trace.events);
    analyzer.analysis
}

/// Renders the deterministic race report (one line per race, plus a
/// summary line) shown by `repro trace check`.
#[must_use]
pub fn render_race_report(analysis: &TraceAnalysis) -> String {
    // Real multi-mutator recordings can race on tens of thousands of
    // shared objects; the first few localize the pattern, the trailing
    // summary carries the exact total.
    const MAX_RENDERED: usize = 40;
    let mut out = String::new();
    for race in analysis.races.iter().take(MAX_RENDERED) {
        let kind = |a: &Access| if a.is_write { "write" } else { "read" };
        let _ = writeln!(
            out,
            "race object #{object}: {k1} by ctx {c1} (event {e1}) unordered with {k2} by ctx {c2} (event {e2})",
            object = race.object,
            k1 = kind(&race.first),
            c1 = race.first.ctx,
            e1 = race.first.event,
            k2 = kind(&race.second),
            c2 = race.second.ctx,
            e2 = race.second.event,
        );
    }
    if analysis.races.len() > MAX_RENDERED {
        let _ = writeln!(out, "... and {} more", analysis.races.len() - MAX_RENDERED);
    }
    let _ = writeln!(
        out,
        "{} race(s) across {} mutator(s), {} sync point(s), {} event(s)",
        analysis.races.len(),
        analysis.mutators,
        analysis.sync_points,
        analysis.events
    );
    out
}

#[cfg(test)]
mod tests {
    use kingsguard::MutatorConfig;
    use trace::TraceHeader;

    use super::*;
    use crate::violation::CheckViolation;

    fn trace_of(events: Vec<TraceEvent>) -> Trace {
        Trace {
            header: TraceHeader {
                workload: "hand-built".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: 0,
                observer_bytes: 0,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: events.into(),
        }
    }

    fn alloc(ctx: u32, ref_slots: u16) -> TraceEvent {
        TraceEvent::Alloc {
            ctx,
            ref_slots,
            payload_bytes: 16,
            type_id: 1,
            site: 0,
            large: false,
        }
    }

    fn spawn(ctx: u32) -> TraceEvent {
        TraceEvent::Spawn {
            ctx,
            config: MutatorConfig::default(),
        }
    }

    fn kinds(analysis: &TraceAnalysis) -> Vec<&'static str> {
        analysis.violations.iter().map(CheckViolation::kind).collect()
    }

    #[test]
    fn clean_single_context_trace_passes() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 1),
            alloc(0, 0),
            TraceEvent::WriteRef {
                ctx: 0,
                src: 0,
                slot: 0,
                target: Some(1),
            },
            TraceEvent::ReadRef {
                ctx: 0,
                src: 0,
                slot: 0,
            },
            TraceEvent::Release { obj: 1 },
            TraceEvent::Safepoint,
        ]));
        assert!(analysis.is_clean(), "{:?}", analysis.violations);
        assert_eq!(analysis.allocations, 2);
        assert_eq!(analysis.mutators, 1);
        assert_eq!(analysis.sync_points, 1);
    }

    #[test]
    fn use_after_release_is_reported_with_release_site() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 0),
            TraceEvent::Release { obj: 0 },
            TraceEvent::WritePrim {
                ctx: 0,
                src: 0,
                offset: 0,
                len: 8,
            },
        ]));
        assert_eq!(kinds(&analysis), vec!["use-after-release"]);
        assert!(matches!(
            analysis.violations[0],
            CheckViolation::UseAfterRelease {
                event: 2,
                object: 0,
                released_at: 1
            }
        ));
    }

    #[test]
    fn double_release_is_reported() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 0),
            TraceEvent::Release { obj: 0 },
            TraceEvent::Release { obj: 0 },
        ]));
        assert_eq!(kinds(&analysis), vec!["double-release"]);
    }

    #[test]
    fn unallocated_object_accesses_are_reported() {
        let analysis = analyze_trace(&trace_of(vec![TraceEvent::WritePrim {
            ctx: 0,
            src: 5,
            offset: 0,
            len: 8,
        }]));
        assert_eq!(kinds(&analysis), vec!["unknown-object"]);
    }

    #[test]
    fn storing_a_released_target_is_a_dangling_handle_store() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 1),
            alloc(0, 0),
            TraceEvent::Release { obj: 1 },
            TraceEvent::WriteRef {
                ctx: 0,
                src: 0,
                slot: 0,
                target: Some(1),
            },
        ]));
        assert_eq!(kinds(&analysis), vec!["use-after-release"]);
    }

    #[test]
    fn unknown_context_still_consumes_the_allocation_index() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(7, 0), // never-spawned context: invalid, but object #0 exists
            alloc(0, 0), // object #1
            TraceEvent::WritePrim {
                ctx: 0,
                src: 1,
                offset: 0,
                len: 8,
            },
        ]));
        assert_eq!(kinds(&analysis), vec!["unknown-context"]);
        assert_eq!(analysis.allocations, 2);
    }

    #[test]
    fn retired_context_use_and_duplicate_spawn_are_reported() {
        let analysis = analyze_trace(&trace_of(vec![
            spawn(1),
            TraceEvent::Retire { ctx: 1 },
            alloc(1, 0),
            spawn(2),
            spawn(2),
        ]));
        assert_eq!(kinds(&analysis), vec!["dangling-context", "duplicate-spawn"]);
    }

    #[test]
    fn slot_out_of_bounds_is_reported() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 1),
            TraceEvent::WriteRef {
                ctx: 0,
                src: 0,
                slot: 5,
                target: None,
            },
        ]));
        assert_eq!(kinds(&analysis), vec!["slot-out-of-bounds"]);
    }

    #[test]
    fn unsynchronized_cross_context_writes_race() {
        let analysis = analyze_trace(&trace_of(vec![
            spawn(1),
            alloc(0, 0),
            TraceEvent::WritePrim {
                ctx: 1,
                src: 0,
                offset: 0,
                len: 8,
            },
        ]));
        assert!(analysis.violations.is_empty());
        assert_eq!(analysis.races.len(), 1);
        let race = analysis.races[0];
        assert_eq!(race.object, 0);
        assert_eq!((race.first.ctx, race.second.ctx), (0, 1));
        assert!(race.first.is_write && race.second.is_write);
    }

    #[test]
    fn read_write_race_without_a_barrier_is_reported() {
        let analysis = analyze_trace(&trace_of(vec![
            alloc(0, 0),
            TraceEvent::Safepoint,
            spawn(1),
            TraceEvent::ReadPrim {
                ctx: 1,
                src: 0,
                offset: 0,
                len: 8,
            },
            TraceEvent::WritePrim {
                ctx: 0,
                src: 0,
                offset: 0,
                len: 8,
            },
        ]));
        assert_eq!(analysis.races.len(), 1);
        assert!(!analysis.races[0].first.is_write);
        assert!(analysis.races[0].second.is_write);
    }

    #[test]
    fn safepoints_order_cross_context_accesses() {
        let analysis = analyze_trace(&trace_of(vec![
            spawn(1),
            alloc(0, 0),
            TraceEvent::Safepoint,
            TraceEvent::WritePrim {
                ctx: 1,
                src: 0,
                offset: 0,
                len: 8,
            },
        ]));
        assert!(analysis.is_clean(), "{:?}", analysis.races);
        assert_eq!(analysis.sync_points, 1);
    }

    #[test]
    fn retire_then_spawn_carries_a_happens_before_edge() {
        // ctx 1's writes drain into the driver at retire; a context spawned
        // afterwards inherits that history and may touch the same object.
        let analysis = analyze_trace(&trace_of(vec![
            spawn(1),
            alloc(1, 0),
            TraceEvent::Retire { ctx: 1 },
            spawn(2),
            TraceEvent::WritePrim {
                ctx: 2,
                src: 0,
                offset: 0,
                len: 8,
            },
        ]));
        assert!(analysis.is_clean(), "{:?}", analysis.races);
    }

    #[test]
    fn race_reports_are_deduplicated_and_deterministic() {
        let events = vec![
            spawn(1),
            alloc(0, 0),
            TraceEvent::WritePrim {
                ctx: 1,
                src: 0,
                offset: 0,
                len: 8,
            },
            TraceEvent::WritePrim {
                ctx: 0,
                src: 0,
                offset: 8,
                len: 8,
            },
            TraceEvent::WritePrim {
                ctx: 1,
                src: 0,
                offset: 16,
                len: 8,
            },
        ];
        let first = analyze_trace(&trace_of(events.clone()));
        let second = analyze_trace(&trace_of(events));
        // One write-write race per (object, context pair), however many
        // conflicting accesses repeat it.
        assert_eq!(first.races.len(), 1);
        assert_eq!(render_race_report(&first), render_race_report(&second));
    }
}
