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
//!   and the earlier release.
//!
//! The pass is a single forward scan; its output depends only on the trace
//! bytes, so reports are bit-identical across reruns.

use trace::{Trace, TraceEvent, TraceEvents};

use crate::violation::CheckViolation;

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
}

impl TraceAnalysis {
    /// `true` when the trace is grammatically valid.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-context liveness.
#[derive(Clone, Copy, Debug)]
struct CtxState {
    live: bool,
    retired_at: usize,
}

/// What the grammar needs to know about one object.
#[derive(Clone, Copy, Debug)]
struct ObjState {
    ref_slots: u16,
    released_at: Option<usize>,
}

struct Analyzer {
    contexts: Vec<CtxState>,
    objects: Vec<ObjState>,
    analysis: TraceAnalysis,
}

impl Analyzer {
    fn new() -> Self {
        // The base context (slot 0) exists before recording starts; the
        // trace carries no spawn event for it.
        Analyzer {
            contexts: vec![CtxState {
                live: true,
                retired_at: 0,
            }],
            objects: Vec::new(),
            analysis: TraceAnalysis {
                mutators: 1,
                ..TraceAnalysis::default()
            },
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

    /// Reports `slot` if it lies outside `obj`'s recorded shape.
    fn check_slot(&mut self, obj: u64, slot: u32, event: usize) {
        let ref_slots = self.objects[obj as usize].ref_slots;
        if slot >= u32::from(ref_slots) {
            self.analysis.violations.push(CheckViolation::SlotOutOfBounds {
                event,
                object: obj,
                slot,
                ref_slots,
            });
        }
    }

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
                            },
                        );
                    }
                    self.contexts[slot].live = true;
                    self.analysis.mutators += 1;
                }
                TraceEvent::Retire { ctx } => {
                    if self.ctx_ok(ctx, index) {
                        self.contexts[ctx as usize] = CtxState {
                            live: false,
                            retired_at: index,
                        };
                    }
                }
                TraceEvent::Alloc { ctx, ref_slots, .. } => {
                    // The allocation index is positional: consume it even
                    // when the allocating context is invalid, so later
                    // events keep resolving against the right objects.
                    self.objects.push(ObjState {
                        ref_slots,
                        released_at: None,
                    });
                    self.analysis.allocations += 1;
                    self.ctx_ok(ctx, index);
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
                    self.check_slot(src, slot, index);
                    if let Some(target) = target {
                        // Storing a released or unallocated object's index
                        // is a dangling-handle store.
                        self.obj_ok(target, index);
                    }
                }
                TraceEvent::ReadRef { ctx, src, slot } => {
                    if self.ctx_ok(ctx, index) && self.obj_ok(src, index) {
                        self.check_slot(src, slot, index);
                    }
                }
                TraceEvent::WritePrim { ctx, src, .. } | TraceEvent::ReadPrim { ctx, src, .. } => {
                    if self.ctx_ok(ctx, index) {
                        self.obj_ok(src, index);
                    }
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
                TraceEvent::Safepoint | TraceEvent::Collect { .. } => self.analysis.sync_points += 1,
                TraceEvent::Hook { .. } => {}
            }
        }
    }
}

/// Analyzes a recorded trace: grammar and handle lifetimes. Pure — no
/// heap, no memory system, no I/O.
#[must_use]
pub fn analyze_trace(trace: &Trace) -> TraceAnalysis {
    let mut analyzer = Analyzer::new();
    analyzer.scan(&trace.events);
    analyzer.analysis
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
}
