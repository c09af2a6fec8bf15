//! Applying events: the one place a [`TraceEvent`] becomes a heap call.
//!
//! An [`Applier`] holds the two tables an event stream needs to drive a
//! heap — allocation index → live handle, context index → spawned
//! [`MutatorContext`] — and applies one event at a time. Every run goes
//! through it. A replay feeds it a stored trace
//! ([`crate::TraceReplayer`]); a live run feeds it a workload generator's
//! events as they are made ([`Applier::sink`]); a recording does the same
//! and keeps the events. So live, recorded and replayed runs issue the same
//! heap calls by construction.

use std::fmt;

use hybrid_mem::ShardStats;
use kingsguard::{CollectKind, KingsguardHeap, MutatorContext};
use kingsguard_heap::{Handle, ObjectShape};

use crate::event::{TraceEvent, TraceEvents};

/// Progress snapshot handed to the hook at every hook event: where a
/// workload's periodic hook runs, so hook-driven baselines (e.g. OS Write
/// Partitioning) do their mid-run work at the same stream positions live
/// and replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayProgress {
    /// Bytes the workload had allocated at the hook.
    pub allocated_bytes: u64,
    /// Total bytes the workload will allocate.
    pub total_bytes: u64,
    /// The workload's nominal elapsed milliseconds at the hook (a nominal
    /// allocation rate converts bytes to time, so time-based policies see
    /// the per-quantum write intensity of a full-size run).
    pub elapsed_ms: u64,
}

/// What an [`Applier`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events applied.
    pub events: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Hook events encountered.
    pub hooks: u64,
}

/// Everything that can go wrong applying an event stream.
#[derive(Debug)]
pub enum ReplayError {
    /// The heap is not fresh (it already allocated or spawned contexts).
    HeapNotFresh,
    /// The replay heap's space sizes do not match the recording heap's, so
    /// the recorded lifetimes and GC trigger points would be meaningless.
    ConfigMismatch {
        /// Which size differs ("nursery" or "observer").
        what: &'static str,
        /// The size recorded in the trace header.
        recorded: u64,
        /// The replay heap's size.
        current: u64,
    },
    /// An event referenced an allocation index that was never allocated or
    /// was already released (a corrupt or hand-edited trace).
    UnknownObject {
        /// Index of the offending event.
        event: u64,
        /// The dangling allocation index.
        obj: u64,
    },
    /// An event referenced a context that was never spawned or was retired.
    UnknownContext {
        /// Index of the offending event.
        event: u64,
        /// The dangling context index.
        ctx: u32,
    },
    /// The heap assigned a different context index than the stream names
    /// (the heap was not fresh, or spawn order was tampered with).
    ContextIndexMismatch {
        /// The context index the stream expects.
        recorded: u32,
        /// The context index the heap assigned.
        assigned: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::HeapNotFresh => write!(
                f,
                "an event stream must start on a fresh heap (no allocations, no contexts)"
            ),
            ReplayError::ConfigMismatch {
                what,
                recorded,
                current,
            } => write!(
                f,
                "replay heap's {what} size {current} does not match the recorded {recorded}"
            ),
            ReplayError::UnknownObject { event, obj } => {
                write!(f, "event {event} references unknown or released object {obj}")
            }
            ReplayError::UnknownContext { event, ctx } => {
                write!(f, "event {event} references unknown or retired context {ctx}")
            }
            ReplayError::ContextIndexMismatch { recorded, assigned } => write!(
                f,
                "heap assigned context index {assigned} where the trace recorded {recorded}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Applies an event stream to one heap, an event at a time. See the module
/// docs.
pub struct Applier {
    /// Allocation index → live handle (`None` once released).
    objects: Vec<Option<Handle>>,
    /// Context index → spawned context (slot 0 is the built-in default
    /// context, driven through the legacy heap methods).
    contexts: Vec<Option<MutatorContext>>,
    stats: ReplayStats,
}

impl Applier {
    /// Starts applying to `heap`, which must be fresh — no allocation, no
    /// spawned context — because a stream's allocation and context indices
    /// count from the heap's first.
    pub fn new(heap: &KingsguardHeap) -> Result<Self, ReplayError> {
        if heap.stats().objects_allocated != 0 || heap.mutator_count() != 1 {
            return Err(ReplayError::HeapNotFresh);
        }
        Ok(Applier {
            objects: Vec::new(),
            contexts: vec![None],
            stats: ReplayStats::default(),
        })
    }

    /// Reserves room for `allocations` objects in the handle table.
    pub(crate) fn reserve_objects(&mut self, allocations: usize) {
        self.objects.reserve_exact(allocations);
    }

    /// Issues the heap call `event` names; a hook event runs `hook`.
    // Inlined into its two callers, the replay loop and the live sink, which
    // call it once per event.
    #[inline]
    pub fn apply(
        &mut self,
        heap: &mut KingsguardHeap,
        event: TraceEvent,
        mut hook: impl FnMut(&mut KingsguardHeap, ReplayProgress),
    ) -> Result<(), ReplayError> {
        let at = self.stats.events;
        match event {
            TraceEvent::Spawn { ctx, config } => {
                let spawned = heap.spawn_mutator_with(config);
                let assigned = spawned.index() as u32;
                if assigned != ctx {
                    return Err(ReplayError::ContextIndexMismatch {
                        recorded: ctx,
                        assigned,
                    });
                }
                if self.contexts.len() <= ctx as usize {
                    self.contexts.resize_with(ctx as usize + 1, || None);
                }
                self.contexts[ctx as usize] = Some(spawned);
            }
            TraceEvent::Retire { ctx } => {
                let retired = self
                    .contexts
                    .get_mut(ctx as usize)
                    .and_then(Option::take)
                    .ok_or(ReplayError::UnknownContext { event: at, ctx })?;
                retired.retire(heap);
            }
            TraceEvent::Alloc {
                ctx,
                ref_slots,
                payload_bytes,
                type_id,
                site,
                large: _,
            } => {
                let shape = ObjectShape::new(ref_slots, payload_bytes);
                let site = advice::SiteId(site);
                let handle = match self.context(ctx, at)? {
                    None => heap.alloc_site(shape, type_id, site),
                    Some(mutator) => mutator.alloc_site(heap, shape, type_id, site),
                };
                self.objects.push(Some(handle));
                self.stats.allocations += 1;
            }
            TraceEvent::WriteRef {
                ctx,
                src,
                slot,
                target,
            } => {
                let src = self.resolve(src, at)?;
                let target = match target {
                    None => None,
                    Some(t) => Some(self.resolve(t, at)?),
                };
                match self.context(ctx, at)? {
                    None => heap.write_ref(src, slot as usize, target),
                    Some(mutator) => mutator.write_ref(heap, src, slot as usize, target),
                }
            }
            TraceEvent::WritePrim {
                ctx,
                src,
                offset,
                len,
            } => {
                let src = self.resolve(src, at)?;
                match self.context(ctx, at)? {
                    None => heap.write_prim(src, offset as usize, len as usize),
                    Some(mutator) => mutator.write_prim(heap, src, offset as usize, len as usize),
                }
            }
            TraceEvent::ReadRef { ctx, src, slot } => {
                let src = self.resolve(src, at)?;
                match self.context(ctx, at)? {
                    None => {
                        heap.read_ref(src, slot as usize);
                    }
                    Some(mutator) => {
                        mutator.read_ref(heap, src, slot as usize);
                    }
                }
            }
            TraceEvent::ReadPrim {
                ctx,
                src,
                offset,
                len,
            } => {
                let src = self.resolve(src, at)?;
                match self.context(ctx, at)? {
                    None => heap.read_prim(src, offset as usize, len as usize),
                    Some(mutator) => mutator.read_prim(heap, src, offset as usize, len as usize),
                }
            }
            TraceEvent::Release { obj } => {
                let handle = self.resolve(obj, at)?;
                heap.release(handle);
                self.objects[obj as usize] = None;
            }
            TraceEvent::Safepoint => heap.safepoint(),
            TraceEvent::Collect { kind } => match kind {
                CollectKind::Young => heap.collect_young(),
                CollectKind::Nursery => heap.collect_nursery(),
                CollectKind::Observer => heap.collect_observer(),
                CollectKind::Full => heap.collect_full(),
            },
            TraceEvent::Hook {
                allocated_bytes,
                total_bytes,
                elapsed_ms,
            } => {
                self.stats.hooks += 1;
                hook(
                    heap,
                    ReplayProgress {
                        allocated_bytes,
                        total_bytes,
                        elapsed_ms,
                    },
                );
            }
        }
        self.stats.events += 1;
        Ok(())
    }

    /// The sink a live event source emits into: each event is applied to
    /// `heap` at once (`hook` runs at hook events) and, when `recording` is
    /// given, also appended to it.
    ///
    /// # Panics
    ///
    /// The sink panics on an event the heap rejects: the source emitted an
    /// impossible stream.
    pub fn sink<'a>(
        &'a mut self,
        heap: &'a mut KingsguardHeap,
        mut hook: impl FnMut(&mut KingsguardHeap, ReplayProgress) + 'a,
        mut recording: Option<&'a mut TraceEvents>,
    ) -> impl FnMut(TraceEvent) + 'a {
        move |event| {
            if let Some(events) = recording.as_deref_mut() {
                events.push(event);
            }
            if let Err(err) = self.apply(heap, event, &mut hook) {
                panic!("a generated event was rejected: {err}");
            }
        }
    }

    /// Each live spawned context's attributed device traffic, in context
    /// order.
    pub fn traffic(&self, heap: &KingsguardHeap) -> Vec<ShardStats> {
        self.contexts
            .iter()
            .flatten()
            .map(|ctx| ctx.traffic(heap))
            .collect()
    }

    /// Ends a stored stream: a final safepoint leaves the heap fully synced,
    /// one [`KingsguardHeap::finish`] away from its end-of-run report, and
    /// fails fast (in debug builds) if any context still buffers barrier
    /// events.
    pub fn finish(self, heap: &mut KingsguardHeap) -> ReplayStats {
        heap.safepoint();
        heap.debug_assert_mutators_drained();
        self.stats
    }

    fn resolve(&self, obj: u64, event: u64) -> Result<Handle, ReplayError> {
        self.objects
            .get(obj as usize)
            .copied()
            .flatten()
            .ok_or(ReplayError::UnknownObject { event, obj })
    }

    /// The context slot for `ctx`: `Ok(None)` is the built-in default
    /// context (legacy methods), `Ok(Some(..))` a spawned context.
    fn context(&mut self, ctx: u32, event: u64) -> Result<Option<&mut MutatorContext>, ReplayError> {
        if ctx == 0 {
            return Ok(None);
        }
        match self.contexts.get_mut(ctx as usize) {
            Some(Some(mutator)) => Ok(Some(mutator)),
            _ => Err(ReplayError::UnknownContext { event, ctx }),
        }
    }
}
