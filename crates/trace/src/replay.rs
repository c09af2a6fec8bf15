//! Replay: driving a heap from a recorded [`Trace`].
//!
//! [`TraceReplayer::replay`] issues the recorded operation stream against a
//! fresh [`KingsguardHeap`] — any heap whose nursery and observer sizes
//! match the recording heap's, under **any** placement policy. Because the
//! heap simulator is deterministic and the stream is the complete
//! mutator-visible API history (including mutator spawn configurations, so
//! TLAB and store-buffer behaviour reproduce exactly), a replay against the
//! recording configuration is bit-identical to the live run: same PCM/DRAM
//! write counts, same line statistics, same collector counters. Replaying
//! against a *different* policy answers "what would this collector have
//! done on the same program?" without re-running workload logic.

use std::fmt;

use kingsguard::{CollectKind, KingsguardHeap, MutatorContext};
use kingsguard_heap::{Handle, ObjectShape};

use crate::event::{Trace, TraceEvent};

/// Progress snapshot handed to the replay hook at every recorded hook
/// marker (the trace-side twin of `workloads::MutatorProgress`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayProgress {
    /// Bytes the workload had allocated at the marker.
    pub allocated_bytes: u64,
    /// Total bytes the workload will allocate.
    pub total_bytes: u64,
    /// The workload's nominal elapsed milliseconds at the marker.
    pub elapsed_ms: u64,
}

/// What a replay did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Events replayed.
    pub events: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Hook markers encountered.
    pub hooks: u64,
}

/// Everything that can go wrong replaying a trace.
#[derive(Debug)]
pub enum ReplayError {
    /// The replay heap is not fresh (it already allocated or spawned
    /// contexts).
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
    /// The heap assigned a different context index than the trace recorded
    /// (the replay heap was not fresh, or spawn order was tampered with).
    ContextIndexMismatch {
        /// The context index the trace expects.
        recorded: u32,
        /// The context index the heap assigned.
        assigned: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::HeapNotFresh => {
                write!(
                    f,
                    "trace replay requires a fresh heap (no allocations, no contexts)"
                )
            }
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

/// Replays a [`Trace`] against a heap. See the module docs.
pub struct TraceReplayer<'t> {
    trace: &'t Trace,
}

impl<'t> TraceReplayer<'t> {
    /// Creates a replayer over `trace`.
    pub fn new(trace: &'t Trace) -> Self {
        TraceReplayer { trace }
    }

    /// Replays the full event stream against `heap`, ignoring hook markers.
    /// The heap is left one [`KingsguardHeap::finish`] away from its
    /// end-of-run report.
    pub fn replay(&self, heap: &mut KingsguardHeap) -> Result<ReplayStats, ReplayError> {
        self.replay_with(heap, |_, _| {})
    }

    /// Replays the full event stream, invoking `hook` at every recorded
    /// hook marker — the same cadence the recording driver's periodic hook
    /// ran at, which is how hook-driven baselines (e.g. OS Write
    /// Partitioning) replay their mid-run work.
    pub fn replay_with(
        &self,
        heap: &mut KingsguardHeap,
        mut hook: impl FnMut(&mut KingsguardHeap, ReplayProgress),
    ) -> Result<ReplayStats, ReplayError> {
        if heap.stats().objects_allocated != 0 || heap.mutator_count() != 1 {
            return Err(ReplayError::HeapNotFresh);
        }
        let header = &self.trace.header;
        if heap.config().nursery_bytes as u64 != header.nursery_bytes {
            return Err(ReplayError::ConfigMismatch {
                what: "nursery",
                recorded: header.nursery_bytes,
                current: heap.config().nursery_bytes as u64,
            });
        }
        if heap.config().observer_bytes as u64 != header.observer_bytes {
            return Err(ReplayError::ConfigMismatch {
                what: "observer",
                recorded: header.observer_bytes,
                current: heap.config().observer_bytes as u64,
            });
        }

        // Allocation index → live handle (None once released).
        let mut objects: Vec<Option<Handle>> = Vec::with_capacity(self.trace.allocations() as usize);
        // Context index → spawned context (slot 0 is the built-in default
        // context, driven through the legacy heap methods).
        let mut contexts: Vec<Option<MutatorContext>> = vec![None];
        let mut stats = ReplayStats::default();

        let resolve = |objects: &[Option<Handle>], obj: u64, event: u64| -> Result<Handle, ReplayError> {
            objects
                .get(obj as usize)
                .copied()
                .flatten()
                .ok_or(ReplayError::UnknownObject { event, obj })
        };

        for (index, event) in self.trace.events.iter().enumerate() {
            let at = index as u64;
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
                    if contexts.len() <= ctx as usize {
                        contexts.resize_with(ctx as usize + 1, || None);
                    }
                    contexts[ctx as usize] = Some(spawned);
                }
                TraceEvent::Retire { ctx } => {
                    let slot = contexts
                        .get_mut(ctx as usize)
                        .ok_or(ReplayError::UnknownContext { event: at, ctx })?;
                    let retired = slot
                        .take()
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
                    let handle = match context(&mut contexts, ctx, at)? {
                        None => heap.alloc_site(shape, type_id, site),
                        Some(mutator) => mutator.alloc_site(heap, shape, type_id, site),
                    };
                    objects.push(Some(handle));
                    stats.allocations += 1;
                }
                TraceEvent::WriteRef {
                    ctx,
                    src,
                    slot,
                    target,
                } => {
                    let src = resolve(&objects, src, at)?;
                    let target = match target {
                        None => None,
                        Some(t) => Some(resolve(&objects, t, at)?),
                    };
                    match context(&mut contexts, ctx, at)? {
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
                    let src = resolve(&objects, src, at)?;
                    match context(&mut contexts, ctx, at)? {
                        None => heap.write_prim(src, offset as usize, len as usize),
                        Some(mutator) => mutator.write_prim(heap, src, offset as usize, len as usize),
                    }
                }
                TraceEvent::ReadRef { ctx, src, slot } => {
                    let src = resolve(&objects, src, at)?;
                    match context(&mut contexts, ctx, at)? {
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
                    let src = resolve(&objects, src, at)?;
                    match context(&mut contexts, ctx, at)? {
                        None => heap.read_prim(src, offset as usize, len as usize),
                        Some(mutator) => mutator.read_prim(heap, src, offset as usize, len as usize),
                    }
                }
                TraceEvent::Release { obj } => {
                    let handle = resolve(&objects, obj, at)?;
                    heap.release(handle);
                    objects[obj as usize] = None;
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
                    stats.hooks += 1;
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
            stats.events += 1;
        }
        // Leave the heap fully synced, and fail fast (in debug builds) if
        // any context still buffers barrier events.
        heap.safepoint();
        heap.debug_assert_mutators_drained();
        Ok(stats)
    }
}

/// Looks up the context slot for `ctx`: `Ok(None)` is the built-in default
/// context (legacy methods), `Ok(Some(..))` a spawned context.
fn context(
    contexts: &mut [Option<MutatorContext>],
    ctx: u32,
    event: u64,
) -> Result<Option<&mut MutatorContext>, ReplayError> {
    if ctx == 0 {
        return Ok(None);
    }
    match contexts.get_mut(ctx as usize) {
        Some(Some(mutator)) => Ok(Some(mutator)),
        _ => Err(ReplayError::UnknownContext { event, ctx }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{TraceMeta, TraceRecorder};
    use hybrid_mem::{MemoryConfig, MemoryKind};
    use kingsguard::HeapConfig;
    use kingsguard_heap::ObjectShape;

    fn fresh(config: HeapConfig) -> KingsguardHeap {
        KingsguardHeap::new(config, MemoryConfig::architecture_independent())
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "unit".to_string(),
            seed: 1,
            scale: 1,
            site_map_hash: 0,
        }
    }

    /// Records a small hand-written workload and returns its trace plus the
    /// live run's report.
    fn record_sample(config: HeapConfig) -> (Trace, kingsguard::RunReport) {
        let mut heap = fresh(config);
        let recorder = TraceRecorder::install(&mut heap, meta());
        let mut keep = Vec::new();
        for i in 0..300u32 {
            let shape = ObjectShape::new((i % 3) as u16, 24 + (i % 80));
            let handle = heap.alloc_site(shape, 1 + (i % 9) as u16, advice::SiteId(21 + (i % 8)));
            heap.write_prim(handle, (i as usize) % 64, 8);
            if shape.ref_slots > 0 {
                heap.write_ref(handle, 0, keep.last().copied());
            }
            if i % 4 == 0 {
                keep.push(handle);
            } else {
                heap.release(handle);
            }
        }
        let big = heap.alloc(ObjectShape::primitive(16 * 1024), 200);
        heap.write_prim(big, 100, 32);
        heap.collect_young();
        for handle in keep.drain(..) {
            heap.release(handle);
        }
        let trace = recorder.finish(&mut heap);
        (trace, heap.finish())
    }

    fn fingerprint(report: &kingsguard::RunReport) -> (u64, u64, u64, u64, u64, u64) {
        (
            report.memory.writes(MemoryKind::Pcm),
            report.memory.writes(MemoryKind::Dram),
            report.memory.reads(MemoryKind::Pcm),
            report.gc.remset_insertions,
            report.gc.nursery.collections,
            report.gc.primitive_writes,
        )
    }

    #[test]
    fn replay_reproduces_the_live_run_bit_identically() {
        for config in [
            HeapConfig::kg_n(),
            HeapConfig::kg_w(),
            HeapConfig::gen_immix_pcm(),
        ] {
            let (trace, live) = record_sample(config.clone());
            let mut heap = fresh(config);
            let stats = TraceReplayer::new(&trace).replay(&mut heap).unwrap();
            assert_eq!(stats.allocations, trace.allocations());
            let replayed = heap.finish();
            assert_eq!(fingerprint(&replayed), fingerprint(&live));
        }
    }

    #[test]
    fn a_trace_recorded_once_replays_under_every_policy() {
        // Record under KG-N, replay under KG-W and PCM-only: the op stream
        // is policy-independent, so each replay must match that policy's
        // own live run.
        let (trace, _) = record_sample(HeapConfig::kg_n());
        for config in [
            HeapConfig::kg_w(),
            HeapConfig::gen_immix_pcm(),
            HeapConfig::kg_d(),
        ] {
            let (_, live) = record_sample(config.clone());
            let mut heap = fresh(config);
            TraceReplayer::new(&trace).replay(&mut heap).unwrap();
            let replayed = heap.finish();
            assert_eq!(fingerprint(&replayed), fingerprint(&live));
        }
    }

    #[test]
    fn replay_rejects_a_mismatched_nursery() {
        let (trace, _) = record_sample(HeapConfig::kg_n());
        let mut heap = fresh(HeapConfig::kg_n_large_nursery());
        match TraceReplayer::new(&trace).replay(&mut heap) {
            Err(ReplayError::ConfigMismatch { what: "nursery", .. }) => {}
            other => panic!("expected nursery mismatch, got {other:?}"),
        }
    }

    #[test]
    fn replay_rejects_a_used_heap() {
        let (trace, _) = record_sample(HeapConfig::kg_n());
        let mut heap = fresh(HeapConfig::kg_n());
        let _used = heap.alloc(ObjectShape::new(0, 16), 1);
        assert!(matches!(
            TraceReplayer::new(&trace).replay(&mut heap),
            Err(ReplayError::HeapNotFresh)
        ));
    }

    #[test]
    fn replay_rejects_dangling_object_references() {
        let trace = Trace {
            header: crate::event::TraceHeader {
                workload: "bad".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: HeapConfig::kg_n().nursery_bytes as u64,
                observer_bytes: HeapConfig::kg_n().observer_bytes as u64,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: vec![TraceEvent::WritePrim {
                ctx: 0,
                src: 5,
                offset: 0,
                len: 8,
            }]
            .into(),
        };
        let mut heap = fresh(HeapConfig::kg_n());
        assert!(matches!(
            TraceReplayer::new(&trace).replay(&mut heap),
            Err(ReplayError::UnknownObject { obj: 5, .. })
        ));
    }

    #[test]
    fn multi_context_traces_replay_with_recorded_interleaving() {
        let run = |record: bool| -> (Option<Trace>, kingsguard::RunReport) {
            let mut heap = fresh(HeapConfig::kg_n());
            let recorder = record.then(|| TraceRecorder::install(&mut heap, meta()));
            let config = kingsguard::MutatorConfig::default().with_ssb_capacity(7);
            let mut a = heap.spawn_mutator_with(config);
            let mut b = heap.spawn_mutator_with(config);
            let mut last = None;
            for i in 0..200u32 {
                let (ctx, other) = if i % 2 == 0 {
                    (&mut a, &mut b)
                } else {
                    (&mut b, &mut a)
                };
                let handle = ctx.alloc(&mut heap, ObjectShape::new(1, 40), 1);
                other.write_ref(&mut heap, handle, 0, last);
                ctx.write_prim(&mut heap, handle, 0, 8);
                if let Some(previous) = last.replace(handle) {
                    heap.release(previous);
                }
            }
            a.retire(&mut heap);
            b.retire(&mut heap);
            let trace = recorder.map(|r| r.finish(&mut heap));
            (trace, heap.finish())
        };
        let (trace, live) = run(true);
        let (check, live_again) = run(false);
        assert!(check.is_none());
        assert_eq!(
            fingerprint(&live),
            fingerprint(&live_again),
            "driver is deterministic"
        );
        let mut heap = fresh(HeapConfig::kg_n());
        TraceReplayer::new(&trace.unwrap()).replay(&mut heap).unwrap();
        assert_eq!(fingerprint(&heap.finish()), fingerprint(&live));
    }

    #[test]
    fn hooks_fire_at_recorded_positions() {
        let mut heap = fresh(HeapConfig::kg_n());
        let recorder = TraceRecorder::install(&mut heap, meta());
        let handle = heap.alloc(ObjectShape::new(0, 64), 1);
        heap.trace_hook_marker(64, 128, 1);
        heap.write_prim(handle, 0, 8);
        heap.trace_hook_marker(128, 128, 2);
        let trace = recorder.finish(&mut heap);
        drop(heap.finish());

        let mut heap = fresh(HeapConfig::kg_n());
        let mut seen = Vec::new();
        let stats = TraceReplayer::new(&trace)
            .replay_with(&mut heap, |_, progress| seen.push(progress))
            .unwrap();
        assert_eq!(stats.hooks, 2);
        assert_eq!(
            seen,
            vec![
                ReplayProgress {
                    allocated_bytes: 64,
                    total_bytes: 128,
                    elapsed_ms: 1,
                },
                ReplayProgress {
                    allocated_bytes: 128,
                    total_bytes: 128,
                    elapsed_ms: 2,
                },
            ]
        );
    }
}
