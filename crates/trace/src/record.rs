//! Recording: turning a live run into a [`Trace`].
//!
//! [`TraceRecorder::install`] attaches a [`kingsguard::HeapObserver`] to a
//! **fresh** heap and converts every [`kingsguard::HeapEvent`] into its
//! persisted twin, replacing runtime [`kingsguard_heap::Handle`]s with stable
//! allocation indices. Recording is completely passive — the observer sees
//! the API stream without perturbing it — so a recorded run produces
//! statistics bit-identical to an unobserved run of the same workload.

use std::cell::RefCell;
use std::rc::Rc;

use kingsguard::{HeapEvent, HeapObserver, KingsguardHeap, ObserverId};

use crate::event::{Trace, TraceEvent, TraceEvents, TraceHeader};

/// Sentinel in the handle table for "no live allocation under this handle".
const NO_ALLOC: u64 = u64::MAX;

/// Workload provenance stamped into the trace header at install time (the
/// heap-derived fields — nursery and observer sizes — are read from the
/// heap itself).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name.
    pub workload: String,
    /// RNG seed of the workload.
    pub seed: u64,
    /// Workload scale divisor.
    pub scale: u64,
    /// Hash of the workload's allocation-site map (`0` = unhashed).
    pub site_map_hash: u64,
}

#[derive(Debug, Default)]
struct RecorderInner {
    events: TraceEvents,
    /// Live root handle (raw index) → allocation index. Root handles are
    /// dense small integers (the root table reuses released slots), so a
    /// vector beats a hash map on this per-event hot path.
    handles: Vec<u64>,
    next_alloc: u64,
}

impl RecorderInner {
    fn index_of(&self, handle: kingsguard_heap::Handle) -> u64 {
        let index = self
            .handles
            .get(handle.index() as usize)
            .copied()
            .unwrap_or(NO_ALLOC);
        if index == NO_ALLOC {
            panic!(
                "trace recorder saw handle {handle:?} with no recorded allocation; \
                 install the recorder on a fresh heap before the first allocation"
            );
        }
        index
    }

    fn map_handle(&mut self, handle: kingsguard_heap::Handle, alloc: u64) {
        let slot = handle.index() as usize;
        if self.handles.len() <= slot {
            self.handles.resize(slot + 1, NO_ALLOC);
        }
        self.handles[slot] = alloc;
    }

    fn on_event(&mut self, event: &HeapEvent) {
        let converted = match *event {
            HeapEvent::MutatorSpawned { ctx, config } => TraceEvent::Spawn {
                ctx: ctx as u32,
                config,
            },
            HeapEvent::MutatorRetired { ctx } => TraceEvent::Retire { ctx: ctx as u32 },
            HeapEvent::Alloc {
                ctx,
                handle,
                ref_slots,
                payload_bytes,
                type_id,
                site,
                large,
            } => {
                let index = self.next_alloc;
                self.next_alloc += 1;
                self.map_handle(handle, index);
                TraceEvent::Alloc {
                    ctx: ctx as u32,
                    ref_slots,
                    payload_bytes,
                    type_id,
                    site: site.0,
                    large,
                }
            }
            HeapEvent::WriteRef {
                ctx,
                src,
                slot,
                target,
            } => TraceEvent::WriteRef {
                ctx: ctx as u32,
                src: self.index_of(src),
                slot: slot as u32,
                target: target.map(|t| self.index_of(t)),
            },
            HeapEvent::WritePrim {
                ctx,
                src,
                offset,
                len,
            } => TraceEvent::WritePrim {
                ctx: ctx as u32,
                src: self.index_of(src),
                offset: offset as u64,
                len: len as u64,
            },
            HeapEvent::ReadRef { ctx, src, slot } => TraceEvent::ReadRef {
                ctx: ctx as u32,
                src: self.index_of(src),
                slot: slot as u32,
            },
            HeapEvent::ReadPrim {
                ctx,
                src,
                offset,
                len,
            } => TraceEvent::ReadPrim {
                ctx: ctx as u32,
                src: self.index_of(src),
                offset: offset as u64,
                len: len as u64,
            },
            HeapEvent::Release { handle } => {
                let obj = self.index_of(handle);
                // The handle slot will be reused by a future allocation.
                self.handles[handle.index() as usize] = NO_ALLOC;
                TraceEvent::Release { obj }
            }
            HeapEvent::Safepoint => TraceEvent::Safepoint,
            HeapEvent::Collect { kind } => TraceEvent::Collect { kind },
            HeapEvent::HookMark {
                allocated_bytes,
                total_bytes,
                elapsed_ms,
            } => TraceEvent::Hook {
                allocated_bytes,
                total_bytes,
                elapsed_ms,
            },
        };
        self.events.push(converted);
    }
}

/// The observer attached to the heap; shares its state with the
/// [`TraceRecorder`] the caller keeps.
#[derive(Debug)]
struct RecorderObserver(Rc<RefCell<RecorderInner>>);

impl HeapObserver for RecorderObserver {
    fn on_event(&mut self, event: &HeapEvent) {
        self.0.borrow_mut().on_event(event);
    }
}

/// Records the heap-event stream of one run. See the module docs.
pub struct TraceRecorder {
    header: TraceHeader,
    inner: Rc<RefCell<RecorderInner>>,
    observer: ObserverId,
}

impl TraceRecorder {
    /// Installs a recorder on `heap` and returns the handle that will yield
    /// the finished [`Trace`]. The heap must be fresh — no allocations, no
    /// spawned contexts — because events preceding installation cannot be
    /// replayed.
    ///
    /// # Panics
    ///
    /// Panics if `heap` has already allocated or spawned mutator contexts.
    pub fn install(heap: &mut KingsguardHeap, meta: TraceMeta) -> TraceRecorder {
        assert_eq!(
            heap.stats().objects_allocated,
            0,
            "trace recording must start before the first allocation"
        );
        assert_eq!(
            heap.mutator_count(),
            1,
            "trace recording must start before any mutator context is spawned"
        );
        let header = TraceHeader {
            workload: meta.workload,
            seed: meta.seed,
            scale: meta.scale,
            nursery_bytes: heap.config().nursery_bytes as u64,
            observer_bytes: heap.config().observer_bytes as u64,
            site_map_hash: meta.site_map_hash,
            // Provenance of the fault environment comes from the heap
            // itself: a replay must install the same schedule (or none) for
            // the recorded stream to reproduce bit-identically.
            fault_seed: heap
                .memory()
                .fault_model()
                .map(|model| model.config().seed)
                .unwrap_or(0),
        };
        let inner = Rc::new(RefCell::new(RecorderInner::default()));
        let observer = heap.attach_observer(Box::new(RecorderObserver(Rc::clone(&inner))));
        TraceRecorder {
            header,
            inner,
            observer,
        }
    }

    /// Number of events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Detaches the recorder from `heap` and returns the finished trace.
    pub fn finish(self, heap: &mut KingsguardHeap) -> Trace {
        drop(heap.detach_observer(self.observer));
        let inner = Rc::try_unwrap(self.inner)
            .expect("the heap's observer was just detached and dropped")
            .into_inner();
        Trace {
            header: self.header,
            events: inner.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::MemoryConfig;
    use kingsguard::HeapConfig;
    use kingsguard_heap::ObjectShape;

    fn fresh_heap() -> KingsguardHeap {
        KingsguardHeap::new(HeapConfig::kg_n(), MemoryConfig::architecture_independent())
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "unit".to_string(),
            seed: 7,
            scale: 1,
            site_map_hash: 0,
        }
    }

    #[test]
    fn records_the_mutator_visible_stream_in_order() {
        let mut heap = fresh_heap();
        let recorder = TraceRecorder::install(&mut heap, meta());
        let parent = heap.alloc(ObjectShape::new(1, 32), 1);
        let child = heap.alloc_site(ObjectShape::new(0, 64), 2, advice::SiteId(29));
        heap.write_ref(parent, 0, Some(child));
        heap.write_prim(child, 8, 16);
        heap.release(child);
        heap.collect_young();
        heap.safepoint();
        let trace = recorder.finish(&mut heap);
        assert_eq!(trace.header.nursery_bytes, heap.config().nursery_bytes as u64);
        assert_eq!(trace.allocations(), 2);
        use crate::event::TraceEvent as E;
        assert_eq!(
            trace.events,
            TraceEvents::from(vec![
                E::Alloc {
                    ctx: 0,
                    ref_slots: 1,
                    payload_bytes: 32,
                    type_id: 1,
                    site: advice::SiteId::UNKNOWN.0,
                    large: false,
                },
                E::Alloc {
                    ctx: 0,
                    ref_slots: 0,
                    payload_bytes: 64,
                    type_id: 2,
                    site: 29,
                    large: false,
                },
                E::WriteRef {
                    ctx: 0,
                    src: 0,
                    slot: 0,
                    target: Some(1),
                },
                E::WritePrim {
                    ctx: 0,
                    src: 1,
                    offset: 8,
                    len: 16,
                },
                E::Release { obj: 1 },
                E::Collect {
                    kind: kingsguard::CollectKind::Young,
                },
                E::Safepoint,
            ])
        );
    }

    #[test]
    fn handle_reuse_after_release_maps_to_fresh_indices() {
        let mut heap = fresh_heap();
        let recorder = TraceRecorder::install(&mut heap, meta());
        // The root table reuses the released slot, so both allocations get
        // the same runtime handle but distinct allocation indices.
        let first = heap.alloc(ObjectShape::new(0, 16), 1);
        heap.release(first);
        let second = heap.alloc(ObjectShape::new(0, 16), 1);
        heap.write_prim(second, 0, 8);
        let trace = recorder.finish(&mut heap);
        assert_eq!(
            trace.events.last(),
            Some(TraceEvent::WritePrim {
                ctx: 0,
                src: 1,
                offset: 0,
                len: 8,
            })
        );
    }

    #[test]
    #[should_panic(expected = "before the first allocation")]
    fn installing_on_a_used_heap_panics() {
        let mut heap = fresh_heap();
        let _obj = heap.alloc(ObjectShape::new(0, 16), 1);
        let _recorder = TraceRecorder::install(&mut heap, meta());
    }

    #[test]
    fn spawned_contexts_are_recorded_with_their_configuration() {
        let mut heap = fresh_heap();
        let recorder = TraceRecorder::install(&mut heap, meta());
        let config = kingsguard::MutatorConfig::default().with_ssb_capacity(7);
        let mut ctx = heap.spawn_mutator_with(config);
        let handle = ctx.alloc(&mut heap, ObjectShape::new(0, 32), 3);
        ctx.write_prim(&mut heap, handle, 0, 8);
        ctx.retire(&mut heap);
        let trace = recorder.finish(&mut heap);
        assert_eq!(trace.events.get(0), Some(TraceEvent::Spawn { ctx: 1, config }));
        assert_eq!(trace.events.last(), Some(TraceEvent::Retire { ctx: 1 }));
    }
}
