//! Oracle test of the applier: the calls a heap receives while a workload
//! runs are exactly the events the workload generated.
//!
//! Live, recorded and replayed runs all apply a generated stream through
//! `trace::Applier`, so no record/replay comparison can notice an `apply`
//! arm that issues the wrong call. This test watches the heap from the
//! other side. A `HeapObserver` sees every mutator-visible call in the
//! heap's own vocabulary (handles), and the converter below maps it back
//! to allocation indices — the observer recorder this repository used to
//! record traces with, kept here as the oracle. The converted stream must
//! equal the generated one minus its hook markers, which issue no call.

use std::cell::RefCell;
use std::rc::Rc;

use hybrid_mem::MemoryConfig;
use kingsguard::{HeapConfig, HeapEvent, HeapObserver, KingsguardHeap, MutatorConfig};
use kingsguard_heap::Handle;
use trace::{Trace, TraceEvent};
use workloads::{benchmark, StreamingConfig, StreamingWorkload, SyntheticMutator, WorkloadConfig};

/// Sentinel in the handle table for "no live allocation under this handle".
const NO_ALLOC: u64 = u64::MAX;

/// Converts the heap's events to trace events as it sees them.
#[derive(Debug, Default)]
struct Converter {
    events: Vec<TraceEvent>,
    /// Live root handle (raw index) → allocation index. The root table
    /// reuses released slots, so one handle names many allocations in turn.
    handles: Vec<u64>,
    next_alloc: u64,
}

impl Converter {
    fn index_of(&self, handle: Handle) -> u64 {
        match self.handles.get(handle.index() as usize) {
            Some(&index) if index != NO_ALLOC => index,
            _ => panic!("handle {handle:?} names no live allocation"),
        }
    }

    fn convert(&mut self, event: &HeapEvent) -> TraceEvent {
        match *event {
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
                let slot = handle.index() as usize;
                if self.handles.len() <= slot {
                    self.handles.resize(slot + 1, NO_ALLOC);
                }
                self.handles[slot] = self.next_alloc;
                self.next_alloc += 1;
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
                self.handles[handle.index() as usize] = NO_ALLOC;
                TraceEvent::Release { obj }
            }
            HeapEvent::Safepoint => TraceEvent::Safepoint,
            HeapEvent::Collect { kind } => TraceEvent::Collect { kind },
        }
    }
}

#[derive(Debug)]
struct Oracle(Rc<RefCell<Converter>>);

impl HeapObserver for Oracle {
    fn on_event(&mut self, event: &HeapEvent) {
        let mut converter = self.0.borrow_mut();
        let converted = converter.convert(event);
        converter.events.push(converted);
    }
}

/// Records a workload on a fresh heap with the oracle attached, then
/// checks the oracle's stream against the recorded one.
fn assert_calls_match(
    label: &str,
    heap_config: HeapConfig,
    record: impl FnOnce(&mut KingsguardHeap) -> Trace,
) {
    let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
    let converter = Rc::new(RefCell::new(Converter::default()));
    let id = heap.attach_observer(Box::new(Oracle(Rc::clone(&converter))));
    let recorded = record(&mut heap);
    drop(heap.detach_observer(id));
    drop(heap.finish());
    let observed = Rc::try_unwrap(converter)
        .expect("the heap dropped its observer")
        .into_inner()
        .events;

    let generated: Vec<TraceEvent> = recorded
        .events
        .iter()
        .filter(|event| !matches!(event, TraceEvent::Hook { .. }))
        .collect();
    assert!(generated.len() > 1_000, "{label}: only {} calls", generated.len());
    assert_eq!(observed.len(), generated.len(), "{label}: call counts differ");
    if let Some(at) = observed
        .iter()
        .zip(&generated)
        .position(|(seen, made)| seen != made)
    {
        panic!(
            "{label}: call {at} was {:?}, the stream said {:?}",
            observed[at], generated[at]
        );
    }
}

fn synthetic(name: &str, seed: u64) -> (SyntheticMutator, HeapConfig) {
    let profile = benchmark(name).unwrap();
    let scale = 2048;
    let heap_config = profile.heap_config(HeapConfig::kg_n(), scale);
    (
        SyntheticMutator::new(profile, WorkloadConfig { scale, seed }),
        heap_config,
    )
}

#[test]
fn single_context_calls_are_the_generated_stream() {
    let (mutator, heap_config) = synthetic("lusearch", 7);
    assert_calls_match("lusearch K=1", heap_config, |heap| mutator.record(heap));
}

#[test]
fn round_robin_calls_are_the_generated_stream() {
    let (mutator, heap_config) = synthetic("pmd", 11);
    let context = MutatorConfig::default().with_ssb_capacity(7);
    assert_calls_match("pmd K=4 ssb 7", heap_config, |heap| {
        mutator.record_multi_configured(heap, 4, context)
    });
}

#[test]
fn streaming_calls_are_the_generated_stream() {
    let workload = StreamingWorkload::new(StreamingConfig::default());
    assert_calls_match(
        "streaming K=4",
        HeapConfig::kg_n().with_heap_budget(workloads::STREAMING_HEAP_BUDGET_BYTES),
        |heap| workload.record(heap).1,
    );
}
