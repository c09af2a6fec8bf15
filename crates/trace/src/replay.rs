//! Replay: driving a heap from a stored [`Trace`].
//!
//! [`TraceReplayer::replay`] checks the trace header against the heap and
//! then hands every event to an [`Applier`], the same stepping type a live
//! run feeds its generator's events to. The heap may run **any** placement
//! policy; its nursery and observer sizes must match the recording heap's.
//! The heap simulator is deterministic and the stream is the complete
//! mutator-visible API history (mutator spawn configurations included, so
//! TLAB and store-buffer behaviour reproduce exactly), so a replay against
//! the recording configuration is bit-identical to the live run: same
//! PCM/DRAM write counts, same line statistics, same collector counters.
//! Replaying against a *different* policy answers "what would this
//! collector have done on the same program?" without re-running workload
//! logic.

use kingsguard::KingsguardHeap;

use crate::apply::{Applier, ReplayError, ReplayProgress, ReplayStats};
use crate::event::Trace;

/// Replays a [`Trace`] against a heap. See the module docs.
pub struct TraceReplayer<'t> {
    trace: &'t Trace,
}

impl<'t> TraceReplayer<'t> {
    /// Creates a replayer over `trace`.
    pub fn new(trace: &'t Trace) -> Self {
        TraceReplayer { trace }
    }

    /// Replays the full event stream against `heap`, ignoring hook events.
    /// The heap is left one [`KingsguardHeap::finish`] away from its
    /// end-of-run report.
    pub fn replay(&self, heap: &mut KingsguardHeap) -> Result<ReplayStats, ReplayError> {
        self.replay_with(heap, |_, _| {})
    }

    /// Replays the full event stream, invoking `hook` at every hook event —
    /// the same cadence the recording run's periodic hook ran at, which is
    /// how hook-driven baselines (e.g. OS Write Partitioning) replay their
    /// mid-run work.
    pub fn replay_with(
        &self,
        heap: &mut KingsguardHeap,
        mut hook: impl FnMut(&mut KingsguardHeap, ReplayProgress),
    ) -> Result<ReplayStats, ReplayError> {
        let mut applier = Applier::new(heap)?;
        let header = &self.trace.header;
        for (what, recorded, current) in [
            ("nursery", header.nursery_bytes, heap.config().nursery_bytes),
            ("observer", header.observer_bytes, heap.config().observer_bytes),
        ] {
            if current as u64 != recorded {
                return Err(ReplayError::ConfigMismatch {
                    what,
                    recorded,
                    current: current as u64,
                });
            }
        }
        applier.reserve_objects(self.trace.allocations() as usize);
        for event in self.trace.events.iter() {
            applier.apply(heap, event, &mut hook)?;
        }
        Ok(applier.finish(heap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceEvents, TraceHeader};
    use hybrid_mem::{MemoryConfig, MemoryKind};
    use kingsguard::HeapConfig;
    use kingsguard_heap::ObjectShape;

    fn fresh(config: HeapConfig) -> KingsguardHeap {
        KingsguardHeap::new(config, MemoryConfig::architecture_independent())
    }

    fn trace_for(config: &HeapConfig, events: TraceEvents) -> Trace {
        Trace {
            header: TraceHeader {
                workload: "unit".to_string(),
                seed: 1,
                scale: 1,
                nursery_bytes: config.nursery_bytes as u64,
                observer_bytes: config.observer_bytes as u64,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events,
        }
    }

    /// Runs a small hand-written program on context 0, writing down the
    /// event each call corresponds to, and returns that stream plus the live
    /// run's report.
    fn record_sample(config: HeapConfig) -> (Trace, kingsguard::RunReport) {
        let mut heap = fresh(config.clone());
        let mut m = heap.default_mutator().unwrap();
        let mut events = TraceEvents::default();
        let mut keep = Vec::new();
        for i in 0..300u32 {
            let index = u64::from(i);
            let shape = ObjectShape::new((i % 3) as u16, 24 + (i % 80));
            let (type_id, site) = (1 + (i % 9) as u16, advice::SiteId(21 + (i % 8)));
            let handle = m.alloc_site(&mut heap, shape, type_id, site);
            events.push(TraceEvent::alloc(0, shape, type_id, site));
            m.write_prim(&mut heap, handle, (i as usize) % 64, 8);
            events.push(TraceEvent::WritePrim {
                ctx: 0,
                src: index,
                offset: index % 64,
                len: 8,
            });
            if shape.ref_slots > 0 {
                let target: Option<(_, u64)> = keep.last().copied();
                m.write_ref(&mut heap, handle, 0, target.map(|(handle, _)| handle));
                events.push(TraceEvent::WriteRef {
                    ctx: 0,
                    src: index,
                    slot: 0,
                    target: target.map(|(_, index)| index),
                });
            }
            if i % 4 == 0 {
                keep.push((handle, index));
            } else {
                heap.release(handle);
                events.push(TraceEvent::Release { obj: index });
            }
        }
        let shape = ObjectShape::primitive(16 * 1024);
        let big = m.alloc(&mut heap, shape, 200);
        events.push(TraceEvent::alloc(0, shape, 200, advice::SiteId::UNKNOWN));
        m.write_prim(&mut heap, big, 100, 32);
        events.push(TraceEvent::WritePrim {
            ctx: 0,
            src: 300,
            offset: 100,
            len: 32,
        });
        heap.collect_young();
        events.push(TraceEvent::Collect {
            kind: kingsguard::CollectKind::Young,
        });
        for (handle, index) in keep.drain(..) {
            heap.release(handle);
            events.push(TraceEvent::Release { obj: index });
        }
        (trace_for(&config, events), heap.finish())
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
        let mut used = fresh(HeapConfig::kg_n());
        let mut m = used.default_mutator().unwrap();
        m.alloc(&mut used, ObjectShape::new(0, 16), 1);
        // A heap whose context 0 is already held elsewhere is used too.
        let mut handed_out = fresh(HeapConfig::kg_n());
        let _m = handed_out.default_mutator();
        for mut heap in [used, handed_out] {
            assert!(matches!(
                TraceReplayer::new(&trace).replay(&mut heap),
                Err(ReplayError::HeapNotFresh)
            ));
        }
    }

    #[test]
    fn replay_rejects_spawning_or_retiring_context_0() {
        let spawn0 = TraceEvent::Spawn {
            ctx: 0,
            config: kingsguard::MutatorConfig::default(),
        };
        for events in [
            vec![spawn0],
            vec![
                TraceEvent::alloc(0, ObjectShape::new(0, 64), 1, advice::SiteId::UNKNOWN),
                TraceEvent::Retire { ctx: 0 },
            ],
        ] {
            let at = events.len() as u64 - 1;
            let trace = trace_for(&HeapConfig::kg_n(), events.into());
            let mut heap = fresh(HeapConfig::kg_n());
            match TraceReplayer::new(&trace).replay(&mut heap) {
                Err(ReplayError::PermanentContext { event }) => assert_eq!(event, at),
                other => panic!("expected a permanent-context error, got {other:?}"),
            }
        }
    }

    #[test]
    fn replay_rejects_dangling_object_references() {
        let trace = trace_for(
            &HeapConfig::kg_n(),
            vec![TraceEvent::WritePrim {
                ctx: 0,
                src: 5,
                offset: 0,
                len: 8,
            }]
            .into(),
        );
        let mut heap = fresh(HeapConfig::kg_n());
        assert!(matches!(
            TraceReplayer::new(&trace).replay(&mut heap),
            Err(ReplayError::UnknownObject { obj: 5, .. })
        ));
    }

    #[test]
    fn multi_context_traces_replay_with_recorded_interleaving() {
        let mut heap = fresh(HeapConfig::kg_n());
        let mut events = TraceEvents::default();
        let config = kingsguard::MutatorConfig::default().with_ssb_capacity(7);
        let mut a = heap.spawn_mutator_with(config);
        let mut b = heap.spawn_mutator_with(config);
        events.push(TraceEvent::Spawn { ctx: 1, config });
        events.push(TraceEvent::Spawn { ctx: 2, config });
        let mut last: Option<(_, u64)> = None;
        for i in 0..200u64 {
            let (ctx, other, ids) = if i % 2 == 0 {
                (&mut a, &mut b, (1, 2))
            } else {
                (&mut b, &mut a, (2, 1))
            };
            let shape = ObjectShape::new(1, 40);
            let handle = ctx.alloc(&mut heap, shape, 1);
            events.push(TraceEvent::alloc(ids.0, shape, 1, advice::SiteId::UNKNOWN));
            other.write_ref(&mut heap, handle, 0, last.map(|(handle, _)| handle));
            events.push(TraceEvent::WriteRef {
                ctx: ids.1,
                src: i,
                slot: 0,
                target: last.map(|(_, index)| index),
            });
            ctx.write_prim(&mut heap, handle, 0, 8);
            events.push(TraceEvent::WritePrim {
                ctx: ids.0,
                src: i,
                offset: 0,
                len: 8,
            });
            if let Some((previous, index)) = last.replace((handle, i)) {
                heap.release(previous);
                events.push(TraceEvent::Release { obj: index });
            }
        }
        a.retire(&mut heap);
        b.retire(&mut heap);
        events.push(TraceEvent::Retire { ctx: 1 });
        events.push(TraceEvent::Retire { ctx: 2 });
        let live = heap.finish();

        let trace = trace_for(&HeapConfig::kg_n(), events);
        let mut heap = fresh(HeapConfig::kg_n());
        TraceReplayer::new(&trace).replay(&mut heap).unwrap();
        assert_eq!(fingerprint(&heap.finish()), fingerprint(&live));
    }

    #[test]
    fn hooks_fire_at_recorded_positions() {
        let progress = |allocated_bytes, elapsed_ms| ReplayProgress {
            allocated_bytes,
            total_bytes: 128,
            elapsed_ms,
        };
        let hook = |progress: ReplayProgress| TraceEvent::Hook {
            allocated_bytes: progress.allocated_bytes,
            total_bytes: progress.total_bytes,
            elapsed_ms: progress.elapsed_ms,
        };
        let trace = trace_for(
            &HeapConfig::kg_n(),
            vec![
                TraceEvent::alloc(0, ObjectShape::new(0, 64), 1, advice::SiteId::UNKNOWN),
                hook(progress(64, 1)),
                TraceEvent::WritePrim {
                    ctx: 0,
                    src: 0,
                    offset: 0,
                    len: 8,
                },
                hook(progress(128, 2)),
            ]
            .into(),
        );
        let mut heap = fresh(HeapConfig::kg_n());
        let mut seen = Vec::new();
        let stats = TraceReplayer::new(&trace)
            .replay_with(&mut heap, |_, progress| seen.push(progress))
            .unwrap();
        assert_eq!(stats.hooks, 2);
        assert_eq!(seen, vec![progress(64, 1), progress(128, 2)]);
    }
}
