//! A GraphChi-style streaming workload with a mid-run phase change.
//!
//! The paper's GraphChi programs (CC, PR, ALS) stream a graph that does not
//! fit in memory: each *interval* loads a shard of edges (large, short-lived
//! buffers) and a window of vertex values (small objects that live for a few
//! intervals), updates the vertex values while the shard is in memory, and
//! moves on. This module models the advice-quality hazard those programs
//! pose to site-based placement: halfway through the run the computation
//! switches phases — the same vertex-window allocation sites keep producing
//! objects, but the write-hot subgraph flips from group A to group B. A
//! policy that learned "group-A sites are write-hot" must *un-learn* it from
//! the demotion signal (KG-D) or keep pretenuring cold data into DRAM; a
//! static profile replay cannot adapt at all.
//!
//! Like [`crate::SyntheticMutator`], the workload is an event source
//! ([`StreamingWorkload::generate`]) that a run feeds to a
//! [`trace::Applier`]. It runs on K interleaved mutator contexts
//! (round-robin, deterministic), so aggregate statistics are independent of
//! K.

use std::collections::VecDeque;

use sim_rng::{Rng, SeedableRng, SmallRng};

use advice::SiteId;
use kingsguard::{KingsguardHeap, MutatorConfig};
use kingsguard_heap::ObjectShape;
use trace::{Applier, Trace, TraceEvent, TraceEvents};

use crate::mutator::Emitter;

/// Allocation sites of the group-A vertex windows (write-hot in the first
/// half of the run, cold afterwards). Disjoint from the synthetic DaCapo
/// site map in [`crate::sites`].
pub const GROUP_A_SITES: std::ops::Range<u32> = 64..68;
/// Allocation sites of the group-B vertex windows (cold first, write-hot in
/// the second half).
pub const GROUP_B_SITES: std::ops::Range<u32> = 68..72;
/// Allocation sites of the streamed edge buffers (large, die at the end of
/// their interval).
pub const EDGE_BUFFER_SITES: std::ops::Range<u32> = 72..76;

/// Configuration of a streaming run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Divisor applied to the nominal edge-traffic volume (256 MB), like
    /// [`crate::WorkloadConfig::scale`].
    pub scale: u64,
    /// RNG seed; runs are deterministic for a given seed.
    pub seed: u64,
    /// Interleaved mutator threads sharing the run round-robin.
    pub mutators: usize,
    /// Streaming intervals (graph shards) per phase.
    pub intervals_per_phase: usize,
    /// Vertex-window objects allocated per group per interval.
    pub window_objects: usize,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            scale: 256,
            seed: 0x6e47_7261,
            mutators: 4,
            intervals_per_phase: 6,
            window_objects: 32,
        }
    }
}

/// What the run did, for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingOutcome {
    /// Bytes allocated over the whole run.
    pub allocated_bytes: u64,
    /// Vertex updates issued to group A during phase A.
    pub phase_a_hot_writes: u64,
    /// Vertex updates issued to group B during phase B.
    pub phase_b_hot_writes: u64,
    /// Intervals processed.
    pub intervals: u64,
}

/// The streaming workload. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct StreamingWorkload {
    config: StreamingConfig,
}

impl StreamingWorkload {
    /// Creates a workload for `config`.
    pub fn new(config: StreamingConfig) -> Self {
        StreamingWorkload { config }
    }

    /// The configuration of this workload.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Runs the workload to completion on a **fresh** `heap` and reports
    /// what happened.
    pub fn run(&self, heap: &mut KingsguardHeap) -> StreamingOutcome {
        self.drive(heap, None)
    }

    /// Runs the workload like [`StreamingWorkload::run`] and also returns
    /// its events (mutator spawns, interleaved allocations and writes, the
    /// per-interval `collect_young` safepoints) as a replayable
    /// [`trace::Trace`].
    pub fn record(&self, heap: &mut KingsguardHeap) -> (StreamingOutcome, Trace) {
        let header = trace::TraceMeta {
            workload: "streaming".to_string(),
            seed: self.config.seed,
            scale: self.config.scale,
            site_map_hash: crate::sites::site_map_hash(),
        }
        .header(heap);
        let mut events = TraceEvents::default();
        let outcome = self.drive(heap, Some(&mut events));
        (outcome, Trace { header, events })
    }

    fn drive(&self, heap: &mut KingsguardHeap, recording: Option<&mut TraceEvents>) -> StreamingOutcome {
        let mut applier = Applier::new(heap).unwrap_or_else(|err| panic!("{err}"));
        self.generate(applier.sink(heap, |_, _| {}, recording))
    }

    /// Emits the workload's event stream into `emit` and reports what it
    /// did. The stream spawns contexts `1..=K`, hands each operation to the
    /// next context in turn, and ends with a safepoint.
    pub fn generate(&self, emit: impl FnMut(TraceEvent)) -> StreamingOutcome {
        let config = self.config;
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut out = Emitter::new(config.mutators.max(1), MutatorConfig::default(), emit);
        let mut outcome = StreamingOutcome::default();

        let intervals = (config.intervals_per_phase.max(1) * 2) as u64;
        let total = (256u64 << 20) / config.scale.max(1);
        let interval_bytes = (total / intervals).max(64 * 1024);

        // Vertex windows of the last few intervals stay resident (GraphChi's
        // sliding shards); older windows are released and die. Objects are
        // named by allocation index.
        let mut windows: VecDeque<(Vec<u64>, Vec<u64>)> = VecDeque::new();

        for interval in 0..intervals {
            let in_phase_b = interval >= config.intervals_per_phase as u64;

            // Load this interval's vertex windows — both subgraph groups
            // allocate every interval; only the write behaviour flips at the
            // phase change.
            let window_a = self.alloc_window(&mut out, &mut rng, GROUP_A_SITES);
            let window_b = self.alloc_window(&mut out, &mut rng, GROUP_B_SITES);
            outcome.allocated_bytes +=
                ((window_a.len() + window_b.len()) * Self::vertex_shape().size()) as u64;
            windows.push_back((window_a, window_b));
            if windows.len() > 3 {
                let (old_a, old_b) = windows.pop_front().expect("length checked");
                for obj in old_a.into_iter().chain(old_b) {
                    (out.emit)(TraceEvent::Release { obj });
                }
            }

            // Stream one shard of edges.
            let mut streamed = 0u64;
            let mut shard_buffers: Vec<u64> = Vec::new();
            while streamed < interval_bytes {
                let ctx = out.next_ctx();
                let shape = ObjectShape::primitive(rng.gen_range(9 * 1024..24 * 1024));
                streamed += shape.size() as u64;
                outcome.allocated_bytes += shape.size() as u64;
                let site = SiteId(rng.gen_range(EDGE_BUFFER_SITES.start..EDGE_BUFFER_SITES.end));
                let buffer = out.alloc(ctx, shape, 210, site);
                // The edge buffer is filled once (streamed in).
                (out.emit)(TraceEvent::WritePrim {
                    ctx,
                    src: buffer,
                    offset: 0,
                    len: 64,
                });
                shard_buffers.push(buffer);

                // Each loaded buffer drives a burst of vertex updates on the
                // currently hot subgraph, spread over the resident windows
                // (so both nursery-age and promoted vertex objects absorb
                // writes — the post-promotion ones are the learning signal).
                for _ in 0..8 {
                    let (window, counter) = {
                        let slot = &windows[rng.gen_range(0..windows.len())];
                        if in_phase_b {
                            (&slot.1, &mut outcome.phase_b_hot_writes)
                        } else {
                            (&slot.0, &mut outcome.phase_a_hot_writes)
                        }
                    };
                    let target = window[rng.gen_range(0..window.len())];
                    let ctx = out.next_ctx();
                    (out.emit)(TraceEvent::WritePrim {
                        ctx,
                        src: target,
                        offset: rng.gen_range(0..192usize) as u64,
                        len: 8,
                    });
                    *counter += 1;
                }
            }
            for obj in shard_buffers {
                (out.emit)(TraceEvent::Release { obj });
            }

            // Interval boundary: the shard swap is a natural safepoint (the
            // young collection also escalates to a full collection when the
            // accumulated shard garbage exceeds the budget, which is where
            // stale advised-DRAM vertex objects demote).
            (out.emit)(TraceEvent::Collect {
                kind: trace::CollectKind::Young,
            });
            outcome.intervals += 1;
        }

        out.finish();
        outcome
    }

    /// Shape of one vertex-value object.
    fn vertex_shape() -> ObjectShape {
        ObjectShape::new(0, 192)
    }

    fn alloc_window<F: FnMut(TraceEvent)>(
        &self,
        out: &mut Emitter<F>,
        rng: &mut SmallRng,
        sites: std::ops::Range<u32>,
    ) -> Vec<u64> {
        (0..self.config.window_objects.max(1))
            .map(|_| {
                let ctx = out.next_ctx();
                let site = SiteId(rng.gen_range(sites.start..sites.end));
                out.alloc(ctx, Self::vertex_shape(), 220, site)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::{MemoryConfig, MemoryKind};
    use kingsguard::HeapConfig;

    fn run_streaming(heap_config: HeapConfig, mutators: usize) -> (kingsguard::RunReport, (u64, u64)) {
        let mut heap = KingsguardHeap::new(
            heap_config.with_heap_budget(512 * 1024),
            MemoryConfig::architecture_independent(),
        );
        let workload = StreamingWorkload::new(StreamingConfig {
            mutators,
            ..Default::default()
        });
        let outcome = workload.run(&mut heap);
        assert!(outcome.intervals > 0);
        assert!(outcome.phase_a_hot_writes > 0);
        assert!(outcome.phase_b_hot_writes > 0);
        let adaptation = heap.policy().adaptation_counters().unwrap_or((0, 0));
        (heap.finish(), adaptation)
    }

    #[test]
    fn kg_d_unlearns_the_phase_change_and_beats_kg_n() {
        let (kg_n, _) = run_streaming(HeapConfig::kg_n(), 4);
        let (kg_d, (promotions, reversions)) = run_streaming(HeapConfig::kg_d(), 4);
        assert!(
            promotions > 0,
            "KG-D must learn the write-hot vertex sites during phase A"
        );
        assert!(
            reversions > 0,
            "the phase change must make KG-D un-learn stale group-A advice"
        );
        assert!(
            kg_d.memory.writes(MemoryKind::Pcm) <= kg_n.memory.writes(MemoryKind::Pcm),
            "KG-D ({}) must not exceed KG-N ({}) on the streaming workload",
            kg_d.memory.writes(MemoryKind::Pcm),
            kg_n.memory.writes(MemoryKind::Pcm)
        );
    }

    #[test]
    fn recorded_streaming_run_replays_bit_identically() {
        let fingerprint = |report: &kingsguard::RunReport| {
            (
                report.memory.writes(MemoryKind::Pcm),
                report.memory.writes(MemoryKind::Dram),
                report.gc.primitive_writes,
                report.gc.nursery.collections,
                report.gc.major.collections,
            )
        };
        let workload = StreamingWorkload::new(StreamingConfig::default());
        let mut heap = KingsguardHeap::new(
            HeapConfig::kg_d().with_heap_budget(512 * 1024),
            MemoryConfig::architecture_independent(),
        );
        let (outcome, trace) = workload.record(&mut heap);
        assert!(outcome.intervals > 0);
        assert_eq!(trace.header.workload, "streaming");
        let live = heap.finish();
        let mut replay_heap = KingsguardHeap::new(
            HeapConfig::kg_d().with_heap_budget(512 * 1024),
            MemoryConfig::architecture_independent(),
        );
        trace::TraceReplayer::new(&trace)
            .replay(&mut replay_heap)
            .expect("streaming trace replays");
        assert_eq!(fingerprint(&replay_heap.finish()), fingerprint(&live));
    }

    #[test]
    fn streaming_totals_are_independent_of_the_mutator_count() {
        let fingerprint = |report: &kingsguard::RunReport| {
            (
                report.memory.writes(MemoryKind::Pcm),
                report.memory.writes(MemoryKind::Dram),
                report.gc.primitive_writes,
                report.gc.nursery.collections,
            )
        };
        let (base, _) = run_streaming(HeapConfig::kg_n(), 1);
        for mutators in [2usize, 4] {
            let (report, _) = run_streaming(HeapConfig::kg_n(), mutators);
            assert_eq!(
                fingerprint(&report),
                fingerprint(&base),
                "K={mutators} diverged on the streaming workload"
            );
        }
    }
}
