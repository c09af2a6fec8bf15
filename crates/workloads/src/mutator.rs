//! The synthetic mutator.
//!
//! A workload is an event source. [`SyntheticMutator::generate`] emits the
//! benchmark's program as [`TraceEvent`]s — allocations named by allocation
//! index, reference and primitive writes, releases and hook markers — so
//! that the observable behaviour (allocation volume, object lifetimes, the
//! nursery/mature split of writes, the concentration of mature writes in a
//! few hot objects, large-object behaviour and inter-object pointer writes)
//! matches the per-benchmark profile. It needs nothing from the heap but
//! its nursery and observer sizes. Running the workload feeds the events to
//! a [`trace::Applier`]; recording it keeps them as well; so live,
//! recorded and replayed runs issue the same heap calls. Every allocation
//! is tagged with a synthetic allocation site (see [`crate::sites`]) whose
//! behaviour class is decided *before* the object is born, so per-site
//! profiles collected from one run are predictive in the next. Everything
//! is deterministic given the seed.

use std::collections::VecDeque;

use sim_rng::{Rng, SeedableRng, SmallRng};

use advice::SiteId;
use kingsguard::{KingsguardHeap, MutatorConfig};
use kingsguard_heap::ObjectShape;
use trace::{Applier, Trace, TraceEvent, TraceEvents};

use crate::profile::{BenchmarkProfile, MIN_ALLOCATION_BYTES, MIN_LIVE_TARGET_BYTES};
use crate::sites::{site_for, AllocClass};

/// Configuration of a synthetic workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Divisor applied to the paper's allocation volume and heap size.
    /// The default of 256 turns multi-GB benchmarks into tens of MB.
    pub scale: u64,
    /// RNG seed (runs are deterministic for a given seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            scale: 256,
            seed: 0x5eed_1234,
        }
    }
}

/// Progress snapshot passed to the periodic hook of
/// [`SyntheticMutator::run_with`]: the `trace` crate's progress type, which
/// replays hand to the same hooks. Its `elapsed_ms` assumes
/// [`SyntheticMutator::BYTES_PER_MS`].
pub use trace::ReplayProgress as MutatorProgress;

#[derive(Clone, Copy, Debug)]
struct LiveObject {
    /// Allocation index.
    index: u64,
    expires_at: u64,
    ref_slots: u16,
    payload_bytes: u32,
}

/// A deterministic synthetic mutator for one benchmark profile.
#[derive(Clone, Debug)]
pub struct SyntheticMutator {
    profile: BenchmarkProfile,
    config: WorkloadConfig,
}

impl SyntheticMutator {
    /// Nominal allocation rate used to convert allocated bytes into elapsed
    /// milliseconds for the OS baseline. The value (16 KB per millisecond)
    /// is chosen so that even the scaled-down runs of low-allocation
    /// benchmarks span enough 10 ms OS quanta for the Write Partitioning
    /// baseline's ranking and migration to operate, while high-allocation
    /// benchmarks span hundreds of quanta as they do in the paper's runs.
    pub const BYTES_PER_MS: u64 = 16 * 1024;

    /// Creates a mutator for `profile` with `config`.
    pub fn new(profile: BenchmarkProfile, config: WorkloadConfig) -> Self {
        SyntheticMutator { profile, config }
    }

    /// The benchmark profile this mutator models.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Runs the workload to completion on a **fresh** `heap`.
    pub fn run(&self, heap: &mut KingsguardHeap) {
        self.run_with(heap, |_, _| {});
    }

    /// Runs the workload, invoking `hook` roughly every 1/200th of the
    /// allocation volume (used to drive the OS Write Partitioning baseline
    /// and to take additional measurements mid-run).
    pub fn run_with(
        &self,
        heap: &mut KingsguardHeap,
        hook: impl FnMut(&mut KingsguardHeap, MutatorProgress),
    ) {
        self.drive(heap, 0, MutatorConfig::default(), hook, None);
    }

    /// Runs the workload over `mutators` interleaved mutator threads, each
    /// with its own [`kingsguard::MutatorContext`] configured by `config`
    /// (TLAB, store buffer, counter shard), sharing one object graph. The op
    /// stream and its global order are identical to
    /// [`SyntheticMutator::run`], so in architecture-independent mode (no
    /// cache hierarchy) aggregate statistics are exactly independent of
    /// `mutators` — the conformance suite pins this. With caches enabled,
    /// batching reorders the modeled metadata accesses and totals may
    /// differ slightly between mutator counts. A final safepoint drains
    /// every context before returning; the returned vector holds each
    /// context's attributed device traffic, in spawn order.
    pub fn run_multi_configured(
        &self,
        heap: &mut KingsguardHeap,
        mutators: usize,
        config: MutatorConfig,
        hook: impl FnMut(&mut KingsguardHeap, MutatorProgress),
    ) -> Vec<hybrid_mem::ShardStats> {
        self.drive(heap, mutators.max(1), config, hook, None)
            .traffic(heap)
    }

    /// Runs the workload on a **fresh** `heap` like
    /// [`SyntheticMutator::run`] and returns its events as a
    /// [`trace::Trace`]. Replaying the trace with [`trace::TraceReplayer`]
    /// against any collector reproduces that collector's live run exactly
    /// while skipping workload generation — record one trace per benchmark,
    /// replay it under every policy.
    pub fn record(&self, heap: &mut KingsguardHeap) -> Trace {
        self.record_with(heap, |_, _| {})
    }

    /// [`SyntheticMutator::record`] with the progress hook of
    /// [`SyntheticMutator::run_with`]. The trace keeps the hook markers, so
    /// hook-driven baselines (e.g. OS Write Partitioning) replay their
    /// mid-run work at the same stream positions.
    pub fn record_with(
        &self,
        heap: &mut KingsguardHeap,
        hook: impl FnMut(&mut KingsguardHeap, MutatorProgress),
    ) -> Trace {
        self.record_driven(heap, 0, MutatorConfig::default(), hook)
    }

    /// Records a [`SyntheticMutator::run_multi_configured`] execution: the
    /// trace captures the K-context round-robin interleaving and each
    /// context's configuration, so the replay reproduces TLAB carving and
    /// store-buffer drain points exactly.
    pub fn record_multi_configured(
        &self,
        heap: &mut KingsguardHeap,
        mutators: usize,
        config: MutatorConfig,
    ) -> Trace {
        self.record_driven(heap, mutators.max(1), config, |_, _| {})
    }

    fn record_driven(
        &self,
        heap: &mut KingsguardHeap,
        contexts: usize,
        config: MutatorConfig,
        hook: impl FnMut(&mut KingsguardHeap, MutatorProgress),
    ) -> Trace {
        let header = trace::TraceMeta {
            workload: self.profile.name.to_string(),
            seed: self.config.seed,
            scale: self.config.scale,
            site_map_hash: crate::sites::site_map_hash(),
        }
        .header(heap);
        let mut events = TraceEvents::default();
        self.drive(heap, contexts, config, hook, Some(&mut events));
        Trace { header, events }
    }

    /// Feeds the generated stream to `heap` through an applier (and to
    /// `recording`, when given).
    fn drive(
        &self,
        heap: &mut KingsguardHeap,
        contexts: usize,
        config: MutatorConfig,
        hook: impl FnMut(&mut KingsguardHeap, MutatorProgress),
        recording: Option<&mut TraceEvents>,
    ) -> Applier {
        let nursery_bytes = heap.config().nursery_bytes as u64;
        let observer_bytes = heap.config().observer_bytes as u64;
        let mut applier = Applier::new(heap).unwrap_or_else(|err| panic!("{err}"));
        self.generate(
            nursery_bytes,
            observer_bytes,
            contexts,
            config,
            applier.sink(heap, hook, recording),
        );
        applier
    }

    /// Emits the workload's event stream into `emit`, sizing object
    /// lifetimes from the heap's nursery and observer sizes.
    ///
    /// With `contexts == 0` every event runs on the heap's built-in context
    /// 0. Otherwise the stream first spawns contexts `1..=contexts` with
    /// `config`, runs each iteration of the workload on the next one in
    /// round-robin order (a deterministic schedule, as the simulator
    /// requires) and ends with a safepoint. The op stream is the same
    /// either way (one RNG, one global order); only the context performing
    /// each operation changes.
    pub fn generate(
        &self,
        nursery_bytes: u64,
        observer_bytes: u64,
        contexts: usize,
        config: MutatorConfig,
        emit: impl FnMut(TraceEvent),
    ) {
        let mut out = Emitter::new(contexts, config, emit);

        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ hash_name(self.profile.name));
        let profile = &self.profile;
        let total = profile
            .scaled_allocation_bytes(self.config.scale)
            .max(MIN_ALLOCATION_BYTES);
        let target_live = (profile.scaled_heap_bytes(self.config.scale) / 2).max(MIN_LIVE_TARGET_BYTES);

        // Short-lived objects (die within a fraction of a nursery) and
        // medium-lived objects (die while under observation) are kept in
        // separate queues so that a medium-lived object at the head of the
        // queue never delays the release of the short-lived objects
        // allocated after it.
        let mut young: VecDeque<LiveObject> = VecDeque::new();
        let mut observed: VecDeque<LiveObject> = VecDeque::new();
        let mut mature: VecDeque<LiveObject> = VecDeque::new();
        let mut hot: Vec<LiveObject> = Vec::new();
        let mut large_mature: Vec<LiveObject> = Vec::new();

        let mut allocated: u64 = 0;
        let mut large_allocated: u64 = 0;
        let mut mature_live_bytes: u64 = 0;
        let mut write_debt: f64 = 0.0;
        let hook_interval = (total / 200).max(64 * 1024);
        let mut next_hook = hook_interval;

        while allocated < total {
            // Each iteration runs on the next mutator thread.
            let ctx = out.next_ctx();

            // ---- behaviour class, then site, then allocation -------------
            // The lifetime/hotness class is rolled *before* the allocation
            // (a real allocation site fixes the behaviour of the objects
            // born at it), and the site is drawn from the class's range.
            let want_large = (large_allocated as f64) < profile.large_alloc_fraction * allocated as f64;
            let roll: f64 = rng.gen();
            let short = roll < 1.0 - profile.nursery_survival;
            let observed_class = !short && roll < 1.0 - profile.nursery_survival * profile.observer_survival;
            let hot_target =
                ((mature.len() + hot.len()) as f64 * BenchmarkProfile::HOT_OBJECT_FRACTION).ceil() as usize;
            let goes_hot = !want_large && !short && !observed_class && hot.len() < hot_target.max(1);
            let class = AllocClass {
                large: want_large,
                short,
                observed: observed_class,
                hot: goes_hot,
            };
            let site = site_for(&mut rng, class);

            let shape = if want_large {
                ObjectShape::primitive(rng.gen_range(9 * 1024..40 * 1024))
            } else {
                let ref_slots = [0u16, 0, 1, 1, 2, 3][rng.gen_range(0..6)];
                let payload = rng.gen_range(16u32..112);
                ObjectShape::new(ref_slots, payload)
            };
            let size = shape.size() as u64;
            let type_id = if want_large { 200 } else { rng.gen_range(1u16..100) };
            let index = out.alloc(ctx, shape, type_id, site);
            allocated += size;
            if want_large {
                large_allocated += size;
            }

            // ---- queue by lifetime class ---------------------------------
            let object = LiveObject {
                index,
                expires_at: 0,
                ref_slots: shape.ref_slots,
                payload_bytes: shape.payload_bytes,
            };
            if short {
                // Dies well before its first nursery collection: short-lived
                // objects in Java die within a small fraction of a nursery.
                let lifetime = rng.gen_range(0..(nursery_bytes / 16).max(1));
                young.push_back(LiveObject {
                    expires_at: allocated + lifetime,
                    ..object
                });
            } else if observed_class {
                // Survives the nursery but dies while (or shortly after)
                // being observed.
                let lifetime = nursery_bytes + rng.gen_range(0..(observer_bytes * 2).max(1));
                observed.push_back(LiveObject {
                    expires_at: allocated + lifetime,
                    ..object
                });
            } else {
                // Long-lived.
                mature_live_bytes += size;
                if want_large {
                    large_mature.push(object);
                } else if goes_hot {
                    hot.push(object);
                } else {
                    mature.push_back(object);
                }
            }

            // ---- build the object graph ----------------------------------
            // Occasionally link the newcomer to the most recent young object
            // and, more rarely, link a random mature object to the newcomer
            // (an old-to-young pointer that exercises the remembered sets).
            // Pointer-installed young objects stay reachable until the slot
            // is overwritten, so these probabilities are kept low to preserve
            // the profile's nursery survival rate.
            if shape.ref_slots > 0 && rng.gen_bool(0.2) {
                if let Some(donor) = young.back() {
                    (out.emit)(TraceEvent::WriteRef {
                        ctx,
                        src: index,
                        slot: u32::from(rng.gen_range(0..shape.ref_slots)),
                        target: Some(donor.index),
                    });
                }
            }
            if !mature.is_empty() && rng.gen_bool(0.1) {
                let idx = rng.gen_range(0..mature.len());
                let parent = mature[idx];
                if parent.ref_slots > 0 {
                    (out.emit)(TraceEvent::WriteRef {
                        ctx,
                        src: parent.index,
                        slot: u32::from(rng.gen_range(0..parent.ref_slots)),
                        target: Some(index),
                    });
                }
            }

            // ---- expire dead young and observed objects ------------------
            for queue in [&mut young, &mut observed] {
                while let Some(front) = queue.front() {
                    if front.expires_at <= allocated {
                        (out.emit)(TraceEvent::Release { obj: front.index });
                        queue.pop_front();
                    } else {
                        break;
                    }
                }
            }
            // ---- bound the long-lived working set ------------------------
            while mature_live_bytes > target_live {
                let Some(victim) = mature.pop_front().or_else(|| large_mature.pop()) else {
                    break;
                };
                mature_live_bytes -= ObjectShape::new(victim.ref_slots, victim.payload_bytes).size() as u64;
                (out.emit)(TraceEvent::Release { obj: victim.index });
            }

            // ---- issue application writes --------------------------------
            write_debt += size as f64 / 1024.0 * profile.writes_per_kb;
            while write_debt >= 1.0 {
                write_debt -= 1.0;
                if let Some(write) = self.pick_write(&mut rng, ctx, &young, &mature, &hot, &large_mature) {
                    (out.emit)(write);
                }
            }

            // ---- periodic hook -------------------------------------------
            if allocated >= next_hook {
                next_hook += hook_interval;
                (out.emit)(Self::hook(allocated, total));
            }
        }

        // Final hook so observers see the end-of-run state.
        (out.emit)(Self::hook(allocated, total));
        out.finish();
    }

    /// The hook marker after `allocated` of `total` bytes.
    fn hook(allocated: u64, total: u64) -> TraceEvent {
        TraceEvent::Hook {
            allocated_bytes: allocated,
            total_bytes: total,
            elapsed_ms: allocated / Self::BYTES_PER_MS,
        }
    }

    /// Picks one application write according to the profile's
    /// demographics (`None` when there is nothing to write).
    fn pick_write(
        &self,
        rng: &mut SmallRng,
        ctx: u32,
        young: &VecDeque<LiveObject>,
        mature: &VecDeque<LiveObject>,
        hot: &[LiveObject],
        large_mature: &[LiveObject],
    ) -> Option<TraceEvent> {
        let profile = &self.profile;
        let to_nursery = rng.gen_bool(profile.nursery_write_fraction) && !young.is_empty();
        let target = if to_nursery {
            // Recently allocated objects absorb nursery writes.
            let window = young.len().min(32);
            young[young.len() - 1 - rng.gen_range(0..window)]
        } else if !large_mature.is_empty() && rng.gen_bool(profile.large_write_fraction) {
            large_mature[rng.gen_range(0..large_mature.len())]
        } else if !hot.is_empty() && rng.gen_bool(profile.hot_mature_share) {
            hot[rng.gen_range(0..hot.len())]
        } else if !mature.is_empty() {
            mature[rng.gen_range(0..mature.len())]
        } else if !hot.is_empty() {
            hot[rng.gen_range(0..hot.len())]
        } else if !young.is_empty() {
            young[rng.gen_range(0..young.len())]
        } else {
            return None;
        };

        let primitive = rng.gen_bool(profile.primitive_write_fraction) || target.ref_slots == 0;
        if primitive {
            if target.payload_bytes == 0 {
                return None;
            }
            return Some(TraceEvent::WritePrim {
                ctx,
                src: target.index,
                offset: rng.gen_range(0..target.payload_bytes as usize) as u64,
                len: 8,
            });
        }
        // Reference writes install pointers to the most recent young
        // object or to another mature object.
        let slot = u32::from(rng.gen_range(0..target.ref_slots));
        let pointee = if rng.gen_bool(0.3) {
            young.back().map(|o| o.index)
        } else if !mature.is_empty() {
            Some(mature[rng.gen_range(0..mature.len())].index)
        } else {
            hot.first().map(|o| o.index)
        };
        Some(TraceEvent::WriteRef {
            ctx,
            src: target.index,
            slot,
            target: pointee,
        })
    }
}

/// A generator's sink, with its round-robin context schedule and its
/// allocation counter.
pub(crate) struct Emitter<F> {
    pub(crate) emit: F,
    contexts: u32,
    turn: u32,
    next_alloc: u64,
}

impl<F: FnMut(TraceEvent)> Emitter<F> {
    /// Spawns contexts `1..=contexts`, each with `config`; with none, every
    /// event runs on the heap's built-in context 0.
    pub(crate) fn new(contexts: usize, config: MutatorConfig, mut emit: F) -> Self {
        let contexts = contexts as u32;
        for ctx in 1..=contexts {
            emit(TraceEvent::Spawn { ctx, config });
        }
        Emitter {
            emit,
            contexts,
            turn: 0,
            next_alloc: 0,
        }
    }

    /// The context whose turn it is; the turn passes on.
    pub(crate) fn next_ctx(&mut self) -> u32 {
        if self.contexts == 0 {
            return 0;
        }
        self.turn += 1;
        (self.turn - 1) % self.contexts + 1
    }

    /// Emits an allocation on `ctx` and returns its allocation index.
    pub(crate) fn alloc(&mut self, ctx: u32, shape: ObjectShape, type_id: u16, site: SiteId) -> u64 {
        (self.emit)(TraceEvent::alloc(ctx, shape, type_id, site));
        self.next_alloc += 1;
        self.next_alloc - 1
    }

    /// Ends a stream that spawned contexts with the safepoint that drains
    /// them.
    pub(crate) fn finish(mut self) {
        if self.contexts > 0 {
            (self.emit)(TraceEvent::Safepoint);
        }
    }
}

fn hash_name(name: &str) -> u64 {
    crate::sites::fnv1a(name.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::benchmark;
    use hybrid_mem::MemoryConfig;
    use kingsguard::HeapConfig;

    fn quick_config() -> WorkloadConfig {
        WorkloadConfig {
            scale: 2048,
            seed: 42,
        }
    }

    fn run(profile_name: &str, heap_config: HeapConfig) -> kingsguard::RunReport {
        let profile = benchmark(profile_name).unwrap();
        let scale = quick_config().scale;
        let heap_config = profile.heap_config(heap_config, scale);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        let mutator = SyntheticMutator::new(profile, quick_config());
        mutator.run(&mut heap);
        heap.finish()
    }

    #[test]
    fn workload_is_deterministic_for_a_seed() {
        let profile = benchmark("pmd").unwrap();
        let config = quick_config();
        let mut reports = Vec::new();
        for _ in 0..2 {
            let heap_config = profile.heap_config(HeapConfig::kg_n(), config.scale);
            let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
            SyntheticMutator::new(profile.clone(), config).run(&mut heap);
            reports.push(heap.finish());
        }
        assert_eq!(
            (
                reports[0].gc.objects_allocated,
                reports[0].gc.bytes_allocated,
                reports[0].gc.nursery.collections,
                reports[0].gc.primitive_writes
            ),
            (
                reports[1].gc.objects_allocated,
                reports[1].gc.bytes_allocated,
                reports[1].gc.nursery.collections,
                reports[1].gc.primitive_writes
            )
        );
        assert_eq!(reports[0].gc.reference_writes, reports[1].gc.reference_writes);
        assert_eq!(
            reports[0].memory.writes(hybrid_mem::MemoryKind::Pcm),
            reports[1].memory.writes(hybrid_mem::MemoryKind::Pcm)
        );
    }

    #[test]
    fn nursery_write_fraction_tracks_profile() {
        for name in ["lusearch", "bloat"] {
            let report = run(name, HeapConfig::kg_n());
            let profile = benchmark(name).unwrap();
            let measured = report.gc.nursery_write_fraction();
            assert!(
                (measured - profile.nursery_write_fraction).abs() < 0.15,
                "{name}: measured nursery write fraction {measured:.2} vs profile {:.2}",
                profile.nursery_write_fraction
            );
        }
    }

    #[test]
    fn nursery_survival_tracks_profile() {
        for name in ["lu.fix", "pmd"] {
            let report = run(name, HeapConfig::kg_n());
            let profile = benchmark(name).unwrap();
            let measured = report.gc.nursery_survival();
            assert!(
                (measured - profile.nursery_survival).abs() < 0.15,
                "{name}: measured nursery survival {measured:.2} vs profile {:.2}",
                profile.nursery_survival
            );
        }
    }

    #[test]
    fn collections_happen_and_allocation_matches_volume() {
        let profile = benchmark("xalan").unwrap();
        let config = WorkloadConfig { scale: 512, seed: 7 };
        let heap_config = profile.heap_config(HeapConfig::kg_w(), config.scale);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        SyntheticMutator::new(profile.clone(), config).run(&mut heap);
        let report = heap.finish();
        assert!(report.gc.nursery.collections + report.gc.observer.collections > 3);
        let expected = profile
            .scaled_allocation_bytes(config.scale)
            .max(MIN_ALLOCATION_BYTES);
        let measured = report.gc.bytes_allocated;
        assert!(
            measured >= expected && measured < expected * 2,
            "allocated {measured} vs expected at least {expected}"
        );
    }

    #[test]
    fn hot_objects_concentrate_mature_writes() {
        let report = run("lusearch", HeapConfig::kg_n());
        let share = report.gc.top_mature_writer_share(0.10);
        assert!(
            share > 0.5,
            "top 10% of mature objects should capture most mature writes, got {share:.2}"
        );
    }

    #[test]
    fn large_objects_are_allocated_for_large_heavy_profiles() {
        let report = run("lusearch", HeapConfig::kg_n());
        assert!(report.gc.large_bytes_allocated > 0);
    }

    #[test]
    fn profiling_a_workload_classifies_the_site_map_correctly() {
        use crate::sites;
        use advice::{classify, ClassifyParams, SiteClass, SiteId};

        let profile = benchmark("lusearch").unwrap();
        let scale = 512;
        let heap_config = profile.heap_config(HeapConfig::kg_n(), scale);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        heap.enable_profiling(profile.name);
        SyntheticMutator::new(profile, WorkloadConfig { scale, seed: 21 }).run(&mut heap);
        let site_profile = heap.finish().site_profile.expect("profiling enabled");

        let params = ClassifyParams::for_profile(&site_profile);
        let class_of = |id: u32| site_profile.site(SiteId(id)).map(|r| classify(r, &params));
        // Every hot site observed must classify hot; cold sites must never
        // classify hot — this is what makes the profile worth replaying.
        let mut hot_seen = 0;
        for id in sites::MATURE_HOT_SITES {
            if let Some(class) = class_of(id) {
                assert_eq!(class, SiteClass::WriteHot, "hot site {id} misclassified");
                hot_seen += 1;
            }
        }
        assert!(hot_seen > 0, "the workload must exercise hot sites");
        for id in sites::MATURE_COLD_SITES
            .chain(sites::SHORT_SITES)
            .chain(sites::OBSERVED_SITES)
        {
            if let Some(class) = class_of(id) {
                assert_ne!(
                    class,
                    SiteClass::WriteHot,
                    "cold/ephemeral site {id} misclassified as hot"
                );
            }
        }
        // Short-lived sites barely survive the nursery.
        for id in sites::SHORT_SITES {
            if let Some(record) = site_profile.site(SiteId(id)) {
                assert!(
                    record.survival() < 0.3,
                    "short site {id} survival {:.2}",
                    record.survival()
                );
            }
        }
    }

    #[test]
    fn multi_mutator_runs_reproduce_single_mutator_totals_exactly() {
        let profile = benchmark("lusearch").unwrap();
        let config = quick_config();
        let fingerprint = |report: &kingsguard::RunReport| {
            (
                report.memory.writes(hybrid_mem::MemoryKind::Pcm),
                report.memory.writes(hybrid_mem::MemoryKind::Dram),
                report.gc.remset_insertions,
                report.gc.reference_writes,
                report.gc.primitive_writes,
                report.gc.nursery.collections,
                report.gc.major.collections,
            )
        };
        let on_context0 = {
            let heap_config = profile.heap_config(HeapConfig::kg_n(), config.scale);
            let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
            SyntheticMutator::new(profile.clone(), config).run(&mut heap);
            heap.finish()
        };
        for mutators in [1usize, 2, 4] {
            let heap_config = profile.heap_config(HeapConfig::kg_n(), config.scale);
            let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
            SyntheticMutator::new(profile.clone(), config).run_multi_configured(
                &mut heap,
                mutators,
                MutatorConfig::default(),
                |_, _| {},
            );
            let report = heap.finish();
            assert_eq!(
                fingerprint(&report),
                fingerprint(&on_context0),
                "K={mutators} diverged from the single-mutator run"
            );
        }
    }

    #[test]
    fn recorded_workload_replays_bit_identically_under_every_collector() {
        let profile = benchmark("lusearch").unwrap();
        let config = quick_config();
        let scale = config.scale;
        let heap_for = |heap_config: HeapConfig| {
            KingsguardHeap::new(
                profile.heap_config(heap_config, scale),
                MemoryConfig::architecture_independent(),
            )
        };
        let fingerprint = |report: &kingsguard::RunReport| {
            (
                report.memory.writes(hybrid_mem::MemoryKind::Pcm),
                report.memory.writes(hybrid_mem::MemoryKind::Dram),
                report.memory.reads(hybrid_mem::MemoryKind::Pcm),
                report.gc.remset_insertions,
                report.gc.nursery.collections,
                report.gc.major.collections,
                report.gc.primitive_writes,
                report.gc.reference_writes,
            )
        };
        // Record once, under KG-N.
        let mutator = SyntheticMutator::new(profile.clone(), config);
        let mut record_heap = heap_for(HeapConfig::kg_n());
        let trace = mutator.record(&mut record_heap);
        drop(record_heap.finish());
        assert!(trace.allocations() > 0);
        // Replay under every collector; each must match its own live run.
        for heap_config in [
            HeapConfig::kg_n(),
            HeapConfig::kg_w(),
            HeapConfig::gen_immix_pcm(),
        ] {
            let mut live_heap = heap_for(heap_config.clone());
            mutator.run(&mut live_heap);
            let live = fingerprint(&live_heap.finish());
            let mut replay_heap = heap_for(heap_config.clone());
            trace::TraceReplayer::new(&trace)
                .replay(&mut replay_heap)
                .expect("trace replays cleanly");
            let replayed = fingerprint(&replay_heap.finish());
            assert_eq!(
                replayed,
                live,
                "{} replay diverged from live",
                heap_config.label()
            );
        }
    }

    #[test]
    fn multi_mutator_contexts_all_carry_traffic() {
        let profile = benchmark("pmd").unwrap();
        let heap_config = profile.heap_config(HeapConfig::kg_n(), 2048);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        SyntheticMutator::new(profile, quick_config()).run_multi_configured(
            &mut heap,
            3,
            MutatorConfig::default(),
            |_, _| {},
        );
        assert_eq!(heap.mutator_count(), 4, "context 0 plus three spawned");
        let report = heap.finish();
        assert!(report.gc.bytes_allocated > 0);
    }

    #[test]
    fn progress_hook_fires_and_reports_monotonic_progress() {
        let profile = benchmark("antlr").unwrap();
        let heap_config = profile.heap_config(HeapConfig::kg_w(), 2048);
        let mut heap = KingsguardHeap::new(heap_config, MemoryConfig::architecture_independent());
        let mutator = SyntheticMutator::new(profile, quick_config());
        let mut calls = 0;
        let mut last = 0;
        mutator.run_with(&mut heap, |_, progress| {
            calls += 1;
            assert!(progress.allocated_bytes >= last);
            last = progress.allocated_bytes;
            assert!(progress.total_bytes > 0);
        });
        assert!(calls > 5, "hook should fire regularly, fired {calls} times");
    }
}
