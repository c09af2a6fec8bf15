//! Pluggable placement policies: the variation points of write-rationing
//! collection as a first-class API.
//!
//! The paper's collectors all share one mechanical skeleton — a copying
//! nursery, Immix mature spaces, optional large-object and observer spaces,
//! remembered sets and a two-part write barrier — and differ only in a small
//! set of *placement decisions*: where nursery survivors go, where large
//! objects are allocated, how observer survivors are tenured, whether written
//! PCM objects are rescued and unwritten DRAM objects demoted, and what the
//! monitoring half of the write barrier records. [`PlacementPolicy`] names
//! exactly those decisions, so a new rationing strategy is a small trait
//! implementation instead of another arm in every `match` of the collector
//! core.
//!
//! The built-in policies reproduce the paper's collectors:
//!
//! | Policy | Collector | Strategy |
//! |---|---|---|
//! | [`GenImmixPolicy`] | DRAM-only / PCM-only | single technology, no rationing |
//! | [`KgNurseryPolicy`] | KG-N | DRAM nursery, everything else PCM |
//! | [`KgWritersPolicy`] | KG-W | online observation, per-object placement |
//! | [`KgAdvicePolicy`] | KG-A | offline profile replay, per-site placement |
//! | [`KgDynamicPolicy`] | KG-D | online-adaptive per-site placement |
//!
//! KG-D is the first policy the old `CollectorKind` dispatch could not
//! express: it starts from KG-N-like all-PCM placement (or a stale advice
//! table) and refreshes per-site advice *during* the run from the
//! rescue/demotion counters in [`GcStats`] and the write events the barrier
//! reports — converging toward KG-W's PCM write rate with no prior profiling
//! run and no observer space.
//!
//! Policies are consulted through plain-data hooks (sites, write bits,
//! shapes in; placement decisions out) and never touch the heap directly;
//! the runtime applies each decision, falling back to the primary PCM space
//! when a requested space is full.

mod builtin;
mod dynamic;

pub use builtin::{GenImmixPolicy, KgAdvicePolicy, KgNurseryPolicy, KgWritersPolicy};
pub use dynamic::KgDynamicPolicy;

use advice::{AdviceTable, SiteId};
use hybrid_mem::MemoryKind;

use crate::config::{CollectorKind, HeapConfig};
use crate::stats::GcStats;

/// The space layout a policy requires; [`crate::KingsguardHeap::new`] builds
/// the heap's spaces from this descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Memory technology of the nursery.
    pub nursery: MemoryKind,
    /// Memory technology of the primary mature and large spaces.
    pub mature: MemoryKind,
    /// Memory technology of metadata (mark tables, remset buffers).
    pub metadata: MemoryKind,
    /// Whether a DRAM observer space routes nursery survivors.
    pub observer: bool,
    /// Whether DRAM mature and DRAM large spaces exist alongside the
    /// primary ones.
    pub dram_mature: bool,
}

impl Topology {
    /// Every space on a single memory technology (the GenImmix baselines).
    pub const fn single(memory: MemoryKind) -> Self {
        Topology {
            nursery: memory,
            mature: memory,
            metadata: memory,
            observer: false,
            dram_mature: false,
        }
    }

    /// DRAM nursery over a PCM mature heap, no DRAM mature spaces (KG-N).
    pub const fn dram_nursery() -> Self {
        Topology {
            nursery: MemoryKind::Dram,
            mature: MemoryKind::Pcm,
            metadata: MemoryKind::Pcm,
            observer: false,
            dram_mature: false,
        }
    }

    /// DRAM nursery + DRAM mature/large spaces over a PCM mature heap, DRAM
    /// metadata (KG-A, KG-D; KG-W adds the observer space on top).
    pub const fn hybrid_rationing() -> Self {
        Topology {
            nursery: MemoryKind::Dram,
            mature: MemoryKind::Pcm,
            metadata: MemoryKind::Dram,
            observer: false,
            dram_mature: true,
        }
    }
}

/// Where a policy places a small nursery survivor that did not go to the
/// observer space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SurvivorPlacement {
    /// The primary mature space, no advice accounting (GenImmix, KG-N, and
    /// KG-W survivors that overflowed the observer space).
    Mature,
    /// Pretenure into the DRAM mature space, counted as an advised
    /// placement; falls back to the primary space when DRAM is full.
    AdvisedDram,
    /// The primary (PCM) mature space, counted as an advised placement.
    AdvisedPcm,
}

/// Where a policy places a directly allocated large object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LargePlacement {
    /// The primary large object space, no advice accounting.
    Default,
    /// The DRAM large space, counted as an advised placement; falls back to
    /// the primary large space (counted as advised-to-PCM) when full.
    AdvisedDram,
    /// The primary large space, counted as an advised placement.
    AdvisedPcm,
}

/// What the monitoring half of the write barrier does for post-nursery
/// objects (Figure 4, lines 13–17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierMode {
    /// No write monitoring (GenImmix, KG-N).
    None,
    /// Unconditionally store the write word (KG-W: placement *is* the
    /// observed write behaviour, so every write refreshes it).
    SetWritten,
    /// Store the write word only on the first write (KG-A, KG-D: the
    /// barrier is a misprediction detector, and an unconditional store
    /// would re-dirty the write word of every advised-cold PCM object on
    /// every write — exactly the per-write PCM tax being rationed away).
    FirstWriteOnly,
}

/// The constant properties of a policy: everything the runtime needs to
/// know about a collector that never changes during a run. Declared once per
/// policy ([`PlacementPolicy::constraints`]), read once by
/// [`crate::KingsguardHeap::with_policy`] and cached in the heap, so the
/// allocation and store paths read plain fields instead of re-asking the
/// policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyConstraints {
    /// The space layout this policy requires.
    pub topology: Topology,
    /// The monitoring mode of the write barrier.
    pub barrier: BarrierMode,
    /// Whether primitive (non-reference) writes reach the monitoring half
    /// of the barrier (KG-W vs KG-W–PM).
    pub monitor_primitive_writes: bool,
    /// Whether full collections rescue written PCM mature objects back to
    /// DRAM and move written large PCM objects to the DRAM large space.
    pub rescue_written_objects: bool,
    /// Metadata Optimization: keep the mark state of PCM objects in DRAM
    /// side tables.
    pub metadata_marks_in_dram: bool,
    /// Large Object Optimization: give large objects a chance to die in the
    /// nursery while the large-object allocation rate outpaces the nursery's.
    pub large_object_optimization: bool,
    /// Whether the policy reads allocation sites: only then does the barrier
    /// report mature writes to [`PlacementPolicy::on_mature_write`] and large
    /// placement drain the store buffers first.
    pub needs_sites: bool,
}

impl PolicyConstraints {
    /// The conservative base every policy starts from: no write monitoring,
    /// no optimizations, no site reads, and the written-object rescue
    /// exactly when the topology has DRAM mature spaces to rescue into.
    /// Policies override fields with struct-update syntax.
    pub const fn new(topology: Topology) -> Self {
        PolicyConstraints {
            topology,
            barrier: BarrierMode::None,
            monitor_primitive_writes: true,
            rescue_written_objects: topology.dram_mature,
            metadata_marks_in_dram: false,
            large_object_optimization: false,
            needs_sites: false,
        }
    }

    /// The per-site rationing collectors (KG-A, KG-D): DRAM mature spaces
    /// without an observer space, the barrier as a first-write misprediction
    /// detector, sites read.
    pub const SITE_RATIONING: PolicyConstraints = PolicyConstraints {
        barrier: BarrierMode::FirstWriteOnly,
        needs_sites: true,
        ..PolicyConstraints::new(Topology::hybrid_rationing())
    };
}

/// A placement policy: the decisions a write-rationing collector is made of.
///
/// The trait holds decisions and feedback only; a policy's constant
/// properties are data, declared once in [`PolicyConstraints`]. Every hook
/// but [`PlacementPolicy::name`] and [`PlacementPolicy::constraints`] has a
/// conservative default, so a minimal policy only overrides the decisions it
/// actually cares about — see the crate README for a worked example under
/// 50 lines.
pub trait PlacementPolicy: std::fmt::Debug + Send {
    /// Short collector label ("KG-W", "KG-D", ...).
    fn name(&self) -> String;

    /// The policy's constant properties. Must not change during a run: the
    /// heap reads this once at construction.
    fn constraints(&self) -> PolicyConstraints;

    /// Placement of a small nursery survivor (after observer routing and
    /// large-object handling). `written` is the survivor's write bit.
    fn survivor_placement(&mut self, _site: SiteId, _written: bool) -> SurvivorPlacement {
        SurvivorPlacement::Mature
    }

    /// Placement of a directly allocated large object.
    fn large_placement(&mut self, _site: SiteId) -> LargePlacement {
        LargePlacement::Default
    }

    /// Whether a live observer-space object is tenured into the DRAM mature
    /// space (`true`) or the primary mature space (`false`).
    fn observer_tenure_to_dram(&mut self, written: bool) -> bool {
        written
    }

    /// Whether a full collection may demote this unwritten DRAM mature
    /// object to PCM; only asked of policies whose
    /// [`PolicyConstraints::rescue_written_objects`] is set. KG-A pins
    /// advised-hot sites in DRAM so quiet periods do not churn the next
    /// rescue; KG-D deliberately lets them demote — demotion is the signal
    /// that un-learns stale advice.
    fn demote_unwritten_dram(&mut self, _site: SiteId) -> bool {
        true
    }

    /// Write-barrier event notification: the mutator wrote a post-nursery
    /// object of `site` residing on `kind` memory. Only delivered for
    /// policies whose [`PolicyConstraints::needs_sites`] is set, and only
    /// for known sites.
    fn on_mature_write(&mut self, _site: SiteId, _kind: MemoryKind) {}

    /// End-of-collection refresh point: called after every young and
    /// full-heap collection. Adaptive policies re-derive per-site advice
    /// here from [`GcStats::site_feedback`], the rescues and demotions per
    /// site since the previous call. The runtime drains every mutator
    /// context's store buffer before each collection, so the counters seen
    /// here include every barrier event regardless of batching or mutators.
    fn on_gc_feedback(&mut self, _stats: &GcStats) {}

    /// Graceful-degradation notification: a PCM heap page wore out, its live
    /// objects were evacuated (`evacuated_sites` lists their allocation
    /// sites, known sites only) and the page was fenced and remapped to
    /// spare capacity. KG-D treats this as a demotion-like signal: forced
    /// evacuation is not organic write evidence, and a site that wears PCM
    /// pages out should not have its placement re-learned from the
    /// evacuation traffic. The default ignores retirement.
    fn on_page_retired(&mut self, _page: u64, _evacuated_sites: &[SiteId]) {}

    /// Online-adaptation counters of the policy, when it has any:
    /// `(promotions, reversions)` of learned per-site advice. Lets drivers
    /// and experiments observe adaptation (e.g. un-learning after a workload
    /// phase change) through the trait object without downcasting.
    fn adaptation_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// Drains the adaptation events buffered since the last drain. The
    /// runtime calls this after every [`PlacementPolicy::on_gc_feedback`],
    /// so adaptive policies can buffer each learn/un-learn decision with its
    /// trigger and have the telemetry layer pick them up without the policy
    /// knowing anything about telemetry. Non-adaptive policies keep the
    /// default empty drain.
    fn drain_adaptation_events(&mut self) -> Vec<AdaptationEvent> {
        Vec::new()
    }

    /// Exports the policy's current per-site placement advice as a table
    /// that can warm-start a later run ([`HeapConfig::kg_d_with`] /
    /// [`HeapConfig::kg_a`]). Adaptive policies snapshot what they have
    /// learned so far; policies with nothing transferable return `None`
    /// (the default). Fleet drivers harvest this before
    /// [`crate::KingsguardHeap::finish`] recycles a tenant and deposit it in
    /// a shared advice store keyed by the workload's site-map hash.
    fn advice_snapshot(&self) -> Option<AdviceTable> {
        None
    }
}

/// What caused one KG-D learn/un-learn decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptationTrigger {
    /// A site crossed the mutator PCM-write threshold through the write
    /// barrier.
    PcmWriteBurst,
    /// A site's objects were rescued from PCM during tracing.
    Rescue,
    /// A learned site's objects kept getting demoted as unwritten — the
    /// advice was un-learned.
    Demotions,
    /// A PCM page holding a learned site's objects was retired; the forced
    /// evacuation counts as demotion pressure against the advice.
    PageRetirement,
}

impl AdaptationTrigger {
    /// Stable label used in telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            AdaptationTrigger::PcmWriteBurst => "pcm-write-burst",
            AdaptationTrigger::Rescue => "rescue",
            AdaptationTrigger::Demotions => "demotions",
            AdaptationTrigger::PageRetirement => "page-retirement",
        }
    }
}

/// One online adaptation decision: a site was learned into (or un-learned
/// from) the policy's DRAM set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptationEvent {
    /// The allocation site the decision is about.
    pub site: u32,
    /// `true` for learn (promote to DRAM), `false` for un-learn (revert).
    pub learned: bool,
    /// What triggered the decision.
    pub trigger: AdaptationTrigger,
}

/// Builds the built-in policy for `config.collector` — the one place a
/// `CollectorKind` is turned into collector properties; everything
/// behavioural lives in the returned policy and its [`PolicyConstraints`].
pub fn from_config(config: &HeapConfig) -> Box<dyn PlacementPolicy> {
    match config.collector {
        CollectorKind::GenImmix { memory } => Box::new(GenImmixPolicy::new(memory)),
        CollectorKind::KingsguardNursery => Box::new(KgNurseryPolicy),
        CollectorKind::KingsguardWriters => Box::new(KgWritersPolicy::new(config.kgw)),
        CollectorKind::KgAdvice => Box::new(KgAdvicePolicy::new(
            config
                .advice
                .clone()
                .expect("CollectorKind::KgAdvice requires HeapConfig::advice"),
        )),
        CollectorKind::KgDynamic => Box::new(match config.advice.clone() {
            Some(table) => KgDynamicPolicy::from_table(&table),
            None => KgDynamicPolicy::default(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 as data: every constant of every built-in collector, pinned
    /// in one place.
    #[test]
    fn builtin_policies_declare_the_constraints_of_table_1() {
        use BarrierMode::{FirstWriteOnly, None as NoBarrier, SetWritten};
        use MemoryKind::{Dram, Pcm};
        let topology = |nursery, mature, metadata, observer, dram_mature| Topology {
            nursery,
            mature,
            metadata,
            observer,
            dram_mature,
        };
        let dram_nursery = topology(Dram, Pcm, Pcm, false, false);
        let kg_w_topology = topology(Dram, Pcm, Dram, true, true);
        let per_site = topology(Dram, Pcm, Dram, false, true);
        let row = |topology, barrier, prims, rescue, mdo, loo, sites| PolicyConstraints {
            topology,
            barrier,
            monitor_primitive_writes: prims,
            rescue_written_objects: rescue,
            metadata_marks_in_dram: mdo,
            large_object_optimization: loo,
            needs_sites: sites,
        };
        let all_cold = advice::AdviceTable::all_cold;
        for (config, name, expected) in [
            (
                HeapConfig::gen_immix_dram(),
                "DRAM-only",
                row(
                    topology(Dram, Dram, Dram, false, false),
                    NoBarrier,
                    true,
                    false,
                    false,
                    false,
                    false,
                ),
            ),
            (
                HeapConfig::gen_immix_pcm(),
                "PCM-only",
                row(
                    topology(Pcm, Pcm, Pcm, false, false),
                    NoBarrier,
                    true,
                    false,
                    false,
                    false,
                    false,
                ),
            ),
            (
                HeapConfig::kg_n(),
                "KG-N",
                row(dram_nursery, NoBarrier, true, false, false, false, false),
            ),
            (
                HeapConfig::kg_w(),
                "KG-W",
                row(kg_w_topology, SetWritten, true, true, true, true, false),
            ),
            (
                HeapConfig::kg_w_no_loo(),
                "KG-W-LOO",
                row(kg_w_topology, SetWritten, true, true, true, false, false),
            ),
            (
                HeapConfig::kg_w_no_loo_no_mdo(),
                "KG-W-LOO-MDO",
                row(kg_w_topology, SetWritten, true, true, false, false, false),
            ),
            (
                HeapConfig::kg_w_no_primitive_monitoring(),
                "KG-W-PM",
                row(kg_w_topology, SetWritten, false, true, true, true, false),
            ),
            (
                HeapConfig::kg_a(all_cold()),
                "KG-A",
                row(per_site, FirstWriteOnly, true, true, false, false, true),
            ),
            (
                HeapConfig::kg_d(),
                "KG-D",
                row(per_site, FirstWriteOnly, true, true, false, false, true),
            ),
            (
                HeapConfig::kg_d_with(all_cold()),
                "KG-D",
                row(per_site, FirstWriteOnly, true, true, false, false, true),
            ),
        ] {
            let policy = from_config(&config);
            assert_eq!(policy.name(), name);
            assert_eq!(policy.constraints(), expected, "{name}");
        }
    }
}
