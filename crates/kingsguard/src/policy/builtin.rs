//! The paper's collectors as [`PlacementPolicy`] implementations.

use advice::{AdviceTable, SiteId};
use hybrid_mem::MemoryKind;

use crate::config::KgwOptions;
use crate::policy::{
    BarrierMode, LargePlacement, PlacementPolicy, PolicyConstraints, SurvivorPlacement, Topology,
};

/// The generational Immix baseline: every space on one memory technology,
/// no write rationing at all.
#[derive(Clone, Copy, Debug)]
pub struct GenImmixPolicy {
    memory: MemoryKind,
}

impl GenImmixPolicy {
    /// A baseline on `memory` (the DRAM-only / PCM-only configurations).
    pub fn new(memory: MemoryKind) -> Self {
        GenImmixPolicy { memory }
    }
}

impl PlacementPolicy for GenImmixPolicy {
    fn name(&self) -> String {
        match self.memory {
            MemoryKind::Dram => "DRAM-only".to_string(),
            MemoryKind::Pcm => "PCM-only".to_string(),
        }
    }

    fn constraints(&self) -> PolicyConstraints {
        PolicyConstraints::new(Topology::single(self.memory))
    }
}

/// Kingsguard-nursery: a DRAM nursery filters the write-hottest generation;
/// everything that survives it lives in PCM.
#[derive(Clone, Copy, Debug)]
pub struct KgNurseryPolicy;

impl PlacementPolicy for KgNurseryPolicy {
    fn name(&self) -> String {
        "KG-N".to_string()
    }

    fn constraints(&self) -> PolicyConstraints {
        PolicyConstraints::new(Topology::dram_nursery())
    }
}

/// Kingsguard-writers: nursery survivors pass through a DRAM observer space
/// where the write barrier watches them; observer survivors are tenured by
/// their observed write bit, and full collections rescue written PCM objects
/// and demote unwritten DRAM objects.
#[derive(Clone, Copy, Debug)]
pub struct KgWritersPolicy {
    constraints: PolicyConstraints,
}

impl KgWritersPolicy {
    /// KG-W with the given feature toggles (Table 1 / Section 6.2).
    pub fn new(opts: KgwOptions) -> Self {
        KgWritersPolicy {
            constraints: PolicyConstraints {
                barrier: BarrierMode::SetWritten,
                monitor_primitive_writes: opts.monitor_primitives,
                metadata_marks_in_dram: opts.metadata_optimization,
                large_object_optimization: opts.large_object_optimization,
                ..PolicyConstraints::new(Topology {
                    observer: true,
                    ..Topology::hybrid_rationing()
                })
            },
        }
    }
}

impl PlacementPolicy for KgWritersPolicy {
    fn name(&self) -> String {
        let mut label = "KG-W".to_string();
        if !self.constraints.large_object_optimization {
            label.push_str("-LOO");
        }
        if !self.constraints.metadata_marks_in_dram {
            label.push_str("-MDO");
        }
        if !self.constraints.monitor_primitive_writes {
            label.push_str("-PM");
        }
        label
    }

    fn constraints(&self) -> PolicyConstraints {
        self.constraints
    }
}

/// Kingsguard-advice: replays an offline per-site write profile, pretenuring
/// each site's survivors straight into DRAM or PCM and keeping the KG-W
/// rescue as the misprediction fallback — no observer space, no per-run
/// learning tax.
#[derive(Clone, Debug)]
pub struct KgAdvicePolicy {
    table: AdviceTable,
}

impl KgAdvicePolicy {
    /// A policy replaying `table`.
    pub fn new(table: AdviceTable) -> Self {
        KgAdvicePolicy { table }
    }

    /// The advice table this policy replays.
    pub fn table(&self) -> &AdviceTable {
        &self.table
    }
}

impl PlacementPolicy for KgAdvicePolicy {
    fn name(&self) -> String {
        "KG-A".to_string()
    }

    fn constraints(&self) -> PolicyConstraints {
        PolicyConstraints::SITE_RATIONING
    }

    fn survivor_placement(&mut self, site: SiteId, _written: bool) -> SurvivorPlacement {
        if self.table.pretenure_to_dram(site) {
            SurvivorPlacement::AdvisedDram
        } else {
            SurvivorPlacement::AdvisedPcm
        }
    }

    fn large_placement(&mut self, site: SiteId) -> LargePlacement {
        if self.table.pretenure_to_dram(site) {
            LargePlacement::AdvisedDram
        } else {
            LargePlacement::AdvisedPcm
        }
    }

    fn demote_unwritten_dram(&mut self, site: SiteId) -> bool {
        // Advised-hot sites stay in DRAM across quiet periods — demoting
        // them would only churn the next rescue.
        !self.table.pretenure_to_dram(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advice::Placement;

    #[test]
    fn kg_advice_routes_by_table() {
        let table = AdviceTable::from_entries(
            [
                (SiteId(1), Placement::DramMature),
                (SiteId(2), Placement::PcmMature),
            ],
            Placement::PcmMature,
        );
        let mut policy = KgAdvicePolicy::new(table);
        assert_eq!(
            policy.survivor_placement(SiteId(1), false),
            SurvivorPlacement::AdvisedDram
        );
        assert_eq!(
            policy.survivor_placement(SiteId(2), false),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.large_placement(SiteId(1)), LargePlacement::AdvisedDram);
        assert_eq!(policy.large_placement(SiteId(9)), LargePlacement::AdvisedPcm);
        assert!(!policy.demote_unwritten_dram(SiteId(1)), "hot sites are pinned");
        assert!(policy.demote_unwritten_dram(SiteId(2)));
        assert_eq!(policy.table().hot_sites(), 1);
    }

    #[test]
    fn baseline_policies_never_ration() {
        let mut dram = GenImmixPolicy::new(MemoryKind::Dram);
        assert_eq!(
            dram.survivor_placement(SiteId(3), true),
            SurvivorPlacement::Mature
        );
        assert_eq!(dram.large_placement(SiteId(3)), LargePlacement::Default);
    }
}
