//! KG-D: online-adaptive per-site placement.
//!
//! KG-A needs a prior profiling run; KG-W needs an observer space and pays
//! its copying tax on every run. KG-D needs neither: it starts from
//! KG-N-like all-PCM placement (or a stale advice table) and *learns* the
//! per-site advice during the run, from signals the heap already produces:
//!
//! * **PCM write events** — the barrier reports every mutator write to a
//!   post-nursery object; once a site accumulates 16 writes on PCM-resident
//!   objects (`KgDynamicParams::promote_after_pcm_writes`), the site is advised into DRAM immediately (no need to wait
//!   for the next full collection).
//! * **Rescues** — a rescued object proves its site produced a written PCM
//!   object; the site is advised into DRAM at the next
//!   [`PlacementPolicy::on_gc_feedback`].
//! * **Demotions** — unlike KG-A, KG-D does *not* pin advised-hot sites:
//!   unwritten DRAM objects demote exactly as under KG-W, and a site that
//!   keeps demoting without an intervening rescue has its DRAM advice
//!   revoked — this is what un-learns stale or drifted advice.
//!
//! On a stationary workload the advice converges: write-hot sites are
//! promoted after their first write burst (and then stay, because their
//! objects are written in DRAM and never demote), write-cold sites never
//! leave PCM, and the PCM write rate settles at or below KG-N's — the
//! rescue fallback alone guarantees that bound — and approaches KG-W's.

use advice::{AdviceTable, Placement, SiteId, SiteTable};
use hybrid_mem::MemoryKind;

use crate::policy::{
    AdaptationEvent, AdaptationTrigger, LargePlacement, PlacementPolicy, PolicyConstraints, SurvivorPlacement,
};
use crate::stats::GcStats;

/// Tuning knobs of the adaptive policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct KgDynamicParams {
    /// Mutator writes observed on a site's PCM-resident objects before the
    /// site is advised into DRAM (without waiting for a rescue).
    promote_after_pcm_writes: u64,
    /// Demotions of a site's objects, without an intervening rescue, before
    /// the site's DRAM advice is revoked.
    revert_after_demotions: u64,
}

impl Default for KgDynamicParams {
    fn default() -> Self {
        // One rescue moves one object and resets one write bit; sixteen
        // barrier-level writes to a site's PCM objects already cost more PCM
        // traffic than pretenuring the site's survivors ever could, so
        // promote early. Reverting tolerates one stray demotion (a single
        // quiet object) but not a pattern.
        KgDynamicParams {
            promote_after_pcm_writes: 16,
            revert_after_demotions: 2,
        }
    }
}

/// What KG-D has learned about one allocation site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SiteState {
    /// The site is advised into DRAM (every other site defaults to PCM).
    dram: bool,
    /// Mutator writes seen on the site's PCM-resident objects.
    pcm_writes: u64,
    /// Demotions of the site's objects since its last rescue.
    demotions_since_rescue: u64,
}

/// The online-adaptive Kingsguard-dynamic (KG-D) policy.
#[derive(Clone, Debug, Default)]
pub struct KgDynamicPolicy {
    params: KgDynamicParams,
    sites: SiteTable<SiteState>,
    promotions: u64,
    reversions: u64,
    /// Learn/un-learn decisions buffered for
    /// [`PlacementPolicy::drain_adaptation_events`]. Bounded: one entry per
    /// actual promotion or reversion, drained after every collection.
    events: Vec<AdaptationEvent>,
}

impl KgDynamicPolicy {
    /// An adaptive policy seeded from a (possibly stale) advice table: its
    /// DRAM placements become the starting advice and are refined online.
    /// [`KgDynamicPolicy::default`] starts from all-PCM placement (KG-N-like).
    pub fn from_table(table: &AdviceTable) -> Self {
        let mut policy = Self::default();
        for (site, placement) in table.iter() {
            if placement == Placement::DramMature {
                policy.sites.entry(site).dram = true;
            }
        }
        policy
    }

    fn advises_dram(&self, site: SiteId) -> bool {
        self.sites.get(site).is_some_and(|state| state.dram)
    }

    fn promote(&mut self, site: SiteId, trigger: AdaptationTrigger) {
        let state = self.sites.entry(site);
        if !state.dram {
            state.dram = true;
            state.demotions_since_rescue = 0;
            self.promotions += 1;
            self.events.push(AdaptationEvent {
                site: site.raw(),
                learned: true,
                trigger,
            });
        }
    }

    /// Counts `demotions` against `site` and revokes its DRAM advice once
    /// they reach the threshold without an intervening rescue, restarting
    /// the site's write count from zero.
    fn charge_demotions(&mut self, site: SiteId, demotions: u64, trigger: AdaptationTrigger) {
        let state = self.sites.entry(site);
        state.demotions_since_rescue += demotions;
        if state.demotions_since_rescue >= self.params.revert_after_demotions && state.dram {
            *state = SiteState::default();
            self.reversions += 1;
            self.events.push(AdaptationEvent {
                site: site.raw(),
                learned: false,
                trigger,
            });
        }
    }
}

impl PlacementPolicy for KgDynamicPolicy {
    fn name(&self) -> String {
        "KG-D".to_string()
    }

    fn constraints(&self) -> PolicyConstraints {
        PolicyConstraints::SITE_RATIONING
    }

    fn survivor_placement(&mut self, site: SiteId, _written: bool) -> SurvivorPlacement {
        if self.advises_dram(site) {
            SurvivorPlacement::AdvisedDram
        } else {
            SurvivorPlacement::AdvisedPcm
        }
    }

    fn large_placement(&mut self, site: SiteId) -> LargePlacement {
        if self.advises_dram(site) {
            LargePlacement::AdvisedDram
        } else {
            LargePlacement::AdvisedPcm
        }
    }

    // demote_unwritten_dram stays at the default `true`: demotion is the
    // feedback channel that un-learns stale advice, so KG-D never pins.

    fn adaptation_counters(&self) -> Option<(u64, u64)> {
        Some((self.promotions, self.reversions))
    }

    fn drain_adaptation_events(&mut self) -> Vec<AdaptationEvent> {
        std::mem::take(&mut self.events)
    }

    fn advice_snapshot(&self) -> Option<AdviceTable> {
        let dram = self.sites.iter().filter(|(_, state)| state.dram);
        let table = AdviceTable::from_entries(
            dram.map(|(site, _)| (site, Placement::DramMature)),
            Placement::PcmMature,
        );
        (!table.is_empty()).then_some(table)
    }

    fn on_mature_write(&mut self, site: SiteId, kind: MemoryKind) {
        if kind != MemoryKind::Pcm {
            return;
        }
        let state = self.sites.entry(site);
        state.pcm_writes += 1;
        if state.pcm_writes >= self.params.promote_after_pcm_writes {
            self.promote(site, AdaptationTrigger::PcmWriteBurst);
        }
    }

    fn on_page_retired(&mut self, _page: u64, evacuated_sites: &[SiteId]) {
        // Retirement feedback is a demotion signal: the evacuation parked
        // the site's objects in DRAM without any placement decision, so it
        // must not be mistaken for organic write evidence — instead it
        // counts against the site's DRAM advice exactly like a demotion,
        // un-learning advice whose objects keep wearing PCM pages out of
        // reach of the normal rescue/demote cycle.
        let mut sites: Vec<SiteId> = evacuated_sites
            .iter()
            .copied()
            .filter(|s| !s.is_unknown())
            .collect();
        sites.sort_unstable();
        sites.dedup();
        for site in sites {
            self.charge_demotions(site, 1, AdaptationTrigger::PageRetirement);
        }
    }

    fn on_gc_feedback(&mut self, stats: &GcStats) {
        for (site, feedback) in stats.site_feedback.iter() {
            if feedback.rescues > 0 {
                // A rescue proves the site produced a written PCM object:
                // advise it into DRAM and forgive its demotion history,
                // this collection's demotions included (counting the
                // rescued object's quiet siblings would oscillate the
                // advice).
                self.sites.entry(site).demotions_since_rescue = 0;
                self.promote(site, AdaptationTrigger::Rescue);
            } else {
                // Repeated demotions without an intervening rescue prove
                // the advice stale.
                self.charge_demotions(site, feedback.demotions, AdaptationTrigger::Demotions);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_sites(policy: &KgDynamicPolicy) -> usize {
        policy.advice_snapshot().map_or(0, |table| table.hot_sites())
    }

    /// Statistics whose feedback is one collection's `(site, count)`
    /// rescues and demotions.
    fn feedback_with(rescues: &[(u32, u64)], demotions: &[(u32, u64)]) -> GcStats {
        let mut stats = GcStats::default();
        for &(site, n) in rescues {
            stats.site_feedback.entry(SiteId(site)).rescues = n;
        }
        for &(site, n) in demotions {
            stats.site_feedback.entry(SiteId(site)).demotions = n;
        }
        stats
    }

    #[test]
    fn starts_all_cold_like_kg_n() {
        let mut policy = KgDynamicPolicy::default();
        assert_eq!(hot_sites(&policy), 0);
        assert_eq!(
            policy.survivor_placement(SiteId(5), true),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.large_placement(SiteId(5)), LargePlacement::AdvisedPcm);
        assert!(policy.demote_unwritten_dram(SiteId(5)), "KG-D never pins");
    }

    #[test]
    fn pcm_write_burst_promotes_a_site() {
        let mut policy = KgDynamicPolicy {
            params: KgDynamicParams {
                promote_after_pcm_writes: 3,
                revert_after_demotions: 2,
            },
            ..KgDynamicPolicy::default()
        };
        for _ in 0..2 {
            policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        }
        assert_eq!(
            policy.survivor_placement(SiteId(7), false),
            SurvivorPlacement::AdvisedPcm,
            "below the threshold"
        );
        policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        assert_eq!(
            policy.survivor_placement(SiteId(7), false),
            SurvivorPlacement::AdvisedDram
        );
        assert_eq!(policy.adaptation_counters().unwrap().0, 1);
        // DRAM writes never promote.
        for _ in 0..100 {
            policy.on_mature_write(SiteId(8), MemoryKind::Dram);
        }
        assert_eq!(
            policy.survivor_placement(SiteId(8), false),
            SurvivorPlacement::AdvisedPcm
        );
    }

    #[test]
    fn advice_snapshot_exports_learned_dram_sites() {
        let mut policy = KgDynamicPolicy::default();
        assert!(
            policy.advice_snapshot().is_none(),
            "a policy that learned nothing has nothing to warm-start with"
        );
        policy.on_gc_feedback(&feedback_with(&[(9, 1), (4, 1)], &[]));
        let table = policy.advice_snapshot().expect("promoted sites export");
        assert_eq!(table.placement(SiteId(9)), Placement::DramMature);
        assert_eq!(table.placement(SiteId(4)), Placement::DramMature);
        assert_eq!(
            table.placement(SiteId(1)),
            Placement::PcmMature,
            "unadvised sites keep KG-D's all-PCM default"
        );
        // A reverted site drops back out of the snapshot.
        policy.on_gc_feedback(&feedback_with(&[], &[(9, 2)]));
        let table = policy.advice_snapshot().expect("site 4 is still advised");
        assert_eq!(table.placement(SiteId(9)), Placement::PcmMature);
        assert_eq!(table.placement(SiteId(4)), Placement::DramMature);
    }

    #[test]
    fn rescue_feedback_promotes_and_demotion_feedback_reverts() {
        let mut policy = KgDynamicPolicy::default();
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        // One demotion is forgiven...
        policy.on_gc_feedback(&feedback_with(&[], &[(3, 1)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        // ...a second one without a new rescue revokes the advice.
        policy.on_gc_feedback(&feedback_with(&[], &[(3, 1)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.adaptation_counters().unwrap().1, 1);
        // A fresh rescue re-promotes with a clean demotion slate.
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
    }

    #[test]
    fn a_same_gc_rescue_forgives_that_gcs_demotions() {
        let mut policy = KgDynamicPolicy::default();
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[]));
        // One full GC demotes two quiet siblings AND rescues a written
        // object of the same site: the rescue wins, the advice stays.
        policy.on_gc_feedback(&feedback_with(&[(3, 1)], &[(3, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(3), false),
            SurvivorPlacement::AdvisedDram
        );
        assert_eq!(policy.adaptation_counters().unwrap().1, 0);
    }

    #[test]
    fn one_collections_reversions_come_out_in_site_order() {
        // Spread over both workload site ranges, and listed out of order.
        let sites = [70, 3, 36, 12, 64, 1, 75, 27, 9, 50, 18, 33];
        let table = AdviceTable::from_entries(
            sites.iter().map(|&site| (SiteId(site), Placement::DramMature)),
            Placement::PcmMature,
        );
        let mut policy = KgDynamicPolicy::from_table(&table);
        let demotions: Vec<(u32, u64)> = sites.iter().map(|&site| (site, 2)).collect();
        policy.on_gc_feedback(&feedback_with(&[], &demotions));
        let reverted: Vec<u32> = policy
            .drain_adaptation_events()
            .iter()
            .map(|event| {
                assert_eq!(
                    (event.learned, event.trigger),
                    (false, AdaptationTrigger::Demotions)
                );
                event.site
            })
            .collect();
        let mut ascending = sites.to_vec();
        ascending.sort_unstable();
        assert_eq!(reverted, ascending);
        assert_eq!(hot_sites(&policy), 0);
    }

    /// KG-D, tallying the per-site rescues and demotions its feedback
    /// delivers.
    #[derive(Debug)]
    struct Tallied {
        inner: KgDynamicPolicy,
        delivered: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
    }

    impl PlacementPolicy for Tallied {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn constraints(&self) -> PolicyConstraints {
            self.inner.constraints()
        }
        fn survivor_placement(&mut self, site: SiteId, written: bool) -> SurvivorPlacement {
            self.inner.survivor_placement(site, written)
        }
        fn large_placement(&mut self, site: SiteId) -> LargePlacement {
            self.inner.large_placement(site)
        }
        fn on_mature_write(&mut self, site: SiteId, kind: MemoryKind) {
            self.inner.on_mature_write(site, kind)
        }
        fn on_gc_feedback(&mut self, stats: &GcStats) {
            let mut delivered = self.delivered.lock().unwrap();
            for (_, feedback) in stats.site_feedback.iter() {
                delivered.0 += feedback.rescues;
                delivered.1 += feedback.demotions;
            }
            self.inner.on_gc_feedback(stats);
        }
    }

    #[test]
    fn an_escalated_young_collection_delivers_each_rescue_and_demotion_once() {
        use crate::{HeapConfig, KingsguardHeap};
        use kingsguard_heap::ObjectShape;

        // Site 2 starts advised into DRAM, site 1 in PCM.
        let table = AdviceTable::from_entries([(SiteId(2), Placement::DramMature)], Placement::PcmMature);
        let delivered = std::sync::Arc::default();
        let policy = Tallied {
            inner: KgDynamicPolicy::from_table(&table),
            delivered: std::sync::Arc::clone(&delivered),
        };
        let config = HeapConfig::kg_d().with_heap_budget(64 << 10);
        let memory = hybrid_mem::MemoryConfig::architecture_independent();
        let mut heap = KingsguardHeap::with_policy(config, memory, Box::new(policy));
        let mut m = heap.default_mutator().unwrap();
        let shape = ObjectShape::new(0, 1024);
        let pcm: Vec<_> = (0..24)
            .map(|_| m.alloc_site(&mut heap, shape, 1, SiteId(1)))
            .collect();
        for _ in 0..24 {
            m.alloc_site(&mut heap, shape, 1, SiteId(2));
        }
        heap.collect_nursery();
        // Write site 1's PCM objects (not enough to promote the site), leave
        // site 2's DRAM objects quiet, and grow the mature heap past its
        // budget so the next young collection escalates to a full one.
        for &handle in &pcm[..8] {
            m.write_prim(&mut heap, handle, 0, 8);
        }
        for _ in 0..64 {
            m.alloc_site(&mut heap, shape, 1, SiteId(3));
        }
        heap.collect_young();

        let stats = heap.stats();
        assert_eq!(stats.major.collections, 1, "the young collection escalated");
        assert!(stats.pcm_to_dram_rescues > 0 && stats.dram_to_pcm_demotions > 0);
        assert_eq!(
            *delivered.lock().unwrap(),
            (stats.pcm_to_dram_rescues, stats.dram_to_pcm_demotions),
            "every rescue and demotion reaches the policy exactly once"
        );
        assert!(stats.site_feedback.is_empty(), "the heap clears what it fed");
    }

    #[test]
    fn adaptation_events_carry_site_and_trigger_and_drain_once() {
        let mut policy = KgDynamicPolicy {
            params: KgDynamicParams {
                promote_after_pcm_writes: 1,
                revert_after_demotions: 1,
            },
            ..KgDynamicPolicy::default()
        };
        policy.on_mature_write(SiteId(7), MemoryKind::Pcm);
        policy.on_gc_feedback(&feedback_with(&[(9, 1)], &[(7, 2)]));
        let events = policy.drain_adaptation_events();
        assert_eq!(
            events,
            vec![
                AdaptationEvent {
                    site: 7,
                    learned: true,
                    trigger: AdaptationTrigger::PcmWriteBurst,
                },
                AdaptationEvent {
                    site: 7,
                    learned: false,
                    trigger: AdaptationTrigger::Demotions,
                },
                AdaptationEvent {
                    site: 9,
                    learned: true,
                    trigger: AdaptationTrigger::Rescue,
                },
            ]
        );
        assert!(policy.drain_adaptation_events().is_empty(), "drained");
        assert_eq!(AdaptationTrigger::PcmWriteBurst.label(), "pcm-write-burst");
    }

    #[test]
    fn page_retirement_acts_as_demotion_pressure() {
        let mut policy = KgDynamicPolicy {
            params: KgDynamicParams {
                promote_after_pcm_writes: 1,
                revert_after_demotions: 2,
            },
            ..KgDynamicPolicy::default()
        };
        policy.on_gc_feedback(&feedback_with(&[(5, 1)], &[]));
        assert_eq!(hot_sites(&policy), 1);
        // First retirement touching the site: pressure, but advice holds
        // (duplicate sites on one page count once).
        policy.on_page_retired(100, &[SiteId(5), SiteId(5), SiteId(9)]);
        assert_eq!(
            policy.survivor_placement(SiteId(5), false),
            SurvivorPlacement::AdvisedDram
        );
        // A second retirement crosses the threshold and revokes the advice.
        policy.on_page_retired(101, &[SiteId(5)]);
        assert_eq!(
            policy.survivor_placement(SiteId(5), false),
            SurvivorPlacement::AdvisedPcm
        );
        assert_eq!(policy.adaptation_counters().unwrap().1, 1);
        let events = policy.drain_adaptation_events();
        assert!(events.contains(&AdaptationEvent {
            site: 5,
            learned: false,
            trigger: AdaptationTrigger::PageRetirement,
        }));
        assert_eq!(AdaptationTrigger::PageRetirement.label(), "page-retirement");
        // Unadvised sites accumulate pressure but nothing is revoked.
        policy.on_page_retired(102, &[SiteId(9)]);
        assert_eq!(policy.adaptation_counters().unwrap().1, 1);
    }

    #[test]
    fn stale_table_seeds_the_starting_advice() {
        let table = AdviceTable::from_entries(
            [
                (SiteId(1), Placement::DramMature),
                (SiteId(2), Placement::PcmMature),
            ],
            Placement::PcmMature,
        );
        let mut policy = KgDynamicPolicy::from_table(&table);
        assert_eq!(hot_sites(&policy), 1);
        assert_eq!(
            policy.survivor_placement(SiteId(1), false),
            SurvivorPlacement::AdvisedDram
        );
        // Stale advice is revocable like any learned advice.
        policy.on_gc_feedback(&feedback_with(&[], &[(1, 2)]));
        assert_eq!(
            policy.survivor_placement(SiteId(1), false),
            SurvivorPlacement::AdvisedPcm
        );
    }
}
