//! Collector statistics.
//!
//! Everything the paper's evaluation section reports that is not already a
//! memory-controller counter is gathered here: collection counts, copied
//! bytes, nursery / observer survival rates, barrier-level (architecture
//! independent) write counts per target generation, per-object mature write
//! distribution (Figure 2), heap-composition samples over time (Figure 13)
//! and abstract work counts that feed the execution-time model.

use advice::{SiteId, SiteTable};
use hybrid_mem::timing::WorkCounts;
use hybrid_mem::Address;
use kingsguard_heap::ObjectTable;

/// Which generation a barrier-observed application write targeted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteTarget {
    /// The write hit an object still in the nursery.
    Nursery,
    /// The write hit an object outside the nursery (observer or mature or
    /// large).
    Mature,
}

/// One point of the heap-composition time series (Figure 13).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompositionSample {
    /// Cumulative bytes allocated by the application when the sample was
    /// taken (the x-axis proxy for execution time).
    pub allocated_bytes: u64,
    /// Bytes of mature + large heap residing in PCM.
    pub pcm_bytes: u64,
    /// Bytes of mature + large heap residing in DRAM (excluding nursery and
    /// observer space, as in the paper's Figure 13).
    pub dram_bytes: u64,
}

/// Rescues and demotions of one allocation site's objects since the
/// policy's last [`crate::PlacementPolicy::on_gc_feedback`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteFeedback {
    /// Objects rescued (PCM → DRAM).
    pub rescues: u64,
    /// Objects demoted (DRAM → PCM).
    pub demotions: u64,
}

/// Counters describing one collection type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionCounters {
    /// Number of collections of this type.
    pub collections: u64,
    /// Bytes of live objects copied (evacuated or promoted).
    pub bytes_copied: u64,
    /// Objects copied.
    pub objects_copied: u64,
}

/// Aggregated collector statistics for one run.
#[derive(Clone, Debug, Default)]
pub struct GcStats {
    /// Nursery collections.
    pub nursery: CollectionCounters,
    /// Observer-space collections (KG-W only).
    pub observer: CollectionCounters,
    /// Full-heap collections.
    pub major: CollectionCounters,

    /// Total bytes allocated by the application (all spaces).
    pub bytes_allocated: u64,
    /// Objects allocated by the application.
    pub objects_allocated: u64,
    /// Bytes allocated directly into a large object space.
    pub large_bytes_allocated: u64,
    /// Large objects allocated into the nursery by the LOO optimization.
    pub large_objects_in_nursery: u64,

    /// Bytes that survived a nursery collection (promoted out of the nursery).
    pub nursery_survived_bytes: u64,
    /// Bytes collected out of the nursery (denominator for survival).
    pub nursery_collected_bytes: u64,
    /// Bytes that survived an observer collection.
    pub observer_survived_bytes: u64,
    /// Bytes collected out of the observer space.
    pub observer_collected_bytes: u64,
    /// Observer survivors placed in the DRAM mature space (bytes).
    pub observer_to_dram_bytes: u64,
    /// Observer survivors placed in the PCM mature space (bytes).
    pub observer_to_pcm_bytes: u64,
    /// Observer survivors placed in DRAM (objects).
    pub observer_to_dram_objects: u64,
    /// Observer survivors placed in PCM (objects).
    pub observer_to_pcm_objects: u64,
    /// Written objects rescued from mature PCM back to mature DRAM.
    pub pcm_to_dram_rescues: u64,
    /// Unwritten objects demoted from mature DRAM to mature PCM.
    pub dram_to_pcm_demotions: u64,
    /// Written large objects moved from the PCM to the DRAM large space.
    pub large_pcm_to_dram_moves: u64,
    /// Live objects force-evacuated off dying PCM pages before retirement.
    pub fault_evacuated_objects: u64,
    /// Bytes force-evacuated off dying PCM pages before retirement.
    pub fault_evacuated_bytes: u64,
    /// PCM pages retired (fenced and remapped) after uncorrectable wear.
    pub fault_pages_retired: u64,
    /// Nursery survivors pretenured into mature DRAM by site advice (KG-A).
    pub advised_to_dram_objects: u64,
    /// Bytes pretenured into mature DRAM by site advice (KG-A).
    pub advised_to_dram_bytes: u64,
    /// Nursery survivors placed in PCM by site advice or its default (KG-A).
    pub advised_to_pcm_objects: u64,
    /// Bytes placed in PCM by site advice or its default (KG-A).
    pub advised_to_pcm_bytes: u64,

    /// Barrier-observed application reference writes.
    pub reference_writes: u64,
    /// Barrier-observed application primitive writes.
    pub primitive_writes: u64,
    /// Barrier-observed writes per target generation.
    pub writes_to_nursery_objects: u64,
    /// Barrier-observed writes to non-nursery objects.
    pub writes_to_mature_objects: u64,
    /// Remembered-set insertions performed by the barrier.
    pub remset_insertions: u64,

    /// Per-object write counts for non-nursery objects, keyed by the
    /// object's *current* address (entries are re-keyed when the collector
    /// moves an object, and outlive the object). Drives the Figure 2
    /// "top N %" analysis. Dense side metadata while the heap runs (see
    /// [`kingsguard_heap::side`]); [`GcStats::fold_object_tables`] empties
    /// it into [`GcStats::folded_write_counts`].
    pub(crate) mature_object_writes: ObjectTable,
    /// What a finished run keeps of `mature_object_writes`: the counts
    /// alone, in ascending address order.
    folded_write_counts: Vec<u32>,

    /// Rescues and demotions per known allocation site since the last
    /// [`crate::PlacementPolicy::on_gc_feedback`], which consumes them; the
    /// heap clears the table right after each call.
    pub site_feedback: SiteTable<SiteFeedback>,

    /// Heap composition samples, one per collection (Figure 13).
    pub composition: Vec<CompositionSample>,

    /// Abstract work counts feeding the execution-time model.
    pub work: WorkCounts,

    /// Peak bytes of PCM mapped for heap spaces.
    pub peak_pcm_mapped: u64,
    /// Peak bytes of DRAM mapped for heap spaces.
    pub peak_dram_mapped: u64,
    /// Peak bytes used by the DRAM mature space.
    pub peak_mature_dram_used: u64,
    /// Peak bytes used by metadata tables.
    pub peak_metadata_used: u64,
}

impl GcStats {
    /// Nursery survival rate in `[0, 1]` (bytes surviving / bytes collected).
    pub fn nursery_survival(&self) -> f64 {
        ratio(self.nursery_survived_bytes, self.nursery_collected_bytes)
    }

    /// Observer-space survival rate in `[0, 1]`.
    pub fn observer_survival(&self) -> f64 {
        ratio(self.observer_survived_bytes, self.observer_collected_bytes)
    }

    /// Fraction of observer survivors (by bytes) retained in mature DRAM.
    pub fn observer_dram_fraction(&self) -> f64 {
        ratio(
            self.observer_to_dram_bytes,
            self.observer_to_dram_bytes + self.observer_to_pcm_bytes,
        )
    }

    /// Fraction of observer survivors (by objects) retained in mature DRAM.
    pub fn observer_dram_object_fraction(&self) -> f64 {
        ratio(
            self.observer_to_dram_objects,
            self.observer_to_dram_objects + self.observer_to_pcm_objects,
        )
    }

    /// Fraction of barrier-observed application writes that hit nursery
    /// objects (the per-benchmark bars of Figure 2).
    pub fn nursery_write_fraction(&self) -> f64 {
        ratio(
            self.writes_to_nursery_objects,
            self.writes_to_nursery_objects + self.writes_to_mature_objects,
        )
    }

    /// Records a barrier-observed application write.
    pub fn record_app_write(&mut self, target: WriteTarget, obj_addr: Address) {
        match target {
            WriteTarget::Nursery => self.writes_to_nursery_objects += 1,
            WriteTarget::Mature => {
                self.writes_to_mature_objects += 1;
                self.mature_object_writes.add(obj_addr, 1);
            }
        }
    }

    /// Re-keys the per-object write count of a moved object.
    pub fn object_moved(&mut self, from: Address, to: Address) {
        match self.mature_object_writes.take(from) {
            0 => {}
            // A dead object's count may linger at the recycled destination:
            // the two merge, as they would under one hash key.
            count => self.mature_object_writes.add(to, count),
        }
    }

    /// Shrinks the per-object write counts to what a report needs, a flat
    /// list, so a kept [`crate::RunReport`] holds a few bytes per written
    /// object instead of a table spanning the heap. Called once, by
    /// [`crate::KingsguardHeap::finish`].
    pub(crate) fn fold_object_tables(&mut self) {
        let writes = std::mem::take(&mut self.mature_object_writes);
        self.folded_write_counts.extend(writes.values());
    }

    /// Records a rescue (PCM → DRAM) of an object from `site`.
    pub fn record_rescue(&mut self, site: SiteId) {
        self.pcm_to_dram_rescues += 1;
        if !site.is_unknown() {
            self.site_feedback.entry(site).rescues += 1;
        }
    }

    /// Records a demotion (DRAM → PCM) of an object from `site`.
    pub fn record_demotion(&mut self, site: SiteId) {
        self.dram_to_pcm_demotions += 1;
        if !site.is_unknown() {
            self.site_feedback.entry(site).demotions += 1;
        }
    }

    /// Fraction of writes to mature objects captured by the most-written
    /// `fraction` of mature objects (e.g. `0.02` reproduces the paper's
    /// "top 2 % of objects capture 81 % of mature writes").
    pub fn top_mature_writer_share(&self, fraction: f64) -> f64 {
        // A running heap's counts are in the table, a finished run's in the
        // folded list.
        let mut counts: Vec<u64> = self
            .folded_write_counts
            .iter()
            .copied()
            .chain(self.mature_object_writes.values())
            .map(u64::from)
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let top_n = ((counts.len() as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = counts.iter().take(top_n).sum();
        top as f64 / total as f64
    }

    /// Appends a heap-composition sample.
    pub fn sample_composition(&mut self, sample: CompositionSample) {
        self.composition.push(sample);
    }

    /// Total collections of all types.
    pub fn total_collections(&self) -> u64 {
        self.nursery.collections + self.observer.collections + self.major.collections
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_rates() {
        let stats = GcStats {
            nursery_survived_bytes: 20,
            nursery_collected_bytes: 100,
            observer_survived_bytes: 30,
            observer_collected_bytes: 60,
            ..Default::default()
        };
        assert!((stats.nursery_survival() - 0.2).abs() < 1e-12);
        assert!((stats.observer_survival() - 0.5).abs() < 1e-12);
        assert_eq!(GcStats::default().nursery_survival(), 0.0);
    }

    #[test]
    fn write_demographics() {
        let mut stats = GcStats::default();
        for _ in 0..70 {
            stats.record_app_write(WriteTarget::Nursery, Address::new(0x10));
        }
        for i in 0..30 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0x1000 + (i % 3) * 64));
        }
        assert!((stats.nursery_write_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(
            stats.mature_object_writes.values().collect::<Vec<_>>(),
            [10, 10, 10]
        );
    }

    #[test]
    fn top_writer_share_is_concentrated_for_skewed_writes() {
        let mut stats = GcStats::default();
        // One hot object gets 90 writes, 99 cold objects get one write each.
        for _ in 0..90 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0xdea8));
        }
        for i in 0..99u64 {
            stats.record_app_write(WriteTarget::Mature, Address::new(0x1_0000 + i * 64));
        }
        let share = stats.top_mature_writer_share(0.01);
        assert!(
            share > 0.45,
            "top 1% should capture the hot object's writes: {share}"
        );
        assert!(stats.top_mature_writer_share(1.0) > 0.999);
    }

    #[test]
    fn object_moved_rekeys_counts() {
        let mut stats = GcStats::default();
        stats.record_app_write(WriteTarget::Mature, Address::new(0x100));
        stats.record_app_write(WriteTarget::Mature, Address::new(0x100));
        stats.object_moved(Address::new(0x100), Address::new(0x200));
        assert_eq!(stats.mature_object_writes.get(Address::new(0x200)), 2);
        assert_eq!(stats.mature_object_writes.get(Address::new(0x100)), 0);
        // Moving an object with no recorded writes is harmless.
        stats.object_moved(Address::new(0x300), Address::new(0x400));
        assert_eq!(stats.mature_object_writes.values().count(), 1);
    }

    #[test]
    fn a_dead_neighbours_count_one_word_away_stays_its_own_entry() {
        // Counts outlive their objects, and a recycled line can start a new
        // object one word off a dead one: Figure 2 counts them as two.
        let mut stats = GcStats::default();
        stats.record_app_write(WriteTarget::Mature, Address::new(0x1008));
        stats.record_app_write(WriteTarget::Mature, Address::new(0x1000));
        stats.record_app_write(WriteTarget::Mature, Address::new(0x1000));
        assert_eq!(stats.mature_object_writes.values().collect::<Vec<_>>(), [2, 1]);
        assert!((stats.top_mature_writer_share(0.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn folding_keeps_the_write_distribution_and_drops_the_tables() {
        let mut stats = GcStats::default();
        for (addr, writes) in [(0x100u64, 5), (0x2000, 1), (0x4_0000_0000, 2)] {
            for _ in 0..writes {
                stats.record_app_write(WriteTarget::Mature, Address::new(addr));
            }
        }
        let before = [0.02, 0.5, 1.0].map(|f| stats.top_mature_writer_share(f));
        stats.fold_object_tables();
        assert_eq!([0.02, 0.5, 1.0].map(|f| stats.top_mature_writer_share(f)), before);
        assert_eq!(stats.folded_write_counts, [5, 1, 2]);
        assert_eq!(stats.mature_object_writes.values().count(), 0);
    }

    #[test]
    fn site_rescue_and_demotion_counters_skip_unknown_sites() {
        let mut stats = GcStats::default();
        stats.record_rescue(SiteId(3));
        stats.record_rescue(SiteId(3));
        stats.record_rescue(SiteId::UNKNOWN);
        stats.record_demotion(SiteId(4));
        stats.record_demotion(SiteId::UNKNOWN);
        assert_eq!((stats.pcm_to_dram_rescues, stats.dram_to_pcm_demotions), (3, 2));
        let feedback = |rescues, demotions| SiteFeedback { rescues, demotions };
        assert_eq!(
            stats.site_feedback.iter().collect::<Vec<_>>(),
            [(SiteId(3), &feedback(2, 0)), (SiteId(4), &feedback(0, 1))]
        );
    }

    #[test]
    fn dram_fraction_of_observer_survivors() {
        let stats = GcStats {
            observer_to_dram_bytes: 10,
            observer_to_pcm_bytes: 90,
            observer_to_dram_objects: 1,
            observer_to_pcm_objects: 9,
            ..Default::default()
        };
        assert!((stats.observer_dram_fraction() - 0.1).abs() < 1e-12);
        assert!((stats.observer_dram_object_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn composition_samples_accumulate() {
        let mut stats = GcStats::default();
        stats.sample_composition(CompositionSample {
            allocated_bytes: 1,
            pcm_bytes: 2,
            dram_bytes: 3,
        });
        stats.sample_composition(CompositionSample {
            allocated_bytes: 4,
            pcm_bytes: 5,
            dram_bytes: 6,
        });
        assert_eq!(stats.composition.len(), 2);
        assert_eq!(stats.composition[1].pcm_bytes, 5);
    }

    #[test]
    fn total_collections_sums_types() {
        let mut stats = GcStats::default();
        stats.nursery.collections = 3;
        stats.observer.collections = 2;
        stats.major.collections = 1;
        assert_eq!(stats.total_collections(), 6);
    }
}
