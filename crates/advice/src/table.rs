//! Advice tables: the placement decisions a production run replays.

use crate::classify::{classify, ClassifyParams, SiteClass};
use crate::profiler::SiteProfile;
use crate::site::{SiteId, SiteTable};

/// Where a site's nursery survivors should be pretenured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Straight into the DRAM mature (or DRAM large) space.
    DramMature,
    /// Straight into the PCM mature (or PCM large) space; the rescue
    /// fallback moves the object to DRAM if the prediction turns out wrong.
    PcmMature,
}

/// Per-site placement advice derived from a [`SiteProfile`], consumed by the
/// KG-A collector.
#[derive(Clone, Debug, PartialEq)]
pub struct AdviceTable {
    placements: SiteTable<Placement>,
    default: Placement,
}

impl AdviceTable {
    /// Builds an advice table from a profile: write-hot sites are pretenured
    /// into DRAM, write-cold sites into PCM, and mixed sites into PCM where
    /// the KG-W-style rescue can still save their written objects. Sites the
    /// profile never saw use the default placement (PCM — misprediction in
    /// that direction costs PCM writes until rescue, never DRAM capacity).
    pub fn from_profile(profile: &SiteProfile, params: &ClassifyParams) -> Self {
        let placement = |record| match classify(record, params) {
            SiteClass::WriteHot => Placement::DramMature,
            SiteClass::WriteCold | SiteClass::Mixed => Placement::PcmMature,
        };
        let entries = profile
            .sites
            .iter()
            .map(|(site, record)| (site, placement(record)));
        Self::from_entries(entries, Placement::PcmMature)
    }

    /// An advice table that sends every site to PCM (the degenerate
    /// "all-cold" table; equivalent to KG-N plus rescue).
    pub fn all_cold() -> Self {
        Self::from_entries([], Placement::PcmMature)
    }

    /// An advice table built from explicit `(site, placement)` pairs, with
    /// `default` for everything else (tests and hand-written experiments).
    pub fn from_entries(entries: impl IntoIterator<Item = (SiteId, Placement)>, default: Placement) -> Self {
        let mut placements = SiteTable::default();
        for (site, placement) in entries {
            placements.insert(site, placement);
        }
        AdviceTable { placements, default }
    }

    /// The placement advice for `site`.
    pub fn placement(&self, site: SiteId) -> Placement {
        *self.placements.get(site).unwrap_or(&self.default)
    }

    /// Returns `true` if `site` should be pretenured into DRAM.
    pub fn pretenure_to_dram(&self, site: SiteId) -> bool {
        self.placement(site) == Placement::DramMature
    }

    /// Number of sites advised into DRAM.
    pub fn hot_sites(&self) -> usize {
        self.iter().filter(|&(_, p)| p == Placement::DramMature).count()
    }

    /// The default placement for sites without explicit advice.
    pub fn default_placement(&self) -> Placement {
        self.default
    }

    /// Iterates over the explicit `(site, placement)` entries in ascending
    /// site order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, Placement)> + '_ {
        self.placements.iter().map(|(site, &placement)| (site, placement))
    }

    /// Total sites with explicit advice.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Returns `true` if no site has explicit advice.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{SiteProfiler, SiteRecord};

    fn record(post_nursery_writes: u64) -> SiteRecord {
        SiteRecord {
            objects: 100,
            bytes: 6400,
            survived_objects: 80,
            survived_bytes: 5120,
            post_nursery_writes,
            large_objects: 0,
        }
    }

    fn profile() -> SiteProfile {
        let mut profile = SiteProfiler::new("demo", "KG-N").finish();
        profile.sites.insert(SiteId(1), record(4000)); // hot
        profile.sites.insert(SiteId(2), record(0)); // cold
        profile.sites.insert(SiteId(3), record(20)); // mixed
        profile
    }

    #[test]
    fn table_from_profile_routes_by_class() {
        let table = AdviceTable::from_profile(&profile(), &ClassifyParams::default());
        assert_eq!(
            table.placement(SiteId(1)),
            Placement::DramMature,
            "hot site goes to DRAM"
        );
        assert_eq!(
            table.placement(SiteId(2)),
            Placement::PcmMature,
            "cold site goes to PCM"
        );
        assert_eq!(
            table.placement(SiteId(3)),
            Placement::PcmMature,
            "mixed site goes to PCM"
        );
        assert_eq!(
            table.placement(SiteId(99)),
            Placement::PcmMature,
            "unknown site defaults to PCM"
        );
        assert_eq!(table.placement(SiteId::UNKNOWN), Placement::PcmMature);
        assert!(table.pretenure_to_dram(SiteId(1)));
        assert!(!table.pretenure_to_dram(SiteId(2)));
        assert_eq!(table.hot_sites(), 1);
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
    }

    #[test]
    fn all_cold_table_never_chooses_dram() {
        let table = AdviceTable::all_cold();
        assert!(table.is_empty());
        for id in 0..1000 {
            assert_eq!(table.placement(SiteId(id)), Placement::PcmMature);
        }
    }

    #[test]
    fn explicit_entries_override_default() {
        let table = AdviceTable::from_entries([(SiteId(5), Placement::DramMature)], Placement::PcmMature);
        assert!(table.pretenure_to_dram(SiteId(5)));
        assert!(!table.pretenure_to_dram(SiteId(6)));
        assert_eq!(table.hot_sites(), 1);
    }
}
