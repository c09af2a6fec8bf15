//! Homogeneity classification: is a site write-hot, write-cold or mixed?
//!
//! A site is useful for pretenuring only when its objects behave *alike*: a
//! site whose survivors are written heavily belongs in DRAM, a site whose
//! survivors are never written belongs in PCM, and a site that produces both
//! kinds is "mixed" and cannot be pretenured aggressively. The thresholds
//! are expressed as post-nursery writes per KB of post-nursery bytes so they
//! are independent of the run's scale; because absolute write intensities
//! vary by orders of magnitude between workloads, production use derives
//! the thresholds from the profile itself with
//! [`ClassifyParams::for_profile`] — hot means "well above this workload's
//! average intensity", mirroring the paper's observation that the hottest
//! 2 % of mature objects capture ~81 % of mature writes.

use crate::profiler::{SiteProfile, SiteRecord};

/// The three homogeneity classes of a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// Survivors are written often enough that PCM placement would cost
    /// writes: pretenure into DRAM mature space.
    WriteHot,
    /// Survivors are (almost) never written: pretenure into PCM.
    WriteCold,
    /// Write behaviour is heterogeneous or the evidence is too thin; place
    /// in PCM and rely on the rescue fallback.
    Mixed,
}

/// Classification thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassifyParams {
    /// At or above this many post-nursery writes per post-nursery KB the
    /// site is write-hot.
    pub hot_writes_per_kb: f64,
    /// At or below this many post-nursery writes per post-nursery KB the
    /// site is write-cold.
    pub cold_writes_per_kb: f64,
    /// Sites with fewer post-nursery objects than this are never classified
    /// hot (one noisy object must not steal DRAM for its whole site).
    pub min_survivors: u64,
}

impl ClassifyParams {
    /// Hot sites must be this many times more write-intense than the
    /// profile-wide average. Hot objects concentrate most mature writes in
    /// a small byte footprint, so their sites sit orders of magnitude above
    /// the mean; 8× separates them cleanly from lukewarm bulk sites.
    pub const HOT_REFERENCE_MULTIPLE: f64 = 8.0;

    /// Cold sites are at most this fraction of the profile-wide average
    /// intensity.
    pub const COLD_REFERENCE_MULTIPLE: f64 = 0.25;

    /// Derives thresholds from the profile's own aggregate write intensity,
    /// so classification adapts to how write-heavy the workload is. The
    /// absolute defaults act as floors for nearly write-free profiles.
    pub fn for_profile(profile: &SiteProfile) -> Self {
        let total_writes: u64 = profile.sites.iter().map(|(_, r)| r.post_nursery_writes).sum();
        let total_kb: f64 = profile.sites.iter().map(|(_, r)| r.post_nursery_kb()).sum();
        let floor = ClassifyParams::default();
        if total_kb == 0.0 || total_writes == 0 {
            return floor;
        }
        let reference = total_writes as f64 / total_kb;
        ClassifyParams {
            hot_writes_per_kb: (reference * Self::HOT_REFERENCE_MULTIPLE).max(floor.hot_writes_per_kb),
            cold_writes_per_kb: (reference * Self::COLD_REFERENCE_MULTIPLE).max(floor.cold_writes_per_kb),
            min_survivors: floor.min_survivors,
        }
    }
}

impl Default for ClassifyParams {
    fn default() -> Self {
        // A 64-byte object written once is ~16 writes/KB; the hot threshold
        // asks for roughly one write per object-sized chunk of survivors,
        // the cold threshold tolerates stray metadata-like writes.
        ClassifyParams {
            hot_writes_per_kb: 8.0,
            cold_writes_per_kb: 0.5,
            min_survivors: 4,
        }
    }
}

/// Classifies one site record.
///
/// Edge cases: a site with no allocations, or whose objects never live
/// outside the nursery, is write-cold (nothing of it ever reaches the mature
/// heap, so PCM placement is free); a site with fewer than `min_survivors`
/// post-nursery objects is at best mixed.
pub fn classify(record: &SiteRecord, params: &ClassifyParams) -> SiteClass {
    let post_nursery_objects = record.survived_objects.max(record.large_objects);
    if record.objects == 0 || post_nursery_objects == 0 {
        return SiteClass::WriteCold;
    }
    let intensity = record.write_intensity();
    if intensity <= params.cold_writes_per_kb {
        return SiteClass::WriteCold;
    }
    if post_nursery_objects < params.min_survivors {
        return SiteClass::Mixed;
    }
    if intensity >= params.hot_writes_per_kb {
        SiteClass::WriteHot
    } else {
        SiteClass::Mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(objects: u64, survived: u64, survived_bytes: u64, writes: u64) -> SiteRecord {
        SiteRecord {
            objects,
            bytes: objects * 64,
            survived_objects: survived,
            survived_bytes,
            post_nursery_writes: writes,
            large_objects: 0,
        }
    }

    #[test]
    fn empty_site_is_cold() {
        assert_eq!(
            classify(&SiteRecord::default(), &ClassifyParams::default()),
            SiteClass::WriteCold
        );
    }

    #[test]
    fn site_with_no_survivors_is_cold_regardless_of_writes() {
        // All its writes happened in the nursery; nothing matures.
        let record = record(1000, 0, 0, 0);
        assert_eq!(
            classify(&record, &ClassifyParams::default()),
            SiteClass::WriteCold
        );
    }

    #[test]
    fn single_object_site_is_never_hot() {
        // One surviving object, heavily written: too thin to pretenure the
        // whole site into DRAM, but too written to call cold.
        let record = record(1, 1, 64, 1000);
        assert_eq!(classify(&record, &ClassifyParams::default()), SiteClass::Mixed);
    }

    #[test]
    fn single_unwritten_object_site_is_cold() {
        let record = record(1, 1, 64, 0);
        assert_eq!(
            classify(&record, &ClassifyParams::default()),
            SiteClass::WriteCold
        );
    }

    #[test]
    fn heavily_written_site_is_hot() {
        // 100 survivors x 64 B = 6.4 KB, 640 writes = 100 writes/KB.
        let record = record(200, 100, 6400, 640);
        assert_eq!(classify(&record, &ClassifyParams::default()), SiteClass::WriteHot);
    }

    #[test]
    fn unwritten_site_is_cold() {
        let record = record(200, 100, 6400, 0);
        assert_eq!(
            classify(&record, &ClassifyParams::default()),
            SiteClass::WriteCold
        );
    }

    #[test]
    fn lukewarm_site_is_mixed() {
        // 6.4 KB of survivors, 20 writes = ~3 writes/KB: between thresholds.
        let record = record(200, 100, 6400, 20);
        assert_eq!(classify(&record, &ClassifyParams::default()), SiteClass::Mixed);
    }

    #[test]
    fn large_sites_classify_by_allocated_bytes() {
        // Large objects never pass through the nursery, so survived counts
        // stay zero; intensity falls back to allocated bytes.
        let hot_large = SiteRecord {
            objects: 8,
            bytes: 8 * 16 * 1024,
            survived_objects: 0,
            survived_bytes: 0,
            post_nursery_writes: 50_000,
            large_objects: 8,
        };
        assert!(hot_large.write_intensity() > 100.0);
        assert_eq!(
            classify(&hot_large, &ClassifyParams::default()),
            SiteClass::WriteHot
        );
        let cold_large = SiteRecord {
            post_nursery_writes: 0,
            ..hot_large
        };
        assert_eq!(
            classify(&cold_large, &ClassifyParams::default()),
            SiteClass::WriteCold
        );
    }

    #[test]
    fn profile_derived_thresholds_scale_with_workload_intensity() {
        use crate::profiler::SiteProfiler;
        use crate::site::SiteId;
        // A write-heavy profile: bulk site at ~700 writes/KB, hot site at
        // ~100x that. Absolute defaults would call both hot; the derived
        // thresholds separate them.
        let mut profile = SiteProfiler::new("heavy", "KG-N").finish();
        profile
            .sites
            .insert(SiteId(1), record(200, 100, 100 * 1024, 70_000)); // 700 w/kb over 100 KB
        profile.sites.insert(SiteId(2), record(10, 10, 1024, 70_000)); // 68,000 w/kb over 1 KB
        let params = ClassifyParams::for_profile(&profile);
        assert!(
            params.hot_writes_per_kb > 1_000.0,
            "threshold {} too low",
            params.hot_writes_per_kb
        );
        assert_eq!(
            classify(profile.site(SiteId(1)).unwrap(), &params),
            SiteClass::Mixed
        );
        assert_eq!(
            classify(profile.site(SiteId(2)).unwrap(), &params),
            SiteClass::WriteHot
        );

        // A nearly write-free profile falls back to the absolute floors.
        let mut quiet = SiteProfiler::new("quiet", "KG-N").finish();
        quiet.sites.insert(SiteId(1), record(100, 50, 50 * 1024, 0));
        assert_eq!(ClassifyParams::for_profile(&quiet), ClassifyParams::default());
        assert_eq!(
            ClassifyParams::for_profile(&SiteProfiler::new("empty", "KG-N").finish()),
            ClassifyParams::default()
        );
    }

    #[test]
    fn thresholds_are_inclusive() {
        let params = ClassifyParams {
            hot_writes_per_kb: 10.0,
            cold_writes_per_kb: 1.0,
            min_survivors: 1,
        };
        // Exactly at the hot threshold: 10 KB of survivors, 100 writes.
        let hot = record(20, 10, 10 * 1024, 100 * 10);
        assert_eq!(classify(&hot, &params), SiteClass::WriteHot);
        // Exactly at the cold threshold: 10 KB of survivors, 10 writes.
        let cold = record(20, 10, 10 * 1024, 10);
        assert_eq!(classify(&cold, &params), SiteClass::WriteCold);
    }
}
