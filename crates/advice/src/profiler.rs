//! Per-site profiling: aggregate what a profiling run observes.

use crate::site::{SiteId, SiteTable};

/// Aggregated behaviour of one allocation site over a profiling run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteRecord {
    /// Objects allocated at this site.
    pub objects: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
    /// Objects from this site that survived a nursery collection (were
    /// copied out of the nursery).
    pub survived_objects: u64,
    /// Bytes from this site that survived a nursery collection.
    pub survived_bytes: u64,
    /// Barrier-observed application writes to this site's objects after they
    /// left the nursery (the signal KG-W pays an observer space to measure).
    pub post_nursery_writes: u64,
    /// Objects from this site allocated directly into a large object space.
    pub large_objects: u64,
}

impl SiteRecord {
    /// Nursery survival rate of this site in `[0, 1]` (objects).
    pub fn survival(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.survived_objects as f64 / self.objects as f64
        }
    }

    /// Bytes of this site that live outside the nursery: surviving bytes
    /// for ordinary sites, allocated bytes for large-object sites (large
    /// objects never pass through the nursery, so "survival" does not apply
    /// to them).
    pub fn post_nursery_kb(&self) -> f64 {
        if self.survived_bytes > 0 {
            self.survived_bytes as f64 / 1024.0
        } else if self.large_objects > 0 {
            self.bytes as f64 / 1024.0
        } else {
            0.0
        }
    }

    /// Post-nursery writes per KB of post-nursery bytes, defined for both
    /// ordinary and large-object sites. This is the intensity classification
    /// compares against the profile-wide reference.
    pub fn write_intensity(&self) -> f64 {
        let kb = self.post_nursery_kb();
        if kb == 0.0 {
            0.0
        } else {
            self.post_nursery_writes as f64 / kb
        }
    }
}

/// A complete site profile: what one profiling run learned about a workload.
///
/// Sites are kept in a [`SiteTable`], so serialization and iteration walk
/// them in ascending id order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteProfile {
    /// Name of the profiled workload (e.g. "lusearch").
    pub workload: String,
    /// Label of the collector that drove the profiling run (e.g. "KG-N").
    pub collector: String,
    /// Hash of the workload's site map at profiling time, set by the
    /// profiling harness. A later run whose site map hashes differently has
    /// *drifted* (sites renumbered or re-ranged across program versions);
    /// consumers should log the drift and apply the advice per-site instead
    /// of rejecting the profile outright. `None` for profiles written
    /// before hashing existed (or by harnesses that do not know their site
    /// map).
    pub site_map_hash: Option<u64>,
    /// Per-site records.
    pub sites: SiteTable<SiteRecord>,
}

impl SiteProfile {
    /// Looks up one site's record.
    pub fn site(&self, site: SiteId) -> Option<&SiteRecord> {
        self.sites.get(site)
    }
}

/// Collects per-site events during a profiling run.
///
/// The `kingsguard` runtime owns one of these (when profiling is enabled)
/// and calls the `record_*` methods from the allocator, the write barrier
/// and the collectors; [`SiteProfiler::finish`] turns the accumulated counts
/// into a [`SiteProfile`].
#[derive(Clone, Debug, Default)]
pub struct SiteProfiler {
    profile: SiteProfile,
}

impl SiteProfiler {
    /// Creates a profiler for one run.
    pub fn new(workload: &str, collector: &str) -> Self {
        let (workload, collector) = (workload.to_string(), collector.to_string());
        let profile = SiteProfile {
            workload,
            collector,
            ..SiteProfile::default()
        };
        SiteProfiler { profile }
    }

    /// Records an allocation of `bytes` at `site`.
    pub fn record_alloc(&mut self, site: SiteId, bytes: u64, large: bool) {
        let record = self.profile.sites.entry(site);
        record.objects += 1;
        record.bytes += bytes;
        if large {
            record.large_objects += 1;
        }
    }

    /// Records that an object of `bytes` from `site` survived a nursery
    /// collection.
    pub fn record_nursery_survivor(&mut self, site: SiteId, bytes: u64) {
        let record = self.profile.sites.entry(site);
        record.survived_objects += 1;
        record.survived_bytes += bytes;
    }

    /// Records a barrier-observed application write to a post-nursery object
    /// from `site`.
    pub fn record_post_nursery_write(&mut self, site: SiteId) {
        self.profile.sites.entry(site).post_nursery_writes += 1;
    }

    /// Finalises the profiler into an immutable profile. The harness that
    /// knows the workload's site map stamps
    /// [`SiteProfile::site_map_hash`] before persisting.
    pub fn finish(self) -> SiteProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_aggregates_per_site() {
        let mut profiler = SiteProfiler::new("demo", "KG-N");
        profiler.record_alloc(SiteId(1), 64, false);
        profiler.record_alloc(SiteId(1), 64, false);
        profiler.record_alloc(SiteId(2), 16 * 1024, true);
        profiler.record_nursery_survivor(SiteId(1), 64);
        profiler.record_post_nursery_write(SiteId(1));
        profiler.record_post_nursery_write(SiteId(1));
        let profile = profiler.finish();
        assert_eq!(profile.workload, "demo");
        assert_eq!(profile.collector, "KG-N");
        let site1 = profile.site(SiteId(1)).unwrap();
        assert_eq!(site1.objects, 2);
        assert_eq!(site1.bytes, 128);
        assert_eq!(site1.survived_objects, 1);
        assert_eq!(site1.post_nursery_writes, 2);
        assert_eq!(site1.large_objects, 0);
        assert!((site1.survival() - 0.5).abs() < 1e-12);
        let site2 = profile.site(SiteId(2)).unwrap();
        assert_eq!(site2.objects, 1);
        assert_eq!(site2.large_objects, 1);
        assert_eq!(site2.survival(), 0.0);
        assert!(profile.site(SiteId(9)).is_none());
    }

    #[test]
    fn write_intensity_is_per_surviving_kb() {
        let record = SiteRecord {
            objects: 4,
            bytes: 4096,
            survived_objects: 2,
            survived_bytes: 2048,
            post_nursery_writes: 100,
            large_objects: 0,
        };
        assert!((record.write_intensity() - 50.0).abs() < 1e-9);
        assert_eq!(SiteRecord::default().write_intensity(), 0.0);
        assert_eq!(SiteRecord::default().survival(), 0.0);
    }
}
