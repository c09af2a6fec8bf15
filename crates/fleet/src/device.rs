//! The shared PCM device: per-region cumulative wear and fault state.
//!
//! Every tenant heap simulates its own address space, so fleet-level wear
//! needs a device abstraction of its own: one [`FleetDevice`] models the
//! server's physical PCM as a row of equally sized *regions*, each with its
//! own deterministic [`FaultModel`] (seeded from the fleet seed and the
//! region index) over the region's *cumulative* per-line write counts.
//! When a tenant session is recycled, its
//! [`hybrid_mem::MemorySystem::pcm_line_writes`] export is folded into the
//! region the broker placed it on — the same physical lines are reused by
//! session after session, which is exactly why wear accumulates — and the
//! region's fault schedule is pumped with the new cumulative counts
//! ([`FaultModel::pump`] is order-independent and idempotent per count, so
//! cumulative pumping is exact).
//!
//! Pages that cross the ECC-correctable threshold between sessions are
//! retired at the device level: they are spare-remapped away (capacity
//! loss) before the next tenant arrives, counted per region so the wear
//! broker can route new tenants around the damage.

use std::collections::BTreeMap;

use hybrid_mem::{
    years_to_first_uncorrectable, FaultConfig, FaultEvent, FaultModel, WearSummary, WearTracker,
};

/// Lines per device region: 2^16 × 256 B = 16 MB of PCM. Tenant line ids
/// are folded into this window, so sessions on the same region overlap —
/// deliberately: a recycled session's successor reuses its predecessor's
/// physical pages.
pub const REGION_LINES: u64 = 1 << 16;

/// One region's wear and fault state.
#[derive(Clone, Debug)]
struct Region {
    fault: FaultModel,
    /// Cumulative device writes per local line, across every session the
    /// region ever hosted.
    counts: BTreeMap<u64, u64>,
    /// Accumulated modeled session-seconds (sessions on one region are
    /// serialised on the device).
    elapsed_s: f64,
    sessions: u64,
    total_writes: u64,
}

/// Read-only wear/fault snapshot of one region, consumed by the broker.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegionStats {
    /// Sessions absorbed so far.
    pub sessions: u64,
    /// Cumulative device line writes.
    pub total_writes: u64,
    /// Permanently failed lines.
    pub failed_lines: u64,
    /// ECC-uncorrectable pages retired (spare-remapped away).
    pub retired_pages: u64,
    /// PCM capacity lost to retired pages, in bytes.
    pub degraded_bytes: u64,
    /// Accumulated modeled session-seconds.
    pub elapsed_s: f64,
}

/// What one absorbed session did to its region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbsorbOutcome {
    /// Lines newly failed by this session's wear.
    pub new_failed_lines: u64,
    /// Pages newly retired by this session's wear.
    pub new_retired_pages: u64,
}

/// The fleet's shared PCM device: a row of regions with cumulative wear.
#[derive(Clone, Debug)]
pub struct FleetDevice {
    regions: Vec<Region>,
}

impl FleetDevice {
    /// A device of `regions` un-worn regions. Each region draws its own
    /// fault schedule: `base` with the seed replaced by a splitmix64 mix of
    /// the fleet seed and the region index, so regions fail independently
    /// but the whole device is a pure function of `(seed, base)`.
    pub fn new(seed: u64, regions: usize, base: FaultConfig) -> Self {
        let regions = (0..regions.max(1) as u64)
            .map(|index| Region {
                fault: FaultModel::new(FaultConfig {
                    seed: mix(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    ..base
                }),
                counts: BTreeMap::new(),
                elapsed_s: 0.0,
                sessions: 0,
                total_writes: 0,
            })
            .collect();
        FleetDevice { regions }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Folds one recycled session into `region`: its per-line write counts
    /// accumulate onto the region's lines (tenant line ids are folded into
    /// the region window) and the region's fault schedule advances against
    /// the new cumulative counts. Newly uncorrectable pages are retired
    /// immediately — the device remaps them to spare capacity between
    /// sessions, so the *next* tenant simply has less of this region left.
    pub fn absorb(&mut self, region: usize, line_writes: &[(u64, u64)], elapsed_s: f64) -> AbsorbOutcome {
        let region = &mut self.regions[region];
        for &(line, writes) in line_writes {
            if writes == 0 {
                continue;
            }
            *region.counts.entry(line % REGION_LINES).or_insert(0) += writes;
            region.total_writes += writes;
        }
        region.elapsed_s += elapsed_s.max(0.0);
        region.sessions += 1;
        let cumulative: Vec<(u64, u64)> = region.counts.iter().map(|(&l, &w)| (l, w)).collect();
        let mut outcome = AbsorbOutcome::default();
        for event in region.fault.pump(&cumulative) {
            match event {
                FaultEvent::LineFailed { .. } => outcome.new_failed_lines += 1,
                FaultEvent::PageUncorrectable { page, .. } => {
                    region.fault.mark_page_retired(page);
                    outcome.new_retired_pages += 1;
                }
                FaultEvent::TransientFlips { .. } => {}
            }
        }
        outcome
    }

    /// Wear/fault snapshot of `region`.
    pub fn stats(&self, region: usize) -> RegionStats {
        let region = &self.regions[region];
        RegionStats {
            sessions: region.sessions,
            total_writes: region.total_writes,
            failed_lines: region.fault.failed_line_count(),
            retired_pages: region.fault.retired_page_count(),
            degraded_bytes: region.fault.degraded_bytes(),
            elapsed_s: region.elapsed_s,
        }
    }

    /// Permanently failed lines, device-wide.
    pub fn failed_line_count(&self) -> u64 {
        self.regions.iter().map(|r| r.fault.failed_line_count()).sum()
    }

    /// Retired pages, device-wide.
    pub fn retired_page_count(&self) -> u64 {
        self.regions.iter().map(|r| r.fault.retired_page_count()).sum()
    }

    /// PCM capacity lost to retired pages, in bytes, device-wide.
    pub fn degraded_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.fault.degraded_bytes()).sum()
    }

    /// Analytic real-time years until the device's first uncorrectable page
    /// — the minimum of the per-region projections at each region's own
    /// cumulative write rates ([`years_to_first_uncorrectable`]; the wear
    /// acceleration divides back out). `None` when no region would ever
    /// fail.
    pub fn years_to_first_uncorrectable(&self) -> Option<f64> {
        self.regions
            .iter()
            .filter(|region| region.elapsed_s > 0.0)
            .filter_map(|region| {
                let cumulative: Vec<(u64, u64)> = region.counts.iter().map(|(&l, &w)| (l, w)).collect();
                years_to_first_uncorrectable(region.fault.config(), &cumulative, region.elapsed_s)
            })
            .min_by(|a, b| a.partial_cmp(b).expect("finite years"))
    }

    /// Device-wide wear distribution over every written line of every
    /// region (the hybrid-mem region wear rollup).
    pub fn wear_summary(&self) -> WearSummary {
        WearTracker::from_counts(
            self.regions
                .iter()
                .flat_map(|region| region.counts.values().copied()),
        )
        .summary()
    }
}

/// splitmix64 finalizer — the workspace's standard bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::fault::LINES_PER_PAGE;
    use hybrid_mem::Endurance;

    fn config() -> FaultConfig {
        // Aggressive acceleration so a handful of absorbed writes crosses
        // line budgets in-test.
        FaultConfig::accelerated(7, Endurance::Low10M).with_wear_multiplier(1 << 22)
    }

    #[test]
    fn regions_draw_independent_schedules() {
        let device = FleetDevice::new(1, 4, config());
        let seeds: Vec<u64> = (0..4).map(|r| device.regions[r].fault.config().seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "region seeds must differ: {seeds:?}");
        let again = FleetDevice::new(1, 4, config());
        assert_eq!(
            seeds,
            (0..4)
                .map(|r| again.regions[r].fault.config().seed)
                .collect::<Vec<_>>(),
            "region seeds are a pure function of the fleet seed"
        );
    }

    #[test]
    fn cumulative_absorption_equals_one_shot_absorption() {
        // Two lines per page stay below the ECC-correctable threshold, so
        // no page retires mid-test: a retired page stops aging, which makes
        // split and one-shot schedules *legitimately* diverge. Without
        // retirement in the way, cumulative pumping must be exact.
        let writes: Vec<(u64, u64)> = (0..64u64)
            .filter(|l| l % LINES_PER_PAGE < 2)
            .map(|l| (l, 3))
            .collect();
        let mut split = FleetDevice::new(9, 2, config());
        split.absorb(0, &writes, 1.0);
        split.absorb(0, &writes, 1.0);
        let doubled: Vec<(u64, u64)> = writes.iter().map(|&(l, w)| (l, 2 * w)).collect();
        let mut oneshot = FleetDevice::new(9, 2, config());
        oneshot.absorb(0, &doubled, 2.0);
        assert!(
            oneshot.failed_line_count() > 0,
            "the test traffic must actually wear lines"
        );
        assert_eq!(split.failed_line_count(), oneshot.failed_line_count());
        assert_eq!(split.retired_page_count(), oneshot.retired_page_count());
        assert_eq!(
            split.years_to_first_uncorrectable().map(f64::to_bits),
            oneshot.years_to_first_uncorrectable().map(f64::to_bits),
            "cumulative pumping must be exact"
        );
    }

    #[test]
    fn tenant_lines_fold_into_the_region_window() {
        let mut device = FleetDevice::new(3, 1, config());
        device.absorb(0, &[(REGION_LINES + 5, 4), (5, 4)], 1.0);
        assert_eq!(device.regions[0].counts.get(&5), Some(&8));
        assert_eq!(device.stats(0).total_writes, 8);
    }

    #[test]
    fn heavy_wear_fails_lines_and_retires_pages() {
        let mut device = FleetDevice::new(11, 2, config());
        // Enough writes on a full page's worth of lines to exceed every
        // budget (budget < 15M physical; 8 writes * 2^22 = 33.5M aged).
        let writes: Vec<(u64, u64)> = (0..LINES_PER_PAGE).map(|l| (l, 8)).collect();
        let outcome = device.absorb(0, &writes, 1.0);
        assert_eq!(outcome.new_failed_lines, LINES_PER_PAGE);
        assert_eq!(outcome.new_retired_pages, 1);
        assert_eq!(device.retired_page_count(), 1);
        assert_eq!(device.degraded_bytes(), 4096);
        assert_eq!(device.stats(1), RegionStats::default(), "other region untouched");
        // A retired page stops aging: pumping the same lines again fails
        // nothing new.
        let outcome = device.absorb(0, &writes, 1.0);
        assert_eq!(outcome, AbsorbOutcome::default());
    }

    #[test]
    fn years_projection_shortens_with_wear_rate() {
        let light = {
            let mut device = FleetDevice::new(5, 1, FaultConfig::new(5, Endurance::Mid30M));
            let writes: Vec<(u64, u64)> = (0..256).map(|l| (l, 100)).collect();
            device.absorb(0, &writes, 10.0);
            device.years_to_first_uncorrectable().unwrap()
        };
        let heavy = {
            let mut device = FleetDevice::new(5, 1, FaultConfig::new(5, Endurance::Mid30M));
            let writes: Vec<(u64, u64)> = (0..256).map(|l| (l, 1000)).collect();
            device.absorb(0, &writes, 10.0);
            device.years_to_first_uncorrectable().unwrap()
        };
        assert!(heavy < light, "10x the write rate must shorten the projection");
        let summary = {
            let mut device = FleetDevice::new(5, 2, config());
            device.absorb(1, &[(0, 4), (1, 8)], 1.0);
            device.wear_summary()
        };
        assert_eq!(summary.lines_written, 2);
        assert_eq!(summary.total_writes, 12);
        assert_eq!(summary.max_line_writes, 8);
    }
}
