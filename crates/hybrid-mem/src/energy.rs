//! Energy and energy-delay-product (EDP) model.
//!
//! Reproduces the paper's methodology (Section 5.2.2): per-access dynamic
//! energy from the device models, background (static) energy proportional to
//! execution time and provisioned capacity, and a fixed processor power
//! derived from McPAT-style constants. The headline metric is the
//! energy-delay product, which multiplies energy by execution time and thus
//! penalises PCM's longer latencies (Figure 8).

use crate::devices;
use crate::stats::MemoryStats;
use crate::system::MemoryKind;

/// Energy breakdown of a run, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic DRAM energy (reads + writes).
    pub dram_dynamic_j: f64,
    /// Dynamic PCM energy (reads + writes).
    pub pcm_dynamic_j: f64,
    /// Background/static memory energy.
    pub memory_static_j: f64,
    /// Processor energy.
    pub cpu_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.dram_dynamic_j + self.pcm_dynamic_j + self.memory_static_j + self.cpu_j
    }
}

/// Energy model configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Average processor power in watts (McPAT, quad-core Haswell-class).
    pub cpu_power_w: f64,
    /// Fraction of each memory kind's provisioned static power that is
    /// charged (idle memory is assumed to be partially powered down).
    pub static_power_scale: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            cpu_power_w: 15.0,
            static_power_scale: 1.0,
        }
    }
}

impl EnergyModel {
    /// Computes the energy breakdown of a run.
    ///
    /// `dram_fraction` and `pcm_fraction` scale the static (background +
    /// refresh) power of each technology by the share of its nominal 32 GB
    /// capacity that the configuration provisions: 1.0 for a 32 GB
    /// DRAM-only system, 1/32 for the hybrid systems' 1 GB of DRAM, 0.0 when
    /// the technology is absent. This is what makes hybrid memory
    /// energy-efficient despite PCM's longer latencies (Figure 8).
    pub fn breakdown(
        &self,
        mem: &MemoryStats,
        execution_time_s: f64,
        dram_fraction: f64,
        pcm_fraction: f64,
    ) -> EnergyBreakdown {
        let dram = devices::params_for(MemoryKind::Dram);
        let pcm = devices::params_for(MemoryKind::Pcm);
        let dram_dynamic_j = mem.reads(MemoryKind::Dram) as f64 * dram.read_energy_j()
            + mem.writes(MemoryKind::Dram) as f64 * dram.write_energy_j();
        let pcm_dynamic_j = mem.reads(MemoryKind::Pcm) as f64 * pcm.read_energy_j()
            + mem.writes(MemoryKind::Pcm) as f64 * pcm.write_energy_j();
        let static_w = dram.static_power_w * dram_fraction.clamp(0.0, 1.0) * self.static_power_scale
            + pcm.static_power_w * pcm_fraction.clamp(0.0, 1.0) * self.static_power_scale;
        EnergyBreakdown {
            dram_dynamic_j,
            pcm_dynamic_j,
            memory_static_j: static_w * execution_time_s,
            cpu_j: self.cpu_power_w * execution_time_s,
        }
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(
        &self,
        mem: &MemoryStats,
        execution_time_s: f64,
        dram_fraction: f64,
        pcm_fraction: f64,
    ) -> f64 {
        self.breakdown(mem, execution_time_s, dram_fraction, pcm_fraction)
            .total_j()
            * execution_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(dram_w: u64, pcm_w: u64) -> MemoryStats {
        let mut s = MemoryStats::default();
        s.writes[MemoryKind::Dram as usize] = dram_w;
        s.reads[MemoryKind::Dram as usize] = dram_w;
        s.writes[MemoryKind::Pcm as usize] = pcm_w;
        s.reads[MemoryKind::Pcm as usize] = pcm_w;
        s
    }

    #[test]
    fn pcm_writes_cost_more_energy_than_dram_writes() {
        let model = EnergyModel::default();
        let d = model.breakdown(&stats(1_000_000, 0), 1.0, 1.0, 0.0);
        let p = model.breakdown(&stats(0, 1_000_000), 1.0, 0.0, 1.0);
        assert!(p.pcm_dynamic_j > d.dram_dynamic_j);
    }

    #[test]
    fn pcm_static_power_is_lower() {
        let model = EnergyModel::default();
        let d = model.breakdown(&MemoryStats::default(), 10.0, 1.0, 0.0);
        let p = model.breakdown(&MemoryStats::default(), 10.0, 0.0, 1.0);
        assert!(p.memory_static_j < d.memory_static_j);
    }

    #[test]
    fn hybrid_static_power_is_much_lower_than_dram_only() {
        // The hybrid system provisions only 1 GB of DRAM (1/32 of the
        // DRAM-only system), which is where the paper's energy advantage
        // comes from.
        let model = EnergyModel::default();
        let dram_only = model.breakdown(&MemoryStats::default(), 1.0, 1.0, 0.0);
        let hybrid = model.breakdown(&MemoryStats::default(), 1.0, 1.0 / 32.0, 1.0);
        assert!(hybrid.memory_static_j < dram_only.memory_static_j / 5.0);
    }

    #[test]
    fn edp_scales_quadratically_with_time_for_static_energy() {
        let model = EnergyModel::default();
        let s = MemoryStats::default();
        let e1 = model.edp(&s, 1.0, 1.0, 1.0);
        let e2 = model.edp(&s, 2.0, 1.0, 1.0);
        assert!((e2 / e1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let model = EnergyModel::default();
        let b = model.breakdown(&stats(10, 20), 0.5, 1.0, 1.0);
        let sum = b.dram_dynamic_j + b.pcm_dynamic_j + b.memory_static_j + b.cpu_j;
        assert!((b.total_j() - sum).abs() < 1e-15);
        assert!(b.cpu_j > 0.0, "the processor term is part of the total");
    }
}
