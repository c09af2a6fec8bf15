//! Collector and heap configuration.
//!
//! Reproduces Table 1 of the paper plus the baseline memory systems of
//! Section 4: the generational Immix baseline running on DRAM-only or
//! PCM-only memory, Kingsguard-nursery (KG-N) and Kingsguard-writers (KG-W)
//! with its Large Object Optimization (LOO), Metadata Optimization (MDO) and
//! primitive-write-monitoring toggles — and the profile-guided
//! Kingsguard-advice (KG-A), which replays a per-site write profile instead
//! of paying KG-W's online observer-space tax.

use advice::AdviceTable;
use hybrid_mem::MemoryKind;

/// Which collector algorithm manages the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// The default generational Immix collector with every space on a single
    /// memory technology (the DRAM-only / PCM-only baselines).
    GenImmix {
        /// The single memory technology backing the whole heap.
        memory: MemoryKind,
    },
    /// Kingsguard-nursery: DRAM nursery, everything else in PCM.
    KingsguardNursery,
    /// Kingsguard-writers: DRAM nursery + observer space, per-object
    /// placement of mature objects by observed write behaviour.
    KingsguardWriters,
    /// Kingsguard-advice: DRAM nursery, no observer space; nursery survivors
    /// are pretenured into DRAM or PCM mature space according to the
    /// per-allocation-site advice table of [`HeapConfig::advice`], with
    /// KG-W-style rescue of written PCM objects as the misprediction
    /// fallback.
    KgAdvice,
    /// Kingsguard-dynamic: online-adaptive per-site placement. Starts from
    /// KG-N-like all-PCM placement (or the stale advice table in
    /// [`HeapConfig::advice`], if any) and refreshes per-site advice during
    /// the run from rescue/demotion feedback and barrier-observed PCM
    /// writes — no prior profiling run, no observer space.
    KgDynamic,
}

/// Feature toggles of Kingsguard-writers (Table 1 and Section 6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KgwOptions {
    /// Large Object Optimization: give large objects a chance to die in the
    /// nursery, and move written large PCM objects to a DRAM large space.
    pub large_object_optimization: bool,
    /// Metadata Optimization: keep the mark state of PCM objects in DRAM
    /// side tables.
    pub metadata_optimization: bool,
    /// Monitor primitive (non-reference) writes in the write barrier. When
    /// disabled this is the paper's "KG-W–PM" configuration.
    pub monitor_primitives: bool,
}

impl Default for KgwOptions {
    fn default() -> Self {
        KgwOptions {
            large_object_optimization: true,
            metadata_optimization: true,
            monitor_primitives: true,
        }
    }
}

/// Full heap configuration: collector, space sizes and heap budget.
///
/// Sizes default to the paper's values divided by [`HeapConfig::DEFAULT_SCALE`]
/// so that scaled-down synthetic workloads finish quickly while every ratio
/// (nursery : observer : heap) matches the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct HeapConfig {
    /// The collector algorithm.
    pub collector: CollectorKind,
    /// Nursery size in bytes (4 MB in the paper).
    pub nursery_bytes: usize,
    /// Observer space size in bytes (8 MB in the paper — twice the nursery).
    pub observer_bytes: usize,
    /// Mature-heap budget in bytes; exceeding it triggers a full collection
    /// (2× the minimum live size in the paper).
    pub heap_budget_bytes: usize,
    /// Capacity of each large object space in bytes.
    pub los_capacity_bytes: usize,
    /// Capacity of the metadata space in bytes.
    pub metadata_capacity_bytes: usize,
    /// KG-W feature toggles (ignored by the other collectors).
    pub kgw: KgwOptions,
    /// Per-site placement advice (required by [`CollectorKind::KgAdvice`],
    /// ignored by the other collectors).
    pub advice: Option<AdviceTable>,
}

impl HeapConfig {
    /// Divisor applied to the paper's space sizes for scaled-down runs.
    pub const DEFAULT_SCALE: usize = 16;

    /// The paper's nursery size (4 MB).
    pub const PAPER_NURSERY_BYTES: usize = 4 << 20;

    /// The paper's observer-space size (8 MB).
    pub const PAPER_OBSERVER_BYTES: usize = 8 << 20;

    fn base(collector: CollectorKind) -> Self {
        let scale = Self::DEFAULT_SCALE;
        HeapConfig {
            collector,
            nursery_bytes: Self::PAPER_NURSERY_BYTES / scale,
            observer_bytes: Self::PAPER_OBSERVER_BYTES / scale,
            heap_budget_bytes: (96 << 20) / scale,
            los_capacity_bytes: (256 << 20) / scale,
            metadata_capacity_bytes: (32 << 20) / scale,
            kgw: KgwOptions::default(),
            advice: None,
        }
    }

    /// Generational Immix on a DRAM-only memory system.
    pub fn gen_immix_dram() -> Self {
        Self::base(CollectorKind::GenImmix {
            memory: MemoryKind::Dram,
        })
    }

    /// Generational Immix on a PCM-only memory system (with hardware line
    /// wear-leveling assumed by the memory model).
    pub fn gen_immix_pcm() -> Self {
        Self::base(CollectorKind::GenImmix {
            memory: MemoryKind::Pcm,
        })
    }

    /// Kingsguard-nursery (Table 1, row KG-N).
    pub fn kg_n() -> Self {
        Self::base(CollectorKind::KingsguardNursery)
    }

    /// Kingsguard-nursery with a 12 MB-equivalent (3×) nursery — the
    /// "KG-N-12" configuration of Figure 11.
    pub fn kg_n_large_nursery() -> Self {
        let mut config = Self::kg_n();
        config.nursery_bytes *= 3;
        config
    }

    /// Kingsguard-writers with all optimizations (Table 1, row KG-W).
    pub fn kg_w() -> Self {
        Self::base(CollectorKind::KingsguardWriters)
    }

    /// KG-W without the Large Object Optimization (Table 1, "KG-W–LOO").
    pub fn kg_w_no_loo() -> Self {
        let mut config = Self::kg_w();
        config.kgw.large_object_optimization = false;
        config
    }

    /// KG-W without LOO and without MDO (Table 1, "KG-W–LOO–MDO").
    pub fn kg_w_no_loo_no_mdo() -> Self {
        let mut config = Self::kg_w_no_loo();
        config.kgw.metadata_optimization = false;
        config
    }

    /// KG-W without primitive-write monitoring (Figure 11/12, "KG-W–PM").
    pub fn kg_w_no_primitive_monitoring() -> Self {
        let mut config = Self::kg_w();
        config.kgw.monitor_primitives = false;
        config
    }

    /// Kingsguard-advice: profile-guided placement driven by `advice`.
    pub fn kg_a(advice: AdviceTable) -> Self {
        let mut config = Self::base(CollectorKind::KgAdvice);
        config.advice = Some(advice);
        config
    }

    /// Kingsguard-dynamic: online-adaptive placement starting from KG-N-like
    /// all-PCM placement, with no prior profiling run.
    pub fn kg_d() -> Self {
        Self::base(CollectorKind::KgDynamic)
    }

    /// Kingsguard-dynamic seeded from a (possibly stale) advice table whose
    /// DRAM placements form the starting advice, refined online.
    pub fn kg_d_with(advice: AdviceTable) -> Self {
        let mut config = Self::base(CollectorKind::KgDynamic);
        config.advice = Some(advice);
        config
    }

    /// Sets the mature-heap budget (2× minimum live size in the paper's
    /// methodology) and scales the large-object space with it. The
    /// large-object spaces get four times the budget of virtual room: their
    /// pages are only mapped on demand, and the slack guarantees that a
    /// full-heap collection can always evacuate surviving large objects
    /// before the dead ones are swept.
    pub fn with_heap_budget(mut self, bytes: usize) -> Self {
        self.heap_budget_bytes = bytes;
        self.los_capacity_bytes = self.los_capacity_bytes.max(bytes * 4);
        self
    }

    /// Short name used in reports ("DRAM-only", "PCM-only", "KG-N", "KG-W",
    /// "KG-W-LOO", ...).
    pub fn label(&self) -> String {
        match self.collector {
            CollectorKind::GenImmix {
                memory: MemoryKind::Dram,
            } => "DRAM-only".to_string(),
            CollectorKind::GenImmix {
                memory: MemoryKind::Pcm,
            } => "PCM-only".to_string(),
            CollectorKind::KingsguardNursery => {
                if self.nursery_bytes > Self::PAPER_NURSERY_BYTES / Self::DEFAULT_SCALE {
                    "KG-N-12".to_string()
                } else {
                    "KG-N".to_string()
                }
            }
            CollectorKind::KingsguardWriters => {
                let mut label = "KG-W".to_string();
                if !self.kgw.large_object_optimization {
                    label.push_str("-LOO");
                }
                if !self.kgw.metadata_optimization {
                    label.push_str("-MDO");
                }
                if !self.kgw.monitor_primitives {
                    label.push_str("-PM");
                }
                label
            }
            CollectorKind::KgAdvice => "KG-A".to_string(),
            CollectorKind::KgDynamic => "KG-D".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configurations() {
        assert_eq!(HeapConfig::kg_n().label(), "KG-N");
        assert_eq!(HeapConfig::kg_w().label(), "KG-W");
        assert_eq!(HeapConfig::kg_w_no_loo().label(), "KG-W-LOO");
        assert_eq!(HeapConfig::kg_w_no_loo_no_mdo().label(), "KG-W-LOO-MDO");
        assert_eq!(HeapConfig::kg_w_no_primitive_monitoring().label(), "KG-W-PM");
        assert_eq!(HeapConfig::gen_immix_dram().label(), "DRAM-only");
        assert_eq!(HeapConfig::gen_immix_pcm().label(), "PCM-only");
        assert_eq!(HeapConfig::kg_n_large_nursery().label(), "KG-N-12");
    }

    #[test]
    fn observer_is_twice_the_nursery() {
        let config = HeapConfig::kg_w();
        assert_eq!(config.observer_bytes, 2 * config.nursery_bytes);
    }

    #[test]
    fn kg_a_configuration() {
        let config = HeapConfig::kg_a(AdviceTable::all_cold());
        assert_eq!(config.label(), "KG-A");
        assert!(config.advice.is_some());
    }

    #[test]
    fn kg_n_12_has_triple_nursery() {
        assert_eq!(
            HeapConfig::kg_n_large_nursery().nursery_bytes,
            3 * HeapConfig::kg_n().nursery_bytes
        );
    }

    #[test]
    fn budget_override_grows_los() {
        let config = HeapConfig::kg_w().with_heap_budget(512 << 20);
        assert_eq!(config.heap_budget_bytes, 512 << 20);
        assert!(config.los_capacity_bytes >= 512 << 20);
    }

    #[test]
    fn ablation_toggles() {
        assert!(!HeapConfig::kg_w_no_loo().kgw.large_object_optimization);
        assert!(HeapConfig::kg_w_no_loo().kgw.metadata_optimization);
        assert!(!HeapConfig::kg_w_no_loo_no_mdo().kgw.metadata_optimization);
        assert!(!HeapConfig::kg_w_no_primitive_monitoring().kgw.monitor_primitives);
        assert!(HeapConfig::kg_w().kgw.monitor_primitives);
    }
}
