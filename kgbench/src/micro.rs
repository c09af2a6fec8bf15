//! `hybrid-mem` microdriver: what one `MemorySystem` touch costs.
//!
//! A seeded address stream shaped like the heap's traffic — bump-sequential
//! nursery stores, reads of recent nursery data, skewed mature-page reads
//! and writes, promotion copies and allocation zeroing — is timed through the
//! public access functions in the three memory configurations the workloads
//! use: no caches (`replay-*`), the 16×-scaled cache hierarchy
//! (`live-sim-k4`), and no caches with per-line wear tracking and
//! accelerated faults (`fleet`). The stream is generated before timing, so
//! the measured time is the memory system's alone.

use hybrid_mem::{
    Address, Endurance, FaultConfig, FaultEvent, MemoryConfig, MemoryKind, MemorySystem, PageId, Phase,
    PAGE_SIZE,
};
use sim_rng::{Rng, SeedableRng, SmallRng};

use crate::harness::{repeat_for, RunOptions, Tally};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats::undisturbed;

const NURSERY_PAGES: usize = 256;
const MATURE_PAGES: usize = 1024;
/// Share of mature pages that take most mature accesses.
const HOT_PAGES: usize = MATURE_PAGES / 50;
/// Operations between two simulated safepoints (fault pump).
const SAFEPOINT_EVERY: usize = 1 << 16;

#[derive(Clone, Copy)]
enum Op {
    Write(u64),
    Read(u64),
    /// Promotion: copy one object from the nursery to mature space.
    Copy(u64, u64),
    /// Allocation: zero one object at the nursery bump pointer.
    Zero(u64),
}

/// Bytes of one simulated object (the workloads' mean object size).
const OBJECT: usize = 64;

/// Offsets are relative to the extent base; the nursery comes first. Like
/// the heap's own traffic, almost every operation touches one cache line,
/// and the mix is local enough that the scaled cache hierarchy hits 83 % of
/// the time (xalan under `live-sim-k4`: 87 %).
fn stream(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x006d_6963_726f);
    let nursery_bytes = (NURSERY_PAGES * PAGE_SIZE) as u64;
    let mature_bytes = (MATURE_PAGES * PAGE_SIZE) as u64;
    let mut bump = 0u64;
    let mut promoted = 0u64;
    let mature_slot = |rng: &mut SmallRng| {
        let page = if rng.gen_bool(0.9) {
            rng.gen_range(0..HOT_PAGES)
        } else {
            rng.gen_range(0..MATURE_PAGES)
        };
        nursery_bytes + (page * PAGE_SIZE) as u64 + rng.gen_range(0..PAGE_SIZE as u64 / 8) * 8
    };
    (0..ops)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=7 => {
                bump = (bump + 8 * rng.gen_range(3..12u64)) % (nursery_bytes - 2 * OBJECT as u64);
                Op::Zero(bump)
            }
            8..=57 => Op::Write(bump + 8 * rng.gen_range(0..OBJECT as u64 / 8)),
            58..=74 => Op::Read(bump.saturating_sub(8 * rng.gen_range(1..64u64))),
            75..=87 => Op::Write(mature_slot(&mut rng)),
            88..=96 => Op::Read(mature_slot(&mut rng)),
            _ => {
                promoted = (promoted + OBJECT as u64) % mature_bytes;
                Op::Copy(bump, nursery_bytes + promoted)
            }
        })
        .collect()
}

fn memory(config: &MemoryConfig) -> (MemorySystem, Address) {
    let mut mem = MemorySystem::new(config.clone());
    let base = mem.reserve_extent("kgbench-micro", (NURSERY_PAGES + MATURE_PAGES) * PAGE_SIZE);
    mem.map_pages(base, NURSERY_PAGES, MemoryKind::Dram, 0);
    mem.map_pages(
        base.add(NURSERY_PAGES * PAGE_SIZE),
        MATURE_PAGES,
        MemoryKind::Pcm,
        1,
    );
    (mem, base)
}

fn apply(mem: &mut MemorySystem, base: Address, ops: &[Op]) {
    for chunk in ops.chunks(SAFEPOINT_EVERY) {
        for &op in chunk {
            match op {
                Op::Write(at) => mem.write_u64(base.add(at as usize), at, Phase::Mutator),
                Op::Read(at) => {
                    std::hint::black_box(mem.read_u64(base.add(at as usize), Phase::Mutator));
                }
                Op::Copy(from, to) => mem.copy(
                    base.add(from as usize),
                    base.add(to as usize),
                    OBJECT,
                    Phase::NurseryGc,
                ),
                Op::Zero(at) => mem.zero(base.add(at as usize), OBJECT, Phase::Mutator),
            }
        }
        for event in mem.pump_faults() {
            if let FaultEvent::PageUncorrectable { page, .. } = event {
                mem.retire_page(PageId(page));
            }
        }
    }
}

fn digest(mem: &mut MemorySystem) -> String {
    mem.flush_caches();
    format!("{:?}", mem.stats())
}

/// The three memory configurations, in the order of [`MicroResult`]'s samples.
const CONFIGS: [&str; 3] = ["nocache", "cache", "wear"];

/// Nanoseconds-per-touch samples of the three configurations: no caches;
/// the 16×-scaled cache hierarchy; no caches with per-line wear tracking and
/// accelerated faults.
#[derive(Clone, Debug, Default)]
pub struct MicroResult {
    samples: [Vec<f64>; CONFIGS.len()],
}

impl MicroResult {
    /// Records the three `hybrid-mem.touch_ns.*` metrics.
    pub fn record(&self, values: &mut Values) {
        for (name, samples) in CONFIGS.iter().zip(&self.samples) {
            values.set_times(&format!("hybrid-mem.touch_ns.{name}"), samples);
        }
    }

    /// Undisturbed nanoseconds per touch, with or without the cache model.
    pub fn touch_ns(&self, cached: bool) -> f64 {
        undisturbed(&self.samples[usize::from(cached)])
    }
}

/// Times the stream in the three configurations, at least one second each
/// (two repeats in quick mode), checking that the simulated statistics
/// repeat exactly and do not change under the hot-path profiler.
pub fn run(options: &RunOptions, spans: &mut SpanLog, tally: &mut Tally) -> MicroResult {
    let ops = stream(options.seed, if options.quick { 20_000 } else { 300_000 });
    let configs = [
        MemoryConfig::architecture_independent(),
        MemoryConfig::hybrid_scaled(16),
        MemoryConfig::architecture_independent()
            .with_faults(FaultConfig::accelerated(options.seed, Endurance::Mid30M)),
    ];
    let mut result = MicroResult::default();
    for ((name, config), samples) in CONFIGS.iter().zip(&configs).zip(&mut result.samples) {
        spans.enter(format!("touch {name}"));
        // The profiled repeat gives the exact touch count and the reference
        // digest (the profiler must not change the simulation).
        let (mut mem, base) = memory(config);
        mem.enable_touch_profiler(telemetry::DEFAULT_SAMPLE_EVERY);
        apply(&mut mem, base, &ops);
        apply(&mut mem, base, &ops);
        let touches = mem.touch_profile().map_or(0, |profile| profile.touches) / 2;
        let reference = digest(&mut mem);
        repeat_for(if options.quick { 0.0 } else { 1.0 }, 2, |_| {
            // The first application maps backing chunks and fills the
            // caches; the second is the steady state that is timed.
            let (mut mem, base) = memory(config);
            apply(&mut mem, base, &ops);
            let ((), secs) = spans.scope("repeat", |_| apply(&mut mem, base, &ops));
            samples.push(secs * 1e9 / touches.max(1) as f64);
            let got = digest(&mut mem);
            tally.check(got == reference, || {
                format!("micro {name}: simulated statistics changed between repeats")
            });
        });
        spans.exit();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_stays_inside_the_extent() {
        let a = stream(7, 5_000);
        let b = stream(7, 5_000);
        let c = stream(8, 5_000);
        let key = |ops: &[Op]| -> Vec<u64> {
            ops.iter()
                .map(|op| match *op {
                    Op::Write(at) | Op::Read(at) | Op::Zero(at) => at,
                    Op::Copy(from, to) => from ^ to,
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        let limit = ((NURSERY_PAGES + MATURE_PAGES) * PAGE_SIZE) as u64;
        for op in &a {
            let end = match *op {
                Op::Write(at) | Op::Read(at) => at + 8,
                Op::Copy(from, to) => from.max(to) + OBJECT as u64,
                Op::Zero(at) => at + OBJECT as u64,
            };
            assert!(end <= limit);
        }
    }
}
