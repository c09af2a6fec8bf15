//! Differential test of the heap layer's dense side metadata against the
//! hash-keyed structures it replaced (in the style of
//! `crates/hybrid-mem/tests/differential.rs`).
//!
//! Each model below is the pre-densification code — a `HashMap`/`HashSet`
//! keyed by raw address, with the old `GcStats` re-keying rules copied
//! verbatim — driven by the same seeded random operations as the dense
//! structure, over addresses chosen to stress the index arithmetic: words
//! eight bytes apart (where a coarser granule would merge neighbours) in
//! one pool straddling a 256 MB slot boundary and another at 40 GB.

use std::collections::{BTreeSet, HashMap, HashSet};

use hybrid_mem::{Address, MemoryConfig, MemoryKind, MemorySystem, Phase, PAGE_SIZE};
use kingsguard::{GcStats, WriteTarget};
use kingsguard_heap::{AddressBitmap, LargeObjectSpace, ObjectRef, RememberedSet, SpaceId};
use sim_rng::{Rng, SeedableRng, SmallRng};

const POOL_WORDS: u64 = 512;
/// Half the words lie below a 256 MB slot boundary, half above it.
const SLOT_EDGE_POOL: u64 = (5 << 28) - POOL_WORDS * 4;
const FAR_POOL: u64 = 40 << 30;

fn pool() -> Vec<Address> {
    [SLOT_EDGE_POOL, FAR_POOL]
        .into_iter()
        .flat_map(|base| (0..POOL_WORDS).map(move |word| Address::new(base + word * 8)))
        .collect()
}

/// A pool address; a quarter of the draws land on sixteen hot words so
/// counts pile up and addresses get recycled.
fn pick(rng: &mut SmallRng, pool: &[Address]) -> Address {
    let index = if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(0..16u64) * 61
    } else {
        rng.gen_range(0..pool.len() as u64)
    };
    pool[index as usize % pool.len()]
}

/// The per-object half of the old `GcStats`, verbatim.
#[derive(Default)]
struct HashStats {
    mature_object_writes: HashMap<u64, u64>,
}

impl HashStats {
    fn record_mature_write(&mut self, obj_addr: Address) {
        *self.mature_object_writes.entry(obj_addr.raw()).or_insert(0) += 1;
    }

    fn object_moved(&mut self, from: Address, to: Address) {
        if let Some(count) = self.mature_object_writes.remove(&from.raw()) {
            *self.mature_object_writes.entry(to.raw()).or_insert(0) += count;
        }
    }

    fn top_mature_writer_share(&self, fraction: f64) -> f64 {
        if self.mature_object_writes.is_empty() {
            return 0.0;
        }
        let mut counts: Vec<u64> = self.mature_object_writes.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let top_n = ((counts.len() as f64 * fraction).ceil() as usize).max(1);
        let top: u64 = counts.iter().take(top_n).sum();
        top as f64 / total as f64
    }
}

fn assert_same_shares(dense: &GcStats, model: &HashStats, context: &str) {
    for fraction in [0.02, 0.10, 1.0] {
        assert_eq!(
            dense.top_mature_writer_share(fraction),
            model.top_mature_writer_share(fraction),
            "{context}: top {fraction} share"
        );
    }
}

/// The write counts are an exact map: any 8-aligned address is its own
/// entry, whether or not an object could start there.
#[test]
fn write_counts_match_the_hash_keyed_statistics_at_any_address() {
    let pool = pool();
    for seed in [7, 11, 0xC0FFEE] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dense = GcStats::default();
        let mut model = HashStats::default();
        let mut mature_writes = 0u64;
        for step in 0..40_000 {
            match rng.gen_range(0..8u32) {
                0 => dense.record_app_write(WriteTarget::Nursery, pick(&mut rng, &pool)),
                // A move onto a fresh or a recycled address, whose dead
                // occupant may have left a count behind.
                1 | 2 => {
                    let (from, to) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                    dense.object_moved(from, to);
                    model.object_moved(from, to);
                }
                _ => {
                    let addr = pick(&mut rng, &pool);
                    dense.record_app_write(WriteTarget::Mature, addr);
                    model.record_mature_write(addr);
                    mature_writes += 1;
                }
            }
            if step % 997 == 0 || step == 39_999 {
                assert_same_shares(&dense, &model, &format!("seed {seed} step {step}"));
            }
        }
        assert_eq!(dense.writes_to_mature_objects, mature_writes);
        assert!(model.mature_object_writes.len() > 500, "the pool filled up");
    }
}

#[test]
fn mark_bitmap_matches_a_hash_set() {
    let pool = pool();
    for seed in [7, 11] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dense = AddressBitmap::new();
        let mut model: HashSet<u64> = HashSet::new();
        for step in 0..20_000 {
            let addr = pick(&mut rng, &pool);
            match rng.gen_range(0..64u32) {
                // A new collection starts.
                0 => {
                    dense.clear();
                    model.clear();
                }
                1..=8 => {
                    dense.remove(addr);
                    model.remove(&addr.raw());
                }
                _ => assert_eq!(
                    dense.insert(addr),
                    model.insert(addr.raw()),
                    "seed {seed} step {step}: marking {addr}"
                ),
            }
            if step % 499 == 0 {
                for &addr in &pool {
                    assert_eq!(
                        dense.contains(addr),
                        model.contains(&addr.raw()),
                        "seed {seed} step {step}: {addr}"
                    );
                }
            }
        }
    }
}

#[test]
fn remembered_set_matches_a_hash_set_read_in_ascending_order() {
    let pool = pool();
    for seed in [7, 11] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut dense = RememberedSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        let ascending = |model: &HashSet<u64>| -> Vec<Address> {
            model
                .iter()
                .copied()
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .map(Address::new)
                .collect()
        };
        for step in 0..20_000 {
            match rng.gen_range(0..256u32) {
                // A nursery collection drains the set...
                0 => {
                    assert_eq!(
                        dense.drain(),
                        ascending(&model),
                        "seed {seed} step {step}: drain order"
                    );
                    model.clear();
                }
                // ...an observer collection reads it in place...
                1 | 2 => assert_eq!(
                    dense.iter().collect::<Vec<_>>(),
                    ascending(&model),
                    "seed {seed} step {step}: iteration order"
                ),
                // ...and a full collection discards it.
                3 => {
                    dense.clear();
                    model.clear();
                }
                _ => {
                    let slot = pick(&mut rng, &pool);
                    assert_eq!(
                        dense.insert(slot),
                        model.insert(slot.raw()),
                        "seed {seed} step {step}: was {slot} new?"
                    );
                }
            }
            assert_eq!(dense.len(), model.len());
            assert_eq!(dense.is_empty(), model.is_empty());
        }
    }
}

#[test]
fn large_object_table_matches_a_hash_map() {
    // One space whose first runs straddle a 256 MB slot boundary, one at
    // 40 GB.
    for (seed, base) in [(7, (9u64 << 28) - 3 * PAGE_SIZE as u64), (11, FAR_POOL)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = Address::new(base);
        let capacity = 256 * PAGE_SIZE;
        let mut dense = LargeObjectSpace::new(SpaceId::LARGE_PCM, MemoryKind::Pcm, base, capacity);
        // address -> (size, marked)
        let mut model: HashMap<u64, (usize, bool)> = HashMap::new();
        let live = |model: &HashMap<u64, (usize, bool)>| -> Vec<u64> {
            model
                .keys()
                .copied()
                .collect::<BTreeSet<u64>>()
                .into_iter()
                .collect()
        };
        let mut allocated = 0;
        for step in 0..6_000 {
            let some_object = |rng: &mut SmallRng, model: &HashMap<u64, (usize, bool)>| {
                let addresses = live(model);
                (!addresses.is_empty()).then(|| addresses[rng.gen_range(0..addresses.len())])
            };
            match rng.gen_range(0..32u32) {
                0 => {
                    dense.prepare_collection();
                    model.values_mut().for_each(|entry| entry.1 = false);
                }
                1 => {
                    let stats = dense.sweep(&mut mem);
                    let before = model.len();
                    model.retain(|_, entry| entry.1);
                    assert_eq!(
                        stats.objects_freed,
                        before - model.len(),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(stats.objects_live, model.len());
                }
                2..=9 => {
                    if let Some(addr) = some_object(&mut rng, &model) {
                        let obj = ObjectRef::from_address(Address::new(addr));
                        let entry = model.get_mut(&addr).expect("picked from the model");
                        assert_eq!(dense.mark(&mut mem, obj, Phase::MajorGc), !entry.1);
                        entry.1 = true;
                    }
                }
                10..=15 => {
                    if let Some(addr) = some_object(&mut rng, &model) {
                        dense.remove(&mut mem, ObjectRef::from_address(Address::new(addr)));
                        model.remove(&addr);
                    }
                }
                _ => {
                    let size = rng.gen_range(1..5 * PAGE_SIZE + 1);
                    if let Some(addr) = dense.alloc_raw(&mut mem, size) {
                        allocated += size;
                        assert!(
                            model.insert(addr.raw(), (size, false)).is_none(),
                            "seed {seed} step {step}: {addr} handed out twice"
                        );
                    }
                }
            }
            assert_eq!(dense.object_count(), model.len());
            let pages: usize = model.values().map(|entry| entry.0.div_ceil(PAGE_SIZE)).sum();
            assert_eq!(dense.used_bytes(), pages * PAGE_SIZE);
            if step % 97 == 0 {
                // Every page of the space, at its start and one word in: only
                // the header address of a live object is "contained".
                for page in 0..(capacity / PAGE_SIZE) as u64 {
                    for offset in [0, 8] {
                        let addr = base.add(page as usize * PAGE_SIZE + offset);
                        let entry = model.get(&addr.raw());
                        assert_eq!(
                            dense.contains(addr),
                            entry.is_some(),
                            "seed {seed} step {step}: {addr}"
                        );
                        assert_eq!(dense.size_of(addr), entry.map(|entry| entry.0));
                        assert_eq!(
                            dense.is_marked(ObjectRef::from_address(addr)),
                            entry.is_some_and(|entry| entry.1)
                        );
                    }
                }
            }
        }
        assert!(allocated > capacity, "the space was recycled");
    }
}
