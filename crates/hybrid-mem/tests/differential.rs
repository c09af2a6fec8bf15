//! Differential tests of the memory system against slow, obvious oracles.
//!
//! **The memory system.** Seeded random operation sequences run against
//! [`MemorySystem`] and against a reference model that keeps every piece of
//! per-address state — page placement, backing bytes, per-page and per-line
//! write counts — in a plain `HashMap`, every aggregate in one unsharded
//! block, and its caches in a [`ReferenceCache`]; the two share no code.
//! Addresses sit where the dense tables have their edges: below the first
//! extent, at the first extent, across a 256 MB slot boundary and far away
//! at 40 GB.
//!
//! **The cache model.** [`CacheHierarchy`] (flat physical-way side arrays, a
//! recency word per set, verified way hints in a dense table) is driven
//! directly against [`ReferenceCache`] (the timestamped `Vec<Vec<Entry>>`
//! hierarchy it replaced) and must emit the same events, access by access,
//! on every geometry — including a set count that is not a power of two, the
//! most ways and the most levels it takes — and wherever the footprint sits
//! in the hint table: at line 0, across a 256 MB slot boundary, at 40 GB.

mod reference_cache;

use std::collections::HashMap;

use hybrid_mem::cache::{CacheLevelConfig, MemEvent, MAX_LEVELS};
use hybrid_mem::{
    Address, CacheConfig, CacheHierarchy, MemoryConfig, MemoryKind, MemoryStats, MemorySystem, PageId, Phase,
    ShardId, CACHE_LINE_SIZE, LINE_SIZE, PAGE_SIZE,
};
use reference_cache::ReferenceCache;
use sim_rng::{Rng, SeedableRng, SmallRng};

const REGION_PAGES: usize = 6;
/// A 256 MB slot boundary of the dense tables, past the first extent.
const SLOT_BOUNDARY: u64 = (1 << 30) + (512 << 20);
/// Region bases: low memory, the first extent, two pages short of a later
/// slot boundary (so the region straddles two slots), and 40 GB.
const REGIONS: [u64; 4] = [0x1000, 1 << 30, SLOT_BOUNDARY - 2 * PAGE_SIZE as u64, 40 << 30];
const LINES_PER_PAGE: u64 = (PAGE_SIZE / CACHE_LINE_SIZE) as u64;

/// The reference: what the memory system computes, with hash maps.
struct Model {
    cache: ReferenceCache,
    track_lines: bool,
    pages: HashMap<u64, MemoryKind>,
    bytes: HashMap<u64, u8>,
    page_writes: HashMap<u64, u64>,
    line_writes: HashMap<u64, u64>,
    stats: MemoryStats,
}

impl Model {
    fn new(config: &MemoryConfig) -> Self {
        Model {
            cache: config
                .cache
                .as_ref()
                .map_or_else(ReferenceCache::disabled, ReferenceCache::new),
            track_lines: config.track_line_writes,
            pages: HashMap::new(),
            bytes: HashMap::new(),
            page_writes: HashMap::new(),
            line_writes: HashMap::new(),
            stats: MemoryStats::default(),
        }
    }

    fn account(&mut self, event: MemEvent) {
        let page = event.line / LINES_PER_PAGE;
        let Some(&kind) = self.pages.get(&page) else {
            return;
        };
        if event.write {
            self.stats.writes[kind as usize] += 1;
            self.stats.phase_writes[kind as usize].add(event.phase, 1);
            *self.page_writes.entry(page).or_insert(0) += 1;
            if self.track_lines {
                *self.line_writes.entry(event.line).or_insert(0) += 1;
            }
        } else {
            self.stats.reads[kind as usize] += 1;
            self.stats.phase_reads[kind as usize].add(event.phase, 1);
        }
    }

    fn touch(&mut self, addr: Address, len: usize, write: bool, phase: Phase) {
        let mut events = Vec::new();
        for line in addr.cache_line()..=addr.add(len - 1).cache_line() {
            self.cache.access(line, write, phase, &mut events);
        }
        for event in events {
            self.account(event);
        }
    }

    fn flush(&mut self) {
        let mut events = Vec::new();
        self.cache.flush_all(&mut events);
        for event in events {
            self.account(event);
        }
    }

    fn map(&mut self, page: u64, count: usize, kind: MemoryKind) {
        for p in page..page + count as u64 {
            self.pages.insert(p, kind);
        }
    }

    fn unmap(&mut self, page: u64, count: usize) {
        for p in page..page + count as u64 {
            self.pages.remove(&p);
        }
    }

    fn migrate(&mut self, page: u64, to: MemoryKind) -> Option<MemoryKind> {
        let from = std::mem::replace(self.pages.get_mut(&page)?, to);
        if from != to {
            self.stats.reads[from as usize] += LINES_PER_PAGE;
            self.stats.writes[to as usize] += LINES_PER_PAGE;
            self.stats.migration_writes[to as usize] += LINES_PER_PAGE;
            self.stats.phase_writes[to as usize].add(Phase::Runtime, LINES_PER_PAGE);
        }
        Some(from)
    }

    fn read(&self, addr: Address, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.bytes.get(&(addr.raw() + i)).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, addr: Address, data: &[u8]) {
        for (i, &byte) in data.iter().enumerate() {
            self.bytes.insert(addr.raw() + i as u64, byte);
        }
    }

    fn take_page_writes(&mut self) -> Vec<(PageId, u64)> {
        let mut taken: Vec<(PageId, u64)> = self.page_writes.drain().map(|(p, w)| (PageId(p), w)).collect();
        taken.sort_unstable();
        taken
    }

    fn pcm_line_writes(&self) -> Vec<(u64, u64)> {
        let mut lines: HashMap<u64, u64> = HashMap::new();
        for (&cache_line, &writes) in &self.line_writes {
            if self.pages.get(&(cache_line / LINES_PER_PAGE)) == Some(&MemoryKind::Pcm) {
                *lines
                    .entry(cache_line * CACHE_LINE_SIZE as u64 / LINE_SIZE as u64)
                    .or_insert(0) += writes;
            }
        }
        let mut lines: Vec<(u64, u64)> = lines.into_iter().collect();
        lines.sort_unstable();
        lines
    }

    fn stats(&self) -> MemoryStats {
        let mut stats = self.stats.clone();
        for &kind in self.pages.values() {
            stats.mapped_bytes[kind as usize] += PAGE_SIZE as u64;
        }
        stats.llc_misses = self.cache.llc_misses();
        stats.cache_hits = self.cache.hits();
        stats
    }
}

fn assert_same(mem: &MemorySystem, model: &Model, context: &str) {
    assert_eq!(
        format!("{:?}", mem.stats()),
        format!("{:?}", model.stats()),
        "stats diverged {context}"
    );
    for base in REGIONS {
        for p in 0..REGION_PAGES as u64 {
            let page = PageId(base / PAGE_SIZE as u64 + p);
            assert_eq!(
                mem.controller().page_write_count(page),
                model.page_writes.get(&page.0).copied().unwrap_or(0),
                "write count of {page:?} diverged {context}"
            );
            assert_eq!(
                mem.page_map().kind_of_page(page),
                model.pages.get(&page.0).copied(),
                "placement of {page:?} diverged {context}"
            );
        }
    }
    assert_eq!(
        mem.pcm_line_writes(),
        model.pcm_line_writes(),
        "PCM line writes diverged {context}"
    );
    assert_eq!(mem.page_map().mapped_pages(), model.pages.len());
}

fn run(config: MemoryConfig, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mem = MemorySystem::new(config.clone());
    let mut model = Model::new(&config);
    let mut shards = vec![ShardId::BASE];
    let region_bytes = REGION_PAGES * PAGE_SIZE;
    let kind_of = |rng: &mut SmallRng| MemoryKind::ALL[rng.gen_range(0..2usize)];
    // Where `len` bytes fit inside one region; ranges regularly cross page
    // and (in the third region) slot boundaries.
    let place = |rng: &mut SmallRng, len: usize| {
        let base = Address::new(REGIONS[rng.gen_range(0..REGIONS.len())]);
        base.add(rng.gen_range(0..region_bytes - len + 1))
    };
    let range = |rng: &mut SmallRng, max_len: usize| {
        let len = rng.gen_range(1..max_len + 1);
        (place(rng, len), len)
    };
    for base in REGIONS {
        let kind = kind_of(&mut rng);
        mem.map_pages(Address::new(base), REGION_PAGES, kind, 1);
        model.map(base / PAGE_SIZE as u64, REGION_PAGES, kind);
    }
    for step in 0..steps {
        let phase = Phase::ALL[rng.gen_range(0..Phase::COUNT)];
        match rng.gen_range(0..100u32) {
            0..=29 => {
                let (addr, len) = range(&mut rng, 300);
                let data: Vec<u8> = (0..len).map(|_| rng.gen_range(1..256u32) as u8).collect();
                mem.write_bytes(addr, &data, phase);
                model.touch(addr, len, true, phase);
                model.write(addr, &data);
            }
            30..=49 => {
                let (addr, len) = range(&mut rng, 300);
                let mut got = vec![0xEEu8; len];
                mem.read_bytes(addr, &mut got, phase);
                model.touch(addr, len, false, phase);
                assert_eq!(got, model.read(addr, len), "read-back at {addr} (step {step})");
            }
            50..=59 => {
                // The u64 accessors insist on a mapped page.
                let (addr, _) = range(&mut rng, 8);
                let addr = addr.align_down(8);
                if !model.pages.contains_key(&addr.page().0) {
                    continue;
                }
                let value = rng.gen::<u64>();
                mem.write_u64(addr, value, phase);
                model.touch(addr, 8, true, phase);
                model.write(addr, &value.to_le_bytes());
                assert_eq!(mem.read_u64(addr, phase), value);
                model.touch(addr, 8, false, phase);
            }
            60..=67 => {
                // Source and target may overlap: the copy is a memmove.
                let (src, len) = range(&mut rng, 600);
                let dst = place(&mut rng, len);
                mem.copy(src, dst, len, phase);
                model.touch(src, len, false, phase);
                model.touch(dst, len, true, phase);
                let data = model.read(src, len);
                model.write(dst, &data);
            }
            68..=73 => {
                let (addr, len) = range(&mut rng, 2 * PAGE_SIZE);
                mem.zero(addr, len, phase);
                model.touch(addr, len, true, phase);
                model.write(addr, &vec![0u8; len]);
            }
            74..=79 => {
                let (addr, _) = range(&mut rng, 1);
                let count = rng.gen_range(1..3usize);
                let kind = kind_of(&mut rng);
                mem.map_pages(addr.align_down(PAGE_SIZE), count, kind, 2);
                model.map(addr.page().0, count, kind);
            }
            80..=83 => {
                let (addr, _) = range(&mut rng, 1);
                let count = rng.gen_range(1..3usize);
                mem.unmap_pages(addr.align_down(PAGE_SIZE), count);
                model.unmap(addr.page().0, count);
            }
            84..=87 => {
                let (addr, _) = range(&mut rng, 1);
                let to = kind_of(&mut rng);
                assert_eq!(
                    mem.migrate_page(addr.page(), to),
                    model.migrate(addr.page().0, to)
                );
            }
            88..=89 if shards.len() < 4 => shards.push(mem.register_mutator_shard()),
            88..=92 => mem.set_active_shard(shards[rng.gen_range(0..shards.len())]),
            93..=95 => mem.merge_shard(shards[rng.gen_range(0..shards.len())]),
            96..=97 => {
                assert_eq!(
                    mem.controller_mut().take_page_writes(),
                    model.take_page_writes(),
                    "taken page writes (step {step})"
                );
            }
            _ => {
                mem.flush_caches();
                model.flush();
            }
        }
        if step % 97 == 0 {
            assert_same(&mem, &model, &format!("at step {step} (seed {seed})"));
        }
    }
    mem.flush_caches();
    model.flush();
    assert_same(&mem, &model, &format!("at the end (seed {seed})"));
    for base in REGIONS {
        let mut got = vec![0u8; region_bytes];
        mem.read_bytes(Address::new(base), &mut got, Phase::Mutator);
        assert_eq!(
            got,
            model.read(Address::new(base), region_bytes),
            "final bytes at {base:#x}"
        );
    }
}

#[test]
fn dense_memory_system_matches_the_hash_map_model() {
    for seed in 0..4u64 {
        for cached in [false, true] {
            for track_line_writes in [false, true] {
                let mut config = if cached {
                    // Small enough that the regions overflow every level.
                    MemoryConfig {
                        cache: Some(CacheConfig::scaled(256)),
                        ..MemoryConfig::hybrid()
                    }
                } else {
                    MemoryConfig::architecture_independent()
                };
                config.track_line_writes = track_line_writes;
                run(
                    config,
                    seed * 4 + u64::from(cached) * 2 + u64::from(track_line_writes),
                    3_000,
                );
            }
        }
    }
}

#[test]
fn one_page_at_40_gb_costs_one_chunk() {
    let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
    let far = Address::new(40 << 30);
    mem.map_pages(far, 1, MemoryKind::Pcm, 0);
    mem.write_u64(far, 7, Phase::Mutator);
    assert_eq!(mem.read_u64(far, Phase::Mutator), 7);
    assert_eq!(mem.resident_bytes(), hybrid_mem::backing::CHUNK_SIZE);
    assert_eq!(
        mem.controller().page_writes().collect::<Vec<_>>(),
        vec![(far.page(), 1)]
    );
}

/// Lines in the footprint a geometry is driven with: a few times its last
/// level, so every level keeps evicting.
fn footprint_lines(config: &CacheConfig) -> u64 {
    let last = config.levels.last().unwrap();
    3 * (last.sets() * last.ways) as u64 + 7
}

/// The geometries the cache model is checked on, each with the first line of
/// its footprint: the degenerate ones, a set count that is no power of two
/// (`%` instead of a mask), the widest set and the deepest hierarchy the
/// model takes, the shipped hierarchies, and one of those again with its
/// footprint where the way-hint table has its edges (so its windows also
/// grow downwards, in two slots at once and far from line 0).
fn cache_geometries() -> Vec<(&'static str, CacheConfig, u64)> {
    let level = |sets: usize, ways: usize| CacheLevelConfig {
        capacity_bytes: sets * ways * CACHE_LINE_SIZE,
        ways,
    };
    let levels = |levels: &[CacheLevelConfig]| CacheConfig {
        levels: levels.to_vec(),
    };
    let deepest: [_; MAX_LEVELS] = [level(2, 2), level(4, 2), level(4, 4), level(8, 16)];
    let small = CacheConfig::scaled(256);
    let across_slots = (SLOT_BOUNDARY / CACHE_LINE_SIZE as u64) - footprint_lines(&small) / 2;
    vec![
        ("one direct-mapped level", levels(&[level(4, 1)]), 0),
        ("2 ways x 2 sets", levels(&[level(2, 2)]), 0),
        (
            "3 sets x 2 ways over 5 sets x 3 ways",
            levels(&[level(3, 2), level(5, 3)]),
            0,
        ),
        ("one 16-way set", levels(&[level(1, 16)]), 0),
        ("MAX_LEVELS levels", levels(&deepest), 0),
        ("scaled(16)", CacheConfig::scaled(16), 0),
        ("scaled(256)", small.clone(), 0),
        ("scaled(256) across a slot boundary", small.clone(), across_slots),
        ("scaled(256) at 40 GB", small, REGIONS[3] / CACHE_LINE_SIZE as u64),
        ("paper_default", CacheConfig::paper_default(), 0),
    ]
}

fn sorted(mut events: Vec<MemEvent>) -> Vec<MemEvent> {
    events.sort_unstable_by_key(|e| (e.line, e.write, e.phase));
    events
}

/// Flushes both hierarchies and compares the write-backs as sorted lists:
/// which lines, once each, and attributed to the same (closest) copy. The
/// order of a flush is the physical way order, which the two layouts do not
/// share and nothing downstream depends on.
fn assert_same_flush(cache: &mut CacheHierarchy, reference: &mut ReferenceCache, context: &str) {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    cache.flush_all(|event| got.push(event));
    reference.flush_all(&mut want);
    assert_eq!(sorted(got), sorted(want), "flush write-backs diverged {context}");
}

#[test]
fn flat_cache_matches_the_timestamped_reference_access_by_access() {
    for (name, config, first_line) in cache_geometries() {
        // Enough accesses to fill the last level several times over.
        let footprint = footprint_lines(&config);
        let accesses = (2 * footprint).max(20_000);
        for seed in 0..3u64 {
            let mut rng = SmallRng::seed_from_u64(0xCAC4E + seed);
            let mut cache = CacheHierarchy::new(&config);
            let mut reference = ReferenceCache::new(&config);
            let mut hot = 0u64;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for step in 0..accesses {
                match rng.gen_range(0..1000u32) {
                    0 => {
                        let shard = rng.gen_range(0..4usize);
                        cache.set_active_shard(shard);
                        reference.set_active_shard(shard);
                    }
                    // Rare enough that the larger hierarchies fill up between flushes.
                    1 if rng.gen_range(0..accesses / 2_000) == 0 => {
                        let context = format!("on {name} at access {step} (seed {seed})");
                        assert_same_flush(&mut cache, &mut reference, &context);
                    }
                    2..=9 => hot = rng.gen_range(0..footprint),
                    _ => {}
                }
                // A moving hot window (L1 hits, way rotations) over uniform
                // background traffic (conflict and capacity evictions).
                let line = first_line
                    + if rng.gen_range(0..10u32) < 6 {
                        (hot + rng.gen_range(0..24u64)) % footprint
                    } else {
                        rng.gen_range(0..footprint)
                    };
                let write = rng.gen_range(0..10u32) < 4;
                let phase = Phase::ALL[rng.gen_range(0..Phase::COUNT)];
                got.clear();
                want.clear();
                cache.access(line, write, phase, |event| got.push(event));
                reference.access(line, write, phase, &mut want);
                assert_eq!(
                    got, want,
                    "events of line {line:#x} diverged on {name} at access {step} (seed {seed})"
                );
                assert!(got.len() <= config.levels.len() + 1);
            }
            let context = format!("on {name} at the end (seed {seed})");
            assert_eq!(cache.hits(), reference.hits(), "hits {context}");
            assert_eq!(cache.llc_misses(), reference.llc_misses(), "LLC misses {context}");
            let mut per_access_misses = 0;
            for shard in 0..5 {
                assert_eq!(cache.shard_hits(shard), reference.shard_hits(shard), "{context}");
                assert_eq!(
                    cache.shard_misses(shard),
                    reference.shard_misses(shard),
                    "{context}"
                );
                per_access_misses += cache.shard_misses(shard);
            }
            assert!(
                cache.llc_misses() >= per_access_misses,
                "spill probes only add {context}"
            );
            assert_same_flush(&mut cache, &mut reference, &context);
            assert_same_flush(&mut cache, &mut reference, &format!("{context}, flushed twice"));
        }
    }
}

/// A way hint that has gone stale must fail its tag compare: the line it
/// belongs to misses, whatever now sits in the way it names.
#[test]
fn a_stale_way_hint_misses_like_the_reference() {
    let config = CacheConfig {
        levels: vec![CacheLevelConfig {
            capacity_bytes: 2 * CACHE_LINE_SIZE,
            ways: 2,
        }],
    };
    let mut models = (CacheHierarchy::new(&config), ReferenceCache::new(&config));
    // One access on both models; returns the events they agree on.
    let access =
        |(cache, reference): &mut (CacheHierarchy, ReferenceCache), line: u64, write: bool, phase: Phase| {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            cache.access(line, write, phase, |event| got.push(event));
            reference.access(line, write, phase, &mut want);
            assert_eq!(got, want, "events of line {line}");
            got
        };
    let event = |line, write, phase| MemEvent { line, write, phase };
    let fill = |line| vec![event(line, false, Phase::Mutator)];
    let (a, b, c) = (10, 11, 12);
    // A and C fill the one set; B then evicts A, the least recently used,
    // and takes over its physical way. A's hint still names that way.
    assert_eq!(access(&mut models, a, true, Phase::Mutator), fill(a));
    assert_eq!(access(&mut models, c, false, Phase::Mutator), fill(c));
    assert_eq!(
        access(&mut models, b, false, Phase::Mutator),
        [fill(b)[0], event(a, true, Phase::Mutator)]
    );
    // A again: a miss and a refetch (over C), not a hit on B's way.
    assert_eq!(access(&mut models, a, false, Phase::Mutator), fill(a));
    assert_eq!(access(&mut models, b, true, Phase::MajorGc), []);
    // A flush empties the ways and leaves every hint behind.
    let (mut got, mut want) = (Vec::new(), Vec::new());
    models.0.flush_all(|event| got.push(event));
    models.1.flush_all(&mut want);
    assert_eq!(got, want);
    assert_eq!(got, [event(b, true, Phase::MajorGc)]);
    assert_eq!(access(&mut models, a, false, Phase::Mutator), fill(a));
    assert_eq!(access(&mut models, b, false, Phase::Mutator), fill(b));
    let (cache, reference) = models;
    assert_eq!((cache.hits(), cache.llc_misses()), (1, 6));
    assert_eq!((reference.hits(), reference.llc_misses()), (1, 6));
}

#[test]
fn a_disabled_hierarchy_and_its_reference_pass_every_access_through() {
    let mut cache = CacheHierarchy::disabled();
    let mut reference = ReferenceCache::disabled();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for line in 0..64u64 {
        cache.access(line % 5, line % 3 == 0, Phase::Runtime, |event| got.push(event));
        reference.access(line % 5, line % 3 == 0, Phase::Runtime, &mut want);
    }
    assert_eq!(got, want);
    assert_eq!(got.len(), 64);
    assert_same_flush(&mut cache, &mut reference, "with caching disabled");
    assert_eq!((cache.hits(), cache.llc_misses()), (0, 0));
}
