//! The cache oracle: the timestamped `Vec<Vec<Entry>>` hierarchy that
//! `hybrid_mem::cache` shipped before it was rewritten as flat way-ordered
//! side arrays, kept here unchanged in behaviour so the rewrite can be
//! checked against it access by access.
//!
//! Every way carries a `valid` flag and an `lru` timestamp drawn from a
//! per-level `tick`; an install prefers the first invalid way and otherwise
//! evicts the way with the smallest timestamp; a spill probes the level
//! below and, on a miss, installs in a second pass. Slow and obviously
//! right — which is the point.

use std::collections::HashSet;

use hybrid_mem::cache::MemEvent;
use hybrid_mem::{CacheConfig, Phase};

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_writer: Phase,
    lru: u64,
}

impl Entry {
    const fn empty() -> Self {
        Entry {
            tag: 0,
            valid: false,
            dirty: false,
            last_writer: Phase::Mutator,
            lru: 0,
        }
    }
}

#[derive(Debug)]
struct Level {
    sets: Vec<Vec<Entry>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// A line leaving a level.
struct Victim {
    tag: u64,
    dirty: bool,
    last_writer: Phase,
}

impl Level {
    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Probes for `line`; on hit updates LRU/dirty state and returns `true`.
    fn probe(&mut self, line: u64, write: bool, phase: Phase) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(line);
        for entry in &mut self.sets[set] {
            if entry.valid && entry.tag == line {
                entry.lru = tick;
                if write {
                    entry.dirty = true;
                    entry.last_writer = phase;
                }
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Installs `line`, returning the evicted victim (if any valid line had
    /// to be replaced).
    fn install(&mut self, line: u64, dirty: bool, last_writer: Phase) -> Option<Victim> {
        self.tick += 1;
        let fresh = Entry {
            tag: line,
            valid: true,
            dirty,
            last_writer,
            lru: self.tick,
        };
        let set = self.set_index(line);
        let entries = &mut self.sets[set];
        // Prefer an invalid way.
        if let Some(entry) = entries.iter_mut().find(|e| !e.valid) {
            *entry = fresh;
            return None;
        }
        // Evict the least recently used way.
        let victim = entries
            .iter_mut()
            .min_by_key(|e| e.lru)
            .expect("cache set is never empty");
        let evicted = std::mem::replace(victim, fresh);
        Some(Victim {
            tag: evicted.tag,
            dirty: evicted.dirty,
            last_writer: evicted.last_writer,
        })
    }

    /// Removes `line` from this level, returning its state if present.
    fn extract(&mut self, line: u64) -> Option<Victim> {
        let set = self.set_index(line);
        for entry in &mut self.sets[set] {
            if entry.valid && entry.tag == line {
                entry.valid = false;
                return Some(Victim {
                    tag: entry.tag,
                    dirty: entry.dirty,
                    last_writer: entry.last_writer,
                });
            }
        }
        None
    }

    fn drain_dirty(&mut self) -> Vec<Victim> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for entry in set {
                if entry.valid && entry.dirty {
                    out.push(Victim {
                        tag: entry.tag,
                        dirty: true,
                        last_writer: entry.last_writer,
                    });
                }
                entry.valid = false;
                entry.dirty = false;
            }
        }
        out
    }
}

/// The reference hierarchy; same observable contract as
/// `hybrid_mem::CacheHierarchy`, events delivered into a `Vec`.
#[derive(Debug)]
pub struct ReferenceCache {
    levels: Vec<Level>,
    shard_hits: Vec<u64>,
    shard_misses: Vec<u64>,
    active_shard: usize,
}

impl ReferenceCache {
    /// Builds the hierarchy of `config`; no levels means pass-through.
    pub fn new(config: &CacheConfig) -> Self {
        ReferenceCache {
            levels: config
                .levels
                .iter()
                .map(|c| Level {
                    sets: vec![vec![Entry::empty(); c.ways]; c.sets()],
                    tick: 0,
                    hits: 0,
                    misses: 0,
                })
                .collect(),
            shard_hits: vec![0],
            shard_misses: vec![0],
            active_shard: 0,
        }
    }

    /// A pass-through hierarchy: every access is its own device event.
    pub fn disabled() -> Self {
        Self::new(&CacheConfig { levels: Vec::new() })
    }

    pub fn set_active_shard(&mut self, shard: usize) {
        if shard >= self.shard_hits.len() {
            self.shard_hits.resize(shard + 1, 0);
            self.shard_misses.resize(shard + 1, 0);
        }
        self.active_shard = shard;
    }

    pub fn shard_hits(&self, shard: usize) -> u64 {
        self.shard_hits.get(shard).copied().unwrap_or(0)
    }

    pub fn shard_misses(&self, shard: usize) -> u64 {
        self.shard_misses.get(shard).copied().unwrap_or(0)
    }

    /// Accesses cache line `line`, appending the memory-side events caused
    /// by the access (miss fills and dirty write-backs) to `events`.
    pub fn access(&mut self, line: u64, write: bool, phase: Phase, events: &mut Vec<MemEvent>) {
        if self.levels.is_empty() {
            events.push(MemEvent { line, write, phase });
            return;
        }
        // Probe levels closest-first.
        let mut hit_level = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.probe(line, write && i == 0, phase) {
                hit_level = Some(i);
                break;
            }
        }
        if hit_level.is_some() {
            self.shard_hits[self.active_shard] += 1;
        } else {
            self.shard_misses[self.active_shard] += 1;
        }
        match hit_level {
            Some(0) => {}
            Some(level_idx) => {
                // Move the line up into the levels above (inclusive-style
                // fill), preserving its dirty state from the level where it
                // was found.
                let state = self.levels[level_idx]
                    .extract(line)
                    .map(|v| (v.dirty, v.last_writer))
                    .unwrap_or((false, phase));
                let (dirty, last_writer) = if write { (true, phase) } else { state };
                self.fill(level_idx, line, dirty, last_writer, events);
            }
            None => {
                // Full miss: fetch the line from memory...
                events.push(MemEvent {
                    line,
                    write: false,
                    phase,
                });
                // ...and install it in every level up to L1.
                let levels = self.levels.len();
                self.fill(levels, line, write, phase, events);
            }
        }
    }

    /// Installs `line` into levels `[0, to)`, pushing victims downwards.
    fn fill(&mut self, to: usize, line: u64, dirty: bool, last_writer: Phase, events: &mut Vec<MemEvent>) {
        for level_idx in 0..to {
            if let Some(victim) = self.levels[level_idx].install(line, dirty && level_idx == 0, last_writer) {
                if victim.dirty {
                    self.spill(level_idx + 1, victim, events);
                }
            }
        }
    }

    /// Writes a dirty victim into level `level_idx`, or to memory if the
    /// victim fell out of the last level.
    fn spill(&mut self, level_idx: usize, victim: Victim, events: &mut Vec<MemEvent>) {
        if level_idx >= self.levels.len() {
            events.push(MemEvent {
                line: victim.tag,
                write: true,
                phase: victim.last_writer,
            });
            return;
        }
        // If the line is already present below, just mark it dirty there.
        if self.levels[level_idx].probe(victim.tag, true, victim.last_writer) {
            return;
        }
        if let Some(next_victim) = self.levels[level_idx].install(victim.tag, true, victim.last_writer) {
            if next_victim.dirty {
                self.spill(level_idx + 1, next_victim, events);
            }
        }
    }

    /// Flushes every dirty line to memory, L1 first; a line dirty in several
    /// levels is written back once, attributed to its closest copy.
    pub fn flush_all(&mut self, events: &mut Vec<MemEvent>) {
        let mut seen = HashSet::new();
        for level in &mut self.levels {
            for victim in level.drain_dirty() {
                if seen.insert(victim.tag) {
                    events.push(MemEvent {
                        line: victim.tag,
                        write: true,
                        phase: victim.last_writer,
                    });
                }
            }
        }
    }

    /// Hits across all levels, spill probes included.
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.hits).sum()
    }

    /// Misses at the last level, spill probes included.
    pub fn llc_misses(&self) -> u64 {
        self.levels.last().map_or(0, |l| l.misses)
    }
}
