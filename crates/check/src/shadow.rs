//! Mode 1: the runtime shadow-heap sanitizer.
//!
//! [`SanitizerHandle::install`] attaches a [`HeapObserver`] to a fresh
//! [`KingsguardHeap`]. The sanitizer rebuilds the *logical* object graph
//! from the mutator-visible event stream — every allocation's shape, every
//! reference store — entirely outside the simulated memory. At every
//! checkpoint (safepoint, collection entry/exit, finish) it walks the
//! *physical* graph from the root table in lockstep with the shadow graph,
//! using only the heap's passive inspection API, and reports every
//! disagreement as a typed [`CheckViolation`]:
//!
//! * dangling roots and references (an edge the collector lost, a stale
//!   forwarded header, unmapped memory),
//! * shape/type/site drift between allocation and the current header (the
//!   site must survive every copy, rescue, demotion and evacuation),
//! * remembered-set completeness at collection entry (every old-to-young
//!   edge the imminent trace relies on must already be remembered),
//! * write-barrier coverage (observed write counts must equal the
//!   heap's barrier counters),
//! * store-buffer drain and counter-shard merge discipline at safepoints,
//! * counter-shard conservation against the memory controller's totals,
//! * TLAB carve overlap and containment,
//! * retired-page emptiness after a full collection.
//!
//! Because the checkpoint receives `&KingsguardHeap` and the inspection API
//! issues no simulated traffic, a sanitized run is **bit-identical** to an
//! unsanitized one — the tests pin this for all six collectors.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use hybrid_mem::Address;
use kingsguard::{
    CheckNote, CheckPoint, CollectKind, HeapEvent, HeapObserver, KingsguardHeap, Location, MutatorSnapshot,
    ObserverId, ShardConservation,
};
use kingsguard_heap::{
    decode_info_word, status_word_is_forwarded, status_word_site, ObjectRef, ObjectShape, INFO_WORD_OFFSET,
};

use crate::violation::CheckViolation;

/// One logical object, reconstructed from the event stream.
#[derive(Debug)]
struct ShadowObject {
    ref_slots: u16,
    payload_bytes: u32,
    type_id: u16,
    /// Raw allocation-site id (0 for an untagged allocation).
    site: u32,
    /// Logical reference graph: `refs[slot]` is the allocation index the
    /// slot holds, updated on every observed `WriteRef`.
    refs: Vec<Option<usize>>,
}

/// One outstanding TLAB window.
#[derive(Clone, Copy, Debug)]
struct TlabWindow {
    ctx: usize,
    start: u64,
    len: u64,
}

/// Shared state between the installed forwarder and the user's handle.
#[derive(Debug, Default)]
struct ShadowState {
    objects: Vec<ShadowObject>,
    /// Root-table handle index → allocation index (handles are reused
    /// after release, so this is overwritten on re-allocation).
    handle_map: Vec<Option<usize>>,
    tlabs: Vec<TlabWindow>,
    write_refs_seen: u64,
    write_prims_seen: u64,
    events: u64,
    checkpoints: u64,
    objects_verified: u64,
    /// Violations found since the last checkpoint drain.
    pending: Vec<CheckViolation>,
    /// All violations, in discovery order.
    all: Vec<CheckViolation>,
    /// Dedup keys, so a persistent corruption is reported once, not once
    /// per checkpoint.
    seen: HashSet<String>,
}

impl ShadowState {
    fn push(&mut self, violation: CheckViolation) {
        // Global-counter violations drift every checkpoint; key them by
        // kind so the report stays bounded. Everything else dedups on the
        // full provenance string.
        let key = match violation {
            CheckViolation::BarrierCountMismatch { .. } | CheckViolation::ShardConservationBroken { .. } => {
                violation.kind().to_string()
            }
            _ => violation.to_string(),
        };
        if self.seen.insert(key) {
            self.pending.push(violation);
        }
    }

    fn resolve(&self, handle: u32) -> Option<usize> {
        self.handle_map.get(handle as usize).copied().flatten()
    }

    fn on_event(&mut self, event: &HeapEvent) {
        self.events += 1;
        match *event {
            HeapEvent::Alloc {
                handle,
                ref_slots,
                payload_bytes,
                type_id,
                site,
                ..
            } => {
                let index = self.objects.len();
                self.objects.push(ShadowObject {
                    ref_slots,
                    payload_bytes,
                    type_id,
                    site: site.raw(),
                    refs: vec![None; ref_slots as usize],
                });
                let slot = handle.index() as usize;
                if slot >= self.handle_map.len() {
                    self.handle_map.resize(slot + 1, None);
                }
                self.handle_map[slot] = Some(index);
            }
            HeapEvent::WriteRef {
                src, slot, target, ..
            } => {
                self.write_refs_seen += 1;
                let target_index = target.and_then(|t| self.resolve(t.index()));
                if let Some(index) = self.resolve(src.index()) {
                    if let Some(entry) = self.objects[index].refs.get_mut(slot) {
                        *entry = target_index;
                    }
                }
            }
            HeapEvent::WritePrim { .. } => self.write_prims_seen += 1,
            HeapEvent::Release { handle } => {
                let slot = handle.index() as usize;
                if let Some(entry) = self.handle_map.get_mut(slot) {
                    *entry = None;
                }
            }
            _ => {}
        }
    }

    fn on_tlab_carve(&mut self, ctx: usize, start: u64, len: usize) {
        let new = TlabWindow {
            ctx,
            start,
            len: len as u64,
        };
        for old in &self.tlabs {
            if old.start < new.start + new.len && new.start < old.start + old.len {
                let violation = CheckViolation::TlabOverlap {
                    ctx_a: old.ctx,
                    a: (old.start, old.len),
                    ctx_b: new.ctx,
                    b: (new.start, new.len),
                };
                let key = violation.to_string();
                if self.seen.insert(key) {
                    self.pending.push(violation);
                }
            }
        }
        self.tlabs.push(new);
    }

    fn at_checkpoint(&mut self, point: CheckPoint, heap: &KingsguardHeap) -> Vec<CheckNote> {
        let at = point.label();
        self.checkpoints += 1;

        // TLAB windows must lie inside the nursery.
        let (nursery_base, nursery_cap) = heap.nursery_region();
        for window in self.tlabs.clone() {
            let base = nursery_base.raw();
            if window.start < base || window.start + window.len > base + nursery_cap as u64 {
                self.push(CheckViolation::TlabOutsideNursery {
                    ctx: window.ctx,
                    start: window.start,
                    len: window.len,
                    at,
                });
            }
        }

        // Drain discipline: SSBs empty, shards merged.
        for violation in check_mutators(&heap.mutator_snapshots(), at) {
            self.push(violation);
        }

        // Counter-shard conservation against the controller's own fold.
        if let Some(violation) = check_conservation(&heap.shard_conservation(), at) {
            self.push(violation);
        }

        // Barrier coverage: the event stream and the barrier counters see
        // the same writes (checkpoints run post-drain, so buffered SSB
        // entries have been replayed into the counters).
        let stats = heap.stats();
        if stats.reference_writes != self.write_refs_seen || stats.primitive_writes != self.write_prims_seen {
            self.push(CheckViolation::BarrierCountMismatch {
                observed_refs: self.write_refs_seen,
                counted_refs: stats.reference_writes,
                observed_prims: self.write_prims_seen,
                counted_prims: stats.primitive_writes,
                at,
            });
        }

        self.walk_graph(point, heap);

        // Every collection exit resets the nursery, invalidating all
        // outstanding TLAB windows.
        if matches!(point, CheckPoint::PostCollect(_) | CheckPoint::Finish) {
            self.tlabs.clear();
        }

        let notes: Vec<CheckNote> = self.pending.iter().map(CheckViolation::note).collect();
        self.all.append(&mut self.pending);
        notes
    }

    /// Lockstep BFS of the physical graph (from the root table) against the
    /// shadow graph (from the event stream).
    #[allow(clippy::too_many_lines)]
    fn walk_graph(&mut self, point: CheckPoint, heap: &KingsguardHeap) {
        let at = point.label();
        let check_nursery_remset = point == CheckPoint::PreCollect(CollectKind::Nursery);
        let check_observer_remset = point == CheckPoint::PreCollect(CollectKind::Observer);
        let check_retired = matches!(
            point,
            CheckPoint::PostCollect(CollectKind::Full) | CheckPoint::Finish
        );
        let remembered: HashSet<u64> = if check_nursery_remset {
            heap.remset_nursery_slots().iter().map(|a| a.raw()).collect()
        } else if check_observer_remset {
            heap.remset_nursery_slots()
                .iter()
                .chain(heap.remset_observer_slots().iter())
                .map(|a| a.raw())
                .collect()
        } else {
            HashSet::new()
        };

        let mut queue: VecDeque<(usize, Address)> = VecDeque::new();
        let mut visited: HashMap<usize, u64> = HashMap::new();

        for (handle, addr) in heap.roots_snapshot() {
            let Some(index) = self.resolve(handle.index()) else {
                // An object allocated before the sanitizer was installed;
                // install() rejects non-fresh heaps, so this is unreachable,
                // but stay conservative rather than panic inside the heap.
                continue;
            };
            if !self.header_ok(index, addr, heap, at, Some(handle.index())) {
                continue;
            }
            if visited.insert(index, addr.raw()).is_none() {
                queue.push_back((index, addr));
            }
        }

        while let Some((index, addr)) = queue.pop_front() {
            let parent_loc = heap.location_of(addr);
            let parent_is_young = match parent_loc {
                Location::Nursery => true,
                Location::Observer => !check_nursery_remset,
                _ => false,
            };
            let slots = self.objects[index].ref_slots as usize;
            for slot in 0..slots {
                let slot_addr = ObjectRef::from_address(addr).ref_slot(slot);
                let value = heap.peek_u64(slot_addr).unwrap_or(0);
                match self.objects[index].refs[slot] {
                    None => {
                        if value != 0 {
                            self.push(CheckViolation::DanglingReference {
                                object: index,
                                slot,
                                addr: value,
                                at,
                            });
                        }
                    }
                    Some(target) => {
                        if value == 0 {
                            self.push(CheckViolation::DanglingReference {
                                object: index,
                                slot,
                                addr: value,
                                at,
                            });
                            continue;
                        }
                        let target_addr = Address::new(value);
                        match visited.get(&target) {
                            Some(&known) if known != value => {
                                // The same logical object reached at two
                                // different physical addresses.
                                self.push(CheckViolation::DanglingReference {
                                    object: index,
                                    slot,
                                    addr: value,
                                    at,
                                });
                                continue;
                            }
                            Some(_) => {}
                            None => {
                                if self.header_ok(target, target_addr, heap, at, None) {
                                    visited.insert(target, value);
                                    queue.push_back((target, target_addr));
                                }
                            }
                        }
                        // Remset completeness: an old-to-young edge must be
                        // remembered before the young trace starts.
                        if (check_nursery_remset || check_observer_remset) && !parent_is_young {
                            let target_young = match heap.location_of(target_addr) {
                                Location::Nursery => true,
                                Location::Observer => check_observer_remset,
                                _ => false,
                            };
                            if target_young && !remembered.contains(&slot_addr.raw()) {
                                self.push(CheckViolation::RemsetIncomplete {
                                    object: index,
                                    slot,
                                    slot_addr: slot_addr.raw(),
                                    target,
                                    at,
                                });
                            }
                        }
                    }
                }
            }
            if check_retired {
                let shape =
                    ObjectShape::new(self.objects[index].ref_slots, self.objects[index].payload_bytes);
                if heap.overlaps_retired_memory(addr, shape.size()) {
                    self.push(CheckViolation::RetiredPageNotEmpty {
                        object: index,
                        addr: addr.raw(),
                        size: shape.size(),
                        at,
                    });
                }
            }
        }

        self.objects_verified += visited.len() as u64;
    }

    /// Validates the header at `addr` against shadow object `index`.
    /// Returns `false` (after reporting) when the reference dangles.
    fn header_ok(
        &mut self,
        index: usize,
        addr: Address,
        heap: &KingsguardHeap,
        at: &'static str,
        root_handle: Option<u32>,
    ) -> bool {
        let dangle = |state: &mut Self| match root_handle {
            Some(handle) => state.push(CheckViolation::DanglingRoot {
                handle,
                addr: addr.raw(),
                at,
            }),
            None => state.push(CheckViolation::DanglingReference {
                object: index,
                slot: usize::MAX,
                addr: addr.raw(),
                at,
            }),
        };
        let Some(status) = heap.peek_u64(addr) else {
            dangle(self);
            return false;
        };
        if status_word_is_forwarded(status) {
            dangle(self);
            return false;
        }
        let Some(info) = heap.peek_u64(addr.add(INFO_WORD_OFFSET)) else {
            dangle(self);
            return false;
        };
        let (shape, type_id) = decode_info_word(info);
        let site = status_word_site(status);
        let shadow = &self.objects[index];
        let expected = (
            shadow.ref_slots,
            shadow.payload_bytes,
            shadow.type_id,
            shadow.site,
        );
        let found = (shape.ref_slots, shape.payload_bytes, type_id, site);
        if found != expected {
            self.push(CheckViolation::ShapeMismatch {
                object: index,
                addr: addr.raw(),
                expected,
                found,
                at,
            });
            return false;
        }
        true
    }
}

/// Checks the per-mutator drain discipline: at a checkpoint every live
/// context's store buffer must be empty and its counter shard merged.
/// Exposed as a pure function so the discipline can be unit-tested on
/// crafted snapshots.
#[must_use]
pub fn check_mutators(snapshots: &[MutatorSnapshot], at: &'static str) -> Vec<CheckViolation> {
    let mut violations = Vec::new();
    for snapshot in snapshots {
        if snapshot.pending_events > 0 {
            violations.push(CheckViolation::SsbNotDrained {
                ctx: snapshot.ctx,
                pending: snapshot.pending_events,
                at,
            });
        }
        if snapshot.shard_reads != [0, 0] || snapshot.shard_writes != [0, 0] {
            violations.push(CheckViolation::ShardNotMerged {
                ctx: snapshot.ctx,
                reads: snapshot.shard_reads,
                writes: snapshot.shard_writes,
                at,
            });
        }
    }
    violations
}

/// Checks counter-shard conservation. Pure function over the snapshot, for
/// the same reason as [`check_mutators`].
#[must_use]
pub fn check_conservation(conservation: &ShardConservation, at: &'static str) -> Option<CheckViolation> {
    if conservation.holds() {
        None
    } else {
        Some(CheckViolation::ShardConservationBroken {
            snapshot: *conservation,
            at,
        })
    }
}

/// The forwarder installed on the heap; shares its state with the
/// [`SanitizerHandle`] the caller keeps.
#[derive(Debug)]
struct ShadowSanitizer {
    state: Rc<RefCell<ShadowState>>,
}

impl HeapObserver for ShadowSanitizer {
    fn on_event(&mut self, event: &HeapEvent) {
        self.state.borrow_mut().on_event(event);
    }

    fn on_tlab_carve(&mut self, ctx: usize, start: u64, len: usize) {
        self.state.borrow_mut().on_tlab_carve(ctx, start, len);
    }

    fn at_checkpoint(&mut self, point: CheckPoint, heap: &KingsguardHeap) -> Option<Vec<CheckNote>> {
        Some(self.state.borrow_mut().at_checkpoint(point, heap))
    }
}

/// Summary of a sanitized run, from [`SanitizerHandle::finish`].
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Every violation found, in discovery order (deduplicated by
    /// provenance).
    pub violations: Vec<CheckViolation>,
    /// Checkpoints executed.
    pub checkpoints: u64,
    /// Heap events observed on the event stream.
    pub events: u64,
    /// Total (object, checkpoint) verifications performed by the walks.
    pub objects_verified: u64,
}

impl CheckReport {
    /// `true` when no invariant was falsified.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct violation kinds found, sorted.
    #[must_use]
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.violations.iter().map(CheckViolation::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }
}

/// Caller-side handle to an installed shadow-heap sanitizer.
#[derive(Debug)]
pub struct SanitizerHandle {
    state: Rc<RefCell<ShadowState>>,
    observer: ObserverId,
}

impl SanitizerHandle {
    /// Installs a shadow-heap sanitizer on `heap`.
    ///
    /// # Panics
    ///
    /// Panics if the heap already allocated objects (the shadow graph must
    /// observe every allocation).
    pub fn install(heap: &mut KingsguardHeap) -> Self {
        assert_eq!(
            heap.stats().objects_allocated,
            0,
            "the sanitizer must be installed on a fresh heap"
        );
        let state = Rc::new(RefCell::new(ShadowState::default()));
        let observer = heap.attach_observer(Box::new(ShadowSanitizer {
            state: Rc::clone(&state),
        }));
        SanitizerHandle { state, observer }
    }

    /// The violations found so far (the run may continue afterwards).
    #[must_use]
    pub fn violations(&self) -> Vec<CheckViolation> {
        let state = self.state.borrow();
        let mut all = state.all.clone();
        all.extend(state.pending.iter().cloned());
        all
    }

    /// Uninstalls the sanitizer and returns the final report. Call before
    /// (or after) [`KingsguardHeap::finish`]; the finish checkpoint only
    /// runs while the sanitizer is still installed.
    pub fn finish(self, heap: &mut KingsguardHeap) -> CheckReport {
        drop(heap.detach_observer(self.observer));
        self.report()
    }

    /// Returns the final report after the heap itself has been consumed
    /// (e.g. by [`KingsguardHeap::finish`], which runs the finish
    /// checkpoint and then drops the installed forwarder with the heap).
    ///
    /// # Panics
    ///
    /// Panics if the sanitizer is still installed on a live heap; use
    /// [`SanitizerHandle::finish`] in that case.
    #[must_use]
    pub fn report(self) -> CheckReport {
        let state = Rc::try_unwrap(self.state)
            .expect("sanitizer state still shared: the heap (or its forwarder) is still alive")
            .into_inner();
        let mut violations = state.all;
        violations.extend(state.pending);
        CheckReport {
            violations,
            checkpoints: state.checkpoints,
            events: state.events,
            objects_verified: state.objects_verified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drained_merged_snapshots_pass() {
        let snapshots = [MutatorSnapshot {
            ctx: 1,
            pending_events: 0,
            shard_reads: [0, 0],
            shard_writes: [0, 0],
        }];
        assert!(check_mutators(&snapshots, "safepoint").is_empty());
    }

    #[test]
    fn pending_events_and_unmerged_shards_are_reported() {
        let snapshots = [
            MutatorSnapshot {
                ctx: 1,
                pending_events: 3,
                shard_reads: [0, 0],
                shard_writes: [0, 0],
            },
            MutatorSnapshot {
                ctx: 2,
                pending_events: 0,
                shard_reads: [0, 7],
                shard_writes: [0, 0],
            },
        ];
        let violations = check_mutators(&snapshots, "safepoint");
        let kinds: Vec<&str> = violations.iter().map(CheckViolation::kind).collect();
        assert_eq!(kinds, vec!["ssb-not-drained", "shard-not-merged"]);
        assert!(matches!(
            violations[0],
            CheckViolation::SsbNotDrained {
                ctx: 1,
                pending: 3,
                ..
            }
        ));
    }

    #[test]
    fn conservation_mismatch_is_reported() {
        let balanced = ShardConservation {
            total_reads: [10, 4],
            total_writes: [6, 2],
            shard_reads: [10, 4],
            shard_writes: [6, 2],
        };
        assert!(check_conservation(&balanced, "finish").is_none());
        let skewed = ShardConservation {
            shard_writes: [6, 1],
            ..balanced
        };
        let violation = check_conservation(&skewed, "finish").expect("must be reported");
        assert_eq!(violation.kind(), "shard-conservation");
    }
}
