//! Per-thread mutator contexts: the multi-mutator half of the runtime.
//!
//! [`crate::KingsguardHeap`] splits into two halves. The *collector half*
//! (collection algorithms, space management, policy consultation) keeps
//! exclusive ownership of the heap. The *mutator half* is this module: each
//! logical mutator thread holds a [`MutatorContext`] and performs every
//! allocation, store and read through it. A heap is born with context 0
//! ([`crate::KingsguardHeap::default_mutator`]); further contexts come from
//! [`crate::KingsguardHeap::spawn_mutator_with`]. A context owns
//!
//! * a **thread-local allocation buffer** ([`kingsguard_heap::Tlab`]) carved
//!   from the nursery, so the allocation fast path is a private cursor bump
//!   that never serialises on the shared space, and
//! * a **sequential store buffer** (SSB) that batches the write barrier's
//!   bookkeeping — remembered-set insertions, monitoring-barrier
//!   observations and write demographics — instead of performing it on
//!   every store, and
//! * a **memory-counter shard** ([`hybrid_mem::ShardId`]) receiving the
//!   device traffic its operations cause, merged back at drain points.
//!
//! # Safepoint protocol
//!
//! The reference/primitive *stores themselves* happen eagerly (the object
//! graph is always current); only barrier bookkeeping is deferred. Buffered
//! events drain
//!
//! 1. when a context's SSB exceeds its capacity,
//! 2. at every **GC safepoint** — each collection entry point drains every
//!    context and retires its TLAB before tracing, so remembered sets and
//!    write bits are complete when the collector reads them,
//! 3. before any placement-policy decision taken outside a collection
//!    (large-object placement), so adaptive policies observe the same event
//!    totals wherever the drain boundaries fall, and
//! 4. at [`crate::KingsguardHeap::finish`] and
//!    [`crate::KingsguardHeap::with_synced_memory`].
//!
//! Because barrier bookkeeping is commutative between safepoints (counter
//! sums, set insertions, first-write bits), the end-of-run statistics in
//! **architecture-independent mode** (no cache hierarchy — the mode behind
//! the paper's exact write counts and this repo's goldens) are *exactly*
//! independent of the number of mutators, of SSB capacities and of drain
//! timing; the conformance suite pins this. With a simulated cache
//! hierarchy enabled, deferral reorders the modeled metadata accesses
//! relative to the data stores, so cached-mode totals can differ slightly
//! between drain schedules — the same caveat that applies to any barrier
//! buffering on real hardware. The default [`MutatorConfig`] also
//! carves TLABs in *exact mode* (see [`kingsguard_heap::tlab`]), which
//! keeps allocation addresses — and therefore every downstream number —
//! the same for any number of contexts. Chunked TLABs (`tlab_bytes > 0`)
//! remain available when address-exactness across mutator counts is not
//! required.
//!
//! Context 0 uses [`MutatorConfig::eager`]: its barrier bookkeeping runs at
//! each store instead of at a drain. It has no spawn event and is never
//! retired.
//!
//! # Example
//!
//! ```
//! use kingsguard::{HeapConfig, KingsguardHeap, MutatorConfig};
//! use kingsguard_heap::ObjectShape;
//!
//! let mut heap = KingsguardHeap::new(HeapConfig::kg_n(), Default::default());
//! let mut a = heap.spawn_mutator_with(MutatorConfig::default());
//! let mut b = heap.spawn_mutator_with(MutatorConfig::default());
//! let left = a.alloc(&mut heap, ObjectShape::new(1, 32), 1);
//! let right = b.alloc(&mut heap, ObjectShape::new(0, 64), 2);
//! a.write_ref(&mut heap, left, 0, Some(right));
//! b.write_prim(&mut heap, right, 0, 8);
//! heap.safepoint(); // drain both contexts' store buffers
//! let report = heap.finish();
//! assert_eq!(report.gc.objects_allocated, 2);
//! ```

use hybrid_mem::ShardId;
use kingsguard_heap::object::{ObjectRef, ObjectShape};
use kingsguard_heap::{Handle, Tlab};

use advice::SiteId;
use hybrid_mem::Address;

use crate::runtime::KingsguardHeap;

/// Configuration of one mutator context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutatorConfig {
    /// TLAB chunk size in bytes. `0` selects *exact mode*: every refill
    /// carves precisely the triggering allocation, keeping nursery addresses
    /// and GC trigger points bit-identical to direct bump allocation for any
    /// number of mutators. Larger values carve real chunks (fewer refills,
    /// layout no longer independent of the mutator count).
    pub tlab_bytes: usize,
    /// Number of write-barrier events buffered before the store buffer
    /// drains itself. `0` drains every event immediately, as context 0
    /// does.
    pub ssb_capacity: usize,
}

impl Default for MutatorConfig {
    fn default() -> Self {
        MutatorConfig {
            tlab_bytes: 0,
            ssb_capacity: 256,
        }
    }
}

impl MutatorConfig {
    /// The configuration of context 0 ([`KingsguardHeap::default_mutator`]):
    /// exact TLABs, immediate drains.
    pub fn eager() -> Self {
        MutatorConfig {
            tlab_bytes: 0,
            ssb_capacity: 0,
        }
    }

    /// Same configuration with a different store-buffer capacity.
    pub fn with_ssb_capacity(mut self, events: usize) -> Self {
        self.ssb_capacity = events;
        self
    }
}

/// One buffered write-barrier event. The store itself already happened; the
/// event carries exactly what the deferred barrier halves need.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WriteEvent {
    /// A reference store: generational barrier on `(slot_addr, target)`,
    /// monitoring barrier and write demographics on `src`.
    Ref {
        /// The written object.
        src: ObjectRef,
        /// Address of the written slot.
        slot_addr: Address,
        /// The stored reference (as it was at store time).
        target: ObjectRef,
    },
    /// A primitive store: monitoring barrier (when the policy monitors
    /// primitives) and write demographics on `src`.
    Prim {
        /// The written object.
        src: ObjectRef,
    },
}

/// Cumulative device traffic attributed to one context (folded across shard
/// merges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MergedTraffic {
    pub(crate) reads: [u64; 2],
    pub(crate) writes: [u64; 2],
}

/// Heap-side state of one mutator context. The [`MutatorContext`] handle is
/// the exclusive user of its slot.
#[derive(Debug)]
pub(crate) struct MutatorState {
    pub(crate) config: MutatorConfig,
    pub(crate) tlab: Option<Tlab>,
    pub(crate) ssb: Vec<WriteEvent>,
    pub(crate) shard: ShardId,
    /// Traffic already merged out of the shard (so per-context attribution
    /// survives safepoints).
    pub(crate) merged: MergedTraffic,
    /// Cache hit/miss tallies of the shard at spawn time (shards are reused
    /// across retire/spawn, but each context's attribution starts at zero).
    pub(crate) cache_base: (u64, u64),
    /// Retired contexts are skipped by safepoints; their slot and shard are
    /// reused by the next spawn.
    pub(crate) retired: bool,
}

impl MutatorState {
    pub(crate) fn new(config: MutatorConfig, shard: ShardId, cache_base: (u64, u64)) -> Self {
        MutatorState {
            config,
            tlab: None,
            ssb: Vec::new(),
            shard,
            merged: MergedTraffic::default(),
            cache_base,
            retired: false,
        }
    }
}

/// A per-thread mutator handle: the only way to allocate, write and read
/// on a [`KingsguardHeap`].
///
/// The handle is intentionally not `Clone`: each context's TLAB, store
/// buffer and counter shard belong to exactly one logical thread. Methods
/// take the heap explicitly — the heap stays the single owner of all shared
/// state, and the deterministic simulator interleaves contexts by
/// interleaving these calls.
#[derive(Debug)]
pub struct MutatorContext {
    pub(crate) index: usize,
}

impl MutatorContext {
    /// This context's index (0 is the context the heap is born with).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Allocates an object of `shape` and returns a rooted handle to it.
    ///
    /// The object carries no allocation-site tag; profile-guided collectors
    /// fall back to their default placement for it. Site-aware mutators use
    /// [`MutatorContext::alloc_site`].
    ///
    /// # Panics
    ///
    /// Panics if the object cannot be accommodated even after a full-heap
    /// collection (heap budget and large-object capacity exhausted).
    pub fn alloc(&mut self, heap: &mut KingsguardHeap, shape: ObjectShape, type_id: u16) -> Handle {
        heap.mutator_alloc_site(self.index, shape, type_id, SiteId::UNKNOWN)
    }

    /// Allocates an object of `shape` tagged with its allocation `site`
    /// (alongside the `type_id`) and returns a rooted handle to it.
    ///
    /// The site is stored in the object's header, so it follows the object
    /// through every copy at no extra cost: a profiling run
    /// ([`KingsguardHeap::enable_profiling`], called before the first
    /// allocation) aggregates per-site behaviour under it, and the
    /// site-aware collectors (KG-A, KG-D) look it up to pretenure the object
    /// when it leaves the nursery.
    ///
    /// # Panics
    ///
    /// As [`MutatorContext::alloc`], and if `site` is at or above
    /// [`SiteId::LIMIT`] (it would not fit the header).
    pub fn alloc_site(
        &mut self,
        heap: &mut KingsguardHeap,
        shape: ObjectShape,
        type_id: u16,
        site: SiteId,
    ) -> Handle {
        heap.mutator_alloc_site(self.index, shape, type_id, site)
    }

    /// Performs a reference store `src.slots[slot] = target` through the
    /// write barrier of Figure 4; the barrier's bookkeeping goes through this
    /// context's store buffer.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds for the source object's shape.
    pub fn write_ref(&mut self, heap: &mut KingsguardHeap, src: Handle, slot: usize, target: Option<Handle>) {
        heap.mutator_write_ref(self.index, src, slot, target);
    }

    /// Performs a primitive store of `len` bytes at `offset` within the
    /// source object's primitive payload, through the write barrier.
    pub fn write_prim(&mut self, heap: &mut KingsguardHeap, src: Handle, offset: usize, len: usize) {
        heap.mutator_write_prim(self.index, src, offset, len);
    }

    /// Reads reference slot `slot` of the object behind `src`.
    pub fn read_ref(&mut self, heap: &mut KingsguardHeap, src: Handle, slot: usize) -> Option<ObjectRef> {
        heap.mutator_read_ref(self.index, src, slot)
    }

    /// Reads `len` bytes of primitive payload at `offset` (the value itself
    /// is irrelevant to the simulation; the access traffic matters).
    pub fn read_prim(&mut self, heap: &mut KingsguardHeap, src: Handle, offset: usize, len: usize) {
        heap.mutator_read_prim(self.index, src, offset, len);
    }

    /// Drains this context's store buffer and merges its counter shard.
    /// Called automatically at safepoints; call it manually before reading
    /// mid-run statistics that must include this context's buffered events.
    pub fn drain(&mut self, heap: &mut KingsguardHeap) {
        heap.drain_mutator(self.index);
    }

    /// Number of write-barrier events currently buffered.
    pub fn pending_events(&self, heap: &KingsguardHeap) -> usize {
        heap.mutator_pending_events(self.index)
    }

    /// Cumulative device traffic attributed to this context
    /// (reads/writes per memory kind plus its cache hit/miss tallies),
    /// including traffic already merged at safepoints.
    pub fn traffic(&self, heap: &KingsguardHeap) -> hybrid_mem::ShardStats {
        heap.mutator_traffic(self.index)
    }

    /// Retires this context: drains its store buffer, merges its counter
    /// shard and releases its TLAB and slot for reuse by the next spawn.
    /// Consuming the handle makes use-after-retire unrepresentable.
    ///
    /// # Panics
    ///
    /// Panics on context 0, which lives as long as the heap.
    pub fn retire(self, heap: &mut KingsguardHeap) {
        heap.retire_mutator(self);
    }
}
