//! The heap's one observer seam.
//!
//! A [`HeapObserver`] is a passive consumer of what the heap does. Every
//! attached observer sees three things:
//!
//! * the mutator-visible **event stream** ([`HeapEvent`]): every allocation,
//!   write, read, root release, mutator spawn/retire, explicit safepoint and
//!   mutator-initiated collection, **in program order**, exactly as the
//!   [`KingsguardHeap`] received it. Collections triggered internally by
//!   allocation pressure are *not* reported — a replay of the recorded
//!   stream re-triggers them at the same points by construction;
//! * **TLAB carves** (for overlap checking);
//! * **checkpoints** ([`CheckPoint`]): the safepoint/GC boundaries at which
//!   heap invariants must hold, with read access to the heap to verify them.
//!
//! Events are emitted at the [`crate::MutatorContext`] layer: each carries
//! the context that performed it, and spawn events carry the context's
//! [`MutatorConfig`]. The `trace` crate's events are the same calls with
//! objects named by allocation index (plus hook markers, which issue no
//! call); a test there converts this stream back and checks that the two
//! agree. The shadow-heap sanitizer (`kingsguard-check` crate) consumes all
//! three.
//!
//! Observers MUST be passive: a checkpoint receives `&KingsguardHeap` and the
//! heap's inspection API ([`KingsguardHeap::peek_u64`] and friends) never
//! issues simulated memory traffic, so an observed run is bit-identical to
//! an unobserved one. Any number of observers can be attached; each emission
//! site branches once on "any observer?", so unobserved runs — including
//! every golden-pinned configuration — are unaffected.

use advice::SiteId;
use kingsguard_heap::Handle;

use crate::mutator::MutatorConfig;
use crate::runtime::KingsguardHeap;

/// Which collection a mutator-initiated GC event requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectKind {
    /// [`KingsguardHeap::collect_young`] — the young-generation entry
    /// point (nursery or observer collection, full collection on budget
    /// overflow).
    Young,
    /// [`KingsguardHeap::collect_nursery`].
    Nursery,
    /// [`KingsguardHeap::collect_observer`].
    Observer,
    /// [`KingsguardHeap::collect_full`].
    Full,
}

/// One mutator-visible heap API event, in the heap's own vocabulary
/// (handles and context indices; the `trace` crate's events name objects by
/// allocation index instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapEvent {
    /// A mutator context was spawned at slot `ctx` with `config`.
    MutatorSpawned {
        /// The new context's index.
        ctx: usize,
        /// Its TLAB / store-buffer configuration.
        config: MutatorConfig,
    },
    /// The context at slot `ctx` was retired.
    MutatorRetired {
        /// The retired context's index.
        ctx: usize,
    },
    /// An object was allocated and rooted as `handle`.
    Alloc {
        /// The context that allocated.
        ctx: usize,
        /// The root handle of the new object.
        handle: Handle,
        /// Reference slots of the object's shape.
        ref_slots: u16,
        /// Primitive payload bytes of the object's shape.
        payload_bytes: u32,
        /// The object's type id.
        type_id: u16,
        /// The allocation site ([`SiteId::UNKNOWN`] when untagged).
        site: SiteId,
        /// `true` if the shape takes the large-object path.
        large: bool,
    },
    /// A reference store through the write barrier.
    WriteRef {
        /// The context that wrote.
        ctx: usize,
        /// The written object.
        src: Handle,
        /// The written slot index.
        slot: usize,
        /// The stored reference.
        target: Option<Handle>,
    },
    /// A primitive store (offset/len as passed by the mutator, before the
    /// heap clamps them to the payload).
    WritePrim {
        /// The context that wrote.
        ctx: usize,
        /// The written object.
        src: Handle,
        /// Requested payload offset.
        offset: usize,
        /// Requested store length in bytes.
        len: usize,
    },
    /// A reference-slot read.
    ReadRef {
        /// The context that read.
        ctx: usize,
        /// The read object.
        src: Handle,
        /// The read slot index.
        slot: usize,
    },
    /// A primitive payload read (offset/len as passed by the mutator).
    ReadPrim {
        /// The context that read.
        ctx: usize,
        /// The read object.
        src: Handle,
        /// Requested payload offset.
        offset: usize,
        /// Requested read length in bytes.
        len: usize,
    },
    /// A root was released.
    Release {
        /// The released handle.
        handle: Handle,
    },
    /// An explicit [`KingsguardHeap::safepoint`] call.
    Safepoint,
    /// A mutator-initiated collection (explicit `collect_*` call; internally
    /// triggered collections are not reported).
    Collect {
        /// Which entry point was called.
        kind: CollectKind,
    },
}

/// Where in the run an observer checkpoint fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckPoint {
    /// An explicit mutator safepoint ([`KingsguardHeap::safepoint`]), after
    /// every store buffer has drained and every counter shard has merged.
    Safepoint,
    /// Entry of a collection, after the safepoint drain and **before** any
    /// tracing — the point at which the remembered sets must already cover
    /// every old-to-young edge the trace is about to rely on.
    PreCollect(CollectKind),
    /// Exit of a collection, after survivors were evacuated and spaces
    /// reset/swept — the point at which no live reference may dangle and no
    /// live object may remain on a retired page.
    PostCollect(CollectKind),
    /// [`KingsguardHeap::finish`], after the final safepoint.
    Finish,
}

impl CheckPoint {
    /// Short label for reports ("safepoint", "pre-nursery", ...).
    pub fn label(self) -> &'static str {
        match self {
            CheckPoint::Safepoint => "safepoint",
            CheckPoint::PreCollect(CollectKind::Young) => "pre-young",
            CheckPoint::PreCollect(CollectKind::Nursery) => "pre-nursery",
            CheckPoint::PreCollect(CollectKind::Observer) => "pre-observer",
            CheckPoint::PreCollect(CollectKind::Full) => "pre-full",
            CheckPoint::PostCollect(CollectKind::Young) => "post-young",
            CheckPoint::PostCollect(CollectKind::Nursery) => "post-nursery",
            CheckPoint::PostCollect(CollectKind::Observer) => "post-observer",
            CheckPoint::PostCollect(CollectKind::Full) => "post-full",
            CheckPoint::Finish => "finish",
        }
    }
}

/// A violation notice returned from a checkpoint, in the heap's vocabulary.
/// The heap surfaces each note as a deterministic `check.violation`
/// telemetry event; the `kingsguard-check` crate keeps the fully typed
/// [`CheckViolation`](https://docs.rs/kingsguard-check) alongside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckNote {
    /// Short machine-readable kind, e.g. `"remset-incomplete"`.
    pub kind: &'static str,
    /// Human-readable description carrying the provenance.
    pub detail: String,
}

/// A passive observer attachable to a [`KingsguardHeap`]
/// ([`KingsguardHeap::attach_observer`]). See the module docs for the
/// passivity contract. `Debug` is required because the heap (which owns the
/// attached boxes) derives it.
pub trait HeapObserver: std::fmt::Debug {
    /// Observes one mutator-visible heap event, in program order.
    fn on_event(&mut self, event: &HeapEvent);

    /// Observes a TLAB window of `len` bytes carved at address `start` for
    /// mutator context `ctx`.
    fn on_tlab_carve(&mut self, _ctx: usize, _start: u64, _len: usize) {}

    /// Runs invariant checks at `point` with passive read access to the
    /// heap. An observer that checks returns `Some` with a note per newly
    /// found violation (empty when clean); `None`, the default, means this
    /// observer does not check, so the checkpoint is not counted in the
    /// `check.checkpoints` telemetry counter on its account.
    fn at_checkpoint(&mut self, _point: CheckPoint, _heap: &KingsguardHeap) -> Option<Vec<CheckNote>> {
        None
    }
}

/// Names one attached observer, for [`KingsguardHeap::detach_observer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObserverId(u32);

/// The heap's attached observers, in attachment order.
#[derive(Debug, Default)]
pub(crate) struct Observers {
    attached: Vec<(ObserverId, Box<dyn HeapObserver>)>,
    next_id: u32,
}

impl Observers {
    /// The one branch every emission site pays.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.attached.is_empty()
    }

    pub(crate) fn attach(&mut self, observer: Box<dyn HeapObserver>) -> ObserverId {
        let id = ObserverId(self.next_id);
        self.next_id += 1;
        self.attached.push((id, observer));
        id
    }

    pub(crate) fn detach(&mut self, id: ObserverId) -> Option<Box<dyn HeapObserver>> {
        let position = self.attached.iter().position(|(attached, _)| *attached == id)?;
        Some(self.attached.remove(position).1)
    }

    pub(crate) fn on_event(&mut self, event: &HeapEvent) {
        for (_, observer) in &mut self.attached {
            observer.on_event(event);
        }
    }

    pub(crate) fn on_tlab_carve(&mut self, ctx: usize, start: u64, len: usize) {
        for (_, observer) in &mut self.attached {
            observer.on_tlab_carve(ctx, start, len);
        }
    }

    /// The notes of every checking observer, or `None` when none checks.
    pub(crate) fn at_checkpoint(
        &mut self,
        point: CheckPoint,
        heap: &KingsguardHeap,
    ) -> Option<Vec<CheckNote>> {
        let mut checked = None;
        for (_, observer) in &mut self.attached {
            if let Some(notes) = observer.at_checkpoint(point, heap) {
                checked.get_or_insert_with(Vec::new).extend(notes);
            }
        }
        checked
    }
}

/// Passive snapshot of one live mutator context's drain-discipline state,
/// taken by [`KingsguardHeap::mutator_snapshots`]. At a checkpoint the store
/// buffer must be empty and the counter shard merged (zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutatorSnapshot {
    /// The context's slot index.
    pub ctx: usize,
    /// Buffered, not-yet-replayed store-barrier events.
    pub pending_events: usize,
    /// Unmerged device reads in the context's counter shard (DRAM, PCM).
    pub shard_reads: [u64; 2],
    /// Unmerged device writes in the context's counter shard (DRAM, PCM).
    pub shard_writes: [u64; 2],
}

/// The monolithic device totals next to the heap's own shard accounting
/// (base shard plus every mutator shard), from
/// [`KingsguardHeap::shard_conservation`]. The two sides are computed along
/// independent paths through the memory controller; any difference means a
/// counter shard leaked out of the heap's bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardConservation {
    /// Folded controller totals: device reads (DRAM, PCM).
    pub total_reads: [u64; 2],
    /// Folded controller totals: device writes (DRAM, PCM).
    pub total_writes: [u64; 2],
    /// Base shard + per-mutator shards: device reads (DRAM, PCM).
    pub shard_reads: [u64; 2],
    /// Base shard + per-mutator shards: device writes (DRAM, PCM).
    pub shard_writes: [u64; 2],
}

impl ShardConservation {
    /// Returns `true` when both sides agree exactly.
    pub fn holds(&self) -> bool {
        self.total_reads == self.shard_reads && self.total_writes == self.shard_writes
    }
}
