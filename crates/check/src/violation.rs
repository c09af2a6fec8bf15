//! The typed violation vocabulary shared by both checker modes.
//!
//! Every invariant the sanitizer (mode 1) or the trace analyzer (mode 2)
//! can falsify has one [`CheckViolation`] variant carrying the full
//! provenance of the failure: which object (by allocation index), which
//! handle, which slot, which event position, and — for runtime violations —
//! the [`CheckPoint`](kingsguard::CheckPoint) label at which the invariant
//! was found broken.

use std::fmt;

use kingsguard::{CheckNote, ShardConservation};

/// One falsified invariant, with provenance.
///
/// The first group of variants is produced by the runtime shadow-heap
/// sanitizer ([`crate::SanitizerHandle`]); the second group by the static
/// trace analyzer ([`crate::analyze_trace`]). `kind()` gives the stable
/// machine-readable name used in `check.violation` telemetry events and in
/// CLI reports.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckViolation {
    // ---- runtime (shadow-heap sanitizer) -----------------------------
    /// A root-table entry points at memory that is unmapped or holds a
    /// forwarded (stale) object header.
    DanglingRoot {
        /// Root-table handle index.
        handle: u32,
        /// The dangling address.
        addr: u64,
        /// Checkpoint label where the walk found it.
        at: &'static str,
    },
    /// A reference slot of a live object points at unmapped memory, at a
    /// forwarded header, or disagrees with the shadow graph (an edge was
    /// lost or fabricated by the collector).
    DanglingReference {
        /// Allocation index of the object holding the slot.
        object: usize,
        /// The slot index.
        slot: usize,
        /// The value found in the slot.
        addr: u64,
        /// Checkpoint label where the walk found it.
        at: &'static str,
    },
    /// A live object's header decodes to a different shape, type id or
    /// allocation site than the one it was allocated with.
    ShapeMismatch {
        /// Allocation index of the object.
        object: usize,
        /// The object's current address.
        addr: u64,
        /// Expected `(ref_slots, payload_bytes, type_id, site)`.
        expected: (u16, u32, u16, u32),
        /// Found `(ref_slots, payload_bytes, type_id, site)`.
        found: (u16, u32, u16, u32),
        /// Checkpoint label where the walk found it.
        at: &'static str,
    },
    /// A mature/observer object holds a reference into the nursery (or,
    /// for observer collections, into the nursery/observer region) whose
    /// slot is not in the corresponding remembered set at collection entry
    /// — the trace about to run would miss the edge.
    RemsetIncomplete {
        /// Allocation index of the parent object.
        object: usize,
        /// The unremembered slot index.
        slot: usize,
        /// The slot's address.
        slot_addr: u64,
        /// Allocation index of the young target.
        target: usize,
        /// Checkpoint label (`pre-nursery` or `pre-observer`).
        at: &'static str,
    },
    /// The heap's barrier-observed write counters disagree with the number
    /// of write events the sanitizer itself observed on the event stream —
    /// some write bypassed the barrier bookkeeping (or was double counted).
    BarrierCountMismatch {
        /// Reference writes observed on the event stream.
        observed_refs: u64,
        /// Reference writes counted by the heap's barrier.
        counted_refs: u64,
        /// Primitive writes observed on the event stream.
        observed_prims: u64,
        /// Primitive writes counted by the heap's barrier.
        counted_prims: u64,
        /// Checkpoint label.
        at: &'static str,
    },
    /// A mutator context reached a checkpoint with buffered, unreplayed
    /// store-barrier events (the sequential store buffer must drain at
    /// every safepoint).
    SsbNotDrained {
        /// The context's slot index.
        ctx: usize,
        /// Buffered events still pending.
        pending: usize,
        /// Checkpoint label.
        at: &'static str,
    },
    /// A mutator context reached a checkpoint with a non-zero (unmerged)
    /// memory-counter shard.
    ShardNotMerged {
        /// The context's slot index.
        ctx: usize,
        /// Unmerged device reads (DRAM, PCM).
        reads: [u64; 2],
        /// Unmerged device writes (DRAM, PCM).
        writes: [u64; 2],
        /// Checkpoint label.
        at: &'static str,
    },
    /// The memory controller's folded device totals disagree with the sum
    /// of the shards the heap knows about — a counter shard leaked out of
    /// the heap's bookkeeping.
    ShardConservationBroken {
        /// Both sides of the failed conservation equation.
        snapshot: ShardConservation,
        /// Checkpoint label.
        at: &'static str,
    },
    /// Two TLAB windows overlap — the nursery handed the same bytes to two
    /// carves.
    TlabOverlap {
        /// Context owning the earlier window.
        ctx_a: usize,
        /// Earlier window as `(start, len)`.
        a: (u64, u64),
        /// Context owning the later window.
        ctx_b: usize,
        /// Later window as `(start, len)`.
        b: (u64, u64),
    },
    /// A TLAB window lies (partly) outside the nursery region.
    TlabOutsideNursery {
        /// Context owning the window.
        ctx: usize,
        /// Window start address.
        start: u64,
        /// Window length in bytes.
        len: u64,
        /// Checkpoint label.
        at: &'static str,
    },
    /// A live (reachable) object still overlaps a page retired by the
    /// fault model after the full collection that was supposed to evacuate
    /// it.
    RetiredPageNotEmpty {
        /// Allocation index of the object.
        object: usize,
        /// The object's address.
        addr: u64,
        /// The object's size in bytes.
        size: usize,
        /// Checkpoint label.
        at: &'static str,
    },

    // ---- static (trace analyzer) -------------------------------------
    /// An event references an object after its root was released.
    UseAfterRelease {
        /// Index of the offending event.
        event: usize,
        /// Allocation index of the object.
        object: u64,
        /// Index of the release event.
        released_at: usize,
    },
    /// An object's root was released twice.
    DoubleRelease {
        /// Index of the second release event.
        event: usize,
        /// Allocation index of the object.
        object: u64,
        /// Index of the first release event.
        released_at: usize,
    },
    /// An event references an allocation index the trace never allocated
    /// (a write-to-unallocated, or a forward reference).
    UnknownObject {
        /// Index of the offending event.
        event: usize,
        /// The unknown allocation index.
        object: u64,
    },
    /// An event comes from a context slot that was never spawned.
    UnknownContext {
        /// Index of the offending event.
        event: usize,
        /// The unknown context slot.
        ctx: u32,
    },
    /// An event comes from a context that was already retired.
    DanglingContext {
        /// Index of the offending event.
        event: usize,
        /// The retired context slot.
        ctx: u32,
        /// Index of the retire event.
        retired_at: usize,
    },
    /// Context 0 was retired: it has no spawn event and lives as long as
    /// the heap.
    PermanentContext {
        /// Index of the offending retire event.
        event: usize,
    },
    /// A context slot was spawned while still live.
    DuplicateSpawn {
        /// Index of the offending spawn event.
        event: usize,
        /// The doubly spawned context slot.
        ctx: u32,
    },
    /// A reference-slot access names a slot outside the object's shape.
    SlotOutOfBounds {
        /// Index of the offending event.
        event: usize,
        /// Allocation index of the object.
        object: u64,
        /// The out-of-bounds slot.
        slot: u32,
        /// The object's actual slot count.
        ref_slots: u16,
    },
}

impl CheckViolation {
    /// Stable machine-readable kind, used in telemetry and CLI reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CheckViolation::DanglingRoot { .. } => "dangling-root",
            CheckViolation::DanglingReference { .. } => "dangling-reference",
            CheckViolation::ShapeMismatch { .. } => "shape-mismatch",
            CheckViolation::RemsetIncomplete { .. } => "remset-incomplete",
            CheckViolation::BarrierCountMismatch { .. } => "barrier-count-mismatch",
            CheckViolation::SsbNotDrained { .. } => "ssb-not-drained",
            CheckViolation::ShardNotMerged { .. } => "shard-not-merged",
            CheckViolation::ShardConservationBroken { .. } => "shard-conservation",
            CheckViolation::TlabOverlap { .. } => "tlab-overlap",
            CheckViolation::TlabOutsideNursery { .. } => "tlab-outside-nursery",
            CheckViolation::RetiredPageNotEmpty { .. } => "retired-page-not-empty",
            CheckViolation::UseAfterRelease { .. } => "use-after-release",
            CheckViolation::DoubleRelease { .. } => "double-release",
            CheckViolation::UnknownObject { .. } => "unknown-object",
            CheckViolation::UnknownContext { .. } => "unknown-context",
            CheckViolation::DanglingContext { .. } => "dangling-context",
            CheckViolation::PermanentContext { .. } => "permanent-context",
            CheckViolation::DuplicateSpawn { .. } => "duplicate-spawn",
            CheckViolation::SlotOutOfBounds { .. } => "slot-out-of-bounds",
        }
    }

    /// Converts the violation into the heap-vocabulary note the sanitizer
    /// trait returns from a checkpoint (kind + rendered provenance).
    #[must_use]
    pub fn note(&self) -> CheckNote {
        CheckNote {
            kind: self.kind(),
            detail: self.to_string(),
        }
    }
}

impl fmt::Display for CheckViolation {
    #[allow(clippy::too_many_lines)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckViolation::DanglingRoot { handle, addr, at } => {
                write!(f, "root handle {handle} dangles at {addr:#x} ({at})")
            }
            CheckViolation::DanglingReference {
                object,
                slot,
                addr,
                at,
            } => write!(
                f,
                "object #{object} slot {slot} dangles at {addr:#x} ({at})"
            ),
            CheckViolation::ShapeMismatch {
                object,
                addr,
                expected,
                found,
                at,
            } => write!(
                f,
                "object #{object} at {addr:#x} decodes as {found:?}, allocated as {expected:?} ({at})"
            ),
            CheckViolation::RemsetIncomplete {
                object,
                slot,
                slot_addr,
                target,
                at,
            } => write!(
                f,
                "object #{object} slot {slot} at {slot_addr:#x} holds young object #{target} but is not remembered ({at})"
            ),
            CheckViolation::BarrierCountMismatch {
                observed_refs,
                counted_refs,
                observed_prims,
                counted_prims,
                at,
            } => write!(
                f,
                "barrier counted {counted_refs} ref / {counted_prims} prim writes, stream shows {observed_refs} / {observed_prims} ({at})"
            ),
            CheckViolation::SsbNotDrained { ctx, pending, at } => {
                write!(f, "mutator {ctx} has {pending} undrained SSB events ({at})")
            }
            CheckViolation::ShardNotMerged {
                ctx,
                reads,
                writes,
                at,
            } => write!(
                f,
                "mutator {ctx} shard not merged: reads {reads:?} writes {writes:?} ({at})"
            ),
            CheckViolation::ShardConservationBroken { snapshot, at } => write!(
                f,
                "shard conservation broken: totals r{:?} w{:?} vs shards r{:?} w{:?} ({at})",
                snapshot.total_reads, snapshot.total_writes, snapshot.shard_reads, snapshot.shard_writes
            ),
            CheckViolation::TlabOverlap { ctx_a, a, ctx_b, b } => write!(
                f,
                "TLAB overlap: mutator {ctx_a} [{:#x}+{}] vs mutator {ctx_b} [{:#x}+{}]",
                a.0, a.1, b.0, b.1
            ),
            CheckViolation::TlabOutsideNursery { ctx, start, len, at } => write!(
                f,
                "mutator {ctx} TLAB [{start:#x}+{len}] outside the nursery ({at})"
            ),
            CheckViolation::RetiredPageNotEmpty {
                object,
                addr,
                size,
                at,
            } => write!(
                f,
                "object #{object} ({size} B at {addr:#x}) still on a retired page ({at})"
            ),
            CheckViolation::UseAfterRelease {
                event,
                object,
                released_at,
            } => write!(
                f,
                "event {event} uses object #{object} released at event {released_at}"
            ),
            CheckViolation::DoubleRelease {
                event,
                object,
                released_at,
            } => write!(
                f,
                "event {event} re-releases object #{object} first released at event {released_at}"
            ),
            CheckViolation::UnknownObject { event, object } => {
                write!(f, "event {event} references unallocated object #{object}")
            }
            CheckViolation::UnknownContext { event, ctx } => {
                write!(f, "event {event} comes from never-spawned context {ctx}")
            }
            CheckViolation::DanglingContext {
                event,
                ctx,
                retired_at,
            } => write!(
                f,
                "event {event} comes from context {ctx} retired at event {retired_at}"
            ),
            CheckViolation::PermanentContext { event } => {
                write!(f, "event {event} retires context 0, which lives as long as the heap")
            }
            CheckViolation::DuplicateSpawn { event, ctx } => {
                write!(f, "event {event} re-spawns live context {ctx}")
            }
            CheckViolation::SlotOutOfBounds {
                event,
                object,
                slot,
                ref_slots,
            } => write!(
                f,
                "event {event} accesses slot {slot} of object #{object} which has {ref_slots} slots"
            ),
        }
    }
}
