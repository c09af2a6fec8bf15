//! The persisted heap-event vocabulary, and the packed stream that holds it
//! in memory.
//!
//! A trace event is the on-disk twin of a [`kingsguard::HeapEvent`]: the
//! same operation, but with every root [`kingsguard_heap::Handle`] replaced
//! by the *allocation index* of the object it referred to — the position of
//! the object's allocation event in the trace, counting from zero. Handles
//! are runtime-assigned and reused after release, so they are meaningless
//! across processes; allocation indices are stable, dense and append-only,
//! which is what makes the format replayable and diffable.
//!
//! # Events in memory: [`TraceEvents`]
//!
//! [`TraceEvent`] is the *value* vocabulary — what is pushed, what iteration
//! yields — but at 40 bytes (a `u64` beside an `Option<u64>`) it is not what
//! a million-event trace should be stored as. [`TraceEvents`] stores one
//! `u64` slot per event: the `.kgtrace` opcode in bits 0–3, the context in
//! bits 4–7, and the opcode's other operands from bit 8 up, low field
//! first, each at the width its opcode gives it (bits in brackets):
//!
//! ```text
//! opcode                     bits 4-7   bits 8-63
//! SPAWN                      ctx        tlab_bytes [28], ssb_capacity [28]
//! RETIRE                     ctx        -
//! ALLOC, ALLOC_LARGE         ctx        ref_slots [10], payload_bytes [20],
//!                                       type_id [12], site [14]
//! WRITE_REF                  ctx        src [26], slot [4], target + 1 [26]
//!                                       (0 for a null store, as on disk)
//! WRITE_PRIM, READ_PRIM      ctx        src [26], offset [22], len [8]
//! READ_REF                   ctx        src [26], slot [30]
//! RELEASE                    0          obj [56]
//! SAFEPOINT, COLLECT_*       0          -
//! HOOK                       never packed
//! WIDE (15, in memory only)  0          index into the side list [56]
//! ```
//!
//! Packing and unpacking are one `match` on the opcode each, every shift in
//! it a constant.
//!
//! **The wide rule.** An event with any operand too wide for its field is
//! kept whole in a side list, and its slot holds the WIDE opcode and the
//! event's index in that list. That is a context of 16 or more, an
//! allocation index of 2^26 or more in a read or write, any other operand
//! past its width (a reference store whose `target + 1` does not fit, so
//! `Some(u64::MAX)` is wide, never a null store), and every hook marker
//! (three byte and millisecond counts that seldom fit anything narrow,
//! and a few dozen of them a trace). In the recorded benchmark traces only
//! the hook markers are wide; the type is nevertheless lossless over
//! everything the `.kgtrace` grammar allows.
//!
//! **Equality is canonical.** Whatever fits is packed and unused bits are
//! zero, so a sequence of events has exactly one representation and the
//! derived `==` on slots and side list is `==` on the sequences, however
//! each was built (pushed, collected, decoded).
//!
//! None of this reaches the file: a trace encodes to the same
//! [`crate::format`] bytes whether its events are packed or wide.

pub use kingsguard::CollectKind;
use kingsguard::MutatorConfig;

/// One persisted heap event. See [`crate::format`] for the encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A mutator context was spawned at slot `ctx`.
    Spawn {
        /// The context index the heap assigned (replay verifies it gets the
        /// same one).
        ctx: u32,
        /// The context's TLAB / store-buffer configuration.
        config: MutatorConfig,
    },
    /// The context at slot `ctx` was retired.
    Retire {
        /// The retired context index.
        ctx: u32,
    },
    /// An object allocation; its allocation index is implicit (the number of
    /// allocation events preceding it).
    Alloc {
        /// The context that allocated.
        ctx: u32,
        /// Reference slots of the object's shape.
        ref_slots: u16,
        /// Primitive payload bytes of the object's shape.
        payload_bytes: u32,
        /// The object's type id.
        type_id: u16,
        /// The allocation site (`advice::SiteId::UNKNOWN.0` when untagged).
        site: u32,
        /// `true` if the shape takes the large-object path (recorded for
        /// diffing and sanity checks; replay re-derives it from the shape).
        large: bool,
    },
    /// A reference store through the write barrier.
    WriteRef {
        /// The context that wrote.
        ctx: u32,
        /// Allocation index of the written object.
        src: u64,
        /// The written slot index.
        slot: u32,
        /// Allocation index of the stored reference.
        target: Option<u64>,
    },
    /// A primitive store (offset/len as the mutator passed them).
    WritePrim {
        /// The context that wrote.
        ctx: u32,
        /// Allocation index of the written object.
        src: u64,
        /// Requested payload offset.
        offset: u64,
        /// Requested store length in bytes.
        len: u64,
    },
    /// A reference-slot read.
    ReadRef {
        /// The context that read.
        ctx: u32,
        /// Allocation index of the read object.
        src: u64,
        /// The read slot index.
        slot: u32,
    },
    /// A primitive payload read.
    ReadPrim {
        /// The context that read.
        ctx: u32,
        /// Allocation index of the read object.
        src: u64,
        /// Requested payload offset.
        offset: u64,
        /// Requested read length in bytes.
        len: u64,
    },
    /// A root release.
    Release {
        /// Allocation index of the released object.
        obj: u64,
    },
    /// An explicit mutator safepoint.
    Safepoint,
    /// A mutator-initiated collection.
    Collect {
        /// Which collection entry point was called.
        kind: CollectKind,
    },
    /// A workload progress marker (the point where the driver's periodic
    /// hook ran).
    Hook {
        /// Bytes the workload had allocated at the marker.
        allocated_bytes: u64,
        /// Total bytes the workload will allocate.
        total_bytes: u64,
        /// The workload's nominal elapsed milliseconds at the marker.
        elapsed_ms: u64,
    },
}

impl TraceEvent {
    /// Returns `true` for allocation events (the events that consume an
    /// allocation index).
    pub fn is_alloc(&self) -> bool {
        matches!(self, TraceEvent::Alloc { .. })
    }
}

/// The `.kgtrace` opcodes, which are also the slots' opcodes.
pub(crate) mod op {
    pub const SPAWN: u8 = 0;
    pub const RETIRE: u8 = 1;
    pub const ALLOC: u8 = 2;
    pub const ALLOC_LARGE: u8 = 3;
    pub const WRITE_REF: u8 = 4;
    pub const WRITE_PRIM: u8 = 5;
    pub const READ_REF: u8 = 6;
    pub const READ_PRIM: u8 = 7;
    pub const RELEASE: u8 = 8;
    pub const SAFEPOINT: u8 = 9;
    pub const COLLECT_YOUNG: u8 = 10;
    pub const COLLECT_NURSERY: u8 = 11;
    pub const COLLECT_OBSERVER: u8 = 12;
    pub const COLLECT_FULL: u8 = 13;
    pub const HOOK: u8 = 14;
    /// In memory only: the slot indexes the side list of wide events.
    pub const WIDE: u8 = 15;
}

/// A slot's context field starts here, above the 4-bit opcode.
const CTX_SHIFT: u32 = 4;
/// Contexts from this one up are wide.
const CTX_LIMIT: u32 = 16;
/// An opcode's other operands start here, low field first.
const FIELDS_SHIFT: u32 = 8;

/// Each opcode's operand widths in bits, in file order after the context
/// (see the module docs).
mod width {
    pub const SPAWN: [u32; 2] = [28, 28];
    pub const ALLOC: [u32; 4] = [10, 20, 12, 14];
    pub const WRITE_REF: [u32; 3] = [26, 4, 26];
    pub const PRIM: [u32; 3] = [26, 22, 8];
    pub const READ_REF: [u32; 2] = [26, 30];
    pub const RELEASE: [u32; 1] = [56];
}

const fn fits_a_slot<const N: usize>(widths: [u32; N]) -> bool {
    let (mut bits, mut i) = (FIELDS_SHIFT, 0);
    while i < N {
        bits += widths[i];
        i += 1;
    }
    bits <= u64::BITS
}

const _: () = assert!(
    fits_a_slot(width::SPAWN)
        && fits_a_slot(width::ALLOC)
        && fits_a_slot(width::WRITE_REF)
        && fits_a_slot(width::PRIM)
        && fits_a_slot(width::READ_REF)
        && fits_a_slot(width::RELEASE)
);

/// The slot of opcode `op` with context `ctx` and `fields` at `widths` bits
/// each, or `None` if a value does not fit its field. Every caller passes
/// one of the [`width`] constants, so once inlined each shift is a constant.
#[inline(always)]
fn pack<const N: usize>(op: u8, ctx: u32, widths: [u32; N], fields: [u64; N]) -> Option<u64> {
    let mut word = op as u64 | (ctx as u64) << CTX_SHIFT;
    let mut spill = (ctx >= CTX_LIMIT) as u64;
    let mut shift = FIELDS_SHIFT;
    for (field, width) in fields.into_iter().zip(widths) {
        spill |= field >> width;
        word |= field << shift;
        shift += width;
    }
    (spill == 0).then_some(word)
}

/// The fields [`pack`] put into `word` at `widths`.
#[inline(always)]
fn unpack<const N: usize>(word: u64, widths: [u32; N]) -> [u64; N] {
    let mut shift = FIELDS_SHIFT;
    widths.map(|width| {
        let field = word >> shift & ((1 << width) - 1);
        shift += width;
        field
    })
}

/// A reference store's target as the file and the slots hold it: 0 for a
/// null store, the allocation index plus one otherwise, and `None` for the
/// one index that has no successor, `u64::MAX`.
#[inline(always)]
pub(crate) fn stored_target(target: Option<u64>) -> Option<u64> {
    match target {
        None => Some(0),
        Some(target) => target.checked_add(1),
    }
}

impl TraceEvent {
    /// The event's `.kgtrace` opcode.
    #[inline(always)]
    pub(crate) fn opcode(&self) -> u8 {
        match self {
            TraceEvent::Spawn { .. } => op::SPAWN,
            TraceEvent::Retire { .. } => op::RETIRE,
            TraceEvent::Alloc { large: false, .. } => op::ALLOC,
            TraceEvent::Alloc { large: true, .. } => op::ALLOC_LARGE,
            TraceEvent::WriteRef { .. } => op::WRITE_REF,
            TraceEvent::WritePrim { .. } => op::WRITE_PRIM,
            TraceEvent::ReadRef { .. } => op::READ_REF,
            TraceEvent::ReadPrim { .. } => op::READ_PRIM,
            TraceEvent::Release { .. } => op::RELEASE,
            TraceEvent::Safepoint => op::SAFEPOINT,
            TraceEvent::Collect {
                kind: CollectKind::Young,
            } => op::COLLECT_YOUNG,
            TraceEvent::Collect {
                kind: CollectKind::Nursery,
            } => op::COLLECT_NURSERY,
            TraceEvent::Collect {
                kind: CollectKind::Observer,
            } => op::COLLECT_OBSERVER,
            TraceEvent::Collect {
                kind: CollectKind::Full,
            } => op::COLLECT_FULL,
            TraceEvent::Hook { .. } => op::HOOK,
        }
    }

    /// The event's slot, or `None` if it is wide.
    #[inline(always)]
    fn slot(&self) -> Option<u64> {
        let op = self.opcode();
        match *self {
            TraceEvent::Spawn { ctx, config } => pack(
                op,
                ctx,
                width::SPAWN,
                [config.tlab_bytes as u64, config.ssb_capacity as u64],
            ),
            TraceEvent::Retire { ctx } => pack(op, ctx, [], []),
            TraceEvent::Alloc {
                ctx,
                ref_slots,
                payload_bytes,
                type_id,
                site,
                large: _,
            } => pack(
                op,
                ctx,
                width::ALLOC,
                [
                    ref_slots as u64,
                    payload_bytes as u64,
                    type_id as u64,
                    site as u64,
                ],
            ),
            TraceEvent::WriteRef {
                ctx,
                src,
                slot,
                target,
            } => pack(
                op,
                ctx,
                width::WRITE_REF,
                [src, slot as u64, stored_target(target)?],
            ),
            TraceEvent::WritePrim {
                ctx,
                src,
                offset,
                len,
            }
            | TraceEvent::ReadPrim {
                ctx,
                src,
                offset,
                len,
            } => pack(op, ctx, width::PRIM, [src, offset, len]),
            TraceEvent::ReadRef { ctx, src, slot } => pack(op, ctx, width::READ_REF, [src, slot as u64]),
            TraceEvent::Release { obj } => pack(op, 0, width::RELEASE, [obj]),
            TraceEvent::Safepoint | TraceEvent::Collect { .. } => pack(op, 0, [], []),
            TraceEvent::Hook { .. } => None,
        }
    }
}

/// An event stream in memory: 8 bytes an event, lossless over everything
/// the `.kgtrace` grammar allows. See the module docs for the layout, the
/// wide rule and why `==` compares the sequences.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TraceEvents {
    slots: Vec<u64>,
    /// The events that do not fit a slot, in stream order.
    wide: Vec<TraceEvent>,
    allocations: u64,
}

impl TraceEvents {
    /// Bytes one event takes in memory (wide events: that, and the event).
    pub const SLOT_BYTES: usize = std::mem::size_of::<u64>();

    /// An empty stream with room for `events` events.
    pub fn with_capacity(events: usize) -> Self {
        TraceEvents {
            slots: Vec::with_capacity(events),
            ..TraceEvents::default()
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of allocation events, counted as they were pushed.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Bytes the events take: a slot each, and each wide event whole beside
    /// its slot (spare capacity not counted).
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * Self::SLOT_BYTES + self.wide.len() * std::mem::size_of::<TraceEvent>()
    }

    /// Appends `event`. The decoder pushes each event as it builds it, so
    /// `slot`'s match folds away and only that opcode's packing remains.
    #[inline(always)]
    pub fn push(&mut self, event: TraceEvent) {
        match event.slot() {
            Some(word) => self.slots.push(word),
            None => self.push_wide(event),
        }
        self.allocations += event.is_alloc() as u64;
    }

    #[cold]
    fn push_wide(&mut self, event: TraceEvent) {
        self.slots
            .push(op::WIDE as u64 | (self.wide.len() as u64) << FIELDS_SHIFT);
        self.wide.push(event);
    }

    /// The event `word`, one of this stream's slots, stands for.
    #[inline(always)]
    fn event(&self, word: u64) -> TraceEvent {
        let ctx = (word >> CTX_SHIFT) as u32 & (CTX_LIMIT - 1);
        let op = word as u8 & op::WIDE;
        match op {
            op::SPAWN => {
                let [tlab_bytes, ssb_capacity] = unpack(word, width::SPAWN);
                TraceEvent::Spawn {
                    ctx,
                    config: MutatorConfig {
                        tlab_bytes: tlab_bytes as usize,
                        ssb_capacity: ssb_capacity as usize,
                    },
                }
            }
            op::RETIRE => TraceEvent::Retire { ctx },
            op::ALLOC | op::ALLOC_LARGE => {
                let [ref_slots, payload_bytes, type_id, site] = unpack(word, width::ALLOC);
                TraceEvent::Alloc {
                    ctx,
                    ref_slots: ref_slots as u16,
                    payload_bytes: payload_bytes as u32,
                    type_id: type_id as u16,
                    site: site as u32,
                    large: op == op::ALLOC_LARGE,
                }
            }
            op::WRITE_REF => {
                let [src, slot, target] = unpack(word, width::WRITE_REF);
                TraceEvent::WriteRef {
                    ctx,
                    src,
                    slot: slot as u32,
                    target: target.checked_sub(1),
                }
            }
            op::WRITE_PRIM => {
                let [src, offset, len] = unpack(word, width::PRIM);
                TraceEvent::WritePrim {
                    ctx,
                    src,
                    offset,
                    len,
                }
            }
            op::READ_REF => {
                let [src, slot] = unpack(word, width::READ_REF);
                TraceEvent::ReadRef {
                    ctx,
                    src,
                    slot: slot as u32,
                }
            }
            op::READ_PRIM => {
                let [src, offset, len] = unpack(word, width::PRIM);
                TraceEvent::ReadPrim {
                    ctx,
                    src,
                    offset,
                    len,
                }
            }
            op::RELEASE => {
                let [obj] = unpack(word, width::RELEASE);
                TraceEvent::Release { obj }
            }
            op::SAFEPOINT => TraceEvent::Safepoint,
            op::COLLECT_YOUNG => TraceEvent::Collect {
                kind: CollectKind::Young,
            },
            op::COLLECT_NURSERY => TraceEvent::Collect {
                kind: CollectKind::Nursery,
            },
            op::COLLECT_OBSERVER => TraceEvent::Collect {
                kind: CollectKind::Observer,
            },
            op::COLLECT_FULL => TraceEvent::Collect {
                kind: CollectKind::Full,
            },
            op::WIDE => self.wide[(word >> FIELDS_SHIFT) as usize],
            // A hook marker is never packed.
            other => unreachable!("opcode {other} has no slot"),
        }
    }

    /// The event at `index`.
    pub fn get(&self, index: usize) -> Option<TraceEvent> {
        self.slots.get(index).map(|&word| self.event(word))
    }

    /// The last event.
    pub fn last(&self) -> Option<TraceEvent> {
        self.slots.last().map(|&word| self.event(word))
    }

    /// The events, in program order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.slots.iter().map(|&word| self.event(word))
    }
}

impl std::fmt::Debug for TraceEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<TraceEvent> for TraceEvents {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut events = TraceEvents::with_capacity(iter.size_hint().0);
        for event in iter {
            events.push(event);
        }
        events
    }
}

impl From<Vec<TraceEvent>> for TraceEvents {
    fn from(events: Vec<TraceEvent>) -> Self {
        events.into_iter().collect()
    }
}

/// Header of a `.kgtrace` file: enough provenance to validate a replay
/// target and to key trace caches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload name (benchmark or custom driver).
    pub workload: String,
    /// RNG seed the workload was generated from.
    pub seed: u64,
    /// Workload scale divisor.
    pub scale: u64,
    /// Nursery size of the recording heap, in bytes. Workload drivers size
    /// object lifetimes from this, so a replay heap must match for the
    /// recorded stream to be meaningful.
    pub nursery_bytes: u64,
    /// Observer-space size of the recording heap, in bytes (same caveat).
    pub observer_bytes: u64,
    /// Hash of the workload's allocation-site map at recording time
    /// (`0` = unhashed), mirroring the `.kgprof` drift detection.
    pub site_map_hash: u64,
    /// Seed of the PCM fault-injection schedule active while recording
    /// (`0` = fault-free run; format v2+). Replays must run under the same
    /// schedule for record-vs-replay bit-identity to hold, so this keys the
    /// staleness check exactly like the site-map hash.
    pub fault_seed: u64,
}

/// A fully decoded trace: header plus the event stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// File header.
    pub header: TraceHeader,
    /// The recorded events, in program order.
    pub events: TraceEvents,
}

impl Trace {
    /// Number of allocation events (objects the replay will create).
    pub fn allocations(&self) -> u64 {
        self.events.allocations()
    }
}
