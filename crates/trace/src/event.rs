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
//! 16-byte slot per event:
//!
//! ```text
//! op   u8    the `.kgtrace` opcode (large allocations and the four collect
//!            kinds have their own), or "wide"
//! ctx  u8    the context operand
//! h    u16   Alloc: ref_slots
//! a    u32   Spawn: tlab_bytes   Alloc: payload_bytes   Hook: allocated_bytes
//!            Release: obj        reads and writes: src
//! b    u32   Spawn: ssb_capacity Alloc: type_id         Hook: total_bytes
//!            ReadRef/WriteRef: slot   ReadPrim/WritePrim: offset
//! c    u32   Alloc: site         Hook: elapsed_ms       ReadPrim/WritePrim: len
//!            WriteRef: target + 1, 0 for a null store (as on disk)
//! ```
//!
//! **The wide rule.** An event with any operand too wide for its field — a
//! context past 255, an allocation index or hook byte count past `u32`, a
//! reference store whose `target + 1` does not fit (so `Some(u64::MAX)`
//! is wide, never a null store) — is kept whole in a side list, and its
//! slot holds the "wide" opcode and the event's index in that list. None of
//! the recorded benchmark traces has such an event; the type is nevertheless
//! lossless over everything the `.kgtrace` grammar allows.
//!
//! **Equality is canonical.** Whatever fits is packed and unused fields are
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

/// The `.kgtrace` opcodes, which are also the packed slots' opcodes.
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
    pub const WIDE: u8 = u8::MAX;
}

/// An event as the file format and the packed slots both see it: its
/// opcode and its operands, one per packed field (the assignment is in the
/// module docs), at full width. An opcode's operands are in the file in
/// field order: `ctx`, `h`, `a`, `b`, `c`.
#[derive(Clone, Copy)]
pub(crate) struct Operands {
    pub op: u8,
    pub ctx: u32,
    pub h: u16,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

impl Operands {
    fn new(op: u8, ctx: u32, h: u16, a: u64, b: u64, c: u64) -> Operands {
        Operands { op, ctx, h, a, b, c }
    }

    /// The operands of `event`, or `None` for the one event that has none: a
    /// reference store whose target is `u64::MAX`, which has no `target + 1`.
    #[inline]
    fn of(event: &TraceEvent) -> Option<Operands> {
        Some(match *event {
            TraceEvent::Spawn { ctx, config } => Operands::new(
                op::SPAWN,
                ctx,
                0,
                config.tlab_bytes as u64,
                config.ssb_capacity as u64,
                0,
            ),
            TraceEvent::Retire { ctx } => Operands::new(op::RETIRE, ctx, 0, 0, 0, 0),
            TraceEvent::Alloc {
                ctx,
                ref_slots,
                payload_bytes,
                type_id,
                site,
                large,
            } => Operands::new(
                if large { op::ALLOC_LARGE } else { op::ALLOC },
                ctx,
                ref_slots,
                payload_bytes as u64,
                type_id as u64,
                site as u64,
            ),
            TraceEvent::WriteRef {
                ctx,
                src,
                slot,
                target,
            } => {
                // 0 is a null store; allocation indices shift up by one.
                let shifted = match target {
                    None => 0,
                    Some(target) => target.checked_add(1)?,
                };
                Operands::new(op::WRITE_REF, ctx, 0, src, slot as u64, shifted)
            }
            TraceEvent::WritePrim {
                ctx,
                src,
                offset,
                len,
            } => Operands::new(op::WRITE_PRIM, ctx, 0, src, offset, len),
            TraceEvent::ReadRef { ctx, src, slot } => {
                Operands::new(op::READ_REF, ctx, 0, src, slot as u64, 0)
            }
            TraceEvent::ReadPrim {
                ctx,
                src,
                offset,
                len,
            } => Operands::new(op::READ_PRIM, ctx, 0, src, offset, len),
            TraceEvent::Release { obj } => Operands::new(op::RELEASE, 0, 0, obj, 0, 0),
            TraceEvent::Safepoint => Operands::new(op::SAFEPOINT, 0, 0, 0, 0, 0),
            TraceEvent::Collect { kind } => Operands::new(
                match kind {
                    CollectKind::Young => op::COLLECT_YOUNG,
                    CollectKind::Nursery => op::COLLECT_NURSERY,
                    CollectKind::Observer => op::COLLECT_OBSERVER,
                    CollectKind::Full => op::COLLECT_FULL,
                },
                0,
                0,
                0,
                0,
                0,
            ),
            TraceEvent::Hook {
                allocated_bytes,
                total_bytes,
                elapsed_ms,
            } => Operands::new(op::HOOK, 0, 0, allocated_bytes, total_bytes, elapsed_ms),
        })
    }

    /// The event these operands stand for; each must be within its
    /// [`TraceEvent`] field's range.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a `.kgtrace` opcode.
    #[inline(always)]
    fn event(self) -> TraceEvent {
        let Operands { op, ctx, h, a, b, c } = self;
        match op {
            op::SPAWN => TraceEvent::Spawn {
                ctx,
                config: MutatorConfig {
                    tlab_bytes: a as usize,
                    ssb_capacity: b as usize,
                },
            },
            op::RETIRE => TraceEvent::Retire { ctx },
            op::ALLOC | op::ALLOC_LARGE => TraceEvent::Alloc {
                ctx,
                ref_slots: h,
                payload_bytes: a as u32,
                type_id: b as u16,
                site: c as u32,
                large: op == op::ALLOC_LARGE,
            },
            op::WRITE_REF => TraceEvent::WriteRef {
                ctx,
                src: a,
                slot: b as u32,
                target: c.checked_sub(1),
            },
            op::WRITE_PRIM => TraceEvent::WritePrim {
                ctx,
                src: a,
                offset: b,
                len: c,
            },
            op::READ_REF => TraceEvent::ReadRef {
                ctx,
                src: a,
                slot: b as u32,
            },
            op::READ_PRIM => TraceEvent::ReadPrim {
                ctx,
                src: a,
                offset: b,
                len: c,
            },
            op::RELEASE => TraceEvent::Release { obj: a },
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
            op::HOOK => TraceEvent::Hook {
                allocated_bytes: a,
                total_bytes: b,
                elapsed_ms: c,
            },
            other => unreachable!("opcode {other} is not a .kgtrace opcode"),
        }
    }
}

/// One event in 16 bytes: [`Operands`] whose every value fits.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Packed {
    op: u8,
    ctx: u8,
    h: u16,
    a: u32,
    b: u32,
    c: u32,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 16);

impl Packed {
    /// The slot for `operands`, or `None` if one is too wide for its field.
    #[inline(always)]
    fn new(operands: Operands) -> Option<Packed> {
        let Operands { op, ctx, h, a, b, c } = operands;
        if ctx > u8::MAX as u32 || (a | b | c) > u32::MAX as u64 {
            return None;
        }
        Some(Packed {
            op,
            ctx: ctx as u8,
            h,
            a: a as u32,
            b: b as u32,
            c: c as u32,
        })
    }

    #[inline(always)]
    fn operands(self) -> Operands {
        Operands {
            op: self.op,
            ctx: self.ctx as u32,
            h: self.h,
            a: self.a as u64,
            b: self.b as u64,
            c: self.c as u64,
        }
    }
}

/// An event stream in memory: 16 bytes an event, lossless over everything
/// the `.kgtrace` grammar allows. See the module docs for the layout, the
/// wide rule and why `==` compares the sequences.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TraceEvents {
    slots: Vec<Packed>,
    /// The events some operand of which does not fit a slot, in stream order.
    wide: Vec<TraceEvent>,
    allocations: u64,
}

impl TraceEvents {
    /// Bytes one event takes in memory (wide events: that, and the event).
    pub const SLOT_BYTES: usize = std::mem::size_of::<Packed>();

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

    /// Appends `event`.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        match Operands::of(&event) {
            Some(operands) => self.push_operands(operands),
            // A reference store (see `Operands::of`), so not an allocation.
            None => self.push_wide(event),
        }
    }

    /// Appends the event `operands` stand for, without building it unless it
    /// is wide (the decoder's path, and `push`'s).
    #[inline(always)]
    pub(crate) fn push_operands(&mut self, operands: Operands) {
        match Packed::new(operands) {
            Some(slot) => self.slots.push(slot),
            None => self.push_wide(operands.event()),
        }
        self.allocations += matches!(operands.op, op::ALLOC | op::ALLOC_LARGE) as u64;
    }

    #[cold]
    fn push_wide(&mut self, event: TraceEvent) {
        let index = self.wide.len() as u64;
        self.wide.push(event);
        self.slots.push(Packed {
            op: op::WIDE,
            ctx: 0,
            h: 0,
            a: index as u32,
            b: (index >> 32) as u32,
            c: 0,
        });
    }

    /// The wide event `slot` (whose opcode is [`op::WIDE`]) indexes.
    #[inline]
    fn wide_event(&self, slot: Packed) -> &TraceEvent {
        &self.wide[(slot.a as u64 | (slot.b as u64) << 32) as usize]
    }

    #[inline(always)]
    fn unpack(&self, slot: Packed) -> TraceEvent {
        if slot.op == op::WIDE {
            return *self.wide_event(slot);
        }
        slot.operands().event()
    }

    /// The event at `index`.
    pub fn get(&self, index: usize) -> Option<TraceEvent> {
        self.slots.get(index).map(|&slot| self.unpack(slot))
    }

    /// The last event.
    pub fn last(&self) -> Option<TraceEvent> {
        self.slots.last().map(|&slot| self.unpack(slot))
    }

    /// The events, in program order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        self.slots.iter().map(|&slot| self.unpack(slot))
    }

    /// The events as the encoder wants them: opcode and operands, no
    /// [`TraceEvent`] in between.
    ///
    /// # Panics
    ///
    /// The iterator panics on the one event that has no operands (see
    /// [`Operands::of`]) and so no encoding.
    #[inline]
    pub(crate) fn operands(&self) -> impl Iterator<Item = Operands> + '_ {
        self.slots.iter().map(|&slot| {
            if slot.op != op::WIDE {
                return slot.operands();
            }
            let event = self.wide_event(slot);
            Operands::of(event).unwrap_or_else(|| {
                panic!("{event:?} cannot be encoded: no allocation index follows its target")
            })
        })
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
