//! The versioned `.kgtrace` on-disk format.
//!
//! Traces can hold millions of events, so unlike the diff-friendly text
//! `.kgprof` profiles they are stored as a compact binary stream:
//!
//! ```text
//! magic      8 bytes   "KGTRACE\0"
//! version    u32 LE    current: 2
//! workload   u32 LE length + UTF-8 bytes
//! seed       u64 LE
//! scale      u64 LE
//! nursery    u64 LE    nursery bytes of the recording heap
//! observer   u64 LE    observer-space bytes of the recording heap
//! site-hash  u64 LE    site-map hash (0 = unhashed)
//! fault-seed u64 LE    fault-schedule seed (0 = fault-free; v2+)
//! count      u64 LE    number of events
//! events     count × (opcode u8 + LEB128 operands)
//! checksum   u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! Event operands are unsigned LEB128 varints, so the common case — context
//! 0, small slots, short writes — costs one byte per operand. An operand
//! past its field's type is a malformed event, and so is an allocation
//! site at or above [`advice::SiteId::LIMIT`]. The format is
//! versioned like `.kgprof`: the parser accepts versions
//! [`FORMAT_MIN_VERSION`]`..=`[`FORMAT_VERSION`] and rejects everything
//! else. Corruption is detected three ways: truncation (decoding runs out
//! of bytes), a declared event count that does not match the stream, and a
//! trailing FNV-1a checksum that catches in-place bit flips.
//!
//! # Verdict order
//!
//! [`parse_trace`] answers in a fixed order, whatever order it does the
//! work in: (1) too short for the magic, wrong magic, too short for a
//! version and a checksum; (2) the checksum — a file whose checksum does not
//! match is a [`TraceError::ChecksumMismatch`] and nothing else, however
//! its content would have decoded; (3) only behind a matching checksum, what
//! the decoder found: unsupported version, bad header, truncated or
//! malformed event, count mismatch, or the trace. No trace is ever
//! returned before its whole checksum has matched.
//!
//! # Why the checksum is folded behind the decoder
//!
//! FNV-1a is one xor and one multiply per byte, each depending on the last:
//! about four cycles a byte that nothing can shorten, but that need no
//! execution resources besides the multiplier. As a pass of its own over
//! the file all of that time is added to the decoder's. Folded event by
//! event just behind the decoder, its dependency chain runs in the shadow
//! of the decoder's independent work on the next event (on the 2-vCPU
//! sizing VM a 25 MB lusearch trace decodes in 0.100 s this way and
//! 0.118 s with the fold as a separate pass; the fold alone is ≈ 0.05 s).
//! On a decode failure the fold is finished over the rest of the content before
//! anything is reported, which is what keeps the order above: damage that
//! derails the decoder still reads as a checksum mismatch. The price is
//! that the header's event count is read before it is vouched for, so the
//! event buffer is reserved for no more events than the remaining bytes
//! could encode.
//!
//! # The format and the events in memory
//!
//! A decoded trace holds its events as [`TraceEvents`]: one 8-byte slot per
//! event, whose opcode is this file format's and whose fields are the
//! event's operands in file order, each at its opcode's width (see
//! [`crate::event`]). Each arm of the decoder reads its opcode's varints
//! into a [`crate::TraceEvent`] and pushes it then and there, so the push's
//! match folds into the arm: what is left is that opcode's packing, a
//! constant shift per field, and the 40-byte event is only ever stored when
//! an operand is too wide for its field. That is a property of the
//! in-memory stream alone: the bytes above are unchanged,
//! [`FORMAT_VERSION`] with them, and a trace encodes to the same file
//! whether its events were packed or wide.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use advice::SiteId;
use kingsguard::MutatorConfig;

use crate::event::{op, stored_target, CollectKind, Trace, TraceEvent, TraceEvents, TraceHeader};

/// Leading magic bytes of every `.kgtrace` file.
pub const FORMAT_MAGIC: &[u8; 8] = b"KGTRACE\0";

/// Current format version. Bump when the header or event layout changes.
/// Version 2 added the fault-schedule seed to the header; version-1 files
/// still parse (their fault seed reads as 0, i.e. fault-free).
pub const FORMAT_VERSION: u32 = 2;

/// Oldest version this build still reads.
pub const FORMAT_MIN_VERSION: u32 = 1;

/// Canonical file extension.
pub const FILE_EXTENSION: &str = "kgtrace";

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The magic bytes are missing or wrong (not a `.kgtrace` file).
    BadMagic,
    /// The file declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// The stream ended before the declared content (truncated file).
    Truncated {
        /// Byte offset at which the decoder ran out of input.
        offset: usize,
    },
    /// An event could not be decoded.
    BadEvent {
        /// Index of the malformed event.
        index: u64,
        /// Byte offset of its opcode.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header is malformed (bad string, absurd length, ...).
    BadHeader(String),
    /// The declared event count does not match the stream.
    CountMismatch {
        /// Events the header declared.
        declared: u64,
        /// Events actually decoded.
        found: u64,
    },
    /// The trailing checksum does not match the content (bit corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(err) => write!(f, "trace I/O error: {err}"),
            TraceError::BadMagic => write!(f, "not a .kgtrace file (bad magic)"),
            TraceError::UnsupportedVersion(version) => write!(
                f,
                "unsupported trace version {version} (this build reads versions \
                 {FORMAT_MIN_VERSION}..={FORMAT_VERSION})"
            ),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated: input ended at byte {offset}")
            }
            TraceError::BadEvent {
                index,
                offset,
                reason,
            } => write!(f, "bad trace event {index} at byte {offset}: {reason}"),
            TraceError::BadHeader(reason) => write!(f, "bad trace header: {reason}"),
            TraceError::CountMismatch { declared, found } => {
                write!(f, "trace declares {declared} events but contains {found}")
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:016x}, computed {computed:016x} \
                 (file corrupted)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(err: io::Error) -> Self {
        TraceError::Io(err)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an event: its opcode, then its operands in file order.
///
/// # Panics
///
/// Panics on a reference store whose target is `u64::MAX` (see
/// [`trace_to_bytes`]).
#[inline]
fn encode_event(out: &mut Vec<u8>, event: TraceEvent) {
    out.push(event.opcode());
    let mut put = |operand: u64| push_varint(out, operand);
    match event {
        TraceEvent::Spawn { ctx, config } => {
            put(ctx as u64);
            put(config.tlab_bytes as u64);
            put(config.ssb_capacity as u64);
        }
        TraceEvent::Retire { ctx } => put(ctx as u64),
        TraceEvent::Alloc {
            ctx,
            ref_slots,
            payload_bytes,
            type_id,
            site,
            large: _,
        } => {
            put(ctx as u64);
            put(ref_slots as u64);
            put(payload_bytes as u64);
            put(type_id as u64);
            put(site as u64);
        }
        TraceEvent::WriteRef {
            ctx,
            src,
            slot,
            target,
        } => {
            put(ctx as u64);
            put(src);
            put(slot as u64);
            put(stored_target(target).unwrap_or_else(|| {
                panic!("{event:?} cannot be encoded: no allocation index follows its target")
            }));
        }
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
        } => {
            put(ctx as u64);
            put(src);
            put(offset);
            put(len);
        }
        TraceEvent::ReadRef { ctx, src, slot } => {
            put(ctx as u64);
            put(src);
            put(slot as u64);
        }
        TraceEvent::Release { obj } => put(obj),
        TraceEvent::Hook {
            allocated_bytes,
            total_bytes,
            elapsed_ms,
        } => {
            put(allocated_bytes);
            put(total_bytes);
            put(elapsed_ms);
        }
        // The opcode is the event.
        TraceEvent::Safepoint | TraceEvent::Collect { .. } => {}
    }
}

/// FNV-1a (the same fold `workloads::site_map_hash` uses), resumable: the
/// first `upto` bytes of the content are folded into `hash`.
struct Checksum {
    hash: u64,
    upto: usize,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            hash: 0xcbf2_9ce4_8422_2325,
            upto: 0,
        }
    }

    /// Folds `content[self.upto..end]`.
    #[inline]
    fn fold_to(&mut self, content: &[u8], end: usize) {
        for &b in &content[self.upto..end] {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.upto = end;
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut checksum = Checksum::new();
    checksum.fold_to(bytes, bytes.len());
    checksum.hash
}

/// Serializes a trace to the binary format.
///
/// # Panics
///
/// Panics on a [`crate::TraceEvent::WriteRef`] whose target is `Some(u64::MAX)`:
/// targets are stored plus one, so that index has no encoding (and no
/// decoder can have produced it).
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.events.len() * 6);
    out.extend_from_slice(FORMAT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, trace.header.workload.len() as u32);
    out.extend_from_slice(trace.header.workload.as_bytes());
    push_u64(&mut out, trace.header.seed);
    push_u64(&mut out, trace.header.scale);
    push_u64(&mut out, trace.header.nursery_bytes);
    push_u64(&mut out, trace.header.observer_bytes);
    push_u64(&mut out, trace.header.site_map_hash);
    push_u64(&mut out, trace.header.fault_seed);
    push_u64(&mut out, trace.events.len() as u64);
    for event in trace.events.iter() {
        encode_event(&mut out, event);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    // Six bytes per event underestimates the benchmark traces, so the
    // buffer may have doubled; callers keep the result for a whole run.
    out.shrink_to_fit();
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Why event decoding stopped. The event loop carries this small `Copy`
/// value instead of a [`TraceError`] (which owns a `String` and an
/// `io::Error`, so every `?` on it costs a wide move and drop glue);
/// [`event_error`] builds the real error once, off the hot path.
#[derive(Clone, Copy)]
enum Stop {
    /// The input ended inside an event.
    Truncated,
    /// The varint starting at byte `at` does not fit a `u64`.
    VarintOverflow {
        at: usize,
    },
    UnknownOpcode(u8),
    /// Operand `what` holds a value its field cannot.
    OutOfRange {
        what: &'static str,
        value: u64,
    },
}

#[cold]
fn event_error(stop: Stop, index: u64, offset: usize, end: usize) -> TraceError {
    let reason = match stop {
        // Events are read a byte at a time, so they only ever run out of
        // input at its very end.
        Stop::Truncated => return TraceError::Truncated { offset: end },
        Stop::VarintOverflow { at } => {
            return TraceError::BadEvent {
                index,
                offset: at,
                reason: "varint overflows u64".to_string(),
            }
        }
        Stop::UnknownOpcode(opcode) => format!("unknown opcode {opcode}"),
        Stop::OutOfRange { what, value } => format!("{what} value {value} out of range"),
    };
    TraceError::BadEvent {
        index,
        offset,
        reason,
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// An event operand. Most are one byte (context 0, small slots, short
    /// writes), which is the path inlined into the event loop.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, Stop> {
        match self.bytes.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte as u64)
            }
            _ => self.long_varint(),
        }
    }

    /// A multi-byte (or missing) operand.
    fn long_varint(&mut self) -> Result<u64, Stop> {
        let at = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(Stop::Truncated);
            };
            self.pos += 1;
            // The tenth byte holds bit 63 alone: anything above 1 there
            // (a continuation bit included) is past the top of a `u64`.
            if shift == 63 && byte > 1 {
                return Err(Stop::VarintOverflow { at });
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// An operand destined for a field narrower than `u64`.
    #[inline(always)]
    fn narrow<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, Stop> {
        let value = self.varint()?;
        T::try_from(value).map_err(|_| Stop::OutOfRange { what, value })
    }

    /// Decodes the event at `self.pos`, which must be inside the input, onto
    /// the end of `events`. Every arm pushes its own event, so each packs
    /// with its opcode's constant shifts (see the module docs).
    #[inline(always)]
    fn event(&mut self, events: &mut TraceEvents) -> Result<(), Stop> {
        let opcode = self.bytes[self.pos];
        self.pos += 1;
        // Operands are read in file order: each event below lists its
        // fields in that order, and a struct expression evaluates them so.
        match opcode {
            op::SPAWN => events.push(TraceEvent::Spawn {
                ctx: self.narrow("ctx")?,
                config: MutatorConfig {
                    tlab_bytes: self.narrow("tlab_bytes")?,
                    ssb_capacity: self.narrow("ssb_capacity")?,
                },
            }),
            op::RETIRE => events.push(TraceEvent::Retire {
                ctx: self.narrow("ctx")?,
            }),
            op::ALLOC | op::ALLOC_LARGE => events.push(TraceEvent::Alloc {
                ctx: self.narrow("ctx")?,
                ref_slots: self.narrow("ref_slots")?,
                payload_bytes: self.narrow("payload_bytes")?,
                type_id: self.narrow("type_id")?,
                site: match self.varint()? {
                    site if site < u64::from(SiteId::LIMIT) => site as u32,
                    value => return Err(Stop::OutOfRange { what: "site", value }),
                },
                large: opcode == op::ALLOC_LARGE,
            }),
            op::WRITE_REF => events.push(TraceEvent::WriteRef {
                ctx: self.narrow("ctx")?,
                src: self.varint()?,
                slot: self.narrow("slot")?,
                // Stored plus one: 0 is a null store.
                target: self.varint()?.checked_sub(1),
            }),
            op::WRITE_PRIM => events.push(TraceEvent::WritePrim {
                ctx: self.narrow("ctx")?,
                src: self.varint()?,
                offset: self.varint()?,
                len: self.varint()?,
            }),
            op::READ_REF => events.push(TraceEvent::ReadRef {
                ctx: self.narrow("ctx")?,
                src: self.varint()?,
                slot: self.narrow("slot")?,
            }),
            op::READ_PRIM => events.push(TraceEvent::ReadPrim {
                ctx: self.narrow("ctx")?,
                src: self.varint()?,
                offset: self.varint()?,
                len: self.varint()?,
            }),
            op::RELEASE => events.push(TraceEvent::Release { obj: self.varint()? }),
            op::SAFEPOINT => events.push(TraceEvent::Safepoint),
            op::COLLECT_YOUNG => events.push(TraceEvent::Collect {
                kind: CollectKind::Young,
            }),
            op::COLLECT_NURSERY => events.push(TraceEvent::Collect {
                kind: CollectKind::Nursery,
            }),
            op::COLLECT_OBSERVER => events.push(TraceEvent::Collect {
                kind: CollectKind::Observer,
            }),
            op::COLLECT_FULL => events.push(TraceEvent::Collect {
                kind: CollectKind::Full,
            }),
            op::HOOK => events.push(TraceEvent::Hook {
                allocated_bytes: self.varint()?,
                total_bytes: self.varint()?,
                elapsed_ms: self.varint()?,
            }),
            other => return Err(Stop::UnknownOpcode(other)),
        }
        Ok(())
    }
}

/// Decodes everything between the magic and the trailing checksum, folding
/// each decoded stretch of `content` into `checksum` as it goes. On an
/// error the fold simply stops where decoding did.
fn decode_content(content: &[u8], checksum: &mut Checksum) -> Result<Trace, TraceError> {
    let mut reader = Reader {
        bytes: content,
        pos: FORMAT_MAGIC.len(),
    };
    let version = reader.u32()?;
    if !(FORMAT_MIN_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let name_len = reader.u32()? as usize;
    if name_len > 4096 {
        return Err(TraceError::BadHeader(format!(
            "workload name length {name_len} is implausible"
        )));
    }
    let workload = std::str::from_utf8(reader.take(name_len)?)
        .map_err(|_| TraceError::BadHeader("workload name is not UTF-8".to_string()))?
        .to_string();
    let header = TraceHeader {
        workload,
        seed: reader.u64()?,
        scale: reader.u64()?,
        nursery_bytes: reader.u64()?,
        observer_bytes: reader.u64()?,
        site_map_hash: reader.u64()?,
        // Version 1 predates fault injection: those traces are fault-free.
        fault_seed: if version >= 2 { reader.u64()? } else { 0 },
    };
    let declared = reader.u64()?;
    // `declared` is not yet vouched for by the checksum: reserve no more
    // slots than the input can hold (an event is at least its opcode byte).
    let remaining = content.len() - reader.pos;
    let mut events = TraceEvents::with_capacity(declared.min(remaining as u64) as usize);
    while reader.pos < content.len() {
        let offset = reader.pos;
        if let Err(stop) = reader.event(&mut events) {
            return Err(event_error(stop, events.len() as u64, offset, content.len()));
        }
        // One event behind the decoder, the fold's serial multiply chain
        // overlaps the next event's decoding (see the module docs).
        checksum.fold_to(content, reader.pos);
    }
    if events.len() as u64 != declared {
        return Err(TraceError::CountMismatch {
            declared,
            found: events.len() as u64,
        });
    }
    Ok(Trace { header, events })
}

/// Parses a trace from its binary representation.
///
/// The verdict order is fixed: a file whose checksum does not match is
/// reported as [`TraceError::ChecksumMismatch`] whatever else is wrong with
/// it, and no trace is returned before its whole checksum has matched.
pub fn parse_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    if bytes.len() < FORMAT_MAGIC.len() {
        return Err(TraceError::Truncated { offset: bytes.len() });
    }
    if &bytes[..FORMAT_MAGIC.len()] != FORMAT_MAGIC {
        return Err(TraceError::BadMagic);
    }
    // The checksum covers everything before its own 8 bytes.
    if bytes.len() < FORMAT_MAGIC.len() + 4 + 8 {
        return Err(TraceError::Truncated { offset: bytes.len() });
    }
    let content = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let mut checksum = Checksum::new();
    let decoded = decode_content(content, &mut checksum);
    // Whatever the decoder made of the content, the checksum speaks first.
    checksum.fold_to(content, content.len());
    if stored != checksum.hash {
        return Err(TraceError::ChecksumMismatch {
            stored,
            computed: checksum.hash,
        });
    }
    decoded
}

/// Writes a trace to `path`, creating parent directories as needed, and
/// returns the number of bytes written. The write goes through a uniquely
/// named sibling temporary file followed by a rename, so concurrent
/// recorders of the same deterministic trace (e.g. two collector runs under
/// `--jobs`, which share a process id but not the per-write counter) never
/// expose a half-written file.
///
/// # Panics
///
/// Panics, before anything is written, on a trace [`trace_to_bytes`] cannot
/// encode.
pub fn save_trace(trace: &Trace, path: &Path) -> Result<u64, TraceError> {
    static WRITE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let serial = WRITE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("{FILE_EXTENSION}.tmp-{}-{serial}", std::process::id()));
    let bytes = trace_to_bytes(trace);
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Reads a trace back from `path`.
pub fn load_trace(path: &Path) -> Result<Trace, TraceError> {
    let bytes = fs::read(path)?;
    parse_trace(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use kingsguard::{CollectKind, MutatorConfig};
    use kingsguard_heap::ObjectShape;

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                workload: "lusearch".to_string(),
                seed: 0xC0FFEE,
                scale: 256,
                nursery_bytes: 256 * 1024,
                observer_bytes: 512 * 1024,
                site_map_hash: 0x00c3_e1f2_9b04_d877,
                fault_seed: 0xDEAD_BEEF,
            },
            events: vec![
                TraceEvent::Spawn {
                    ctx: 1,
                    config: MutatorConfig::default(),
                },
                TraceEvent::Alloc {
                    ctx: 1,
                    ref_slots: 2,
                    payload_bytes: 48,
                    type_id: 7,
                    site: 29,
                    large: false,
                },
                TraceEvent::Alloc {
                    ctx: 0,
                    ref_slots: 0,
                    payload_bytes: 16 * 1024,
                    type_id: 200,
                    site: 35,
                    large: true,
                },
                TraceEvent::WriteRef {
                    ctx: 1,
                    src: 0,
                    slot: 1,
                    target: Some(1),
                },
                TraceEvent::WriteRef {
                    ctx: 1,
                    src: 0,
                    slot: 1,
                    target: None,
                },
                TraceEvent::WritePrim {
                    ctx: 0,
                    src: 1,
                    offset: 128,
                    len: 8,
                },
                TraceEvent::ReadRef {
                    ctx: 0,
                    src: 0,
                    slot: 0,
                },
                TraceEvent::ReadPrim {
                    ctx: 1,
                    src: 1,
                    offset: 0,
                    len: 64,
                },
                TraceEvent::Hook {
                    allocated_bytes: 1 << 20,
                    total_bytes: 4 << 20,
                    elapsed_ms: 64,
                },
                TraceEvent::Collect {
                    kind: CollectKind::Young,
                },
                TraceEvent::Collect {
                    kind: CollectKind::Full,
                },
                TraceEvent::Release { obj: 1 },
                TraceEvent::Safepoint,
                TraceEvent::Retire { ctx: 1 },
            ]
            .into(),
        }
    }

    #[test]
    fn round_trip_preserves_every_event() {
        let trace = sample_trace();
        let bytes = trace_to_bytes(&trace);
        let parsed = parse_trace(&bytes).unwrap();
        assert_eq!(parsed, trace);
        // A second round trip is byte-identical.
        assert_eq!(trace_to_bytes(&parsed), bytes);
    }

    #[test]
    fn round_trip_through_disk() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("kgtrace-test-{}", std::process::id()));
        let path = dir.join("sample.kgtrace");
        let written = save_trace(&trace, &path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(written, trace_to_bytes(&trace).len() as u64);
        assert_eq!(load_trace(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace {
            header: TraceHeader {
                workload: "empty".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: 0,
                observer_bytes: 0,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: TraceEvents::default(),
        };
        assert_eq!(parse_trace(&trace_to_bytes(&trace)).unwrap(), trace);
    }

    #[test]
    #[should_panic(expected = "cannot be encoded")]
    fn a_reference_store_of_the_last_u64_index_is_refused_not_encoded_as_null() {
        // `u64::MAX + 1` wraps to 0, which encodes a null store.
        let mut trace = sample_trace();
        trace.events.push(TraceEvent::WriteRef {
            ctx: 0,
            src: 0,
            slot: 0,
            target: Some(u64::MAX),
        });
        trace_to_bytes(&trace);
    }

    #[test]
    fn version1_traces_without_a_fault_seed_still_parse() {
        // Reconstruct the v1 layout by hand: splice the fault-seed field
        // out of a v2 file, stamp version 1 and re-checksum.
        let mut trace = sample_trace();
        trace.header.fault_seed = 0;
        let v2 = trace_to_bytes(&trace);
        let seed_at = 8 + 4 + 4 + trace.header.workload.len() + 40;
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(&v2[..seed_at]);
        v1.extend_from_slice(&v2[seed_at + 8..v2.len() - 8]);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let checksum = fnv1a(&v1);
        v1.extend_from_slice(&checksum.to_le_bytes());
        let parsed = parse_trace(&v1).unwrap();
        assert_eq!(parsed, trace, "v1 parse must default the fault seed to 0");
    }

    #[test]
    fn truncated_files_are_rejected() {
        let bytes = trace_to_bytes(&sample_trace());
        for cut in [0, 4, FORMAT_MAGIC.len() + 2, bytes.len() / 2, bytes.len() - 1] {
            let err = parse_trace(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        // Exhaustive hostile-input property: no prefix of a valid trace and
        // no single-bit corruption of one may parse, and none may panic.
        // Truncation trips the length/checksum checks; an in-place flip is
        // always caught because it lands in either the content (checksum
        // mismatch) or the checksum itself.
        let bytes = trace_to_bytes(&sample_trace());
        for cut in 0..bytes.len() {
            let err = parse_trace(&bytes[..cut]).unwrap_err();
            assert!(!err.to_string().is_empty(), "cut {cut}: empty error message");
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert!(
                    parse_trace(&flipped).is_err(),
                    "flip {pos}/{bit}: corrupt trace accepted"
                );
            }
        }
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let mut bytes = trace_to_bytes(&sample_trace());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            parse_trace(&bytes),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = trace_to_bytes(&sample_trace());
        bytes[0] = b'X';
        assert!(matches!(parse_trace(&bytes), Err(TraceError::BadMagic)));
        assert!(matches!(
            parse_trace(b"kingsguard-site-profile 2\n"),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = trace_to_bytes(&sample_trace());
        // Patch the version field, then re-stamp the checksum so only the
        // version is wrong.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        match parse_trace(&bytes) {
            Err(TraceError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let trace = sample_trace();
        let mut bytes = trace_to_bytes(&trace);
        // Declare one event more than the stream holds. The count field sits
        // after magic(8) + version(4) + name-len(4) + name + 6×u64.
        let count_at = 8 + 4 + 4 + trace.header.workload.len() + 48;
        let declared = trace.events.len() as u64 + 1;
        bytes[count_at..count_at + 8].copy_from_slice(&declared.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            parse_trace(&bytes),
            Err(TraceError::CountMismatch { declared: d, found: f }) if d == f + 1
        ));
    }

    #[test]
    fn varint_overflow_is_reported_as_a_bad_event() {
        // A trace declaring one Release event whose operand is an 11-byte
        // varint (overflowing u64), with the checksum patched so only the
        // operand is wrong.
        let empty = Trace {
            header: TraceHeader {
                workload: "x".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: 0,
                observer_bytes: 0,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: TraceEvents::default(),
        };
        let mut bytes = trace_to_bytes(&empty);
        bytes.truncate(bytes.len() - 8); // drop checksum
        let count_at = 8 + 4 + 4 + 1 + 48;
        bytes[count_at..count_at + 8].copy_from_slice(&1u64.to_le_bytes());
        bytes.push(op::RELEASE);
        bytes.extend_from_slice(&[0xFF; 10]);
        bytes.push(0x01);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        match parse_trace(&bytes) {
            Err(TraceError::BadEvent { index: 0, reason, .. }) => {
                assert!(reason.contains("varint"), "unexpected reason {reason:?}");
            }
            other => panic!("expected BadEvent, got {other:?}"),
        }
    }

    #[test]
    fn a_site_id_at_the_limit_is_a_bad_event() {
        let with_site = |site: u32| {
            let mut trace = sample_trace();
            trace.events = vec![TraceEvent::alloc(0, ObjectShape::new(0, 8), 1, SiteId(site))].into();
            trace_to_bytes(&trace)
        };
        let last = parse_trace(&with_site(SiteId::LIMIT - 1)).unwrap();
        assert_eq!(trace_to_bytes(&last), with_site(SiteId::LIMIT - 1));
        match parse_trace(&with_site(SiteId::LIMIT)) {
            Err(TraceError::BadEvent { index: 0, reason, .. }) => {
                assert_eq!(reason, "site value 16384 out of range")
            }
            other => panic!("expected BadEvent, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_saves_of_the_same_trace_never_corrupt_the_file() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("kgtrace-race-{}", std::process::id()));
        let path = dir.join("shared.kgtrace");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| save_trace(&trace, &path).unwrap());
            }
        });
        assert_eq!(load_trace(&path).unwrap(), trace);
        // No stray tmp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover tmp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = parse_trace(b"BOGUS***rest").unwrap_err();
        assert!(err.to_string().contains("magic"));
        let trace = sample_trace();
        let mut bytes = trace_to_bytes(&trace);
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(parse_trace(&bytes).unwrap_err().to_string().contains("version 7"));
    }
}
