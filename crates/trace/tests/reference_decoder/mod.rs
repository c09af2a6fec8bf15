//! The `.kgtrace` decoder as it stood before the one-byte-varint rewrite of
//! `trace::format`: the whole-file checksum pass first, then a `Reader`
//! whose every step returns a full `TraceError`. Kept verbatim (only the
//! `use` lines differ) as the oracle `tests/differential.rs` compares
//! `trace::parse_trace` against: same `Ok(Trace)`, or the same error
//! variant, fields and `Display` text, on every input. Its `Trace` is the
//! test's `ReferenceTrace` — the events in a plain `Vec<TraceEvent>`, as
//! `trace::Trace` held them when this code was current — so nothing here
//! goes through the packed `trace::TraceEvents` it is the oracle for.

use super::ReferenceTrace as Trace;
use kingsguard::MutatorConfig;
use trace::{
    CollectKind, TraceError, TraceEvent, TraceHeader, FORMAT_MAGIC, FORMAT_MIN_VERSION, FORMAT_VERSION,
};

const OP_SPAWN: u8 = 0;
const OP_RETIRE: u8 = 1;
const OP_ALLOC: u8 = 2;
const OP_ALLOC_LARGE: u8 = 3;
const OP_WRITE_REF: u8 = 4;
const OP_WRITE_PRIM: u8 = 5;
const OP_READ_REF: u8 = 6;
const OP_READ_PRIM: u8 = 7;
const OP_RELEASE: u8 = 8;
const OP_SAFEPOINT: u8 = 9;
const OP_COLLECT_YOUNG: u8 = 10;
const OP_COLLECT_NURSERY: u8 = 11;
const OP_COLLECT_OBSERVER: u8 = 12;
const OP_COLLECT_FULL: u8 = 13;
const OP_HOOK: u8 = 14;

/// FNV-1a over `bytes` (the same fold `workloads::site_map_hash` uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
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

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                // Varints only occur in event operands; the caller rewrites
                // this into a BadEvent carrying the event index.
                return Err(TraceError::BadEvent {
                    index: 0,
                    offset: start,
                    reason: "varint overflows u64".to_string(),
                });
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

fn narrow<T: TryFrom<u64>>(value: u64, what: &str, index: u64, offset: usize) -> Result<T, TraceError> {
    T::try_from(value).map_err(|_| TraceError::BadEvent {
        index,
        offset,
        reason: format!("{what} value {value} out of range"),
    })
}

fn decode_event(reader: &mut Reader<'_>, index: u64) -> Result<TraceEvent, TraceError> {
    decode_event_inner(reader, index).map_err(|err| match err {
        // Stamp operand-level varint failures with the event they occurred
        // in (the Reader cannot know the index).
        TraceError::BadEvent {
            index: 0,
            offset,
            reason,
        } => TraceError::BadEvent {
            index,
            offset,
            reason,
        },
        other => other,
    })
}

fn decode_event_inner(reader: &mut Reader<'_>, index: u64) -> Result<TraceEvent, TraceError> {
    let offset = reader.pos;
    let opcode = reader.u8()?;
    let event = match opcode {
        OP_SPAWN => TraceEvent::Spawn {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            config: MutatorConfig {
                tlab_bytes: narrow(reader.varint()?, "tlab_bytes", index, offset)?,
                ssb_capacity: narrow(reader.varint()?, "ssb_capacity", index, offset)?,
            },
        },
        OP_RETIRE => TraceEvent::Retire {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
        },
        OP_ALLOC | OP_ALLOC_LARGE => TraceEvent::Alloc {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            ref_slots: narrow(reader.varint()?, "ref_slots", index, offset)?,
            payload_bytes: narrow(reader.varint()?, "payload_bytes", index, offset)?,
            type_id: narrow(reader.varint()?, "type_id", index, offset)?,
            site: narrow(reader.varint()?, "site", index, offset)?,
            large: opcode == OP_ALLOC_LARGE,
        },
        OP_WRITE_REF => TraceEvent::WriteRef {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            slot: narrow(reader.varint()?, "slot", index, offset)?,
            target: match reader.varint()? {
                0 => None,
                shifted => Some(shifted - 1),
            },
        },
        OP_WRITE_PRIM => TraceEvent::WritePrim {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            offset: reader.varint()?,
            len: reader.varint()?,
        },
        OP_READ_REF => TraceEvent::ReadRef {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            slot: narrow(reader.varint()?, "slot", index, offset)?,
        },
        OP_READ_PRIM => TraceEvent::ReadPrim {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            offset: reader.varint()?,
            len: reader.varint()?,
        },
        OP_RELEASE => TraceEvent::Release {
            obj: reader.varint()?,
        },
        OP_SAFEPOINT => TraceEvent::Safepoint,
        OP_COLLECT_YOUNG => TraceEvent::Collect {
            kind: CollectKind::Young,
        },
        OP_COLLECT_NURSERY => TraceEvent::Collect {
            kind: CollectKind::Nursery,
        },
        OP_COLLECT_OBSERVER => TraceEvent::Collect {
            kind: CollectKind::Observer,
        },
        OP_COLLECT_FULL => TraceEvent::Collect {
            kind: CollectKind::Full,
        },
        OP_HOOK => TraceEvent::Hook {
            allocated_bytes: reader.varint()?,
            total_bytes: reader.varint()?,
            elapsed_ms: reader.varint()?,
        },
        other => {
            return Err(TraceError::BadEvent {
                index,
                offset,
                reason: format!("unknown opcode {other}"),
            })
        }
    };
    Ok(event)
}

/// Parses a trace from its binary representation (the reference verdict).
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
    let computed = fnv1a(content);
    if stored != computed {
        return Err(TraceError::ChecksumMismatch { stored, computed });
    }

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
    let mut events = Vec::with_capacity(declared.min(1 << 24) as usize);
    let mut index = 0u64;
    while reader.pos < content.len() {
        events.push(decode_event(&mut reader, index)?);
        index += 1;
    }
    if index != declared {
        return Err(TraceError::CountMismatch {
            declared,
            found: index,
        });
    }
    Ok(Trace { header, events })
}
