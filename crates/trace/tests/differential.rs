//! Differential test of the `.kgtrace` decoder against the decoder it
//! replaced (`reference_decoder/`, the pre-rewrite code kept verbatim).
//!
//! `trace::parse_trace` decodes first and finishes the checksum afterwards;
//! the reference checks the whole checksum before it decodes a byte. The two
//! must still be indistinguishable from outside: on a K=1 and a K=4 sample
//! trace, every truncation, every single-bit flip, and every truncation and
//! single-bit flip *with the checksum re-stamped* (so the damage reaches the
//! decoder proper: varint overflow, out-of-range operands, unknown opcodes,
//! count mismatches, header damage) must yield the same `Ok(Trace)` or the
//! same error — variant, fields and `Display` text.

mod reference_decoder;

use std::collections::BTreeSet;

use advice::SiteId;
use kingsguard::MutatorConfig;
use sim_rng::{Rng, SeedableRng, SmallRng};
use trace::{
    parse_trace, trace_to_bytes, CollectKind, Trace, TraceError, TraceEvent, TraceEvents, TraceHeader,
};

/// A trace as the reference decoder returns it: the events in the plain
/// vector `trace::Trace` held before the packed `trace::TraceEvents`.
#[derive(Debug, PartialEq)]
pub struct ReferenceTrace {
    pub header: TraceHeader,
    pub events: Vec<TraceEvent>,
}

impl From<Trace> for ReferenceTrace {
    fn from(trace: Trace) -> Self {
        ReferenceTrace {
            events: trace.events.iter().collect(),
            header: trace.header,
        }
    }
}

/// What a caller can observe of a parse: the trace (its events one by one,
/// as `iter()` yields them), or the error's variant-and-fields (`Debug`) and
/// message (`Display`).
fn verdict<T: Into<ReferenceTrace>>(
    result: Result<T, TraceError>,
) -> Result<ReferenceTrace, (String, String)> {
    result
        .map(Into::into)
        .map_err(|err| (format!("{err:?}"), err.to_string()))
}

/// Parses `bytes` with both decoders, asserts they agree and returns the
/// error's variant name (`"Ok"` for a trace).
fn agree(bytes: &[u8], what: &str) -> String {
    let new = verdict(parse_trace(bytes));
    let old = verdict(reference_decoder::parse_trace(bytes));
    assert_eq!(new, old, "{what}: decoders disagree");
    match new {
        Ok(_) => "Ok".to_string(),
        Err((debug, display)) => {
            let variant: String = debug.chars().take_while(|c| c.is_alphanumeric()).collect();
            // BadEvent covers three causes; tell them apart for the
            // coverage check below.
            match ["varint overflows", "out of range", "unknown opcode"]
                .iter()
                .find(|cause| display.contains(**cause))
            {
                Some(cause) => format!("{variant}: {cause}"),
                None => variant,
            }
        }
    }
}

/// Overwrites the trailing checksum with the right one for the content.
fn restamp(bytes: &mut [u8]) {
    let content = bytes.len() - 8;
    let checksum = reference_decoder::fnv1a(&bytes[..content]);
    bytes[content..].copy_from_slice(&checksum.to_le_bytes());
}

/// An operand of one byte (mostly), a few bytes, or the full width of
/// `max`'s field — the three encodings the decoder has paths for.
fn operand(rng: &mut SmallRng, max: u64) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => max,
        1 | 2 => rng.gen_range(0..max.clamp(1, 1 << 40)),
        _ => rng.gen_range(0..max.min(128)),
    }
}

/// A trace of every event kind under `contexts` spawned mutators (0: the
/// built-in context alone, as K=1 runs record).
fn sample(contexts: u32, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut events = Vec::new();
    for ctx in 1..=contexts {
        events.push(TraceEvent::Spawn {
            ctx,
            config: MutatorConfig {
                tlab_bytes: operand(&mut rng, usize::MAX as u64) as usize,
                ssb_capacity: operand(&mut rng, usize::MAX as u64) as usize,
            },
        });
    }
    for _ in 0..160 {
        let ctx = if contexts == 0 {
            0
        } else {
            rng.gen_range(1..contexts + 1)
        };
        events.push(match rng.gen_range(0..12u32) {
            0 | 1 => {
                let large = rng.gen_bool(0.25);
                TraceEvent::Alloc {
                    ctx,
                    ref_slots: operand(&mut rng, u16::MAX as u64) as u16,
                    payload_bytes: operand(&mut rng, u32::MAX as u64) as u32,
                    type_id: operand(&mut rng, u16::MAX as u64) as u16,
                    site: operand(&mut rng, u64::from(SiteId::LIMIT) - 1) as u32,
                    large,
                }
            }
            2 | 3 => TraceEvent::WriteRef {
                ctx,
                src: operand(&mut rng, u64::MAX),
                slot: operand(&mut rng, u32::MAX as u64) as u32,
                // `Some(u64::MAX)` has no encoding (targets are stored + 1).
                target: rng.gen_bool(0.67).then(|| operand(&mut rng, u64::MAX - 1)),
            },
            4 | 5 => TraceEvent::WritePrim {
                ctx,
                src: operand(&mut rng, u64::MAX),
                offset: operand(&mut rng, u64::MAX),
                len: operand(&mut rng, 64),
            },
            6 => TraceEvent::ReadRef {
                ctx,
                src: operand(&mut rng, u64::MAX),
                slot: operand(&mut rng, u32::MAX as u64) as u32,
            },
            7 => TraceEvent::ReadPrim {
                ctx,
                src: operand(&mut rng, u64::MAX),
                offset: operand(&mut rng, u64::MAX),
                len: operand(&mut rng, 64),
            },
            8 => TraceEvent::Release {
                obj: operand(&mut rng, u64::MAX),
            },
            9 => TraceEvent::Safepoint,
            10 => TraceEvent::Collect {
                kind: [
                    CollectKind::Young,
                    CollectKind::Nursery,
                    CollectKind::Observer,
                    CollectKind::Full,
                ][rng.gen_range(0..4usize)],
            },
            _ => TraceEvent::Hook {
                allocated_bytes: operand(&mut rng, u64::MAX),
                total_bytes: operand(&mut rng, u64::MAX),
                elapsed_ms: operand(&mut rng, u64::MAX),
            },
        });
    }
    for ctx in 1..=contexts {
        events.push(TraceEvent::Retire { ctx });
    }
    Trace {
        header: TraceHeader {
            workload: format!("sample-k{}", contexts.max(1)),
            seed,
            scale: 256,
            nursery_bytes: 256 << 10,
            observer_bytes: 512 << 10,
            site_map_hash: rng.gen(),
            fault_seed: rng.gen(),
        },
        events: events.into(),
    }
}

#[test]
fn new_and_reference_decoders_agree_on_every_truncation_and_bit_flip() {
    let mut seen = BTreeSet::new();
    for (contexts, seed) in [(0, 7), (4, 11)] {
        let trace = sample(contexts, seed);
        let bytes = trace_to_bytes(&trace);
        assert_eq!(parse_trace(&bytes).unwrap(), trace);
        assert_eq!(agree(&bytes, "intact"), "Ok");

        for cut in 0..bytes.len() {
            seen.insert(agree(&bytes[..cut], &format!("K={contexts} cut at {cut}")));
            // The same prefix as a well-formed file: content cut short,
            // checksum intact.
            if cut >= 8 {
                let mut damaged = bytes[..cut].to_vec();
                damaged.extend_from_slice(&[0; 8]);
                restamp(&mut damaged);
                seen.insert(agree(
                    &damaged,
                    &format!("K={contexts} content cut at {cut}, re-stamped"),
                ));
            }
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[pos] ^= 1 << bit;
                let verdict = agree(&damaged, &format!("K={contexts} flip {pos}/{bit}"));
                assert_ne!(
                    verdict, "Ok",
                    "K={contexts} flip {pos}/{bit}: corrupt trace accepted"
                );
                seen.insert(verdict);
                if pos < bytes.len() - 8 {
                    restamp(&mut damaged);
                    seen.insert(agree(
                        &damaged,
                        &format!("K={contexts} flip {pos}/{bit}, re-stamped"),
                    ));
                }
            }
        }
    }
    // The sweep is only worth its name if it drove both decoders down every
    // error path (a re-stamped flip inside an operand still parses: "Ok").
    let expected = [
        "BadEvent: out of range",
        "BadEvent: unknown opcode",
        "BadEvent: varint overflows",
        "BadHeader",
        "BadMagic",
        "ChecksumMismatch",
        "CountMismatch",
        "Ok",
        "Truncated",
        "UnsupportedVersion",
    ];
    assert_eq!(seen.iter().map(String::as_str).collect::<Vec<_>>(), expected);
}

/// Every opcode's events with one operand at `value` (where the operand's
/// type holds it and the file format accepts it: a site is below
/// `SiteId::LIMIT`) and the others 0, in context `ctx`.
fn one_operand_events(ctx: u32, value: u64) -> Vec<TraceEvent> {
    let prim = |src, offset, len| {
        [
            TraceEvent::WritePrim {
                ctx,
                src,
                offset,
                len,
            },
            TraceEvent::ReadPrim {
                ctx,
                src,
                offset,
                len,
            },
        ]
    };
    let spawn = |tlab_bytes: u64, ssb_capacity: u64| TraceEvent::Spawn {
        ctx,
        config: MutatorConfig {
            tlab_bytes: tlab_bytes as usize,
            ssb_capacity: ssb_capacity as usize,
        },
    };
    let alloc = |ref_slots: u64, payload_bytes: u64, type_id: u64, site: u64| TraceEvent::Alloc {
        ctx,
        ref_slots: ref_slots as u16,
        payload_bytes: payload_bytes as u32,
        type_id: type_id as u16,
        site: site as u32,
        large: false,
    };
    let mut events = vec![
        TraceEvent::WriteRef {
            ctx,
            src: value,
            slot: 0,
            target: None,
        },
        TraceEvent::ReadRef {
            ctx,
            src: value,
            slot: 0,
        },
        TraceEvent::Release { obj: value },
        TraceEvent::Hook {
            allocated_bytes: value,
            total_bytes: 0,
            elapsed_ms: 0,
        },
        spawn(value, 0),
        spawn(0, value),
    ];
    events.extend(prim(value, 0, 0));
    events.extend(prim(0, value, 0));
    events.extend(prim(0, 0, value));
    // `Some(u64::MAX)` has no encoding (targets are stored + 1).
    if value < u64::MAX {
        events.push(TraceEvent::WriteRef {
            ctx,
            src: 0,
            slot: 0,
            target: Some(value),
        });
    }
    if let Ok(slot) = u32::try_from(value) {
        events.extend([
            TraceEvent::WriteRef {
                ctx,
                src: 0,
                slot,
                target: None,
            },
            TraceEvent::ReadRef { ctx, src: 0, slot },
            alloc(0, value, 0, 0),
        ]);
    }
    if value < u64::from(SiteId::LIMIT) {
        events.push(alloc(0, 0, 0, value));
    }
    if value <= u16::MAX as u64 {
        events.extend([alloc(value, 0, 0, 0), alloc(0, 0, value, 0)]);
    }
    events
}

#[test]
fn events_on_either_side_of_every_power_of_two_decode_as_the_reference_does() {
    // `parse_trace` packs each opcode's operands at widths of its own and
    // keeps an event aside when one does not fit; the reference knows
    // neither. So every operand of every opcode here lies on either side of
    // a power of two (2^k - 1 and 2^k, k in 0..=64, as far as its type
    // reaches), one operand at a time, under contexts on either side of 16,
    // 256 and `u32::MAX`; re-stamped flips in a sample of them push
    // operands across the seams.
    let contexts = [0, 15, 16, 255, 256, u32::MAX];
    let mut edges: Vec<u64> = (0..=64u32)
        .flat_map(|k| [(1u128 << k) - 1, 1u128 << k])
        .filter_map(|value| u64::try_from(value).ok())
        .collect();
    edges.dedup();
    let mut events: Vec<TraceEvent> = contexts
        .iter()
        .flat_map(|&ctx| one_operand_events(ctx, 0))
        .collect();
    for (i, &value) in edges.iter().enumerate() {
        events.extend(one_operand_events(contexts[i % contexts.len()], value));
    }
    let trace = Trace {
        events: events.clone().into(),
        ..sample(0, 13)
    };
    let bytes = trace_to_bytes(&trace);
    assert_eq!(parse_trace(&bytes).unwrap(), trace);
    assert_eq!(agree(&bytes, "intact"), "Ok");

    let sampled = Trace {
        events: events.into_iter().step_by(13).collect(),
        ..sample(0, 13)
    };
    let bytes = trace_to_bytes(&sampled);
    assert_eq!(agree(&bytes, "sample intact"), "Ok");
    for pos in count_at(&sampled) + 8..bytes.len() - 8 {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 1 << bit;
            restamp(&mut damaged);
            agree(&damaged, &format!("flip {pos}/{bit}, re-stamped"));
        }
    }
}

/// Offset of the `count` header field in a v2 file.
fn count_at(trace: &Trace) -> usize {
    8 + 4 + 4 + trace.header.workload.len() + 48
}

/// `trace` with `raw_events` as its event bytes, declaring `declared`
/// events, under a valid checksum.
fn forged(trace: &Trace, declared: u64, raw_events: &[u8]) -> Vec<u8> {
    let empty = Trace {
        header: trace.header.clone(),
        events: TraceEvents::default(),
    };
    let mut bytes = trace_to_bytes(&empty);
    bytes.truncate(bytes.len() - 8);
    let at = count_at(trace);
    bytes[at..at + 8].copy_from_slice(&declared.to_le_bytes());
    bytes.extend_from_slice(raw_events);
    bytes.extend_from_slice(&[0; 8]);
    restamp(&mut bytes);
    bytes
}

#[test]
fn decoder_errors_behind_a_valid_checksum_match_the_reference_field_for_field() {
    const OP_RETIRE: u8 = 1;
    const OP_ALLOC: u8 = 2;
    const OP_RELEASE: u8 = 8;
    const OP_SAFEPOINT: u8 = 9;
    let trace = sample(0, 3);
    let cases: [(&str, u64, Vec<u8>, &str); 7] = [
        (
            "11-byte varint in the second event",
            2,
            [&[OP_SAFEPOINT, OP_RELEASE][..], &[0xFF; 10], &[0x01]].concat(),
            "BadEvent: varint overflows",
        ),
        (
            "tenth varint byte above 1",
            1,
            [&[OP_RELEASE][..], &[0x80; 9], &[0x02]].concat(),
            "BadEvent: varint overflows",
        ),
        (
            "ref_slots beyond u16",
            1,
            vec![OP_ALLOC, 0, 0x80, 0x80, 0x04, 0, 0, 0],
            "BadEvent: out of range",
        ),
        (
            "ctx beyond u32",
            1,
            vec![OP_RETIRE, 0x80, 0x80, 0x80, 0x80, 0x10],
            "BadEvent: out of range",
        ),
        ("opcode 15", 2, vec![OP_SAFEPOINT, 15], "BadEvent: unknown opcode"),
        (
            "one event short of the count",
            3,
            vec![OP_SAFEPOINT, OP_SAFEPOINT],
            "CountMismatch",
        ),
        (
            "operand cut off by the end of the content",
            1,
            vec![OP_RELEASE, 0x80],
            "Truncated",
        ),
    ];
    for (what, declared, raw_events, expected) in cases {
        assert_eq!(
            agree(&forged(&trace, declared, &raw_events), what),
            expected,
            "{what}"
        );
    }
    // The widest operands there are still parse.
    let widest = [&[OP_RELEASE][..], &[0xFF; 9], &[0x01]].concat();
    let parsed = parse_trace(&forged(&trace, 1, &widest)).unwrap();
    assert_eq!(
        parsed.events.iter().collect::<Vec<_>>(),
        [TraceEvent::Release { obj: u64::MAX }]
    );
    assert_eq!(agree(&forged(&trace, 1, &widest), "u64::MAX operand"), "Ok");
}

#[test]
fn a_corrupt_file_reports_the_checksum_whatever_else_is_wrong_with_it() {
    // Damage the decoder would reject on its own (an unknown opcode early
    // in the stream, a wrong count, a bad version) under a checksum that
    // does not match: the verdict is the checksum's, computed over the
    // whole content although decoding stopped at the damage.
    let trace = sample(4, 5);
    let bytes = trace_to_bytes(&trace);
    let first_event = count_at(&trace) + 8;
    for (what, pos, value) in [
        ("unknown opcode", first_event, 0xEE),
        ("count", count_at(&trace), 0xEE),
        ("version", 8, 0xEE),
    ] {
        let mut damaged = bytes.clone();
        damaged[pos] = value;
        match parse_trace(&damaged) {
            Err(TraceError::ChecksumMismatch { stored, computed }) => {
                assert_eq!(
                    stored,
                    reference_decoder::fnv1a(&bytes[..bytes.len() - 8]),
                    "{what}"
                );
                assert_eq!(
                    computed,
                    reference_decoder::fnv1a(&damaged[..damaged.len() - 8]),
                    "{what}"
                );
            }
            other => panic!("{what}: expected ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(agree(&damaged, what), "ChecksumMismatch");
    }
}
