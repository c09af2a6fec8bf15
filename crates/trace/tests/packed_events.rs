//! Model test of the packed in-memory event stream: `trace::TraceEvents`
//! against a plain `Vec<TraceEvent>`.
//!
//! A slot holds a context in 8 bits and three operands in 32, and an event
//! that does not fit goes to a side list the slot indexes. Every operand
//! here is therefore drawn from the values on either side of those field
//! widths, so packed and wide events interleave and every seam of the
//! pack/unpack arithmetic is crossed: whatever goes in must come out,
//! through every accessor, and through the file format.

use kingsguard::MutatorConfig;
use sim_rng::{Rng, SeedableRng, SmallRng};
use trace::{parse_trace, trace_to_bytes, CollectKind, Trace, TraceEvent, TraceEvents, TraceHeader};

const _: () = assert!(TraceEvents::SLOT_BYTES == 16);

const U32_MAX: u64 = u32::MAX as u64;

/// An operand of a 64-bit field: the edges of the packed field, the edges
/// of `u64`, or anything.
fn wide_operand(rng: &mut SmallRng) -> u64 {
    const EDGES: [u64; 8] = [
        0,
        1,
        U32_MAX - 1,
        U32_MAX,
        U32_MAX + 1,
        5 << 32, // a hook marker past 4 GB
        u64::MAX - 1,
        u64::MAX,
    ];
    match rng.gen_range(0..10u32) {
        0 => rng.gen(),
        1 => rng.gen_range(0..1u64 << 20),
        _ => EDGES[rng.gen_range(0..EDGES.len())],
    }
}

/// An operand of a 32-bit field (always fits its packed field).
fn narrow_operand(rng: &mut SmallRng) -> u32 {
    [0, 1, u32::MAX - 1, u32::MAX, rng.gen::<u64>() as u32][rng.gen_range(0..5usize)]
}

/// A context: 255 is the last that packs.
fn context(rng: &mut SmallRng) -> u32 {
    [0, 1, 255, 256, u32::MAX][rng.gen_range(0..5usize)]
}

/// Any event of the vocabulary. With `encodable`, one the file format has
/// bytes for: `Some(u64::MAX)` as a store's target is a value the type
/// allows and the stream must hold, but that `trace_to_bytes` refuses.
fn event(rng: &mut SmallRng, encodable: bool) -> TraceEvent {
    let ctx = context(rng);
    match rng.gen_range(0..11u32) {
        0 => TraceEvent::Spawn {
            ctx,
            config: MutatorConfig {
                tlab_bytes: wide_operand(rng) as usize,
                ssb_capacity: wide_operand(rng) as usize,
            },
        },
        1 => TraceEvent::Retire { ctx },
        2 | 3 => TraceEvent::Alloc {
            ctx,
            ref_slots: [0, 1, u16::MAX][rng.gen_range(0..3usize)],
            payload_bytes: narrow_operand(rng),
            type_id: [0, 7, u16::MAX][rng.gen_range(0..3usize)],
            site: narrow_operand(rng),
            large: rng.gen_bool(0.3),
        },
        4 => TraceEvent::WriteRef {
            ctx,
            src: wide_operand(rng),
            slot: narrow_operand(rng),
            // Stored plus one: `u32::MAX - 1` is the last target that packs.
            target: match wide_operand(rng) {
                0 => None,
                u64::MAX if encodable => Some(U32_MAX - 1),
                target => Some(target),
            },
        },
        5 => TraceEvent::WritePrim {
            ctx,
            src: wide_operand(rng),
            offset: wide_operand(rng),
            len: wide_operand(rng),
        },
        6 => TraceEvent::ReadRef {
            ctx,
            src: wide_operand(rng),
            slot: narrow_operand(rng),
        },
        7 => TraceEvent::ReadPrim {
            ctx,
            src: wide_operand(rng),
            offset: wide_operand(rng),
            len: wide_operand(rng),
        },
        8 => TraceEvent::Release {
            obj: wide_operand(rng),
        },
        9 => [
            TraceEvent::Safepoint,
            TraceEvent::Collect {
                kind: CollectKind::Young,
            },
            TraceEvent::Collect {
                kind: CollectKind::Nursery,
            },
            TraceEvent::Collect {
                kind: CollectKind::Observer,
            },
            TraceEvent::Collect {
                kind: CollectKind::Full,
            },
        ][rng.gen_range(0..5usize)],
        _ => TraceEvent::Hook {
            allocated_bytes: wide_operand(rng),
            total_bytes: wide_operand(rng),
            elapsed_ms: wide_operand(rng),
        },
    }
}

fn trace_of(events: TraceEvents) -> Trace {
    Trace {
        header: TraceHeader {
            workload: "packed".to_string(),
            seed: 7,
            scale: 1,
            nursery_bytes: 256 << 10,
            observer_bytes: 512 << 10,
            site_map_hash: 0,
            fault_seed: 0,
        },
        events,
    }
}

#[test]
fn the_packed_stream_behaves_like_a_vector_of_events() {
    for seed in [7, 11, 13] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model: Vec<TraceEvent> = Vec::new();
        let mut packed = TraceEvents::default();
        assert!(packed.is_empty());
        assert_eq!(packed.last(), None);
        assert_eq!(packed.get(0), None);
        for _ in 0..4_000 {
            let event = event(&mut rng, false);
            model.push(event);
            packed.push(event);
            assert_eq!(packed.len(), model.len());
            assert!(!packed.is_empty());
            assert_eq!(packed.last(), Some(event));
            let probe = rng.gen_range(0..model.len());
            assert_eq!(
                packed.get(probe),
                Some(model[probe]),
                "seed {seed}, event {probe}"
            );
            assert_eq!(packed.get(model.len()), None);
        }
        let iter = packed.iter();
        assert_eq!(iter.len(), model.len());
        assert_eq!(iter.collect::<Vec<_>>(), model, "seed {seed}");
        let allocations = model.iter().filter(|event| event.is_alloc()).count() as u64;
        assert!(allocations > 0);
        assert_eq!(packed.allocations(), allocations);
        assert_eq!(trace_of(packed.clone()).allocations(), allocations);

        // Equal sequences are equal however they were built ...
        assert_eq!(TraceEvents::from(model.clone()), packed);
        assert_eq!(model.iter().copied().collect::<TraceEvents>(), packed);
        assert_eq!(packed.iter().collect::<TraceEvents>(), packed);
        // ... and unequal ones are not, whichever kind of event differs.
        for _ in 0..200 {
            let at = rng.gen_range(0..model.len());
            let replacement = event(&mut rng, false);
            let mut other = model.clone();
            other[at] = replacement;
            assert_eq!(
                TraceEvents::from(other) == packed,
                replacement == model[at],
                "seed {seed}: {replacement:?} in place of {:?}",
                model[at]
            );
        }
        assert_ne!(TraceEvents::from(model[1..].to_vec()), packed);
    }
}

#[test]
fn operands_on_either_side_of_a_field_width_come_back_unchanged() {
    let mut events = Vec::new();
    for operand in [0, U32_MAX - 1, U32_MAX, U32_MAX + 1, u64::MAX - 1, u64::MAX] {
        for ctx in [0, 255, 256] {
            events.extend([
                TraceEvent::WriteRef {
                    ctx,
                    src: operand,
                    slot: u32::MAX,
                    target: Some(operand),
                },
                TraceEvent::WriteRef {
                    ctx,
                    src: operand,
                    slot: 0,
                    target: None,
                },
                TraceEvent::WritePrim {
                    ctx,
                    src: 0,
                    offset: operand,
                    len: 8,
                },
                TraceEvent::ReadPrim {
                    ctx,
                    src: 0,
                    offset: 0,
                    len: operand,
                },
                TraceEvent::ReadRef {
                    ctx,
                    src: operand,
                    slot: 3,
                },
                TraceEvent::Spawn {
                    ctx,
                    config: MutatorConfig {
                        tlab_bytes: operand as usize,
                        ssb_capacity: 7,
                    },
                },
                TraceEvent::Spawn {
                    ctx,
                    config: MutatorConfig {
                        tlab_bytes: 4096,
                        ssb_capacity: operand as usize,
                    },
                },
                TraceEvent::Retire { ctx },
            ]);
        }
        events.extend([
            TraceEvent::Release { obj: operand },
            TraceEvent::Hook {
                allocated_bytes: operand,
                total_bytes: 8 << 30,
                elapsed_ms: 1,
            },
            TraceEvent::Hook {
                allocated_bytes: 0,
                total_bytes: 0,
                elapsed_ms: operand,
            },
        ]);
    }
    let packed = TraceEvents::from(events.clone());
    for (index, event) in events.iter().enumerate() {
        assert_eq!(packed.get(index), Some(*event));
        // Alone, too: a wide event's slot indexes the side list from 0.
        assert_eq!(TraceEvents::from(vec![*event]).last(), Some(*event));
    }
    // A store of the last `u64` index is a store of that index, never a null
    // store (its `target + 1` wraps to the null encoding).
    let last_index = TraceEvent::WriteRef {
        ctx: 0,
        src: 0,
        slot: 0,
        target: Some(u64::MAX),
    };
    let null = TraceEvent::WriteRef {
        ctx: 0,
        src: 0,
        slot: 0,
        target: None,
    };
    assert_ne!(TraceEvents::from(vec![last_index]), TraceEvents::from(vec![null]));
}

#[test]
fn a_trace_mixing_packed_and_wide_events_round_trips_byte_for_byte() {
    let mut rng = SmallRng::seed_from_u64(7);
    let model: Vec<TraceEvent> = (0..6_000).map(|_| event(&mut rng, true)).collect();
    let trace = trace_of(model.iter().copied().collect());
    let bytes = trace_to_bytes(&trace);
    let parsed = parse_trace(&bytes).unwrap();
    // Decoded straight into slots, pushed event by event: the same stream.
    assert_eq!(parsed, trace);
    assert_eq!(parsed.events.iter().collect::<Vec<_>>(), model);
    assert_eq!(parsed.allocations(), trace.allocations());
    assert_eq!(trace_to_bytes(&parsed), bytes);
}
