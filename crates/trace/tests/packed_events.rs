//! Model test of the packed in-memory event stream: `trace::TraceEvents`
//! against a plain `Vec<TraceEvent>`.
//!
//! A slot is one `u64`: a 4-bit opcode, a 4-bit context and 56 bits of
//! operands split per opcode, and an event that does not fit goes to a side
//! list the slot indexes. The seams therefore lie at different powers of two
//! for every operand of every opcode, so every operand here is drawn from
//! both sides of *each* power of two (2^k − 1 and 2^k, k in 0..=64, as far
//! as its type reaches) and every context from both sides of 16, 256 and
//! `u32::MAX`. Packed and wide events interleave, and whatever goes in must
//! come out, through every accessor, and through the file format where it
//! has bytes for the event.

use advice::SiteId;
use kingsguard::MutatorConfig;
use sim_rng::{Rng, SeedableRng, SmallRng};
use trace::{parse_trace, trace_to_bytes, CollectKind, Trace, TraceEvent, TraceEvents, TraceHeader};

const _: () = assert!(TraceEvents::SLOT_BYTES == 8);

/// 2^k − 1 and 2^k for every k in 0..=64, as far as `bits` reaches: every
/// value on either side of a power of two that a `bits`-wide operand holds.
fn edges(bits: u32) -> Vec<u64> {
    let max = (1u128 << bits) - 1;
    let mut values: Vec<u64> = (0..=64)
        .flat_map(|k| [(1u128 << k) - 1, 1u128 << k])
        .filter(|&value| value <= max)
        .map(|value| value as u64)
        .collect();
    values.dedup();
    values
}

/// A `bits`-wide operand: an edge of some power of two, or anything.
fn operand(rng: &mut SmallRng, bits: u32) -> u64 {
    if rng.gen_range(0..8u32) == 0 {
        return rng.gen::<u64>() >> (64 - bits);
    }
    let edges = edges(bits);
    edges[rng.gen_range(0..edges.len())]
}

/// A context: 15 is the last that packs.
fn context(rng: &mut SmallRng) -> u32 {
    [0, 1, 15, 16, 255, 256, u32::MAX][rng.gen_range(0..7usize)]
}

/// Any event of the vocabulary. With `encodable`, one the file format has
/// bytes for: `Some(u64::MAX)` as a store's target is a value the type
/// allows and the stream must hold, but that `trace_to_bytes` refuses, and
/// a site at or above `SiteId::LIMIT` one that `parse_trace` refuses.
fn event(rng: &mut SmallRng, encodable: bool) -> TraceEvent {
    let ctx = context(rng);
    match rng.gen_range(0..11u32) {
        0 => TraceEvent::Spawn {
            ctx,
            config: MutatorConfig {
                tlab_bytes: operand(rng, usize::BITS) as usize,
                ssb_capacity: operand(rng, usize::BITS) as usize,
            },
        },
        1 => TraceEvent::Retire { ctx },
        2 | 3 => TraceEvent::Alloc {
            ctx,
            ref_slots: operand(rng, 16) as u16,
            payload_bytes: operand(rng, 32) as u32,
            type_id: operand(rng, 16) as u16,
            site: operand(rng, if encodable { SiteId::LIMIT.ilog2() } else { 32 }) as u32,
            large: rng.gen_bool(0.3),
        },
        4 => TraceEvent::WriteRef {
            ctx,
            src: operand(rng, 64),
            slot: operand(rng, 32) as u32,
            target: match operand(rng, 64) {
                0 => None,
                u64::MAX if encodable => Some(u64::MAX - 1),
                target => Some(target),
            },
        },
        5 => TraceEvent::WritePrim {
            ctx,
            src: operand(rng, 64),
            offset: operand(rng, 64),
            len: operand(rng, 64),
        },
        6 => TraceEvent::ReadRef {
            ctx,
            src: operand(rng, 64),
            slot: operand(rng, 32) as u32,
        },
        7 => TraceEvent::ReadPrim {
            ctx,
            src: operand(rng, 64),
            offset: operand(rng, 64),
            len: operand(rng, 64),
        },
        8 => TraceEvent::Release {
            obj: operand(rng, 64),
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
            allocated_bytes: operand(rng, 64),
            total_bytes: operand(rng, 64),
            elapsed_ms: operand(rng, 64),
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
        // Both kinds of slot occur, so the footprint lies strictly between
        // all-packed and all-wide.
        let all_packed = model.len() * TraceEvents::SLOT_BYTES;
        let all_wide = all_packed + model.len() * std::mem::size_of::<TraceEvent>();
        assert!(all_packed < packed.memory_bytes() && packed.memory_bytes() < all_wide);

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

/// Every event whose operands are all 0 but one, which is `value` (where
/// the operand's type holds it), for every operand of every opcode.
fn events_with_one_operand(value: u64) -> Vec<TraceEvent> {
    let narrow = |bits: u32| (value.checked_shr(bits).unwrap_or(0) == 0).then_some(value);
    let mut events = Vec::new();
    let config = |tlab_bytes: u64, ssb_capacity: u64| MutatorConfig {
        tlab_bytes: tlab_bytes as usize,
        ssb_capacity: ssb_capacity as usize,
    };
    let alloc =
        |ctx: u64, ref_slots: u64, payload_bytes: u64, type_id: u64, site: u64, large| TraceEvent::Alloc {
            ctx: ctx as u32,
            ref_slots: ref_slots as u16,
            payload_bytes: payload_bytes as u32,
            type_id: type_id as u16,
            site: site as u32,
            large,
        };
    if let Some(ctx) = narrow(32) {
        let ctx = ctx as u32;
        events.extend([
            TraceEvent::Spawn {
                ctx,
                config: config(0, 0),
            },
            TraceEvent::Retire { ctx },
            TraceEvent::WriteRef {
                ctx,
                src: 0,
                slot: 0,
                target: None,
            },
            TraceEvent::WritePrim {
                ctx,
                src: 0,
                offset: 0,
                len: 0,
            },
            TraceEvent::ReadRef { ctx, src: 0, slot: 0 },
            TraceEvent::ReadPrim {
                ctx,
                src: 0,
                offset: 0,
                len: 0,
            },
        ]);
    }
    if let Some(bytes) = narrow(usize::BITS) {
        events.extend([
            TraceEvent::Spawn {
                ctx: 0,
                config: config(bytes, 0),
            },
            TraceEvent::Spawn {
                ctx: 0,
                config: config(0, bytes),
            },
        ]);
    }
    for large in [false, true] {
        if let Some(v) = narrow(32) {
            events.extend([
                alloc(v, 0, 0, 0, 0, large),
                alloc(0, 0, v, 0, 0, large),
                alloc(0, 0, 0, 0, v, large),
            ]);
        }
        if let Some(v) = narrow(16) {
            events.extend([alloc(0, v, 0, 0, 0, large), alloc(0, 0, 0, v, 0, large)]);
        }
    }
    if let Some(slot) = narrow(32) {
        let slot = slot as u32;
        events.extend([
            TraceEvent::WriteRef {
                ctx: 0,
                src: 0,
                slot,
                target: None,
            },
            TraceEvent::ReadRef { ctx: 0, src: 0, slot },
        ]);
    }
    events.extend([
        TraceEvent::WriteRef {
            ctx: 0,
            src: value,
            slot: 0,
            target: None,
        },
        TraceEvent::WriteRef {
            ctx: 0,
            src: 0,
            slot: 0,
            target: Some(value),
        },
        TraceEvent::ReadRef {
            ctx: 0,
            src: value,
            slot: 0,
        },
        TraceEvent::Release { obj: value },
        TraceEvent::Hook {
            allocated_bytes: value,
            total_bytes: 0,
            elapsed_ms: 0,
        },
        TraceEvent::Hook {
            allocated_bytes: 0,
            total_bytes: value,
            elapsed_ms: 0,
        },
        TraceEvent::Hook {
            allocated_bytes: 0,
            total_bytes: 0,
            elapsed_ms: value,
        },
    ]);
    for (src, offset, len) in [(value, 0, 0), (0, value, 0), (0, 0, value)] {
        events.extend([
            TraceEvent::WritePrim {
                ctx: 0,
                src,
                offset,
                len,
            },
            TraceEvent::ReadPrim {
                ctx: 0,
                src,
                offset,
                len,
            },
        ]);
    }
    events
}

#[test]
fn every_operand_on_either_side_of_every_power_of_two_comes_back_unchanged() {
    let events: Vec<TraceEvent> = edges(64).into_iter().flat_map(events_with_one_operand).collect();
    let packed = TraceEvents::from(events.clone());
    for (index, event) in events.iter().enumerate() {
        assert_eq!(packed.get(index), Some(*event));
        // Alone, too: a wide event's slot indexes the side list from 0.
        assert_eq!(TraceEvents::from(vec![*event]).last(), Some(*event));
    }
    assert_eq!(packed.iter().collect::<Vec<_>>(), events);
    // The file format holds them all but the store of the last `u64` index
    // and the allocations at the 36 sites from `SiteId::LIMIT` (2^14) to
    // `u32::MAX` here, large and not.
    let encodable: Vec<TraceEvent> = events
        .iter()
        .copied()
        .filter(|event| match *event {
            TraceEvent::WriteRef { target, .. } => target != Some(u64::MAX),
            TraceEvent::Alloc { site, .. } => site < SiteId::LIMIT,
            _ => true,
        })
        .collect();
    assert_eq!(encodable.len(), events.len() - 1 - 2 * 36);
    let trace = trace_of(encodable.into());
    let bytes = trace_to_bytes(&trace);
    assert_eq!(parse_trace(&bytes).unwrap(), trace);

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
fn the_footprint_counts_a_slot_per_event_and_each_wide_event_whole() {
    let wide = std::mem::size_of::<TraceEvent>();
    let footprint = |events: Vec<TraceEvent>| TraceEvents::from(events).memory_bytes();
    let release = |obj| TraceEvent::Release { obj };
    let retire = |ctx| TraceEvent::Retire { ctx };
    let hook = TraceEvent::Hook {
        allocated_bytes: 0,
        total_bytes: 0,
        elapsed_ms: 0,
    };
    assert_eq!(footprint(vec![]), 0);
    assert_eq!(footprint(vec![release(u64::MAX >> 8), retire(15)]), 16);
    assert_eq!(footprint(vec![release(u64::MAX >> 7), retire(15)]), 16 + wide);
    assert_eq!(footprint(vec![release(0), retire(16), hook]), 24 + 2 * wide);
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
