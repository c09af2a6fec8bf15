//! A forged event count must not size an allocation.
//!
//! The header's `count` field is read before the checksum has vouched for
//! anything, so `parse_trace` may reserve for no more events than the bytes
//! that remain could hold. This file is its own test binary because the
//! only way to observe a reservation is a global allocator that records the
//! requests it sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use trace::{parse_trace, trace_to_bytes, Trace, TraceError, TraceEvent, TraceEvents, TraceHeader};

/// The system allocator, remembering the largest single request.
struct Recording;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was promised; the counter is a relaxed
// atomic that no allocation depends on.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

#[test]
fn a_forged_event_count_reserves_no_more_than_the_file_could_hold() {
    let trace = Trace {
        header: TraceHeader {
            workload: "forged".to_string(),
            seed: 1,
            scale: 1,
            nursery_bytes: 0,
            observer_bytes: 0,
            site_map_hash: 0,
            fault_seed: 0,
        },
        events: vec![TraceEvent::Safepoint; 100].into(),
    };
    let mut bytes = trace_to_bytes(&trace);
    // Forge the count and re-stamp the checksum (FNV-1a), so the count is
    // the only thing wrong with the file.
    let count_at = 8 + 4 + 4 + trace.header.workload.len() + 48;
    bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let content = bytes.len() - 8;
    let checksum = bytes[..content]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
            (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[content..].copy_from_slice(&checksum.to_le_bytes());

    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let verdict = parse_trace(&bytes);
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    match verdict {
        Err(TraceError::CountMismatch {
            declared: u64::MAX,
            found: 100,
        }) => {}
        other => panic!("expected CountMismatch, got {other:?}"),
    }
    // 100 one-byte events and nothing else remain: room for 100 8-byte
    // slots, 800 bytes (the bound leaves slack for whatever the test harness
    // allocates meanwhile), not for the 2^24 events the count used to be
    // clamped to.
    let bound = 64 << 10;
    assert!(100 * TraceEvents::SLOT_BYTES < bound);
    assert!(
        largest <= bound,
        "parse_trace requested {largest} bytes at once for a {}-byte file (bound {bound})",
        bytes.len()
    );
}
