//! Heap-event trace record/replay: record a workload once, replay it under
//! every collector.
//!
//! The reproduction's methodology is trace-shaped: each collector is judged
//! on the same deterministic stream of allocations, writes and GC events.
//! This crate makes that stream a first-class artifact — in the spirit of
//! Elephant-Tracks-style GC event streams — instead of something
//! re-simulated from scratch for every (benchmark, collector) pair:
//!
//! * [`TraceRecorder`] observes the [`kingsguard::MutatorContext`] layer of
//!   a live run (see [`kingsguard::observer`]) and captures the complete
//!   mutator-visible event vocabulary: site-tagged small and large
//!   allocations, reference and primitive writes with their demographics,
//!   reads, root releases, mutator spawn/retire (with each context's
//!   TLAB/store-buffer configuration, so K-mutator interleavings and SSB
//!   batching replay faithfully), explicit GC-safepoint markers and
//!   workload hook markers.
//! * [`TraceEvents`] holds the stream in memory at 8 bytes an event (one
//!   `u64` slot per event, its operands bit-packed at widths chosen per
//!   opcode; the rare event with an operand too wide for its field, and
//!   every hook marker, kept whole beside them); [`TraceEvent`] is the
//!   value pushed into it and yielded by its iterator.
//! * The [`format`](mod@format) module persists the stream as a versioned, compact,
//!   checksummed binary `.kgtrace` file with `.kgprof`-style corruption
//!   handling (unknown versions, truncation and bit flips are rejected
//!   with descriptive errors).
//! * [`TraceReplayer`] drives any [`kingsguard::PlacementPolicy`] through a
//!   [`kingsguard::KingsguardHeap`] from the recorded stream, bypassing
//!   workload generation entirely. Replaying against the recording
//!   configuration is **bit-identical** to the live run (same `PcmWrites`,
//!   same line statistics — the `hybrid_mem` statistics are the oracle);
//!   replaying against other policies turns "N benchmarks × M collectors"
//!   into "record N, replay N×M".
//!
//! # Record once, replay many
//!
//! ```
//! use hybrid_mem::{MemoryConfig, MemoryKind};
//! use kingsguard::{HeapConfig, KingsguardHeap};
//! use kingsguard_heap::ObjectShape;
//! use trace::{TraceMeta, TraceRecorder, TraceReplayer};
//!
//! // Record a (tiny) workload under KG-N.
//! let mut heap = KingsguardHeap::new(HeapConfig::kg_n(), MemoryConfig::architecture_independent());
//! let recorder = TraceRecorder::install(
//!     &mut heap,
//!     TraceMeta {
//!         workload: "doc".into(),
//!         seed: 7,
//!         scale: 1,
//!         site_map_hash: 0,
//!     },
//! );
//! for _ in 0..64 {
//!     let obj = heap.alloc(ObjectShape::new(0, 64), 1);
//!     heap.write_prim(obj, 0, 8);
//!     heap.release(obj);
//! }
//! let trace = recorder.finish(&mut heap);
//! let live = heap.finish();
//!
//! // Replay the same program under two other collectors.
//! for config in [HeapConfig::kg_n(), HeapConfig::kg_w()] {
//!     let mut replay_heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
//!     TraceReplayer::new(&trace).replay(&mut replay_heap).unwrap();
//!     let report = replay_heap.finish();
//!     assert_eq!(report.gc.objects_allocated, live.gc.objects_allocated);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod format;
pub mod record;
pub mod replay;

pub use event::{CollectKind, Trace, TraceEvent, TraceEvents, TraceHeader};
pub use format::{
    load_trace, parse_trace, save_trace, trace_to_bytes, TraceError, FILE_EXTENSION, FORMAT_MAGIC,
    FORMAT_MIN_VERSION, FORMAT_VERSION,
};
pub use record::{TraceMeta, TraceRecorder};
pub use replay::{ReplayError, ReplayProgress, ReplayStats, TraceReplayer};
