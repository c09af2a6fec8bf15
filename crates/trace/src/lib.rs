//! Heap-event trace record/replay: record a workload once, replay it under
//! every collector.
//!
//! The reproduction's methodology is trace-shaped: each collector is judged
//! on the same deterministic stream of allocations, writes and GC events.
//! This crate makes that stream a first-class artifact — in the spirit of
//! Elephant-Tracks-style GC event streams — instead of something
//! re-simulated from scratch for every (benchmark, collector) pair:
//!
//! * [`TraceEvent`] is the vocabulary: site-tagged small and large
//!   allocations, reference and primitive writes, reads, root releases,
//!   mutator spawn/retire (with each context's TLAB/store-buffer
//!   configuration, so K-mutator interleavings and SSB batching replay
//!   faithfully), explicit safepoints and collections, and workload hook
//!   markers. Objects are named by allocation index, not by handle.
//! * [`Applier`] is the one place an event becomes a heap call. A workload
//!   is an event source; running it live means feeding its events to an
//!   applier ([`Applier::sink`]), recording it means keeping them as well,
//!   and [`TraceReplayer`] feeds it a stored trace. Live, recorded and
//!   replayed runs therefore issue the same calls, and a replay against
//!   the recording configuration is **bit-identical** to the live run
//!   (same `PcmWrites`, same line statistics — the `hybrid_mem` statistics
//!   are the oracle). Replaying against other policies turns
//!   "N benchmarks × M collectors" into "record N, replay N×M".
//! * [`TraceEvents`] holds the stream in memory at 8 bytes an event (one
//!   `u64` slot per event, its operands bit-packed at widths chosen per
//!   opcode; the rare event with an operand too wide for its field, and
//!   every hook marker, kept whole beside them).
//! * The [`format`](mod@format) module persists the stream as a versioned, compact,
//!   checksummed binary `.kgtrace` file with `.kgprof`-style corruption
//!   handling (unknown versions, truncation and bit flips are rejected
//!   with descriptive errors).
//!
//! # Record once, replay many
//!
//! ```
//! use advice::SiteId;
//! use hybrid_mem::MemoryConfig;
//! use kingsguard::{HeapConfig, KingsguardHeap};
//! use kingsguard_heap::ObjectShape;
//! use trace::{Applier, Trace, TraceEvent, TraceEvents, TraceMeta, TraceReplayer};
//!
//! // A (tiny) workload is an event source.
//! fn workload(mut emit: impl FnMut(TraceEvent)) {
//!     for obj in 0..64 {
//!         emit(TraceEvent::alloc(0, ObjectShape::new(0, 64), 1, SiteId::UNKNOWN));
//!         emit(TraceEvent::WritePrim { ctx: 0, src: obj, offset: 0, len: 8 });
//!         emit(TraceEvent::Release { obj });
//!     }
//! }
//!
//! // Run it live under KG-N and keep its events: a recording.
//! let mut heap = KingsguardHeap::new(HeapConfig::kg_n(), MemoryConfig::architecture_independent());
//! let meta = TraceMeta {
//!     workload: "doc".into(),
//!     seed: 7,
//!     scale: 1,
//!     site_map_hash: 0,
//! };
//! let header = meta.header(&heap);
//! let mut events = TraceEvents::default();
//! let mut applier = Applier::new(&mut heap).unwrap();
//! workload(applier.sink(&mut heap, |_, _| {}, Some(&mut events)));
//! let trace = Trace { header, events };
//! let live = heap.finish();
//!
//! // Replay the same program under two collectors.
//! for config in [HeapConfig::kg_n(), HeapConfig::kg_w()] {
//!     let mut replay_heap = KingsguardHeap::new(config, MemoryConfig::architecture_independent());
//!     TraceReplayer::new(&trace).replay(&mut replay_heap).unwrap();
//!     let report = replay_heap.finish();
//!     assert_eq!(report.gc.objects_allocated, live.gc.objects_allocated);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod apply;
pub mod event;
pub mod format;
pub mod replay;

pub use apply::{Applier, ReplayError, ReplayProgress, ReplayStats};
pub use event::{CollectKind, Trace, TraceEvent, TraceEvents, TraceHeader, TraceMeta};
pub use format::{
    load_trace, parse_trace, save_trace, trace_to_bytes, TraceError, FILE_EXTENSION, FORMAT_MAGIC,
    FORMAT_MIN_VERSION, FORMAT_VERSION,
};
pub use replay::TraceReplayer;
