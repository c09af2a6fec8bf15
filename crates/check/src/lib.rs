//! kgcheck: heap sanitizer and trace lifetime verifier.
//!
//! The reproduction's results stand on two invariant families that nothing
//! else continuously verifies: the *collector* invariants (no live
//! reference dangles after a copy or sweep, every old-to-young edge is
//! remembered before a young trace, every write is seen by the barrier,
//! counter shards conserve the controller totals, retired pages are empty)
//! and the *trace* invariants (recorded `.kgtrace` streams are
//! grammatically well-formed and handle lifetimes are sound). This crate
//! checks both, in two modes:
//!
//! * **Mode 1 — runtime sanitizer** ([`SanitizerHandle`]): installs a
//!   shadow-heap checker on any [`kingsguard::KingsguardHeap`] through the
//!   heap's [`kingsguard::HeapObserver`] seam. The checker mirrors the
//!   logical object graph from the event stream and validates the physical
//!   heap against it at every safepoint and collection boundary, using only
//!   the heap's passive inspection API — a sanitized run is bit-identical
//!   to an unsanitized one.
//! * **Mode 2 — static trace analyzer** ([`analyze_trace`]): verifies a
//!   recorded trace without instantiating the memory system — event
//!   grammar and handle-lifetime analysis.
//!
//! Both modes speak the same typed [`CheckViolation`] vocabulary, with
//! site/handle/event-index provenance on every variant.
//!
//! ```
//! use kingsguard::{HeapConfig, KingsguardHeap};
//! use kingsguard_heap::ObjectShape;
//!
//! let mut heap = KingsguardHeap::new(HeapConfig::kg_w(), Default::default());
//! let sanitizer = check::SanitizerHandle::install(&mut heap);
//! let mut m = heap.default_mutator().unwrap();
//! let list = m.alloc(&mut heap, ObjectShape::new(1, 16), 1);
//! for _ in 0..2_000 {
//!     let node = m.alloc(&mut heap, ObjectShape::new(1, 24), 2);
//!     m.write_ref(&mut heap, list, 0, Some(node));
//!     heap.release(node);
//! }
//! heap.safepoint();
//! let report = sanitizer.finish(&mut heap);
//! assert!(report.is_clean(), "violations: {:?}", report.violations);
//! assert!(report.checkpoints > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Allocation indices are dense u64s indexed into host-side Vecs; the
// simulator targets 64-bit hosts, so the index casts are lossless.
#![allow(clippy::cast_possible_truncation)]

pub mod analyze;
pub mod shadow;
pub mod violation;

pub use analyze::{analyze_trace, TraceAnalysis};
pub use shadow::{check_conservation, check_mutators, CheckReport, SanitizerHandle};
pub use violation::CheckViolation;
