//! Synthetic Java application models.
//!
//! The paper evaluates 16 Java applications (12 DaCapo benchmarks,
//! pseudojbb2005 and 3 GraphChi graph-analytics programs) plus two fixed
//! variants (lu.Fix, pmd.S). Running the real benchmarks requires a Java
//! virtual machine; this reproduction instead drives the collectors with
//! **synthetic mutators** whose behaviour is parameterised, per benchmark,
//! by the paper's own published statistics:
//!
//! * allocation volume and heap size (Table 4, columns 1–2),
//! * nursery and observer-space survival rates (Table 4, columns 3–4 and 16),
//! * the split of writes between nursery and mature objects and the
//!   concentration of mature writes in a small set of hot objects
//!   (Figure 2),
//! * large-object allocation behaviour (Section 6.2.1's discussion of
//!   lusearch, xalan, luindex and CC),
//! * measured 4→32-core write-rate scaling factors (Table 3).
//!
//! Because the collectors only observe *where* objects live, *how long* they
//! live and *where writes land*, reproducing those distributions reproduces
//! the collector behaviour the paper reports, at a configurable scale.
//!
//! Each workload is an **event source**: it emits its program as
//! [`trace::TraceEvent`]s, naming objects by allocation index, and needs
//! nothing from the heap but its nursery and observer sizes. Running it
//! feeds the events to a [`trace::Applier`], the one place an event becomes
//! a heap call; recording it keeps the events as well; replaying a stored
//! trace feeds the same applier. So live, recorded and replayed runs issue
//! the same heap calls.

#![forbid(unsafe_code)]

pub mod broken;
pub mod mutator;
pub mod profile;
pub mod profiles;
pub mod sites;
pub mod streaming;

pub use broken::{BrokenFixture, ALL_FIXTURES};
pub use mutator::{MutatorProgress, SyntheticMutator, WorkloadConfig};
pub use profile::{BenchmarkProfile, Suite, STREAMING_HEAP_BUDGET_BYTES};
pub use profiles::{all_benchmarks, benchmark, simulated_benchmarks};
pub use sites::site_map_hash;
pub use streaming::{StreamingConfig, StreamingOutcome, StreamingWorkload};
