//! Write-rationing garbage collection for hybrid DRAM/PCM memories.
//!
//! This crate is the core library of the reproduction of *Write-Rationing
//! Garbage Collection for Hybrid Memories* (Akram, Sartor, McKinley,
//! Eeckhout — PLDI 2018). It implements the paper's collectors on top of the
//! [`kingsguard_heap`] substrate and the [`hybrid_mem`] memory simulator:
//!
//! * **GenImmix** — the baseline generational Immix collector with the whole
//!   heap on DRAM-only or PCM-only memory,
//! * **Kingsguard-nursery (KG-N)** — DRAM nursery, PCM everything else,
//! * **Kingsguard-writers (KG-W)** — DRAM nursery and observer space,
//!   per-object write monitoring through the write barrier, selective
//!   placement of mature objects in DRAM or PCM, rescue of written PCM
//!   objects, the Large Object Optimization (LOO) and the Metadata
//!   Optimization (MDO),
//! * **Kingsguard-advice (KG-A)** — offline profile replay: per-site
//!   pretenuring with the KG-W rescue as misprediction fallback,
//! * **Kingsguard-dynamic (KG-D)** — online-adaptive per-site placement
//!   learned during the run from rescue/demotion feedback.
//!
//! All of them are implementations of the [`policy::PlacementPolicy`] trait:
//! the collection mechanics live once in [`collect`]/[`runtime`], and each
//! collector only supplies the placement decisions. New rationing strategies
//! plug in through [`KingsguardHeap::with_policy`] without touching the
//! collector core.
//!
//! The entry point is [`KingsguardHeap`]: create one from a [`HeapConfig`]
//! and a [`hybrid_mem::MemoryConfig`], drive it through a
//! [`MutatorContext`] (allocation, reference/primitive writes and reads;
//! context 0 comes from [`KingsguardHeap::default_mutator`]) and release
//! roots on the heap, then call
//! [`KingsguardHeap::finish`] to obtain the collector and memory statistics.
//!
//! ```
//! use kingsguard::{HeapConfig, KingsguardHeap};
//! use kingsguard_heap::ObjectShape;
//!
//! let mut heap = KingsguardHeap::new(HeapConfig::kg_n(), Default::default());
//! let mut m = heap.default_mutator().unwrap();
//! let list = m.alloc(&mut heap, ObjectShape::new(1, 16), 1);
//! for _ in 0..1_000 {
//!     let node = m.alloc(&mut heap, ObjectShape::new(1, 24), 2);
//!     m.write_ref(&mut heap, list, 0, Some(node));
//!     heap.release(node);
//! }
//! let report = heap.finish();
//! assert!(report.gc.nursery.collections > 0 || report.gc.bytes_allocated < 256 * 1024);
//! ```

#![forbid(unsafe_code)]

pub mod collect;
pub mod config;
pub mod mutator;
pub mod observer;
pub mod policy;
pub mod runtime;
pub mod stats;

pub use config::{CollectorKind, HeapConfig, KgwOptions};
pub use mutator::{MutatorConfig, MutatorContext};
pub use observer::{
    CheckNote, CheckPoint, CollectKind, HeapEvent, HeapObserver, MutatorSnapshot, ObserverId,
    ShardConservation,
};
pub use policy::{
    AdaptationEvent, AdaptationTrigger, BarrierMode, GenImmixPolicy, KgAdvicePolicy, KgDynamicPolicy,
    KgNurseryPolicy, KgWritersPolicy, LargePlacement, PlacementPolicy, PolicyConstraints, SurvivorPlacement,
    Topology,
};
pub use runtime::{KingsguardHeap, Location, RunReport};
pub use stats::{CollectionCounters, CompositionSample, GcStats, WriteTarget};
