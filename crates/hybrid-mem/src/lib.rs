//! Hybrid DRAM/PCM main-memory simulator.
//!
//! This crate is the memory-system substrate used by the write-rationing
//! garbage collectors in the `kingsguard` crate. It reproduces the
//! memory-system side of *Write-Rationing Garbage Collection for Hybrid
//! Memories* (Akram et al., PLDI 2018):
//!
//! * a simulated 64-bit virtual **address space** whose pages are mapped to
//!   either DRAM or PCM ([`PageMap`], [`MemoryKind`]),
//! * a lazily materialised **backing store** holding real bytes
//!   ([`backing::ChunkedMemory`]),
//! * **dense side metadata** ([`DenseTable`]): the flat per-page / per-line /
//!   per-chunk tables behind the page map, the write counters and the
//!   backing store, so no access hashes an address,
//! * a three-level set-associative write-back **cache hierarchy** that absorbs
//!   and coalesces writes and remembers the phase that last wrote each cache
//!   line ([`cache::CacheHierarchy`]) — side arrays as well: flat per-level
//!   tag and metadata arrays of physical ways, one word of 4-bit recency
//!   ranks per set (exact LRU, no timestamps, no tag ever moves) and a
//!   dense table of verified way hints per line (no set is ever scanned),
//!   with memory-side events delivered to a caller's sink without
//!   allocating,
//! * a **memory controller** that counts reads and writes per device, per
//!   page, per line and per GC phase ([`controller::MemoryController`]),
//! * DRAM/PCM **device models** with the latency and energy parameters of the
//!   paper's Table 2 ([`devices`]),
//! * an **energy / energy-delay-product model** ([`energy`]), an analytic
//!   **execution-time model** ([`timing`]), the paper's **PCM lifetime
//!   model** `Y = S·E / (B·2^25)` ([`lifetime`]) and ideal line
//!   **wear-leveling** statistics ([`wear`]).
//!
//! The central entry point is [`MemorySystem`]: heap code issues tagged reads
//! and writes through it and later extracts a [`stats::MemoryStats`] snapshot.
//!
//! # Example
//!
//! ```
//! use hybrid_mem::{MemoryConfig, MemorySystem, MemoryKind, Phase};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::hybrid());
//! // Reserve a 1 MiB extent and map its first 16 pages onto PCM.
//! let base = mem.reserve_extent("demo", 1 << 20);
//! mem.map_pages(base, 16, MemoryKind::Pcm, 0);
//! mem.write_u64(base, 0xdead_beef, Phase::Mutator);
//! assert_eq!(mem.read_u64(base, Phase::Mutator), 0xdead_beef);
//! mem.flush_caches();
//! let stats = mem.stats();
//! assert!(stats.writes(MemoryKind::Pcm) >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod address;
pub mod backing;
pub mod cache;
pub mod controller;
pub mod dense;
pub mod devices;
pub mod energy;
pub mod fault;
pub mod lifetime;
pub mod page_map;
pub mod stats;
pub mod system;
pub mod timing;
pub mod wear;

pub use address::{Address, PageId, BLOCK_SIZE, CACHE_LINE_SIZE, LINE_SIZE, PAGE_SIZE};
pub use cache::{CacheConfig, CacheHierarchy};
pub use controller::{MemoryController, ShardId};
pub use dense::DenseTable;
pub use devices::{DeviceParams, DramParams, PcmParams};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use fault::{years_to_first_uncorrectable, FaultConfig, FaultEvent, FaultModel};
pub use lifetime::{lifetime_years, Endurance, LifetimeModel};
pub use page_map::PageMap;
pub use stats::{MemoryStats, PhaseWrites, ShardStats};
pub use system::{AccessKind, MemoryConfig, MemoryKind, MemorySystem, Phase};
pub use timing::{ExecutionModel, TimeBreakdown};
pub use wear::{WearSummary, WearTracker};
