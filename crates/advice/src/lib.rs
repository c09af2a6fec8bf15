//! Profile-guided placement for write-rationing garbage collection.
//!
//! The paper's Kingsguard-writers (KG-W) learns which objects are write-hot
//! *online*, by routing every nursery survivor through a DRAM observer space
//! and watching the write barrier — an observer-space tax paid on every run.
//! This crate moves that learning *offline*, in the spirit of the authors'
//! profile-driven follow-up work (Crystal Gazer): a **profiling run** records
//! per-allocation-site write behaviour, the profile is persisted to disk, and
//! later **production runs** replay it as an [`AdviceTable`] that pretenures
//! each site's objects straight into DRAM or PCM mature space, bypassing the
//! observer entirely.
//!
//! The pieces:
//!
//! * [`SiteId`] — a stable identifier for an allocation site, threaded
//!   through `MutatorContext::alloc_site` alongside the type id,
//! * [`SiteProfiler`] — aggregates per-site allocation counts, bytes,
//!   nursery survival and post-nursery write counts during a profiling run,
//! * [`SiteProfile`] / [`profile_to_string`] / [`parse_profile`] — the
//!   versioned on-disk profile format (round-trippable, forward-refusing),
//! * [`SiteClass`] / [`classify()`](classify::classify) — homogeneity
//!   classification of a site as write-hot, write-cold or mixed,
//! * [`AdviceTable`] — the per-site placement decisions consumed by the
//!   KG-A collector (`CollectorKind::KgAdvice` in the `kingsguard` crate).
//!
//! The crate is dependency-free and knows nothing about the heap; the
//! `kingsguard` runtime feeds it events and consumes its decisions.

#![forbid(unsafe_code)]

pub mod classify;
pub mod format;
pub mod profiler;
pub mod site;
pub mod table;

pub use classify::{classify, ClassifyParams, SiteClass};
pub use format::{
    load_profile, parse_profile, profile_to_string, save_profile, site_map_drift, ProfileError, SiteMapDrift,
    FORMAT_MAGIC, FORMAT_MIN_VERSION, FORMAT_VERSION,
};
pub use profiler::{SiteProfile, SiteProfiler, SiteRecord};
pub use site::SiteId;
pub use table::{AdviceTable, Placement};
