//! MMTk-style heap substrate for the Kingsguard write-rationing collectors.
//!
//! This crate provides the building blocks that Jikes RVM / MMTk provide to
//! the collectors in the paper, implemented from scratch on top of the
//! [`hybrid_mem`] simulated memory system:
//!
//! * an **object model** with a status word (which also carries the
//!   object's allocation site), an info word describing the object's
//!   reference slots and primitive payload, and the extra *write word* that
//!   Kingsguard-writers adds to every header ([`object`]),
//! * **bump-pointer allocation** ([`bump`]) and contiguous **copy spaces**
//!   used for the nursery and the observer space ([`copyspace`]),
//! * an **Immix mark-region space** with 32 KB blocks and 256 B lines,
//!   line/block marking, recyclable-block allocation and headroom for
//!   copying during collection ([`immix`]),
//! * a **large object space** managed by a treadmill ([`los`]),
//! * a **metadata space** holding collector side metadata, including the
//!   DRAM mark-state tables of the paper's metadata optimization (MDO)
//!   ([`metadata`]),
//! * **remembered sets** ([`remset`]) and a **root table** with stable
//!   handles ([`roots`]),
//! * **dense side metadata** ([`side`]): the per-object tables and address
//!   bitmaps behind the remembered sets, the collectors' mark sets and the
//!   per-object statistics — no hash map is keyed by a simulated address.
//!
//! The collectors themselves (GenImmix, KG-N, KG-W) live in the `kingsguard`
//! crate.

#![forbid(unsafe_code)]

pub mod bump;
pub mod copyspace;
pub mod immix;
pub mod los;
pub mod metadata;
pub mod object;
pub mod remset;
pub mod roots;
pub mod side;
pub mod space;
pub mod tlab;

pub use copyspace::CopySpace;
pub use immix::ImmixSpace;
pub use los::LargeObjectSpace;
pub use metadata::MetadataSpace;
pub use object::{
    decode_info_word, status_word_is_forwarded, status_word_site, ObjectRef, ObjectShape, HEADER_BYTES,
    INFO_WORD_OFFSET, LARGE_OBJECT_THRESHOLD, REF_SLOT_BYTES, SITE_BITS, STATUS_WORD_OFFSET,
};
pub use remset::RememberedSet;
pub use roots::{Handle, RootTable};
pub use side::{AddressBitmap, ObjectTable, WORD_BYTES};
pub use space::{SpaceId, SpaceUsage};
pub use tlab::Tlab;
