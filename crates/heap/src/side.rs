//! Dense side metadata for the heap layer: per-object tables and address
//! bitmaps keyed by simulated address.
//!
//! The paper's collector keeps per-object state — the write bit, mark state
//! under MDO, the two remembered sets of Figure 4, the per-object write
//! counts behind Figure 2 — in headers and side tables, never in hash maps,
//! and MMTk does the same with its side metadata. This module is the host
//! side of that design: everything the heap layer used to look up by
//! hashing an object or slot address is an array indexation on
//! [`hybrid_mem::DenseTable`] (a directory by 256 MB slot, then a `Vec` over
//! the window of granules touched in the slot), so a replayed event pays
//! for simulation and not for SipHash probes, rehash growth or a fresh set
//! per collection. Its users: [`crate::RememberedSet`], the collectors'
//! mark sets and `kingsguard::GcStats`'s per-object write counts;
//! [`crate::LargeObjectSpace`] keeps its page-granule table on `DenseTable`
//! directly. State that travels with a live object, such as its allocation
//! site, sits in the object's header instead ([`crate::object`]): side
//! metadata is for what is keyed by address or outlives the object.
//!
//! # The granules
//!
//! Keys are object starts and reference slots, all [`WORD_BYTES`] = 8
//! aligned (a key that is not panics). The bitmaps and [`ObjectTable`] keep
//! one bit / entry per word, so two distinct keys never share one, whatever
//! is live or dead: they behave exactly like the address-keyed sets and map
//! they replace. For the write counts that is a requirement, not a
//! convenience: the counts behind Figure 2 outlive their objects on
//! purpose, and a dead object's count at `A + 8` must not merge with a
//! later object's at `A`. On pmd at kgbench's `replay-gc` scale 8 (KG-W) to
//! 17 (KG-A) such pairs occur in a run, and a 16-byte granule merges them
//! and moves `top_mature_writer_share(0.02)` in the third digit;
//! `OBJECT_GOLDEN` in `tests/policy_conformance.rs` pins those rows.
//!
//! # Zero means absent
//!
//! An [`ObjectTable`] entry of 0 is "no entry": write counts start at 1, so
//! the table needs no presence bit and growing a window over untouched heap
//! (zero-filled) adds no entries.
//!
//! # Why the remembered set keeps a log beside its bitmap
//!
//! A bitmap answers "was this slot already remembered?" — which the
//! barrier is charged on — in one load, but enumerating it costs a scan of
//! the whole window, and the window spans the mature spaces while a
//! nursery cycle remembers a few hundred slots. So
//! [`crate::RememberedSet`] appends each new slot to a log and sorts the
//! log when the collector reads it (ascending order is part of the
//! contract); clearing walks the log too, so a cycle costs what it
//! inserted. The mark bitmaps have no log: a collection that marks the
//! heap can afford to zero a bitmap 1/64 its size.
//!
//! # Memory
//!
//! An [`ObjectTable`] costs 4 bytes per word of *touched window* — half a
//! host byte per heap byte between the lowest and highest keyed address of
//! each 256 MB slot; an [`AddressBitmap`] costs 1/64. Nothing is allocated for
//! reserved-but-untouched extents. A finished run folds its write counts to
//! a flat list and drops the tables (`GcStats::fold_object_tables`, called
//! by `KingsguardHeap::finish`), so kept reports stay a few bytes per
//! written object.

use hybrid_mem::{Address, DenseTable};

/// The alignment of object starts and reference slots, and the granule of
/// the structures that must tell any two of them apart.
pub const WORD_BYTES: usize = 8;

/// Heap bytes covered by one 64-bit bitmap word.
const BITMAP_WORD_SPAN: usize = 64 * WORD_BYTES;

/// The word number of `addr`.
///
/// # Panics
///
/// Panics if `addr` is not 8-aligned: it would alias its neighbour.
#[inline]
fn word_index(addr: Address) -> u64 {
    assert!(
        addr.raw().is_multiple_of(WORD_BYTES as u64),
        "side metadata is keyed by {WORD_BYTES}-aligned addresses, got {addr}"
    );
    addr.raw() / WORD_BYTES as u64
}

/// A set of 8-aligned addresses, one bit per heap word.
#[derive(Clone, Debug, Default)]
pub struct AddressBitmap {
    words: DenseTable<u64, BITMAP_WORD_SPAN>,
}

impl AddressBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn locate(addr: Address) -> (u64, u64) {
        let index = word_index(addr);
        (index / 64, 1 << (index % 64))
    }

    /// Adds `addr`. Returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, addr: Address) -> bool {
        let (word, bit) = Self::locate(addr);
        let word = self.words.entry(word);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Returns `true` if `addr` is present.
    #[inline]
    pub fn contains(&self, addr: Address) -> bool {
        let (word, bit) = Self::locate(addr);
        self.words.get(word).is_some_and(|word| word & bit != 0)
    }

    /// Removes `addr` (a no-op if absent).
    #[inline]
    pub fn remove(&mut self, addr: Address) {
        let (word, bit) = Self::locate(addr);
        if let Some(word) = self.words.get_mut(word) {
            *word &= !bit;
        }
    }

    /// Empties the bitmap in place: the windows stay grown, so refilling it
    /// over the same heap allocates nothing.
    pub fn clear(&mut self) {
        self.words.reset();
    }
}

/// A `u32` per heap word, keyed by 8-aligned address; 0 means no entry.
#[derive(Clone, Debug, Default)]
pub struct ObjectTable {
    entries: DenseTable<u32, WORD_BYTES>,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry at `addr` (0 if none).
    #[inline]
    pub fn get(&self, addr: Address) -> u32 {
        self.entries.get(word_index(addr)).copied().unwrap_or(0)
    }

    /// Removes and returns the entry at `addr` (0 if none). Never grows the
    /// table.
    #[inline]
    pub fn take(&mut self, addr: Address) -> u32 {
        self.entries
            .get_mut(word_index(addr))
            .map(std::mem::take)
            .unwrap_or(0)
    }

    /// Adds `n` to the entry at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the entry would exceed `u32::MAX` — a count that large is
    /// outside what the table was sized for, and wrapping would silently
    /// corrupt the statistic.
    #[inline]
    pub fn add(&mut self, addr: Address, n: u32) {
        let entry = self.entries.entry(word_index(addr));
        *entry = entry
            .checked_add(n)
            .unwrap_or_else(|| panic!("per-object count at {addr} overflows u32"));
    }

    /// The non-zero entries, in ascending address order.
    pub fn values(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .iter()
            .map(|(_, &value)| value)
            .filter(|&value| value != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_insert_reports_newness_and_neighbours_stay_apart() {
        let mut bits = AddressBitmap::new();
        assert!(!bits.contains(Address::new(0x1000)));
        assert!(bits.insert(Address::new(0x1000)));
        assert!(!bits.insert(Address::new(0x1000)));
        assert!(bits.insert(Address::new(0x1008)), "one bit per word");
        assert!(bits.contains(Address::new(0x1008)));
        assert!(!bits.contains(Address::new(0x1010)));
        bits.remove(Address::new(0x1000));
        bits.remove(Address::new(0x9000)); // absent, beyond the window
        assert!(!bits.contains(Address::new(0x1000)));
        assert!(bits.contains(Address::new(0x1008)));
    }

    #[test]
    fn bitmap_clear_keeps_nothing_and_spans_slots() {
        let mut bits = AddressBitmap::new();
        let far = Address::new(40 << 30);
        let edge = Address::new((1 << 28) - 8);
        for addr in [Address::new(8), edge, edge.add(8), far] {
            assert!(bits.insert(addr));
        }
        bits.clear();
        for addr in [Address::new(8), edge, edge.add(8), far] {
            assert!(!bits.contains(addr));
            assert!(bits.insert(addr), "cleared bits insert as new");
        }
    }

    #[test]
    fn table_zero_is_absent_and_take_never_grows() {
        let mut table = ObjectTable::new();
        assert_eq!(table.get(Address::new(0x2000)), 0);
        assert_eq!(table.take(Address::new(0x2000)), 0);
        assert_eq!(table.values().count(), 0);
        table.add(Address::new(0x2000), 2);
        table.add(Address::new(0x2000), 1);
        table.add(Address::new(0x2008), 7);
        assert_eq!(table.get(Address::new(0x2000)), 3);
        assert_eq!(table.values().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(table.take(Address::new(0x2000)), 3);
        assert_eq!(table.get(Address::new(0x2000)), 0);
        assert_eq!(table.values().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn table_count_overflow_panics_instead_of_wrapping() {
        let mut table = ObjectTable::new();
        table.add(Address::new(0x40), u32::MAX);
        table.add(Address::new(0x40), 1);
    }

    #[test]
    #[should_panic(expected = "8-aligned")]
    fn unaligned_keys_are_rejected() {
        AddressBitmap::new().insert(Address::new(0x1004));
    }
}
