//! Dense side metadata: flat per-granule tables over the simulated
//! address space.
//!
//! Every per-access lookup of the memory system — page placement, per-page
//! and per-line write counters, backing chunks — and the heap's mark-table
//! directory key on an address at a fixed granularity. The address space is
//! laid out in 256 MB slots (`MemorySystem::reserve_extent` aligns every
//! extent to one) and each space fills its extent contiguously, so
//! [`DenseTable`] is two array indexations instead of a hash probe: a
//! directory indexed by slot, then a `Vec` covering the window of granules
//! touched so far within the slot. Host memory is therefore proportional to
//! the touched range: reserving a 32 GB extent, or touching an address far
//! from every other, costs one empty directory entry per slot skipped.
//!
//! The directory itself is linear in the highest slot touched, so the
//! simulated address space ends at [`ADDRESS_SPACE`] (1 TB, a 128 KB
//! directory at most); growing a table beyond it panics.

/// log2 of the slot size: 256 MB, the alignment of reserved extents.
pub(crate) const SLOT_SHIFT: u32 = 28;

/// Size of the simulated address space the tables cover: 1 TB. Every
/// reserved extent sits far below it (they start at 1 GB and a run reserves
/// a few tens of GB).
pub const ADDRESS_SPACE: u64 = 1 << 40;

/// One slot's entries: a window `[first, first + entries.len())` over the
/// slot's granules.
#[derive(Clone, Debug)]
struct Slot<T> {
    first: usize,
    entries: Vec<T>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            first: 0,
            entries: Vec::new(),
        }
    }
}

impl<T: Default> Slot<T> {
    #[inline]
    fn get(&self, offset: usize) -> Option<&T> {
        // An offset below the window wraps to a huge index and misses.
        self.entries.get(offset.wrapping_sub(self.first))
    }

    #[inline]
    fn get_mut(&mut self, offset: usize) -> Option<&mut T> {
        self.entries.get_mut(offset.wrapping_sub(self.first))
    }

    /// Widens the window (with default entries) to include `offset`.
    #[cold]
    fn cover(&mut self, offset: usize) -> &mut T {
        if self.entries.is_empty() {
            self.first = offset;
        }
        if offset < self.first {
            // Downwards the whole window moves, so grow geometrically like
            // `Vec` does upwards: a descending run stays linear overall.
            let gap = (self.first - offset).max(self.entries.len() / 2).min(self.first);
            self.entries
                .splice(0..0, std::iter::repeat_with(T::default).take(gap));
            self.first -= gap;
        }
        let index = offset - self.first;
        if index >= self.entries.len() {
            self.entries.resize_with(index + 1, T::default);
        }
        &mut self.entries[index]
    }
}

/// A table of `T` with one entry per `GRANULE` bytes of address space, keyed
/// by granule index (`address / GRANULE`). Entries never written read as
/// absent or as `T::default()`. `GRANULE` must be a power of two no larger
/// than a slot.
#[derive(Clone, Debug)]
pub struct DenseTable<T, const GRANULE: usize> {
    slots: Vec<Slot<T>>,
}

impl<T, const GRANULE: usize> Default for DenseTable<T, GRANULE> {
    fn default() -> Self {
        DenseTable { slots: Vec::new() }
    }
}

impl<T: Default, const GRANULE: usize> DenseTable<T, GRANULE> {
    /// log2 of the number of granules per slot.
    const SLOT_BITS: u32 = {
        assert!(GRANULE.is_power_of_two() && GRANULE.trailing_zeros() <= SLOT_SHIFT);
        SLOT_SHIFT - GRANULE.trailing_zeros()
    };

    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(index: u64) -> (usize, usize) {
        (
            (index >> Self::SLOT_BITS) as usize,
            (index & ((1 << Self::SLOT_BITS) - 1)) as usize,
        )
    }

    #[inline]
    fn join(slot: usize, offset: usize) -> u64 {
        ((slot as u64) << Self::SLOT_BITS) + offset as u64
    }

    /// The entry at `index`, or `None` if the table never grew over it.
    #[inline]
    pub fn get(&self, index: u64) -> Option<&T> {
        let (slot, offset) = Self::split(index);
        self.slots.get(slot)?.get(offset)
    }

    /// Mutable access to the entry at `index` without growing the table.
    #[inline]
    pub fn get_mut(&mut self, index: u64) -> Option<&mut T> {
        let (slot, offset) = Self::split(index);
        self.slots.get_mut(slot)?.get_mut(offset)
    }

    /// Mutable access to the entry at `index`, growing the table (with
    /// default entries) to cover it.
    #[inline]
    pub fn entry(&mut self, index: u64) -> &mut T {
        let (slot, offset) = Self::split(index);
        if slot >= self.slots.len() {
            assert!(
                slot < (ADDRESS_SPACE >> SLOT_SHIFT) as usize,
                "granule {index} ({GRANULE} B each) lies beyond the simulated {ADDRESS_SPACE:#x}-byte address space"
            );
            self.slots.resize_with(slot + 1, Slot::default);
        }
        let slot = &mut self.slots[slot];
        let within = offset.wrapping_sub(slot.first);
        if within < slot.entries.len() {
            &mut slot.entries[within]
        } else {
            slot.cover(offset)
        }
    }

    /// All entries the table has grown over, defaults included, as
    /// `(index, entry)` in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.slots.iter().enumerate().flat_map(|(slot, window)| {
            let first = Self::join(slot, window.first);
            window
                .entries
                .iter()
                .enumerate()
                .map(move |(i, entry)| (first + i as u64, entry))
        })
    }

    /// Mutable access to every entry the table has grown over, defaults
    /// included.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.slots.iter_mut().flat_map(|window| window.entries.iter_mut())
    }

    /// Empties the table, keeping its allocations.
    pub fn clear(&mut self) {
        for window in &mut self.slots {
            window.entries.clear();
        }
    }

    /// Resets every entry to its default in place: the windows stay grown,
    /// so a table refilled over the same range (a per-collection bitmap)
    /// never takes the growth path again.
    pub fn reset(&mut self) {
        for window in &mut self.slots {
            window.entries.fill_with(T::default);
        }
    }

    /// Number of entries allocated: the table's host-memory footprint.
    #[cfg(test)]
    pub(crate) fn allocated_entries(&self) -> usize {
        self.slots.iter().map(|window| window.entries.len()).sum()
    }
}

impl<const GRANULE: usize> DenseTable<u64, GRANULE> {
    /// Adds every count of `delta` into `self` and empties `delta`, which
    /// keeps its allocations: a delta table only ever spans what was counted
    /// into it since it was last drained.
    pub fn absorb(&mut self, delta: &mut Self) {
        if self.slots.len() < delta.slots.len() {
            self.slots.resize_with(delta.slots.len(), Slot::default);
        }
        for (into, from) in self.slots.iter_mut().zip(&mut delta.slots) {
            if from.entries.is_empty() {
                continue;
            }
            into.cover(from.first);
            into.cover(from.first + from.entries.len() - 1);
            let start = from.first - into.first;
            for (total, n) in into.entries[start..].iter_mut().zip(&from.entries) {
                *total += n;
            }
            from.entries.clear();
        }
    }

    /// Sums `tables` entry by entry and yields the non-zero totals as
    /// `(index, total)` in ascending index order.
    pub fn folded<'a>(tables: impl IntoIterator<Item = &'a Self>) -> impl Iterator<Item = (u64, u64)> + 'a {
        let tables: Vec<&'a Self> = tables.into_iter().collect();
        let slots = tables.iter().map(|t| t.slots.len()).max().unwrap_or(0);
        (0..slots).flat_map(move |slot| {
            let windows: Vec<&'a Slot<u64>> = tables
                .iter()
                .filter_map(|&t| t.slots.get(slot).filter(|w| !w.entries.is_empty()))
                .collect();
            let first = windows.iter().map(|w| w.first).min().unwrap_or(0);
            let end = windows
                .iter()
                .map(|w| w.first + w.entries.len())
                .max()
                .unwrap_or(0);
            (first..end).filter_map(move |offset| {
                let total: u64 = windows.iter().filter_map(|w| w.get(offset)).sum();
                (total != 0).then_some((Self::join(slot, offset), total))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Pages = DenseTable<u64, 4096>;

    #[test]
    fn unwritten_entries_read_as_absent_and_entry_grows_the_window() {
        let mut table = Pages::new();
        assert_eq!(table.get(5), None);
        *table.entry(5) = 9;
        assert_eq!(
            table.allocated_entries(),
            1,
            "the window starts at the first touch"
        );
        *table.entry(8) = 1;
        assert_eq!(table.get(5), Some(&9));
        assert_eq!(table.get(6), Some(&0), "grown-over entries are defaults");
        assert_eq!(table.get(4), None);
        assert_eq!(table.get(9), None);
        assert_eq!(table.get_mut(9), None);
        assert_eq!(table.allocated_entries(), 4);
        *table.entry(2) = 3;
        assert_eq!(table.get(2), Some(&3));
        assert_eq!(
            table.get(5),
            Some(&9),
            "growing downwards keeps the entries in place"
        );
        assert_eq!(table.get(8), Some(&1));
    }

    #[test]
    fn growth_follows_the_touched_range_not_the_address() {
        let mut table = Pages::new();
        let far = (40u64 << 30) / 4096;
        let slot_end = (1u64 << 16) - 1; // last page of slot 0
        *table.entry(far) = 1;
        *table.entry(slot_end) = 2;
        *table.entry(slot_end + 1) = 3;
        assert_eq!(
            table.allocated_entries(),
            3,
            "neither the gap nor a slot's head is allocated"
        );
        let seen: Vec<(u64, u64)> = table.iter().map(|(i, &n)| (i, n)).collect();
        assert_eq!(
            seen,
            vec![(slot_end, 2), (slot_end + 1, 3), (far, 1)],
            "iteration ascends across slots"
        );
    }

    #[test]
    fn a_descending_run_grows_geometrically() {
        let mut table = Pages::new();
        for index in (0..1000u64).rev() {
            *table.entry(index) += index;
        }
        assert!((0..1000u64).all(|index| table.get(index) == Some(&index)));
        assert_eq!(table.allocated_entries(), 1000);
    }

    #[test]
    #[should_panic(expected = "beyond the simulated")]
    fn growing_past_the_address_space_panics() {
        let mut table = Pages::new();
        assert_eq!(table.get(u64::MAX), None, "reads never grow");
        *table.entry(ADDRESS_SPACE / 4096 - 1) = 1;
        table.entry(ADDRESS_SPACE / 4096);
    }

    #[test]
    fn clear_empties_in_place() {
        let mut table = Pages::new();
        *table.entry(7) = 1;
        *table.entry(70_000) = 2;
        table.clear();
        assert_eq!(table.iter().count(), 0);
        assert_eq!(table.get(7), None);
        *table.entry(3) = 4;
        assert_eq!(table.iter().collect::<Vec<_>>(), vec![(3, &4)]);
    }

    #[test]
    fn values_mut_visits_and_reset_zeroes_every_grown_entry_in_place() {
        let mut table = Pages::new();
        *table.entry(7) = 1;
        *table.entry(9) = 2;
        *table.entry(70_000) = 3;
        for entry in table.values_mut() {
            *entry += 1;
        }
        assert_eq!(
            table.get(8),
            Some(&1),
            "values_mut visits grown-over defaults too"
        );
        assert_eq!(table.get(70_000), Some(&4));
        table.reset();
        assert_eq!(table.allocated_entries(), 4);
        assert_eq!(table.get(7), Some(&0));
        assert_eq!(table.get(8), Some(&0));
        assert_eq!(table.get(70_000), Some(&0));
        assert_eq!(table.get(6), None);
    }

    #[test]
    fn absorb_adds_and_drains_the_delta() {
        let mut base = Pages::new();
        let mut delta = Pages::new();
        *base.entry(4) = 10;
        *delta.entry(4) = 5;
        *delta.entry(1) = 2; // below the base's window
        *delta.entry(70_000) = 7; // second slot
        base.absorb(&mut delta);
        assert_eq!(base.get(4), Some(&15));
        assert_eq!(base.get(1), Some(&2));
        assert_eq!(base.get(70_000), Some(&7));
        assert_eq!(delta.allocated_entries(), 0);
        *delta.entry(0) = 1;
        assert_eq!(
            Pages::folded([&base, &delta]).collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (4, 15), (70_000, 7)]
        );
    }
}
