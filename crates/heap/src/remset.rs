//! Remembered sets.
//!
//! Generational collection requires remembering every pointer from outside
//! the independently-collected region into it. The paper's KG-W collector
//! maintains two remembered sets (Figure 4): `remset` records slots outside
//! the nursery that point into the nursery, and `remset_observers` records
//! slots outside the nursery *and* observer space that point into either.

use hybrid_mem::Address;

use crate::side::AddressBitmap;

/// A deduplicated set of slot addresses (object fields holding interesting
/// pointers): a slot bitmap answers "already remembered?" and a log of the
/// distinct slots, sorted when read, enumerates them (see [`crate::side`]
/// for why both).
#[derive(Debug, Default, Clone)]
pub struct RememberedSet {
    present: AddressBitmap,
    /// The distinct remembered slots, in insertion order.
    log: Vec<Address>,
}

impl RememberedSet {
    /// Creates an empty remembered set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `slot`. Returns `true` if the slot was not already present.
    #[inline]
    pub fn insert(&mut self, slot: Address) -> bool {
        let new = self.present.insert(slot);
        if new {
            self.log.push(slot);
        }
        new
    }

    /// Number of distinct slots currently remembered.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Returns `true` if no slots are remembered.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterates over the remembered slots in ascending address order (a
    /// deterministic order keeps whole runs reproducible for a given seed).
    /// Sorts a copy of the log on every call: the collector uses
    /// [`RememberedSet::drain`] instead.
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        let mut slots = self.log.clone();
        slots.sort_unstable();
        slots.into_iter()
    }

    /// Removes and returns all remembered slots in ascending address order,
    /// sorting the log in place rather than a copy of it.
    pub fn drain(&mut self) -> Vec<Address> {
        for &slot in &self.log {
            self.present.remove(slot);
        }
        let mut slots = std::mem::take(&mut self.log);
        slots.sort_unstable();
        slots
    }

    /// Discards all remembered slots.
    pub fn clear(&mut self) {
        for &slot in &self.log {
            self.present.remove(slot);
        }
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut remset = RememberedSet::new();
        assert!(remset.insert(Address::new(0x100)));
        assert!(!remset.insert(Address::new(0x100)));
        assert!(remset.insert(Address::new(0x108)));
        assert_eq!(remset.len(), 2);
    }

    #[test]
    fn drain_empties_the_set() {
        let mut remset = RememberedSet::new();
        remset.insert(Address::new(0x10));
        remset.insert(Address::new(0x20));
        let mut drained = remset.drain();
        drained.sort();
        assert_eq!(drained, vec![Address::new(0x10), Address::new(0x20)]);
        assert!(remset.is_empty());
    }

    #[test]
    fn clear_empties_the_set() {
        let mut remset = RememberedSet::new();
        remset.insert(Address::new(0x10));
        remset.clear();
        assert!(remset.is_empty());
    }

    #[test]
    fn slots_read_back_ascending_whatever_the_insertion_order() {
        let mut remset = RememberedSet::new();
        for raw in [0x9000u64, 0x1008, 0x5_0000_0000, 0x1000, 0x9000] {
            remset.insert(Address::new(raw));
        }
        let ascending: Vec<Address> = [0x1000u64, 0x1008, 0x9000, 0x5_0000_0000]
            .into_iter()
            .map(Address::new)
            .collect();
        assert_eq!(remset.iter().collect::<Vec<_>>(), ascending);
        assert_eq!(remset.len(), 4);
        assert_eq!(remset.drain(), ascending);
        // A drained slot is new again.
        assert!(remset.insert(Address::new(0x9000)));
        remset.clear();
        assert!(remset.insert(Address::new(0x9000)));
    }

    #[test]
    fn iter_visits_each_slot_once() {
        let mut remset = RememberedSet::new();
        for i in 0..10u64 {
            remset.insert(Address::new(0x1000 + i * 8));
            remset.insert(Address::new(0x1000 + i * 8));
        }
        assert_eq!(remset.iter().count(), 10);
    }
}
