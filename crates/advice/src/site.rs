//! Allocation-site identifiers, and the dense table keyed by them.

use std::fmt;

/// A stable identifier for an allocation site.
///
/// In a real VM this would be a (method, bytecode index) pair; the synthetic
/// workloads assign one id per logical allocation statement. Site ids are
/// carried alongside the type id through the allocation path and stored in
/// the object's header, which every copy carries, so profiles collected in
/// one run can be replayed in another run of the same workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The id used for allocations whose site is unknown (e.g. those made
    /// through `MutatorContext::alloc`). Advice tables fall back to their
    /// default placement for this id.
    pub const UNKNOWN: SiteId = SiteId(0);

    /// Every site id is below this bound, the width of a packed trace
    /// allocation's site field. The `.kgtrace` and `.kgprof` decoders
    /// reject a larger id, so no file can make a [`SiteTable`] grow past it.
    pub const LIMIT: u32 = 1 << 14;

    /// Returns `true` for the unknown site.
    pub fn is_unknown(self) -> bool {
        self.0 == 0
    }

    /// The raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unknown() {
            write!(f, "site:?")
        } else {
            write!(f, "site:{}", self.0)
        }
    }
}

/// Per-site state in a vector indexed by site id, grown on first write and
/// iterated in ascending id order. With no `remove`, the vector ends at the
/// largest present id, so equal entries mean equal tables. Writing at an id
/// at or above [`SiteId::LIMIT`] panics; reading one finds nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for SiteTable<T> {
    fn default() -> Self {
        SiteTable { slots: Vec::new() }
    }
}

impl<T> SiteTable<T> {
    /// The entry of `site`, if it has one.
    #[inline]
    pub fn get(&self, site: SiteId) -> Option<&T> {
        self.slots.get(site.0 as usize)?.as_ref()
    }

    #[inline]
    fn slot(&mut self, site: SiteId) -> &mut Option<T> {
        let index = site.0 as usize;
        if index >= self.slots.len() {
            assert!(
                site.0 < SiteId::LIMIT,
                "site id {} is at or above SiteId::LIMIT",
                site.0
            );
            self.slots.resize_with(index + 1, || None);
        }
        &mut self.slots[index]
    }

    /// The entry of `site`, inserting `T::default()` if it has none.
    #[inline]
    pub fn entry(&mut self, site: SiteId) -> &mut T
    where
        T: Default,
    {
        self.slot(site).get_or_insert_with(T::default)
    }

    /// Sets the entry of `site`, returning the one it replaces.
    pub fn insert(&mut self, site: SiteId, value: T) -> Option<T> {
        self.slot(site).replace(value)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Number of sites with an entry.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Returns `true` if no site has an entry.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entries in ascending site order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &T)> + '_ {
        let entries = self.slots.iter().enumerate();
        entries.filter_map(|(id, slot)| Some((SiteId(id as u32), slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_site() {
        assert!(SiteId::UNKNOWN.is_unknown());
        assert!(!SiteId(3).is_unknown());
        assert_eq!(SiteId(3).raw(), 3);
        assert_eq!(SiteId(3).to_string(), "site:3");
        assert_eq!(SiteId::UNKNOWN.to_string(), "site:?");
    }

    #[test]
    fn site_table_iterates_in_id_order_and_compares_by_entries() {
        let mut a = SiteTable::default();
        assert!(a.is_empty());
        assert_eq!(a.insert(SiteId(9), 90), None);
        *a.entry(SiteId(2)) += 20;
        *a.entry(SiteId(0)) += 1;
        assert_eq!(a.insert(SiteId(9), 91), Some(90));
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            [(SiteId(0), &1), (SiteId(2), &20), (SiteId(9), &91)]
        );
        assert_eq!(
            (a.len(), a.get(SiteId(2)), a.get(SiteId(3))),
            (3, Some(&20), None)
        );
        assert_eq!(a.get(SiteId(u32::MAX)), None, "reads past the limit find nothing");

        let mut b = SiteTable::default();
        for (site, value) in [(9, 91), (0, 1), (2, 20)] {
            b.insert(SiteId(site), value);
        }
        assert_eq!(a, b, "same entries, other insertion order");
        b.clear();
        assert_eq!((b.len(), b.is_empty()), (0, true));
        assert_eq!(b, SiteTable::default());
    }

    #[test]
    #[should_panic(expected = "at or above SiteId::LIMIT")]
    fn site_table_refuses_an_id_at_the_limit() {
        SiteTable::default().insert(SiteId(SiteId::LIMIT), ());
    }
}
