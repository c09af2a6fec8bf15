//! Mapping from simulated virtual pages to memory technologies.
//!
//! The Kingsguard collectors direct the OS explicitly: each heap space
//! requests pages from either DRAM or PCM at 4 KB granularity (Section 4.1).
//! [`PageMap`] records that decision, and also supports *re-mapping* a page's
//! technology, which is how the OS Write Partitioning baseline migrates pages
//! between DRAM and PCM.
//!
//! Placement is side metadata in a [`DenseTable`]: one packed 16-bit entry
//! per page (mapped bit, kind, owning space; 0 = unmapped), so the lookup
//! every device event performs is two array indexations.

use crate::address::{Address, PageId, PAGE_SIZE};
use crate::dense::DenseTable;
use crate::system::MemoryKind;

/// Per-page placement information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageInfo {
    /// Memory technology currently backing this page.
    pub kind: MemoryKind,
    /// Identifier of the heap space that owns the page.
    pub space: u8,
}

impl PageInfo {
    /// Packed table entry: bit 0 mapped, bit 1 kind, bits 8.. space.
    fn pack(self) -> u16 {
        1 | (self.kind as u16) << 1 | u16::from(self.space) << 8
    }

    fn unpack(entry: u16) -> Option<PageInfo> {
        (entry != 0).then_some(PageInfo {
            kind: if entry & 2 == 0 {
                MemoryKind::Dram
            } else {
                MemoryKind::Pcm
            },
            space: (entry >> 8) as u8,
        })
    }
}

/// Tracks which pages are mapped and onto which memory technology.
#[derive(Debug)]
pub struct PageMap {
    pages: DenseTable<u16, PAGE_SIZE>,
    mapped_pages: usize,
    mapped_bytes: [u64; 2],
}

impl Default for PageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PageMap {
    /// Creates an empty page map.
    pub fn new() -> Self {
        PageMap {
            pages: DenseTable::new(),
            mapped_pages: 0,
            mapped_bytes: [0; 2],
        }
    }

    /// Maps `count` pages starting at `start` (page-aligned) onto `kind`,
    /// owned by space `space`.
    ///
    /// Remapping an already-mapped page updates its kind and owner and keeps
    /// the byte accounting consistent.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page-aligned.
    pub fn map_pages(&mut self, start: Address, count: usize, kind: MemoryKind, space: u8) {
        assert!(
            start.is_aligned(PAGE_SIZE),
            "page map request not page-aligned: {start}"
        );
        let first = start.page().0;
        for p in first..first + count as u64 {
            let entry = self.pages.entry(p);
            match PageInfo::unpack(*entry) {
                Some(prev) => self.mapped_bytes[prev.kind as usize] -= PAGE_SIZE as u64,
                None => self.mapped_pages += 1,
            }
            *entry = PageInfo { kind, space }.pack();
            self.mapped_bytes[kind as usize] += PAGE_SIZE as u64;
        }
    }

    /// Unmaps `count` pages starting at `start`. Unmapped pages are ignored.
    pub fn unmap_pages(&mut self, start: Address, count: usize) {
        let first = start.page().0;
        for p in first..first + count as u64 {
            let Some(entry) = self.pages.get_mut(p) else {
                continue;
            };
            if let Some(prev) = PageInfo::unpack(std::mem::take(entry)) {
                self.mapped_bytes[prev.kind as usize] -= PAGE_SIZE as u64;
                self.mapped_pages -= 1;
            }
        }
    }

    /// Changes the memory technology backing the page containing `page`
    /// (used by OS page migration). Returns the previous kind, or `None` if
    /// the page was not mapped.
    pub fn migrate_page(&mut self, page: PageId, to: MemoryKind) -> Option<MemoryKind> {
        let entry = self.pages.get_mut(page.0)?;
        let info = PageInfo::unpack(*entry)?;
        if info.kind != to {
            *entry = PageInfo { kind: to, ..info }.pack();
            self.mapped_bytes[info.kind as usize] -= PAGE_SIZE as u64;
            self.mapped_bytes[to as usize] += PAGE_SIZE as u64;
        }
        Some(info.kind)
    }

    /// Returns the placement information of `page`, if mapped.
    #[inline]
    pub fn page_info(&self, page: PageId) -> Option<PageInfo> {
        PageInfo::unpack(*self.pages.get(page.0)?)
    }

    /// Returns the placement information of the page containing `addr`.
    pub fn info(&self, addr: Address) -> Option<PageInfo> {
        self.page_info(addr.page())
    }

    /// Returns the memory technology backing the page containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped; accessing unmapped memory is a
    /// simulator invariant violation.
    pub fn kind_of(&self, addr: Address) -> MemoryKind {
        self.info(addr)
            .unwrap_or_else(|| panic!("access to unmapped address {addr}"))
            .kind
    }

    /// Returns the kind of a page by id, if mapped.
    pub fn kind_of_page(&self, page: PageId) -> Option<MemoryKind> {
        self.page_info(page).map(|i| i.kind)
    }

    /// Returns `true` if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: Address) -> bool {
        self.info(addr).is_some()
    }

    /// Total bytes currently mapped onto `kind`.
    pub fn mapped_bytes(&self, kind: MemoryKind) -> u64 {
        self.mapped_bytes[kind as usize]
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// Iterates over all mapped pages and their placement information, in
    /// ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, PageInfo)> + '_ {
        self.pages
            .iter()
            .filter_map(|(p, &entry)| Some((PageId(p), PageInfo::unpack(entry)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_query() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1000), 4, MemoryKind::Pcm, 3);
        assert_eq!(map.kind_of(Address::new(0x1000)), MemoryKind::Pcm);
        assert_eq!(map.kind_of(Address::new(0x4fff)), MemoryKind::Pcm);
        assert!(!map.is_mapped(Address::new(0x5000)));
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), 4 * PAGE_SIZE as u64);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), 0);
        assert_eq!(map.info(Address::new(0x1008)).unwrap().space, 3);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_access_panics() {
        let map = PageMap::new();
        map.kind_of(Address::new(0x1000));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_map_panics() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1001), 1, MemoryKind::Dram, 0);
    }

    #[test]
    fn migrate_flips_kind_and_accounting() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x2000), 2, MemoryKind::Pcm, 1);
        let prev = map.migrate_page(Address::new(0x2000).page(), MemoryKind::Dram);
        assert_eq!(prev, Some(MemoryKind::Pcm));
        assert_eq!(map.kind_of(Address::new(0x2000)), MemoryKind::Dram);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), PAGE_SIZE as u64);
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), PAGE_SIZE as u64);
        // Migrating to the same kind is a no-op.
        assert_eq!(
            map.migrate_page(Address::new(0x2000).page(), MemoryKind::Dram),
            Some(MemoryKind::Dram)
        );
    }

    #[test]
    fn unmap_releases_bytes() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x8000), 8, MemoryKind::Dram, 0);
        map.unmap_pages(Address::new(0x8000), 8);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), 0);
        assert_eq!(map.mapped_pages(), 0);
    }

    #[test]
    fn remapping_existing_page_adjusts_accounting() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x3000), 1, MemoryKind::Pcm, 0);
        map.map_pages(Address::new(0x3000), 1, MemoryKind::Dram, 1);
        assert_eq!(map.mapped_bytes(MemoryKind::Pcm), 0);
        assert_eq!(map.mapped_bytes(MemoryKind::Dram), PAGE_SIZE as u64);
        assert_eq!(map.info(Address::new(0x3000)).unwrap().space, 1);
    }

    #[test]
    fn iteration_ascends_and_skips_unmapped_pages() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(1 << 30), 2, MemoryKind::Dram, 2);
        map.map_pages(Address::new(0x3000), 3, MemoryKind::Pcm, 1);
        map.unmap_pages(Address::new(0x4000), 1);
        let pages: Vec<u64> = map.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, vec![3, 5, 1 << 18, (1 << 18) + 1]);
        assert_eq!(map.mapped_pages(), 4);
    }

    #[test]
    fn a_far_page_does_not_allocate_a_table_spanning_the_gap() {
        let mut map = PageMap::new();
        map.map_pages(Address::new(0x1000), 1, MemoryKind::Dram, 0);
        map.map_pages(Address::new(40 << 30), 1, MemoryKind::Pcm, 0);
        // Unmapping or querying never-mapped ranges allocates nothing.
        map.unmap_pages(Address::new(33 << 30), 1 << 20);
        assert!(!map.is_mapped(Address::new(20 << 30)));
        assert_eq!(map.pages.allocated_entries(), 2, "one entry per mapped page");
        assert_eq!(map.kind_of(Address::new(40 << 30)), MemoryKind::Pcm);
    }
}
