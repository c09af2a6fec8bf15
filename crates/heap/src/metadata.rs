//! Metadata space and the metadata optimization (MDO).
//!
//! The JVM and collector write object metadata in addition to application
//! data: mark state, remembered-set buffers, treadmill pointers. In the
//! baseline collectors this metadata lives wherever the owning space lives —
//! which, for a PCM mature space, turns every major collection into a PCM
//! write storm (one header write per live object).
//!
//! The metadata optimization of Kingsguard-writers (Section 4.2.5) decouples
//! mark state from PCM objects: for every 4 MB region of the PCM mature
//! space the collector reserves a 262 KB mark-state table in DRAM (a 6.25 %
//! overhead, one byte per 16 object bytes). Objects of 16 bytes or less keep
//! using their header mark bit (they carry a "small" flag).

use hybrid_mem::{Address, DenseTable, MemoryKind, MemorySystem, Phase, PAGE_SIZE};

use crate::bump::BumpAllocator;
use crate::object::ObjectRef;
use crate::space::{SpaceId, SpaceUsage};

/// Size of the PCM region covered by one mark-state table (4 MB).
pub const MARK_TABLE_REGION: usize = 4 << 20;

/// Granularity of mark-state entries: one byte of table per 16 bytes of
/// region, giving the paper's 262 KB (256 KiB) table per 4 MB region.
pub const MARK_TABLE_GRANULE: usize = 16;

/// Size of one mark-state table in bytes.
pub const MARK_TABLE_BYTES: usize = MARK_TABLE_REGION / MARK_TABLE_GRANULE;

/// The metadata space: a bump-allocated region holding collector side
/// metadata (mark-state tables, remembered-set buffers).
#[derive(Debug)]
pub struct MetadataSpace {
    kind: MemoryKind,
    bump: BumpAllocator,
    /// Mark-state table of each 4 MB region, keyed by region number
    /// (`Address::ZERO` = none yet).
    mark_tables: DenseTable<Address, MARK_TABLE_REGION>,
    remset_buffer: Option<Address>,
    remset_cursor: usize,
}

impl MetadataSpace {
    /// Creates a metadata space backed by `kind` memory over `capacity`
    /// bytes starting at `base`.
    pub fn new(kind: MemoryKind, base: Address, capacity: usize) -> Self {
        MetadataSpace {
            kind,
            bump: BumpAllocator::new(base, capacity),
            mark_tables: DenseTable::new(),
            remset_buffer: None,
            remset_cursor: 0,
        }
    }

    /// The memory technology holding the metadata.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Bytes of metadata allocated so far.
    pub fn used_bytes(&self) -> usize {
        self.bump.used_bytes()
    }

    /// Usage snapshot.
    pub fn usage(&self) -> SpaceUsage {
        SpaceUsage {
            used_bytes: self.bump.used_bytes(),
            mapped_bytes: self.bump.mapped_bytes(),
        }
    }

    /// Allocates a raw metadata table of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the metadata space is exhausted; metadata is sized as a
    /// fraction of the heap and exhausting it indicates a configuration
    /// error.
    pub fn alloc_table(&mut self, mem: &mut MemorySystem, bytes: usize) -> Address {
        self.bump
            .alloc(mem, bytes, self.kind, SpaceId::METADATA)
            .expect("metadata space exhausted; increase its capacity")
    }

    fn table_for(&mut self, mem: &mut MemorySystem, region_base: Address) -> Address {
        let region = region_base.raw() / MARK_TABLE_REGION as u64;
        if let Some(&table) = self.mark_tables.get(region).filter(|table| !table.is_zero()) {
            return table;
        }
        let table = self.alloc_table(mem, MARK_TABLE_BYTES);
        *self.mark_tables.entry(region) = table;
        table
    }

    fn mark_entry_addr(&mut self, mem: &mut MemorySystem, obj: ObjectRef) -> Address {
        let region_base = obj.address().align_down(MARK_TABLE_REGION);
        let table = self.table_for(mem, region_base);
        let offset = obj.address().diff(region_base) / MARK_TABLE_GRANULE;
        table.add(offset)
    }

    /// Sets the out-of-object mark state for `obj` (the MDO path). The store
    /// is charged to `phase` and lands in this space's memory technology.
    /// Returns `true` if the object was newly marked.
    pub fn set_object_mark(&mut self, mem: &mut MemorySystem, obj: ObjectRef, phase: Phase) -> bool {
        let addr = self.mark_entry_addr(mem, obj);
        let mut byte = [0u8];
        mem.read_bytes(addr, &mut byte, phase);
        if byte[0] != 0 {
            return false;
        }
        mem.write_bytes(addr, &[1u8], phase);
        true
    }

    /// Clears the mark-state tables at the start of a major collection.
    /// The clearing writes are charged to the collector (`phase`).
    pub fn clear_object_marks(&mut self, mem: &mut MemorySystem, phase: Phase) {
        for (_, &table) in self.mark_tables.iter().filter(|(_, table)| !table.is_zero()) {
            // Zeroing the table is a bulk write over the table bytes.
            mem.zero(table, MARK_TABLE_BYTES, phase);
        }
    }

    /// Accounts one remembered-set buffer store (the write performed by the
    /// generational write barrier when it remembers a slot, Figure 4 lines
    /// 7–12).
    pub fn record_remset_store(&mut self, mem: &mut MemorySystem, phase: Phase) {
        let buffer = match self.remset_buffer {
            Some(buffer) => buffer,
            None => {
                let buffer = self.alloc_table(mem, PAGE_SIZE);
                self.remset_buffer = Some(buffer);
                buffer
            }
        };
        let addr = buffer.add(self.remset_cursor % PAGE_SIZE);
        self.remset_cursor = (self.remset_cursor + 8) % PAGE_SIZE;
        mem.account_write(addr, phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::MemoryConfig;

    impl MetadataSpace {
        /// Reads the out-of-object mark state for `obj`.
        fn object_mark(&mut self, mem: &mut MemorySystem, obj: ObjectRef, phase: Phase) -> bool {
            let addr = self.mark_entry_addr(mem, obj);
            let mut byte = [0u8];
            mem.read_bytes(addr, &mut byte, phase);
            byte[0] != 0
        }

        /// Number of mark-state tables allocated so far.
        fn mark_table_count(&self) -> usize {
            self.mark_tables
                .iter()
                .filter(|(_, table)| !table.is_zero())
                .count()
        }
    }

    fn setup(kind: MemoryKind) -> (MemorySystem, MetadataSpace) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("metadata", 16 << 20);
        (mem, MetadataSpace::new(kind, base, 16 << 20))
    }

    #[test]
    fn mark_state_round_trip_in_dram() {
        let (mut mem, mut meta) = setup(MemoryKind::Dram);
        let obj = ObjectRef::from_address(Address::new(0x4000_0000));
        assert!(!meta.object_mark(&mut mem, obj, Phase::MajorGc));
        assert!(meta.set_object_mark(&mut mem, obj, Phase::MajorGc));
        assert!(
            !meta.set_object_mark(&mut mem, obj, Phase::MajorGc),
            "second mark is not new"
        );
        assert!(meta.object_mark(&mut mem, obj, Phase::MajorGc));
        // The mark stores landed in DRAM, not PCM: that is the whole point
        // of the metadata optimization.
        let stats = mem.stats();
        assert!(stats.writes(MemoryKind::Dram) > 0);
        assert_eq!(stats.writes(MemoryKind::Pcm), 0);
    }

    #[test]
    fn one_table_per_4mb_region() {
        let (mut mem, mut meta) = setup(MemoryKind::Dram);
        let a = ObjectRef::from_address(Address::new(0x4000_0000));
        let b = ObjectRef::from_address(Address::new(0x4000_0000 + 1024));
        let c = ObjectRef::from_address(Address::new(0x4000_0000 + MARK_TABLE_REGION as u64 + 8));
        meta.set_object_mark(&mut mem, a, Phase::MajorGc);
        meta.set_object_mark(&mut mem, b, Phase::MajorGc);
        assert_eq!(meta.mark_table_count(), 1);
        meta.set_object_mark(&mut mem, c, Phase::MajorGc);
        assert_eq!(meta.mark_table_count(), 2);
    }

    #[test]
    fn table_overhead_matches_paper() {
        // 262 KB (256 KiB) per 4 MB region, a 6.25% overhead.
        assert_eq!(MARK_TABLE_BYTES, 256 * 1024);
        assert!((MARK_TABLE_BYTES as f64 / MARK_TABLE_REGION as f64 - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn clear_object_marks_resets_state() {
        let (mut mem, mut meta) = setup(MemoryKind::Dram);
        let obj = ObjectRef::from_address(Address::new(0x5000_0000));
        meta.set_object_mark(&mut mem, obj, Phase::MajorGc);
        meta.clear_object_marks(&mut mem, Phase::MajorGc);
        assert!(!meta.object_mark(&mut mem, obj, Phase::MajorGc));
    }

    #[test]
    fn objects_16_bytes_apart_share_no_entry() {
        let (mut mem, mut meta) = setup(MemoryKind::Dram);
        let a = ObjectRef::from_address(Address::new(0x6000_0000));
        let b = ObjectRef::from_address(Address::new(0x6000_0000 + MARK_TABLE_GRANULE as u64));
        meta.set_object_mark(&mut mem, a, Phase::MajorGc);
        assert!(!meta.object_mark(&mut mem, b, Phase::MajorGc));
    }

    #[test]
    fn remset_stores_are_charged_to_metadata_kind() {
        let (mut mem, mut meta) = setup(MemoryKind::Pcm);
        for _ in 0..10 {
            meta.record_remset_store(&mut mem, Phase::Mutator);
        }
        let stats = mem.stats();
        assert!(stats.phase_writes(MemoryKind::Pcm).get(Phase::Mutator) >= 10);
    }

    #[test]
    fn used_bytes_grow_with_tables() {
        let (mut mem, mut meta) = setup(MemoryKind::Dram);
        assert_eq!(meta.used_bytes(), 0);
        meta.set_object_mark(
            &mut mem,
            ObjectRef::from_address(Address::new(0x7000_0000)),
            Phase::MajorGc,
        );
        assert!(meta.used_bytes() >= MARK_TABLE_BYTES);
        assert!(meta.usage().mapped_bytes >= MARK_TABLE_BYTES);
    }
}
