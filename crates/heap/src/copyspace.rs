//! Contiguous copy spaces: the nursery and the observer space.
//!
//! Both the nursery and KG-W's observer space are contiguous bump-allocated
//! regions whose survivors are evacuated elsewhere during collection, after
//! which the whole region is reset. The observer space is simply a second
//! copy space that is twice the nursery size (Section 4.2.1).

use hybrid_mem::{MemoryKind, MemorySystem, Phase};

use crate::bump::BumpAllocator;
use crate::object::{ObjectRef, ObjectShape};
use crate::space::{SpaceId, SpaceUsage};

/// A contiguous, bump-allocated, wholesale-evacuated space.
#[derive(Debug)]
pub struct CopySpace {
    id: SpaceId,
    kind: MemoryKind,
    bump: BumpAllocator,
}

impl CopySpace {
    /// Creates a copy space of `capacity` bytes backed by `kind` memory.
    /// The caller reserves the extent from the memory system and passes its
    /// base address via `base`.
    pub fn new(id: SpaceId, kind: MemoryKind, base: hybrid_mem::Address, capacity: usize) -> Self {
        CopySpace {
            id,
            kind,
            bump: BumpAllocator::new(base, capacity),
        }
    }

    /// This space's identifier.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The memory technology backing this space.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bump.limit().diff(self.bump.base())
    }

    /// Base address of this space's reserved region (for passive
    /// inspection; see the `kingsguard-check` sanitizer).
    pub fn base(&self) -> hybrid_mem::Address {
        self.bump.base()
    }

    /// Bytes currently allocated (since the last reset).
    pub fn used_bytes(&self) -> usize {
        self.bump.used_bytes()
    }

    /// Remaining free bytes.
    pub fn free_bytes(&self) -> usize {
        self.bump.remaining_bytes()
    }

    /// Returns `true` if `addr` points into currently allocated memory of
    /// this space.
    pub fn contains(&self, addr: hybrid_mem::Address) -> bool {
        self.bump.contains(addr)
    }

    /// Returns `true` if `addr` lies in this space's reserved region
    /// (allocated or not).
    pub fn in_region(&self, addr: hybrid_mem::Address) -> bool {
        self.bump.in_region(addr)
    }

    /// Allocates and initialises an object of `shape` from the raw `site`
    /// (0 for none), charging the zeroing and header-initialisation writes
    /// to `phase`.
    ///
    /// Returns `None` when the space is full — the collector's cue to run.
    pub fn alloc(
        &mut self,
        mem: &mut MemorySystem,
        shape: ObjectShape,
        type_id: u16,
        site: u32,
        phase: Phase,
    ) -> Option<ObjectRef> {
        let addr = self.bump.alloc(mem, shape.size(), self.kind, self.id)?;
        Some(self.init_object(mem, addr, shape, type_id, site, phase))
    }

    /// Zero-fills and initialises a freshly allocated object at `addr` and
    /// counts it against this space's cumulative totals. This is the second
    /// half of [`CopySpace::alloc`], exposed so the TLAB fast path (bump
    /// inside a window carved with [`CopySpace::carve_tlab`]) performs the
    /// identical initialisation sequence: memory is zeroed first (the "Why
    /// Nothing Matters" zeroing writes), then the header is initialised.
    pub fn init_object(
        &mut self,
        mem: &mut MemorySystem,
        addr: hybrid_mem::Address,
        shape: ObjectShape,
        type_id: u16,
        site: u32,
        phase: Phase,
    ) -> ObjectRef {
        let size = shape.size();
        mem.zero(addr, size, phase);
        let obj = ObjectRef::from_address(addr);
        obj.initialize(mem, shape, type_id, site, phase);
        obj
    }

    /// Allocates raw room for a copied object of `size` bytes without
    /// zeroing (the collector copies the full object bytes over it).
    pub fn alloc_for_copy(&mut self, mem: &mut MemorySystem, size: usize) -> Option<hybrid_mem::Address> {
        self.bump.alloc(mem, size, self.kind, self.id)
    }

    /// Carves a thread-local allocation window for a mutator context: at
    /// least `min_size` bytes, at most `max(chunk_size, min_size)`
    /// (`chunk_size == 0` carves exactly `min_size` — see [`crate::tlab`]).
    /// Objects bump-allocated inside the window are initialised and counted
    /// through [`CopySpace::init_object`]. Returns `None` when the space
    /// cannot fit `min_size` — the mutator's cue to request a collection.
    pub fn carve_tlab(
        &mut self,
        mem: &mut MemorySystem,
        min_size: usize,
        chunk_size: usize,
    ) -> Option<crate::tlab::Tlab> {
        self.bump.carve(mem, min_size, chunk_size, self.kind, self.id)
    }

    /// Resets the space after its survivors have been evacuated.
    pub fn reset(&mut self) {
        self.bump.reset();
    }

    /// Current usage snapshot.
    pub fn usage(&self) -> SpaceUsage {
        SpaceUsage {
            used_bytes: self.bump.used_bytes(),
            mapped_bytes: self.bump.mapped_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::{Address, MemoryConfig};

    fn setup(capacity: usize) -> (MemorySystem, CopySpace) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("nursery", capacity);
        (
            mem,
            CopySpace::new(SpaceId::NURSERY, MemoryKind::Dram, base, capacity),
        )
    }

    #[test]
    fn alloc_initialises_header_and_tracks_usage() {
        let (mut mem, mut space) = setup(64 * 1024);
        let shape = ObjectShape::new(2, 16);
        let obj = space.alloc(&mut mem, shape, 5, 0, Phase::Mutator).unwrap();
        assert_eq!(obj.shape(&mut mem, Phase::Mutator), shape);
        assert_eq!(space.used_bytes(), shape.size());
        assert!(space.contains(obj.address()));
        assert_eq!(mem.kind_of(obj.address()), MemoryKind::Dram);
    }

    #[test]
    fn alloc_returns_none_when_full() {
        let (mut mem, mut space) = setup(4096);
        let shape = ObjectShape::new(0, 1000);
        let mut count = 0;
        while space.alloc(&mut mem, shape, 0, 0, Phase::Mutator).is_some() {
            count += 1;
        }
        assert_eq!(count, 4096 / shape.size());
        assert!(space.free_bytes() < shape.size());
    }

    #[test]
    fn reset_allows_reuse() {
        let (mut mem, mut space) = setup(8192);
        space
            .alloc(&mut mem, ObjectShape::new(0, 100), 0, 0, Phase::Mutator)
            .unwrap();
        space.reset();
        assert_eq!(space.used_bytes(), 0);
        assert!(space
            .alloc(&mut mem, ObjectShape::new(0, 100), 0, 0, Phase::Mutator)
            .is_some());
    }

    #[test]
    fn alloc_for_copy_reserves_room_in_the_space() {
        let (mut mem, mut space) = setup(8192);
        let addr = space.alloc_for_copy(&mut mem, 128).unwrap();
        assert!(space.contains(addr));
    }

    #[test]
    fn exact_tlab_carving_matches_direct_bump_addresses() {
        let (mut mem, mut space) = setup(64 * 1024);
        let (mut mem2, mut space2) = setup(64 * 1024);
        for size in [24usize, 40, 64, 13] {
            let direct = space.alloc_for_copy(&mut mem, size).unwrap();
            let mut tlab = space2.carve_tlab(&mut mem2, size, 0).unwrap();
            let carved = tlab.alloc(size).unwrap();
            assert_eq!(direct, carved, "exact mode must mirror direct bumping");
            assert_eq!(tlab.remaining_bytes(), 0, "exact windows are single-object");
            space2.init_object(
                &mut mem2,
                carved,
                ObjectShape::primitive(size as u32),
                1,
                0,
                Phase::Mutator,
            );
        }
        assert_eq!(space.used_bytes(), space2.used_bytes());
    }

    #[test]
    fn chunked_tlab_carving_serves_many_objects_per_window() {
        let (mut mem, mut space) = setup(64 * 1024);
        let mut tlab = space.carve_tlab(&mut mem, 32, 1024).unwrap();
        let mut served = 0;
        while tlab.alloc(32).is_some() {
            served += 1;
        }
        assert_eq!(served, 1024 / 32);
        assert_eq!(space.used_bytes(), 1024, "the whole window is carved up front");
        // Exhausted space refuses to carve: the collection trigger.
        let (mut mem3, mut space3) = setup(4096);
        assert!(space3.carve_tlab(&mut mem3, 4096, 0).is_some());
        assert!(space3.carve_tlab(&mut mem3, 8, 1024).is_none());
    }

    #[test]
    fn in_region_covers_unallocated_part() {
        let (_, space) = setup(8192);
        let base = space.bump.base();
        assert!(space.in_region(base.add(5000)));
        assert!(!space.contains(base.add(5000)));
        assert!(!space.in_region(Address::new(64)));
    }
}
