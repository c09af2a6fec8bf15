//! Object model.
//!
//! Objects are laid out in the simulated heap exactly as a Jikes-style VM
//! would lay them out, with three header words followed by the payload:
//!
//! ```text
//! +0   status word   mark bit (63) | forwarded bit (62) | small-object bit (61)
//!                    | allocation site (40..54) | forwarding pointer (0..40)
//! +8   info word     type id | #reference slots | primitive payload bytes
//! +16  write word    the extra header word added by Kingsguard-writers; the
//!                    write barrier sets bit 0 when the object is written
//! +24  reference slots (8 bytes each)
//! +24+8r  primitive payload (rounded up to 8 bytes)
//! ```
//!
//! The *write word* corresponds to lines 13–17 of the paper's Figure 4: the
//! barrier stores a one into an extra header word of any non-nursery object
//! that is written. The *small-object bit* supports the metadata optimization
//! (MDO): objects of 16 bytes or less keep their mark state in the header
//! rather than in the DRAM mark-state table.
//!
//! The *allocation site* rides in spare status-word bits: a copy carries
//! it, a mark keeps it, and an allocation at a recycled address overwrites
//! a dead object's. It is read host-side ([`ObjectRef::site`]), so it costs
//! no simulated access beyond the header store allocation already makes.

use hybrid_mem::dense::ADDRESS_SPACE;
use hybrid_mem::{Address, MemorySystem, Phase};

/// Bytes of object header (status + info + write words).
pub const HEADER_BYTES: usize = 24;

/// Bytes per reference slot.
pub const REF_SLOT_BYTES: usize = 8;

/// Objects larger than this many bytes are handled by the large object space
/// (the Jikes RVM / Immix default of 8 KB).
pub const LARGE_OBJECT_THRESHOLD: usize = 8 * 1024;

/// Objects of at most this size keep their mark state in the object header
/// even when the metadata optimization is enabled (Section 4.2.5).
pub const SMALL_OBJECT_MDO_THRESHOLD: usize = 16;

const STATUS_OFFSET: usize = 0;
const INFO_OFFSET: usize = 8;
const WRITE_WORD_OFFSET: usize = 16;

/// Byte offset of the status word within the header (for passive
/// inspection via [`hybrid_mem::MemorySystem::peek_u64`]).
pub const STATUS_WORD_OFFSET: usize = STATUS_OFFSET;

/// Byte offset of the info word within the header (for passive inspection).
pub const INFO_WORD_OFFSET: usize = INFO_OFFSET;

/// Decodes a raw info word into the object's shape and type id — the
/// inverse of the encoding written by [`ObjectRef::initialize`]. The
/// `kingsguard-check` sanitizer peeks the word from the backing store and
/// decodes it host-side so header validation adds no simulated traffic.
pub fn decode_info_word(info: u64) -> (ObjectShape, u16) {
    let type_id = (info >> 48) as u16;
    let ref_slots = ((info >> 32) & 0xffff) as u16;
    let payload_bytes = (info & 0xffff_ffff) as u32;
    (ObjectShape::new(ref_slots, payload_bytes), type_id)
}

/// Decodes the allocation site (its raw id; 0 is the unknown site) from a
/// raw status word, the inverse of what [`ObjectRef::initialize`] stores.
pub fn status_word_site(status: u64) -> u32 {
    ((status >> SITE_SHIFT) & SITE_MASK) as u32
}

/// Returns `true` if a raw status word has the forwarded bit set (the
/// object's contents have been evacuated and the header now holds a
/// forwarding pointer). A live, reachable object must never carry this bit
/// outside a collection.
pub fn status_word_is_forwarded(status: u64) -> bool {
    status & FORWARDED_BIT != 0
}

const MARK_BIT: u64 = 1 << 63;
const FORWARDED_BIT: u64 = 1 << 62;
const SMALL_BIT: u64 = 1 << 61;
const ADDRESS_MASK: u64 = ADDRESS_SPACE - 1;

/// Width of the status word's allocation-site field: site ids below
/// `1 << SITE_BITS` fit.
pub const SITE_BITS: u32 = 14;
const SITE_SHIFT: u32 = 40;
const SITE_MASK: u64 = (1 << SITE_BITS) - 1;
// The site field lies between the forwarding pointer and the flag bits.
const _: () = assert!(ADDRESS_SPACE == 1 << SITE_SHIFT && SITE_SHIFT + SITE_BITS <= 61);

/// Shape of an object: how many reference slots and how many primitive
/// payload bytes it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectShape {
    /// Number of reference (pointer) slots.
    pub ref_slots: u16,
    /// Primitive payload size in bytes (not counting reference slots).
    pub payload_bytes: u32,
}

impl ObjectShape {
    /// Creates a shape with `ref_slots` reference slots and `payload_bytes`
    /// bytes of primitive data.
    pub fn new(ref_slots: u16, payload_bytes: u32) -> Self {
        ObjectShape {
            ref_slots,
            payload_bytes,
        }
    }

    /// A pure primitive object (e.g. a `byte[]`).
    pub fn primitive(payload_bytes: u32) -> Self {
        Self::new(0, payload_bytes)
    }

    /// Total size of an object of this shape in bytes, including the header,
    /// rounded up to 8 bytes.
    pub fn size(&self) -> usize {
        let payload = (self.payload_bytes as usize + 7) & !7;
        HEADER_BYTES + self.ref_slots as usize * REF_SLOT_BYTES + payload
    }

    /// Returns `true` if an object of this shape must be allocated in the
    /// large object space.
    pub fn is_large(&self) -> bool {
        self.size() > LARGE_OBJECT_THRESHOLD
    }

    /// Returns `true` if objects of this shape are "small" for the purposes
    /// of the metadata optimization: at most 16 bytes of payload beyond the
    /// header (the paper's "objects 16 bytes and smaller", whose mark state
    /// stays in the header).
    pub fn is_mdo_small(&self) -> bool {
        let payload = (self.payload_bytes as usize + 7) & !7;
        self.ref_slots as usize * REF_SLOT_BYTES + payload <= SMALL_OBJECT_MDO_THRESHOLD
    }
}

/// A reference to a heap object (the address of its header).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef(pub Address);

impl std::fmt::Debug for ObjectRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObjectRef({:#x})", self.0.raw())
    }
}

impl ObjectRef {
    /// The null object reference.
    pub const NULL: ObjectRef = ObjectRef(Address::ZERO);

    /// Creates an object reference from a raw address.
    pub const fn from_address(addr: Address) -> Self {
        ObjectRef(addr)
    }

    /// The address of the object header.
    pub const fn address(self) -> Address {
        self.0
    }

    /// Returns `true` if this is the null reference.
    pub const fn is_null(self) -> bool {
        self.0.is_zero()
    }

    /// Writes a fresh header for an object of `shape` allocated at `site`
    /// (a raw site id, 0 for none) at this address.
    ///
    /// The caller (the allocator) has already zeroed the object's memory;
    /// this charges the header-initialisation stores to `phase`.
    pub fn initialize(
        self,
        mem: &mut MemorySystem,
        shape: ObjectShape,
        type_id: u16,
        site: u32,
        phase: Phase,
    ) {
        debug_assert!(u64::from(site) <= SITE_MASK, "site {site} overflows the header");
        let mut status = u64::from(site) << SITE_SHIFT;
        if shape.is_mdo_small() {
            status |= SMALL_BIT;
        }
        mem.write_u64(self.0.add(STATUS_OFFSET), status, phase);
        let info = (type_id as u64) << 48 | (shape.ref_slots as u64) << 32 | shape.payload_bytes as u64;
        mem.write_u64(self.0.add(INFO_OFFSET), info, phase);
        mem.write_u64(self.0.add(WRITE_WORD_OFFSET), 0, phase);
    }

    /// Reads this object's shape from its info word.
    pub fn shape(self, mem: &mut MemorySystem, phase: Phase) -> ObjectShape {
        let info = mem.read_u64(self.0.add(INFO_OFFSET), phase);
        ObjectShape {
            ref_slots: ((info >> 32) & 0xffff) as u16,
            payload_bytes: (info & 0xffff_ffff) as u32,
        }
    }

    /// The raw id of the site this object was allocated at (0 if unknown),
    /// read host-side from the status word: no simulated access. Panics if
    /// the object's page is unmapped.
    pub fn site(self, mem: &MemorySystem) -> u32 {
        let addr = self.0.add(STATUS_OFFSET);
        status_word_site(mem.peek_u64(addr).expect("a live object is mapped"))
    }

    /// Reads this object's type id.
    pub fn type_id(self, mem: &mut MemorySystem, phase: Phase) -> u16 {
        (mem.read_u64(self.0.add(INFO_OFFSET), phase) >> 48) as u16
    }

    /// Total object size in bytes.
    pub fn size(self, mem: &mut MemorySystem, phase: Phase) -> usize {
        self.shape(mem, phase).size()
    }

    /// Address of reference slot `index`.
    ///
    /// # Panics
    ///
    /// Does not bounds-check in release builds; callers obtain the slot count
    /// from [`ObjectRef::shape`].
    pub fn ref_slot(self, index: usize) -> Address {
        self.0.add(HEADER_BYTES + index * REF_SLOT_BYTES)
    }

    /// Address of the primitive payload byte at `offset`.
    pub fn payload_addr(self, mem: &mut MemorySystem, offset: usize, phase: Phase) -> Address {
        let shape = self.shape(mem, phase);
        self.0
            .add(HEADER_BYTES + shape.ref_slots as usize * REF_SLOT_BYTES + offset)
    }

    /// Reads reference slot `index`.
    pub fn read_ref(self, mem: &mut MemorySystem, index: usize, phase: Phase) -> ObjectRef {
        ObjectRef(Address::new(mem.read_u64(self.ref_slot(index), phase)))
    }

    /// Stores `target` into reference slot `index` **without** any write
    /// barrier. Collectors use this when updating references after copying.
    pub fn write_ref_raw(self, mem: &mut MemorySystem, index: usize, target: ObjectRef, phase: Phase) {
        mem.write_u64(self.ref_slot(index), target.address().raw(), phase);
    }

    // ----- status word -------------------------------------------------

    fn status(self, mem: &mut MemorySystem, phase: Phase) -> u64 {
        mem.read_u64(self.0.add(STATUS_OFFSET), phase)
    }

    fn set_status(self, mem: &mut MemorySystem, status: u64, phase: Phase) {
        mem.write_u64(self.0.add(STATUS_OFFSET), status, phase);
    }

    /// Sets or clears the header mark bit. The store is performed (and
    /// charged to `phase`) even when the bit already has the requested value,
    /// matching the unconditional mark store a real collector performs.
    pub fn set_marked(self, mem: &mut MemorySystem, marked: bool, phase: Phase) {
        let status = self.status(mem, phase);
        let new = if marked {
            status | MARK_BIT
        } else {
            status & !MARK_BIT
        };
        self.set_status(mem, new, phase);
    }

    /// Returns `true` if the object is flagged "small" for MDO purposes.
    pub fn is_mdo_small(self, mem: &mut MemorySystem, phase: Phase) -> bool {
        self.status(mem, phase) & SMALL_BIT != 0
    }

    /// Returns `true` if this object has been forwarded (copied elsewhere
    /// during the in-progress collection).
    pub fn is_forwarded(self, mem: &mut MemorySystem, phase: Phase) -> bool {
        self.status(mem, phase) & FORWARDED_BIT != 0
    }

    /// Returns the forwarding pointer installed by a collection.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the object is not forwarded.
    pub fn forwarding(self, mem: &mut MemorySystem, phase: Phase) -> ObjectRef {
        let status = self.status(mem, phase);
        debug_assert!(status & FORWARDED_BIT != 0, "object {self:?} is not forwarded");
        ObjectRef(Address::new(status & ADDRESS_MASK))
    }

    /// Installs a forwarding pointer to `target` in this object's header.
    pub fn set_forwarding(self, mem: &mut MemorySystem, target: ObjectRef, phase: Phase) {
        let status = self.status(mem, phase);
        let preserved = status & SMALL_BIT;
        self.set_status(
            mem,
            preserved | FORWARDED_BIT | (target.address().raw() & ADDRESS_MASK),
            phase,
        );
    }

    // ----- write word ---------------------------------------------------

    /// Returns `true` if the write barrier has recorded a write to this
    /// object since the bit was last reset.
    pub fn is_written(self, mem: &mut MemorySystem, phase: Phase) -> bool {
        mem.read_u64(self.0.add(WRITE_WORD_OFFSET), phase) & 1 != 0
    }

    /// Sets the write bit (the store of Figure 4, lines 13–17).
    pub fn set_written(self, mem: &mut MemorySystem, phase: Phase) {
        mem.write_u64(self.0.add(WRITE_WORD_OFFSET), 1, phase);
    }

    /// Clears the write bit (done when KG-W moves a written PCM object back
    /// to DRAM, Section 4.2.3).
    pub fn clear_written(self, mem: &mut MemorySystem, phase: Phase) {
        mem.write_u64(self.0.add(WRITE_WORD_OFFSET), 0, phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::{MemoryConfig, MemoryKind};

    impl ObjectRef {
        /// Returns `true` if the mark bit in the object header is set.
        fn is_marked(self, mem: &mut MemorySystem, phase: Phase) -> bool {
            self.status(mem, phase) & MARK_BIT != 0
        }
    }

    fn setup() -> (MemorySystem, ObjectRef) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("objects", 1 << 20);
        mem.map_pages(base, 16, MemoryKind::Dram, 0);
        (mem, ObjectRef::from_address(base.add(64)))
    }

    #[test]
    fn shape_size_and_classification() {
        assert_eq!(ObjectShape::new(0, 0).size(), HEADER_BYTES);
        assert_eq!(ObjectShape::new(2, 9).size(), HEADER_BYTES + 16 + 16);
        assert!(!ObjectShape::new(2, 16).is_large());
        assert!(ObjectShape::primitive(16 * 1024).is_large());
        assert!(ObjectShape::new(0, 0).is_mdo_small());
        assert!(!ObjectShape::new(4, 64).is_mdo_small());
    }

    #[test]
    fn initialize_and_read_back_shape() {
        let (mut mem, obj) = setup();
        let shape = ObjectShape::new(3, 40);
        obj.initialize(&mut mem, shape, 17, 0, Phase::Mutator);
        assert_eq!(obj.shape(&mut mem, Phase::Mutator), shape);
        assert_eq!(obj.type_id(&mut mem, Phase::Mutator), 17);
        assert_eq!(obj.size(&mut mem, Phase::Mutator), shape.size());
        assert!(!obj.is_marked(&mut mem, Phase::Mutator));
        assert!(!obj.is_written(&mut mem, Phase::Mutator));
        assert!(!obj.is_forwarded(&mut mem, Phase::Mutator));
        assert!(!obj.is_mdo_small(&mut mem, Phase::Mutator));
    }

    #[test]
    fn small_objects_get_small_bit() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(0, 0), 0, 0, Phase::Mutator);
        assert!(obj.is_mdo_small(&mut mem, Phase::Mutator));
    }

    #[test]
    fn mark_bit_round_trip() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(1, 8), 1, 0, Phase::Mutator);
        obj.set_marked(&mut mem, true, Phase::MajorGc);
        assert!(obj.is_marked(&mut mem, Phase::MajorGc));
        obj.set_marked(&mut mem, false, Phase::MajorGc);
        assert!(!obj.is_marked(&mut mem, Phase::MajorGc));
    }

    #[test]
    fn write_bit_round_trip() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(1, 8), 1, 0, Phase::Mutator);
        obj.set_written(&mut mem, Phase::Mutator);
        assert!(obj.is_written(&mut mem, Phase::Mutator));
        obj.clear_written(&mut mem, Phase::MajorGc);
        assert!(!obj.is_written(&mut mem, Phase::Mutator));
    }

    #[test]
    fn forwarding_preserves_small_bit() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(0, 0), 1, 0, Phase::Mutator);
        let target = ObjectRef::from_address(obj.address().add(4096));
        obj.set_forwarding(&mut mem, target, Phase::NurseryGc);
        assert!(obj.is_forwarded(&mut mem, Phase::NurseryGc));
        assert_eq!(obj.forwarding(&mut mem, Phase::NurseryGc), target);
        assert!(obj.is_mdo_small(&mut mem, Phase::NurseryGc));
    }

    #[test]
    fn reference_slots_read_write() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(2, 0), 1, 0, Phase::Mutator);
        let target = ObjectRef::from_address(obj.address().add(1024));
        obj.write_ref_raw(&mut mem, 1, target, Phase::Mutator);
        assert_eq!(obj.read_ref(&mut mem, 1, Phase::Mutator), target);
        assert!(obj.read_ref(&mut mem, 0, Phase::Mutator).is_null());
    }

    #[test]
    fn payload_address_is_after_ref_slots() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(2, 32), 1, 0, Phase::Mutator);
        let payload = obj.payload_addr(&mut mem, 4, Phase::Mutator);
        assert_eq!(payload, obj.address().add(HEADER_BYTES + 16 + 4));
    }

    #[test]
    fn initialize_stores_the_site_in_the_status_word() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(0, 0), 3, 17, Phase::Mutator);
        assert_eq!(obj.site(&mem), 17);
        assert!(
            obj.is_mdo_small(&mut mem, Phase::Mutator),
            "the flags keep their bits"
        );
        let widest = (1 << SITE_BITS) - 1;
        obj.initialize(&mut mem, ObjectShape::new(4, 64), 3, widest, Phase::Mutator);
        assert_eq!(obj.site(&mem), widest);
        assert!(!obj.is_mdo_small(&mut mem, Phase::Mutator));
        assert_eq!(obj.type_id(&mut mem, Phase::Mutator), 3);
    }

    #[test]
    fn marking_keeps_the_site() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(1, 8), 1, 9, Phase::Mutator);
        obj.set_marked(&mut mem, true, Phase::MajorGc);
        assert_eq!(obj.site(&mem), 9);
        obj.set_marked(&mut mem, false, Phase::MajorGc);
        assert_eq!(obj.site(&mem), 9);
    }

    #[test]
    fn a_copy_carries_the_site() {
        let (mut mem, obj) = setup();
        let shape = ObjectShape::new(1, 8);
        obj.initialize(&mut mem, shape, 1, 42, Phase::Mutator);
        obj.set_written(&mut mem, Phase::Mutator);
        let copy = ObjectRef::from_address(obj.address().add(4096));
        mem.copy(obj.address(), copy.address(), shape.size(), Phase::NurseryGc);
        copy.clear_written(&mut mem, Phase::NurseryGc);
        obj.set_forwarding(&mut mem, copy, Phase::NurseryGc);
        assert_eq!(
            copy.site(&mem),
            42,
            "clearing the write word leaves the status word alone"
        );
        assert_eq!(obj.forwarding(&mut mem, Phase::NurseryGc), copy);
    }

    #[test]
    fn reinitialising_a_recycled_address_overwrites_a_stale_site() {
        let (mut mem, obj) = setup();
        obj.initialize(&mut mem, ObjectShape::new(0, 16), 1, 7, Phase::Mutator);
        obj.initialize(&mut mem, ObjectShape::new(0, 16), 1, 8, Phase::Mutator);
        assert_eq!(obj.site(&mem), 8);
        obj.initialize(&mut mem, ObjectShape::new(0, 16), 1, 0, Phase::Mutator);
        assert_eq!(obj.site(&mem), 0, "an untagged arrival inherits no site");
    }

    #[test]
    fn forwarding_decodes_a_target_at_the_top_of_the_address_space() {
        let (mut mem, obj) = setup();
        obj.initialize(
            &mut mem,
            ObjectShape::new(0, 0),
            1,
            (1 << SITE_BITS) - 1,
            Phase::Mutator,
        );
        let target = ObjectRef::from_address(Address::new(ADDRESS_SPACE - 8));
        obj.set_forwarding(&mut mem, target, Phase::NurseryGc);
        assert_eq!(obj.forwarding(&mut mem, Phase::NurseryGc), target);
        assert!(obj.is_mdo_small(&mut mem, Phase::NurseryGc));
    }
}
