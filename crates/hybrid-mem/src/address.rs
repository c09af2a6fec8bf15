//! Simulated virtual addresses and memory-geometry constants.
//!
//! The heap lives in a simulated 64-bit virtual address space. [`Address`] is
//! a thin newtype over `u64` providing the arithmetic and alignment helpers
//! used throughout the workspace. The geometry constants mirror the values
//! used by the paper (Section 3 and Table 2): 4 KB OS pages, 256 B Immix/PCM
//! lines, 32 KB Immix blocks and 64 B processor cache lines.

use std::fmt;

/// Size of an OS page in bytes. Requests to the simulated OS for DRAM or PCM
/// memory are made at this granularity (Section 4.1 of the paper).
pub const PAGE_SIZE: usize = 4096;

/// Size of an Immix line in bytes. The paper matches the Immix line size to
/// the PCM line size (256 bytes).
pub const LINE_SIZE: usize = 256;

/// Size of an Immix block in bytes (32 KB, a multiple of the page size).
pub const BLOCK_SIZE: usize = 32 * 1024;

/// Size of a processor cache line in bytes.
pub const CACHE_LINE_SIZE: usize = 64;

/// Number of Immix lines per block.
pub const LINES_PER_BLOCK: usize = BLOCK_SIZE / LINE_SIZE;

/// Number of OS pages per Immix block.
pub const PAGES_PER_BLOCK: usize = BLOCK_SIZE / PAGE_SIZE;

/// Number of processor cache lines per OS page.
pub const CACHE_LINES_PER_PAGE: u64 = (PAGE_SIZE / CACHE_LINE_SIZE) as u64;

/// A simulated virtual address.
///
/// Addresses are plain 64-bit values; `Address(0)` is the null address and is
/// never mapped. All arithmetic helpers are wrapping-free and panic on
/// overflow in debug builds, like ordinary integer arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

impl Address {
    /// The null address. Never mapped; used as the "no object" sentinel.
    pub const ZERO: Address = Address(0);

    /// Creates an address from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw 64-bit value of this address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns this address advanced by `offset` bytes.
    pub const fn add(self, offset: usize) -> Self {
        Address(self.0 + offset as u64)
    }

    /// Returns this address moved back by `offset` bytes.
    pub const fn sub(self, offset: usize) -> Self {
        Address(self.0 - offset as u64)
    }

    /// Byte distance from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other > self`.
    pub fn diff(self, other: Address) -> usize {
        debug_assert!(self.0 >= other.0, "address underflow: {self:?} - {other:?}");
        (self.0 - other.0) as usize
    }

    /// Rounds this address down to a multiple of `align` (a power of two).
    pub const fn align_down(self, align: usize) -> Self {
        Address(self.0 & !(align as u64 - 1))
    }

    /// Rounds this address up to a multiple of `align` (a power of two).
    pub const fn align_up(self, align: usize) -> Self {
        Address((self.0 + align as u64 - 1) & !(align as u64 - 1))
    }

    /// Returns `true` if this address is a multiple of `align`.
    pub const fn is_aligned(self, align: usize) -> bool {
        self.0.is_multiple_of(align as u64)
    }

    /// The page containing this address.
    pub const fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE as u64)
    }

    /// The cache line index containing this address.
    pub const fn cache_line(self) -> u64 {
        self.0 / CACHE_LINE_SIZE as u64
    }

    /// The Immix/PCM line index containing this address.
    pub const fn line(self) -> u64 {
        self.0 / LINE_SIZE as u64
    }

    /// The Immix block index containing this address.
    pub const fn block(self) -> u64 {
        self.0 / BLOCK_SIZE as u64
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({:#x})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<Address> for u64 {
    fn from(addr: Address) -> Self {
        addr.0
    }
}

/// Identifier of a 4 KB page in the simulated address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// The first address of this page.
    pub const fn start(self) -> Address {
        Address(self.0 * PAGE_SIZE as u64)
    }

    /// The page immediately following this one.
    pub const fn next(self) -> PageId {
        PageId(self.0 + 1)
    }
}

/// Rounds `bytes` up to a whole number of pages.
pub const fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

/// Rounds `bytes` up to the next multiple of `align` (a power of two).
pub const fn align_up_usize(bytes: usize, align: usize) -> usize {
    (bytes + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_round_trips() {
        let a = Address::new(0x1_0037);
        assert_eq!(a.align_down(16), Address::new(0x1_0030));
        assert_eq!(a.align_up(16), Address::new(0x1_0040));
        assert!(a.align_up(16).is_aligned(16));
        assert!(!a.is_aligned(16));
    }

    #[test]
    fn align_on_boundary_is_identity() {
        let a = Address::new(0x4000);
        assert_eq!(a.align_down(PAGE_SIZE), a);
        assert_eq!(a.align_up(PAGE_SIZE), a);
    }

    #[test]
    fn arithmetic_and_diff() {
        let a = Address::new(0x1000);
        let b = a.add(24);
        assert_eq!(b.diff(a), 24);
        assert_eq!(b.sub(24), a);
    }

    #[test]
    fn page_line_block_indices() {
        let a = Address::new(BLOCK_SIZE as u64 * 3 + 777);
        assert_eq!(a.block(), 3);
        assert_eq!(a.page().0, (BLOCK_SIZE as u64 * 3 + 777) / PAGE_SIZE as u64);
        assert_eq!(a.line(), (BLOCK_SIZE as u64 * 3 + 777) / LINE_SIZE as u64);
    }

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(LINES_PER_BLOCK, 128);
        assert_eq!(PAGES_PER_BLOCK, 8);
        assert_eq!(BLOCK_SIZE % PAGE_SIZE, 0);
        assert_eq!(PAGE_SIZE % LINE_SIZE, 0);
        assert_eq!(LINE_SIZE % CACHE_LINE_SIZE, 0);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for(0), 0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Address::new(0xff)), "0xff");
    }
}
