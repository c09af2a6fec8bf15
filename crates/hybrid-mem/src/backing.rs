//! Byte-level backing store for the simulated address space.
//!
//! The simulated virtual address space is sparse: spaces reserve large
//! extents but only touch a few megabytes. [`ChunkedMemory`] materialises
//! fixed-size chunks lazily on first write so that reserving a 32 GB PCM
//! extent costs nothing until the heap actually uses it. The chunk
//! directory is a [`DenseTable`] (one pointer per 64 KB of touched range),
//! so finding the chunk behind an address is two array indexations.

use crate::address::Address;
use crate::dense::DenseTable;

/// Size of a lazily-allocated backing chunk in bytes (64 KB).
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Sparse, chunked byte store indexed by simulated virtual address.
///
/// Reads from never-written memory return zero, matching the zero-initialised
/// pages a real OS hands to the JVM.
#[derive(Debug, Default)]
pub struct ChunkedMemory {
    chunks: DenseTable<Option<Box<[u8]>>, CHUNK_SIZE>,
    resident_chunks: usize,
}

impl ChunkedMemory {
    /// Creates an empty backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of chunks that have been materialised.
    pub fn resident_chunks(&self) -> usize {
        self.resident_chunks
    }

    /// Bytes of host memory used by materialised chunks.
    pub fn resident_bytes(&self) -> usize {
        self.resident_chunks * CHUNK_SIZE
    }

    /// Splits `addr` into its chunk index and the offset within the chunk.
    #[inline]
    fn chunk_index(addr: Address) -> (u64, usize) {
        (
            addr.raw() / CHUNK_SIZE as u64,
            (addr.raw() % CHUNK_SIZE as u64) as usize,
        )
    }

    #[inline]
    fn chunk(&self, index: u64) -> Option<&[u8]> {
        self.chunks.get(index)?.as_deref()
    }

    #[inline]
    fn chunk_mut(&mut self, index: u64) -> &mut [u8] {
        let resident = &mut self.resident_chunks;
        self.chunks
            .entry(index)
            .get_or_insert_with(|| Self::materialise(resident))
    }

    fn materialise(resident: &mut usize) -> Box<[u8]> {
        *resident += 1;
        vec![0u8; CHUNK_SIZE].into_boxed_slice()
    }

    /// Reads a little-endian `u64` at `addr`.
    #[inline]
    pub fn read_u64(&self, addr: Address) -> u64 {
        let (index, offset) = Self::chunk_index(addr);
        if offset % 8 != 0 {
            // Only an unaligned word can straddle two chunks; an aligned one
            // is indexed once and loaded.
            let mut buf = [0u8; 8];
            self.read_bytes(addr, &mut buf);
            return u64::from_le_bytes(buf);
        }
        match self.chunk(index) {
            Some(chunk) => u64::from_le_bytes(chunk[offset..offset + 8].try_into().expect("8 bytes")),
            None => 0,
        }
    }

    /// Writes a little-endian `u64` at `addr`.
    #[inline]
    pub fn write_u64(&mut self, addr: Address, value: u64) {
        let (index, offset) = Self::chunk_index(addr);
        if offset % 8 != 0 {
            self.write_bytes(addr, &value.to_le_bytes());
            return;
        }
        let chunk = self.chunk_mut(index);
        chunk[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read_bytes(&self, addr: Address, buf: &mut [u8]) {
        let mut copied = 0;
        while copied < buf.len() {
            let (index, offset) = Self::chunk_index(addr.add(copied));
            let take = (CHUNK_SIZE - offset).min(buf.len() - copied);
            match self.chunk(index) {
                Some(chunk) => buf[copied..copied + take].copy_from_slice(&chunk[offset..offset + take]),
                None => buf[copied..copied + take].fill(0),
            }
            copied += take;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Address, buf: &[u8]) {
        let mut copied = 0;
        while copied < buf.len() {
            let (index, offset) = Self::chunk_index(addr.add(copied));
            let take = (CHUNK_SIZE - offset).min(buf.len() - copied);
            let chunk = self.chunk_mut(index);
            chunk[offset..offset + take].copy_from_slice(&buf[copied..copied + take]);
            copied += take;
        }
    }

    /// Copies `len` bytes from `src` to `dst`, chunk piece by chunk piece in
    /// place. Overlapping ranges copy as through a temporary (the pieces run
    /// backwards when `dst` is above `src`), although in practice copies
    /// always target a fresh allocation.
    pub fn copy(&mut self, src: Address, dst: Address, len: usize) {
        let backwards = dst > src;
        let mut done = 0;
        while done < len {
            // Forwards the next piece starts `done` bytes in; backwards it
            // ends `done` bytes before the end. `room` is how far a piece
            // can run from that edge, in its direction, within one chunk.
            let edge = if backwards { len - done } else { done };
            let room = |addr: Address| match (backwards, Self::chunk_index(addr).1) {
                (true, 0) => CHUNK_SIZE,
                (true, offset) => offset,
                (false, offset) => CHUNK_SIZE - offset,
            };
            let take = (len - done).min(room(src.add(edge))).min(room(dst.add(edge)));
            let start = if backwards { edge - take } else { edge };
            self.copy_piece(src.add(start), dst.add(start), take);
            done += take;
        }
    }

    /// Copies `len` bytes that lie within one chunk on either side.
    fn copy_piece(&mut self, src: Address, dst: Address, len: usize) {
        let (src_index, src_offset) = Self::chunk_index(src);
        let (dst_index, dst_offset) = Self::chunk_index(dst);
        if src_index == dst_index {
            self.chunk_mut(dst_index)
                .copy_within(src_offset..src_offset + len, dst_offset);
            return;
        }
        // Detach the destination chunk so the source can be borrowed beside it.
        let detached = self.chunks.entry(dst_index).take();
        let mut target = detached.unwrap_or_else(|| Self::materialise(&mut self.resident_chunks));
        match self.chunk(src_index) {
            Some(source) => {
                target[dst_offset..dst_offset + len].copy_from_slice(&source[src_offset..src_offset + len]);
            }
            None => target[dst_offset..dst_offset + len].fill(0),
        }
        *self.chunks.entry(dst_index) = Some(target);
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    pub fn fill(&mut self, addr: Address, len: usize, value: u8) {
        let mut filled = 0;
        while filled < len {
            let (index, offset) = Self::chunk_index(addr.add(filled));
            let take = (CHUNK_SIZE - offset).min(len - filled);
            self.chunk_mut(index)[offset..offset + take].fill(value);
            filled += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = ChunkedMemory::new();
        assert_eq!(mem.read_u64(Address::new(0x1234_5678)), 0);
        let mut buf = [1u8; 32];
        mem.read_bytes(Address::new(0x9999), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn u64_round_trip() {
        let mut mem = ChunkedMemory::new();
        let addr = Address::new(0xAB_CDE0);
        mem.write_u64(addr, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(addr), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn writes_spanning_chunk_boundary() {
        let mut mem = ChunkedMemory::new();
        let addr = Address::new(CHUNK_SIZE as u64 - 4);
        let data: Vec<u8> = (0..16u8).collect();
        mem.write_bytes(addr, &data);
        let mut out = [0u8; 16];
        mem.read_bytes(addr, &mut out);
        assert_eq!(&out[..], &data[..]);
        assert_eq!(mem.resident_chunks(), 2);
    }

    #[test]
    fn words_on_a_chunk_boundary() {
        let mut mem = ChunkedMemory::new();
        let boundary = CHUNK_SIZE as u64;
        // An unaligned word straddling the boundary takes the byte path.
        let straddling = Address::new(boundary - 3);
        mem.write_u64(straddling, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(straddling), 0x0102_0304_0506_0708);
        assert_eq!(mem.resident_chunks(), 2);
        let mut bytes = [0u8; 8];
        mem.read_bytes(straddling, &mut bytes);
        assert_eq!(bytes, 0x0102_0304_0506_0708u64.to_le_bytes());
        // The aligned words either side of it are one chunk each and see
        // the straddling word's bytes.
        assert_eq!(mem.read_u64(Address::new(boundary - 8)), 0x0006_0708u64 << 40);
        assert_eq!(mem.read_u64(Address::new(boundary)), 0x0001_0203_0405);
        mem.write_u64(Address::new(boundary - 8), u64::MAX);
        mem.write_u64(Address::new(boundary), 0);
        assert_eq!(mem.read_u64(straddling), 0x00ff_ffff);
        // An aligned read of a chunk never written materialises nothing.
        assert_eq!(mem.read_u64(Address::new(9 * boundary)), 0);
        assert_eq!(mem.resident_chunks(), 2);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut mem = ChunkedMemory::new();
        let src = Address::new(0x1000);
        let dst = Address::new(0x8000);
        let data: Vec<u8> = (0..255u8).collect();
        mem.write_bytes(src, &data);
        mem.copy(src, dst, data.len());
        let mut out = vec![0u8; data.len()];
        mem.read_bytes(dst, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn fill_sets_every_byte() {
        let mut mem = ChunkedMemory::new();
        mem.fill(Address::new(0x2000), 100, 0xAA);
        let mut out = [0u8; 100];
        mem.read_bytes(Address::new(0x2000), &mut out);
        assert!(out.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn resident_bytes_tracks_chunks() {
        let mut mem = ChunkedMemory::new();
        assert_eq!(mem.resident_bytes(), 0);
        mem.write_u64(Address::new(8), 1);
        assert_eq!(mem.resident_bytes(), CHUNK_SIZE);
    }

    #[test]
    fn copy_across_chunks_and_from_unwritten_memory() {
        let mut mem = ChunkedMemory::new();
        let data: Vec<u8> = (0..200u8).collect();
        let src = Address::new(CHUNK_SIZE as u64 - 100);
        let dst = Address::new(5 * CHUNK_SIZE as u64 - 7);
        mem.write_bytes(src, &data);
        mem.copy(src, dst, data.len());
        let mut out = vec![0u8; data.len()];
        mem.read_bytes(dst, &mut out);
        assert_eq!(out, data);
        // Copying never-written memory writes zeros over the target.
        mem.copy(Address::new(40 << 30), dst, 50);
        mem.read_bytes(dst, &mut out);
        assert!(out[..50].iter().all(|&b| b == 0));
        assert_eq!(&out[50..], &data[50..]);
        assert_eq!(
            mem.resident_chunks(),
            4,
            "the unwritten source is not materialised"
        );
    }

    #[test]
    fn overlapping_copies_behave_like_a_buffered_copy() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * CHUNK_SIZE).collect();
        let base = Address::new(CHUNK_SIZE as u64 / 2);
        let len = 2 * CHUNK_SIZE + 11;
        for (from, to) in [
            (0usize, 5usize),
            (5, 0),
            (0, CHUNK_SIZE / 2),
            (CHUNK_SIZE / 2 + 3, 1),
        ] {
            let mut mem = ChunkedMemory::new();
            mem.write_bytes(base, &data);
            mem.copy(base.add(from), base.add(to), len);
            let mut expected = data.clone();
            expected.copy_within(from..from + len, to);
            let mut out = vec![0u8; data.len()];
            mem.read_bytes(base, &mut out);
            assert!(out == expected, "copy {from} -> {to} diverged from memmove");
        }
    }
}
