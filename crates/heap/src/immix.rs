//! Immix mark-region space.
//!
//! The mature spaces of all collectors in the paper are Immix mark-region
//! spaces (Blackburn & McKinley, PLDI 2008): a hierarchy of 32 KB blocks
//! divided into 256 B lines. Objects may cross lines but not blocks.
//! Allocation bump-allocates into contiguous runs of free lines, first in
//! partially free ("recyclable") blocks and then in completely free blocks.
//! Collection marks lines and blocks live while tracing; reclamation happens
//! at line and block granularity at the end of a full-heap collection.
//!
//! The paper never triggers Immix defragmentation for its heap sizes
//! (Section 6.3), so this implementation performs no defragmentation either;
//! opportunistic copying between mature spaces is the job of the KG-W
//! collector, which uses [`ImmixSpace::alloc_for_copy`] to evacuate objects
//! into the other technology's mature space.
//!
//! Line marks are *side metadata*: they are stored (and their write traffic
//! accounted) in a metadata area at the start of the space's extent, separate
//! from the objects, exactly as MMTk stores its line/block mark bytes.

use hybrid_mem::{Address, MemoryKind, MemorySystem, Phase, BLOCK_SIZE, LINE_SIZE, PAGE_SIZE};

use crate::object::LARGE_OBJECT_THRESHOLD;
use crate::space::{SpaceId, SpaceUsage};

/// Lines per 32 KB block.
pub const LINES_PER_BLOCK: usize = BLOCK_SIZE / LINE_SIZE;

/// State of an Immix block after the last sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockState {
    /// No live lines: the block is completely free.
    Free,
    /// Some live lines: new objects can be bump-allocated into the holes.
    Recyclable,
    /// Every line is live.
    Full,
}

#[derive(Clone, Debug)]
struct Block {
    /// Lines containing live data after the last collection *or* data
    /// allocated since then.
    occupied: u128,
    /// Lines marked live during the in-progress collection.
    line_marks: u128,
    /// Lines fenced by PCM page retirement: counted as permanently occupied
    /// so nothing is ever allocated on a retired page, and so the block is
    /// never returned to the OS (which would resurrect the page on PCM the
    /// next time the block is acquired).
    retired: u128,
    /// Whether any object in the block was marked during the in-progress
    /// collection.
    block_mark: bool,
    state: BlockState,
    mapped: bool,
}

impl Block {
    fn new() -> Self {
        Block {
            occupied: 0,
            line_marks: 0,
            retired: 0,
            block_mark: false,
            state: BlockState::Free,
            mapped: false,
        }
    }

    fn occupied_lines(&self) -> usize {
        self.occupied.count_ones() as usize
    }
}

/// Result of sweeping an Immix space at the end of a major collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Blocks that became completely free.
    pub free_blocks: usize,
    /// Blocks left partially occupied.
    pub recyclable_blocks: usize,
    /// Blocks with every line live.
    pub full_blocks: usize,
    /// Bytes of line space reclaimed.
    pub bytes_reclaimed: usize,
    /// Bytes of line space still live.
    pub live_bytes: usize,
}

/// An Immix mark-region space.
#[derive(Debug)]
pub struct ImmixSpace {
    id: SpaceId,
    kind: MemoryKind,
    meta_base: Address,
    blocks_base: Address,
    max_blocks: usize,
    blocks: Vec<Block>,
    /// Current bump gap.
    cursor: Address,
    limit: Address,
    cursor_block: Option<usize>,
    /// Next line to scan for holes in the cursor block.
    scan_line: usize,
}

impl ImmixSpace {
    /// Creates an Immix space over an extent of `capacity` bytes starting at
    /// `base` (reserved by the caller), backed by `kind` memory.
    ///
    /// The first portion of the extent is used for line-mark side metadata
    /// (one byte per line), the remainder for blocks.
    pub fn new(id: SpaceId, kind: MemoryKind, base: Address, capacity: usize) -> Self {
        let max_blocks_estimate = capacity / BLOCK_SIZE;
        let meta_bytes = (max_blocks_estimate * LINES_PER_BLOCK).max(PAGE_SIZE);
        let blocks_base = base.add(meta_bytes).align_up(BLOCK_SIZE);
        let usable = capacity.saturating_sub(blocks_base.diff(base));
        ImmixSpace {
            id,
            kind,
            meta_base: base,
            blocks_base,
            max_blocks: usable / BLOCK_SIZE,
            blocks: Vec::new(),
            cursor: Address::ZERO,
            limit: Address::ZERO,
            cursor_block: None,
            scan_line: 0,
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

    /// Maximum number of blocks this space can hold.
    pub fn max_blocks(&self) -> usize {
        self.max_blocks
    }

    /// Bytes of occupied lines (live data plus allocation since the last
    /// sweep). This is the figure used for heap-composition plots.
    pub fn used_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.mapped)
            .map(|b| b.occupied_lines() * LINE_SIZE)
            .sum()
    }

    /// Current usage snapshot.
    pub fn usage(&self) -> SpaceUsage {
        SpaceUsage {
            used_bytes: self.used_bytes(),
            mapped_bytes: self.blocks.iter().filter(|b| b.mapped).count() * BLOCK_SIZE,
        }
    }

    /// Returns `true` if `addr` points into an acquired block of this space.
    pub fn contains(&self, addr: Address) -> bool {
        if addr < self.blocks_base {
            return false;
        }
        let index = addr.diff(self.blocks_base) / BLOCK_SIZE;
        index < self.blocks.len() && self.blocks[index].mapped
    }

    fn block_base(&self, index: usize) -> Address {
        self.blocks_base.add(index * BLOCK_SIZE)
    }

    fn block_index(&self, addr: Address) -> usize {
        addr.diff(self.blocks_base) / BLOCK_SIZE
    }

    fn line_of(&self, addr: Address) -> (usize, usize) {
        let index = self.block_index(addr);
        let line = (addr.diff(self.block_base(index)) / LINE_SIZE).min(LINES_PER_BLOCK - 1);
        (index, line)
    }

    fn ensure_block(&mut self, mem: &mut MemorySystem, index: usize) {
        while self.blocks.len() <= index {
            self.blocks.push(Block::new());
        }
        if !self.blocks[index].mapped {
            let base = self.block_base(index);
            mem.map_pages(base, BLOCK_SIZE / PAGE_SIZE, self.kind, self.id.raw());
            self.blocks[index].mapped = true;
        }
    }

    /// Allocates `size` bytes for a copied or promoted object. Returns `None`
    /// when the space has no room left, which triggers a full-heap
    /// collection in the collectors.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the large-object threshold (such objects
    /// belong in the large object space).
    pub fn alloc_for_copy(&mut self, mem: &mut MemorySystem, size: usize) -> Option<Address> {
        assert!(
            size <= LARGE_OBJECT_THRESHOLD,
            "object of {size} bytes must be allocated in the large object space"
        );
        let size = (size + 7) & !7;
        loop {
            // Fast path: the current gap fits the object.
            if self.cursor != Address::ZERO && self.cursor.add(size) <= self.limit {
                let result = self.cursor;
                self.cursor = self.cursor.add(size);
                let block_index = self.cursor_block.expect("cursor implies a block");
                self.mark_occupied(block_index, result, size);
                return Some(result);
            }
            // Slow path: find the next hole in the cursor block, or move on
            // to another block.
            if !self.advance_gap(mem, size) {
                return None;
            }
        }
    }

    fn mark_occupied(&mut self, block_index: usize, start: Address, size: usize) {
        let first = (start.diff(self.block_base(block_index))) / LINE_SIZE;
        let last = (start.add(size - 1).diff(self.block_base(block_index))) / LINE_SIZE;
        for line in first..=last {
            self.blocks[block_index].occupied |= 1u128 << line;
        }
    }

    /// Finds the next gap able to hold `size` bytes. Returns `false` when the
    /// space is exhausted.
    fn advance_gap(&mut self, mem: &mut MemorySystem, size: usize) -> bool {
        let lines_needed = size.div_ceil(LINE_SIZE);
        // Continue scanning the current block first.
        if let Some(block_index) = self.cursor_block {
            if let Some((start_line, run)) = self.find_hole(block_index, self.scan_line, lines_needed) {
                self.set_gap(block_index, start_line, run);
                return true;
            }
        }
        // Then look for a recyclable block with a large enough hole.
        for index in 0..self.blocks.len() {
            if Some(index) == self.cursor_block || !self.blocks[index].mapped {
                continue;
            }
            if self.blocks[index].state == BlockState::Full {
                continue;
            }
            if let Some((start_line, run)) = self.find_hole(index, 0, lines_needed) {
                self.cursor_block = Some(index);
                self.set_gap(index, start_line, run);
                return true;
            }
        }
        // Finally acquire a brand new block.
        let next_index = self
            .blocks
            .iter()
            .position(|b| !b.mapped)
            .unwrap_or(self.blocks.len());
        if next_index >= self.max_blocks {
            return false;
        }
        self.ensure_block(mem, next_index);
        self.cursor_block = Some(next_index);
        self.set_gap(next_index, 0, LINES_PER_BLOCK);
        true
    }

    fn set_gap(&mut self, block_index: usize, start_line: usize, run: usize) {
        let base = self.block_base(block_index);
        self.cursor = base.add(start_line * LINE_SIZE);
        self.limit = base.add((start_line + run) * LINE_SIZE);
        self.scan_line = start_line + run;
    }

    /// Finds a run of at least `lines_needed` unoccupied lines in
    /// `block_index`, starting the search at `from_line`.
    fn find_hole(&self, block_index: usize, from_line: usize, lines_needed: usize) -> Option<(usize, usize)> {
        let occupied = self.blocks[block_index].occupied;
        let mut line = from_line;
        while line < LINES_PER_BLOCK {
            if occupied & (1u128 << line) != 0 {
                line += 1;
                continue;
            }
            let start = line;
            while line < LINES_PER_BLOCK && occupied & (1u128 << line) == 0 {
                line += 1;
            }
            if line - start >= lines_needed {
                return Some((start, line - start));
            }
        }
        None
    }

    // ----- collection support -------------------------------------------

    /// Prepares the space for a major collection: clears all line and block
    /// marks.
    pub fn prepare_collection(&mut self) {
        for block in &mut self.blocks {
            block.line_marks = 0;
            block.block_mark = false;
        }
    }

    /// Marks the lines spanned by the live object at `addr` of `size` bytes.
    /// The line-mark stores are charged to the side-metadata area of this
    /// space (same memory technology as the space itself).
    ///
    /// Returns `true` if this call newly marked at least one line.
    pub fn mark_lines(&mut self, mem: &mut MemorySystem, addr: Address, size: usize, phase: Phase) -> bool {
        debug_assert!(self.contains(addr), "mark_lines on address outside space: {addr}");
        let (block_index, first_line) = self.line_of(addr);
        let (_, last_line) = self.line_of(addr.add(size.max(1) - 1));
        let mut newly = false;
        for line in first_line..=last_line {
            let bit = 1u128 << line;
            if self.blocks[block_index].line_marks & bit == 0 {
                self.blocks[block_index].line_marks |= bit;
                newly = true;
                // One side-metadata store per newly marked line.
                let meta_addr = self.meta_base.add(block_index * LINES_PER_BLOCK + line);
                self.ensure_meta_mapped(mem, meta_addr);
                mem.account_write(meta_addr, phase);
            }
        }
        if !self.blocks[block_index].block_mark {
            self.blocks[block_index].block_mark = true;
        }
        newly
    }

    fn ensure_meta_mapped(&mut self, mem: &mut MemorySystem, meta_addr: Address) {
        let page_start = meta_addr.align_down(PAGE_SIZE);
        if !mem.is_mapped(page_start) {
            mem.map_pages(page_start, 1, self.kind, self.id.raw());
        }
    }

    /// Fences the page at `page_base` after PCM retirement: its lines become
    /// permanently occupied (never allocated into again) and the block is
    /// pinned mapped so the page's remap to spare capacity survives sweeps.
    /// Drops the current bump gap, so call before any allocation that must
    /// avoid the dying page.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `page_base` is not inside this space.
    pub fn retire_page(&mut self, page_base: Address) {
        debug_assert!(self.contains(page_base), "retire_page outside space: {page_base}");
        let (block_index, first_line) = self.line_of(page_base);
        let mask = ((1u128 << (PAGE_SIZE / LINE_SIZE)) - 1) << first_line;
        let block = &mut self.blocks[block_index];
        block.retired |= mask;
        block.occupied |= mask;
        // The bump gap may overlap the newly fenced lines; drop it so the
        // next allocation rescans against the updated occupancy.
        self.cursor = Address::ZERO;
        self.limit = Address::ZERO;
        self.cursor_block = None;
        self.scan_line = 0;
    }

    /// Returns `true` if any byte of `[addr, addr + size)` lies on a line
    /// retired by [`ImmixSpace::retire_page`]. Objects never span blocks, so
    /// the whole extent is resolved within `addr`'s block. Passive — used by
    /// the sanitizer's retired-page-emptiness check.
    pub fn overlaps_retired(&self, addr: Address, size: usize) -> bool {
        if !self.contains(addr) {
            return false;
        }
        let (index, first) = self.line_of(addr);
        let (_, last) = self.line_of(addr.add(size.saturating_sub(1)));
        let block = &self.blocks[index];
        (first..=last).any(|line| block.retired & (1u128 << line) != 0)
    }

    /// Sweeps the space at the end of a major collection: occupied lines
    /// become exactly the marked lines (plus any retired lines, which stay
    /// fenced forever), blocks are classified, completely free blocks are
    /// returned to the OS, and the allocation cursor is reset so subsequent
    /// allocation starts from recyclable blocks.
    pub fn sweep(&mut self, mem: &mut MemorySystem) -> SweepStats {
        let mut stats = SweepStats::default();
        for index in 0..self.blocks.len() {
            let block = &mut self.blocks[index];
            if !block.mapped {
                continue;
            }
            let before = block.occupied_lines();
            block.occupied = block.line_marks | block.retired;
            let after = block.occupied_lines();
            stats.bytes_reclaimed += before.saturating_sub(after) * LINE_SIZE;
            stats.live_bytes += after * LINE_SIZE;
            block.state = if after == 0 {
                BlockState::Free
            } else if after == LINES_PER_BLOCK {
                BlockState::Full
            } else {
                BlockState::Recyclable
            };
            if block.state == BlockState::Free {
                stats.free_blocks += 1;
                let base = self.blocks_base.add(index * BLOCK_SIZE);
                mem.unmap_pages(base, BLOCK_SIZE / PAGE_SIZE);
                block.mapped = false;
            } else if block.state == BlockState::Full {
                stats.full_blocks += 1;
            } else {
                stats.recyclable_blocks += 1;
            }
        }
        self.cursor = Address::ZERO;
        self.limit = Address::ZERO;
        self.cursor_block = None;
        self.scan_line = 0;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_mem::MemoryConfig;

    impl ImmixSpace {
        /// Number of blocks currently acquired (mapped at least once).
        fn blocks_in_use(&self) -> usize {
            self.blocks.iter().filter(|b| b.mapped).count()
        }

        /// Number of lines fenced by page retirement.
        fn retired_lines(&self) -> usize {
            self.blocks.iter().map(|b| b.retired.count_ones() as usize).sum()
        }
    }

    fn setup(capacity: usize) -> (MemorySystem, ImmixSpace) {
        let mut mem = MemorySystem::new(MemoryConfig::architecture_independent());
        let base = mem.reserve_extent("mature", capacity);
        (
            mem,
            ImmixSpace::new(SpaceId::MATURE_PCM, MemoryKind::Pcm, base, capacity),
        )
    }

    #[test]
    fn allocations_land_in_blocks_of_the_right_kind() {
        let (mut mem, mut space) = setup(1 << 20);
        let a = space.alloc_for_copy(&mut mem, 64).unwrap();
        let b = space.alloc_for_copy(&mut mem, 128).unwrap();
        assert!(space.contains(a));
        assert!(space.contains(b));
        assert_ne!(a, b);
        assert_eq!(mem.kind_of(a), MemoryKind::Pcm);
        assert_eq!(space.blocks_in_use(), 1);
        assert!(space.used_bytes() >= LINE_SIZE);
    }

    #[test]
    fn objects_never_cross_block_boundaries() {
        let (mut mem, mut space) = setup(4 << 20);
        let mut last_block = None;
        for _ in 0..150 {
            let addr = space.alloc_for_copy(&mut mem, 6000).unwrap();
            let start_block = addr.block();
            let end_block = addr.add(6000 - 1).block();
            assert_eq!(start_block, end_block, "object crosses a block boundary");
            last_block = Some(start_block);
        }
        assert!(last_block.is_some());
        assert!(space.blocks_in_use() > 1);
    }

    #[test]
    #[should_panic(expected = "large object")]
    fn oversized_allocation_panics() {
        let (mut mem, mut space) = setup(1 << 20);
        space.alloc_for_copy(&mut mem, LARGE_OBJECT_THRESHOLD + 8);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut mem, mut space) = setup(3 * BLOCK_SIZE);
        let mut allocations = 0;
        while space.alloc_for_copy(&mut mem, 4096).is_some() {
            allocations += 1;
            assert!(allocations < 1000, "space never reported exhaustion");
        }
        assert!(allocations > 0);
    }

    #[test]
    fn sweep_reclaims_unmarked_lines_and_frees_blocks() {
        let (mut mem, mut space) = setup(1 << 20);
        let keep = space.alloc_for_copy(&mut mem, 512).unwrap();
        let _dead = space.alloc_for_copy(&mut mem, 512).unwrap();
        let used_before = space.used_bytes();
        space.prepare_collection();
        space.mark_lines(&mut mem, keep, 512, Phase::MajorGc);
        let stats = space.sweep(&mut mem);
        assert!(space.used_bytes() < used_before);
        assert_eq!(stats.live_bytes, space.used_bytes());
        assert!(stats.bytes_reclaimed > 0);
        assert!(space.contains(keep));
    }

    #[test]
    fn fully_dead_blocks_are_unmapped() {
        let (mut mem, mut space) = setup(1 << 20);
        let addr = space.alloc_for_copy(&mut mem, 1024).unwrap();
        space.prepare_collection();
        let stats = space.sweep(&mut mem);
        assert_eq!(stats.free_blocks, 1);
        assert_eq!(space.blocks_in_use(), 0);
        assert!(!space.contains(addr));
        assert_eq!(space.used_bytes(), 0);
    }

    #[test]
    fn recyclable_blocks_are_reused_before_new_blocks() {
        let (mut mem, mut space) = setup(1 << 20);
        // Fill one block with several objects, keep only the first alive.
        let keep = space.alloc_for_copy(&mut mem, 2048).unwrap();
        for _ in 0..10 {
            space.alloc_for_copy(&mut mem, 2048).unwrap();
        }
        space.prepare_collection();
        space.mark_lines(&mut mem, keep, 2048, Phase::MajorGc);
        space.sweep(&mut mem);
        let blocks_before = space.blocks_in_use();
        // New allocation should reuse the recyclable block's holes.
        let addr = space.alloc_for_copy(&mut mem, 2048).unwrap();
        assert_eq!(space.blocks_in_use(), blocks_before);
        assert_ne!(
            addr.align_down(LINE_SIZE),
            keep.align_down(LINE_SIZE),
            "allocation must not overwrite live lines"
        );
    }

    #[test]
    fn mark_lines_accounts_side_metadata_writes() {
        let (mut mem, mut space) = setup(1 << 20);
        let addr = space.alloc_for_copy(&mut mem, 1000).unwrap();
        space.prepare_collection();
        let writes_before = mem.stats().phase_writes(MemoryKind::Pcm).get(Phase::MajorGc);
        assert!(space.mark_lines(&mut mem, addr, 1000, Phase::MajorGc));
        // Marking the same object again marks no new lines.
        assert!(!space.mark_lines(&mut mem, addr, 1000, Phase::MajorGc));
        let writes_after = mem.stats().phase_writes(MemoryKind::Pcm).get(Phase::MajorGc);
        let lines = 1000usize.div_ceil(LINE_SIZE) as u64;
        assert!(writes_after - writes_before >= lines);
    }

    #[test]
    fn retired_pages_are_fenced_and_pin_their_block() {
        let (mut mem, mut space) = setup(1 << 20);
        let addr = space.alloc_for_copy(&mut mem, 512).unwrap();
        let page = addr.align_down(PAGE_SIZE);
        space.retire_page(page);
        assert_eq!(space.retired_lines(), PAGE_SIZE / LINE_SIZE);
        // New allocations never land on the retired page.
        for _ in 0..200 {
            let a = space.alloc_for_copy(&mut mem, 256).unwrap();
            assert_ne!(a.align_down(PAGE_SIZE), page, "allocated on a retired page");
        }
        // Sweeping with nothing marked frees every line except the fence,
        // and the fenced block stays mapped.
        space.prepare_collection();
        space.sweep(&mut mem);
        assert_eq!(space.retired_lines(), PAGE_SIZE / LINE_SIZE);
        assert!(space.blocks_in_use() >= 1, "retired block must stay mapped");
        assert!(space.contains(page));
        let a = space.alloc_for_copy(&mut mem, 256).unwrap();
        assert_ne!(a.align_down(PAGE_SIZE), page);
    }

    #[test]
    fn usage_reports_mapped_blocks() {
        let (mut mem, mut space) = setup(1 << 20);
        space.alloc_for_copy(&mut mem, 100).unwrap();
        let usage = space.usage();
        assert_eq!(usage.mapped_bytes, BLOCK_SIZE);
        assert!(usage.used_bytes >= LINE_SIZE);
    }
}
