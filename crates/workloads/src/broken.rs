//! Deliberately broken mutators: the sanitizer's negative test suite.
//!
//! Each [`BrokenFixture`] drives a heap into exactly one class of invariant
//! violation through the heap's hidden corruption helpers, so the
//! `kingsguard-check` sanitizer can prove it detects — and correctly
//! attributes — every violation class it claims to. A fixture that runs
//! *without* its violation being reported is a sanitizer bug; the CI smoke
//! inverts the exit code accordingly.
//!
//! Fixtures never touch the sanitizer directly: the caller installs it on a
//! fresh heap built from [`BrokenFixture::config`], runs
//! [`BrokenFixture::run`], and asserts the report's kinds equal
//! [`BrokenFixture::expected_kinds`].

use kingsguard::{HeapConfig, KingsguardHeap, MutatorConfig};
use kingsguard_heap::ObjectShape;

/// One deliberately broken mutator scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrokenFixture {
    /// Drops every remembered old-to-young edge before a nursery
    /// collection → `remset-incomplete`.
    ClearedRemset,
    /// Pokes garbage into a live object's reference slot behind the
    /// barrier's back → `dangling-reference`.
    CorruptedRefSlot,
    /// Discards a store buffer's barrier bookkeeping at the drain →
    /// `remset-incomplete` (the generational barrier half never ran).
    SkippedBarrier,
    /// Inflates the barrier's write counter without a matching event →
    /// `barrier-count-mismatch`.
    ForgedWriteStats,
    /// Hands the same nursery bytes to two TLAB carves → `tlab-overlap`.
    TlabOverlap,
    /// Fences the page under a live large object without evacuating it →
    /// `retired-page-not-empty`.
    RetiredLivePage,
}

/// All fixtures, in a stable order for sweeps.
pub const ALL_FIXTURES: [BrokenFixture; 6] = [
    BrokenFixture::ClearedRemset,
    BrokenFixture::CorruptedRefSlot,
    BrokenFixture::SkippedBarrier,
    BrokenFixture::ForgedWriteStats,
    BrokenFixture::TlabOverlap,
    BrokenFixture::RetiredLivePage,
];

impl BrokenFixture {
    /// Stable fixture name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BrokenFixture::ClearedRemset => "cleared-remset",
            BrokenFixture::CorruptedRefSlot => "corrupted-ref-slot",
            BrokenFixture::SkippedBarrier => "skipped-barrier",
            BrokenFixture::ForgedWriteStats => "forged-write-stats",
            BrokenFixture::TlabOverlap => "tlab-overlap",
            BrokenFixture::RetiredLivePage => "retired-live-page",
        }
    }

    /// The violation kinds the sanitizer must report for this fixture —
    /// exactly these, no others.
    pub fn expected_kinds(self) -> &'static [&'static str] {
        match self {
            BrokenFixture::ClearedRemset => &["remset-incomplete"],
            BrokenFixture::CorruptedRefSlot => &["dangling-reference"],
            BrokenFixture::SkippedBarrier => &["remset-incomplete"],
            BrokenFixture::ForgedWriteStats => &["barrier-count-mismatch"],
            BrokenFixture::TlabOverlap => &["tlab-overlap"],
            BrokenFixture::RetiredLivePage => &["retired-page-not-empty"],
        }
    }

    /// Heap configuration the fixture expects (a plain KG-N heap: one
    /// mature space, no observer, deterministic promote path).
    pub fn config(self) -> HeapConfig {
        HeapConfig::kg_n()
    }

    /// Drives `heap` into the fixture's violation. The caller must have
    /// installed a sanitizer on the (fresh) heap first; the violation
    /// surfaces at the checkpoints this method triggers.
    pub fn run(self, heap: &mut KingsguardHeap) {
        let mut m = heap
            .default_mutator()
            .expect("a fresh heap still holds context 0");
        match self {
            BrokenFixture::ClearedRemset => {
                let parent = m.alloc(heap, ObjectShape::new(1, 16), 1);
                // Promote the parent out of the nursery.
                heap.collect_nursery();
                let child = m.alloc(heap, ObjectShape::new(0, 32), 2);
                m.write_ref(heap, parent, 0, Some(child));
                // The write's remset insertion has landed (eager drain);
                // release the child's root so the slot is the only path.
                heap.release(child);
                heap.safepoint();
                heap.debug_clear_remsets_for_test();
                // Entry checkpoint of this collection sees the mature→young
                // edge with no remembered slot.
                heap.collect_nursery();
            }
            BrokenFixture::CorruptedRefSlot => {
                let parent = m.alloc(heap, ObjectShape::new(1, 16), 1);
                let child = m.alloc(heap, ObjectShape::new(0, 32), 2);
                m.write_ref(heap, parent, 0, Some(child));
                heap.debug_corrupt_ref_slot_for_test(parent, 0, 0xdead_beef_0000);
                heap.safepoint();
            }
            BrokenFixture::SkippedBarrier => {
                let mut mutator = heap.spawn_mutator_with(MutatorConfig::default().with_ssb_capacity(1024));
                let parent = mutator.alloc(heap, ObjectShape::new(1, 16), 1);
                heap.collect_nursery();
                let child = mutator.alloc(heap, ObjectShape::new(0, 32), 2);
                heap.debug_skip_barrier_bookkeeping_for_test(true);
                // Buffered in the SSB; the sabotaged drain at the next
                // safepoint throws the bookkeeping away.
                mutator.write_ref(heap, parent, 0, Some(child));
                heap.release(child);
                heap.collect_nursery();
                heap.debug_skip_barrier_bookkeeping_for_test(false);
                mutator.retire(heap);
            }
            BrokenFixture::ForgedWriteStats => {
                let obj = m.alloc(heap, ObjectShape::new(0, 32), 1);
                m.write_prim(heap, obj, 0, 8);
                heap.debug_forge_write_stats_for_test();
                heap.safepoint();
            }
            BrokenFixture::TlabOverlap => {
                heap.debug_overlapping_tlab_carves_for_test();
                heap.safepoint();
            }
            BrokenFixture::RetiredLivePage => {
                let big = m.alloc(heap, ObjectShape::new(0, 16 * 1024), 1);
                heap.debug_retire_live_page_for_test(big);
                // The exit checkpoint of a full collection asserts retired
                // pages hold no live objects.
                heap.collect_full();
            }
        }
    }
}
