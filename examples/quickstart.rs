//! Quickstart: allocate objects under Kingsguard-writers and inspect where
//! the writes landed.
//!
//! Run with `cargo run --release --example quickstart`.

use hybrid_mem::{MemoryConfig, MemoryKind};
use kingsguard::{HeapConfig, KingsguardHeap};
use kingsguard_heap::ObjectShape;

fn main() {
    // A KG-W heap on a hybrid DRAM+PCM memory system with the paper's cache
    // hierarchy (scaled down to match the scaled-down heap).
    let mut heap = KingsguardHeap::new(HeapConfig::kg_w(), MemoryConfig::hybrid_scaled(16));
    // Every heap is born with one mutator context; this program runs on it.
    let mut m = heap.default_mutator().expect("a fresh heap holds context 0");

    // A long-lived, frequently written table and a stream of short-lived
    // records: the classic shape of a Java application.
    let table = m.alloc(&mut heap, ObjectShape::new(4, 64), 1);
    for i in 0..200_000u32 {
        let record = m.alloc(&mut heap, ObjectShape::new(1, 48), 2);
        m.write_ref(&mut heap, table, (i % 4) as usize, Some(record));
        m.write_prim(&mut heap, table, 0, 8); // the table is hot
        heap.release(record); // records die young
    }

    let report = heap.finish();
    println!(
        "allocated          : {:>10} objects, {} MB",
        report.gc.objects_allocated,
        report.gc.bytes_allocated >> 20
    );
    println!("nursery collections: {:>10}", report.gc.nursery.collections);
    println!("observer collections: {:>9}", report.gc.observer.collections);
    println!("major collections  : {:>10}", report.gc.major.collections);
    println!(
        "nursery survival   : {:>9.1}%",
        report.gc.nursery_survival() * 100.0
    );
    println!(
        "DRAM writes        : {:>10} lines   PCM writes: {} lines",
        report.memory.writes(MemoryKind::Dram),
        report.memory.writes(MemoryKind::Pcm)
    );
    println!(
        "write-rationing    : {:>9.1}% of device writes were kept out of PCM",
        100.0 * report.memory.writes(MemoryKind::Dram) as f64 / (report.memory.total_writes().max(1)) as f64
    );
}
