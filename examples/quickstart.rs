//! Quickstart: build a simulated cluster, share memory, synchronize.
//!
//! Run with: `cargo run --release --example quickstart`

use cashmere::{Cluster, ProtocolKind, RunSpec, Topology};

fn main() {
    // The paper's full platform: eight 4-processor AlphaServer nodes.
    let topo = Topology::new(8, 4);
    let cfg = RunSpec::new(topo, ProtocolKind::TwoLevel).with_heap_pages(16);
    let mut cluster = Cluster::new(cfg);

    // Shared memory is allocated before the run and addressed by word.
    let histogram = cluster.alloc_page_aligned(64);
    let total = cluster.alloc_page_aligned(1);

    // Run one closure on every simulated processor. Reads/writes go through
    // the Cashmere-2L coherence protocol; locks and barriers carry release
    // consistency.
    let report = cluster.run(|p| {
        // Everyone bumps its own histogram bin (no sharing → pages go
        // exclusive / stay home).
        for _ in 0..100 {
            let v = p.read_u64(histogram + p.id());
            p.write_u64(histogram + p.id(), v + 1);
            p.compute(5_000); // 5 µs of "work"
        }
        p.barrier(0);
        // Processor 0 reduces — fetching everyone's bins across the
        // simulated Memory Channel.
        if p.id() == 0 {
            let mut sum = 0;
            for i in 0..p.nprocs() {
                sum += p.read_u64(histogram + i);
            }
            p.write_u64(total, sum);
        }
        p.barrier(1);
    });

    assert_eq!(cluster.read_u64(total), 32 * 100);
    println!(
        "32 processors incremented 100 times each: total = {}",
        cluster.read_u64(total)
    );
    println!(
        "simulated execution time: {:.3} ms",
        report.exec_secs() * 1e3
    );
    println!(
        "page transfers: {}, write notices: {}, exclusive transitions: {}",
        report.counters.page_transfers,
        report.counters.write_notices,
        report.counters.exclusive_transitions
    );
}
