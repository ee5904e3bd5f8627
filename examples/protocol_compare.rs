//! Compare all six protocol variants on a producer/consumer workload — a
//! miniature of the paper's Figure 7 evaluation.
//!
//! Run with: `cargo run --release --example protocol_compare`

use cashmere::{Cluster, ProtocolKind, RunSpec, SyncSpec, Topology, PAGE_WORDS};

fn run(protocol: ProtocolKind) -> (f64, u64, u64) {
    let cfg = RunSpec::new(Topology::new(4, 4), protocol)
        .with_heap_pages(32)
        .with_sync(SyncSpec {
            locks: 4,
            barriers: 4,
            flags: 0,
        });
    let mut c = Cluster::new(cfg);
    let data = c.alloc_page_aligned(8 * PAGE_WORDS);
    let report = c.run(|p| {
        let me = p.id();
        for round in 0..6u64 {
            // Each processor produces a stripe …
            for i in 0..64 {
                p.write_u64(data + me * 128 + i, round * 1000 + i as u64);
            }
            p.compute(200_000);
            p.barrier(0);
            // … and consumes a neighbor's stripe.
            let other = (me + 4) % p.nprocs();
            let mut sum = 0u64;
            for i in 0..64 {
                sum += p.read_u64(data + other * 128 + i);
            }
            assert!(sum > 0 || round == 0);
            p.barrier(1);
        }
    });
    (
        report.exec_secs(),
        report.counters.page_transfers,
        report.counters.data_bytes,
    )
}

fn main() {
    println!(
        "{:<8}{:>12}{:>12}{:>12}",
        "proto", "sim ms", "transfers", "KB moved"
    );
    for protocol in ProtocolKind::ALL {
        let (secs, transfers, bytes) = run(protocol);
        println!(
            "{:<8}{:>12.2}{:>12}{:>12}",
            protocol.label(),
            secs * 1e3,
            transfers,
            bytes / 1024
        );
    }
    println!("(the two-level protocols share frames within a node: fewer transfers)");
}
