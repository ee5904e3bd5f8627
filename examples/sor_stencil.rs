//! A red-black stencil (the paper's SOR workload) written directly against
//! the public API, comparing two cluster shapes.
//!
//! Run with: `cargo run --release --example sor_stencil`

use cashmere::{Cluster, ProtocolKind, RunSpec, SyncSpec, Topology};

fn run_sor(nodes: usize, ppn: usize) -> (f64, u64) {
    let n = 64usize; // n×n interior grid
    let cols = n + 2;
    let cfg = RunSpec::new(Topology::new(nodes, ppn), ProtocolKind::TwoLevel)
        .with_heap_pages(((n + 2) * cols / 1024) + 4)
        .with_sync(SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 0,
        });
    let mut c = Cluster::new(cfg);
    let grid = c.alloc_page_aligned((n + 2) * cols);
    for j in 0..cols {
        c.seed_f64(grid + j, 1.0); // hot top edge
    }
    let report = c.run(|p| {
        let np = p.nprocs();
        let rows_per = n / np;
        let lo = 1 + p.id() * rows_per;
        let hi = lo + rows_per;
        for _iter in 0..4 {
            for phase in 0..2 {
                for i in lo..hi {
                    for j in 1..=n {
                        if (i + j) % 2 == phase {
                            let v = 0.25
                                * (p.read_f64(grid + (i - 1) * cols + j)
                                    + p.read_f64(grid + (i + 1) * cols + j)
                                    + p.read_f64(grid + i * cols + j - 1)
                                    + p.read_f64(grid + i * cols + j + 1));
                            p.write_f64(grid + i * cols + j, v);
                        }
                    }
                    p.compute(20_000);
                }
                p.barrier(phase);
            }
        }
    });
    (report.exec_secs(), report.counters.page_transfers)
}

fn main() {
    println!("red-black SOR, 64x64 grid, 4 iterations");
    for (nodes, ppn) in [(8, 1), (2, 4), (8, 4)] {
        let (secs, transfers) = run_sor(nodes, ppn);
        println!(
            "{:>2} nodes x {} procs: {:8.3} sim ms, {:4} page transfers",
            nodes,
            ppn,
            secs * 1e3,
            transfers
        );
    }
    println!("(two-level sharing within a node coalesces boundary fetches)");
}
