//! Table 1 reproduction: costs of basic operations for the two-level
//! (2L/2LS) and one-level (1LD/1L) protocols.
//!
//! The paper reports (µs): lock acquire 19 / 11; barrier 58 (321 at 32
//! processors) / 41 (364); page transfer 824 / 777 remote, 467 local
//! (one-level only). Each cost is *measured* here by running the real
//! protocol code on a micro-program and differencing virtual time, exactly
//! as the paper measures two-processor interactions.

use cashmere_core::{Cluster, Nanos, ProtocolKind, RunSpec, Topology, PAGE_WORDS};

/// Measures an uncontended lock acquire+release pair on processor 0.
fn lock_cost(protocol: ProtocolKind) -> Nanos {
    let cfg = RunSpec::new(Topology::new(2, 1), protocol).with_heap_pages(4);
    let mut cluster = Cluster::new(cfg);
    let out = cluster.alloc(2);
    cluster.run(|p| {
        if p.id() == 0 {
            let t0 = p.now();
            p.lock(0);
            p.unlock(0);
            p.write_u64(out, p.now() - t0);
        }
        p.barrier(0);
    });
    cluster.read_u64(out)
}

/// Measures a barrier crossing with all `total` processors arriving
/// simultaneously (every processor's crossing time is identical by
/// construction; we report processor 0's).
fn barrier_cost(protocol: ProtocolKind, total: usize, per_node: usize) -> Nanos {
    let topo = Topology::from_paper_config(total, per_node).unwrap();
    let cfg = RunSpec::new(topo, protocol).with_heap_pages(4);
    let mut cluster = Cluster::new(cfg);
    let out = cluster.alloc(2);
    cluster.run(|p| {
        p.barrier(0); // align clocks
        let t0 = p.now();
        p.barrier(1);
        if p.id() == 0 {
            p.write_u64(out, p.now() - t0);
        }
    });
    cluster.read_u64(out)
}

/// Measures a page fetch: processor 0 (node 0) homes a page; a processor on
/// `reader_node` then read-faults it. `local` selects a reader on the same
/// physical node as the home (meaningful for the one-level protocols).
fn page_transfer_cost(protocol: ProtocolKind, local: bool) -> Nanos {
    // Two physical nodes, two procs each. Homes land on proc 0's protocol
    // node via first touch.
    let cfg = RunSpec::new(Topology::new(2, 2), protocol).with_heap_pages(8);
    let mut cluster = Cluster::new(cfg);
    let page = cluster.alloc_page_aligned(PAGE_WORDS);
    let out = cluster.alloc(2);
    let reader = if local { 1 } else { 2 };
    cluster.run(|p| {
        if p.id() == 0 {
            p.write_u64(page, 7);
        }
        p.barrier(0);
        if p.id() == reader {
            let t0 = p.now();
            let _ = p.read_u64(page);
            p.write_u64(out, p.now() - t0);
        }
        p.barrier(1);
    });
    cluster.read_u64(out)
}

fn us(ns: Nanos) -> f64 {
    ns as f64 / 1000.0
}

fn main() {
    let two = ProtocolKind::TwoLevel;
    let one = ProtocolKind::OneLevelDiff;

    let lock2 = lock_cost(two);
    let lock1 = lock_cost(one);
    let bar2 = barrier_cost(two, 2, 1);
    let bar1 = barrier_cost(one, 2, 1);
    let bar2_32 = barrier_cost(two, 32, 4);
    let bar1_32 = barrier_cost(one, 32, 4);
    let xfer2_remote = page_transfer_cost(two, false);
    let xfer1_remote = page_transfer_cost(one, false);
    let xfer1_local = page_transfer_cost(one, true);

    println!("Table 1: Costs of basic operations (microseconds)");
    println!("(paper values in parentheses)");
    println!();
    println!("{:<28}{:>18}{:>18}", "Operation", "2L/2LS", "1LD/1L");
    println!("{:-<64}", "");
    println!(
        "{:<28}{:>11.0} (19){:>11.0} (11)",
        "Lock Acquire",
        us(lock2),
        us(lock1)
    );
    println!(
        "{:<28}{:>11.0} (58){:>11.0} (41)",
        "Barrier (2 procs)",
        us(bar2),
        us(bar1)
    );
    println!(
        "{:<28}{:>10.0} (321){:>10.0} (364)",
        "Barrier (32 procs)",
        us(bar2_32),
        us(bar1_32)
    );
    println!(
        "{:<28}{:>12} (—){:>10.0} (467)",
        "Page Transfer (Local)",
        "—",
        us(xfer1_local)
    );
    println!(
        "{:<28}{:>10.0} (824){:>10.0} (777)",
        "Page Transfer (Remote)",
        us(xfer2_remote),
        us(xfer1_remote)
    );
}
