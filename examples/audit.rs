//! Protocol invariant auditing in action (DESIGN.md §7).
//!
//! Runs a lock-based program with the event recorder on, replays the trace
//! through `cashmere::check::audit`, then tampers with the trace to show a
//! violation being caught and classified.
//!
//!     cargo run --example audit

use cashmere::check::audit;
use cashmere::{Cluster, ProtocolEvent, ProtocolKind, RunSpec, SyncSpec, Topology};

fn main() {
    // 2 nodes × 2 processors, two-level protocol, auditing on.
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(4)
        .with_sync(SyncSpec {
            locks: 4,
            barriers: 2,
            flags: 2,
        })
        .with_audit(true);
    let mut cluster = Cluster::new(cfg);
    let counter = cluster.alloc(4);
    cluster.run(|p| {
        for _ in 0..8 {
            p.lock(0);
            let v = p.read_u64(counter);
            p.write_u64(counter, v + 1);
            p.unlock(0);
        }
    });
    println!("counter = {} (expected 32)", cluster.read_u64(counter));

    let trace = cluster.take_trace();
    let report = audit(&trace);
    println!(
        "audit: {} events, {} violations, {} races",
        report.events,
        report.violations.len(),
        report.races.len()
    );
    assert!(report.is_clean(), "{}", report.summary());
    assert!(report.races.is_empty(), "locked increments are DRF");
    println!("clean: every invariant held, no data races.\n");

    // Now corrupt the trace — duplicate a logical-clock draw, as a broken
    // relaxed-atomics clock would log — and watch the auditor catch it.
    let mut tampered = trace.to_vec();
    let i = tampered
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ClockTick { .. }))
        .expect("every run draws the clock");
    let dup = tampered[i].clone();
    tampered.insert(i + 1, dup);
    let bad = audit(&tampered);
    println!("after tampering (duplicated clock draw):");
    print!("{}", bad.summary());
    assert!(!bad.is_clean(), "the tampered trace must not audit clean");

    // Auditing is off by default: no recorder, no events, no cost.
    let mut plain = Cluster::new(RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel));
    let a = plain.alloc(1);
    plain.run(|p| {
        p.lock(0);
        p.write_u64(a, 1);
        p.unlock(0);
    });
    let empty = plain.take_trace();
    println!(
        "\nwith audit off: take_trace() returned {} events",
        empty.len()
    );
    assert!(empty.is_empty());
}
