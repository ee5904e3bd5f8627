//! Stress tests for the races found during development: rotating single-
//! writer rounds (flag-ordered) and concurrent invalidation/fetch storms.
//! These loops reproduced two real timestamp-ordering bugs in the acquire
//! path before they were fixed; keep them hot.

use cashmere_core::{Cluster, ProtocolKind, RunSpec, SyncSpec, Topology, PAGE_WORDS};

fn rotating_writer_round_trip(protocol: ProtocolKind, rounds: usize) {
    let cfg = RunSpec::new(Topology::new(2, 2), protocol)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: rounds,
        });
    let mut c = Cluster::new(cfg);
    let base = c.alloc_page_aligned(PAGE_WORDS);
    let errs = c.alloc_page_aligned(64);
    c.run(|p| {
        let np = p.nprocs();
        let me = p.id();
        for k in 0..rounds {
            let row = base + k * 64;
            if k % np == me {
                for j in 0..16 {
                    p.write_u64(row + j, (k * 100 + j + 1) as u64);
                }
                p.flag_set(k);
            } else {
                p.flag_wait(k);
            }
            for j in 0..16 {
                let v = p.read_u64(row + j);
                if v != (k * 100 + j + 1) as u64 {
                    let e = p.read_u64(errs + me * 8);
                    p.write_u64(errs + me * 8, e + 1);
                }
            }
        }
        p.barrier(0);
    });
    let total: u64 = (0..4).map(|i| c.read_u64(errs + i * 8)).sum();
    assert_eq!(
        total,
        0,
        "{}: stale reads in rotating-writer rounds",
        protocol.label()
    );
}

#[test]
fn rotating_writer_rounds_are_coherent_two_level() {
    for _ in 0..20 {
        rotating_writer_round_trip(ProtocolKind::TwoLevel, 12);
    }
}

#[test]
fn rotating_writer_rounds_are_coherent_shootdown() {
    for _ in 0..10 {
        rotating_writer_round_trip(ProtocolKind::TwoLevelShootdown, 12);
    }
}

#[test]
fn rotating_writer_rounds_are_coherent_one_level() {
    for _ in 0..10 {
        rotating_writer_round_trip(ProtocolKind::OneLevelDiff, 12);
        rotating_writer_round_trip(ProtocolKind::OneLevelWrite, 12);
    }
}

#[test]
fn barrier_storm_with_page_ping_pong() {
    // All procs repeatedly increment their own word AND read a word owned
    // by a proc on the other node, with barriers between — a ping-pong of
    // invalidations and fetches on one page.
    for _ in 0..10 {
        let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
            .with_heap_pages(4)
            .with_sync(SyncSpec {
                locks: 1,
                barriers: 2,
                flags: 0,
            });
        let mut c = Cluster::new(cfg);
        let page = c.alloc_page_aligned(PAGE_WORDS);
        let rounds = 6u64;
        c.run(|p| {
            let me = p.id();
            for r in 0..rounds {
                let mine = p.read_u64(page + me);
                p.barrier(0);
                p.write_u64(page + me, mine + r + 1);
                p.barrier(1);
                // Check a cross-node word advanced exactly in lockstep.
                let other = (me + 2) % 4;
                let theirs = p.read_u64(page + other);
                // After round r the word holds the sum of (k+1) for k=0..=r.
                assert_eq!(
                    theirs,
                    (r + 1) * (r + 2) / 2,
                    "proc {me} read stale round {r}"
                );
            }
        });
    }
}
