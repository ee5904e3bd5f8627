//! Host-side hot-path microbenchmarks (`cargo run --release -p
//! cashmere-bench --bin hotpath`).
//!
//! Times the three paths the PR-5 allocation/contention pass optimized, in
//! isolation, so future changes can see them without a full sweep:
//!
//! * **twin acquire/release** — pooled ([`PagePool`]) versus a fresh
//!   `Box::new` allocation per twin, including the snapshot copy;
//! * **write-notice post/drain** — striped [`ProcNoticeList`] inserts and
//!   drains, plus first-level [`NoticeBoard`] post/drain round trips;
//! * **directory reads** — [`Directory::read_word`] through the cached
//!   replica handles, and the `sharers` scan built on it.
//!
//! Numbers are host nanoseconds per operation (median of
//! `HOTPATH_ROUNDS` rounds, default 5). Virtual time is not involved:
//! everything here is charge-free host machinery (DESIGN.md §10).

use std::hint::black_box;
use std::time::Instant;

use cashmere_core::config::DirectoryMode;
use cashmere_core::directory::{DirWord, Directory, PermBits};
use cashmere_core::write_notice::{NoticeBoard, ProcNoticeList};
use cashmere_memchan::TransportConfig;
use cashmere_transport::{build_transport, Transport};
use cashmere_vmpage::{make_twin, Frame, PagePool};
use std::sync::Arc;

/// Median of `rounds` calls of `round`, each returning its ns/op.
fn median_of(rounds: usize, round: impl FnMut() -> f64) -> f64 {
    let mut per_op: Vec<f64> = std::iter::repeat_with(round).take(rounds).collect();
    per_op.sort_by(f64::total_cmp);
    per_op[rounds / 2]
}

/// Median ns/op over `rounds` timing rounds of `iters` calls each.
fn bench(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    median_of(rounds, || {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    })
}

fn report(name: &str, ns: f64) {
    println!("{name:42} {ns:10.1} ns/op");
}

fn main() {
    let rounds = std::env::var("HOTPATH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(5);
    println!("hotpath microbenchmarks ({rounds} rounds, median reported)");

    // --- twin acquire/release -------------------------------------------
    let frame = Frame::new();
    frame.store(17, 0xDEAD_BEEF);
    let fresh = bench(rounds, 2_000, || {
        black_box(make_twin(black_box(&frame)));
    });
    report("twin: fresh Box::new + snapshot", fresh);

    let pool = PagePool::new();
    let warm = pool.twin_of(&frame);
    pool.release(warm);
    let pooled = bench(rounds, 2_000, || {
        let t = pool.twin_of(black_box(&frame));
        pool.release(black_box(t));
    });
    report("twin: pooled acquire + snapshot + release", pooled);
    println!(
        "  pool reuses so far: {} (idle buffers: {})",
        pool.reuses(),
        pool.idle()
    );

    // --- write-notice posting -------------------------------------------
    const PAGES: usize = 4096;
    let list = ProcNoticeList::new(PAGES, 4);
    let mut page = 0u32;
    let insert = bench(rounds, 10_000, || {
        list.insert(black_box(page % PAGES as u32), (page % 4) as usize);
        page = page.wrapping_add(1);
    });
    report("ProcNoticeList::insert (striped)", insert);
    let drain = bench(rounds, 200, || {
        for p in 0..64u32 {
            list.insert(p, (p % 4) as usize);
        }
        black_box(list.drain());
    });
    report("ProcNoticeList: 64 inserts + drain", drain);

    let board = NoticeBoard::new(4, DirectoryMode::LockFree, 0);
    let mut n = 0u32;
    let post = bench(rounds, 10_000, || {
        board.post(
            (n % 4) as usize,
            ((n / 4) % 4) as usize,
            black_box(n % PAGES as u32),
            0,
        );
        n = n.wrapping_add(1);
    });
    report("NoticeBoard::post", post);
    let board_drain = bench(rounds, 200, || {
        for p in 0..64u32 {
            board.post(1, (p % 4) as usize, p, 0);
        }
        black_box(board.drain(1));
    });
    report("NoticeBoard: 64 posts + drain", board_drain);

    // --- directory reads ------------------------------------------------
    let pnodes = 8;
    let mc = build_transport(TransportConfig::new(
        (0..pnodes).map(|e| e % 2).collect(),
        2,
    ));
    let dir = Directory::new(mc, pnodes, 256, DirectoryMode::LockFree);
    for p in 0..256 {
        dir.write_my_word(
            p,
            p % pnodes,
            DirWord {
                perm: PermBits::Read,
                exclusive: false,
                excl_proc: 0,
            },
            0,
        );
    }
    let mut i = 0usize;
    let read = bench(rounds, 50_000, || {
        black_box(dir.read_word(black_box(i % 256), i % pnodes, (i / 7) % pnodes));
        i = i.wrapping_add(1);
    });
    report("Directory::read_word (replica cache)", read);
    let mut j = 0usize;
    let sharers = bench(rounds, 10_000, || {
        black_box(dir.sharers(black_box(j % 256), j % pnodes, usize::MAX));
        j = j.wrapping_add(1);
    });
    report("Directory::sharers (8-node scan)", sharers);

    // --- region-table lookups -------------------------------------------
    // Every transmit and local read resolves a RegionId first. The lock-free
    // bucket table replaced an RwLock<Vec<Arc<Region>>>; the baseline row
    // recreates that layout (same Arc indirection, same read-side work plus
    // the lock) so the delta isolates the lock acquisition itself.
    const REGIONS: usize = 512;
    let mc2 = Arc::new(TransportConfig::new(vec![0, 0], 1).build_channel());
    let ids: Vec<_> = (0..REGIONS)
        .map(|_| {
            let r = mc2.create_region(4, true);
            mc2.attach_rx(r, 0);
            mc2.write_local(r, 0, 0, 7);
            r
        })
        .collect();
    let mut k = 0usize;
    let lockfree = bench(rounds, 50_000, || {
        black_box(mc2.read_local(black_box(ids[k % REGIONS]), 0, 0));
        k = k.wrapping_add(1);
    });
    report("region lookup: lock-free bucket table", lockfree);

    let locked: parking_lot::RwLock<Vec<Arc<[u64; 4]>>> =
        parking_lot::RwLock::new((0..REGIONS).map(|_| Arc::new([7u64; 4])).collect());
    let mut l = 0usize;
    let rwlock = bench(rounds, 50_000, || {
        let regions = locked.read();
        black_box(regions[black_box(l % REGIONS)][0]);
        l = l.wrapping_add(1);
    });
    report("region lookup: RwLock<Vec<Arc<..>>> baseline", rwlock);

    // --- transport dispatch ---------------------------------------------
    // The engine now reaches the interconnect through `Arc<dyn Transport>`
    // (DESIGN.md §14). These rows price the vtable hop on the remote-write
    // hot path against the pre-trait direct call, on the same channel.
    let direct_chan = Arc::new(TransportConfig::new(vec![0, 1], 2).build_channel());
    let reg = direct_chan.create_region(8, false);
    direct_chan.attach_rx(reg, 1);
    let mut now = 0;
    let mut w = 0u64;
    let direct_call = bench(rounds, 50_000, || {
        now = direct_chan.write(black_box(reg), 0, (w % 8) as usize, w, now);
        w = w.wrapping_add(1);
    });
    report("remote write: direct MemoryChannel call", direct_call);

    let dyn_chan: Arc<dyn Transport> = build_transport(TransportConfig::new(vec![0, 1], 2));
    let dreg = dyn_chan.create_region(8, false);
    dyn_chan.attach_rx(dreg, 1);
    let mut dnow = 0;
    let mut dw = 0u64;
    let dyn_call = bench(rounds, 50_000, || {
        dnow = dyn_chan.write(black_box(dreg), 0, (dw % 8) as usize, dw, dnow);
        dw = dw.wrapping_add(1);
    });
    report("remote write: Arc<dyn Transport> dispatch", dyn_call);

    // --- deterministic parallel engine ----------------------------------
    // The det scheduler's per-operation costs (DESIGN.md §15): the horizon
    // check every read/write/compute entry pays, the coordinator's grant
    // scan over pending gates, and a gate handed from one processor's host
    // thread to another's. The checkpoint row is the one on the engine hot
    // path — it must stay a single atomic load when the horizon is open.
    use cashmere_core::det::DetScheduler;
    let sched = Arc::new(DetScheduler::new(32, 8, 50_000));
    let mut hvt = 0u64;
    let horizon = bench(rounds, 50_000, || {
        // The check is one atomic load whatever it answers; nothing parks
        // here because the bench helper only reads.
        black_box(sched.bench_horizon_check(black_box(hvt % 1_000)));
        hvt = hvt.wrapping_add(7);
    });
    report("det: checkpoint horizon check", horizon);

    for p in 0..32 {
        sched.bench_seed_gate(p, (p as u64 + 1) * 1_000, p as u64);
    }
    let scan = bench(rounds, 50_000, || {
        black_box(sched.bench_grant_scan());
    });
    report("det: coordinator grant scan (32 procs)", scan);

    // Two processors on their own host threads take gates at the same
    // virtual times, so every grant and every window release crosses
    // threads: per gate, one wake of the peer's slot and one sleep on one's
    // own. This is the scheduler's floor per gate for thread-per-processor
    // (thread start-up is amortized over the gates).
    const HANDOFF_GATES: u64 = 20_000;
    let handoff = median_of(rounds, || {
        let sched = Arc::new(DetScheduler::new(2, 2, 50_000));
        let t = Instant::now();
        std::thread::scope(|s| {
            for p in 0..2 {
                let h = sched.handle(p);
                s.spawn(move || {
                    h.start();
                    for vt in 0..HANDOFF_GATES {
                        h.gate_enter(vt);
                        h.gate_exit(vt);
                    }
                    h.finish();
                });
            }
        });
        t.elapsed().as_nanos() as f64 / (2 * HANDOFF_GATES) as f64
    });
    report("det: gate hand-off round trip (2 procs)", handoff);

    // --- workload sampling ----------------------------------------------
    // The service-trace generator's per-op path (DESIGN.md §13): one
    // Zipfian CDF inversion plus the rank→slot map. Allocation-free after
    // setup (proven by crates/workload/tests/alloc_free.rs); these rows
    // keep its cost visible as the keyspace grows.
    use cashmere_workload::{KeyMap, Sampler, XorShift, Zipf};
    let zipf = Zipf::new(4096, 0.99);
    let mut zrng = XorShift::new(0x5EED);
    let invert = bench(rounds, 50_000, || {
        black_box(zipf.invert(black_box(zrng.unit_f64())));
    });
    report("Zipf::invert (4096 keys, theta 0.99)", invert);

    let mut direct = Sampler::new(4096, 0.99, KeyMap::Direct, 0x5EED);
    let sample_direct = bench(rounds, 50_000, || {
        black_box(direct.sample_key());
    });
    report("Sampler::sample_key (direct map)", sample_direct);

    let mut scatter = Sampler::new(4096, 0.99, KeyMap::Scatter, 0x5EED);
    let sample_scatter = bench(rounds, 50_000, || {
        black_box(scatter.sample_key());
    });
    report("Sampler::sample_key (scatter map)", sample_scatter);
}
