//! Host-side hot-path microbenchmarks (`cargo run --release -p
//! cashmere-bench --bin hotpath`) for the paths the repo benchmark's
//! `per_layer` list (`benchmark/src/layers.rs`) has no row for:
//!
//! * **write-notice batch** — 64 striped [`ProcNoticeList`] inserts plus
//!   the drain that merges them back into post order;
//! * **empty drains** — the three write-notice lists drained with nothing
//!   pending, at several cluster sizes: what an acquire or a release pays
//!   when there is no coherence work, which must not grow with the cluster
//!   (the benchmark's `write_notice.drain64_ns` times the full-list case);
//! * **det checkpoint** — `DetHandle::checkpoint` inside an open window:
//!   the position store plus the horizon load every operation entry pays
//!   (the benchmark's `det.checkpoint_ns` row times the load alone);
//! * **det gate hand-off** — a gate handed from one processor's host
//!   thread to another's, the scheduler's floor per gate;
//! * **workload sampling** — the service-trace generator's per-op path.
//!
//! Numbers are host nanoseconds per operation (median of [`ROUNDS`]
//! rounds). Virtual time is not involved: everything here is charge-free
//! host machinery (DESIGN.md §10).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cashmere_core::det::{DetScheduler, QUANTUM_NS};
use cashmere_core::write_notice::{NleList, NoticeBoard, ProcNoticeList};
use cashmere_core::DirectoryMode;
use cashmere_workload::{KeyMap, Sampler};

/// Timing rounds per row; the median is reported.
const ROUNDS: usize = 5;

/// Median of [`ROUNDS`] calls of `round`, each returning its ns/op.
fn median_of(round: impl FnMut() -> f64) -> f64 {
    let mut per_op: Vec<f64> = std::iter::repeat_with(round).take(ROUNDS).collect();
    per_op.sort_by(f64::total_cmp);
    per_op[ROUNDS / 2]
}

/// Median ns/op over [`ROUNDS`] timing rounds of `iters` calls each.
fn bench(iters: usize, mut f: impl FnMut()) -> f64 {
    median_of(|| {
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

/// One empty-drain row: a million calls a round, so a 1 ns drain is timed
/// over a millisecond.
fn empty_drain(name: String, drain: impl FnMut()) {
    report(&name, bench(1_000_000, drain));
}

fn main() {
    println!("hotpath microbenchmarks ({ROUNDS} rounds, median reported)");

    let list = ProcNoticeList::new(4096, 4);
    let drain = bench(200, || {
        for p in 0..64u32 {
            list.insert(p, (p % 4) as usize);
        }
        black_box(list.drain());
    });
    report("ProcNoticeList: 64 inserts + drain", drain);

    // Each list holds one entry going in, so all but the first of the
    // timed drains are of a list that has been occupied and emptied, not
    // of a never-touched one.
    for pnodes in [8, 64, 1024] {
        let board = NoticeBoard::new(pnodes, DirectoryMode::LockFree, 0);
        board.post(0, pnodes - 1, 1, 0);
        empty_drain(
            format!("NoticeBoard::drain, empty ({pnodes} nodes)"),
            || {
                black_box(board.drain(black_box(0)));
            },
        );
    }
    for posters in [32, 1024] {
        let nle = NleList::new(posters);
        nle.push(1, posters - 1);
        empty_drain(format!("NleList::drain, empty ({posters} posters)"), || {
            black_box(black_box(&nle).drain());
        });
    }
    for stripes in [4, 16] {
        let list = ProcNoticeList::new(4096, stripes);
        list.insert(1, stripes - 1);
        empty_drain(
            format!("ProcNoticeList::drain, empty ({stripes} stripes)"),
            || {
                black_box(black_box(&list).drain());
            },
        );
    }

    // One processor inside its first window, which the start barrier opens
    // at [0, QUANTUM_NS): no checkpoint below parks.
    let sched = Arc::new(DetScheduler::new(1, 1, QUANTUM_NS));
    let h = sched.handle(0);
    h.start();
    let mut vt = 0;
    let checkpoint = bench(1_000_000, || {
        h.checkpoint(black_box(vt % QUANTUM_NS));
        vt += 7;
    });
    h.finish();
    report("det: checkpoint, open window", checkpoint);

    // Two processors on their own host threads take gates at the same
    // virtual times, so every grant and every window release crosses
    // threads: per gate, one wake of the peer's slot and one sleep on one's
    // own. This is the scheduler's floor per gate for thread-per-processor
    // (thread start-up is amortized over the gates).
    const HANDOFF_GATES: u64 = 20_000;
    let handoff = median_of(|| {
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

    // One Zipfian CDF inversion plus the rank→slot map (DESIGN.md §13).
    // Allocation-free after setup (proven by
    // crates/workload/tests/alloc_free.rs); these rows keep its cost
    // visible as the keyspace grows.
    for (name, map) in [("direct", KeyMap::Direct), ("scatter", KeyMap::Scatter)] {
        let mut sampler = Sampler::new(4096, 0.99, map, 0x5EED);
        let ns = bench(50_000, || {
            black_box(sampler.sample_key());
        });
        report(&format!("Sampler::sample_key ({name} map)"), ns);
    }
}
