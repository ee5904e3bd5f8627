//! Per-layer host cost rows: direct calls into each layer's public
//! functions, timed in isolation (host ns/op).
//!
//! Each row is [`ROUNDS`] rounds of at least [`ROUND_MS`] ms; the value is
//! the median round and the spread is the median absolute deviation. A row
//! whose MAD exceeds a tenth of its median is reported as unresolved — the
//! number is still printed, but nothing should be concluded from a move
//! within it. Virtual time is not involved anywhere in this file.

use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cashmere_apps::{Benchmark, Scale, Sor};
use cashmere_check::audit;
use cashmere_core::det::DetScheduler;
use cashmere_core::directory::{DirWord, Directory, PermBits};
use cashmere_core::write_notice::{NoticeBoard, ProcNoticeList};
use cashmere_core::{
    DirectoryMode, FaultKind, FaultPlan, FaultRule, Proc, ProtocolKind, RunSpec, SyncSpec,
    Topology, Transport, PAGE_BYTES, PAGE_WORDS,
};
use cashmere_memchan::TransportConfig;
use cashmere_sim::{HorizonClock, Resource};
use cashmere_transport::build_transport;
use cashmere_vmpage::{apply_incoming_diff, diff_against_twin, Frame, PagePool, PageTable, Perm};
use cashmere_workload::{XorShift, Zipf};

use crate::spans::Spans;

pub const ROUNDS: usize = 15;
pub const ROUND_MS: u64 = 20;

/// One measured row.
pub struct Row {
    pub name: &'static str,
    /// Median host ns per operation.
    pub ns: f64,
    /// Median absolute deviation of the rounds, ns per operation.
    pub mad: f64,
}

impl Row {
    pub fn resolved(&self) -> bool {
        self.mad <= 0.1 * self.ns
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Times `f`: (median, MAD) in ns per call.
fn sample(mut f: impl FnMut()) -> (f64, f64) {
    let round = |iters: u64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64
    };
    // Grow the iteration count until one round lasts long enough.
    let want = (ROUND_MS * 1_000_000) as f64;
    let mut iters = 16u64;
    loop {
        let ns = round(iters, &mut f);
        if ns >= want {
            break;
        }
        let scale = (1.2 * want / ns.max(1.0)).ceil().clamp(2.0, 1024.0);
        iters = iters.saturating_mul(scale as u64);
    }
    let mut per_op: Vec<f64> = (0..ROUNDS)
        .map(|_| round(iters, &mut f) / iters as f64)
        .collect();
    let med = median(&mut per_op);
    let mut dev: Vec<f64> = per_op.iter().map(|x| (x - med).abs()).collect();
    (med, median(&mut dev))
}

/// Runs `body` on the single processor of a 1x1 cluster, passing it the base
/// address of four allocated pages.
fn on_one_proc(body: impl Fn(&mut Proc, usize) -> (f64, f64) + Sync) -> (f64, f64) {
    let spec = RunSpec::new(Topology::new(1, 1), ProtocolKind::TwoLevel)
        .with_sync(SyncSpec {
            locks: 1,
            barriers: 1,
            flags: 0,
        })
        .with_heap_pages(8);
    let mut cluster = spec.build_cluster(|_| {});
    let base = cluster.alloc_page_aligned(4 * PAGE_WORDS);
    let slot = OnceLock::new();
    cluster.run(|p| {
        slot.set(body(p, base)).expect("one processor, one result");
    });
    slot.into_inner().expect("the processor ran")
}

fn channel(endpoints: usize) -> Arc<dyn Transport> {
    build_transport(TransportConfig::new((0..endpoints).collect(), endpoints))
}

fn dir_word(i: usize) -> DirWord {
    DirWord {
        perm: if i.is_multiple_of(2) {
            PermBits::Read
        } else {
            PermBits::Write
        },
        exclusive: false,
        excl_proc: 0,
    }
}

/// Measures every row, one benchmark-side span each.
pub fn measure(spans: &Spans) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut row = |name: &'static str, f: &mut dyn FnMut() -> (f64, f64)| {
        let (ns, mad) = spans.scope(name, None, f);
        rows.push(Row { name, ns, mad });
    };

    // --- vmpage -----------------------------------------------------------
    let frame = Frame::new();
    for i in 0..PAGE_WORDS {
        frame.store(i, i as u64);
    }
    let pool = PagePool::new();
    row("vmpage.twin_pooled_ns", &mut || {
        sample(|| {
            let t = pool.twin_of(black_box(&frame));
            pool.release(black_box(t));
        })
    });
    let twin = pool.twin_of(&frame);
    for k in 0..8 {
        frame.store(k * 128 + 3, u64::MAX - k as u64);
    }
    row("vmpage.diff_sparse_ns", &mut || {
        sample(|| {
            black_box(diff_against_twin(black_box(&frame), &twin));
        })
    });
    for i in 0..PAGE_WORDS {
        frame.store(i, !(i as u64));
    }
    row("vmpage.diff_dense_ns", &mut || {
        sample(|| {
            black_box(diff_against_twin(black_box(&frame), &twin));
        })
    });
    // Two master copies 8 words apart, alternated, so that every call has
    // 8 remote words to apply.
    let mut masters = [[0u64; PAGE_WORDS]; 2];
    for k in 0..8 {
        masters[1][k * 128 + 5] = 1 + k as u64;
    }
    let mut twin = pool.twin_of(&frame);
    let mut flip = 0usize;
    row("vmpage.apply_incoming_ns", &mut || {
        sample(|| {
            flip ^= 1;
            black_box(apply_incoming_diff(&frame, &mut twin, &masters[flip]));
        })
    });
    let pt = PageTable::new(256);
    for p in 0..256 {
        pt.set(p, [Perm::None, Perm::Read, Perm::Write][p % 3]);
    }
    let mut i = 0usize;
    row("vmpage.pt_check_ns", &mut || {
        sample(|| {
            black_box(pt.read_faults(black_box(i % 256)) | pt.write_faults(i % 256));
            i = i.wrapping_add(1);
        })
    });

    // --- transport (memchan behind the trait) ---------------------------
    let mc = channel(2);
    let reg = mc.create_region(PAGE_WORDS, false);
    mc.attach_rx(reg, 1);
    let (mut now, mut w) = (0, 0u64);
    row("transport.remote_write_ns", &mut || {
        sample(|| {
            now = mc.write(black_box(reg), 0, (w % 8) as usize, w, now);
            w = w.wrapping_add(1);
        })
    });
    // A page's diff as 64 runs of 8 words (every other chunk dirty).
    let vals = [7u64; 8];
    let runs: Vec<(u32, &[u64])> = (0..64).map(|k| (k * 16, &vals[..])).collect();
    row("transport.write_runs_page_ns", &mut || {
        sample(|| {
            now = mc.write_runs(reg, 0, black_box(&runs), now);
        })
    });
    let mc64 = channel(64);
    let reg64 = mc64.create_region(8, false);
    for e in 0..64 {
        mc64.attach_rx(reg64, e);
    }
    let mut now64 = 0;
    row("transport.write_tree64_ns", &mut || {
        sample(|| {
            now64 = mc64.write_tree(reg64, 0, 0, black_box(now64), 4, now64);
        })
    });
    let ids: Vec<_> = (0..512)
        .map(|_| {
            let r = mc.create_region(4, true);
            mc.attach_rx(r, 0);
            r
        })
        .collect();
    let mut k = 0usize;
    row("transport.region_lookup_ns", &mut || {
        sample(|| {
            black_box(mc.read_local(black_box(ids[k % 512]), 0, 0));
            k = k.wrapping_add(1);
        })
    });
    row("transport.fetch_data_ns", &mut || {
        sample(|| {
            now = mc.fetch_data(1, black_box(PAGE_BYTES as u64), now);
        })
    });

    // --- directory --------------------------------------------------------
    let dir = Directory::new(channel(8), 8, 256, DirectoryMode::LockFree);
    for p in 0..256 {
        dir.write_my_word(p, p % 8, dir_word(0), 0);
    }
    let mut i = 0usize;
    row("directory.read_word_ns", &mut || {
        sample(|| {
            black_box(dir.read_word(black_box(i % 256), i % 8, (i / 7) % 8));
            i = i.wrapping_add(1);
        })
    });
    row("directory.sharers8_ns", &mut || {
        sample(|| {
            black_box(dir.sharers(black_box(i % 256), i % 8, usize::MAX));
            i = i.wrapping_add(1);
        })
    });
    let mut dnow = 0;
    row("directory.update_lockfree_ns", &mut || {
        sample(|| {
            dnow = dir.write_my_word(i % 256, i % 8, dir_word(i / 256), dnow);
            i = i.wrapping_add(1);
        })
    });
    // 64 protocol nodes: what 2L runs at 64x16.
    let sparse = Directory::new(channel(64), 64, 256, DirectoryMode::Sparse);
    let mut snow = 0;
    row("directory.update_sparse_ns", &mut || {
        sample(|| {
            snow = sparse.write_my_word(i % 256, i % 64, dir_word(i / 256), snow);
            i = i.wrapping_add(1);
        })
    });
    for p in 0..256 {
        black_box(sparse.read_word(p, p % 64, 5));
    }
    row("directory.read_sparse_cached_ns", &mut || {
        sample(|| {
            black_box(sparse.read_word(black_box(i % 256), i % 64, 5));
            i = i.wrapping_add(1);
        })
    });

    // --- write_notice -----------------------------------------------------
    // Both lists are drained every 1024 entries so they stay bounded; the
    // drain's share is in the row.
    let board = NoticeBoard::new(4, DirectoryMode::LockFree, 0);
    let mut n = 0u32;
    row("write_notice.post_ns", &mut || {
        sample(|| {
            board.post(1, (n % 4) as usize, black_box(n % 4096), 0);
            n = n.wrapping_add(1);
            if n.is_multiple_of(1024) {
                black_box(board.drain(1));
            }
        })
    });
    row("write_notice.drain64_ns", &mut || {
        sample(|| {
            for p in 0..64u32 {
                board.post(1, (p % 4) as usize, p, 0);
            }
            black_box(board.drain(1));
        })
    });
    let list = ProcNoticeList::new(4096, 4);
    row("write_notice.proc_insert_ns", &mut || {
        sample(|| {
            black_box(list.insert(black_box(n % 4096), (n % 4) as usize));
            n = n.wrapping_add(1);
            if n.is_multiple_of(1024) {
                black_box(list.drain());
            }
        })
    });

    // --- sync, engine: through `Proc` on a one-processor cluster ---------
    row("sync.lock_pair_ns", &mut || {
        on_one_proc(|p, _| {
            sample(|| {
                p.lock(0);
                p.unlock(0);
            })
        })
    });
    row("engine.read_hit_ns", &mut || {
        on_one_proc(|p, base| {
            let mut i = 0usize;
            sample(|| {
                black_box(p.read_u64(base + i % PAGE_WORDS));
                i = i.wrapping_add(1);
            })
        })
    });
    row("engine.write_hit_ns", &mut || {
        on_one_proc(|p, base| {
            let mut i = 0usize;
            sample(|| {
                p.write_u64(base + i % PAGE_WORDS, i as u64);
                i = i.wrapping_add(1);
            })
        })
    });
    row("engine.read_run_ns_per_word", &mut || {
        let (ns, mad) = on_one_proc(|p, base| {
            let mut buf = vec![0u64; PAGE_WORDS];
            sample(|| {
                p.read_run_u64(base, black_box(&mut buf));
            })
        });
        (ns / PAGE_WORDS as f64, mad / PAGE_WORDS as f64)
    });

    // --- det --------------------------------------------------------------
    let sched = Arc::new(DetScheduler::new(32, 1, 50_000));
    let mut vt = 0u64;
    row("det.checkpoint_ns", &mut || {
        sample(|| {
            black_box(sched.bench_horizon_check(black_box(vt % 1_000)));
            vt = vt.wrapping_add(7);
        })
    });
    for p in 0..32 {
        sched.bench_seed_gate(p, (p as u64 + 1) * 1_000, p as u64);
    }
    row("det.grant_scan32_ns", &mut || {
        sample(|| {
            black_box(sched.bench_grant_scan());
        })
    });
    let hc = HorizonClock::new(50_000);
    let mut wvt = 0u64;
    row("det.horizon_roundtrip_ns", &mut || {
        sample(|| {
            let end = hc.advance_past(black_box(wvt));
            hc.wait_past(end - 1, |_| unreachable!("the window just opened"));
            wvt = end;
        })
    });

    // --- sim ----------------------------------------------------------------
    let res = Resource::new();
    let mut rnow = 0;
    row("sim.resource_acquire_ns", &mut || {
        sample(|| {
            rnow = res.acquire(black_box(rnow), 100);
        })
    });

    // --- check: the auditor over one fixed trace ---------------------------
    let sor = Sor::new(Scale::Test);
    let spec = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel).with_audit(true);
    let mut cluster = spec.build_cluster(|cfg| sor.configure(cfg));
    sor.execute(&mut cluster);
    let trace = cluster.take_trace();
    row("check.audit_ns_per_event", &mut || {
        let (ns, mad) = sample(|| {
            black_box(audit(black_box(&trace)));
        });
        (ns / trace.len() as f64, mad / trace.len() as f64)
    });

    // --- faults: one interposition decision --------------------------------
    let plan = FaultPlan::new(7).with_rule(FaultRule::new(FaultKind::DuplicateWrite, 0.25));
    let mut fnow = 0u64;
    row("faults.decision_ns", &mut || {
        sample(|| {
            black_box(plan.write_fault(black_box(1), 0, fnow));
            fnow += 13;
        })
    });

    // --- workload -----------------------------------------------------------
    let zipf = Zipf::new(4096, 0.99);
    let mut rng = XorShift::new(0x5EED);
    row("workload.zipf_invert_ns", &mut || {
        sample(|| {
            black_box(zipf.invert(black_box(rng.unit_f64())));
        })
    });

    rows
}
