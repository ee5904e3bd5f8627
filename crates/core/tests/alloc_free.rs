//! Proves the engine's data-access hot path performs zero heap
//! allocations — with observability off AND on — and that the
//! deterministic scheduler's steady state (DESIGN.md §15) performs none
//! either. A counting global allocator wraps the system one; after warming
//! the faults out of a working set, a burst of reads and writes must not
//! allocate at all. The count is per thread, so tests running side by side
//! in this binary cannot charge each other.
//!
//! The workspace denies `unsafe code`; this test is the one sanctioned
//! exception, because a `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use cashmere_core::{Cluster, Proc, ProtocolKind, RunSpec, Topology};
use cashmere_sim::ProcId;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn assert_hot_path_allocation_free(obs: bool) {
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(4)
        .with_obs(obs);
    let cluster = Cluster::new(cfg);
    let engine = cluster.engine();
    let mut ctx = engine.make_ctx(ProcId(0));
    // No bus-batch settling: `Resource` bookkeeping is not under test.
    ctx.bus_bytes = 0;
    // Warm the working set: fault every page in for write.
    for page in 0..4 {
        engine.write_word(&mut ctx, page * 512, 1);
    }
    let before = allocs();
    for round in 0..100u64 {
        for page in 0..4 {
            let addr = page * 512 + (round as usize % 64);
            let v = engine.read_word(&mut ctx, addr);
            engine.write_word(&mut ctx, addr, v + 1);
        }
    }
    let delta = allocs() - before;
    assert_eq!(delta, 0, "hot path allocated {delta} times with obs={obs}");
}

#[test]
fn hot_path_is_allocation_free_with_obs_off() {
    assert_hot_path_allocation_free(false);
}

#[test]
fn hot_path_is_allocation_free_with_obs_on() {
    assert_hot_path_allocation_free(true);
}

/// `rounds` warm read-modify-writes of one word each plus a slice of
/// compute: under the det engine every operation entry is a checkpoint
/// (parking at each window end), and every 4 KB of bus traffic settles
/// through an exclusive gate.
fn det_burst(p: &mut Proc, base: usize, rounds: usize) {
    for r in 0..rounds {
        let addr = base + r % 64;
        let v = p.read_u64(addr);
        p.write_u64(addr, v + 1);
        p.compute(3_000);
    }
}

#[test]
fn det_scheduler_steady_state_is_allocation_free() {
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(4)
        .with_det_parallel(2);
    let mut cluster = Cluster::new(cfg);
    let base = cluster.alloc_page_aligned(4 * 512);
    let burst_allocs = AtomicU64::new(0);
    cluster.run(|p| {
        // A page of its own per processor: after the first fault nothing
        // here is shared, so the only scheduler traffic is windows and
        // bus-settle gates.
        let mine = base + p.id() * 512;
        // Warm-up: the fault, the first windows, and each bus's interval
        // list (reserved on first use).
        det_burst(p, mine, 5_000);
        let before = allocs();
        det_burst(p, mine, 20_000);
        burst_allocs.fetch_add(allocs() - before, Ordering::SeqCst);
    });
    let st = cluster.det_stats();
    assert!(
        st.windows > 1_000 && st.gates > 40 && st.wakes > 1_000,
        "the burst must cross windows, take gates and hand turns over: {st:?}"
    );
    assert_eq!(
        burst_allocs.load(Ordering::SeqCst),
        0,
        "det steady state allocated"
    );
}

/// Barriers and lock pairs on a cluster that shares no data: every release
/// finds no dirty page and an empty NLE list, every acquire empty bins and
/// an empty notice list, so once the carriers' interval lists are reserved
/// a synchronization must not touch the heap at all.
fn assert_idle_sync_allocation_free(topology: Topology, pairs: usize) {
    let cluster = Cluster::new(RunSpec::new(topology, ProtocolKind::TwoLevel).with_heap_pages(4));
    let burst_allocs = AtomicU64::new(0);
    cluster.run(|p| {
        // Warm-up: the barrier's and the lock's virtual-time slot lists.
        p.barrier(0);
        p.lock(0);
        p.unlock(0);
        p.barrier(0);
        let before = allocs();
        for _ in 0..pairs {
            p.barrier(0);
            p.lock(0);
            p.unlock(0);
        }
        burst_allocs.fetch_add(allocs() - before, Ordering::SeqCst);
    });
    let procs = topology.total_procs() as u64;
    assert_eq!(
        cluster.engine().counters().lock_acquires,
        procs * (pairs as u64 + 1),
        "every processor took every pair"
    );
    assert_eq!(
        burst_allocs.load(Ordering::SeqCst),
        0,
        "idle synchronization allocated on {topology:?}"
    );
}

#[test]
fn idle_sync_is_allocation_free_on_2x2() {
    assert_idle_sync_allocation_free(Topology::new(2, 2), 200);
}

#[test]
fn idle_sync_is_allocation_free_on_64x16() {
    assert_idle_sync_allocation_free(Topology::new(64, 16), 3);
}
