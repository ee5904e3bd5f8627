//! Proves the engine's data-access hot path performs zero heap
//! allocations — with observability off AND on — and that the
//! deterministic scheduler's steady state (DESIGN.md §15) performs none
//! either. A counting global allocator wraps the system one; after warming
//! the faults out of a working set, a burst of reads and writes must not
//! allocate at all. The count is per thread, so tests running side by side
//! in this binary cannot charge each other.
//!
//! The same allocator counts live bytes, which bounds what the protocol's
//! metadata costs the host: the directory and the notice board at 1024
//! protocol nodes, and `Engine::new` per structure at three shapes (run
//! with `--nocapture` to see the table). It also records the largest
//! single allocation, which bounds what recording the audit trace asks of
//! the allocator at once.
//!
//! The workspace denies `unsafe code`; this test is the one sanctioned
//! exception, because a `GlobalAlloc` impl cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cashmere_core::directory::Directory;
use cashmere_core::mc_lock::McLock;
use cashmere_core::write_notice::{NleList, NoticeBoard, ProcNoticeList};
use cashmere_core::{
    build_transport, Cluster, DirectoryMode, Engine, Proc, ProtocolEvent, ProtocolKind, RunSpec,
    Topology, TraceEvent, TraceRecorder, Transport,
};
use cashmere_memchan::TransportConfig;
use cashmere_sim::ProcId;
use cashmere_vmpage::PageTable;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it from inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed by this thread. Signed: a thread
    // may free what another allocated.
    static BYTES: Cell<i64> = const { Cell::new(0) };
    // The largest single allocation (or reallocation's new size) this
    // thread has asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc(size: usize, grown: i64) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    count_bytes(grown);
}

fn count_bytes(delta: i64) {
    let _ = BYTES.try_with(|b| b.set(b.get() + delta));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The largest single allocation `run` made on this thread.
fn largest_alloc<T>(run: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let value = run();
    (value, LARGEST.with(Cell::get))
}

/// Runs `build` and returns its value with the heap bytes it left live on
/// this thread (counted while the value is still alive).
fn footprint<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = build();
    let grown = BYTES.with(Cell::get) - before;
    (value, grown.max(0) as u64)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size, new_size as i64 - layout.size() as i64);
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
/// finds no dirty page and an empty NLE list, every acquire an empty notice
/// queue and an empty notice list, so once the carriers' interval lists are reserved
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

// --- host footprint of the protocol metadata ------------------------------

/// Protocol nodes the footprint bounds are asserted at: 64×16 under a
/// one-level protocol.
const PNODES: usize = 1024;

/// A transport with `pnodes` endpoints spread evenly over `nodes` links.
fn transport(pnodes: usize, nodes: usize) -> Arc<dyn Transport> {
    let link_of = (0..pnodes).map(|e| e * nodes / pnodes).collect();
    build_transport(TransportConfig::new(link_of, nodes))
}

/// Heap bytes `Directory::new` leaves live at `PNODES` protocol nodes.
fn directory_bytes(pages: usize, mode: DirectoryMode) -> u64 {
    let mc = transport(PNODES, 64);
    footprint(|| Directory::new(mc, PNODES, pages, mode)).1
}

/// The replicated modes keep one host copy of the directory, one word per
/// (page, node) plus the home word: O(pages × pnodes), not the
/// O(pages × pnodes²) of a replica per node. Sparse grows per page by its
/// per-node caches of `3 + pnodes / 32` words (plus the page's shard
/// entry), and carries a fixed O(pnodes²) term: each of its `pnodes` shard
/// regions has a receive-mapping slot per endpoint.
#[test]
fn directory_host_bytes_at_1024_nodes() {
    let entry = 8 * (PNODES + 1) as u64;
    for mode in [DirectoryMode::LockFree, DirectoryMode::GlobalLock] {
        for pages in [8, 16] {
            let per_page = directory_bytes(pages, mode) / pages as u64;
            println!("directory {mode:?}: {per_page} bytes per page at {PNODES} nodes");
            assert!(
                (entry..entry + 256).contains(&per_page),
                "{mode:?}: {per_page} bytes per page, want one {entry}-byte entry"
            );
        }
    }
    let [small, large] = [8, 16].map(|pages| directory_bytes(pages, DirectoryMode::Sparse));
    let per_page = (large - small) / 8;
    let fixed = small - 8 * per_page;
    println!("directory Sparse: {per_page} bytes per page + {fixed} fixed at {PNODES} nodes");
    let entry_words = 3 + PNODES as u64 / 32;
    let cache = 8 * PNODES as u64 * entry_words;
    assert!(
        (cache..=cache + 8 * entry_words).contains(&per_page),
        "Sparse: {per_page} bytes per page, want {cache} of caches plus a shard entry"
    );
    assert!(
        fixed <= 32 * (PNODES * PNODES) as u64,
        "Sparse: {fixed} fixed bytes, more than one 32-byte slot per (region, endpoint)"
    );
}

/// The notice board keeps one queue and one count per destination: O(pnodes)
/// bytes, not a bin per (destination, sender).
#[test]
fn notice_board_host_bytes_at_1024_nodes() {
    let (_board, bytes) = footprint(|| NoticeBoard::new(PNODES, DirectoryMode::LockFree, 0));
    println!("notice board: {bytes} bytes at {PNODES} nodes");
    assert!(
        bytes <= 256 * PNODES as u64,
        "{bytes} bytes is more than 256 per destination"
    );
}

/// Prints `Engine::new`'s live heap bytes, split by structure, at the
/// paper's 8×4 under 2L, 64×16 under 2L, and 64×16 under 1LD with the
/// default (sparse) and the replicated directory. Each structure is built
/// alone with the engine's parameters; "node pages + rest" is what remains
/// of the engine's total (per-node page state, master slots, the run's
/// transport).
#[test]
fn engine_new_bytes_per_structure() {
    let pages = 16;
    let cells = [
        ("8x4", ProtocolKind::TwoLevel, None),
        ("64x16", ProtocolKind::TwoLevel, None),
        ("64x16", ProtocolKind::OneLevelDiff, None),
        (
            "64x16",
            ProtocolKind::OneLevelDiff,
            Some(DirectoryMode::LockFree),
        ),
    ];
    println!(
        "{:6} {:4} {:10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "shape",
        "prot",
        "directory",
        "total",
        "directory",
        "notices",
        "home lock",
        "page tables",
        "proc lists",
        "pages+rest"
    );
    for (shape, protocol, dir) in cells {
        let topo: Topology = shape.parse().expect("shape");
        let mut spec = RunSpec::new(topo, protocol).with_heap_pages(pages);
        if let Some(m) = dir {
            spec = spec.with_directory(m);
        }
        let pnodes = protocol.node_map().protocol_nodes(&topo);
        let procs = topo.total_procs();
        let (_engine, total) = footprint(|| Engine::new(spec.clone()));
        let mc = transport(pnodes, topo.nodes());
        let (_d, directory) =
            footprint(|| Directory::new(Arc::clone(&mc), pnodes, pages, spec.directory));
        let (_n, notices) = footprint(|| NoticeBoard::new(pnodes, spec.directory, 0));
        let (_l, home_lock) = footprint(|| McLock::new(Arc::clone(&mc), pnodes));
        let (_p, page_table) = footprint(|| Arc::new(PageTable::new(pages)));
        let (_q, lists) = footprint(|| {
            (
                ProcNoticeList::new(pages, procs / pnodes),
                NleList::new(procs),
            )
        });
        let (page_tables, lists) = (procs as u64 * page_table, procs as u64 * lists);
        let parts = directory + notices + home_lock + page_tables + lists;
        assert!(
            parts <= total,
            "{shape} {protocol:?}: parts {parts} > total {total}"
        );
        println!(
            "{shape:6} {:4} {:10} {total:>12} {directory:>12} {notices:>12} {home_lock:>12} \
             {page_tables:>12} {lists:>12} {:>12}",
            protocol.label(),
            format!("{:?}", spec.directory),
            total - parts,
        );
    }
}

// --- host footprint of the audit trace -------------------------------------

// The trace's footprint is events × this size: it may not grow unnoticed.
const _: () = assert!(size_of::<TraceEvent>() <= 56);

/// Bytes of one recorder chunk: 1024 events (the chunk length is private to
/// `core::trace`).
const CHUNK_BYTES: usize = 1024 * size_of::<TraceEvent>();

/// The recorder fills fixed chunks and hands them over as they are: no
/// allocation while recording or taking is larger than one chunk (a
/// run-long buffer would double to the next power of two past the trace),
/// and the taken trace holds its events plus less than one chunk of slack.
#[test]
fn trace_records_in_chunks_and_takes_them_whole() {
    const EVENTS: usize = 200_000;
    let rec = TraceRecorder::new();
    let ((trace, live), largest) = largest_alloc(|| {
        footprint(|| {
            for page in 0..EVENTS {
                rec.emit(ProtocolEvent::Fetch { pnode: 0, page });
            }
            rec.take()
        })
    });
    assert_eq!(trace.len(), EVENTS);
    let payload = (EVENTS * size_of::<TraceEvent>()) as u64;
    println!("trace of {EVENTS} events: {live} live bytes for {payload} of events, largest allocation {largest}");
    assert!(
        largest <= CHUNK_BYTES,
        "largest allocation {largest} bytes, more than one {CHUNK_BYTES}-byte chunk"
    );
    assert!(
        (payload..payload + CHUNK_BYTES as u64).contains(&live),
        "{live} live bytes, want {payload} of events plus less than one chunk"
    );
}
