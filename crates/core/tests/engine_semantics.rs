//! Deterministic, single-threaded protocol-semantics tests.
//!
//! These drive the [`Engine`] directly through per-processor contexts in
//! precisely controlled interleavings — no OS-thread scheduling involved —
//! to pin down the §2.4 state machine: directory transitions, write-notice
//! flow, timestamp-based fetch elimination, the release flush-skip rule,
//! exclusive mode, and the no-longer-exclusive (NLE) path.

use cashmere_core::directory::PermBits;
use cashmere_core::engine::ProcCtx;
use cashmere_core::report::Counters;
use cashmere_core::{Engine, ProtocolKind, RunSpec, SyncSpec, Topology, PAGE_WORDS};
use cashmere_sim::ProcId;

/// Table 3 counters summed over the contexts a test drives (each processor
/// counts into its own tally).
fn counted(ctxs: &[&ProcCtx]) -> Counters {
    let mut sum = Counters::default();
    for ctx in ctxs {
        sum.merge(&ctx.tally.counters);
    }
    sum
}

/// 2 nodes × 2 processors, two-level protocol, first-touch homing.
fn engine() -> std::sync::Arc<Engine> {
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    Engine::new(cfg)
}

#[test]
fn first_touch_assigns_home_and_directory_word() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0));
    // Page untouched: no directory presence.
    assert!(!e.directory().shared_by_others(0, 0, usize::MAX));

    e.write_word(&mut p0, 0, 42);
    // Home relocated to node 0; node 0's word shows a write mapping.
    assert_eq!(e.directory().read_home(0, 0).unwrap().pnode, 0);
    assert!(!e.directory().read_home(0, 0).unwrap().is_default);
    assert_eq!(e.directory().read_word(0, 0, 1).perm, PermBits::Write);
    assert_eq!(counted(&[&p0]).home_relocations, 1);
    // Home-node writes go straight to the master copy.
    assert_eq!(e.read_back(0), 42);
}

#[test]
fn remote_reader_joins_sharing_set_and_fetches() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // node 0
    let mut p2 = e.make_ctx(ProcId(2)); // node 1

    e.write_word(&mut p0, 5, 7);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 5), 7);

    // Node 1 now appears in the sharing set with a read mapping.
    assert_eq!(e.directory().read_word(0, 1, 0).perm, PermBits::Read);
    assert_eq!(
        counted(&[&p0, &p2]).page_transfers,
        1,
        "one fetch for the remote copy"
    );
}

#[test]
fn intra_node_sharing_coalesces_fetches() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // node 0 — will be home
    let mut p2 = e.make_ctx(ProcId(2)); // node 1
    let mut p3 = e.make_ctx(ProcId(3)); // node 1, same frame as p2

    e.write_word(&mut p0, 0, 9);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 0), 9);
    let after_first = counted(&[&p0, &p2, &p3]).page_transfers;
    // The sibling faults (its own mprotect) but reuses the node's frame:
    // its update timestamp is newer than both the page's write-notice
    // timestamp and its acquire timestamp.
    e.acquire_actions(&mut p3);
    assert_eq!(e.read_word(&mut p3, 0), 9);
    assert_eq!(
        counted(&[&p0, &p2, &p3]).page_transfers,
        after_first,
        "no second fetch within the node"
    );
    assert!(
        counted(&[&p0, &p2, &p3]).read_faults >= 2,
        "both processors still took their faults"
    );
}

#[test]
fn write_notice_invalidates_only_after_acquire() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0));
    let mut p2 = e.make_ctx(ProcId(2));

    // Node 1 maps the page.
    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 0), 1);

    // Node 0 writes again and releases — the notice is posted but p2 has
    // not acquired: its (stale) mapping legitimately survives.
    e.write_word(&mut p0, 0, 2);
    e.release_actions(&mut p0);
    assert_eq!(
        e.read_word(&mut p2, 0),
        1,
        "lazy RC: stale read allowed before acquire"
    );

    // After the acquire the invalidation takes effect and the fresh value
    // is fetched.
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 0), 2, "acquire → invalidate → fetch");
    assert!(counted(&[&p0, &p2]).write_notices >= 1);
}

#[test]
fn release_flush_merges_into_master_and_downgrades() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // home node
    let mut p2 = e.make_ctx(ProcId(2)); // remote writer

    // Home the page at node 0 and share it with node 1.
    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    e.write_word(&mut p2, 1, 22); // remote write → twin + dirty list
    assert_eq!(counted(&[&p0, &p2]).twin_creations, 1);
    assert_eq!(
        e.read_back(1),
        0,
        "unflushed modification not yet at the master"
    );

    e.release_actions(&mut p2);
    assert_eq!(e.read_back(1), 22, "release flushed the outgoing diff");
    // The write permission was downgraded: node 1's word drops to Read.
    assert_eq!(e.directory().read_word(0, 1, 0).perm, PermBits::Read);
    // Another write faults again and recreates nothing it doesn't need.
    e.write_word(&mut p2, 1, 23);
    e.release_actions(&mut p2);
    assert_eq!(e.read_back(1), 23);
}

#[test]
fn exclusive_mode_entry_and_break_via_nle() {
    // Superpage granularity 2 so a non-home private page exists.
    let mut cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    cfg.pages_per_superpage = 2;
    let e = Engine::new(cfg);
    let mut p0 = e.make_ctx(ProcId(0)); // node 0
    let mut p2 = e.make_ctx(ProcId(2)); // node 1
    let mut p3 = e.make_ctx(ProcId(3)); // node 1

    // p0 first-touches page 0 → superpage {0,1} homed at node 0.
    e.write_word(&mut p0, 0, 1);
    // p2 privately writes page 1 (non-home, unshared) → exclusive mode.
    e.write_word(&mut p2, PAGE_WORDS, 5);
    let (holder, _) = e
        .directory()
        .exclusive_holder(1, 0)
        .expect("page 1 exclusive");
    assert_eq!(holder, 1, "node 1 holds page 1 exclusively");
    assert_eq!(counted(&[&p0, &p2, &p3]).exclusive_transitions, 1);

    // A sibling writer joins under hardware coherence without leaving
    // exclusive mode.
    e.write_word(&mut p3, PAGE_WORDS + 1, 6);
    assert!(
        e.directory().exclusive_holder(1, 0).is_some(),
        "sibling join keeps exclusivity"
    );

    // Exclusive pages incur no flushes or notices at the holder's release
    // (read_back deliberately follows the exclusive holder's frame, so the
    // value is still observable for verification).
    e.release_actions(&mut p2);
    assert_eq!(counted(&[&p0, &p2, &p3]).write_notices, 0);
    assert_eq!(
        counted(&[&p0, &p2, &p3]).flush_updates,
        0,
        "no flush while exclusive"
    );
    assert_eq!(
        e.read_back(PAGE_WORDS),
        5,
        "read_back follows the exclusive holder"
    );

    // A remote read breaks exclusivity: the page is flushed whole, the
    // sibling writer gets an NLE notice, and the reader sees the data.
    assert_eq!(e.read_word(&mut p0, PAGE_WORDS), 5);
    assert!(e.directory().exclusive_holder(1, 0).is_none());
    assert_eq!(counted(&[&p0, &p2, &p3]).exclusive_transitions, 2);
    assert_eq!(
        e.read_back(PAGE_WORDS + 1),
        6,
        "break flushed the sibling's write too"
    );

    // The sibling still holds its write mapping; its next release must
    // flush its subsequent writes via the NLE list + twin.
    e.write_word(&mut p3, PAGE_WORDS + 1, 66); // no fault: mapping survived
    e.release_actions(&mut p3);
    assert_eq!(
        e.read_back(PAGE_WORDS + 1),
        66,
        "NLE page flushed at the sibling's release"
    );
}

#[test]
fn overlapping_releases_skip_redundant_flushes_but_both_downgrade() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // home
    let mut p2 = e.make_ctx(ProcId(2)); // node 1 writer A
    let mut p3 = e.make_ctx(ProcId(3)); // node 1 writer B

    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    e.acquire_actions(&mut p3);
    e.write_word(&mut p2, 1, 11);
    e.write_word(&mut p3, 2, 22);

    // A's release flushes the node-level diff — covering B's words too.
    e.release_actions(&mut p2);
    assert_eq!(e.read_back(1), 11);
    assert_eq!(
        e.read_back(2),
        22,
        "node-level diff covers the sibling's words"
    );
    let flushes_after_a = counted(&[&p0, &p2, &p3]).flush_updates;

    // B's release finds nothing new to flush but still downgrades B.
    e.release_actions(&mut p3);
    assert_eq!(
        counted(&[&p0, &p2, &p3]).flush_updates,
        flushes_after_a,
        "no redundant flush"
    );
    assert_eq!(
        e.directory().read_word(0, 1, 0).perm,
        PermBits::Read,
        "both write mappings downgraded"
    );
    // B's next write must fault (the downgrade really happened).
    let wf = counted(&[&p0, &p2, &p3]).write_faults;
    e.write_word(&mut p3, 2, 23);
    assert_eq!(counted(&[&p0, &p2, &p3]).write_faults, wf + 1);
    e.release_actions(&mut p3);
    assert_eq!(e.read_back(2), 23);
}

#[test]
fn two_way_diffing_on_fetch_preserves_unflushed_local_words() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // home
    let mut p2 = e.make_ctx(ProcId(2)); // node 1

    // Share the page, then create a concurrent-writer situation: node 1
    // writes word 1 (unflushed), node 0 writes word 2 and releases.
    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    e.write_word(&mut p2, 1, 111); // twin created; stays dirty
    e.write_word(&mut p0, 2, 222);
    e.release_actions(&mut p0);

    // Node 1 acquires: the notice invalidates its mapping; the re-fetch
    // applies an incoming diff that must keep word 1.
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 2), 222, "remote write arrived");
    assert_eq!(
        e.read_word(&mut p2, 1),
        111,
        "local unflushed write survived"
    );
    assert!(
        counted(&[&p0, &p2]).incoming_diffs >= 1,
        "two-way diff path exercised"
    );
    // And the local word still flushes at the next release.
    e.release_actions(&mut p2);
    assert_eq!(e.read_back(1), 111);
}

#[test]
fn shootdown_variant_downgrades_concurrent_writers_on_fetch() {
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevelShootdown)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    let e = Engine::new(cfg);
    let mut p0 = e.make_ctx(ProcId(0)); // home
    let mut p2 = e.make_ctx(ProcId(2)); // node 1 writer
    let mut p3 = e.make_ctx(ProcId(3)); // node 1 reader (will fetch)

    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    e.write_word(&mut p2, 1, 11); // p2 holds a write mapping + twin
    e.write_word(&mut p0, 2, 22);
    e.release_actions(&mut p0);

    // p3's acquire + read forces a fetch while p2 is a concurrent local
    // writer: under 2LS this shoots p2 down instead of incoming-diffing.
    e.acquire_actions(&mut p3);
    assert_eq!(e.read_word(&mut p3, 2), 22);
    assert!(
        counted(&[&p0, &p2, &p3]).shootdowns >= 1,
        "2LS used shootdown"
    );
    assert_eq!(
        counted(&[&p0, &p2, &p3]).incoming_diffs,
        0,
        "2LS never applies incoming diffs"
    );
    // p2's outstanding write was flushed by the shootdown, not lost.
    assert_eq!(e.read_back(1), 11);
    // p2's next write faults again (its mapping was downgraded).
    let wf = counted(&[&p0, &p2, &p3]).write_faults;
    e.write_word(&mut p2, 1, 12);
    assert_eq!(counted(&[&p0, &p2, &p3]).write_faults, wf + 1);
}

#[test]
fn one_level_release_enters_exclusive_when_unshared() {
    // 1LD: a page whose last foreign sharer dropped out re-enters
    // exclusive mode at the writer's release (§2.6). The page's home
    // (protocol node 0 via p0's superpage first touch) must be a third
    // party: home mappings never invalidate, so the reader is p2.
    let mut cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::OneLevelDiff)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    cfg.pages_per_superpage = 2;
    let e = Engine::new(cfg);
    let mut p0 = e.make_ctx(ProcId(0));
    let mut p1 = e.make_ctx(ProcId(1));
    let mut p2 = e.make_ctx(ProcId(2));

    // p0 first-touches page 0 (homes superpage {0,1} at protocol node 0);
    // p1 then writes page 1 — a non-home page with no other sharers.
    e.write_word(&mut p0, 0, 1);
    e.write_word(&mut p1, PAGE_WORDS, 5);
    // Entered exclusive at the write fault already (no sharers).
    assert!(e.directory().exclusive_holder(1, 1).is_some());

    // p2 reads: breaks exclusivity and joins the sharing set.
    assert_eq!(e.read_word(&mut p2, PAGE_WORDS), 5);
    assert!(e.directory().exclusive_holder(1, 1).is_none());

    // p1 writes + releases (notice to p2); p2's acquire invalidates its
    // mapping, leaving p1 the only sharer again.
    e.acquire_actions(&mut p1);
    e.write_word(&mut p1, PAGE_WORDS, 6);
    e.release_actions(&mut p1);
    e.acquire_actions(&mut p2);

    // p1 writes and releases once more: with no remaining sharers the page
    // moves back to exclusive mode at the release.
    e.write_word(&mut p1, PAGE_WORDS, 7);
    e.release_actions(&mut p1);
    assert!(
        e.directory().exclusive_holder(1, 0).is_some(),
        "1LD re-entered exclusive mode once unshared"
    );
    // And the data is still reachable (break + fetch).
    assert_eq!(e.read_word(&mut p2, PAGE_WORDS), 7);
}

#[test]
fn write_through_protocol_needs_no_twins_and_master_is_always_current() {
    let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::OneLevelWrite)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    let e = Engine::new(cfg);
    let mut p0 = e.make_ctx(ProcId(0));
    let mut p1 = e.make_ctx(ProcId(1));

    e.write_word(&mut p0, 0, 1); // home (first touch)
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p1);
    e.write_word(&mut p1, 1, 11); // remote: doubled write
                                  // Master current BEFORE the release — the write-through property.
    assert_eq!(e.read_back(1), 11);
    assert_eq!(counted(&[&p0, &p1]).twin_creations, 0, "1L never twins");
    e.release_actions(&mut p1);
    assert_eq!(e.read_back(1), 11);
}

#[test]
fn redundant_notices_are_suppressed_per_processor() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0));
    let mut p2 = e.make_ctx(ProcId(2));

    e.write_word(&mut p0, 0, 1);
    e.release_actions(&mut p0);
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 0), 1);

    // Three writer releases before the reader's next acquire: three
    // notices arrive, but the reader invalidates and refetches only once.
    for v in 2..5u64 {
        e.write_word(&mut p0, 0, v);
        e.release_actions(&mut p0);
    }
    let fetches_before = counted(&[&p0, &p2]).page_transfers;
    e.acquire_actions(&mut p2);
    assert_eq!(e.read_word(&mut p2, 0), 4);
    assert_eq!(
        counted(&[&p0, &p2]).page_transfers,
        fetches_before + 1,
        "one refetch despite three notices"
    );
}
