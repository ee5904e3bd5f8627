//! Deterministic regressions for three protocol holes found by the
//! correctness auditor (`cashmere-check`), all in the interaction between
//! exclusive mode, twin residue, and undrained write notices:
//!
//! 1. **Residue clobber** — a node whose mapping was invalidated at an
//!    acquire, but whose twin still holds unflushed writes ("residue"),
//!    used to publish an empty directory word. A remote writer could then
//!    enter exclusive mode over a copy missing the residue and pin that
//!    stale frame as authoritative, losing the writes. The node must keep
//!    claiming `Read` until a release retires the twin.
//! 2. **Residue flush without notices** — retiring a residue twin at a
//!    release flushes the residue diff but used to skip write notices, so
//!    sharers never invalidated their now-stale copies.
//! 3. **Exclusive entry with undrained notices** — a node could enter
//!    exclusive mode for a page while a write notice for that page sat
//!    undrained in its global bins, pinning a frame that predates the
//!    noticed write. The entry gate must refuse while notices are pending.

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

/// 3 nodes × 1 processor, two pages per superpage so page 1 shares page 0's
/// first-touch home (node 0) and every remote node is a clean third party.
fn engine() -> std::sync::Arc<Engine> {
    let mut cfg = RunSpec::new(Topology::new(3, 1), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        });
    cfg.pages_per_superpage = 2;
    Engine::new(cfg)
}

#[test]
fn invalidated_twin_residue_blocks_remote_exclusive_entry() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // node 0 — home via first touch
    let mut w = e.make_ctx(ProcId(1)); // node 1 — writer with residue
    let mut r = e.make_ctx(ProcId(2)); // node 2 — would-be exclusive enterer

    let x = PAGE_WORDS; // page 1, word 0
    let y = PAGE_WORDS + 1;
    let z = PAGE_WORDS + 2;

    // Home superpage {0,1} at node 0; node 2 joins page 1's sharing set.
    e.write_word(&mut p0, 0, 1);
    assert_eq!(e.read_word(&mut r, x), 0);

    // W writes x — node 2's read mapping keeps W out of exclusive mode, so
    // this takes the ordinary twin + dirty-list path.
    e.acquire_actions(&mut w);
    e.write_word(&mut w, x, 111);

    // R writes y and releases: the flush posts a notice to node 1.
    e.write_word(&mut r, y, 222);
    e.release_actions(&mut r);

    // W's acquire drains that notice and invalidates its mapping — but the
    // twin still carries the unflushed x=111 residue. The node must go on
    // claiming Read in the directory until the residue is flushed.
    e.acquire_actions(&mut w);
    assert_eq!(
        e.directory().read_word(1, 1, 2).perm,
        PermBits::Read,
        "twin residue keeps the invalidated node visible as a sharer"
    );

    // R writes z. With node 1 still a sharer, exclusive entry must be
    // refused; the write goes through the normal twin/diff path instead.
    e.write_word(&mut r, z, 333);
    assert!(
        e.directory().exclusive_holder(1, 2).is_none(),
        "exclusive entry over an unflushed residue copy"
    );
    assert_eq!(counted(&[&p0, &w, &r]).exclusive_transitions, 0);

    // W's release flushes the residue; R's flushes z. Nothing is lost.
    e.release_actions(&mut w);
    e.release_actions(&mut r);
    assert_eq!(e.read_back(x), 111, "residue write survived");
    assert_eq!(e.read_back(y), 222);
    assert_eq!(e.read_back(z), 333);

    // Once the residue is flushed the node stops claiming a copy.
    assert_eq!(
        e.directory().read_word(1, 1, 2).perm,
        PermBits::None,
        "residue retirement republished the directory word"
    );
}

#[test]
fn residue_flush_posts_write_notices_to_sharers() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // node 0 — home
    let mut w = e.make_ctx(ProcId(1)); // node 1 — residue writer
    let mut r = e.make_ctx(ProcId(2)); // node 2 — stale sharer

    let x = PAGE_WORDS;
    let y = PAGE_WORDS + 1;

    e.write_word(&mut p0, 0, 1);
    assert_eq!(e.read_word(&mut r, x), 0); // node 2 maps page 1

    // W writes x, R releases a write of y → notice to W → W's acquire
    // invalidates W's mapping, leaving x=111 as twin residue.
    e.acquire_actions(&mut w);
    e.write_word(&mut w, x, 111);
    e.write_word(&mut r, y, 222);
    e.release_actions(&mut r);
    e.acquire_actions(&mut w);

    // W's release retires the residue twin. The flush must post a write
    // notice to node 2 (still a Read sharer), or node 2 would read a stale
    // x forever.
    let notices_before = counted(&[&p0, &w, &r]).write_notices;
    e.release_actions(&mut w);
    assert!(
        counted(&[&p0, &w, &r]).write_notices > notices_before,
        "residue flush posted no write notices"
    );
    e.acquire_actions(&mut r);
    assert_eq!(
        e.read_word(&mut r, x),
        111,
        "sharer saw the residue write after its next acquire"
    );
}

#[test]
fn undrained_write_notice_refuses_exclusive_entry() {
    let e = engine();
    let mut p0 = e.make_ctx(ProcId(0)); // node 0 — home
    let mut h = e.make_ctx(ProcId(1)); // node 1 — would-be exclusive enterer
    let mut f = e.make_ctx(ProcId(2)); // node 2 — posts the pending notice

    let x = PAGE_WORDS;
    let y = PAGE_WORDS + 1;
    let z = PAGE_WORDS + 2;
    let w3 = PAGE_WORDS + 3;

    // Home superpage {0,1} at node 0. H's private write enters exclusive
    // mode (the positive case the entry gate must keep working).
    e.write_word(&mut p0, 0, 1);
    e.write_word(&mut h, y, 22);
    assert!(
        e.directory().exclusive_holder(1, 1).is_some(),
        "clean private write still enters exclusive mode"
    );
    assert_eq!(counted(&[&p0, &h, &f]).exclusive_transitions, 1);

    // F's write breaks exclusivity and makes both nodes sharers.
    e.write_word(&mut f, x, 1);
    assert!(e.directory().exclusive_holder(1, 2).is_none());
    assert_eq!(counted(&[&p0, &h, &f]).exclusive_transitions, 2);
    e.release_actions(&mut f); // notice → H

    // H consumes that notice, rewrites, releases (notice → F).
    e.acquire_actions(&mut h);
    e.write_word(&mut h, y, 23);
    e.release_actions(&mut h);

    // F writes z and releases: a notice for page 1 now sits UNDRAINED in
    // H's bins (H does not acquire). F then consumes H's earlier notice,
    // dropping F from the sharing set entirely.
    e.write_word(&mut f, z, 3);
    e.release_actions(&mut f);
    e.acquire_actions(&mut f);
    assert_eq!(e.directory().read_word(1, 2, 1).perm, PermBits::None);

    // H write-faults. The directory shows no other sharer, but H's bins
    // hold a notice for this very page — entering exclusive mode would pin
    // H's frame (which predates z=3) as the authoritative copy. The gate
    // must refuse and fall back to the twin/diff path.
    e.write_word(&mut h, w3, 4);
    assert!(
        e.directory().exclusive_holder(1, 1).is_none(),
        "exclusive entry with an undrained write notice"
    );
    assert_eq!(
        counted(&[&p0, &h, &f]).exclusive_transitions,
        2,
        "no third transition"
    );

    e.release_actions(&mut h);
    assert_eq!(e.read_back(x), 1);
    assert_eq!(e.read_back(y), 23);
    assert_eq!(e.read_back(z), 3, "undrained-notice write survived");
    assert_eq!(e.read_back(w3), 4);
}
