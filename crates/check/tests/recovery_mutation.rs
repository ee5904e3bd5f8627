//! Recovery mutation self-test: an engine run under a certain-fire fault
//! plan must audit clean — every timeout recovered, every duplicate reply
//! suppressed — and targeted mutations of its trace (simulating a broken
//! recovery implementation) must each produce their specific violation.
//!
//! The headline mutation disables duplicate suppression: every reply the
//! engine suppressed (`FetchReply { dup: true }`) is rewritten as a fresh
//! apply, exactly the stream a build without the sequence check would emit.
//! The auditor must call that [`ViolationKind::DuplicateApplied`].

use cashmere_check::{audit, AuditReport, ViolationKind};
use cashmere_core::{
    Engine, FaultKind, FaultPlan, FaultRule, ProtocolEvent, ProtocolKind, RunSpec, SyncSpec,
    Topology, TraceEvent, PAGE_WORDS,
};
use cashmere_sim::ProcId;
use std::sync::Arc;

/// Certain-fire plan: every fetch request and break interrupt is lost until
/// the attempt cap, and every transfer (including fetch replies) is
/// duplicated. With probability 1.0 the hash draws are irrelevant, so the
/// single-threaded scenario below is fully deterministic.
fn hostile_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(0xC0FFEE)
            .with_rule(FaultRule::new(FaultKind::LoseFetch, 1.0))
            .with_rule(FaultRule::new(FaultKind::LoseBreak, 1.0))
            .with_rule(FaultRule::new(FaultKind::DuplicateWrite, 1.0))
            .with_max_attempts(2),
    )
}

/// The exclusive-residue scenario from `mutation_selftest.rs`, run under
/// the hostile plan: remote fetches (timeouts + duplicated replies), an
/// exclusive entry and break (break timeouts), releases and notices.
fn faulty_trace() -> (Vec<TraceEvent>, u64) {
    let mut cfg = RunSpec::new(Topology::new(3, 1), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        })
        .with_audit(true)
        .with_faults(hostile_plan());
    cfg.pages_per_superpage = 2;
    let e = Engine::new(cfg);
    let mut p0 = e.make_ctx(ProcId(0));
    let mut h = e.make_ctx(ProcId(1));
    let mut f = e.make_ctx(ProcId(2));

    let x = PAGE_WORDS;
    let y = PAGE_WORDS + 1;
    let z = PAGE_WORDS + 2;

    e.write_word(&mut p0, 0, 1);
    e.write_word(&mut h, y, 22); // exclusive entry
    e.write_word(&mut f, x, 1); // exclusive break
    e.release_actions(&mut f);
    e.acquire_actions(&mut h);
    e.write_word(&mut h, y, 23);
    e.release_actions(&mut h);
    e.write_word(&mut f, z, 3);
    e.release_actions(&mut f);
    e.acquire_actions(&mut f);
    e.write_word(&mut h, x + 3, 4); // refused exclusive re-entry
    e.release_actions(&mut h);
    e.release_actions(&mut p0);

    for ctx in [&p0, &h, &f] {
        e.absorb(ctx);
    }
    let recovered = e.recovery_summary().total();
    let trace = e
        .recorder()
        .expect("audited engine has a recorder")
        .take()
        .to_vec();
    (trace, recovered.total())
}

/// Audits `t` and checks the report's exact summary against `want`, pinned
/// from the auditor as it stood before its state tables were rewritten: the
/// verdict on this trace, every detail and its order, may not move.
fn pinned(t: &[TraceEvent], want: &str) -> AuditReport {
    let r = audit(t);
    assert_eq!(r.summary(), want, "the pinned report moved");
    r
}

#[test]
fn faulty_run_recovers_and_audits_clean() {
    let (t, recovered) = faulty_trace();
    let has = |f: &dyn Fn(&ProtocolEvent) -> bool| t.iter().any(|te| f(&te.ev));
    // The plan must actually have bitten: lost fetches, duplicated
    // replies, and lost breaks all appear in the stream.
    assert!(has(&|e| matches!(e, ProtocolEvent::FetchTimeout { .. })));
    assert!(has(&|e| matches!(
        e,
        ProtocolEvent::FetchReply { dup: true, .. }
    )));
    assert!(has(&|e| matches!(e, ProtocolEvent::BreakTimeout { .. })));
    assert!(recovered > 0, "recovery counters must be nonzero");

    let r = pinned(&t, "99 events, 0 violations, 0 races\n");
    assert!(
        r.is_clean(),
        "recovered faulty run must audit clean:\n{}",
        r.summary()
    );
}

#[test]
fn disabling_duplicate_suppression_is_caught() {
    let (mut t, _) = faulty_trace();
    // The mutation: what a build without the sequence check would emit —
    // every suppressed duplicate becomes a fresh apply.
    let mut flipped = 0;
    for te in &mut t {
        if let ProtocolEvent::FetchReply { dup, .. } = &mut te.ev {
            if *dup {
                *dup = false;
                flipped += 1;
            }
        }
    }
    assert!(flipped > 0, "scenario must contain suppressed duplicates");
    let r = pinned(&t, "99 events, 3 violations, 0 races
  [DuplicateApplied] seq 13: node 1 applied reply seq 1 for page 1 fresh, but seq 1 was already applied (replayed duplicate double-applied against the twin)
  [DuplicateApplied] seq 28: node 2 applied reply seq 1 for page 1 fresh, but seq 1 was already applied (replayed duplicate double-applied against the twin)
  [DuplicateApplied] seq 51: node 1 applied reply seq 2 for page 1 fresh, but seq 2 was already applied (replayed duplicate double-applied against the twin)
");
    assert!(
        r.kinds().contains(&ViolationKind::DuplicateApplied),
        "{}",
        r.summary()
    );
}

#[test]
fn losing_the_retried_fetch_is_caught() {
    let (mut t, _) = faulty_trace();
    // The mutation: a timed-out fetch whose retry never lands — erase the
    // (pnode, page)'s Fetch events after its first timeout.
    let (i, pnode, page) = t
        .iter()
        .enumerate()
        .find_map(|(i, te)| match te.ev {
            ProtocolEvent::FetchTimeout { pnode, page, .. } => Some((i, pnode, page)),
            _ => None,
        })
        .expect("scenario must contain a fetch timeout");
    let cut = t[i].seq;
    t.retain(|te| {
        te.seq <= cut
            || !matches!(te.ev,
                ProtocolEvent::Fetch { pnode: n, page: g } if n == pnode && g == page)
    });
    let r = pinned(&t, "97 events, 1 violations, 0 races
  [UnrecoveredTimeout] seq 18446744073709551615: node 1 has 4 unrecovered fetch timeout(s) for page 1 (first at seq 9)
");
    assert!(
        r.kinds().contains(&ViolationKind::UnrecoveredTimeout),
        "{}",
        r.summary()
    );
}
