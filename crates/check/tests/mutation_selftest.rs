//! Mutation self-test: the auditor must catch traces it is designed to
//! catch. A real trace is captured from a deterministic engine-driven
//! scenario (the undrained-notice exclusive-mode regression, which
//! exercises exclusive entry, twin/diff flushes, fetches, and the full
//! write-notice pipeline), verified clean, and then mutated in targeted
//! ways — each mutation must produce its specific violation kind.

use cashmere_check::{audit, AuditReport, ViolationKind};
use cashmere_core::{
    Engine, ProtocolEvent, ProtocolKind, RunSpec, SyncSpec, Topology, TraceEvent, PAGE_WORDS,
};
use cashmere_sim::ProcId;

/// Replays the undrained-write-notice scenario (see
/// `crates/core/tests/exclusive_residue.rs`) on an audited engine and
/// returns its trace: 3 nodes × 1 processor, superpage {0,1} homed at
/// node 0, exclusive entry and break on page 1, releases flushing diffs
/// and posting notices, and a refused exclusive re-entry.
fn base_trace() -> Vec<TraceEvent> {
    let mut cfg = RunSpec::new(Topology::new(3, 1), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        })
        .with_audit(true);
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

    e.recorder()
        .expect("audited engine has a recorder")
        .take()
        .to_vec()
}

/// Audits `t` and checks the report's exact summary against `want`, pinned
/// from the auditor as it stood before its state tables were rewritten: the
/// verdict on this trace, every detail and its order, may not move.
fn pinned(t: &[TraceEvent], want: &str) -> AuditReport {
    let r = audit(t);
    assert_eq!(r.summary(), want, "the pinned report moved");
    r
}

/// Pinned reports of the three mutations the coverage test repeats.
const CLOCK_COLLISION: &str = "89 events, 1 violations, 0 races
  [TimestampCollision] seq 4: node 0 drew logical timestamp 1 twice
";
const FABRICATED_NOTICE: &str = "88 events, 2 violations, 0 races
  [WnFabricated] seq 31: node 1 drained a notice for page 1 from node 99 that was never posted
  [WnDistributeMissing] seq 18446744073709551615: node 1 drained 1 notice(s) for page 1 never distributed to local processors
";
const DUP_EXCLUSIVE: &str = "89 events, 1 violations, 0 races
  [DupExclusive] seq 12: proc 1 (node 1) entered exclusive mode for page 1 already held by node 1
";

#[test]
fn base_trace_is_rich_and_clean() {
    let t = base_trace();
    // The scenario must exercise every event family the mutations target;
    // if the engine stops emitting one of these, the mutations below go
    // vacuous and this test says so first.
    let has = |f: &dyn Fn(&ProtocolEvent) -> bool| t.iter().any(|te| f(&te.ev));
    assert!(has(&|e| matches!(e, ProtocolEvent::ClockTick { .. })));
    assert!(has(
        &|e| matches!(e, ProtocolEvent::WnDrain { items, .. } if !items.is_empty())
    ));
    assert!(has(&|e| matches!(e, ProtocolEvent::ExclEnter { .. })));
    assert!(has(&|e| matches!(e, ProtocolEvent::ExclBreak { .. })));
    assert!(has(&|e| matches!(e, ProtocolEvent::DirWrite { .. })));
    assert!(has(&|e| matches!(e, ProtocolEvent::Fetch { .. })));
    assert!(has(&|e| matches!(e, ProtocolEvent::DiffOut { .. })));
    assert!(has(&|e| matches!(
        e,
        ProtocolEvent::Fault {
            dirtied: true,
            excl: false,
            ..
        }
    )));
    assert!(has(&|e| matches!(e, ProtocolEvent::ReleasePage { .. })));

    let r = pinned(&t, "88 events, 0 violations, 0 races\n");
    assert!(
        r.is_clean(),
        "unmutated trace must audit clean:\n{}",
        r.summary()
    );
}

#[test]
fn duplicated_clock_tick_is_a_timestamp_collision() {
    let mut t = base_trace();
    let i = t
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ClockTick { .. }))
        .unwrap();
    let dup = t[i].clone();
    t.insert(i + 1, dup);
    let r = pinned(&t, CLOCK_COLLISION);
    assert!(
        r.kinds().contains(&ViolationKind::TimestampCollision),
        "{}",
        r.summary()
    );
}

#[test]
fn fabricated_drain_item_is_caught() {
    let mut t = base_trace();
    let te = t
        .iter_mut()
        .find(|te| matches!(&te.ev, ProtocolEvent::WnDrain { items, .. } if !items.is_empty()))
        .unwrap();
    if let ProtocolEvent::WnDrain { items, .. } = &mut te.ev {
        // A notice from a node that never posted one.
        items.push((99, 1));
    }
    let r = pinned(&t, FABRICATED_NOTICE);
    assert!(
        r.kinds().contains(&ViolationKind::WnFabricated),
        "{}",
        r.summary()
    );
}

#[test]
fn duplicated_exclusive_entry_is_caught() {
    let mut t = base_trace();
    let i = t
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ExclEnter { .. }))
        .unwrap();
    let dup = t[i].clone();
    t.insert(i + 1, dup);
    let r = pinned(&t, DUP_EXCLUSIVE);
    assert!(
        r.kinds().contains(&ViolationKind::DupExclusive),
        "{}",
        r.summary()
    );
}

#[test]
fn diff_applied_over_concurrent_writes_is_caught() {
    let mut t = base_trace();
    t.push(TraceEvent {
        seq: t.last().unwrap().seq + 1,
        ev: ProtocolEvent::DiffIn {
            pnode: 0,
            page: 1,
            conflicts: 1,
        },
    });
    let r = pinned(&t, "89 events, 1 violations, 0 races
  [DiffInConflict] seq 88: incoming diff for page 1 on node 0 overwrote 1 concurrently-written word(s)
");
    assert!(
        r.kinds().contains(&ViolationKind::DiffInConflict),
        "{}",
        r.summary()
    );
}

#[test]
fn dropped_release_flush_is_caught() {
    let mut t = base_trace();
    // Find a page some processor dirtied outside exclusive mode, then
    // erase every release record that accounts for it: the processor's
    // next ReleaseEnd is now lying about completeness.
    let (proc, page) = t
        .iter()
        .find_map(|te| match te.ev {
            ProtocolEvent::Fault {
                proc,
                page,
                dirtied: true,
                excl: false,
                ..
            } => Some((proc, page)),
            _ => None,
        })
        .unwrap();
    t.retain(|te| {
        !matches!(te.ev,
            ProtocolEvent::ReleasePage { proc: p, page: g, .. } if p == proc && g == page)
    });
    let r = pinned(
        &t,
        "87 events, 1 violations, 0 races
  [MissingReleaseFlush] seq 87: proc 0 release skipped dirty page 0 (dirtied at seq 6)
",
    );
    assert!(
        r.kinds().contains(&ViolationKind::MissingReleaseFlush),
        "{}",
        r.summary()
    );
}

#[test]
fn exclusive_directory_word_without_write_perm_is_caught() {
    let mut t = base_trace();
    let te = t
        .iter_mut()
        .find(|te| matches!(te.ev, ProtocolEvent::DirWrite { .. }))
        .unwrap();
    if let ProtocolEvent::DirWrite {
        perm, exclusive, ..
    } = &mut te.ev
    {
        *exclusive = true;
        *perm = 1; // Read
    }
    let r = pinned(
        &t,
        "88 events, 1 violations, 0 races
  [DirPermInvariant] seq 5: node 0 published page 0 exclusive with perm 1 (exclusive implies write)
",
    );
    assert!(
        r.kinds().contains(&ViolationKind::DirPermInvariant),
        "{}",
        r.summary()
    );
}

#[test]
fn home_migration_after_first_fetch_is_caught() {
    let mut t = base_trace();
    let (i, page) = t
        .iter()
        .enumerate()
        .find_map(|(i, te)| match te.ev {
            ProtocolEvent::Fetch { page, .. } => Some((i, page)),
            _ => None,
        })
        .unwrap();
    let seq = t[i].seq;
    t.insert(
        i + 1,
        TraceEvent {
            seq,
            ev: ProtocolEvent::HomeWrite {
                pnode: 0,
                page,
                to: 2,
            },
        },
    );
    let r = pinned(&t, "89 events, 3 violations, 0 races
  [LateHomeMigration] seq 9: page 1 migrated to node 2 after its first fetch
  [HomeMigrationOutsideLock] seq 9: node 0 migrated page 1 without holding the MC lock (holder: None)
  [DuplicateHomeMigration] seq 9: page 1 migrated twice
");
    assert!(
        r.kinds().contains(&ViolationKind::LateHomeMigration),
        "{}",
        r.summary()
    );
    assert!(
        r.kinds().contains(&ViolationKind::HomeMigrationOutsideLock),
        "{}",
        r.summary()
    );
}

/// The acceptance bar: across the mutation battery, at least three
/// *distinct* violation kinds are detected and correctly classified.
#[test]
fn mutations_cover_at_least_three_distinct_kinds() {
    let mut kinds = std::collections::HashSet::new();

    // Clock collision.
    let mut t = base_trace();
    let i = t
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ClockTick { .. }))
        .unwrap();
    let dup = t[i].clone();
    t.insert(i + 1, dup);
    kinds.extend(pinned(&t, CLOCK_COLLISION).kinds());

    // Fabricated notice.
    let mut t = base_trace();
    if let Some(te) = t
        .iter_mut()
        .find(|te| matches!(&te.ev, ProtocolEvent::WnDrain { items, .. } if !items.is_empty()))
    {
        if let ProtocolEvent::WnDrain { items, .. } = &mut te.ev {
            items.push((99, 1));
        }
    }
    kinds.extend(pinned(&t, FABRICATED_NOTICE).kinds());

    // Duplicate exclusive holder.
    let mut t = base_trace();
    let i = t
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ExclEnter { .. }))
        .unwrap();
    let dup = t[i].clone();
    t.insert(i + 1, dup);
    kinds.extend(pinned(&t, DUP_EXCLUSIVE).kinds());

    assert!(
        kinds.len() >= 3,
        "expected >= 3 distinct violation kinds, got {kinds:?}"
    );
}
