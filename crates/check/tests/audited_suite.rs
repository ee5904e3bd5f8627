//! The auditor against the real system: every application in the paper's
//! benchmark suite, under every protocol, with tracing enabled — zero
//! protocol violations. Plus deterministic positive/negative checks for
//! the happens-before race detector.

use cashmere_apps::{run_app, suite, Scale};
use cashmere_check::audit;
use cashmere_core::{
    Cluster, Engine, ProtocolEvent, ProtocolKind, RunSpec, SyncSpec, Topology, TraceRecorder,
};
use cashmere_sim::ProcId;

/// The whole suite, all protocols, auditor on: the engine must uphold
/// every invariant on real workloads (locks, flags, barriers, exclusive
/// mode, first-touch homing, two-way diffs, shootdown — between them the
/// eight applications exercise all of it).
#[test]
fn application_suite_audits_clean_under_all_protocols() {
    for app in suite(Scale::Test) {
        for protocol in ProtocolKind::ALL {
            let spec = RunSpec::new(Topology::new(2, 2), protocol).with_audit(true);
            let (_, cluster) = run_app(app.as_ref(), &spec);
            let trace = cluster.take_trace();
            assert!(!trace.is_empty(), "{} emitted no events", app.name());
            let report = audit(&trace);
            assert!(
                report.is_clean(),
                "{} under {}:\n{}",
                app.name(),
                protocol.label(),
                report.summary()
            );
        }
    }
}

/// The auditor walks a `Trace` chunk by chunk in place. On a real run that
/// spans several chunks, and on a tampered copy of it, the report must be
/// the one it gives on the same events in one buffer, byte for byte.
#[test]
fn chunked_and_flat_traces_audit_identically() {
    let app = suite(Scale::Test)
        .into_iter()
        .find(|a| a.name() == "SOR")
        .expect("SOR is in the suite");
    let spec = RunSpec::new(Topology::new(8, 4), ProtocolKind::TwoLevel).with_audit(true);
    let (_, cluster) = run_app(app.as_ref(), &spec);
    let trace = cluster.take_trace();
    let flat = trace.to_vec();
    assert!(
        flat.len() > 3 * 1024,
        "{} events: not several chunks",
        flat.len()
    );
    let clean = audit(&trace).summary();
    assert_eq!(clean, audit(&flat).summary());
    assert_eq!(clean, audit(flat.as_slice()).summary());

    // A later draw of the first tick's node repeats the first tick's
    // timestamp, as a broken relaxed-atomics clock would log it. Recording
    // the tampered events afresh numbers them as before, so the tampered
    // trace is chunked too.
    let mut tampered = flat;
    let first = tampered
        .iter()
        .position(|te| matches!(te.ev, ProtocolEvent::ClockTick { .. }))
        .expect("every run draws the clock");
    let ProtocolEvent::ClockTick { pnode, .. } = tampered[first].ev else {
        unreachable!()
    };
    let later = tampered
        .iter()
        .rposition(|te| matches!(te.ev, ProtocolEvent::ClockTick { pnode: p, .. } if p == pnode))
        .expect("the node draws again");
    assert!(later > 1024, "the tampered event sits past the first chunk");
    tampered[later].ev = tampered[first].ev.clone();
    let rec = TraceRecorder::new();
    for te in &tampered {
        rec.emit(te.ev.clone());
    }
    let retraced = rec.take();
    assert_eq!(retraced.to_vec(), tampered);
    let dirty = audit(&retraced).summary();
    assert!(dirty.contains("TimestampCollision"), "{dirty}");
    assert_eq!(dirty, audit(&tampered).summary());
    assert_ne!(dirty, clean);
}

/// Lock-protected increments are data-race-free: the replay must find
/// happens-before edges covering every remote write.
#[test]
fn locked_increments_have_no_races() {
    for protocol in ProtocolKind::ALL {
        let cfg = RunSpec::new(Topology::new(2, 2), protocol)
            .with_heap_pages(4)
            .with_sync(SyncSpec {
                locks: 4,
                barriers: 2,
                flags: 2,
            })
            .with_audit(true);
        let mut cluster = Cluster::new(cfg);
        let a = cluster.alloc(4);
        cluster.run(|p| {
            for _ in 0..4 {
                p.lock(0);
                let v = p.read_u64(a);
                p.write_u64(a, v + 1);
                p.unlock(0);
            }
        });
        let report = audit(&cluster.take_trace());
        assert!(
            report.is_clean(),
            "{}:\n{}",
            protocol.label(),
            report.summary()
        );
        assert!(
            report.races.is_empty(),
            "{}: false race on a DRF program:\n{}",
            protocol.label(),
            report.summary()
        );
    }
}

/// A genuinely unsynchronized remote write/read pair must be reported as
/// a race (and as a race only — it is the program's bug, not the
/// engine's). Driven at the engine level so no hidden lock edge can
/// order the two accesses. A third node homes the page so the writer
/// takes the twin/diff path (home writes go straight to the master and
/// leave no flush epoch to race with).
#[test]
fn unsynchronized_remote_write_is_reported_as_a_race() {
    let cfg = RunSpec::new(Topology::new(3, 1), ProtocolKind::TwoLevel)
        .with_heap_pages(4)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        })
        .with_audit(true);
    let e = Engine::new(cfg);
    let mut home = e.make_ctx(ProcId(0));
    let mut w = e.make_ctx(ProcId(1));
    let mut r = e.make_ctx(ProcId(2));

    // Node 0 homes page 0 via first touch; nodes 1 and 2 both map it.
    e.write_word(&mut home, 0, 0);
    assert_eq!(e.read_word(&mut r, 0), 0);

    // Writer publishes word 0 = 7 with a release (twin + diff flush, then
    // a notice to the reader's node); reader acquires WITHOUT any lock
    // edge connecting it to the writer, then touches the word again after
    // its mapping was invalidated by the notice.
    e.write_word(&mut w, 0, 7);
    e.release_actions(&mut w);
    e.acquire_actions(&mut r);
    assert_eq!(e.read_word(&mut r, 0), 7);

    let report = audit(&e.recorder().unwrap().take());
    assert!(report.is_clean(), "{}", report.summary());
    assert!(
        report
            .races
            .iter()
            .any(|race| race.page == 0 && race.word == 0 && race.writer_node == 1),
        "expected a race on page 0 word 0:\n{}",
        report.summary()
    );
}

/// A racy program on the det engine at one worker: each processor updates
/// its own word of a shared page under its own lock and reads its
/// neighbour's word, so no lock orders the neighbour's flush before the
/// read. The det run is a pure function of its spec, so its trace is fixed,
/// and so is the auditor's exact report on it: races in the order the
/// replay found them, byte for byte.
#[test]
fn racy_program_report_is_pinned_on_the_det_engine() {
    let spec = RunSpec::new(Topology::new(4, 1), ProtocolKind::TwoLevel)
        .with_sync(SyncSpec {
            locks: 4,
            barriers: 2,
            flags: 2,
        })
        .with_det_parallel(1)
        .with_audit(true);
    let mut cluster = Cluster::new(spec);
    let a = cluster.alloc(4);
    cluster.run(|p| {
        let (me, next) = (p.id(), (p.id() + 1) % p.nprocs());
        for _ in 0..3 {
            p.lock(me);
            let v = p.read_u64(a + next);
            p.write_u64(a + me, v + 1);
            p.unlock(me);
        }
    });
    let report = audit(&cluster.take_trace());
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(
        report.summary(),
        "309 events, 0 violations, 2 races
  [race] page 0 word 2: node 2 write vs proc 1 (node 1)
  [race] page 0 word 3: node 3 write vs proc 2 (node 2)
"
    );
}

/// The audit switch must not change results: same checksums with and
/// without tracing (the recorder only observes).
#[test]
fn auditing_does_not_perturb_results() {
    for app in suite(Scale::Test) {
        if !app.deterministic() {
            continue;
        }
        let outcomes: Vec<u64> = [false, true]
            .into_iter()
            .map(|audit_on| {
                let spec =
                    RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel).with_audit(audit_on);
                run_app(app.as_ref(), &spec).0.checksum
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "{}", app.name());
    }
}
