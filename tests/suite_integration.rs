//! Cross-crate integration tests: the full application suite validated
//! across protocols and topologies through the facade crate.

use cashmere::apps::{run_app, suite, Scale};
use cashmere::{DirectoryMode, Messaging, ProtocolKind, RunSpec, Topology};

/// Every deterministic application produces the same checksum under every
/// protocol at a fixed processor count (8 processors, 4:2 vs 8:1 shapes).
#[test]
fn suite_checksums_agree_across_protocols_and_shapes() {
    for app in suite(Scale::Test) {
        let base = run_app(
            app.as_ref(),
            &RunSpec::new(Topology::new(8, 1), ProtocolKind::TwoLevel),
        )
        .0;
        for protocol in ProtocolKind::ALL {
            for (nodes, ppn) in [(4, 2), (2, 4)] {
                let out = run_app(
                    app.as_ref(),
                    &RunSpec::new(Topology::new(nodes, ppn), protocol),
                )
                .0;
                if app.deterministic() {
                    assert_eq!(
                        out.checksum,
                        base.checksum,
                        "{} under {} at {}x{}",
                        app.name(),
                        protocol.label(),
                        nodes,
                        ppn
                    );
                }
            }
        }
    }
}

/// TSP (nondeterministic work) still finds the optimal tour everywhere.
#[test]
fn tsp_is_optimal_under_all_protocols() {
    let app = cashmere::apps::Tsp::new(Scale::Test);
    let optimal = app.brute_force();
    for protocol in ProtocolKind::ALL {
        let out = run_app(&app, &RunSpec::new(Topology::new(2, 4), protocol)).0;
        assert_eq!(out.checksum, optimal, "{}", protocol.label());
    }
}

/// The global-lock ablation (§3.3.5) changes timing, never results.
#[test]
fn global_lock_ablation_preserves_results() {
    for app in suite(Scale::Test) {
        let cfg = RunSpec::new(Topology::new(2, 4), ProtocolKind::TwoLevel)
            .with_directory(DirectoryMode::GlobalLock);
        let locked = run_app(app.as_ref(), &cfg).0;
        let free = run_app(
            app.as_ref(),
            &RunSpec::new(Topology::new(2, 4), ProtocolKind::TwoLevel),
        )
        .0;
        if app.deterministic() {
            assert_eq!(locked.checksum, free.checksum, "{}", app.name());
        }
    }
}

/// Interrupt-based messaging (§3.3.4) changes timing, never results.
#[test]
fn interrupt_messaging_preserves_results() {
    for app in suite(Scale::Test) {
        let cfg = RunSpec::new(Topology::new(2, 4), ProtocolKind::TwoLevelShootdown)
            .with_messaging(Messaging::Interrupt);
        let intr = run_app(app.as_ref(), &cfg).0;
        let poll = run_app(
            app.as_ref(),
            &RunSpec::new(Topology::new(2, 4), ProtocolKind::TwoLevelShootdown),
        )
        .0;
        if app.deterministic() {
            assert_eq!(intr.checksum, poll.checksum, "{}", app.name());
        }
    }
}

/// The headline qualitative claim of the paper: at scale, the two-level
/// protocol moves less data and fetches fewer pages than its one-level
/// counterpart on the node-heavy configurations.
#[test]
fn two_level_moves_less_data_than_one_level() {
    for app in suite(Scale::Test) {
        let two = run_app(
            app.as_ref(),
            &RunSpec::new(Topology::new(2, 4), ProtocolKind::TwoLevel),
        )
        .0;
        let one = run_app(
            app.as_ref(),
            &RunSpec::new(Topology::new(2, 4), ProtocolKind::OneLevelDiff),
        )
        .0;
        assert!(
            two.report.counters.page_transfers <= one.report.counters.page_transfers,
            "{}: 2L transfers {} vs 1LD {}",
            app.name(),
            two.report.counters.page_transfers,
            one.report.counters.page_transfers
        );
    }
}

/// Every application run leaves an audit trace the protocol invariant
/// auditor certifies clean: no happens-before/staleness violations, no
/// lost or fabricated write notices, legal exclusive-mode and home
/// transitions, complete releases. (The exhaustive all-protocols sweep
/// and the mutation self-tests live in `crates/check/tests/`.)
#[test]
fn suite_audit_traces_are_clean() {
    for app in suite(Scale::Test) {
        for protocol in [ProtocolKind::TwoLevel, ProtocolKind::TwoLevelShootdown] {
            let spec = RunSpec::new(Topology::new(2, 4), protocol).with_audit(true);
            let (_, cluster) = run_app(app.as_ref(), &spec);
            let report = cashmere::check::audit(&cluster.take_trace());
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

/// Reports carry consistent accounting: per-processor times sum into the
/// breakdown, counters are monotone, exec time is the max processor time.
#[test]
fn report_accounting_is_consistent() {
    let app = cashmere::apps::Sor::new(Scale::Test);
    let out = run_app(
        &app,
        &RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel),
    )
    .0;
    let r = &out.report;
    assert_eq!(r.procs, 4);
    assert_eq!(r.per_proc_ns.len(), 4);
    assert_eq!(r.exec_ns, *r.per_proc_ns.iter().max().unwrap());
    assert_eq!(r.breakdown.total(), r.per_proc_ns.iter().sum::<u64>());
    assert!(r.counters.barriers > 0);
    assert!(r.counters.read_faults > 0);
}
