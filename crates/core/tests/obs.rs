//! End-to-end observability: enabling [`RunSpec::obs`] must not
//! change virtual time by a single nanosecond, and the merged
//! [`ObsReport`] must account every charged nanosecond and hold one
//! latency sample per event the processors' tallies counted.

use cashmere_core::{Cluster, ProtocolKind, RunSpec, SyncSpec, Topology};
use cashmere_obs::SpanKind;
use cashmere_sim::ProcId;

fn cfg(obs: bool) -> RunSpec {
    RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 4,
            barriers: 2,
            flags: 1,
        })
        .with_obs(obs)
}

/// Drives a deterministic single-threaded two-context protocol script
/// against `cluster` and returns the two final clock times.
fn run_script(cluster: &Cluster) -> (u64, u64) {
    let engine = cluster.engine();
    let mut a = engine.make_ctx(ProcId(0));
    let mut b = engine.make_ctx(ProcId(2)); // other physical node
    for i in 0..64 {
        engine.write_word(&mut a, i, i as u64 + 1);
    }
    engine.release_actions(&mut a);
    engine.acquire_actions(&mut b);
    for i in 0..64 {
        assert_eq!(engine.read_word(&mut b, i), i as u64 + 1);
    }
    engine.write_word(&mut b, 600, 9);
    engine.release_actions(&mut b);
    engine.acquire_actions(&mut a);
    assert_eq!(engine.read_word(&mut a, 600), 9);
    engine.settle(&mut a);
    engine.settle(&mut b);
    (a.clock.now(), b.clock.now())
}

#[test]
fn obs_never_charges_virtual_time() {
    let off = run_script(&Cluster::new(cfg(false)));
    let on = run_script(&Cluster::new(cfg(true)));
    assert_eq!(off, on, "observability must be charge-free");
}

#[test]
fn ctx_obs_accounts_every_nanosecond_of_the_script() {
    let cluster = Cluster::new(cfg(true));
    let engine = cluster.engine();
    let mut a = engine.make_ctx(ProcId(0));
    for i in 0..64 {
        engine.write_word(&mut a, i, 7);
    }
    engine.release_actions(&mut a);
    engine.settle(&mut a);
    let mut obs = a.obs.take().expect("obs enabled");
    obs.finish(&a.clock);
    assert_eq!(obs.fig7().total(), a.clock.now(), "exact identity");
    assert!(a.tally.counters.write_faults > 0);
    assert_eq!(
        obs.metrics.fault_ns.count, a.tally.counters.write_faults,
        "one latency sample per fault the tally counted"
    );
    assert!(obs.spans().iter().any(|s| s.kind == SpanKind::Fault));
    assert!(obs.spans().iter().any(|s| s.kind == SpanKind::Release));
    assert_eq!(obs.anomalies(), (0, 0, 0));
}

#[test]
fn merged_report_sums_to_total_vt_and_samples_every_counted_event() {
    let cluster = Cluster::new(cfg(true));
    let shared = 0usize; // page 0
    let report = cluster.run(|p| {
        p.barrier(0);
        for i in 0..32 {
            p.lock(i % 4);
            let v = p.read_u64(shared + i);
            p.write_u64(shared + i, v + p.id() as u64);
            p.unlock(i % 4);
        }
        p.barrier(1);
    });
    let obs = report.obs.as_ref().expect("obs enabled");
    assert_eq!(obs.procs, 4);
    // Figure-7 identity: the five categories partition total charged VT.
    assert_eq!(obs.fig7.total(), report.breakdown.total());
    // A fact is counted once, in `counters`; what obs adds is its latency.
    // Each histogram holds exactly one sample per counted event.
    let c = &report.counters;
    assert!(c.write_faults > 0 && c.page_transfers > 0);
    assert_eq!(obs.metrics.fault_ns.count, c.read_faults + c.write_faults);
    assert_eq!(obs.metrics.fetch_rtt.count, c.page_transfers);
    assert_eq!(obs.metrics.break_rtt.count, obs.metrics.breaks);
    assert!(obs.metrics.diffs_sent >= c.flush_updates);
    // Spans: sync spans exist and nest cleanly.
    assert!(obs.spans.iter().any(|s| s.kind == SpanKind::Barrier));
    assert!(obs.spans.iter().any(|s| s.kind == SpanKind::Lock));
    assert_eq!(obs.spans_unclosed, 0);
    assert_eq!(obs.spans_mismatched, 0);
    // Heat concentrates on the touched pages; links saw traffic.
    assert!(obs
        .hot_pages(8)
        .iter()
        .any(|&(page, heat)| page == 0 && heat > 0));
    assert!(obs.links.iter().any(|l| l.messages > 0 && l.bytes > 0));
}

#[test]
fn obs_off_report_carries_no_obs() {
    let cluster = Cluster::new(cfg(false));
    let report = cluster.run(|p| {
        p.barrier(0);
    });
    assert!(report.obs.is_none());
}
