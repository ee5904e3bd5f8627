//! Every number a run reports starts in one processor's tally
//! (`ProcCtx::tally`) and reaches the [`Report`](cashmere_core::Report) by
//! summation at join. These tests fail if a number is lost on the way:
//! recovery counters must land on the *requesting* processor's protocol
//! node, the per-node rows must add up to the processors' tallies, and a
//! cluster's second run must still report cluster totals.

use std::sync::Arc;

use cashmere_core::{
    Cluster, Engine, FaultKind, FaultPlan, FaultRule, ProtocolEvent, ProtocolKind, RecoveryCounts,
    RunSpec, SyncSpec, Topology, PAGE_WORDS,
};
use cashmere_sim::ProcId;

/// Every fetch request and break interrupt is lost once (then the attempt
/// cap escalates to the reliable path) and every reply is duplicated, so
/// the counts below do not depend on the plan's hash draws.
fn lossy_plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(0x7A11)
            .with_rule(FaultRule::new(FaultKind::LoseFetch, 1.0))
            .with_rule(FaultRule::new(FaultKind::LoseBreak, 1.0))
            .with_rule(FaultRule::new(FaultKind::DuplicateWrite, 1.0))
            .with_max_attempts(2),
    )
}

/// 2 nodes × 2 processors under the lossy plan, audited.
fn faulted_2x2() -> RunSpec {
    let mut cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
        .with_heap_pages(8)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        })
        .with_audit(true)
        .with_faults(lossy_plan());
    cfg.pages_per_superpage = 2;
    cfg
}

#[test]
fn engine_totals_group_tallies_by_the_requesters_node() {
    let e = Engine::new(faulted_2x2());
    let mut ctxs: Vec<_> = (0..4).map(|p| e.make_ctx(ProcId(p))).collect();

    // p0 homes superpage {0,1} at node 0; p2 (node 1) writes page 1
    // privately and enters exclusive mode after a lossy fetch; p1 (node 0)
    // reads it, which sends a lossy break to node 1.
    e.write_word(&mut ctxs[0], 0, 1);
    e.write_word(&mut ctxs[2], PAGE_WORDS, 5);
    assert_eq!(e.read_word(&mut ctxs[1], PAGE_WORDS), 5);

    // The requester carries the timeout, not the node it was waiting on.
    assert!(ctxs[2].tally.recovery.fetch_timeouts > 0, "p2's fetch");
    assert!(ctxs[1].tally.recovery.break_timeouts > 0, "p1's break");
    assert!(ctxs[0].tally.recovery.is_zero() && ctxs[3].tally.recovery.is_zero());

    for ctx in &ctxs {
        e.absorb(ctx);
    }
    let summary = e.recovery_summary();
    assert_eq!(summary.per_node.len(), e.protocol_nodes());
    let mut all = RecoveryCounts::default();
    for (node, row) in summary.per_node.iter().enumerate() {
        let mut want = RecoveryCounts::default();
        for ctx in ctxs.iter().filter(|c| c.pnode == node) {
            want.merge(&ctx.tally.recovery);
        }
        assert_eq!(*row, want, "node {node} is the sum of its processors");
        all.merge(&want);
    }
    assert_eq!(summary.total(), all);
    assert_eq!(
        summary.per_node[0].fetch_timeouts, 0,
        "node 0 never fetched"
    );
    assert_eq!(summary.per_node[1].break_timeouts, 0, "node 1 never broke");
    assert_eq!(
        e.counters().remote_requests,
        ctxs.iter()
            .map(|c| c.tally.counters.remote_requests)
            .sum::<u64>()
    );
}

#[test]
fn faulted_run_reports_recovery_per_requesting_node() {
    let mut cluster = Cluster::new(faulted_2x2());
    let a = cluster.alloc_page_aligned(PAGE_WORDS);
    let report = cluster.run(|p| {
        if p.id() == 0 {
            p.write_u64(a, 7); // first touch: homed at node 0
        }
        p.barrier(0);
        if p.node() == 1 {
            assert_eq!(p.read_u64(a), 7); // node 1 fetches, lossily
        }
        p.barrier(1);
    });
    let nodes = cluster.engine().protocol_nodes();
    assert_eq!(report.recovery.per_node.len(), nodes);

    // The audit trace names the requester of every timeout; the per-node
    // rows must agree with it exactly.
    let mut timeouts = vec![(0u64, 0u64); nodes];
    for te in &cluster.take_trace() {
        match te.ev {
            ProtocolEvent::FetchTimeout { pnode, .. } => timeouts[pnode].0 += 1,
            ProtocolEvent::BreakTimeout { by, .. } => timeouts[by].1 += 1,
            _ => {}
        }
    }
    for (node, row) in report.recovery.per_node.iter().enumerate() {
        assert_eq!((row.fetch_timeouts, row.break_timeouts), timeouts[node]);
        assert_eq!(
            (row.fetch_retries, row.break_retries),
            timeouts[node],
            "one retransmission per timeout"
        );
    }
    assert_eq!(timeouts[0], (0, 0), "the home node requested nothing");
    assert!(timeouts[1].0 > 0, "node 1's fetch timed out");
    assert!(report.recovery.total().duplicates_dropped > 0);
}

#[test]
fn second_run_on_one_cluster_reports_cumulative_counters() {
    let mut cluster = Cluster::new(faulted_2x2());
    let a = cluster.alloc_page_aligned(PAGE_WORDS);
    let body = |p: &mut cashmere_core::Proc| {
        p.barrier(0);
        for _ in 0..3 {
            p.lock(0);
            let v = p.read_u64(a);
            p.write_u64(a, v + 1);
            p.unlock(0);
        }
        p.barrier(1);
    };
    let first = cluster.run(body);
    assert_eq!(first.counters.lock_acquires, 4 * 3);
    assert_eq!(first.counters.barriers, 2);
    let second = cluster.run(body);
    assert_eq!(cluster.read_u64(a), 2 * 4 * 3);
    assert_eq!(second.counters.lock_acquires, 2 * 4 * 3, "cluster total");
    assert_eq!(second.counters.barriers, 2 * 2);
    // Monotone in every counter, and the recovery rows accumulate too.
    for ((name, before), (_, after)) in first
        .counters
        .pairs()
        .into_iter()
        .zip(second.counters.pairs())
    {
        assert!(after >= before, "{name} went backwards across runs");
    }
    assert!(second.counters.write_faults > first.counters.write_faults);
    assert!(second.recovery.total().total() >= first.recovery.total().total());
    assert_eq!(
        second.recovery.per_node.len(),
        first.recovery.per_node.len()
    );
}
