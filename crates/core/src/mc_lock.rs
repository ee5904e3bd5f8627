//! The paper's Memory Channel lock algorithm (§2.3, "Synchronization").
//!
//! Application and protocol locks are "represented by an 8-entry array in
//! Memory Channel space, and by a test-and-set flag on each node. Lock
//! arrays are replicated on every node, with updates performed via
//! broadcast [and] configured for loop-back. To acquire a lock, a process
//! first acquires the per-node flag using ll/sc. It then sets the array
//! entry for its node, waits for the write to appear via loop-back, and
//! reads the whole array. If its entry is the only one set, then the
//! process has acquired the lock. Otherwise it clears its entry, backs off,
//! and tries again."
//!
//! This module implements that algorithm verbatim over the simulated Memory
//! Channel. The protocol uses it where the paper does — serializing
//! home-node selection — and the test suite uses it to validate mutual
//! exclusion and the loop-back machinery. (Bulk application locking goes
//! through the [`crate::sync::CarrierLock`] carrier, which blocks instead of
//! spinning; the cost model is identical.)
//!
//! Under the deterministic parallel engine (DESIGN.md §15) this lock is
//! only ever reached from home-node resolution inside the page-fault
//! lookahead barrier, whose holder is the sole running processor — so
//! acquires are uncontended by construction and the set-then-check loop
//! succeeds on its first attempt. The simulated *cost* (the paper's 11 µs
//! pair) is charged the same either way; contention remains exercised by
//! the free-running engine, the OS-thread stress tests, and the `model_*`
//! explorer scenarios.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cashmere_model::{ModelAtomicBool, ModelAtomicU64};

use cashmere_memchan::RegionId;
use cashmere_sim::Nanos;
use cashmere_transport::Transport;

use crate::trace::{emit, ProtocolEvent, TraceRecorder};

/// One Memory Channel lock: the loop-back array plus per-node `ll/sc` flags.
pub struct McLock {
    mc: Arc<dyn Transport>,
    region: RegionId,
    /// The per-node test-and-set flag ("acquired first using ll/sc").
    /// [`ModelAtomicBool`] routes the test-and-set through the model
    /// scheduler when the interleaving explorer is active (DESIGN.md §11).
    node_flags: Vec<ModelAtomicBool>,
    pnodes: usize,
    /// Virtual time of the most recent release. The *real* spin loop below
    /// provides mutual exclusion; virtual time is reconciled against this
    /// (an acquire completes no earlier than the previous release) so that
    /// simulated cost does not depend on real-machine scheduling of the
    /// spin attempts.
    release_vt: ModelAtomicU64,
    /// Auditor event stream, when enabled.
    rec: Option<Arc<TraceRecorder>>,
}

impl McLock {
    /// Creates the lock's array region (loop-back enabled, one entry per
    /// node) replicated across all `pnodes` endpoints of `mc`.
    pub fn new(mc: Arc<dyn Transport>, pnodes: usize) -> Self {
        let region = mc.create_region(pnodes.max(1), true);
        for e in 0..pnodes {
            mc.attach_rx(region, e);
        }
        Self {
            mc,
            region,
            node_flags: (0..pnodes).map(|_| ModelAtomicBool::new(false)).collect(),
            pnodes,
            release_vt: ModelAtomicU64::new(0),
            rec: None,
        }
    }

    /// Attaches the auditor's event recorder.
    pub fn with_recorder(mut self, rec: Arc<TraceRecorder>) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Acquires the lock on behalf of a processor on protocol node `me`.
    ///
    /// Returns the virtual time at which the acquire completed, given the
    /// caller arrived at `now` and each attempt costs `attempt_cost`
    /// (the paper's 11 µs uncontended acquire/release pair).
    pub fn acquire(&self, me: usize, now: Nanos, attempt_cost: Nanos) -> Nanos {
        // Step 1: the intra-node ll/sc flag.
        let mut spins = 0u32;
        // relaxed-ok: the failure load only decides whether to retry; the
        // successful exchange carries Acquire, and no data is read under
        // the flag until the exchange succeeds.
        while self.node_flags[me]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff(&mut spins);
        }
        // Step 2: the Memory Channel array protocol (real mutual exclusion).
        let mut spins = 0u32;
        loop {
            // Set our entry; the loop-back write's completion time models
            // waiting for it to be globally performed.
            let vt = self.mc.write(self.region, me, me, 1, now);
            // Read the whole array from our local replica.
            let others_set =
                (0..self.pnodes).any(|n| n != me && self.mc.read_local(self.region, me, n) == 1);
            if !others_set {
                // Consumer: the win is an observation of the previous
                // holder's release; emit after it.
                emit(&self.rec, || ProtocolEvent::McLockAcquire { pnode: me });
                // Virtual cost: one uncontended acquire. The cost is NOT
                // reconciled against the previous holder's clock: real
                // hardware would grant the lock in virtual-time order, but
                // our free-running threads acquire in arbitrary real order,
                // and chaining clocks through the grant order would let one
                // late-scheduled, high-clock holder drag every later
                // acquirer forward. Contention on this lock is a once-per-
                // page startup transient ("because we only relocate once,
                // the use of locks does not impact performance", §2.3).
                return vt.max(now) + attempt_cost;
            }
            // Contention: clear our entry, back off, retry.
            self.mc.write(self.region, me, me, 0, now);
            backoff(&mut spins);
        }
    }

    /// A deliberately wrong `acquire` kept for the model checker's mutation
    /// battery (DESIGN.md §11): it reads the array *before* setting its own
    /// entry (check-then-set instead of the paper's set-then-check). Two
    /// nodes can both read an all-clear array, then both set their entries
    /// and both believe they won — the model tests assert the explorer
    /// finds a two-holders schedule within the default budget.
    #[doc(hidden)]
    pub fn acquire_mutant_check_before_set(
        &self,
        me: usize,
        now: Nanos,
        attempt_cost: Nanos,
    ) -> Nanos {
        let mut spins = 0u32;
        // relaxed-ok: same retry-only failure load as `acquire`.
        while self.node_flags[me]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff(&mut spins);
        }
        let mut spins = 0u32;
        loop {
            let others_set =
                (0..self.pnodes).any(|n| n != me && self.mc.read_local(self.region, me, n) == 1);
            if !others_set {
                let vt = self.mc.write(self.region, me, me, 1, now);
                emit(&self.rec, || ProtocolEvent::McLockAcquire { pnode: me });
                return vt.max(now) + attempt_cost;
            }
            backoff(&mut spins);
        }
    }

    /// Releases the lock held by node `me` at virtual time `vt`.
    pub fn release(&self, me: usize, vt: Nanos) -> Nanos {
        // Producer: emit before clearing the entry, so the next acquirer's
        // event is sequenced after this one.
        emit(&self.rec, || ProtocolEvent::McLockRelease { pnode: me });
        let done = self.mc.write(self.region, me, me, 0, vt);
        self.release_vt.fetch_max(vt, Ordering::AcqRel);
        self.node_flags[me].store(false, Ordering::Release);
        done
    }
}

fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 8 {
        std::hint::spin_loop();
    } else {
        // Routed through the model facade so the explorer sees the backoff
        // as a schedule point; plain `yield_now` outside exploration.
        cashmere_model::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_memchan::TransportConfig;
    use cashmere_model::thread;
    use cashmere_transport::{build_transport, Transport};
    use parking_lot::Mutex;

    fn mc(pnodes: usize) -> Arc<dyn Transport> {
        build_transport(TransportConfig::new(vec![0; pnodes], 1))
    }

    #[test]
    fn uncontended_acquire_release_round_trip() {
        let l = McLock::new(mc(4), 4);
        let vt = l.acquire(2, 1_000, 11_000);
        assert!(
            vt >= 12_000,
            "acquire charges at least one attempt, got {vt}"
        );
        l.release(2, vt);
        // Lock is reacquirable, including by another node.
        let vt2 = l.acquire(3, vt, 11_000);
        assert!(vt2 > vt);
        l.release(3, vt2);
    }

    #[test]
    fn excludes_across_threads_and_nodes() {
        // OS-thread run of the shared mutual-exclusion scenario; the model
        // variant in `tests/model_mclock.rs` explores the same assertions
        // exhaustively and catches the check-before-set mutant.
        crate::model_scenarios::mc_lock_exclusion(4, 100, false);
    }

    #[test]
    fn acquire_release_events_alternate_in_holder_order() {
        // The recorder's global sequence must show strict
        // acquire/release/acquire/release alternation with matching nodes:
        // each win emits after the previous holder's release.
        let rec = Arc::new(TraceRecorder::new());
        let l = McLock::new(mc(4), 4).with_recorder(Arc::clone(&rec));
        let mut vt = 0;
        for me in [2usize, 0, 3, 0, 1] {
            vt = l.acquire(me, vt, 11_000);
            vt = l.release(me, vt);
        }
        let evs = rec.take();
        assert_eq!(evs.len(), 10);
        let mut expect_holder = None;
        for (i, te) in evs.iter().enumerate() {
            match (&te.ev, i % 2) {
                (ProtocolEvent::McLockAcquire { pnode }, 0) => expect_holder = Some(*pnode),
                (ProtocolEvent::McLockRelease { pnode }, 1) => {
                    assert_eq!(Some(*pnode), expect_holder, "release by a non-holder");
                }
                other => panic!("event {i} out of order: {other:?}"),
            }
        }
    }

    #[test]
    fn contention_is_fair_enough_that_no_node_starves() {
        // Four nodes hammer the lock until 200 total critical sections have
        // completed; the backoff/retry loop must not starve any node.
        let l = Arc::new(McLock::new(mc(4), 4));
        let total = Arc::new(Mutex::new([0u64; 4]));
        let hs: Vec<_> = (0..4)
            .map(|node| {
                let l = Arc::clone(&l);
                let total = Arc::clone(&total);
                thread::spawn(move || loop {
                    let vt = l.acquire(node, 0, 11_000);
                    let done = {
                        let mut g = total.lock();
                        g[node] += 1;
                        g.iter().sum::<u64>() >= 200
                    };
                    l.release(node, vt);
                    if done {
                        return;
                    }
                    thread::yield_now();
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let g = *total.lock();
        for (node, &n) in g.iter().enumerate() {
            assert!(n > 0, "node {node} never acquired the lock: {g:?}");
        }
    }

    #[test]
    fn holder_stalled_by_link_outage_keeps_exclusion_and_vt_order() {
        // A whole-link outage stalls the holder's loop-back write: the
        // acquire completes only after the dark epoch, and the lock stays
        // usable (and exclusive) for the next node afterwards.
        use cashmere_faults::{FaultKind, FaultPlan, FaultRule};
        let plan = Arc::new(
            FaultPlan::new(7)
                .with_rule(FaultRule::new(FaultKind::LinkOutage, 1.0).with_param_ns(10_000)),
        );
        let mc = build_transport(
            TransportConfig::new(vec![0; 2], 1).with_fault_plan(Some(plan.clone())),
        );
        let l = McLock::new(mc, 2);
        let vt = l.acquire(0, 2_500, 11_000);
        assert!(
            vt >= 10_000 + 11_000,
            "acquire must wait out the outage epoch, got {vt}"
        );
        assert!(plan.stats().total() > 0, "the outage must have fired");
        let rel = l.release(0, vt);
        let vt2 = l.acquire(1, rel, 11_000);
        assert!(vt2 > vt, "second acquire follows the stalled holder");
        l.release(1, vt2);
    }

    #[test]
    fn same_node_contention_uses_the_ll_sc_flag() {
        // Two processors on the same protocol node serialize on the node
        // flag before ever touching the Memory Channel.
        let l = Arc::new(McLock::new(mc(2), 2));
        let counter = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..200 {
                        let vt = l.acquire(0, 0, 11_000);
                        *counter.lock() += 1;
                        l.release(0, vt);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(*counter.lock(), 400);
    }
}
