//! Recovery from injected request loss, and its accounting.
//!
//! When a [`cashmere_faults::FaultPlan`] is installed, lost page-fetch
//! requests and lost exclusive-break interrupts are recovered by the engine:
//! requests are sequence-numbered, timed out in virtual time with capped
//! exponential backoff ([`timeout`]), and retried;
//! replayed replies are suppressed by a per-(node, page) sequence check so a
//! duplicate can never double-apply against a twin. This module holds the
//! one timeout/backoff/retry loop ([`retry_until_delivered`]) every such
//! request goes through, the counters it maintains in the requesting
//! processor's tally, and the per-node summary [`crate::Report`] carries.

// Recovery code must degrade gracefully, never panic: a recovery path that
// unwraps turns an injected fault into a crash (scripts/lint.sh pins this
// for the whole file, including future additions).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use cashmere_sim::{Nanos, TimeCategory};

use crate::engine::ProcCtx;
use crate::trace::{emit, ProtocolEvent, TraceRecorder};

/// Which kind of explicit request is being retried (selects the counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    /// A page fetch (request/reply or one-sided read).
    Fetch,
    /// An exclusive-mode break interrupt.
    Break,
}

/// Timeout charged for the first lost attempt, in virtual nanoseconds:
/// comfortably above the round trip a healthy fetch takes under the default
/// cost model, so a timeout only fires for genuinely lost requests.
const BASE_TIMEOUT: Nanos = 60_000;
/// Upper bound on the per-attempt timeout: 16× the base, which keeps deep
/// retry chains from dominating virtual time.
const BACKOFF_CAP: Nanos = 960_000;

/// The timeout charged before retrying after the `attempt`-th loss
/// (attempts count from 1): [`BASE_TIMEOUT`] doubling per attempt, capped
/// at [`BACKOFF_CAP`].
#[must_use]
pub(crate) fn timeout(attempt: u32) -> Nanos {
    let shift = attempt.saturating_sub(1).min(63);
    // `checked_mul`, not `checked_shl`: a shift only fails for counts
    // >= 64, silently discarding overflowed bits otherwise.
    BASE_TIMEOUT
        .checked_mul(1u64 << shift)
        .unwrap_or(BACKOFF_CAP)
        .min(BACKOFF_CAP)
}

/// The lost-request loop: while `lost(now, attempt)` says this attempt's
/// transmission vanished, emit `timeout_event(attempt)`, burn the attempt's
/// `delivery` cost plus the backed-off timeout in virtual time, count the
/// timeout and its retransmission, and try again. The plan's
/// `max_attempts` bounds the loop (the fabric escalates to a reliable path
/// beyond it), so every request is eventually delivered. Returns whether
/// any attempt timed out.
///
/// This is the only place timeouts and retries are counted and the only
/// producer of `FetchTimeout`/`BreakTimeout` events.
pub(crate) fn retry_until_delivered(
    ctx: &mut ProcCtx,
    rec: &Option<Arc<TraceRecorder>>,
    request: Request,
    delivery: Nanos,
    lost: impl Fn(Nanos, u32) -> bool,
    timeout_event: impl Fn(u32) -> ProtocolEvent,
) -> bool {
    let mut attempt = 1u32;
    while lost(ctx.clock.now(), attempt) {
        emit(rec, || timeout_event(attempt));
        ctx.clock
            .charge(TimeCategory::CommWait, delivery + timeout(attempt));
        let r = &mut ctx.tally.recovery;
        match request {
            Request::Fetch => {
                r.fetch_timeouts += 1;
                r.fetch_retries += 1;
            }
            Request::Break => {
                r.break_timeouts += 1;
                r.break_retries += 1;
            }
        }
        attempt += 1;
    }
    attempt > 1
}

/// One processor's — or, summed, one protocol node's — recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Page-fetch requests that timed out.
    pub fetch_timeouts: u64,
    /// Page-fetch retransmissions sent.
    pub fetch_retries: u64,
    /// Exclusive-break interrupts that timed out.
    pub break_timeouts: u64,
    /// Exclusive-break retransmissions sent.
    pub break_retries: u64,
    /// Duplicate fetch replies suppressed.
    pub duplicates_dropped: u64,
}

impl RecoveryCounts {
    /// Whether every counter is zero (true for every fault-free run).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.total() == 0
    }

    /// Sum of all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fetch_timeouts
            + self.fetch_retries
            + self.break_timeouts
            + self.break_retries
            + self.duplicates_dropped
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &RecoveryCounts) {
        self.fetch_timeouts += other.fetch_timeouts;
        self.fetch_retries += other.fetch_retries;
        self.break_timeouts += other.break_timeouts;
        self.break_retries += other.break_retries;
        self.duplicates_dropped += other.duplicates_dropped;
    }
}

/// Cluster-wide recovery summary attached to a [`crate::Report`]: per-node
/// recovery counters plus the fault plan's injection counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Per-protocol-node recovery counters.
    pub per_node: Vec<RecoveryCounts>,
    /// Labelled injection counters from the fault plan
    /// (`FaultStats::snapshot`); empty when no plan was installed.
    pub faults_injected: Vec<(&'static str, u64)>,
    /// The fault plan's seed, when one was installed.
    pub fault_seed: Option<u64>,
}

impl RecoverySummary {
    /// Cluster-wide totals across all nodes.
    #[must_use]
    pub fn total(&self) -> RecoveryCounts {
        let mut t = RecoveryCounts::default();
        for c in &self.per_node {
            t.merge(c);
        }
        t
    }

    /// Total faults the plan injected (all kinds).
    #[must_use]
    pub fn faults_total(&self) -> u64 {
        self.faults_injected.iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_timeouts_back_off_exponentially_and_cap() {
        assert_eq!(timeout(1), 60_000);
        assert_eq!(timeout(2), 120_000);
        assert_eq!(timeout(3), 240_000);
        assert_eq!(timeout(5), 960_000, "hits the cap at 16x");
        assert_eq!(timeout(6), 960_000, "stays capped");
        assert_eq!(timeout(200), 960_000, "no overflow at silly attempts");
    }

    /// A field `merge` (or `total`) forgets fails here: both literals name
    /// every field, each a distinct prime.
    #[test]
    fn merge_and_total_cover_every_field() {
        assert!(RecoveryCounts::default().is_zero());
        let a = RecoveryCounts {
            fetch_timeouts: 2,
            fetch_retries: 3,
            break_timeouts: 5,
            break_retries: 7,
            duplicates_dropped: 11,
        };
        let b = RecoveryCounts {
            fetch_timeouts: 13,
            fetch_retries: 17,
            break_timeouts: 19,
            break_retries: 23,
            duplicates_dropped: 29,
        };
        let mut sum = a;
        sum.merge(&b);
        let want = RecoveryCounts {
            fetch_timeouts: 2 + 13,
            fetch_retries: 3 + 17,
            break_timeouts: 5 + 19,
            break_retries: 7 + 23,
            duplicates_dropped: 11 + 29,
        };
        assert_eq!(sum, want);
        assert_eq!(sum.total(), 28 + 101);
        assert!(!sum.is_zero());
    }

    #[test]
    fn summary_totals() {
        let a = RecoveryCounts {
            fetch_timeouts: 2,
            ..Default::default()
        };
        let b = RecoveryCounts {
            break_retries: 5,
            ..Default::default()
        };
        let sum = RecoverySummary {
            per_node: vec![a, b],
            faults_injected: vec![("writes_dropped", 4), ("fetches_lost", 2)],
            fault_seed: Some(42),
        };
        assert_eq!(sum.total().total(), 7);
        assert_eq!(sum.faults_total(), 6);
        assert_eq!(sum.fault_seed, Some(42));
        assert!(RecoverySummary::default().total().is_zero());
    }
}
