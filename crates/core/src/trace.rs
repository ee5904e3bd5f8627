//! Protocol event tracing for the correctness auditor.
//!
//! When [`crate::RunSpec::audit`] is set, the engine and its
//! subsystems emit a [`ProtocolEvent`] at every protocol transition —
//! acquires, releases, page faults, twin creation, outgoing/incoming diffs,
//! write-notice posts and drains, directory writes, exclusive-mode entry and
//! break, home migration. The `cashmere-check` crate replays the stream to
//! verify the protocol's happens-before and coherence invariants.
//!
//! ## Sequencing discipline
//!
//! Events carry a global sequence number drawn from a single atomic counter.
//! The replay checker treats the sorted stream as a linearization of the
//! run, which is sound because every emission site follows one rule:
//!
//! * **Producers emit before publication.** An event describing a state
//!   change that other threads may observe (a write-notice post, a diff
//!   reaching the master copy, a directory write) is emitted *before* the
//!   change becomes visible. Any observer's event is therefore sequenced
//!   after it.
//! * **Consumers emit after observation.** An event describing an
//!   observation (a bin drain, a page fetch, a lock acquire) is emitted
//!   *after* the observation completes.
//!
//! Under this discipline, if event B observed the effect of event A, then
//! `seq(A) < seq(B)` — exactly the property the vector-clock replay needs.
//!
//! ## Cost when disabled
//!
//! The recorder is an `Option` on every holder; with auditing off (the
//! default) the hot path pays one `Option` discriminant test per potential
//! emission and allocates nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// What a release did for one page on its dirty/NLE list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseAction {
    /// Page is held in local exclusive mode; no coherence action needed.
    ExclusiveSkip,
    /// An overlapping release already flushed it (`ts_flush >=
    /// release_begin`); only the permission downgrade ran.
    OverlapSkip,
    /// Diff (or residue diff) flushed to the home and notices posted.
    Flushed,
    /// Nothing to flush (clean twin, home page, or write-through page);
    /// notices posted if sharers exist.
    Clean,
    /// The one-level release-time exclusive-mode entry succeeded.
    EnteredExclusive,
}

/// One protocol transition. Node indices are protocol-node indices
/// (`pnode`), processor ids are cluster-wide unless named `lproc` (index of
/// a processor within its protocol node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    // --- Synchronization carriers (happens-before edges) -------------
    /// Application lock acquired (emitted after the carrier grant, before
    /// the acquire consistency actions).
    LockAcquire {
        proc: usize,
        pnode: usize,
        lock: usize,
    },
    /// Application lock about to be released (emitted after the release
    /// consistency actions, before the carrier hand-off).
    LockRelease {
        proc: usize,
        pnode: usize,
        lock: usize,
    },
    /// Barrier arrival (after the release half).
    BarrierArrive {
        proc: usize,
        pnode: usize,
        barrier: usize,
    },
    /// Barrier departure; `epoch` is the carrier's completed episode count.
    BarrierDepart {
        proc: usize,
        pnode: usize,
        barrier: usize,
        epoch: u64,
    },
    /// Flag set (release semantics).
    FlagSet {
        proc: usize,
        pnode: usize,
        flag: usize,
    },
    /// Flag wait completed (acquire semantics).
    FlagWait {
        proc: usize,
        pnode: usize,
        flag: usize,
    },
    /// Global home-selection lock acquired.
    McLockAcquire { pnode: usize },
    /// Global home-selection lock about to be released.
    McLockRelease { pnode: usize },

    // --- Protocol clock ----------------------------------------------
    /// A node-logical-clock draw (`fetch_add` result). The auditor checks
    /// per-node uniqueness, the invariant that justifies the relaxed
    /// atomic ordering on the clock.
    ClockTick { pnode: usize, ts: u64 },

    // --- Releases / acquires ------------------------------------------
    /// Release consistency actions began; `ts` is the release timestamp.
    ReleaseBegin { proc: usize, pnode: usize, ts: u64 },
    /// One page of the release's dirty/NLE list was handled.
    ReleasePage {
        proc: usize,
        pnode: usize,
        page: usize,
        action: ReleaseAction,
    },
    /// Release consistency actions finished.
    ReleaseEnd { proc: usize, pnode: usize },

    // --- Faults and data movement --------------------------------------
    /// A page fault completed. `word` is the faulting word offset within
    /// the page; `dirtied` whether the page joined the dirty list;
    /// `excl` whether the page is (now) in local exclusive mode.
    Fault {
        proc: usize,
        pnode: usize,
        page: usize,
        word: usize,
        write: bool,
        fetched: bool,
        dirtied: bool,
        is_home: bool,
        excl: bool,
    },
    /// The master copy of `page` was fetched into the node's frame
    /// (emitted after the master snapshot was taken).
    Fetch { pnode: usize, page: usize },
    /// A page-fetch request (sequence `seq`, transmission `attempt`) was
    /// lost and its virtual-time timeout expired; a retry follows. The
    /// auditor requires every timeout to be followed by a successful
    /// [`ProtocolEvent::Fetch`] for the same `(pnode, page)`.
    FetchTimeout {
        pnode: usize,
        page: usize,
        seq: u64,
        attempt: u32,
    },
    /// A fetch reply was applied (`dup: false`) or suppressed as a replayed
    /// duplicate (`dup: true`). Fresh applies must carry strictly
    /// increasing `seq` per `(pnode, page)` — a duplicate marked fresh is
    /// the double-apply the sequence check exists to prevent.
    FetchReply {
        pnode: usize,
        page: usize,
        seq: u64,
        dup: bool,
    },
    /// A twin was created for `page`.
    TwinCreate { pnode: usize, page: usize },
    /// An outgoing diff is about to reach the master copy; `words` are the
    /// modified word offsets.
    DiffOut {
        pnode: usize,
        page: usize,
        words: Vec<u32>,
    },
    /// A two-way incoming diff was applied; `conflicts` counts words both
    /// the incoming diff and unflushed local writes had modified (must be
    /// zero for data-race-free programs — a nonzero count means the
    /// incoming words overwrote concurrent local writes).
    DiffIn {
        pnode: usize,
        page: usize,
        conflicts: u32,
    },

    // --- Exclusive mode -------------------------------------------------
    /// `proc` (on `pnode`) entered exclusive mode for `page`.
    ExclEnter {
        proc: usize,
        pnode: usize,
        page: usize,
    },
    /// `page` is about to leave exclusive mode on `pnode` (requested by
    /// node `by`).
    ExclBreak {
        pnode: usize,
        page: usize,
        by: usize,
    },
    /// An exclusive-break interrupt from `by` targeting `pnode` was lost
    /// and timed out; a retry follows. The auditor requires a later
    /// [`ProtocolEvent::ExclBreak`] for the same `(pnode, page)` or a
    /// [`ProtocolEvent::BreakAbandoned`] by the same requester.
    BreakTimeout {
        pnode: usize,
        page: usize,
        by: usize,
        attempt: u32,
    },
    /// After at least one timeout, requester `by` found `page` no longer
    /// exclusive on `pnode` (someone else broke it); the retried break is
    /// abandoned as satisfied.
    BreakAbandoned {
        pnode: usize,
        page: usize,
        by: usize,
    },
    /// A no-longer-exclusive notice was queued for `proc`.
    NlePush {
        proc: usize,
        pnode: usize,
        page: usize,
    },

    // --- Directory ------------------------------------------------------
    /// `pnode`'s directory word for `page` is about to change. `perm` is
    /// 0 (none) / 1 (read) / 2 (write).
    DirWrite {
        pnode: usize,
        page: usize,
        perm: u8,
        exclusive: bool,
    },
    /// The home of `page` is about to migrate to node `to` (first-touch).
    HomeWrite {
        pnode: usize,
        page: usize,
        to: usize,
    },

    // --- Write notices --------------------------------------------------
    /// A notice for `page` from node `from` is about to enter node `to`'s
    /// global bins.
    WnPost { to: usize, from: usize, page: u32 },
    /// Node `to`'s global bins were drained; `items` are `(from, page)`.
    WnDrain { to: usize, items: Vec<(u32, u32)> },
    /// A drained notice for `page` is being distributed to the local
    /// processors in the `mapped` bitmap.
    WnDistribute {
        pnode: usize,
        page: usize,
        mapped: u64,
    },
    /// `page` was inserted into `(pnode, lproc)`'s second-level list;
    /// `fresh` is false when the bitmap suppressed a duplicate.
    WnInsert {
        pnode: usize,
        lproc: usize,
        page: u32,
        fresh: bool,
    },
    /// `(pnode, lproc)`'s second-level list was drained.
    WnProcDrain {
        pnode: usize,
        lproc: usize,
        pages: Vec<u32>,
    },
}

/// A sequenced protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (see the module docs for the discipline that
    /// makes the sorted stream a sound linearization).
    pub seq: u64,
    /// The transition.
    pub ev: ProtocolEvent,
}

/// Collects [`TraceEvent`]s from every subsystem of one engine.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    seq: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `ev` with the next global sequence number.
    pub fn emit(&self, ev: ProtocolEvent) {
        // relaxed-ok: sequence numbers only need to be unique and allocated
        // monotonically, which single-location RMW coherence guarantees;
        // the event itself is published under the events mutex below.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().push(TraceEvent { seq, ev });
    }

    /// Takes the accumulated events, sorted by sequence number. The
    /// recorder is left empty and can keep collecting.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut *self.events.lock());
        evs.sort_unstable_by_key(|e| e.seq);
        evs
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

/// Convenience: emit into an optional shared recorder.
pub(crate) fn emit(rec: &Option<Arc<TraceRecorder>>, ev: impl FnOnce() -> ProtocolEvent) {
    if let Some(r) = rec {
        r.emit(ev());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_sequenced_and_taken_in_order() {
        let r = TraceRecorder::new();
        r.emit(ProtocolEvent::Fetch { pnode: 0, page: 1 });
        r.emit(ProtocolEvent::Fetch { pnode: 1, page: 2 });
        assert_eq!(r.len(), 2);
        let evs = r.take();
        assert!(r.is_empty());
        assert_eq!(evs.len(), 2);
        assert!(evs[0].seq < evs[1].seq);
        assert_eq!(evs[0].ev, ProtocolEvent::Fetch { pnode: 0, page: 1 });
    }

    #[test]
    fn concurrent_emissions_get_unique_seqs() {
        let r = Arc::new(TraceRecorder::new());
        let hs: Vec<_> = (0..4)
            .map(|n| {
                let r = Arc::clone(&r);
                cashmere_model::thread::spawn(move || {
                    for p in 0..500 {
                        r.emit(ProtocolEvent::Fetch { pnode: n, page: p });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let evs = r.take();
        assert_eq!(evs.len(), 2000);
        let mut seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "sequence numbers are unique");
    }

    #[test]
    fn optional_emit_is_inert_when_none() {
        let none: Option<Arc<TraceRecorder>> = None;
        emit(&none, || unreachable!("closure must not run when disabled"));
        let rec = Arc::new(TraceRecorder::new());
        let some = Some(Arc::clone(&rec));
        emit(&some, || ProtocolEvent::Fetch { pnode: 0, page: 0 });
        assert_eq!(rec.take().len(), 1);
    }
}
