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
//! The recorder is one mutex over the event chunks and the number of the
//! next event: [`TraceRecorder::emit`] draws the number and pushes the event
//! in one critical section. The sequence is therefore the order in which
//! emitters took the recorder's lock — a linearization of the emissions —
//! and the chunks are in sequence order by construction, so
//! [`TraceRecorder::take`] hands them over without sorting. The replay checker
//! may read that order as a linearization of the *run*, because every
//! emission site follows one rule:
//!
//! * **Producers emit before publication.** An event describing a state
//!   change that other threads may observe (a write-notice post, a diff
//!   reaching the master copy, a directory write) is emitted *before* the
//!   change becomes visible: the producer's `emit` has released the
//!   recorder's lock by the time anyone can observe the change.
//! * **Consumers emit after observation.** An event describing an
//!   observation (a bin drain, a page fetch, a lock acquire) is emitted
//!   *after* the observation completes: the consumer's `emit` takes the
//!   recorder's lock only once it has seen the change.
//!
//! Under this discipline, if event B observed the effect of event A, then
//! A's critical section ended before B's began, so `seq(A) < seq(B)` —
//! exactly the property the vector-clock replay needs.
//!
//! One site cannot follow the rule: a per-processor notice insert learns
//! whether it is fresh from its bitmap claim, so its
//! [`ProtocolEvent::WnInsert`] follows the claim that publishes the page.
//! A sibling poster whose claim that page suppressed may be sequenced
//! first. Both inserts emit under a stripe lock the list's drain takes, so
//! both precede the next [`ProtocolEvent::WnProcDrain`] of the list, and
//! the auditor checks a suppression against that drain.
//!
//! ## Cost
//!
//! The recorder is an `Option` on every holder; with auditing off (the
//! default) the hot path pays one `Option` discriminant test per potential
//! emission and allocates nothing. `emit` is kept out of line, so the push
//! is not part of the instruction stream of any unaudited path. With
//! auditing on, an emission is one lock round trip and a push into a
//! 1024-event (56 KiB) chunk allocated at full size: no buffer reallocates,
//! and `take` hands the chunks over as a [`Trace`] the auditor walks in
//! place. A run-long buffer instead doubles in whichever thread pushes, and
//! each freed copy stays in that thread's arena. Chunks stay below glibc's
//! 128 KiB mmap threshold: at 4096 events `audited` kept more (EXPERIMENTS.md).

use std::sync::Arc;
use std::{iter, slice};

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
    /// Sequence number: the event's place in the recorder's lock order (see
    /// the module docs for the discipline that makes that order a sound
    /// linearization of the run).
    pub seq: u64,
    /// The transition.
    pub ev: ProtocolEvent,
}

/// Events per chunk: 56 KiB, below glibc's 128 KiB mmap threshold.
const CHUNK: usize = 1024;

/// A taken trace: chunks of at most `CHUNK` events, in sequence order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    chunks: Vec<Vec<TraceEvent>>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The events in sequence order.
    pub fn iter(&self) -> iter::Flatten<slice::Iter<'_, Vec<TraceEvent>>> {
        self.chunks.iter().flatten()
    }

    /// The events in one buffer, for tests that tamper with a trace.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.chunks.concat()
    }

    /// Appends `te`, starting a new chunk when the last is full.
    fn push(&mut self, te: TraceEvent) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(te),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(te);
                self.chunks.push(chunk);
            }
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = iter::Flatten<slice::Iter<'a, Vec<TraceEvent>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Collects [`TraceEvent`]s from every subsystem of one engine.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    buf: Mutex<Buffer>,
}

/// The recorded events and the sequence number of the next one, under one
/// lock.
#[derive(Debug, Default)]
struct Buffer {
    next: u64,
    trace: Trace,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `ev` with the next sequence number, drawn under the lock
    /// that pushes it.
    #[inline(never)]
    pub fn emit(&self, ev: ProtocolEvent) {
        let mut buf = self.buf.lock();
        let seq = buf.next;
        buf.next += 1;
        buf.trace.push(TraceEvent { seq, ev });
    }

    /// Takes the accumulated events, in sequence order. The recorder is
    /// left empty and keeps numbering where it left off.
    pub fn take(&self) -> Trace {
        let trace = std::mem::take(&mut self.buf.lock().trace);
        let first = trace.iter().next().map_or(0, |e| e.seq);
        debug_assert!(
            (first..).zip(&trace).all(|(seq, e)| e.seq == seq),
            "trace buffer out of seq order"
        );
        trace
    }

    /// Mutant of [`emit`](Self::emit) for the model test: draws the
    /// sequence number in one critical section and pushes in a second, as a
    /// counter kept outside the lock would.
    #[doc(hidden)]
    pub fn emit_mutant_seq_before_lock(&self, ev: ProtocolEvent) {
        let seq = {
            let mut buf = self.buf.lock();
            buf.next += 1;
            buf.next - 1
        };
        self.buf.lock().trace.push(TraceEvent { seq, ev });
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
    fn take_numbers_without_gaps_across_takes() {
        let r = TraceRecorder::new();
        r.emit(ProtocolEvent::Fetch { pnode: 0, page: 1 });
        r.emit(ProtocolEvent::Fetch { pnode: 1, page: 2 });
        r.emit(ProtocolEvent::Fetch { pnode: 0, page: 3 });
        let evs = r.take();
        let seqs: Vec<u64> = evs.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(
            evs.iter().next().map(|e| &e.ev),
            Some(&ProtocolEvent::Fetch { pnode: 0, page: 1 })
        );
        assert!(r.take().is_empty(), "take leaves the recorder empty");
        r.emit(ProtocolEvent::Fetch { pnode: 1, page: 4 });
        r.emit(ProtocolEvent::Fetch { pnode: 1, page: 5 });
        let seqs: Vec<u64> = r.take().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [3, 4], "numbering continues across takes");
    }

    /// `3 × CHUNK + 5` events in two takes, the first one mid-chunk: the
    /// numbers run on without a gap across every chunk rollover and across
    /// the take, and each trace iterates in emission order.
    #[test]
    fn chunk_rollovers_keep_numbering_and_order() {
        let r = TraceRecorder::new();
        let n = 3 * CHUNK + 5;
        let split = CHUNK + CHUNK / 2;
        let mut traces = Vec::new();
        for page in 0..n {
            r.emit(ProtocolEvent::Fetch { pnode: 0, page });
            if page + 1 == split || page + 1 == n {
                traces.push(r.take());
            }
        }
        assert_eq!(traces.len(), 2);
        assert_eq!((traces[0].len(), traces[1].len()), (split, n - split));
        assert_eq!(traces[0].chunks.len(), 2, "the first take spans a rollover");
        let all: Vec<&TraceEvent> = traces.iter().flatten().collect();
        assert_eq!(all.len(), n);
        for (i, te) in all.into_iter().enumerate() {
            assert_eq!(te.seq, i as u64, "gap-free numbering");
            assert_eq!(te.ev, ProtocolEvent::Fetch { pnode: 0, page: i });
        }
        assert_eq!(
            traces[1].to_vec(),
            traces[1].iter().cloned().collect::<Vec<_>>()
        );
        assert!(r.take().is_empty());
    }

    #[test]
    fn concurrent_emissions_get_unique_seqs() {
        crate::model_scenarios::trace_seq_order(4, 500, false);
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
