//! Write-notice lists (§2.3, Figure 4).
//!
//! Cashmere-2L uses a **multi-bin, two-level** write-notice structure to
//! avoid mutual exclusion:
//!
//! * Each protocol node owns a globally accessible list with **one bin per
//!   remote node** (a circular queue in Memory Channel space on the real
//!   hardware). Because every bin has exactly one writer, no cluster-wide
//!   lock is needed. That is the modeled structure: the Memory Channel
//!   latency/bandwidth of posting a notice is charged by the engine. The
//!   host keeps **one queue per destination** of `(sender, page)` pairs, so
//!   its memory is O(pnodes), not the pnodes² bins the model has. A drain
//!   orders what it takes by sender, FIFO within a sender — the order a
//!   scan of the bins would give.
//! * Each *processor* has a second-level list consisting of a **bitmap plus
//!   a queue**. The bitmap suppresses redundant notices: inserting a page
//!   already present is a no-op. Host-side, the bitmap is a shared atomic
//!   word array and the queue is striped per posting processor, so
//!   concurrent posters never contend on one lock (DESIGN.md §10); drains
//!   merge the stripes back into deterministic post order.
//!
//! On an acquire, a processor drains the node's global list, distributing
//! each notice to the per-processor lists of the local processors that have
//! a mapping for the page, then processes its own per-processor list.
//!
//! Every list is **occupancy-indexed** (DESIGN.md §10): a drain with nothing
//! pending is a single atomic load and takes no lock — the point of the
//! paper's structure is that a processor does no work for notices that are
//! not there.
//!
//! The §3.3.5 ablation ([`DirectoryMode::GlobalLock`]) replaces the per-bin
//! single-writer discipline with one global-locked list per node, modeled by
//! serializing posts through a per-node virtual-time gate.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cashmere_model::{ModelAtomicBool, ModelAtomicU64};
use crossbeam::queue::SegQueue;
use parking_lot::Mutex;

use cashmere_sim::{Nanos, Resource};

use crate::config::DirectoryMode;
use crate::trace::{emit, ProtocolEvent, TraceRecorder};

/// The global (inter-node) write-notice list of one protocol node.
struct NodeList {
    /// `(sender, page)` notices in arrival order.
    queue: SegQueue<(usize, u32)>,
    /// Notices counted in and not yet counted out: a poster counts itself
    /// in *before* its push, a drain counts out what it popped *after* its
    /// pops — so this is never zero while a notice whose post has returned
    /// sits in the queue.
    pending: ModelAtomicU64,
    /// Serialization gate for the GlobalLock ablation (`None` when
    /// lock-free).
    gate: Option<Resource>,
}

/// All nodes' global write-notice lists.
pub struct NoticeBoard {
    nodes: Vec<NodeList>,
    /// Extra virtual time a post spends holding the global lock in the
    /// ablation mode.
    gate_hold: Nanos,
    /// Auditor event stream, when enabled.
    rec: Option<Arc<TraceRecorder>>,
}

impl NoticeBoard {
    /// Creates one list per node for `pnodes` nodes.
    pub fn new(pnodes: usize, mode: DirectoryMode, gate_hold: Nanos) -> Self {
        let nodes = (0..pnodes)
            .map(|_| NodeList {
                queue: SegQueue::new(),
                pending: ModelAtomicU64::new(0),
                gate: match mode {
                    // Sparse keeps the paper's lock-free notice lists; only
                    // the directory's layout changes (DESIGN.md §12).
                    DirectoryMode::LockFree | DirectoryMode::Sparse => None,
                    DirectoryMode::GlobalLock => Some(Resource::new()),
                },
            })
            .collect();
        Self {
            nodes,
            gate_hold,
            rec: None,
        }
    }

    /// Attaches the auditor's event recorder.
    pub fn with_recorder(mut self, rec: Arc<TraceRecorder>) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Posts a write notice for `page` from node `from` into node `to`'s
    /// list. Returns the virtual time at which the post completes (equal to
    /// `now` in lock-free mode; later if the ablation's global lock had to
    /// be waited for).
    pub fn post(&self, to: usize, from: usize, page: u32, now: Nanos) -> Nanos {
        let node = &self.nodes[to];
        let done = match &node.gate {
            None => now,
            Some(gate) => gate.acquire(now, self.gate_hold),
        };
        // Producer: emit before the push so any drain that pops this notice
        // is sequenced after the post.
        emit(&self.rec, || ProtocolEvent::WnPost { to, from, page });
        // Count in, then push: the count never falls below the notices a
        // returned post has left in the queue. The AcqRel RMW pairs with
        // the drain's Acquire load and its count-out.
        node.pending.fetch_add(1, Ordering::AcqRel);
        node.queue.push((from, page));
        done
    }

    /// Drains node `to`'s list, returning `(from, page)` pairs in ascending
    /// sender order, FIFO within a sender. With nothing pending this is one
    /// load.
    ///
    /// A notice whose [`post`](Self::post) has returned is delivered by the
    /// next drain that starts afterwards, or by one already under way: its
    /// post counted in before pushing, so the drain does not take the empty
    /// path, and the drain pops until the queue is empty. The drain counts
    /// out only what it popped, and only after popping it. Concurrent drains
    /// are safe (each notice goes to exactly one of them); the engine
    /// serializes them per node.
    pub fn drain(&self, to: usize) -> Vec<(usize, u32)> {
        let node = &self.nodes[to];
        if node.pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(notice) = node.queue.pop() {
            out.push(notice);
        }
        node.pending.fetch_sub(out.len() as u64, Ordering::AcqRel);
        self.delivered(to, out)
    }

    /// A deliberately wrong `drain` kept for the model checker's mutation
    /// battery (DESIGN.md §11): it counts out *before* popping, by swapping
    /// the count to zero. A post that counted in before the swap and pushes
    /// after the pops leaves its notice in the queue under a zero count:
    /// `is_empty` holds over it and the next drain takes the empty path.
    #[doc(hidden)]
    pub fn drain_mutant_count_out_before_pop(&self, to: usize) -> Vec<(usize, u32)> {
        let node = &self.nodes[to];
        if node.pending.swap(0, Ordering::AcqRel) == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        while let Some(notice) = node.queue.pop() {
            out.push(notice);
        }
        self.delivered(to, out)
    }

    /// Orders a drain's notices by sender, FIFO within a sender (the sort
    /// is stable), and emits its consumer event (after the pops).
    fn delivered(&self, to: usize, mut out: Vec<(usize, u32)>) -> Vec<(usize, u32)> {
        out.sort_by_key(|&(from, _)| from);
        if !out.is_empty() {
            emit(&self.rec, || ProtocolEvent::WnDrain {
                to,
                items: out.iter().map(|&(f, p)| (f as u32, p)).collect(),
            });
        }
        out
    }

    /// Whether node `to` currently has any pending notices. Never `true`
    /// while a notice whose post has returned is still in the queue (the
    /// count rises before the push and falls only after the pop).
    ///
    /// Protocol-load-bearing: the exclusive-mode entry gate in
    /// `Engine::try_enter_exclusive` refuses entry while notices are
    /// pending (a queued notice is a remote write this node has not yet
    /// applied). The gate holds the node's distribute lock across this
    /// check, freezing drains; posts that could still race the check are
    /// ruled out by the gate's placement after its directory validation
    /// read (see the comment there).
    pub fn is_empty(&self, to: usize) -> bool {
        self.nodes[to].pending.load(Ordering::Acquire) == 0
    }
}

/// A processor's second-level write-notice list: a shared freshness bitmap
/// plus **one queue stripe per posting processor** (§2.3, Figure 4).
///
/// The pre-striping implementation kept one `Mutex<bitmap + queue>`, so
/// every poster into the same list — the owner's self-notices and every
/// sibling's acquire-time distributions — serialized on one lock. Now each
/// poster claims a page by winning the 0→1 transition on the shared atomic
/// bitmap (`fetch_or`) and appends to *its own* stripe, so concurrent
/// posters touch disjoint locks and an uncontended atomic word.
///
/// **Order-preserving deterministic drain:** every queued entry carries a
/// ticket from a per-list post counter; [`drain`](Self::drain) locks all
/// stripes, merges entries by ticket, and clears the bitmap while still
/// holding every stripe lock. The merged order equals the old single-queue
/// insertion order in any deterministic execution, and the merge itself is
/// a pure function of the stripe contents. Holding every stripe lock across
/// the bitmap clear keeps inserts atomic with respect to drains (an insert
/// holds its stripe lock across its `fetch_or` and push), preserving the
/// exactly-once queuing invariant.
///
/// **Empty drains take no lock:** a flag that is up while any stripe holds
/// an entry, written only under a stripe lock, lets a drain with nothing
/// queued return after one load.
pub struct ProcNoticeList {
    /// Shared freshness bitmap; bit set ⟺ page currently queued. The
    /// [`ModelAtomicU64`] wrapper routes every access through the model
    /// scheduler when the interleaving explorer is active (DESIGN.md §11)
    /// and compiles down to a bare `AtomicU64` otherwise.
    bits: Vec<ModelAtomicU64>,
    /// `stripes[from]` is appended only by posting processor `from`.
    stripes: Vec<Mutex<Vec<(u64, u32)>>>,
    /// Up ⟺ some stripe holds an entry: raised with a claim inside the
    /// claimer's stripe lock, lowered by a drain holding every stripe lock.
    queued: ModelAtomicBool,
    /// Post-order tickets for the drain merge.
    ticket: ModelAtomicU64,
    /// `(pnode, lproc)` identity plus the auditor stream, when enabled.
    ident: Option<(usize, usize, Arc<TraceRecorder>)>,
}

impl ProcNoticeList {
    /// Creates an empty list covering `pages` pages, striped for `posters`
    /// posting processors (the node's local processor count).
    pub fn new(pages: usize, posters: usize) -> Self {
        Self {
            bits: (0..pages.div_ceil(64))
                .map(|_| ModelAtomicU64::new(0))
                .collect(),
            stripes: (0..posters.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            queued: ModelAtomicBool::new(false),
            ticket: ModelAtomicU64::new(0),
            ident: None,
        }
    }

    /// Attaches the auditor's event recorder, tagging this list as
    /// belonging to local processor `lproc` of protocol node `pnode`.
    pub fn with_identity(mut self, pnode: usize, lproc: usize, rec: Arc<TraceRecorder>) -> Self {
        self.ident = Some((pnode, lproc, rec));
        self
    }

    /// Claims `page` in the bitmap and flags the list as holding entries;
    /// `true` if the claim is fresh. The flag's Release store pairs with
    /// the Acquire load on the empty-drain path.
    fn claim(&self, page: u32) -> bool {
        let (w, b) = (page as usize / 64, page as usize % 64);
        let fresh = self.bits[w].fetch_or(1 << b, Ordering::AcqRel) >> b & 1 == 0;
        if fresh && !self.queued.load(Ordering::Acquire) {
            self.queued.store(true, Ordering::Release);
        }
        fresh
    }

    /// Inserts a notice for `page`, posted by local processor `from`.
    /// Returns `true` if the page was newly queued, `false` if the bitmap
    /// already recorded it (the redundant-notice suppression of §2.3).
    pub fn insert(&self, page: u32, from: usize) -> bool {
        let mut stripe = self.stripes[from].lock();
        // The stripe lock is held across the claim and the push, so a
        // drain (which holds every stripe lock while clearing the bitmap
        // and the flag) can never observe a claimed-but-unqueued page.
        let fresh = self.claim(page);
        // Emitted inside the stripe lock so inserts and drains of the same
        // list are sequenced consistently with their real order.
        if let Some((pnode, lproc, rec)) = &self.ident {
            rec.emit(ProtocolEvent::WnInsert {
                pnode: *pnode,
                lproc: *lproc,
                page,
                fresh,
            });
        }
        if !fresh {
            return false;
        }
        // relaxed-ok: ticket values only need to be unique and monotone per
        // claim, which single-location RMW coherence guarantees; the entry
        // they order is published under the stripe lock taken above.
        let t = self.ticket.fetch_add(1, Ordering::Relaxed);
        stripe.push((t, page));
        true
    }

    /// A deliberately wrong `insert` kept for the model checker's mutation
    /// battery (DESIGN.md §11): it claims the bitmap bit *before* taking the
    /// stripe lock. A drain that runs between the claim and the push clears
    /// the bit while the entry is still unqueued, so a second insert of the
    /// same page wins a fresh claim and the page ends up queued twice —
    /// one drain then delivers a duplicate. The model tests assert the
    /// explorer finds such a schedule within the default budget.
    #[doc(hidden)]
    pub fn insert_mutant_claim_outside_stripe_lock(&self, page: u32, from: usize) -> bool {
        if !self.claim(page) {
            return false;
        }
        let mut stripe = self.stripes[from].lock();
        // relaxed-ok: same ticket-uniqueness argument as `insert`; the bug
        // under study is the claim/lock ordering above, not this RMW.
        let t = self.ticket.fetch_add(1, Ordering::Relaxed);
        stripe.push((t, page));
        true
    }

    /// Flushes every stripe and clears the bitmap, returning the queued
    /// pages merged into post order. With nothing queued this is one load:
    /// an insert that has returned raised the flag under its stripe lock,
    /// and only a drain that took its entry lowers it again.
    pub fn drain(&self) -> Vec<u32> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut guards: Vec<_> = self.stripes.iter().map(|s| s.lock()).collect();
        let mut entries: Vec<(u64, u32)> = Vec::new();
        for g in &mut guards {
            entries.append(g);
        }
        for w in &self.bits {
            w.store(0, Ordering::Release);
        }
        self.queued.store(false, Ordering::Release);
        // Stripes are individually FIFO, so sorting by ticket is the k-way
        // merge restoring global post order.
        entries.sort_unstable_by_key(|&(t, _)| t);
        let pages: Vec<u32> = entries.into_iter().map(|(_, p)| p).collect();
        if let Some((pnode, lproc, rec)) = &self.ident {
            if !pages.is_empty() {
                rec.emit(ProtocolEvent::WnProcDrain {
                    pnode: *pnode,
                    lproc: *lproc,
                    pages: pages.clone(),
                });
            }
        }
        pages
    }

    /// Whether the list is empty (no page currently queued in any stripe).
    pub fn is_empty(&self) -> bool {
        !self.queued.load(Ordering::Acquire)
    }
}

/// A processor's no-longer-exclusive (NLE) list: pages broken out of
/// exclusive mode by a remote request while this processor held a write
/// mapping (§2.3, §2.4.1). Writable by *any* processor in the cluster (the
/// breaker posts on behalf of the holder), but only on exclusive-mode
/// breaks, and its one drain site merges the pages into the release's
/// dirty-page list and sorts + dedups the union — so one queue serves every
/// poster, in any order, and a pending flag keeps the release that finds
/// nothing (nearly all of them) off the lock.
pub struct NleList {
    queue: Mutex<Vec<u32>>,
    /// Set ⟺ `queue` is non-empty. Written only under the queue lock — a
    /// push stores it after its push — so a drain that reads it clear
    /// without the lock has missed no push that has returned.
    pending: ModelAtomicBool,
    /// How many cluster processors may post (bounds `push`'s `from`).
    posters: usize,
}

impl NleList {
    /// Creates an empty list that `posters` cluster processors may post to.
    pub fn new(posters: usize) -> Self {
        Self {
            queue: Mutex::new(Vec::new()),
            pending: ModelAtomicBool::new(false),
            posters: posters.max(1),
        }
    }

    /// Adds `page`, posted by cluster processor `from` (duplicates are
    /// tolerated; releases handle them).
    pub fn push(&self, page: u32, from: usize) {
        debug_assert!(from < self.posters, "poster {from} out of range");
        let mut q = self.queue.lock();
        q.push(page);
        self.pending.store(true, Ordering::Release);
    }

    /// A deliberately wrong `push` kept for the model checker's mutation
    /// battery (DESIGN.md §11): it raises the pending flag *before* taking
    /// the lock and pushing. A drain in between finds the queue empty and
    /// lowers the flag, and the page then sits behind a clear flag where no
    /// later drain looks.
    #[doc(hidden)]
    pub fn push_mutant_flag_before_push(&self, page: u32) {
        self.pending.store(true, Ordering::Release);
        self.queue.lock().push(page);
    }

    /// Takes all pending entries, in push order. With nothing pending this
    /// is one load.
    pub fn drain(&self) -> Vec<u32> {
        if !self.pending.load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut q = self.queue.lock();
        self.pending.store(false, Ordering::Release);
        std::mem::take(&mut *q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_drain_by_sender() {
        let b = NoticeBoard::new(3, DirectoryMode::LockFree, 0);
        b.post(0, 1, 10, 0);
        b.post(0, 2, 20, 0);
        b.post(0, 1, 11, 0);
        let mut got = b.drain(0);
        got.sort_unstable();
        assert_eq!(got, vec![(1, 10), (1, 11), (2, 20)]);
        assert!(b.is_empty(0));
        assert!(b.drain(0).is_empty());
    }

    #[test]
    fn lists_are_per_destination() {
        let b = NoticeBoard::new(2, DirectoryMode::LockFree, 0);
        b.post(1, 0, 5, 0);
        assert!(b.is_empty(0));
        assert_eq!(b.drain(1), vec![(0, 5)]);
    }

    #[test]
    fn lock_free_posts_cost_nothing_extra() {
        let b = NoticeBoard::new(2, DirectoryMode::LockFree, 5_000);
        assert_eq!(b.post(0, 1, 1, 123), 123);
    }

    #[test]
    fn global_lock_posts_serialize() {
        let b = NoticeBoard::new(2, DirectoryMode::GlobalLock, 1_000);
        let a = b.post(0, 1, 1, 0);
        let c = b.post(0, 1, 2, 0);
        assert_eq!(a, 1_000);
        assert_eq!(c, 2_000, "second post waits for the global lock");
    }

    #[test]
    fn proc_list_suppresses_redundant_notices() {
        let l = ProcNoticeList::new(128, 2);
        assert!(l.insert(7, 0));
        assert!(!l.insert(7, 0), "bitmap hit → no duplicate queue entry");
        assert!(!l.insert(7, 1), "bitmap is shared across stripes");
        assert!(l.insert(64, 1));
        let mut d = l.drain();
        d.sort_unstable();
        assert_eq!(d, vec![7, 64]);
        // Bitmap cleared by drain: the page can be queued again.
        assert!(l.insert(7, 1));
        assert_eq!(l.drain(), vec![7]);
        assert!(l.is_empty());
    }

    #[test]
    fn drain_merges_stripes_in_post_order() {
        // Posts from different processors land in different stripes; the
        // drain must still return them in global post order, not stripe
        // concatenation order. This is the test that catches a merge that
        // ignores the tickets.
        let l = ProcNoticeList::new(128, 3);
        assert!(l.insert(10, 2));
        assert!(l.insert(11, 0));
        assert!(l.insert(12, 1));
        assert!(l.insert(13, 0));
        assert_eq!(l.drain(), vec![10, 11, 12, 13]);
        // And again after the bitmap reset, with a different interleaving.
        assert!(l.insert(5, 1));
        assert!(l.insert(4, 2));
        assert_eq!(l.drain(), vec![5, 4]);
    }

    #[test]
    fn concurrent_inserts_queue_once() {
        use std::sync::Arc;
        let l = Arc::new(ProcNoticeList::new(64, 4));
        let hs: Vec<_> = (0..4)
            .map(|from| {
                let l = Arc::clone(&l);
                cashmere_model::thread::spawn(move || {
                    for _ in 0..1000 {
                        l.insert(3, from);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(
            l.drain(),
            vec![3],
            "page queued exactly once despite 4000 inserts across 4 stripes"
        );
    }

    #[test]
    fn striped_posts_deliver_exactly_once_under_concurrent_drains() {
        // 4 posting threads (one stripe each, disjoint page ranges) race a
        // continuously draining thread. The scenario body is shared with
        // `tests/model_notice.rs`, which runs the same assertions under the
        // interleaving explorer with small parameters (DESIGN.md §11).
        crate::model_scenarios::striped_notice_exactly_once(4, 500, 200);
    }

    #[test]
    fn contended_inserts_deliver_exactly_once_per_drain() {
        // OS-thread run of the shared contended-page scenario; the model
        // variant explores it exhaustively and catches the claim-outside-
        // lock mutant.
        for _ in 0..50 {
            crate::model_scenarios::contended_insert_exactly_once(false);
        }
    }

    #[test]
    fn nle_list_accumulates() {
        let n = NleList::new(2);
        assert!(n.drain().is_empty());
        n.push(1, 0);
        n.push(2, 1);
        n.push(3, 0);
        let mut got = n.drain();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3], "every poster's pages, once each");
        assert!(n.drain().is_empty());
        // The flag is lowered by the drain and raised again by a push.
        n.push(4, 1);
        assert_eq!(n.drain(), vec![4]);
    }

    #[test]
    fn nle_list_keeps_posts_racing_a_drainer() {
        // OS-thread run of the shared scenario; `tests/model_notice.rs`
        // explores it and catches the flag-before-push mutant.
        crate::model_scenarios::nle_pending_flag(3, 400, 200, false);
    }

    #[test]
    fn drain_preserves_per_sender_fifo_order() {
        // A drain must return each sender's notices in post order (the
        // paper's single-writer circular-queue semantics).
        let b = NoticeBoard::new(2, DirectoryMode::LockFree, 0);
        for page in [9u32, 3, 7, 3] {
            b.post(0, 1, page, 0);
        }
        let from_one: Vec<u32> = b
            .drain(0)
            .into_iter()
            .filter(|&(f, _)| f == 1)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(from_one, vec![9, 3, 7, 3], "per-sender FIFO violated");
    }

    #[test]
    fn drain_order_is_ascending_sender_whatever_order_posts_arrived() {
        // Posts arrive in an order unrelated to sender index, and two
        // senders post twice around the others. The drain must read like a
        // scan of per-sender bins in sender order, FIFO within a sender.
        let b = NoticeBoard::new(130, DirectoryMode::LockFree, 0);
        for (from, page) in [(129, 1), (64, 2), (3, 3), (65, 4), (0, 5), (64, 6), (3, 7)] {
            b.post(7, from, page, 0);
        }
        assert_eq!(
            b.drain(7),
            vec![(0, 5), (3, 3), (3, 7), (64, 2), (64, 6), (65, 4), (129, 1)]
        );
        assert!(b.is_empty(7));
        assert!(b.drain(7).is_empty());
        // Other destinations were never touched.
        assert!(b.is_empty(0) && b.drain(0).is_empty());
    }

    #[test]
    fn posts_racing_one_drainer_are_never_stranded() {
        // OS-thread run of the shared queue scenario (a post landing
        // between a drain's pops and its count-out included); the model
        // variant explores it and catches the count-out-before-pop mutant.
        crate::model_scenarios::notice_queue_exactly_once(4, 3, 500, 2000, false);
    }

    #[test]
    fn concurrent_posts_and_drains_lose_nothing() {
        use std::collections::HashMap;
        // Concurrent posts and drains: every posted notice is delivered
        // exactly once, across 3 sender threads and 2 drainers.
        let b = Arc::new(NoticeBoard::new(4, DirectoryMode::LockFree, 0));
        let posters: Vec<_> = (1..4usize)
            .map(|from| {
                let b = Arc::clone(&b);
                cashmere_model::thread::spawn(move || {
                    for i in 0..500u32 {
                        b.post(0, from, i, 0);
                    }
                })
            })
            .collect();
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                cashmere_model::thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..2000 {
                        got.extend(b.drain(0));
                    }
                    got
                })
            })
            .collect();
        for h in posters {
            h.join();
        }
        let mut all: Vec<(usize, u32)> = Vec::new();
        for h in drainers {
            all.extend(h.join());
        }
        all.extend(b.drain(0));
        let mut counts: HashMap<(usize, u32), usize> = HashMap::new();
        for k in all {
            *counts.entry(k).or_default() += 1;
        }
        assert_eq!(counts.len(), 3 * 500, "every notice delivered");
        assert!(
            counts.values().all(|&c| c == 1),
            "each notice delivered exactly once"
        );
    }

    #[test]
    fn recorder_sequences_post_before_drain() {
        use crate::trace::ProtocolEvent as E;
        let rec = Arc::new(TraceRecorder::new());
        let b = NoticeBoard::new(2, DirectoryMode::LockFree, 0).with_recorder(Arc::clone(&rec));
        b.post(0, 1, 42, 0);
        b.drain(0);
        let evs = rec.take().to_vec();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0].ev,
            E::WnPost {
                to: 0,
                from: 1,
                page: 42
            }
        );
        assert_eq!(
            evs[1].ev,
            E::WnDrain {
                to: 0,
                items: vec![(1, 42)]
            }
        );
    }

    #[test]
    fn proc_list_records_suppression_and_drain() {
        use crate::trace::ProtocolEvent as E;
        let rec = Arc::new(TraceRecorder::new());
        let l = ProcNoticeList::new(128, 2).with_identity(1, 2, Arc::clone(&rec));
        assert!(l.insert(7, 0));
        assert!(!l.insert(7, 1));
        assert_eq!(l.drain(), vec![7]);
        let evs: Vec<_> = rec.take().iter().map(|e| e.ev.clone()).collect();
        assert_eq!(
            evs,
            vec![
                E::WnInsert {
                    pnode: 1,
                    lproc: 2,
                    page: 7,
                    fresh: true
                },
                E::WnInsert {
                    pnode: 1,
                    lproc: 2,
                    page: 7,
                    fresh: false
                },
                E::WnProcDrain {
                    pnode: 1,
                    lproc: 2,
                    pages: vec![7]
                },
            ]
        );
    }
}
