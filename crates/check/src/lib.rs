//! Protocol invariant auditor for the Cashmere-2L engine.
//!
//! [`audit`] replays a [`TraceEvent`] stream captured by an engine built
//! with [`cashmere_core::RunSpec::audit`] and verifies four invariant
//! families:
//!
//! 1. **Happens-before** — a vector-clock replay of the synchronization
//!    events (locks, flags, barriers) orders every remote write (a
//!    [`ProtocolEvent::DiffOut`] word epoch) against every fault that may
//!    observe it. An *ordered* fault that shows no evidence of having
//!    re-fetched the page after the write reached the master copy is a
//!    [`ViolationKind::StaleRead`] — release consistency promised the fresh
//!    value and the protocol served a stale one. An *unordered* pair is a
//!    [`Race`] — a property of the application, reported separately from
//!    protocol violations (data-race-free programs must have none; racy
//!    programs like TSP's speculative bound read are expected to show some).
//! 2. **Write-notice conservation** — every drained notice was posted
//!    ([`ViolationKind::WnFabricated`]), every drained notice is
//!    distributed ([`ViolationKind::WnDistributeMissing`]), and the
//!    per-processor bitmap suppression never drops a live notice
//!    ([`ViolationKind::WnLostNotice`]).
//! 3. **Directory and exclusive-mode legality** — at most one exclusive
//!    holder ([`ViolationKind::DupExclusive`]), breaks pair with entries
//!    ([`ViolationKind::UnpairedExclusiveBreak`]), no fetch from or flush
//!    to the master while it is stale under exclusivity
//!    ([`ViolationKind::FetchUnderExclusive`],
//!    [`ViolationKind::FlushUnderExclusive`]), the exclusive directory bit
//!    implies write permission ([`ViolationKind::DirPermInvariant`]), and
//!    homes migrate at most once, under the global lock, before the first
//!    fetch ([`ViolationKind::DuplicateHomeMigration`],
//!    [`ViolationKind::HomeMigrationOutsideLock`],
//!    [`ViolationKind::LateHomeMigration`]).
//! 4. **Release completeness and clock sanity** — every page a processor
//!    dirtied before a release is accounted for by that release
//!    ([`ViolationKind::MissingReleaseFlush`]), two-way diffs never
//!    overwrite concurrent local writes ([`ViolationKind::DiffInConflict`]),
//!    barrier episodes pair up ([`ViolationKind::BarrierEpochMismatch`]),
//!    and per-node logical-clock draws are unique
//!    ([`ViolationKind::TimestampCollision`] — the invariant that justifies
//!    the engine's relaxed atomic ordering on the clock).
//! 5. **Fault recovery** (runs with a `cashmere-faults` plan installed) —
//!    every timed-out page fetch or exclusive break is eventually satisfied
//!    or retried to success ([`ViolationKind::UnrecoveredTimeout`]), fresh
//!    fetch replies carry strictly increasing sequence numbers per
//!    (node, page) so a replayed duplicate can never re-apply against the
//!    twin ([`ViolationKind::DuplicateApplied`]), and the suppression path
//!    never swallows a genuinely fresh reply
//!    ([`ViolationKind::FreshReplyDropped`]).
//! 6. **Span well-nestedness** (runs on an [`ObsReport`] via
//!    [`audit_spans`], when observability was enabled) — on every
//!    (node, processor) track the observability spans are properly nested
//!    with non-negative durations, no span was left open at processor exit,
//!    and no end mismatched its open span ([`ViolationKind::SpanNegative`],
//!    [`ViolationKind::SpanOverlap`], [`ViolationKind::SpanUnclosed`],
//!    [`ViolationKind::SpanMismatched`]).
//!
//! The stream's sequence numbers are the recorder's lock order, and that
//! order is a sound linearization of the run because every emission site
//! follows the discipline documented in [`cashmere_core::trace`]: producers
//! emit before publication, consumers after observation.
//!
//! ```
//! use cashmere_core::{Cluster, ProtocolKind, RunSpec, Topology};
//!
//! let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
//!     .with_audit(true);
//! let mut cluster = Cluster::new(cfg);
//! let a = cluster.alloc(4);
//! cluster.run(|p| {
//!     p.lock(0);
//!     let v = p.read_u64(a);
//!     p.write_u64(a, v + 1);
//!     p.unlock(0);
//! });
//! let report = cashmere_check::audit(&cluster.take_trace());
//! assert!(report.is_clean(), "{}", report.summary());
//! assert!(report.races.is_empty(), "program is data-race-free");
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use cashmere_core::{ProtocolEvent, TraceEvent};
use cashmere_obs::{ObsReport, Span};

/// A hard protocol-invariant violation. Any of these in a trace means the
/// engine misbehaved (or the trace was tampered with — see the mutation
/// self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An ordered (happens-before) remote write was observed stale: the
    /// faulting processor's vector clock dominates the write's, but the
    /// node never re-fetched the page after the write reached the master.
    StaleRead,
    /// A drained write notice was never posted.
    WnFabricated,
    /// The per-processor bitmap suppression dropped or duplicated a notice.
    WnLostNotice,
    /// A drained notice was never distributed to local processors.
    WnDistributeMissing,
    /// Two simultaneous exclusive holders for one page.
    DupExclusive,
    /// An exclusive break with no matching holder.
    UnpairedExclusiveBreak,
    /// A page fetch from the (stale) master while the page was exclusive.
    FetchUnderExclusive,
    /// A diff flush to the master while the page was exclusive elsewhere.
    FlushUnderExclusive,
    /// An incoming two-way diff overwrote words a concurrent local writer
    /// had modified.
    DiffInConflict,
    /// A directory word with the exclusive bit but non-write permission.
    DirPermInvariant,
    /// A home migration after the page had already been fetched.
    LateHomeMigration,
    /// A home migration performed without holding the global MC lock.
    HomeMigrationOutsideLock,
    /// A second home migration for the same page.
    DuplicateHomeMigration,
    /// A release ended without accounting for a page its processor had
    /// dirtied before the release began.
    MissingReleaseFlush,
    /// A barrier departure reported an episode the arrival ledger does not
    /// expect.
    BarrierEpochMismatch,
    /// Two identical logical-clock draws on one node.
    TimestampCollision,
    /// A timed-out request (page fetch or exclusive break) was never
    /// satisfied or retried to success by the end of the trace.
    UnrecoveredTimeout,
    /// A fetch reply was applied fresh with a sequence number at or below
    /// the last applied one — the double-apply the duplicate-suppression
    /// sequence check exists to prevent.
    DuplicateApplied,
    /// A fetch reply with a sequence number above the last applied one was
    /// suppressed as a duplicate (a genuinely fresh reply was dropped).
    FreshReplyDropped,
    /// An observability span with `end < begin` — virtual time ran
    /// backwards inside the span stack.
    SpanNegative,
    /// Two spans on one (node, processor) track partially overlap — the
    /// span stack's push/pop discipline guarantees proper nesting, so a
    /// straddle means begin/end hooks are misplaced.
    SpanOverlap,
    /// A span was still open when its processor finished (force-closed by
    /// `ProcObs::finish`).
    SpanUnclosed,
    /// A span end named a different kind than the open span it closed.
    SpanMismatched,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One hard violation, anchored at the sequence number of the event that
/// exposed it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Sequence number of the exposing event (`u64::MAX` for end-of-trace
    /// accounting checks).
    pub seq: u64,
    /// Human-readable specifics.
    pub detail: String,
}

/// An unordered remote-write/fault pair: a data race in the *application*
/// (deduplicated per page, word, and writer/reader pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Race {
    /// Page holding the raced word.
    pub page: usize,
    /// Word offset within the page.
    pub word: usize,
    /// Node whose flushed write is unordered with the access.
    pub writer_node: usize,
    /// Node whose fault observed (or wrote over) it.
    pub reader_node: usize,
    /// Cluster-wide id of the faulting processor.
    pub reader_proc: usize,
}

/// Everything the replay found.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Hard protocol violations — must be empty for a correct engine.
    pub violations: Vec<Violation>,
    /// Happens-before races — a property of the program, not the engine;
    /// empty for data-race-free programs.
    pub races: Vec<Race>,
    /// Number of events replayed.
    pub events: usize,
}

impl AuditReport {
    /// Whether the engine upheld every audited invariant (races are a
    /// property of the program and do not count).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct violation kinds present.
    pub fn kinds(&self) -> HashSet<ViolationKind> {
        self.violations.iter().map(|v| v.kind).collect()
    }

    /// One line per violation/race, for assertion messages.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} events, {} violations, {} races\n",
            self.events,
            self.violations.len(),
            self.races.len()
        );
        for v in &self.violations {
            s.push_str(&format!("  [{}] seq {}: {}\n", v.kind, v.seq, v.detail));
        }
        for r in &self.races {
            s.push_str(&format!(
                "  [race] page {} word {}: node {} write vs proc {} (node {})\n",
                r.page, r.word, r.writer_node, r.reader_proc, r.reader_node
            ));
        }
        s
    }
}

/// A vector clock over processors.
type Vc = Vec<u64>;

fn join(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

fn dominates(big: &[u64], small: &[u64]) -> bool {
    big.iter().zip(small).all(|(b, s)| b >= s)
}

/// The replay's hasher for its small integer keys (pages, words, node ids):
/// multiply-and-rotate, in the style of rustc's `FxHasher`. The keys come
/// from a trace, not from an adversary, so SipHash's flooding resistance
/// buys nothing here and would cost most of each lookup.
#[derive(Default, Clone, Copy)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table indexes
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}

type Map<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;
type Set<K> = HashSet<K, BuildHasherDefault<MulHasher>>;

/// The last flushed remote write of one (page, word).
struct WordEpoch {
    node: usize,
    /// The flushing releases' joined clock, shared by every word of the
    /// diff.
    vc: Rc<[u64]>,
    seq: u64,
    /// False when the flush could not be attributed to an open release on
    /// its node (e.g. a shootdown flush during a remote fetch); such
    /// epochs are excluded from race and staleness reporting rather than
    /// risk a mis-attributed clock producing false positives.
    attributed: bool,
}

/// Timed-out requests still waiting for the event that satisfies them: the
/// first timeout's sequence number and how many there were.
struct Pending {
    first: u64,
    count: usize,
}

/// The dense index ranges of a trace, found in one pass before the replay
/// so that per-processor, per-node, per-lock, per-flag and per-barrier
/// state can live in flat tables.
#[derive(Default)]
struct Dims {
    /// The protocol node of each processor (the first one an event places
    /// it on); `usize::MAX` for ids no event names. Its length is the
    /// processor count.
    node_of: Vec<usize>,
    nodes: usize,
    lprocs: usize,
    locks: usize,
    flags: usize,
    barriers: usize,
}

impl Dims {
    fn of<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut d = Dims::default();
        let grow = |n: &mut usize, i: usize| *n = (*n).max(i + 1);
        for e in events {
            if let Some((proc, pnode)) = proc_on(&e.ev) {
                if proc >= d.node_of.len() {
                    d.node_of.resize(proc + 1, usize::MAX);
                }
                if d.node_of[proc] == usize::MAX {
                    d.node_of[proc] = pnode;
                }
                grow(&mut d.nodes, pnode);
            }
            match e.ev {
                ProtocolEvent::LockAcquire { lock, .. }
                | ProtocolEvent::LockRelease { lock, .. } => {
                    grow(&mut d.locks, lock);
                }
                ProtocolEvent::FlagSet { flag, .. } | ProtocolEvent::FlagWait { flag, .. } => {
                    grow(&mut d.flags, flag);
                }
                ProtocolEvent::BarrierArrive { barrier, .. }
                | ProtocolEvent::BarrierDepart { barrier, .. } => grow(&mut d.barriers, barrier),
                ProtocolEvent::ClockTick { pnode, .. } => grow(&mut d.nodes, pnode),
                ProtocolEvent::WnInsert { pnode, lproc, .. }
                | ProtocolEvent::WnProcDrain { pnode, lproc, .. } => {
                    grow(&mut d.nodes, pnode);
                    grow(&mut d.lprocs, lproc);
                }
                _ => {}
            }
        }
        d
    }
}

/// Replays `events` (a `&Trace` from `Cluster::take_trace` /
/// `TraceRecorder::take`, or a `Vec` or slice by reference) and reports
/// every invariant violation and happens-before race found. It walks the
/// events twice, in place, chunk by chunk: once to size its tables, once to
/// replay. The stream is in seq order by construction.
pub fn audit<'a, I: IntoIterator<Item = &'a TraceEvent> + Copy>(events: I) -> AuditReport {
    let d = Dims::of(events);
    let nprocs = d.node_of.len();
    // The processors of each node, for attributing a node's flush to its
    // open releases.
    let mut node_procs: Vec<Vec<usize>> = vec![Vec::new(); d.nodes];
    for (p, &n) in d.node_of.iter().enumerate() {
        if n != usize::MAX {
            node_procs[n].push(p);
        }
    }

    let mut violations: Vec<Violation> = Vec::new();
    let mut races: Vec<Race> = Vec::new();

    // Happens-before state. A lock's or flag's clock stays empty until its
    // first release; joining an empty clock is a no-op.
    let mut vc: Vec<Vc> = vec![vec![0; nprocs]; nprocs];
    let mut lock_vc: Vec<Vc> = vec![Vec::new(); d.locks];
    let mut flag_vc: Vec<Vc> = vec![Vec::new(); d.flags];
    let mut barrier_acc: Map<(usize, u64), Vc> = Map::default();
    let mut barrier_next: Vec<u64> = vec![1; d.barriers * nprocs]; // [barrier][proc]

    // Race / staleness state.
    let mut epochs: Map<(usize, usize), WordEpoch> = Map::default();
    let mut last_fetch: Map<(usize, usize), u64> = Map::default(); // (pnode, page)
    let mut raced: Set<Race> = Set::default();

    // Write-notice conservation.
    let mut posted: Map<(usize, usize, u32), u64> = Map::default(); // (to, from, page)
    let mut undistributed: Map<(usize, usize), u64> = Map::default(); // (to, page)
    let mut proc_pending: Vec<Set<u32>> = vec![Set::default(); d.nodes * d.lprocs]; // [pnode][lproc]
                                                                                    // Suppressed inserts that found nothing pending, per list: page -> seq.
                                                                                    // Posters on different stripes race only on the bitmap claim, and each
                                                                                    // emits after its claim, so a sibling's fresh insert can follow the
                                                                                    // suppression it caused in the stream. Both are emitted under a stripe
                                                                                    // lock that the list's drain takes, so the fresh insert must show up
                                                                                    // before that drain; an entry still here at the drain is a dropped
                                                                                    // notice.
    let mut unbacked: Vec<Map<u32, u64>> = vec![Map::default(); d.nodes * d.lprocs];

    // Exclusive mode / directory / homes.
    let mut excl: Map<usize, usize> = Map::default(); // page -> holder node
    let mut homes_written: Set<usize> = Set::default();
    let mut fetched_pages: Set<usize> = Set::default();
    let mut mc_holder: Option<usize> = None;

    // Release completeness: each processor's open release (its begin seq)
    // and the pages it has accounted for, and the pages it dirtied since
    // (page -> seq).
    let mut open_release: Vec<Option<u64>> = vec![None; nprocs];
    let mut covered: Vec<Set<usize>> = vec![Set::default(); nprocs];
    let mut pending_dirty: Vec<Map<usize, u64>> = vec![Map::default(); nprocs];

    // Clock sanity.
    let mut ticks: Vec<Set<u64>> = vec![Set::default(); d.nodes];

    // Fault recovery: last fresh-applied reply seq per (pnode, page),
    // pending fetch timeouts per (pnode, page), and pending break timeouts
    // per (holder, page, requester). Timeouts are cleared by the success
    // event they precede (a `Fetch`, an `ExclBreak`, or an explicit
    // `BreakAbandoned`); leftovers at end of trace are unrecovered.
    let mut applied_seq: Map<(usize, usize), u64> = Map::default();
    let mut pending_fetch_to: Map<(usize, usize), Pending> = Map::default();
    let mut pending_break_to: Map<(usize, usize, usize), Pending> = Map::default();

    macro_rules! flag {
        ($kind:expr, $seq:expr, $($arg:tt)*) => {
            violations.push(Violation {
                kind: $kind,
                seq: $seq,
                detail: format!($($arg)*),
            })
        };
    }

    let mut replayed = 0;
    for te in events {
        replayed += 1;
        let seq = te.seq;
        match &te.ev {
            // --- Synchronization: happens-before edges -----------------
            ProtocolEvent::LockAcquire { proc, lock, .. } => {
                join(&mut vc[*proc], &lock_vc[*lock]);
            }
            ProtocolEvent::LockRelease { proc, lock, .. } => {
                let l = &mut lock_vc[*lock];
                l.resize(nprocs, 0);
                join(l, &vc[*proc]);
            }
            ProtocolEvent::FlagWait { proc, flag: fl, .. } => {
                join(&mut vc[*proc], &flag_vc[*fl]);
            }
            ProtocolEvent::FlagSet { proc, flag: fl, .. } => {
                let f = &mut flag_vc[*fl];
                f.resize(nprocs, 0);
                join(f, &vc[*proc]);
            }
            ProtocolEvent::BarrierArrive { proc, barrier, .. } => {
                let epoch = barrier_next[barrier * nprocs + proc];
                let acc = barrier_acc
                    .entry((*barrier, epoch))
                    .or_insert_with(|| vec![0; nprocs]);
                join(acc, &vc[*proc]);
            }
            ProtocolEvent::BarrierDepart {
                proc,
                barrier,
                epoch,
                ..
            } => {
                let expected = &mut barrier_next[barrier * nprocs + proc];
                if *epoch != *expected {
                    let exp = *expected;
                    flag!(
                        ViolationKind::BarrierEpochMismatch,
                        seq,
                        "proc {proc} departed barrier {barrier} epoch {epoch}, expected {exp}"
                    );
                }
                *expected = epoch + 1;
                if let Some(acc) = barrier_acc.get(&(*barrier, *epoch)) {
                    join(&mut vc[*proc], acc);
                }
            }
            ProtocolEvent::McLockAcquire { pnode } => {
                mc_holder = Some(*pnode);
            }
            ProtocolEvent::McLockRelease { .. } => {
                mc_holder = None;
            }

            // --- Clock ------------------------------------------------
            ProtocolEvent::ClockTick { pnode, ts } => {
                if !ticks[*pnode].insert(*ts) {
                    flag!(
                        ViolationKind::TimestampCollision,
                        seq,
                        "node {pnode} drew logical timestamp {ts} twice"
                    );
                }
            }

            // --- Releases ---------------------------------------------
            ProtocolEvent::ReleaseBegin { proc, .. } => {
                vc[*proc][*proc] += 1;
                open_release[*proc] = Some(seq);
                covered[*proc].clear();
            }
            ProtocolEvent::ReleasePage { proc, page, .. } => {
                if open_release[*proc].is_some() {
                    covered[*proc].insert(*page);
                }
            }
            ProtocolEvent::ReleaseEnd { proc, .. } => {
                if let Some(begin) = open_release[*proc].take() {
                    let (pending, covered) = (&mut pending_dirty[*proc], &covered[*proc]);
                    let mut skipped: Vec<(usize, u64)> = pending
                        .iter()
                        .filter(|&(page, &pseq)| pseq < begin && !covered.contains(page))
                        .map(|(&page, &pseq)| (page, pseq))
                        .collect();
                    skipped.sort_unstable();
                    for (page, pseq) in skipped {
                        flag!(
                            ViolationKind::MissingReleaseFlush,
                            seq,
                            "proc {proc} release skipped dirty page {page} \
                             (dirtied at seq {pseq})"
                        );
                    }
                    pending.retain(|page, pseq| *pseq >= begin && !covered.contains(page));
                }
            }

            // --- Faults and data movement -----------------------------
            ProtocolEvent::Fault {
                proc,
                pnode,
                page,
                word,
                fetched,
                dirtied,
                is_home,
                excl: is_excl,
                ..
            } => {
                if *dirtied {
                    pending_dirty[*proc].entry(*page).or_insert(seq);
                }
                if let Some(e) = epochs.get(&(*page, *word)) {
                    if e.node != *pnode && e.attributed {
                        if dominates(&vc[*proc], &e.vc) {
                            let fetched_after = *fetched
                                || last_fetch.get(&(*pnode, *page)).is_some_and(|&f| f > e.seq);
                            if !is_home && !is_excl && !fetched_after {
                                flag!(
                                    ViolationKind::StaleRead,
                                    seq,
                                    "proc {proc} (node {pnode}) fault on page {page} word \
                                     {word} is ordered after node {}'s flush at seq {} but \
                                     never re-fetched",
                                    e.node,
                                    e.seq
                                );
                            }
                        } else {
                            let race = Race {
                                page: *page,
                                word: *word,
                                writer_node: e.node,
                                reader_node: *pnode,
                                reader_proc: *proc,
                            };
                            if raced.insert(race) {
                                races.push(race);
                            }
                        }
                    }
                }
            }
            ProtocolEvent::Fetch { pnode, page } => {
                fetched_pages.insert(*page);
                last_fetch.insert((*pnode, *page), seq);
                // A completed fetch satisfies every pending timeout this
                // node accumulated for the page.
                pending_fetch_to.remove(&(*pnode, *page));
                if let Some(holder) = excl.get(page) {
                    flag!(
                        ViolationKind::FetchUnderExclusive,
                        seq,
                        "node {pnode} fetched page {page} while node {holder} held it \
                         exclusively (master is stale)"
                    );
                }
            }
            ProtocolEvent::DiffOut { pnode, page, words } => {
                if let Some(holder) = excl.get(page) {
                    flag!(
                        ViolationKind::FlushUnderExclusive,
                        seq,
                        "node {pnode} flushed a diff for page {page} while node {holder} \
                         held it exclusively"
                    );
                }
                // Attribute the flush to the open release(s) on this node;
                // their joined clock is the write's happens-before position.
                let mut evc = vec![0; nprocs];
                let mut attributed = false;
                for &p in node_procs.get(*pnode).into_iter().flatten() {
                    if open_release[p].is_some() {
                        join(&mut evc, &vc[p]);
                        attributed = true;
                    }
                }
                let evc: Rc<[u64]> = evc.into();
                for w in words {
                    epochs.insert(
                        (*page, *w as usize),
                        WordEpoch {
                            node: *pnode,
                            vc: Rc::clone(&evc),
                            seq,
                            attributed,
                        },
                    );
                }
            }
            ProtocolEvent::DiffIn {
                pnode,
                page,
                conflicts,
            } => {
                if *conflicts > 0 {
                    flag!(
                        ViolationKind::DiffInConflict,
                        seq,
                        "incoming diff for page {page} on node {pnode} overwrote \
                         {conflicts} concurrently-written word(s)"
                    );
                }
            }

            // --- Exclusive mode ---------------------------------------
            ProtocolEvent::ExclEnter { proc, pnode, page } => {
                if let Some(holder) = excl.insert(*page, *pnode) {
                    flag!(
                        ViolationKind::DupExclusive,
                        seq,
                        "proc {proc} (node {pnode}) entered exclusive mode for page {page} \
                         already held by node {holder}"
                    );
                }
            }
            ProtocolEvent::ExclBreak { pnode, page, by } => {
                match excl.remove(page) {
                    Some(h) if h == *pnode => {}
                    other => flag!(
                        ViolationKind::UnpairedExclusiveBreak,
                        seq,
                        "node {by} broke exclusivity of page {page} at node {pnode}, but the \
                         recorded holder is {other:?}"
                    ),
                }
                // The break satisfies every requester's pending timeout for
                // this (holder, page) — whoever's retry got through, the
                // exclusivity is gone.
                pending_break_to.retain(|&(h, p, _), _| h != *pnode || p != *page);
            }
            ProtocolEvent::NlePush { proc, page, .. } => {
                pending_dirty[*proc].entry(*page).or_insert(seq);
            }

            // --- Directory and homes ----------------------------------
            ProtocolEvent::DirWrite {
                pnode,
                page,
                perm,
                exclusive,
            } => {
                if *exclusive && *perm != 2 {
                    flag!(
                        ViolationKind::DirPermInvariant,
                        seq,
                        "node {pnode} published page {page} exclusive with perm {perm} \
                         (exclusive implies write)"
                    );
                }
            }
            ProtocolEvent::HomeWrite { pnode, page, to } => {
                if fetched_pages.contains(page) {
                    flag!(
                        ViolationKind::LateHomeMigration,
                        seq,
                        "page {page} migrated to node {to} after its first fetch"
                    );
                }
                if mc_holder != Some(*pnode) {
                    flag!(
                        ViolationKind::HomeMigrationOutsideLock,
                        seq,
                        "node {pnode} migrated page {page} without holding the MC lock \
                         (holder: {mc_holder:?})"
                    );
                }
                if !homes_written.insert(*page) {
                    flag!(
                        ViolationKind::DuplicateHomeMigration,
                        seq,
                        "page {page} migrated twice"
                    );
                }
            }

            // --- Write notices ----------------------------------------
            ProtocolEvent::WnPost { to, from, page } => {
                *posted.entry((*to, *from, *page)).or_insert(0) += 1;
            }
            ProtocolEvent::WnDrain { to, items } => {
                for (from, page) in items {
                    match posted.get_mut(&(*to, *from as usize, *page)) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ => flag!(
                            ViolationKind::WnFabricated,
                            seq,
                            "node {to} drained a notice for page {page} from node {from} \
                             that was never posted"
                        ),
                    }
                    *undistributed.entry((*to, *page as usize)).or_insert(0) += 1;
                }
            }
            ProtocolEvent::WnDistribute { pnode, page, .. } => {
                match undistributed.get_mut(&(*pnode, *page)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => flag!(
                        ViolationKind::WnFabricated,
                        seq,
                        "node {pnode} distributed a notice for page {page} with no \
                         matching drain"
                    ),
                }
            }
            ProtocolEvent::WnInsert {
                pnode,
                lproc,
                page,
                fresh,
            } => {
                let list = pnode * d.lprocs + lproc;
                if *fresh {
                    if !proc_pending[list].insert(*page) {
                        flag!(
                            ViolationKind::WnLostNotice,
                            seq,
                            "(node {pnode}, lproc {lproc}) queued page {page} as fresh \
                             while already pending (duplicate queue entry)"
                        );
                    }
                    unbacked[list].remove(page);
                } else if !proc_pending[list].contains(page) {
                    unbacked[list].entry(*page).or_insert(seq);
                }
            }
            ProtocolEvent::WnProcDrain {
                pnode,
                lproc,
                pages,
            } => {
                let list = pnode * d.lprocs + lproc;
                lost_notices(&mut violations, *pnode, *lproc, &mut unbacked[list]);
                let pending = &mut proc_pending[list];
                for p in pages {
                    if !pending.remove(p) {
                        flag!(
                            ViolationKind::WnLostNotice,
                            seq,
                            "(node {pnode}, lproc {lproc}) drained page {p} that was never \
                             queued"
                        );
                    }
                }
                if !pending.is_empty() {
                    flag!(
                        ViolationKind::WnLostNotice,
                        seq,
                        "(node {pnode}, lproc {lproc}) drain left {} queued page(s) behind: \
                         {:?}",
                        pending.len(),
                        pending.iter().collect::<BTreeSet<_>>()
                    );
                    pending.clear();
                }
            }

            // --- Fault recovery ---------------------------------------
            ProtocolEvent::FetchTimeout { pnode, page, .. } => {
                let p = pending_fetch_to.entry((*pnode, *page));
                p.or_insert(Pending {
                    first: seq,
                    count: 0,
                })
                .count += 1;
            }
            ProtocolEvent::FetchReply {
                pnode,
                page,
                seq: rseq,
                dup,
            } => {
                let last = applied_seq.entry((*pnode, *page)).or_insert(0);
                if *dup {
                    if *rseq > *last {
                        flag!(
                            ViolationKind::FreshReplyDropped,
                            seq,
                            "node {pnode} suppressed reply seq {rseq} for page {page} as a \
                             duplicate, but the last applied seq is {last}"
                        );
                    }
                } else {
                    if *rseq <= *last {
                        flag!(
                            ViolationKind::DuplicateApplied,
                            seq,
                            "node {pnode} applied reply seq {rseq} for page {page} fresh, \
                             but seq {last} was already applied (replayed duplicate \
                             double-applied against the twin)"
                        );
                    }
                    *last = (*last).max(*rseq);
                }
            }
            ProtocolEvent::BreakTimeout {
                pnode, page, by, ..
            } => {
                let p = pending_break_to.entry((*pnode, *page, *by));
                p.or_insert(Pending {
                    first: seq,
                    count: 0,
                })
                .count += 1;
            }
            ProtocolEvent::BreakAbandoned { pnode, page, by } => {
                // The requester found the exclusivity already gone: its
                // timed-out break is satisfied.
                pending_break_to.remove(&(*pnode, *page, *by));
            }

            ProtocolEvent::TwinCreate { .. } => {}
        }
    }

    // A suppression no fresh insert ever backed dropped its notice. Each
    // end-of-trace batch is emitted in key order, so one trace always gives
    // one summary.
    for (list, u) in unbacked.iter_mut().enumerate() {
        lost_notices(&mut violations, list / d.lprocs, list % d.lprocs, u);
    }

    // Every drained notice must have been distributed by the end of the
    // trace (acquire drains and distributes in one protocol action).
    for ((to, page), n) in sorted(undistributed) {
        if n > 0 {
            violations.push(Violation {
                kind: ViolationKind::WnDistributeMissing,
                seq: u64::MAX,
                detail: format!(
                    "node {to} drained {n} notice(s) for page {page} never distributed to \
                     local processors"
                ),
            });
        }
    }

    // Every timed-out request must have been satisfied (a later Fetch /
    // ExclBreak / BreakAbandoned) by the end of the trace: the engine's
    // retry loops emit the timeout strictly before the success event, so a
    // leftover means a request was lost and never recovered.
    for ((pnode, page), Pending { first, count }) in sorted(pending_fetch_to) {
        violations.push(Violation {
            kind: ViolationKind::UnrecoveredTimeout,
            seq: u64::MAX,
            detail: format!(
                "node {pnode} has {count} unrecovered fetch timeout(s) for page {page} \
                 (first at seq {first})"
            ),
        });
    }
    for ((pnode, page, by), Pending { first, count }) in sorted(pending_break_to) {
        violations.push(Violation {
            kind: ViolationKind::UnrecoveredTimeout,
            seq: u64::MAX,
            detail: format!(
                "requester {by} has {count} unrecovered break timeout(s) for page {page} at \
                 node {pnode} (first at seq {first})"
            ),
        });
    }

    AuditReport {
        violations,
        races,
        events: replayed,
    }
}

/// Flags every suppressed insert on list `(pnode, lproc)` that no fresh
/// insert backed, in page order, and forgets them.
fn lost_notices(
    violations: &mut Vec<Violation>,
    pnode: usize,
    lproc: usize,
    unbacked: &mut Map<u32, u64>,
) {
    for (page, seq) in sorted(std::mem::take(unbacked)) {
        violations.push(Violation {
            kind: ViolationKind::WnLostNotice,
            seq,
            detail: format!(
                "(node {pnode}, lproc {lproc}) suppressed a notice for page {page} with nothing \
                 pending (live notice dropped)"
            ),
        });
    }
}

/// A map's entries in key order.
fn sorted<K: Ord, V>(m: Map<K, V>) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = m.into_iter().collect();
    v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Audits the observability layer's span stream (the sixth invariant
/// family): on every (node, processor) track, spans must be properly
/// nested — any two either disjoint or one containing the other — with
/// non-negative durations, and the collection anomalies the span stack
/// counted at runtime ([`ViolationKind::SpanUnclosed`],
/// [`ViolationKind::SpanMismatched`]) must be zero. Proper nesting is what
/// the `ProcObs` push/pop discipline guarantees by construction, so a
/// straddling pair means an engine hook opened a span it never closed (or
/// closed one it never opened) around a code path that charges time.
///
/// Races do not apply to spans; the returned report's `races` is empty and
/// `events` counts the spans examined.
pub fn audit_spans(obs: &ObsReport) -> AuditReport {
    let mut violations = Vec::new();
    if obs.spans_unclosed > 0 {
        violations.push(Violation {
            kind: ViolationKind::SpanUnclosed,
            seq: u64::MAX,
            detail: format!(
                "{} span(s) were force-closed at processor exit",
                obs.spans_unclosed
            ),
        });
    }
    if obs.spans_mismatched > 0 {
        violations.push(Violation {
            kind: ViolationKind::SpanMismatched,
            seq: u64::MAX,
            detail: format!(
                "{} span end(s) named a kind other than the open span",
                obs.spans_mismatched
            ),
        });
    }

    let mut tracks: HashMap<(u32, u32), Vec<&Span>> = HashMap::new();
    for s in &obs.spans {
        if s.end < s.begin {
            violations.push(Violation {
                kind: ViolationKind::SpanNegative,
                seq: s.begin,
                detail: format!(
                    "{} span on node {} proc {} ends at {} before its begin {}",
                    s.kind.label(),
                    s.node,
                    s.proc,
                    s.end,
                    s.begin
                ),
            });
            continue;
        }
        tracks.entry((s.node, s.proc)).or_default().push(s);
    }
    let mut keys: Vec<(u32, u32)> = tracks.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let spans = tracks.get_mut(&key).expect("keyed from tracks");
        // Sorted by begin, longest first on ties: a parent always precedes
        // the spans it contains, so a straddle shows up as a stack-top that
        // ends strictly inside the newcomer.
        spans.sort_by(|a, b| a.begin.cmp(&b.begin).then(b.end.cmp(&a.end)));
        let mut stack: Vec<&Span> = Vec::new();
        for s in spans.iter() {
            while stack.last().is_some_and(|open| open.end <= s.begin) {
                stack.pop();
            }
            if let Some(open) = stack.last() {
                if open.end < s.end {
                    violations.push(Violation {
                        kind: ViolationKind::SpanOverlap,
                        seq: s.begin,
                        detail: format!(
                            "on node {} proc {}: {} [{}, {}] straddles the end of {} [{}, {}]",
                            s.node,
                            s.proc,
                            s.kind.label(),
                            s.begin,
                            s.end,
                            open.kind.label(),
                            open.begin,
                            open.end
                        ),
                    });
                    continue;
                }
            }
            stack.push(s);
        }
    }

    AuditReport {
        violations,
        races: Vec::new(),
        events: obs.spans.len(),
    }
}

/// The cluster-wide processor id an event concerns and the protocol node
/// it places that processor on, for the events that name both.
fn proc_on(ev: &ProtocolEvent) -> Option<(usize, usize)> {
    match *ev {
        ProtocolEvent::LockAcquire { proc, pnode, .. }
        | ProtocolEvent::LockRelease { proc, pnode, .. }
        | ProtocolEvent::BarrierArrive { proc, pnode, .. }
        | ProtocolEvent::BarrierDepart { proc, pnode, .. }
        | ProtocolEvent::FlagSet { proc, pnode, .. }
        | ProtocolEvent::FlagWait { proc, pnode, .. }
        | ProtocolEvent::ReleaseBegin { proc, pnode, .. }
        | ProtocolEvent::ReleasePage { proc, pnode, .. }
        | ProtocolEvent::ReleaseEnd { proc, pnode, .. }
        | ProtocolEvent::Fault { proc, pnode, .. }
        | ProtocolEvent::ExclEnter { proc, pnode, .. }
        | ProtocolEvent::NlePush { proc, pnode, .. } => Some((proc, pnode)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqd(evs: Vec<ProtocolEvent>) -> Vec<TraceEvent> {
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| TraceEvent { seq: i as u64, ev })
            .collect()
    }

    #[test]
    fn empty_trace_is_clean() {
        let r = audit(&[]);
        assert!(r.is_clean());
        assert!(r.races.is_empty());
        assert_eq!(r.events, 0);
    }

    #[test]
    fn ordered_write_with_refetch_is_clean() {
        // Node 0 (proc 0) flushes word 3 during a release, hands the lock
        // to proc 1 (node 1), whose node fetches before faulting: ordered
        // and fresh.
        let t = seqd(vec![
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::DiffOut {
                pnode: 0,
                page: 7,
                words: vec![3],
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            ProtocolEvent::LockRelease {
                proc: 0,
                pnode: 0,
                lock: 0,
            },
            ProtocolEvent::LockAcquire {
                proc: 1,
                pnode: 1,
                lock: 0,
            },
            ProtocolEvent::Fetch { pnode: 1, page: 7 },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 1,
                page: 7,
                word: 3,
                write: false,
                fetched: true,
                dirtied: false,
                is_home: false,
                excl: false,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.races.is_empty(), "{}", r.summary());
    }

    #[test]
    fn ordered_write_without_refetch_is_stale_read() {
        let t = seqd(vec![
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::DiffOut {
                pnode: 0,
                page: 7,
                words: vec![3],
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            ProtocolEvent::LockRelease {
                proc: 0,
                pnode: 0,
                lock: 0,
            },
            ProtocolEvent::LockAcquire {
                proc: 1,
                pnode: 1,
                lock: 0,
            },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 1,
                page: 7,
                word: 3,
                write: false,
                fetched: false,
                dirtied: false,
                is_home: false,
                excl: false,
            },
        ]);
        let r = audit(&t);
        assert_eq!(r.kinds(), HashSet::from([ViolationKind::StaleRead]));
        assert!(r.races.is_empty());
    }

    #[test]
    fn unordered_write_is_a_race_not_a_violation() {
        // No sync edge between the flush and the fault: a program race.
        let t = seqd(vec![
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::DiffOut {
                pnode: 0,
                page: 7,
                words: vec![3],
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 1,
                page: 7,
                word: 3,
                write: false,
                fetched: false,
                dirtied: false,
                is_home: false,
                excl: false,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.races.len(), 1);
        assert_eq!(r.races[0].writer_node, 0);
        assert_eq!(r.races[0].reader_proc, 1);
    }

    #[test]
    fn flag_edges_order_like_locks() {
        let t = seqd(vec![
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::DiffOut {
                pnode: 0,
                page: 2,
                words: vec![0],
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            ProtocolEvent::FlagSet {
                proc: 0,
                pnode: 0,
                flag: 5,
            },
            ProtocolEvent::FlagWait {
                proc: 1,
                pnode: 1,
                flag: 5,
            },
            ProtocolEvent::Fetch { pnode: 1, page: 2 },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 1,
                page: 2,
                word: 0,
                write: false,
                fetched: true,
                dirtied: false,
                is_home: false,
                excl: false,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.races.is_empty(), "flag edge orders the access");
    }

    #[test]
    fn barrier_epochs_pair_arrivals_and_departures() {
        let t = seqd(vec![
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::DiffOut {
                pnode: 0,
                page: 1,
                words: vec![4],
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            ProtocolEvent::BarrierArrive {
                proc: 0,
                pnode: 0,
                barrier: 0,
            },
            ProtocolEvent::BarrierArrive {
                proc: 1,
                pnode: 1,
                barrier: 0,
            },
            ProtocolEvent::BarrierDepart {
                proc: 0,
                pnode: 0,
                barrier: 0,
                epoch: 1,
            },
            ProtocolEvent::BarrierDepart {
                proc: 1,
                pnode: 1,
                barrier: 0,
                epoch: 1,
            },
            ProtocolEvent::Fetch { pnode: 1, page: 1 },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 1,
                page: 1,
                word: 4,
                write: false,
                fetched: true,
                dirtied: false,
                is_home: false,
                excl: false,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.races.is_empty(), "barrier orders the access");
    }

    #[test]
    fn barrier_epoch_mismatch_is_flagged() {
        let t = seqd(vec![
            ProtocolEvent::BarrierArrive {
                proc: 0,
                pnode: 0,
                barrier: 0,
            },
            ProtocolEvent::BarrierDepart {
                proc: 0,
                pnode: 0,
                barrier: 0,
                epoch: 7,
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::BarrierEpochMismatch])
        );
    }

    #[test]
    fn notice_conservation_catches_fabrication_and_loss() {
        // A drain of a never-posted notice, plus a suppression with
        // nothing pending.
        let t = seqd(vec![
            ProtocolEvent::WnDrain {
                to: 0,
                items: vec![(1, 9)],
            },
            ProtocolEvent::WnDistribute {
                pnode: 0,
                page: 9,
                mapped: 1,
            },
            ProtocolEvent::WnInsert {
                pnode: 0,
                lproc: 0,
                page: 9,
                fresh: false,
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::WnFabricated, ViolationKind::WnLostNotice])
        );
    }

    #[test]
    fn suppression_backed_by_a_later_fresh_insert_is_not_a_lost_notice() {
        let insert = |page, fresh| ProtocolEvent::WnInsert {
            pnode: 0,
            lproc: 1,
            page,
            fresh,
        };
        let drain = |pages| ProtocolEvent::WnProcDrain {
            pnode: 0,
            lproc: 1,
            pages,
        };
        // A sibling's fresh claim came first but was emitted second; the
        // page still reaches the drain.
        let t = seqd(vec![insert(9, false), insert(9, true), drain(vec![9])]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
        // No fresh insert before the drain: the notice was dropped.
        let t = seqd(vec![insert(4, true), insert(9, false), drain(vec![4])]);
        assert_eq!(
            audit(&t).summary(),
            "3 events, 1 violations, 0 races
  [WnLostNotice] seq 1: (node 0, lproc 1) suppressed a notice for page 9 with nothing pending (live notice dropped)
"
        );
    }

    #[test]
    fn undistributed_drain_is_flagged_at_end_of_trace() {
        let t = seqd(vec![
            ProtocolEvent::WnPost {
                to: 0,
                from: 1,
                page: 9,
            },
            ProtocolEvent::WnDrain {
                to: 0,
                items: vec![(1, 9)],
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::WnDistributeMissing])
        );
    }

    #[test]
    fn healthy_notice_flow_is_clean() {
        let t = seqd(vec![
            ProtocolEvent::WnPost {
                to: 0,
                from: 1,
                page: 9,
            },
            ProtocolEvent::WnPost {
                to: 0,
                from: 1,
                page: 9,
            },
            ProtocolEvent::WnDrain {
                to: 0,
                items: vec![(1, 9), (1, 9)],
            },
            ProtocolEvent::WnDistribute {
                pnode: 0,
                page: 9,
                mapped: 3,
            },
            ProtocolEvent::WnDistribute {
                pnode: 0,
                page: 9,
                mapped: 3,
            },
            ProtocolEvent::WnInsert {
                pnode: 0,
                lproc: 0,
                page: 9,
                fresh: true,
            },
            ProtocolEvent::WnInsert {
                pnode: 0,
                lproc: 0,
                page: 9,
                fresh: false,
            },
            ProtocolEvent::WnProcDrain {
                pnode: 0,
                lproc: 0,
                pages: vec![9],
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn exclusive_lifecycle_checks() {
        let t = seqd(vec![
            ProtocolEvent::ExclEnter {
                proc: 2,
                pnode: 1,
                page: 4,
            },
            // A second holder while the first never broke.
            ProtocolEvent::ExclEnter {
                proc: 0,
                pnode: 0,
                page: 4,
            },
            // A fetch while the page is exclusive.
            ProtocolEvent::Fetch { pnode: 2, page: 4 },
            // A flush while the page is exclusive.
            ProtocolEvent::DiffOut {
                pnode: 2,
                page: 4,
                words: vec![0],
            },
            ProtocolEvent::ExclBreak {
                pnode: 0,
                page: 4,
                by: 2,
            },
            // And a break with no holder.
            ProtocolEvent::ExclBreak {
                pnode: 0,
                page: 4,
                by: 2,
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([
                ViolationKind::DupExclusive,
                ViolationKind::FetchUnderExclusive,
                ViolationKind::FlushUnderExclusive,
                ViolationKind::UnpairedExclusiveBreak,
            ])
        );
    }

    #[test]
    fn home_migration_rules() {
        let t = seqd(vec![
            ProtocolEvent::McLockAcquire { pnode: 0 },
            ProtocolEvent::HomeWrite {
                pnode: 0,
                page: 3,
                to: 1,
            }, // fine
            ProtocolEvent::McLockRelease { pnode: 0 },
            ProtocolEvent::Fetch { pnode: 1, page: 3 },
            // Second migration, after a fetch, without the lock: 3 kinds.
            ProtocolEvent::HomeWrite {
                pnode: 0,
                page: 3,
                to: 0,
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([
                ViolationKind::LateHomeMigration,
                ViolationKind::HomeMigrationOutsideLock,
                ViolationKind::DuplicateHomeMigration,
            ])
        );
    }

    #[test]
    fn missing_release_flush_is_flagged() {
        let t = seqd(vec![
            ProtocolEvent::Fault {
                proc: 0,
                pnode: 0,
                page: 5,
                word: 0,
                write: true,
                fetched: true,
                dirtied: true,
                is_home: false,
                excl: false,
            },
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            // No ReleasePage for page 5.
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::MissingReleaseFlush])
        );
    }

    #[test]
    fn covered_release_and_late_dirty_are_clean() {
        use cashmere_core::ReleaseAction;
        let t = seqd(vec![
            ProtocolEvent::Fault {
                proc: 0,
                pnode: 0,
                page: 5,
                word: 0,
                write: true,
                fetched: true,
                dirtied: true,
                is_home: false,
                excl: false,
            },
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::ReleasePage {
                proc: 0,
                pnode: 0,
                page: 5,
                action: ReleaseAction::Flushed,
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            // Dirtied between Begin and End of someone else's view — the
            // NEXT release covers it.
            ProtocolEvent::ReleaseBegin {
                proc: 1,
                pnode: 0,
                ts: 2,
            },
            ProtocolEvent::Fault {
                proc: 1,
                pnode: 0,
                page: 6,
                word: 0,
                write: true,
                fetched: false,
                dirtied: true,
                is_home: false,
                excl: false,
            },
            ProtocolEvent::ReleaseEnd { proc: 1, pnode: 0 },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn recovered_timeouts_and_suppressed_duplicates_are_clean() {
        let t = seqd(vec![
            // Two lost fetch attempts, then the fetch succeeds and the
            // reply applies fresh; a replayed duplicate is suppressed.
            ProtocolEvent::FetchTimeout {
                pnode: 1,
                page: 7,
                seq: 1,
                attempt: 1,
            },
            ProtocolEvent::FetchTimeout {
                pnode: 1,
                page: 7,
                seq: 1,
                attempt: 2,
            },
            ProtocolEvent::Fetch { pnode: 1, page: 7 },
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 1,
                dup: false,
            },
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 1,
                dup: true,
            },
            // A break that times out, then lands.
            ProtocolEvent::ExclEnter {
                proc: 0,
                pnode: 0,
                page: 3,
            },
            ProtocolEvent::BreakTimeout {
                pnode: 0,
                page: 3,
                by: 1,
                attempt: 1,
            },
            ProtocolEvent::ExclBreak {
                pnode: 0,
                page: 3,
                by: 1,
            },
            // A break that times out and is then found moot.
            ProtocolEvent::BreakTimeout {
                pnode: 0,
                page: 4,
                by: 2,
                attempt: 1,
            },
            ProtocolEvent::BreakAbandoned {
                pnode: 0,
                page: 4,
                by: 2,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn unrecovered_timeouts_are_flagged_at_end_of_trace() {
        let t = seqd(vec![
            ProtocolEvent::FetchTimeout {
                pnode: 1,
                page: 7,
                seq: 1,
                attempt: 1,
            },
            ProtocolEvent::BreakTimeout {
                pnode: 0,
                page: 3,
                by: 1,
                attempt: 1,
            },
            // Neither a Fetch nor an ExclBreak/BreakAbandoned follows.
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::UnrecoveredTimeout])
        );
        assert_eq!(r.violations.len(), 2, "{}", r.summary());
    }

    #[test]
    fn break_by_another_requester_satisfies_a_pending_timeout() {
        let t = seqd(vec![
            ProtocolEvent::ExclEnter {
                proc: 0,
                pnode: 0,
                page: 3,
            },
            ProtocolEvent::BreakTimeout {
                pnode: 0,
                page: 3,
                by: 1,
                attempt: 1,
            },
            // Node 2's break gets through first; node 1's obligation is
            // satisfied because the exclusivity is gone.
            ProtocolEvent::ExclBreak {
                pnode: 0,
                page: 3,
                by: 2,
            },
        ]);
        let r = audit(&t);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn double_applied_duplicate_is_flagged() {
        // The mutation target: with suppression disabled, a replayed reply
        // is applied fresh under a non-increasing sequence number.
        let t = seqd(vec![
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 2,
                dup: false,
            },
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 2,
                dup: false,
            },
        ]);
        let r = audit(&t);
        assert_eq!(r.kinds(), HashSet::from([ViolationKind::DuplicateApplied]));
    }

    #[test]
    fn fresh_reply_suppressed_as_duplicate_is_flagged() {
        let t = seqd(vec![
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 1,
                dup: false,
            },
            ProtocolEvent::FetchReply {
                pnode: 1,
                page: 7,
                seq: 2,
                dup: true, // seq 2 was never applied: this drop loses data
            },
        ]);
        let r = audit(&t);
        assert_eq!(r.kinds(), HashSet::from([ViolationKind::FreshReplyDropped]));
    }

    #[test]
    fn end_of_batch_diagnoses_print_in_key_order() {
        let dirty = |page| ProtocolEvent::Fault {
            proc: 0,
            pnode: 0,
            page,
            word: 0,
            write: true,
            fetched: true,
            dirtied: true,
            is_home: false,
            excl: false,
        };
        let fetch_to = |pnode, page| ProtocolEvent::FetchTimeout {
            pnode,
            page,
            seq: 1,
            attempt: 1,
        };
        let break_to = |pnode, page, by| ProtocolEvent::BreakTimeout {
            pnode,
            page,
            by,
            attempt: 1,
        };
        let insert = |page| ProtocolEvent::WnInsert {
            pnode: 1,
            lproc: 0,
            page,
            fresh: true,
        };
        let t = seqd(vec![
            dirty(9),
            dirty(2),
            dirty(7),
            dirty(5),
            ProtocolEvent::ReleaseBegin {
                proc: 0,
                pnode: 0,
                ts: 1,
            },
            ProtocolEvent::ReleaseEnd { proc: 0, pnode: 0 },
            insert(8),
            insert(1),
            insert(4),
            ProtocolEvent::WnProcDrain {
                pnode: 1,
                lproc: 0,
                pages: vec![],
            },
            ProtocolEvent::WnPost {
                to: 1,
                from: 0,
                page: 6,
            },
            ProtocolEvent::WnPost {
                to: 0,
                from: 1,
                page: 9,
            },
            ProtocolEvent::WnPost {
                to: 0,
                from: 1,
                page: 3,
            },
            ProtocolEvent::WnDrain {
                to: 1,
                items: vec![(0, 6)],
            },
            ProtocolEvent::WnDrain {
                to: 0,
                items: vec![(1, 9), (1, 3)],
            },
            fetch_to(1, 7),
            fetch_to(0, 3),
            fetch_to(2, 1),
            fetch_to(1, 2),
            break_to(0, 4, 2),
            break_to(1, 0, 0),
            break_to(0, 4, 1),
        ]);
        let first = audit(&t).summary();
        assert_eq!(first, audit(&t).summary(), "same trace, same summary");
        assert_eq!(
            first,
            "22 events, 15 violations, 0 races
  [MissingReleaseFlush] seq 5: proc 0 release skipped dirty page 2 (dirtied at seq 1)
  [MissingReleaseFlush] seq 5: proc 0 release skipped dirty page 5 (dirtied at seq 3)
  [MissingReleaseFlush] seq 5: proc 0 release skipped dirty page 7 (dirtied at seq 2)
  [MissingReleaseFlush] seq 5: proc 0 release skipped dirty page 9 (dirtied at seq 0)
  [WnLostNotice] seq 9: (node 1, lproc 0) drain left 3 queued page(s) behind: {1, 4, 8}
  [WnDistributeMissing] seq 18446744073709551615: node 0 drained 1 notice(s) for page 3 never distributed to local processors
  [WnDistributeMissing] seq 18446744073709551615: node 0 drained 1 notice(s) for page 9 never distributed to local processors
  [WnDistributeMissing] seq 18446744073709551615: node 1 drained 1 notice(s) for page 6 never distributed to local processors
  [UnrecoveredTimeout] seq 18446744073709551615: node 0 has 1 unrecovered fetch timeout(s) for page 3 (first at seq 16)
  [UnrecoveredTimeout] seq 18446744073709551615: node 1 has 1 unrecovered fetch timeout(s) for page 2 (first at seq 18)
  [UnrecoveredTimeout] seq 18446744073709551615: node 1 has 1 unrecovered fetch timeout(s) for page 7 (first at seq 15)
  [UnrecoveredTimeout] seq 18446744073709551615: node 2 has 1 unrecovered fetch timeout(s) for page 1 (first at seq 17)
  [UnrecoveredTimeout] seq 18446744073709551615: requester 1 has 1 unrecovered break timeout(s) for page 4 at node 0 (first at seq 21)
  [UnrecoveredTimeout] seq 18446744073709551615: requester 2 has 1 unrecovered break timeout(s) for page 4 at node 0 (first at seq 19)
  [UnrecoveredTimeout] seq 18446744073709551615: requester 0 has 1 unrecovered break timeout(s) for page 0 at node 1 (first at seq 20)
",
            "each end-of-batch diagnosis is emitted in key order"
        );
    }

    #[test]
    fn clock_collisions_and_dir_perm() {
        let t = seqd(vec![
            ProtocolEvent::ClockTick { pnode: 0, ts: 10 },
            ProtocolEvent::ClockTick { pnode: 1, ts: 10 }, // other node: fine
            ProtocolEvent::ClockTick { pnode: 0, ts: 10 }, // duplicate
            ProtocolEvent::DirWrite {
                pnode: 0,
                page: 0,
                perm: 1,
                exclusive: true,
            },
            ProtocolEvent::DiffIn {
                pnode: 0,
                page: 0,
                conflicts: 2,
            },
        ]);
        let r = audit(&t);
        assert_eq!(
            r.kinds(),
            HashSet::from([
                ViolationKind::TimestampCollision,
                ViolationKind::DirPermInvariant,
                ViolationKind::DiffInConflict,
            ])
        );
    }

    fn span(kind: cashmere_obs::SpanKind, proc: u32, begin: u64, end: u64) -> Span {
        Span {
            kind,
            node: 0,
            proc,
            begin,
            end,
            page: -1,
        }
    }

    #[test]
    fn well_nested_spans_audit_clean() {
        use cashmere_obs::SpanKind;
        let mut obs = ObsReport::new();
        obs.spans = vec![
            // proc 0: a fault nested inside a lock, then a disjoint barrier.
            span(SpanKind::Fault, 0, 120, 180),
            span(SpanKind::Lock, 0, 100, 200),
            span(SpanKind::Barrier, 0, 200, 300),
            // proc 1 overlaps proc 0 in time — different track, no conflict.
            span(SpanKind::Lock, 1, 150, 250),
            // Zero-duration span at a shared boundary.
            span(SpanKind::Release, 0, 300, 300),
        ];
        let r = audit_spans(&obs);
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.events, 5);
        assert!(r.races.is_empty());
    }

    #[test]
    fn span_mutations_are_caught() {
        use cashmere_obs::SpanKind;
        // Straddling pair on one track.
        let mut obs = ObsReport::new();
        obs.spans = vec![
            span(SpanKind::Lock, 0, 100, 200),
            span(SpanKind::Fault, 0, 150, 250),
        ];
        let r = audit_spans(&obs);
        assert_eq!(r.kinds(), HashSet::from([ViolationKind::SpanOverlap]));

        // Negative duration.
        let mut obs = ObsReport::new();
        obs.spans = vec![span(SpanKind::Fetch, 2, 500, 400)];
        let r = audit_spans(&obs);
        assert_eq!(r.kinds(), HashSet::from([ViolationKind::SpanNegative]));

        // Runtime anomaly counters surface as violations.
        let mut obs = ObsReport::new();
        obs.spans_unclosed = 1;
        obs.spans_mismatched = 2;
        let r = audit_spans(&obs);
        assert_eq!(
            r.kinds(),
            HashSet::from([ViolationKind::SpanUnclosed, ViolationKind::SpanMismatched])
        );
    }

    #[test]
    fn real_obs_run_passes_the_span_audit() {
        use cashmere_core::{Cluster, ProtocolKind, RunSpec, Topology};
        let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
            .with_heap_pages(8)
            .with_obs(true);
        let mut cluster = Cluster::new(cfg);
        let a = cluster.alloc(32);
        let report = cluster.run(|p| {
            p.lock(0);
            let v = p.read_u64(a);
            p.write_u64(a, v + 1);
            p.unlock(0);
            p.barrier(0);
        });
        let obs = report.obs.expect("obs enabled");
        let r = audit_spans(&obs);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.events > 0, "spans were recorded");
    }
}
