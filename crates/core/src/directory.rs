//! The replicated global page directory (§2.3).
//!
//! In the paper every shared page has a directory entry replicated on each
//! protocol node through a Memory Channel region (receive mapping
//! everywhere, no loop-back — writers double their writes into their own
//! copy by hand, Figure 1).
//!
//! **Modeled memory** keeps that layout: [`DirUsage::mc_bytes`] counts a
//! full replica per node, `8 × pages × (pnodes + 1) × pnodes` bytes, and
//! every update is charged as a broadcast of `8 × (pnodes − 1)` bytes
//! through the writer's link. **Host memory** holds one copy: a single
//! array of `pages × (pnodes + 1)` words that every node reads. A write is
//! one store there, visible to all nodes at once, plus the same link charge
//! a Memory Channel write pays. The replicas could only differ while a
//! broadcast is in flight, and under the det engine every directory
//! operation runs inside a gate, where nothing is in flight.
//!
//! An entry consists of:
//!
//! * **one word per protocol node**, written *only* by that node. The word
//!   holds the page's loosest permissions on that node, and whether a
//!   processor on that node holds the page in exclusive mode. Because each
//!   word has a single writer, no locks are needed — this is the paper's
//!   key "lock-free structures" design (§2.3, evaluated in §3.3.5).
//! * **one home word** holding the page's home node, whether a home has been
//!   assigned, and whether it is still the round-robin default (eligible for
//!   first-touch relocation). The home word is only written under the global
//!   home-selection lock, which the paper deems acceptable because
//!   relocation happens at most once per page.
//!
//! [`DirectoryMode::GlobalLock`] switches in the §3.3.5 ablation: entries
//! are conceptually compressed into a single word, so every modification
//! must take a cluster-wide lock — modeled by a per-entry virtual-time gate
//! plus the paper's higher (16 µs vs 5 µs) update cost. Its memory is the
//! replicated layout's, modeled and host.
//!
//! # Sparse mode (beyond the paper — DESIGN.md §12)
//!
//! [`DirectoryMode::Sparse`] drops the replication entirely for scaling
//! past the paper's 8×4 cluster: page `p`'s entry lives *only* on its home
//! shard (`p % pnodes`), in a compact per-shard region — a change-version
//! word, a home word, a single cluster-wide exclusive-claim word, and a
//! 2-bit-per-node permission mask. Modeled memory is that single copy,
//! O(pages × pnodes / 32) words; host memory adds the per-node read caches,
//! O(pages × pnodes) words in all, and the transport's receive-mapping slot
//! per endpoint in each shard region. Readers keep a node-local cache of each
//! entry guarded by the entry's *invalidation-on-change* word: the common
//! read is one sequentially consistent load of that word plus a couple of
//! cached loads; only a version change pays a refill. Updates touch the one
//! shard copy (host-side atomics standing in for the remote-atomic
//! operations of a modern interconnect) and charge a single O(1) message
//! through the sender's link via the tree primitive — contrast the
//! replicated mode's per-replica broadcast. Exclusive-mode safety comes
//! from the claim word's compare-and-swap plus the
//! publish-claim-then-validate protocol the engine already runs: the
//! version word's SeqCst bump/probe pair guarantees two racing claimants
//! cannot both miss each other. The replicated modes get the same
//! guarantee from SeqCst stores and loads on their one array.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cashmere_memchan::{RxBuffer, TREE_FANOUT};
use cashmere_model::ModelAtomicU64;
use cashmere_sim::{Counter, Nanos, Resource};
use cashmere_transport::Transport;
use cashmere_vmpage::Perm;

use crate::config::DirectoryMode;
use crate::trace::{emit, ProtocolEvent, TraceRecorder};

/// One protocol node's view of a page, packed into its directory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirWord {
    /// Loosest permission held by any processor on the node.
    pub perm: PermBits,
    /// Whether a processor on the node holds the page exclusively.
    pub exclusive: bool,
    /// Cluster-wide processor id of the exclusive holder (valid when
    /// `exclusive`).
    pub excl_proc: u16,
}

/// Permission bits as stored in the directory (mirrors [`Perm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PermBits {
    /// No mapping on the node.
    #[default]
    None,
    /// At least one read-only mapping.
    Read,
    /// At least one read-write mapping.
    Write,
}

impl From<Perm> for PermBits {
    fn from(p: Perm) -> Self {
        match p {
            Perm::None => PermBits::None,
            Perm::Read => PermBits::Read,
            Perm::Write => PermBits::Write,
        }
    }
}

impl PermBits {
    /// The two-bit code every directory layout stores — the replicated
    /// word's low bits, a sparse mask's per-node pair — and the `DirWrite`
    /// audit event carries.
    pub fn bits(self) -> u64 {
        match self {
            PermBits::None => 0,
            PermBits::Read => 1,
            PermBits::Write => 2,
        }
    }

    /// Decodes the low two bits of `v` (inverse of [`Self::bits`]).
    pub fn from_bits(v: u64) -> Self {
        match v & 0b11 {
            0 => PermBits::None,
            1 => PermBits::Read,
            _ => PermBits::Write,
        }
    }
}

impl DirWord {
    /// Packs into the on-wire word.
    pub fn pack(self) -> u64 {
        self.perm.bits() | ((self.exclusive as u64) << 4) | ((self.excl_proc as u64) << 8)
    }

    /// Unpacks from the on-wire word.
    pub fn unpack(v: u64) -> Self {
        Self {
            perm: PermBits::from_bits(v),
            exclusive: (v >> 4) & 1 == 1,
            excl_proc: ((v >> 8) & 0xFFFF) as u16,
        }
    }

    /// Whether this node has any mapping (counts as a "copy"/sharer).
    pub fn has_copy(self) -> bool {
        !matches!(self.perm, PermBits::None)
    }
}

/// The home word of a page's directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeInfo {
    /// Protocol node that is the page's home.
    pub pnode: usize,
    /// True until the first-touch heuristic relocates the page (or forever,
    /// if first-touch is disabled).
    pub is_default: bool,
}

impl HomeInfo {
    fn pack(self) -> u64 {
        // Real (release-mode) checks: at 64×16 and beyond a silently
        // truncated node id would scatter pages to the wrong homes.
        assert!(
            self.pnode <= MAX_PNODES,
            "home node {} does not fit the home word's 16-bit field",
            self.pnode
        );
        1 | ((self.is_default as u64) << 1) | ((self.pnode as u64) << 8)
    }

    fn unpack(v: u64) -> Self {
        assert!(v & 1 == 1, "home word read before initialization");
        Self {
            pnode: ((v >> 8) & 0xFFFF) as usize,
            is_default: (v >> 1) & 1 == 1,
        }
    }
}

/// Largest protocol-node id representable in the packed home and
/// exclusive-claim words (16-bit fields).
const MAX_PNODES: usize = 0xFFFF;

/// Sparse-entry field offsets within one entry's `entry_words` window
/// (DESIGN.md §12): the invalidation-on-change version word, the home word,
/// the cluster-wide exclusive-claim word, then `⌈pnodes/32⌉` permission
/// mask words holding 2 bits per node.
const F_VERSION: usize = 0;
const F_HOME: usize = 1;
const F_EXCL: usize = 2;
const F_MASK0: usize = 3;

/// Sentinel stored in a cache line's version slot while a refill is in
/// flight; concurrent readers fall back to reading the shard directly.
const REFILLING: u64 = u64::MAX;

/// Wire bytes modeled for one sparse directory update: one word of payload
/// plus the entry index, the same 12-byte format as a diff word.
const SPARSE_UPDATE_BYTES: u64 = 12;

fn excl_pack(pnode: usize, excl_proc: u16) -> u64 {
    assert!(
        pnode <= MAX_PNODES,
        "claimant node {pnode} does not fit the claim word's 16-bit field"
    );
    1 | ((pnode as u64) << 8) | ((excl_proc as u64) << 32)
}

fn excl_unpack(v: u64) -> Option<(usize, u16)> {
    (v & 1 == 1).then_some((((v >> 8) & 0xFFFF) as usize, ((v >> 32) & 0xFFFF) as u16))
}

/// Charge-free directory traffic accounting: event counts, each worth a
/// per-directory constant of modeled wire bytes that [`Directory::usage`]
/// multiplies in. These counters feed the scaling experiment
/// (`BENCH_scaling.json`) and are NOT part of [`crate::report::Counters`] —
/// the golden-pinned counter snapshot is untouched.
#[derive(Default)]
struct DirTraffic {
    /// Directory-entry modifications (any mode). In the replicated modes
    /// each is a broadcast delivered to every other node's replica.
    updates: Counter,
    /// Sparse-mode updates from off the home shard: one O(1) message each
    /// (a shard-local update is an ordinary memory operation).
    remote_updates: Counter,
    /// Sparse-mode remote probes of an entry's invalidation-on-change word.
    probes: Counter,
    /// Sparse-mode cache refills after a version change.
    misses: Counter,
}

/// Snapshot of directory traffic and memory, for the scaling experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirUsage {
    /// Entry modifications.
    pub updates: u64,
    /// Modeled wire bytes delivered for updates.
    pub update_bytes: u64,
    /// Remote change-word probes (sparse mode only).
    pub probes: u64,
    pub probe_bytes: u64,
    /// Cache refills (sparse mode only).
    pub misses: u64,
    pub miss_bytes: u64,
    /// Modeled Memory Channel bytes backing the directory: every node's
    /// replica in the replicated modes (the host keeps one copy), the
    /// single sharded copy in sparse mode.
    pub mc_bytes: u64,
    /// Node-local RAM spent on sparse read caches (0 when replicated).
    pub cache_bytes: u64,
}

impl DirUsage {
    /// Total modeled directory protocol bytes (updates + probes + misses).
    pub fn protocol_bytes(&self) -> u64 {
        self.update_bytes + self.probe_bytes + self.miss_bytes
    }
}

/// Sparse-mode state: one compact region per home shard plus per-node read
/// caches (DESIGN.md §12).
struct SparseDir {
    /// Words per entry: version + home + claim + permission mask.
    entry_words: usize,
    /// Shard `s`'s region handle (its own receive mapping — the single
    /// authoritative copy of every entry homed on `s`).
    shards: Vec<RxBuffer>,
    /// Per-node entry caches, `pages × entry_words` each, mirroring the
    /// shard layout; the version slot holds the shard version the line was
    /// filled at, or [`REFILLING`]. Model-routed atomics so the
    /// interleaving explorer schedules around the cached read path.
    caches: Vec<Box<[ModelAtomicU64]>>,
}

/// Where a sparse read is served from (see `Directory::sparse_sync`).
#[derive(Clone, Copy)]
enum SparseSrc {
    /// The reader's cache line is fresh.
    Cache,
    /// A concurrent refill owns the line; read the shard copy directly.
    Shard,
}

/// The global page directory: replicated (the paper's design, plus the
/// global-lock ablation) or home-sharded ([`DirectoryMode::Sparse`]).
pub struct Directory {
    mc: Arc<dyn Transport>,
    pnodes: usize,
    pages: usize,
    mode: DirectoryMode,
    /// The replicated modes' entries, `pages × (pnodes + 1)` words: the one
    /// host copy every node's reads load from. The words are single-writer
    /// (§2.3), so readers need no mutual exclusion. Stores and loads are
    /// SeqCst so that two claimants of exclusive mode, each writing its word
    /// and then reading the other's, cannot both miss each other. Empty in
    /// sparse mode.
    words: Box<[ModelAtomicU64]>,
    /// Sparse-mode shards and caches (`None` in the replicated modes).
    sparse: Option<SparseDir>,
    /// Virtual-time serialization gates for the GlobalLock ablation (one per
    /// page entry; unused — empty — in the lock-free modes).
    gates: Vec<Resource>,
    /// Charge-free wire-byte accounting for the scaling experiment.
    traffic: DirTraffic,
    /// Auditor event stream, when enabled.
    rec: Option<Arc<TraceRecorder>>,
}

impl Directory {
    /// Builds the directory for `pages` pages over `pnodes` protocol nodes:
    /// one host array standing for every node's replica in the replicated
    /// modes, or one compact region per home shard in sparse mode.
    ///
    /// # Panics
    ///
    /// Panics (a real error, not a debug assert) if `pnodes` exceeds the
    /// packed words' 16-bit node fields or the entry layout's word indices
    /// would overflow `usize` — silent wraparound at high node counts would
    /// corrupt the directory.
    pub fn new(mc: Arc<dyn Transport>, pnodes: usize, pages: usize, mode: DirectoryMode) -> Self {
        assert!(
            (1..=MAX_PNODES).contains(&pnodes),
            "directory supports 1..={MAX_PNODES} protocol nodes, got {pnodes}"
        );
        let (words, sparse) = match mode {
            DirectoryMode::LockFree | DirectoryMode::GlobalLock => {
                let words = pages
                    .checked_mul(pnodes + 1)
                    .expect("directory word index overflows usize at this pages × nodes");
                ((0..words).map(|_| ModelAtomicU64::new(0)).collect(), None)
            }
            DirectoryMode::Sparse => {
                let entry_words = F_MASK0 + pnodes.div_ceil(32);
                let cache_words = pages
                    .checked_mul(entry_words)
                    .expect("directory word index overflows usize at this pages × nodes");
                // One compact region per shard, receive-mapped only on the
                // shard itself: the single authoritative copy.
                let shards = (0..pnodes)
                    .map(|s| {
                        let slots = if s >= pages {
                            0
                        } else {
                            (pages - 1 - s) / pnodes + 1
                        };
                        let r = mc.create_region((slots * entry_words).max(1), false);
                        mc.attach_rx(r, s);
                        mc.rx_buffer(r, s)
                            .expect("shard attached immediately above")
                    })
                    .collect();
                let caches = (0..pnodes)
                    .map(|_| {
                        (0..cache_words.max(1))
                            .map(|_| ModelAtomicU64::new(0))
                            .collect()
                    })
                    .collect();
                (
                    Box::default(),
                    Some(SparseDir {
                        entry_words,
                        shards,
                        caches,
                    }),
                )
            }
        };
        let gates = match mode {
            DirectoryMode::LockFree | DirectoryMode::Sparse => Vec::new(),
            DirectoryMode::GlobalLock => (0..pages).map(|_| Resource::new()).collect(),
        };
        Self {
            mc,
            pnodes,
            pages,
            mode,
            words,
            sparse,
            gates,
            traffic: DirTraffic::default(),
            rec: None,
        }
    }

    /// Attaches the auditor's event recorder.
    pub fn with_recorder(mut self, rec: Arc<TraceRecorder>) -> Self {
        self.rec = Some(rec);
        self
    }

    fn entry_base(&self, page: usize) -> usize {
        debug_assert!(page < self.pages);
        page * (self.pnodes + 1)
    }

    fn word_idx(&self, page: usize, pnode: usize) -> usize {
        debug_assert!(pnode < self.pnodes);
        self.entry_base(page) + pnode
    }

    fn home_idx(&self, page: usize) -> usize {
        self.entry_base(page) + self.pnodes
    }

    /// Replicated-mode update from `me`: one store into the host array,
    /// charged as the Memory Channel broadcast of one 8-byte word (the same
    /// link reservation and write latency a region write pays).
    fn publish(&self, idx: usize, me: usize, val: u64, now: Nanos) -> Nanos {
        self.traffic.updates.inc();
        self.words[idx].store(val, Ordering::SeqCst);
        self.mc.charge_link(me, 8, now)
    }

    // --- sparse-mode plumbing (DESIGN.md §12) ---------------------------

    /// The home shard serving `page`'s entry.
    fn shard_of(&self, page: usize) -> usize {
        page % self.pnodes
    }

    /// Offset of `field` within `page`'s entry in its shard's region.
    fn shard_field(&self, page: usize, field: usize) -> usize {
        let sp = self.sparse.as_ref().expect("sparse mode");
        (page / self.pnodes) * sp.entry_words + field
    }

    /// Ensures `reader`'s cache line for `page` is at least as fresh as the
    /// shard's invalidation-on-change word, refilling it on a version
    /// change. Returns where this read should be served from: the cache
    /// (common case — the probe plus a couple of cached loads), or the
    /// shard directly when a concurrent refill owns the line.
    ///
    /// The probe is a SeqCst load pairing with the SeqCst bump in
    /// [`sparse_update`](Self::sparse_update): in the engine's
    /// publish-claim-then-validate exclusive entry, two racing claimants
    /// cannot both have their validation probe ordered before the other's
    /// bump, so at least one observes the other and backs off.
    ///
    /// The refill tags the line with the version loaded *before* copying
    /// the fields, so a concurrent update can only make the line
    /// conservatively fresh (newer data under an older tag — the next probe
    /// refills again), never stale under a fresh tag.
    fn sparse_sync(&self, page: usize, reader: usize) -> SparseSrc {
        let sp = self.sparse.as_ref().expect("sparse mode");
        let shard = self.shard_of(page);
        let sv = sp.shards[shard].load_sc(self.shard_field(page, F_VERSION));
        if reader != shard {
            self.traffic.probes.inc();
        }
        let cache = &sp.caches[reader];
        let vslot = page * sp.entry_words + F_VERSION;
        let cv = cache[vslot].load(Ordering::Acquire);
        if cv == sv {
            return SparseSrc::Cache;
        }
        if cv == REFILLING
            || cache[vslot]
                .compare_exchange(cv, REFILLING, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            // Another reader on this node owns the refill; don't wait — the
            // shard copy is always authoritative.
            return SparseSrc::Shard;
        }
        for f in F_HOME..sp.entry_words {
            let v = sp.shards[shard].load(self.shard_field(page, f));
            cache[page * sp.entry_words + f].store(v, Ordering::Release);
        }
        cache[vslot].store(sv, Ordering::Release);
        if reader != shard {
            self.traffic.misses.inc();
        }
        SparseSrc::Cache
    }

    /// Loads `field` of `page`'s entry from wherever
    /// [`sparse_sync`](Self::sparse_sync) said to read.
    fn sparse_field(&self, page: usize, reader: usize, src: SparseSrc, field: usize) -> u64 {
        let sp = self.sparse.as_ref().expect("sparse mode");
        match src {
            SparseSrc::Cache => {
                sp.caches[reader][page * sp.entry_words + field].load(Ordering::Acquire)
            }
            SparseSrc::Shard => sp.shards[self.shard_of(page)].load(self.shard_field(page, field)),
        }
    }

    /// Applies `me`'s word to `page`'s sparse entry on its home shard:
    /// `me`'s two permission-mask bits move in a single compare-and-swap
    /// (no torn intermediate is ever visible), the cluster-wide exclusive
    /// claim word is claimed/updated/cleared by CAS, then the entry's
    /// invalidation-on-change word is bumped — data before bump, so a
    /// reader that refills on the new version always sees the new fields.
    /// When `bump` is false the version bump is skipped (the mutant hook).
    fn sparse_apply(&self, page: usize, me: usize, w: DirWord, bump: bool) {
        let sp = self.sparse.as_ref().expect("sparse mode");
        let sh = &sp.shards[self.shard_of(page)];
        let moff = self.shard_field(page, F_MASK0 + me / 32);
        let shift = (me % 32) * 2;
        let bits = w.perm.bits() << shift;
        loop {
            let old = sh.load_sc(moff);
            let new = (old & !(0b11 << shift)) | bits;
            if old == new || sh.compare_exchange(moff, old, new).is_ok() {
                break;
            }
        }
        let eoff = self.shard_field(page, F_EXCL);
        let cur = sh.load_sc(eoff);
        if w.exclusive {
            match excl_unpack(cur) {
                // Refresh my own claim (e.g. a new holder processor).
                Some((n, _)) if n == me => {
                    let _ = sh.compare_exchange(eoff, cur, excl_pack(me, w.excl_proc));
                }
                // Claim from empty; losing the race leaves the winner's
                // claim in place and my permission bits force the engine's
                // validation step to back off.
                None => {
                    let _ = sh.compare_exchange(eoff, 0, excl_pack(me, w.excl_proc));
                }
                // Someone else's claim stands; validation resolves the race.
                Some(_) => {}
            }
        } else if matches!(excl_unpack(cur), Some((n, _)) if n == me) {
            // Clearing is only legal for my own claim (my own exit, or a
            // breaker writing the holder's word under the holder's
            // node-page lock).
            let _ = sh.compare_exchange(eoff, cur, 0);
        }
        if bump {
            sh.fetch_add(self.shard_field(page, F_VERSION), 1);
        }
    }

    /// Traffic accounting + virtual-time link charge for one sparse update
    /// from `me`; a shard-local update is an ordinary memory operation.
    fn sparse_update_charge(&self, page: usize, me: usize, now: Nanos) -> Nanos {
        self.traffic.updates.inc();
        let shard = self.shard_of(page);
        if me == shard {
            return now;
        }
        self.traffic.remote_updates.inc();
        // The degenerate (single-target) tree: exactly one fault-interposed
        // link reservation plus latency — directory updates and the
        // write-notice fan-out share the same broadcast primitive.
        self.mc
            .charge_tree(me, &[shard], TREE_FANOUT, SPARSE_UPDATE_BYTES, now)
    }

    /// Per-modification cost under the configured mode (§3.1: 5 µs
    /// lock-free, 16 µs when a global lock must be acquired; sparse keeps
    /// the lock-free cost).
    pub fn update_cost(&self) -> Nanos {
        match self.mode {
            DirectoryMode::LockFree | DirectoryMode::Sparse => self.mc.cost().dir_update,
            DirectoryMode::GlobalLock => self.mc.cost().dir_update_locked,
        }
    }

    /// Reads node `pnode`'s word of `page`'s entry as seen by `reader`: a
    /// single atomic load from the host array in the replicated modes
    /// (`reader` only matters in sparse mode); in sparse mode, a
    /// change-word probe plus cached mask/claim loads (DESIGN.md §12).
    #[inline]
    pub fn read_word(&self, page: usize, pnode: usize, reader: usize) -> DirWord {
        if self.sparse.is_none() {
            return DirWord::unpack(self.words[self.word_idx(page, pnode)].load(Ordering::SeqCst));
        }
        let src = self.sparse_sync(page, reader);
        let mask = self.sparse_field(page, reader, src, F_MASK0 + pnode / 32);
        let perm = PermBits::from_bits(mask >> ((pnode % 32) * 2));
        match excl_unpack(self.sparse_field(page, reader, src, F_EXCL)) {
            Some((n, p)) if n == pnode => DirWord {
                perm,
                exclusive: true,
                excl_proc: p,
            },
            _ => DirWord {
                perm,
                exclusive: false,
                excl_proc: 0,
            },
        }
    }

    /// Writes `me`'s own word of `page`'s entry. Replicated modes: one
    /// store, charged as a Memory Channel broadcast (under
    /// [`DirectoryMode::GlobalLock`] the write also serializes through the
    /// entry's global-lock gate). Sparse mode: CAS
    /// transitions on the home shard's single copy followed by the
    /// invalidation-on-change bump, charged as one O(1) message. Returns
    /// the completion time.
    pub fn write_my_word(&self, page: usize, me: usize, w: DirWord, now: Nanos) -> Nanos {
        // Producer: emit before the write so any read that observes the new
        // word is sequenced after it.
        emit(&self.rec, || ProtocolEvent::DirWrite {
            pnode: me,
            page,
            perm: w.perm.bits() as u8,
            exclusive: w.exclusive,
        });
        if self.sparse.is_some() {
            self.sparse_apply(page, me, w, true);
            return self.sparse_update_charge(page, me, now);
        }
        let start = match self.mode {
            DirectoryMode::LockFree | DirectoryMode::Sparse => now,
            // Model the global lock's serialization: hold the gate for the
            // difference between the locked and lock-free update costs.
            DirectoryMode::GlobalLock => {
                let hold = self.mc.cost().dir_update_locked - self.mc.cost().dir_update;
                self.gates[page].acquire(now, hold)
            }
        };
        self.publish(self.word_idx(page, me), me, w.pack(), start)
    }

    /// A deliberately wrong sparse `write_my_word` kept for the model
    /// checker's mutation battery (DESIGN.md §11/§12): the
    /// invalidation-on-change word is bumped *before* the mask and claim
    /// words are written. A reader that refills between the bump and the
    /// data writes caches the stale fields under the new version — and
    /// since the version never moves again, the staleness is permanent: the
    /// reader's final observation misses the last published word. The model
    /// tests assert the explorer finds such a schedule within the default
    /// budget.
    #[doc(hidden)]
    pub fn write_my_word_mutant_version_before_data(
        &self,
        page: usize,
        me: usize,
        w: DirWord,
        now: Nanos,
    ) -> Nanos {
        emit(&self.rec, || ProtocolEvent::DirWrite {
            pnode: me,
            page,
            perm: w.perm.bits() as u8,
            exclusive: w.exclusive,
        });
        let sp = self.sparse.as_ref().expect("sparse-mode mutant");
        sp.shards[self.shard_of(page)].fetch_add(self.shard_field(page, F_VERSION), 1);
        self.sparse_apply(page, me, w, false);
        self.sparse_update_charge(page, me, now)
    }

    /// A deliberately wrong replicated `write_my_word` kept for the model
    /// checker's mutation battery (DESIGN.md §11): the word is written as
    /// *two* stores — a partial word carrying only the permission bits, then
    /// the full word. A reader's single atomic load can land between them
    /// and observe a word the writer never published (the torn state the
    /// real single store rules out). The model tests assert the explorer
    /// finds such a schedule within the default budget.
    #[doc(hidden)]
    pub fn write_my_word_mutant_torn_store(
        &self,
        page: usize,
        me: usize,
        w: DirWord,
        now: Nanos,
    ) -> Nanos {
        emit(&self.rec, || ProtocolEvent::DirWrite {
            pnode: me,
            page,
            perm: w.perm.bits() as u8,
            exclusive: w.exclusive,
        });
        let idx = self.word_idx(page, me);
        self.words[idx].store(w.pack() & 0b11, Ordering::SeqCst);
        self.publish(idx, me, w.pack(), now)
    }

    /// Reads the home word as seen by `reader`. Returns `None` if no home
    /// has been assigned yet.
    #[inline]
    pub fn read_home(&self, page: usize, reader: usize) -> Option<HomeInfo> {
        let v = if self.sparse.is_none() {
            self.words[self.home_idx(page)].load(Ordering::SeqCst)
        } else {
            let src = self.sparse_sync(page, reader);
            self.sparse_field(page, reader, src, F_HOME)
        };
        if v & 1 == 0 {
            None
        } else {
            Some(HomeInfo::unpack(v))
        }
    }

    /// Writes the home word (caller must hold the global home-selection
    /// lock). One store charged as a broadcast in the replicated modes; a
    /// shard store plus version bump in sparse mode.
    pub fn write_home(&self, page: usize, me: usize, h: HomeInfo, now: Nanos) -> Nanos {
        emit(&self.rec, || ProtocolEvent::HomeWrite {
            pnode: me,
            page,
            to: h.pnode,
        });
        if let Some(sp) = &self.sparse {
            let sh = &sp.shards[self.shard_of(page)];
            sh.store(self.shard_field(page, F_HOME), h.pack());
            sh.fetch_add(self.shard_field(page, F_VERSION), 1);
            return self.sparse_update_charge(page, me, now);
        }
        self.publish(self.home_idx(page), me, h.pack(), now)
    }

    /// Setup-time home initialization (round-robin assignment before the
    /// run); writes directly with no cost and no traffic.
    pub fn init_home(&self, page: usize, h: HomeInfo) {
        if let Some(sp) = &self.sparse {
            let sh = &sp.shards[self.shard_of(page)];
            sh.store(self.shard_field(page, F_HOME), h.pack());
            sh.fetch_add(self.shard_field(page, F_VERSION), 1);
            return;
        }
        self.words[self.home_idx(page)].store(h.pack(), Ordering::SeqCst);
    }

    /// Protocol nodes (≠ `exclude`) that currently hold a copy of `page`,
    /// as seen by `reader`. Sparse mode scans the O(pnodes/32) mask words
    /// after a single change-word probe instead of O(pnodes) replica loads.
    pub fn sharers(&self, page: usize, reader: usize, exclude: usize) -> Vec<usize> {
        let Some(sp) = &self.sparse else {
            return (0..self.pnodes)
                .filter(|&n| n != exclude && self.read_word(page, n, reader).has_copy())
                .collect();
        };
        let src = self.sparse_sync(page, reader);
        let mut out = Vec::new();
        for mw in 0..sp.entry_words - F_MASK0 {
            let mask = self.sparse_field(page, reader, src, F_MASK0 + mw);
            if mask == 0 {
                continue;
            }
            for bit in 0..32 {
                let n = mw * 32 + bit;
                if n < self.pnodes && n != exclude && (mask >> (bit * 2)) & 0b11 != 0 {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Whether any node other than `exclude` holds a copy or the exclusive
    /// flag for `page`.
    pub fn shared_by_others(&self, page: usize, reader: usize, exclude: usize) -> bool {
        let Some(sp) = &self.sparse else {
            return (0..self.pnodes).any(|n| {
                if n == exclude {
                    return false;
                }
                let w = self.read_word(page, n, reader);
                w.has_copy() || w.exclusive
            });
        };
        let src = self.sparse_sync(page, reader);
        if matches!(
            excl_unpack(self.sparse_field(page, reader, src, F_EXCL)),
            Some((n, _)) if n != exclude
        ) {
            return true;
        }
        for mw in 0..sp.entry_words - F_MASK0 {
            let mut mask = self.sparse_field(page, reader, src, F_MASK0 + mw);
            if exclude / 32 == mw {
                mask &= !(0b11 << ((exclude % 32) * 2));
            }
            if mask != 0 {
                return true;
            }
        }
        false
    }

    /// The node currently holding `page` in exclusive mode, if any, with the
    /// holder's cluster-wide processor id. Sparse mode reads the single
    /// claim word instead of scanning every node's word.
    pub fn exclusive_holder(&self, page: usize, reader: usize) -> Option<(usize, u16)> {
        if self.sparse.is_none() {
            return (0..self.pnodes).find_map(|n| {
                let w = self.read_word(page, n, reader);
                w.exclusive.then_some((n, w.excl_proc))
            });
        }
        let src = self.sparse_sync(page, reader);
        excl_unpack(self.sparse_field(page, reader, src, F_EXCL))
    }

    /// Number of protocol nodes.
    pub fn pnodes(&self) -> usize {
        self.pnodes
    }

    /// Number of pages covered.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Charge-free snapshot of directory traffic and memory, for the
    /// scaling experiment (`BENCH_scaling.json`). Not part of
    /// [`crate::report::Counters`]; the golden-pinned counters are untouched.
    pub fn usage(&self) -> DirUsage {
        let t = &self.traffic;
        let (updates, probes, misses) = (t.updates.get(), t.probes.get(), t.misses.get());
        let (update_bytes, miss_bytes, mc_bytes, cache_bytes) = match &self.sparse {
            // Modeled, not host, bytes: every node holds a full replica of
            // the directory region, and the hub fans each updated 8-byte
            // word out to every other node's.
            None => (
                8 * (self.pnodes as u64 - 1) * updates,
                0,
                8 * (self.pages * (self.pnodes + 1) * self.pnodes) as u64,
                0,
            ),
            // A refill copies every field but the version word.
            Some(sp) => (
                SPARSE_UPDATE_BYTES * t.remote_updates.get(),
                8 * (sp.entry_words as u64 - 1) * misses,
                8 * sp.shards.iter().map(RxBuffer::words).sum::<usize>() as u64,
                8 * sp.caches.iter().map(|c| c.len()).sum::<usize>() as u64,
            ),
        };
        DirUsage {
            updates,
            update_bytes,
            probes,
            probe_bytes: 8 * probes,
            misses,
            miss_bytes,
            mc_bytes,
            cache_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_memchan::TransportConfig;
    use cashmere_transport::build_transport;

    fn dir(pnodes: usize, mode: DirectoryMode) -> Directory {
        let mc = build_transport(TransportConfig::new(
            (0..pnodes).map(|e| e % 2).collect(),
            2,
        ));
        Directory::new(mc, pnodes, 4, mode)
    }

    #[test]
    fn dir_word_packs_and_unpacks() {
        let w = DirWord {
            perm: PermBits::Write,
            exclusive: true,
            excl_proc: 31,
        };
        assert_eq!(DirWord::unpack(w.pack()), w);
        let none = DirWord::default();
        assert_eq!(DirWord::unpack(none.pack()), none);
        assert!(!none.has_copy());
        assert!(w.has_copy());
    }

    #[test]
    fn home_info_round_trips() {
        let h = HomeInfo {
            pnode: 7,
            is_default: true,
        };
        assert_eq!(HomeInfo::unpack(h.pack()), h);
    }

    #[test]
    fn write_is_visible_to_every_reader_including_writer() {
        let d = dir(4, DirectoryMode::LockFree);
        let w = DirWord {
            perm: PermBits::Read,
            exclusive: false,
            excl_proc: 0,
        };
        d.write_my_word(2, 1, w, 0);
        for reader in 0..4 {
            assert_eq!(d.read_word(2, 1, reader), w, "as read on node {reader}");
        }
    }

    /// A replicated update costs exactly what a one-word Memory Channel
    /// region write from the same node costs, queueing included.
    #[test]
    fn replicated_update_is_charged_as_a_region_write() {
        let mc = build_transport(TransportConfig::new(vec![0, 1], 2));
        let d = dir(2, DirectoryMode::LockFree);
        let region = mc.create_region(1, false);
        mc.attach_rx(region, 0);
        mc.attach_rx(region, 1);
        let w = DirWord {
            perm: PermBits::Write,
            ..Default::default()
        };
        for (me, now) in [(1, 100), (1, 100), (0, 7)] {
            assert_eq!(
                d.write_my_word(0, me, w, now),
                mc.write(region, me, 0, w.pack(), now)
            );
        }
    }

    #[test]
    fn sharers_and_exclusive_holder() {
        let d = dir(4, DirectoryMode::LockFree);
        d.write_my_word(
            0,
            1,
            DirWord {
                perm: PermBits::Read,
                ..Default::default()
            },
            0,
        );
        d.write_my_word(
            0,
            3,
            DirWord {
                perm: PermBits::Write,
                exclusive: true,
                excl_proc: 12,
            },
            0,
        );
        assert_eq!(d.sharers(0, 0, usize::MAX), vec![1, 3]);
        assert_eq!(d.sharers(0, 0, 3), vec![1]);
        assert!(d.shared_by_others(0, 0, 1));
        assert!(
            !d.shared_by_others(1, 0, 0),
            "untouched page has no sharers"
        );
        assert_eq!(d.exclusive_holder(0, 0), Some((3, 12)));
        assert_eq!(d.exclusive_holder(1, 0), None);
    }

    #[test]
    fn home_assignment_and_relocation() {
        let d = dir(2, DirectoryMode::LockFree);
        assert_eq!(d.read_home(0, 0), None);
        d.init_home(
            0,
            HomeInfo {
                pnode: 1,
                is_default: true,
            },
        );
        assert_eq!(d.read_home(0, 0).unwrap().pnode, 1);
        assert!(d.read_home(0, 1).unwrap().is_default);
        d.write_home(
            0,
            0,
            HomeInfo {
                pnode: 0,
                is_default: false,
            },
            0,
        );
        for reader in 0..2 {
            let h = d.read_home(0, reader).unwrap();
            assert_eq!(h.pnode, 0);
            assert!(!h.is_default);
        }
    }

    /// Interleaving schedule for the lock-free read fast path: a writer
    /// publishes a sequence of distinct directory words while a reader spins
    /// on `read_word` with `yield_now` between loads. Every observed word
    /// must be one the writer actually published (single-writer words can
    /// never tear or go backwards past the final state), and once the writer
    /// finishes the reader must observe the last write. The scenario body is
    /// shared with `tests/model_directory.rs`, which runs the same
    /// assertions under the interleaving explorer (DESIGN.md §11).
    #[test]
    fn lock_free_reads_never_observe_torn_or_phantom_words() {
        crate::model_scenarios::directory_single_writer_reads(64, usize::MAX, false);
    }

    // --- sparse mode (DESIGN.md §12) ------------------------------------

    /// OS-thread run of the sparse read-vs-home-update scenario (shared
    /// with `tests/model_directory.rs`, which explores it exhaustively):
    /// a remote reader's invalidation-on-change cache may lag the home
    /// shard but never travels backwards, and settles on the final claim.
    #[test]
    fn sparse_reads_lag_but_never_regress() {
        crate::model_scenarios::sparse_directory_read_vs_update(64, usize::MAX, false);
    }

    #[test]
    fn excl_word_round_trips() {
        assert_eq!(excl_unpack(0), None);
        assert_eq!(excl_unpack(excl_pack(0, 0)), Some((0, 0)));
        assert_eq!(excl_unpack(excl_pack(513, 31)), Some((513, 31)));
        assert_eq!(
            excl_unpack(excl_pack(MAX_PNODES, u16::MAX)),
            Some((MAX_PNODES, u16::MAX))
        );
    }

    /// Every public read observes the same state through the sparse layout
    /// as through the replicated one, across a write/claim/clear script
    /// touching several pages (so multiple shards and shard slots).
    #[test]
    fn sparse_reads_match_replicated_reads() {
        let modes = [DirectoryMode::LockFree, DirectoryMode::Sparse];
        let [lf, sp] = modes.map(|m| dir(4, m));
        let script: &[(usize, usize, DirWord)] = &[
            (
                0,
                1,
                DirWord {
                    perm: PermBits::Read,
                    ..Default::default()
                },
            ),
            (
                0,
                3,
                DirWord {
                    perm: PermBits::Write,
                    exclusive: true,
                    excl_proc: 12,
                },
            ),
            (
                1,
                2,
                DirWord {
                    perm: PermBits::Write,
                    ..Default::default()
                },
            ),
            (
                3,
                0,
                DirWord {
                    perm: PermBits::Read,
                    ..Default::default()
                },
            ),
            // Holder drops the claim and its mapping.
            (0, 3, DirWord::default()),
        ];
        for (i, &(page, me, w)) in script.iter().enumerate() {
            lf.write_my_word(page, me, w, i as Nanos);
            sp.write_my_word(page, me, w, i as Nanos);
        }
        lf.write_home(
            1,
            2,
            HomeInfo {
                pnode: 2,
                is_default: false,
            },
            0,
        );
        sp.write_home(
            1,
            2,
            HomeInfo {
                pnode: 2,
                is_default: false,
            },
            0,
        );
        for page in 0..4 {
            for reader in 0..4 {
                for pnode in 0..4 {
                    assert_eq!(
                        sp.read_word(page, pnode, reader),
                        lf.read_word(page, pnode, reader),
                        "page {page} pnode {pnode} reader {reader}"
                    );
                }
                assert_eq!(
                    sp.sharers(page, reader, usize::MAX),
                    lf.sharers(page, reader, usize::MAX)
                );
                for exclude in 0..4 {
                    assert_eq!(
                        sp.sharers(page, reader, exclude),
                        lf.sharers(page, reader, exclude)
                    );
                    assert_eq!(
                        sp.shared_by_others(page, reader, exclude),
                        lf.shared_by_others(page, reader, exclude),
                        "page {page} reader {reader} exclude {exclude}"
                    );
                }
                assert_eq!(
                    sp.exclusive_holder(page, reader),
                    lf.exclusive_holder(page, reader)
                );
                assert_eq!(sp.read_home(page, reader), lf.read_home(page, reader));
            }
        }
    }

    #[test]
    fn sparse_common_read_hits_the_cache_after_one_refill() {
        let d = dir(4, DirectoryMode::Sparse);
        d.write_my_word(
            1,
            2,
            DirWord {
                perm: PermBits::Read,
                ..Default::default()
            },
            0,
        );
        // Page 1's shard is node 1; reader node 0 is remote.
        let before = d.usage();
        for _ in 0..8 {
            assert_eq!(d.read_word(1, 2, 0).perm, PermBits::Read);
        }
        let after = d.usage();
        assert_eq!(after.probes - before.probes, 8, "one probe per read");
        assert_eq!(
            after.misses - before.misses,
            1,
            "only the first read pays a refill; the rest hit the cache"
        );
        // A change invalidates: the next read refills exactly once more.
        d.write_my_word(
            1,
            3,
            DirWord {
                perm: PermBits::Write,
                ..Default::default()
            },
            0,
        );
        let w = d.read_word(1, 3, 0);
        assert_eq!(w.perm, PermBits::Write);
        assert_eq!(d.usage().misses - after.misses, 1);
    }

    #[test]
    fn sparse_claim_word_admits_one_claimant() {
        let d = dir(4, DirectoryMode::Sparse);
        let claim = |proc: u16| DirWord {
            perm: PermBits::Write,
            exclusive: true,
            excl_proc: proc,
        };
        d.write_my_word(2, 1, claim(5), 0);
        // A racing claim from node 3 must not displace node 1's.
        d.write_my_word(2, 3, claim(9), 0);
        assert_eq!(
            d.exclusive_holder(2, 0),
            Some((1, 5)),
            "first claim stands; the loser is caught by validation"
        );
        // But node 3's permission bits landed, so the winner's validation
        // (shared_by_others excluding itself) sees the contender.
        assert!(d.shared_by_others(2, 1, 1));
        // Clearing by a non-holder is a no-op; clearing by the holder works.
        d.write_my_word(2, 3, DirWord::default(), 0);
        assert_eq!(d.exclusive_holder(2, 0), Some((1, 5)));
        d.write_my_word(2, 1, DirWord::default(), 0);
        assert_eq!(d.exclusive_holder(2, 0), None);
    }

    #[test]
    fn sparse_memory_and_update_traffic_beat_replication() {
        let pnodes = 16;
        let [lf, sp] = [DirectoryMode::LockFree, DirectoryMode::Sparse].map(|m| {
            let mc = build_transport(TransportConfig::new((0..pnodes).collect(), pnodes));
            Directory::new(mc, pnodes, 64, m)
        });
        // Replicated: every node holds pages × (pnodes + 1) words. Sparse:
        // one copy of pages × entry_words total (+ node-local caches).
        assert_eq!(lf.usage().mc_bytes, 8 * 64 * 17 * 16);
        assert!(
            sp.usage().mc_bytes < lf.usage().mc_bytes / 10,
            "sparse MC footprint at least 10× smaller at 16 nodes: {} vs {}",
            sp.usage().mc_bytes,
            lf.usage().mc_bytes
        );
        // Update traffic: per-replica broadcast vs one O(1) shard message.
        let w = DirWord {
            perm: PermBits::Write,
            ..Default::default()
        };
        for page in 0..8 {
            lf.write_my_word(page, 0, w, 0);
            sp.write_my_word(page, 0, w, 0);
        }
        assert_eq!(lf.usage().update_bytes, 8 * 8 * (16 - 1));
        assert!(sp.usage().update_bytes <= 12 * 8);
    }

    #[test]
    #[should_panic(expected = "protocol nodes")]
    fn directory_rejects_oversized_clusters_in_release_builds() {
        let mc = build_transport(TransportConfig::new(vec![0], 1));
        // 70k pnodes would truncate in the packed words' 16-bit fields.
        Directory::new(mc, 70_000, 1, DirectoryMode::LockFree);
    }

    #[test]
    fn global_lock_mode_serializes_and_costs_more() {
        let lf = dir(2, DirectoryMode::LockFree);
        let gl = dir(2, DirectoryMode::GlobalLock);
        assert!(gl.update_cost() > lf.update_cost());
        let w = DirWord {
            perm: PermBits::Read,
            ..Default::default()
        };
        // Two updates to the same entry at the same instant must serialize
        // through the gate under GlobalLock.
        let a = gl.write_my_word(0, 0, w, 0);
        let b = gl.write_my_word(0, 1, w, 0);
        assert!(b > a, "second global-locked update queues behind the first");
    }
}
