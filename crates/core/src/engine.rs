//! The coherence protocol engine.
//!
//! One [`Engine`] instance embodies the whole simulated cluster's protocol
//! state: the replicated global directory, per-node second-level state
//! (frames, twins, timestamps, per-processor permission bitmaps), the
//! write-notice board, home assignment, and the master page copies. The
//! engine implements *all* of the paper's protocols; [`ProtocolKind`]
//! selects the behavioral differences:
//!
//! * protocol-node granularity (physical node for 2L/2LS, processor for the
//!   one-level protocols),
//! * reconciliation of remote updates with concurrent local writers
//!   (two-way diffing for 2L, shootdown for 2LS — the one-level protocols
//!   have single-processor nodes and never need either),
//! * the store path (twins + outgoing diffs, or 1L's in-line write
//!   doubling),
//! * the home-node optimization (inherent to 2L/2LS; optional for 1LD/1L).
//!
//! The principal operations follow §2.4 of the paper: page faults
//! ([`Engine::read_fault`] / [`Engine::write_fault`]), releases
//! ([`Engine::release_actions`]), acquires ([`Engine::acquire_actions`]),
//! plus exclusive-mode maintenance and the explicit-request paths (page
//! fetch and exclusive-mode break).
//!
//! ### Simulation notes
//!
//! Explicit requests are *serviced by the requesting thread* against the
//! holder's (properly locked) state, charging virtual time as if the remote
//! processor had polled and serviced them — see DESIGN.md §2.4. Per-page
//! protocol state is protected by a per-(node, page) mutex; a thread holds
//! at most one such mutex, except that servicing an exclusive-mode break
//! takes the *holder's* mutex while holding none of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use cashmere_faults::FaultPlan;
use cashmere_memchan::{TransportConfig, TREE_FANOUT};
use cashmere_obs::{LinkMetrics, ProcObs, SpanKind};
use cashmere_sim::{
    CostModel, FetchShape, Messaging, Nanos, NodeMap, ProcClock, ProcId, Resource, TimeCategory,
    Topology,
};
use cashmere_transport::{build_transport, Transport};
use cashmere_vmpage::{
    apply_incoming_diff, diff_against_twin, flush_update_twin, DiffRuns, Frame, PagePool,
    PageTable, Perm, Twin, PAGE_BYTES, PAGE_WORDS,
};

use crate::config::DirectoryMode;
use crate::det::{DetHandle, WaitKey};
use crate::directory::{DirWord, Directory, HomeInfo, PermBits};
use crate::mc_lock::McLock;
use crate::recovery::{retry_until_delivered, RecoveryCounts, RecoverySummary, Request};
use crate::report::{Counters, Tally};
use crate::run::RunSpec;
use crate::trace::{emit, ProtocolEvent, ReleaseAction, TraceRecorder};
use crate::write_notice::{NleList, NoticeBoard, ProcNoticeList};
use crate::Addr;

/// Per-processor protocol context. Owned by the processor's [`crate::Proc`]
/// handle; passed by `&mut` into every engine operation.
pub struct ProcCtx {
    /// Cluster-wide processor id.
    pub id: ProcId,
    /// Protocol node index.
    pub pnode: usize,
    /// Index of this processor within its protocol node.
    pub local: usize,
    /// Physical node index (for link/bus charging).
    pub phys: usize,
    /// Virtual clock.
    pub clock: ProcClock,
    /// This processor's event and recovery counters — like the clock,
    /// single-writer plain data; every counted fact is bumped here, once.
    pub tally: Tally,
    /// Cached page-frame pointers (stable per (pnode, page) once created).
    pub frames: Vec<Option<Arc<Frame>>>,
    /// The private dirty list: pages written since the last release (§2.3).
    pub dirty: Vec<u32>,
    /// Node-logical time of this processor's most recent acquire.
    pub acquire_ts: u64,
    /// Memory-bus bytes charged per shared access.
    pub bus_bytes: u64,
    /// This processor's page table — the same object as its
    /// `LocalProc::pt`, cached here so the access fast path skips the
    /// pnodes→procs pointer chase on every read and write.
    pt: Arc<PageTable>,
    /// Per-shared-access polling charge, precomputed from the engine's
    /// effective polling fraction (zero under interrupt messaging or on an
    /// uninstrumented run), so the fast path avoids an f64 multiply + cast
    /// per access.
    poll_access_ns: Nanos,
    /// Pages this context has ever held in exclusive mode (sticky; see
    /// `Engine::write_word` for the in-write-flag gating it permits).
    excl_held: Vec<bool>,
    /// Accumulated unsettled bus bytes (settled in batches).
    pending_bus: u64,
    /// Accumulated unsettled write-doubling bytes (1L; settled in batches).
    pending_double: u64,
    /// Per-processor observability state ([`RunSpec::obs`]); `None`
    /// when observability is off, so the disabled cost is one discriminant
    /// test per hook and zero allocations.
    pub obs: Option<Box<ProcObs>>,
    /// Deterministic parallel scheduler handle (DESIGN.md §15); `None` in
    /// the free-running engine, so the disabled cost — like `obs` — is one
    /// discriminant test per hook.
    pub(crate) det: Option<DetHandle>,
}

impl ProcCtx {
    fn new(
        id: ProcId,
        pnode: usize,
        local: usize,
        phys: usize,
        pt: Arc<PageTable>,
        excl_held: Vec<bool>,
        engine: &Engine,
    ) -> Self {
        let cfg = &engine.cfg;
        Self {
            id,
            pnode,
            local,
            phys,
            clock: ProcClock::new(),
            tally: Tally::default(),
            frames: vec![None; cfg.heap_pages],
            dirty: Vec::new(),
            acquire_ts: 0,
            bus_bytes: cfg.bus_bytes_per_access,
            pt,
            poll_access_ns: (engine.cost.shared_access as f64 * engine.poll_fraction) as Nanos,
            excl_held,
            pending_bus: 0,
            pending_double: 0,
            obs: cfg
                .obs
                .then(|| Box::new(ProcObs::new(pnode as u32, id.0 as u32, cfg.heap_pages))),
            det: None,
        }
    }

    /// Opens an observability span (no-op when observability is off).
    #[inline]
    pub(crate) fn obs_begin(&mut self, kind: SpanKind, page: i64) {
        if let Some(o) = &mut self.obs {
            o.begin(kind, page, &self.clock);
        }
    }

    /// Closes the innermost observability span, returning its virtual
    /// duration (0 when observability is off).
    #[inline]
    pub(crate) fn obs_end(&mut self, kind: SpanKind) -> Nanos {
        match &mut self.obs {
            Some(o) => o.end(kind, &self.clock),
            None => 0,
        }
    }

    /// Attaches the deterministic-scheduler handle (set by
    /// [`crate::Cluster::run`] before the processor body starts).
    pub(crate) fn set_det(&mut self, handle: DetHandle) {
        self.det = Some(handle);
    }

    /// Lookahead checkpoint (DESIGN.md §15): parks this processor if its
    /// virtual time has reached the scheduler's horizon. Placed at the
    /// entry of every data-access/compute operation; a no-op (one
    /// discriminant test) in the free-running engine.
    #[inline]
    pub(crate) fn det_checkpoint(&self) {
        if let Some(d) = &self.det {
            d.checkpoint(self.clock.now());
        }
    }

    /// Enters an exclusive gate at the current virtual time (DESIGN.md
    /// §15): returns once every peer is parked and this gate is the
    /// earliest pending. A no-op in the free-running engine, like the four
    /// calls below.
    #[inline]
    pub(crate) fn gate_enter(&self) {
        if let Some(d) = &self.det {
            d.gate_enter(self.clock.now());
        }
    }

    /// Leaves the current gate (the clock may have advanced inside it).
    #[inline]
    pub(crate) fn gate_exit(&self) {
        if let Some(d) = &self.det {
            d.gate_exit(self.clock.now());
        }
    }

    /// From inside a gate: blocks on `key` until re-granted after a peer's
    /// [`Self::unblock_all`].
    pub(crate) fn gate_block(&self, key: WaitKey) {
        if let Some(d) = &self.det {
            d.gate_block(self.clock.now(), key);
        }
    }

    /// From inside a gate: re-arms every processor blocked on `key`.
    pub(crate) fn unblock_all(&self, key: WaitKey) {
        if let Some(d) = &self.det {
            d.unblock_all(key);
        }
    }

    /// Marks this processor finished and hands its worker slot on.
    pub(crate) fn det_finish(&self) {
        if let Some(d) = &self.det {
            d.finish();
        }
    }
}

/// Per-(protocol node, page) second-level state (§2.3: second-level
/// directory, twins, timestamps).
#[derive(Default)]
struct NodePage {
    /// The node's local frame, shared by all its processors. `None` until
    /// first mapped. For home pages this is the master copy itself.
    frame: Option<Arc<Frame>>,
    /// The twin (pristine copy), present while a non-home local writer
    /// exists and the page is not exclusive.
    twin: Option<Twin>,
    /// Node-logical time the most recent flush to the home began.
    ts_flush: u64,
    /// Node-logical time of the most recent local update (fetch) completion.
    ts_update: u64,
    /// Node-logical time the most recent write notice was distributed.
    ts_wn: u64,
    /// Local processor holding the page in exclusive mode, if any.
    excl_local: Option<usize>,
    /// Bitmap of local processors with read (or better) mappings.
    readers: u64,
    /// Bitmap of local processors with write mappings.
    writers: u64,
    /// Whether this node acts as the page's home (its frame *is* the
    /// master); set when the mapping is first established.
    is_home: bool,
    /// Sequence number of the most recent page-fetch request this node
    /// issued for this page (fault-recovery: requests are idempotent and
    /// replies are matched against this).
    fetch_seq: u64,
    /// Sequence number of the most recent fetch reply *applied* to this
    /// node's frame. A reply with `seq <= applied_reply_seq` is a replayed
    /// duplicate and is suppressed — applying it against the current twin
    /// would double-apply remote words over newer local state.
    applied_reply_seq: u64,
}

impl NodePage {
    /// The permission this node must advertise in the directory. Beyond the
    /// loosest mapped permission, a node with **no** mapped processors but a
    /// live twin still claims Read: the twin marks unflushed local
    /// modifications (a processor invalidated at its own acquire leaves its
    /// writes in the frame until a later release's residue flush), and the
    /// claim keeps remote nodes from entering exclusive mode — whose break
    /// would fill the master from the holder's whole frame — while those
    /// words have yet to reach the master.
    fn effective_perm(&self) -> PermBits {
        if self.writers != 0 {
            PermBits::Write
        } else if self.readers != 0 || self.twin.is_some() {
            PermBits::Read
        } else {
            PermBits::None
        }
    }

    fn dir_word(&self, excl_proc: u16) -> DirWord {
        DirWord {
            perm: self.effective_perm(),
            exclusive: self.excl_local.is_some(),
            excl_proc,
        }
    }
}

/// Per-processor protocol-shared state (write-notice and NLE lists, page
/// table) — shared because *other* local processors post into the lists and
/// shootdowns downgrade the page table.
struct LocalProc {
    wn: ProcNoticeList,
    nle: NleList,
    pt: Arc<PageTable>,
    /// Cluster-wide id, for directory exclusive-holder words.
    global: ProcId,
    /// True while the processor is between its write-permission check and
    /// the completion of the store. Shootdowns and exclusive-mode breaks
    /// wait for this to clear after downgrading the page table — the
    /// simulation's equivalent of the synchronous interrupt a real TLB
    /// shootdown delivers (an in-flight store finishing after the shooter's
    /// flush would otherwise be lost).
    in_write: AtomicBool,
}

/// Per-protocol-node state.
struct PNode {
    /// The node's logical protocol clock (§2.2: incremented on protocol
    /// events — faults, flushes, acquires, releases).
    clock: AtomicU64,
    /// Logical time the most recent release by any local processor began.
    last_release: AtomicU64,
    /// Serializes bin-drain + distribution on this node (a node-local lock,
    /// as in §2.3's "several intra-node data structures … are protected by
    /// local locks"). Without it, a processor's acquire can complete while
    /// a sibling's concurrent distribution has drained the bins but not yet
    /// inserted into this processor's list — losing an invalidation.
    distribute: Mutex<()>,
    pages: Vec<Mutex<NodePage>>,
    procs: Vec<LocalProc>,
    /// Recycles twin / whole-frame snapshot buffers for this node's faults
    /// and exclusive-mode breaks (DESIGN.md §10). Host-side only: no
    /// virtual-time charge depends on where a twin's memory came from.
    twin_pool: PagePool,
}

/// The protocol engine. One per cluster; shared by all processors.
pub struct Engine {
    cfg: RunSpec,
    /// The run's cost model, chosen once in [`Engine::new`]; the transport
    /// owns a copy.
    cost: CostModel,
    /// The polling-overhead fraction actually charged: `cfg.poll_fraction`
    /// under polling messaging on an instrumented run, zero otherwise.
    poll_fraction: f64,
    topo: Topology,
    map: NodeMap,
    mc: Arc<dyn Transport>,
    dir: Directory,
    notices: NoticeBoard,
    /// Master copies, one per page, location-independent (see DESIGN.md:
    /// page data lives in frames; the Memory Channel region machinery
    /// carries the directory and locks, and transfers are charged through
    /// the link model).
    masters: Vec<OnceLock<Arc<Frame>>>,
    pnodes: Vec<PNode>,
    /// The global home-selection lock (§2.3: the only protocol use of
    /// cluster-wide locks).
    home_lock: McLock,
    /// Per-physical-node memory buses.
    buses: Vec<Resource>,
    /// Whether *any* page has ever entered exclusive mode on this engine.
    /// While false, [`Engine::make_ctx`] can skip the per-page scan that
    /// seeds the sticky `excl_held` bitmap (a fresh cluster takes
    /// `procs × pages` node-page locks otherwise).
    any_exclusive: AtomicBool,
    /// Auditor event stream (`Some` only when [`RunSpec::audit`]).
    rec: Option<Arc<TraceRecorder>>,
    /// The fault plan, when one is installed ([`RunSpec::fault_plan`]).
    /// Shared with the Memory Channel; the engine consults it at the
    /// user-level request interposition points (page fetch, exclusive
    /// break) and recovers from the losses it injects.
    faults: Option<Arc<FaultPlan>>,
    /// Per-link traffic counters, shared with the Memory Channel (`Some`
    /// only when [`RunSpec::obs`]).
    link_metrics: Option<Arc<LinkMetrics>>,
    /// Tallies of the processors that have finished, folded in at join
    /// ([`Engine::absorb`]) so a cluster's second run still reports
    /// cluster totals.
    totals: Mutex<Totals>,
}

/// What finished processors' tallies sum to: cluster-wide counters, and
/// recovery counters per requesting protocol node.
struct Totals {
    counters: Counters,
    recovery: Vec<RecoveryCounts>,
}

impl Engine {
    /// Builds the engine: directory, notice board, per-node state, home
    /// round-robin assignment.
    ///
    /// This is the one place a run's derived settings are decided: the
    /// cost model is the backend's table with the spec's messaging
    /// mechanism, and polling overhead is charged only under polling
    /// messaging on an instrumented run — `uninstrumented` wins over
    /// whatever `poll_fraction` an application asked for.
    pub fn new(cfg: RunSpec) -> Arc<Self> {
        let mut cost = cfg.backend.cost_model();
        cost.messaging = cfg.messaging;
        let poll_fraction = if cfg.messaging == Messaging::Polling && !cfg.uninstrumented {
            cfg.poll_fraction
        } else {
            0.0
        };
        let topo = cfg.topology;
        let map = cfg.protocol.node_map();
        let n_pnodes = map.protocol_nodes(&topo);
        let pages = cfg.heap_pages;
        // A real (release-mode) bound: the directory's exclusive-holder
        // fields carry cluster-wide processor ids in 16 bits, and a
        // silently truncated id at very large shapes would corrupt the
        // exclusive-mode protocol.
        assert!(
            topo.total_procs() <= u16::MAX as usize,
            "cluster exceeds the directory's 16-bit processor-id fields"
        );
        let link_of: Vec<usize> = (0..n_pnodes)
            .map(|pn| map.physical_of(&topo, cashmere_sim::NodeId(pn)).0)
            .collect();
        let link_metrics = cfg.obs.then(|| Arc::new(LinkMetrics::new(topo.nodes())));
        // The `cost.clone()` below is the one construction-time deep clone:
        // the transport *owns* its `CostModel`. `fault_plan` and
        // `link_metrics` are `Option<Arc<_>>`, so their `.clone()`s are
        // reference-count bumps sharing one plan / one counter set —
        // exactly what the fault and observability designs need.
        let mc = build_transport(
            TransportConfig::new(link_of, topo.nodes())
                .with_backend(cfg.backend)
                .with_cost(cost.clone())
                .with_fault_plan(cfg.fault_plan.clone())
                .with_metrics(link_metrics.clone()),
        );
        let rec = cfg.audit.then(|| Arc::new(TraceRecorder::new()));
        let mut dir = Directory::new(Arc::clone(&mc), n_pnodes, pages, cfg.directory);
        let gate_hold = cost.dir_update_locked.saturating_sub(cost.dir_update);
        let mut notices = NoticeBoard::new(n_pnodes, cfg.directory, gate_hold);
        let mut home_lock = McLock::new(Arc::clone(&mc), n_pnodes);
        if let Some(r) = &rec {
            dir = dir.with_recorder(Arc::clone(r));
            notices = notices.with_recorder(Arc::clone(r));
            home_lock = home_lock.with_recorder(Arc::clone(r));
        }

        // Initial round-robin home assignment at superpage granularity,
        // flagged as default so first touch may relocate (§2.3).
        let spp = cfg.pages_per_superpage.max(1);
        for page in 0..pages {
            let sp = page / spp;
            dir.init_home(
                page,
                HomeInfo {
                    pnode: sp % n_pnodes,
                    is_default: true,
                },
            );
        }

        let total_procs = topo.total_procs();
        let pnodes = (0..n_pnodes)
            .map(|pn| {
                let locals = map.procs_of(&topo, cashmere_sim::NodeId(pn));
                // Notice-list stripes: one per local poster. The NLE list
                // is one queue whichever of the cluster's processors posts
                // (exclusive-mode breakers, on the holder's behalf).
                let nlocal = locals.len();
                PNode {
                    clock: AtomicU64::new(1),
                    last_release: AtomicU64::new(0),
                    distribute: Mutex::new(()),
                    pages: (0..pages)
                        .map(|_| Mutex::new(NodePage::default()))
                        .collect(),
                    procs: locals
                        .into_iter()
                        .enumerate()
                        .map(|(li, p)| LocalProc {
                            wn: match &rec {
                                Some(r) => ProcNoticeList::new(pages, nlocal).with_identity(
                                    pn,
                                    li,
                                    Arc::clone(r),
                                ),
                                None => ProcNoticeList::new(pages, nlocal),
                            },
                            nle: NleList::new(total_procs),
                            pt: Arc::new(PageTable::new(pages)),
                            global: p,
                            in_write: AtomicBool::new(false),
                        })
                        .collect(),
                    twin_pool: PagePool::new(),
                }
            })
            .collect();

        Arc::new(Self {
            topo,
            map,
            mc,
            dir,
            notices,
            masters: (0..pages).map(|_| OnceLock::new()).collect(),
            pnodes,
            home_lock,
            buses: (0..topo.nodes()).map(|_| Resource::new()).collect(),
            any_exclusive: AtomicBool::new(false),
            rec,
            faults: cfg.fault_plan.clone(),
            link_metrics,
            cfg,
            cost,
            poll_fraction,
            totals: Mutex::new(Totals {
                counters: Counters::default(),
                recovery: vec![RecoveryCounts::default(); n_pnodes],
            }),
        })
    }

    /// The shared per-link traffic counters, when [`RunSpec::obs`] is
    /// set.
    pub fn link_metrics(&self) -> Option<&Arc<LinkMetrics>> {
        self.link_metrics.as_ref()
    }

    /// The auditor's event recorder, when [`RunSpec::audit`] is set.
    pub fn recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.rec.as_ref()
    }

    /// The spec this engine runs.
    pub fn config(&self) -> &RunSpec {
        &self.cfg
    }

    /// The run's cost model: the backend's table under the spec's
    /// messaging mechanism.
    pub(crate) fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Folds a finished processor's tally into the cluster totals: its
    /// counters cluster-wide, its recovery counters under its own (the
    /// requesting) protocol node. [`crate::Cluster::run`] calls this once
    /// per processor at join; code that drives contexts by hand reads
    /// `ctx.tally` directly, or absorbs it to use the two readers below.
    pub fn absorb(&self, ctx: &ProcCtx) {
        let mut t = self.totals.lock();
        t.counters.merge(&ctx.tally.counters);
        t.recovery[ctx.pnode].merge(&ctx.tally.recovery);
    }

    /// Table 3 counters summed over every absorbed processor.
    pub fn counters(&self) -> Counters {
        self.totals.lock().counters
    }

    /// The cluster's recovery state: per-node counters of every absorbed
    /// processor plus the fault plan's injection counters (for
    /// [`crate::Report`]).
    pub fn recovery_summary(&self) -> RecoverySummary {
        RecoverySummary {
            per_node: self.totals.lock().recovery.clone(),
            faults_injected: self
                .faults
                .as_ref()
                .map(|p| p.stats().snapshot())
                .unwrap_or_default(),
            fault_seed: self.faults.as_ref().map(|p| p.seed()),
        }
    }

    /// Creates the protocol context for processor `p`.
    pub fn make_ctx(&self, p: ProcId) -> ProcCtx {
        let pnode = self.map.pnode_of(&self.topo, p).0;
        let local = self
            .map
            .procs_of(&self.topo, cashmere_sim::NodeId(pnode))
            .iter()
            .position(|&q| q == p)
            .expect("processor not on its protocol node");
        let phys = self.topo.node_of(p).0;
        let pt = Arc::clone(&self.pnodes[pnode].procs[local].pt);
        // Seed the sticky exclusive-held bitmap from current protocol state:
        // page-table state persists across `Cluster::run` calls on the same
        // cluster, so a fresh context for a processor still registered as a
        // page's exclusive holder must start with that page's bit set. On an
        // engine where no page has ever gone exclusive (Acquire pairs with
        // the Release in `try_enter_exclusive`) the scan is skipped.
        let excl_held = if self.any_exclusive.load(Ordering::Acquire) {
            (0..self.cfg.heap_pages)
                .map(|page| self.pnodes[pnode].pages[page].lock().excl_local == Some(local))
                .collect()
        } else {
            vec![false; self.cfg.heap_pages]
        };
        ProcCtx::new(p, pnode, local, phys, pt, excl_held, self)
    }

    fn master(&self, page: usize) -> &Arc<Frame> {
        self.masters[page].get_or_init(|| Arc::new(Frame::new()))
    }

    fn node_now(&self, pnode: usize) -> u64 {
        // relaxed-ok: the only property the protocol needs from
        // the clock is that draws on one node are distinct and allocated
        // monotonically, which `fetch_add` guarantees through the atomic's
        // modification order under *any* memory ordering. No consumer reads
        // a timestamp outside the per-(node, page) mutex that stored it, so
        // the mutex's acquire/release edges order all surrounding state.
        // The auditor's TimestampCollision check verifies the per-node
        // uniqueness invariant on every audited run.
        let ts = self.pnodes[pnode].clock.fetch_add(1, Ordering::Relaxed);
        emit(&self.rec, || ProtocolEvent::ClockTick { pnode, ts });
        ts
    }

    fn pt<'a>(&self, ctx: &'a ProcCtx) -> &'a PageTable {
        // Same object as `self.pnodes[ctx.pnode].procs[ctx.local].pt`,
        // reached without the two-level indexing on every access.
        ctx.pt.as_ref()
    }

    // ------------------------------------------------------------------
    // Data access fast path
    // ------------------------------------------------------------------

    /// Reads the 64-bit word at `addr`, faulting if necessary.
    pub fn read_word(&self, ctx: &mut ProcCtx, addr: Addr) -> u64 {
        ctx.det_checkpoint();
        let page = addr / PAGE_WORDS;
        if self.pt(ctx).read_faults(page) {
            ctx.tally.counters.read_faults += 1;
            self.fault_common(ctx, page, addr % PAGE_WORDS, /* write: */ false);
        } else if ctx.frames[page].is_none() {
            self.refresh_frame_cache(ctx, page);
        }
        self.charge_access(ctx);
        // The fault path always installs the frame pointer.
        ctx.frames[page]
            .as_ref()
            .expect("fault left no frame")
            .load(addr % PAGE_WORDS)
    }

    /// Repopulates a context's cached frame pointer for a page it already
    /// has permissions on — needed when a fresh [`ProcCtx`] is created for
    /// a processor whose page-table state persists (e.g. a second
    /// [`crate::Cluster::run`] on the same cluster).
    fn refresh_frame_cache(&self, ctx: &mut ProcCtx, page: usize) {
        let np = self.pnodes[ctx.pnode].pages[page].lock();
        ctx.frames[page] = Some(Arc::clone(
            np.frame
                .as_ref()
                .expect("permissioned page must have a frame"),
        ));
    }

    /// Writes the 64-bit word at `addr`, faulting if necessary. Under the
    /// write-doubling protocols the store is also sent to the home copy
    /// in-line.
    pub fn write_word(&self, ctx: &mut ProcCtx, addr: Addr, val: u64) {
        ctx.det_checkpoint();
        let page = addr / PAGE_WORDS;
        if ctx.frames[page].is_none() && !self.pt(ctx).write_faults(page) {
            self.refresh_frame_cache(ctx, page);
        }
        // The in-write flag must cover the permission check and the store
        // together (SeqCst pairs with the downgrading shooter's check), but
        // must be clear while the fault handler runs — the shooter spins on
        // it while holding the node-page lock the handler needs.
        //
        // Only two downgraders ever race with a write in flight: a 2LS
        // shootdown (which consults every local writer's flag) and an
        // exclusive-mode break (which consults only the registered holder's
        // flag). So unless this protocol shoots down, or this context has
        // ever held the page exclusively, no other thread can revoke our
        // write permission mid-store — the flag and the re-check loop are
        // provably unnecessary and the fast path skips both SeqCst stores.
        let shootdown = self.cfg.protocol.uses_shootdown();
        let mut guarded;
        loop {
            // Recomputed per iteration: a fault below can enter exclusive
            // mode, flipping this context's `excl_held` bit mid-loop.
            guarded = shootdown || ctx.excl_held[page];
            if guarded {
                let in_write = &self.pnodes[ctx.pnode].procs[ctx.local].in_write;
                in_write.store(true, Ordering::SeqCst);
                if !self.pt(ctx).write_faults(page) {
                    break;
                }
                in_write.store(false, Ordering::SeqCst);
            } else if !self.pt(ctx).write_faults(page) {
                break;
            }
            ctx.tally.counters.write_faults += 1;
            self.fault_common(ctx, page, addr % PAGE_WORDS, /* write: */ true);
        }
        let off = addr % PAGE_WORDS;
        // Store before the access charge (the store itself is charge-free,
        // so virtual time is unchanged): the in-write flag then clears
        // before `charge_access`, whose bus settle is a lookahead barrier
        // under the deterministic scheduler — a processor must never park
        // with the flag raised (a gated shooter would spin on it forever).
        ctx.frames[page]
            .as_ref()
            .expect("fault left no frame")
            .store(off, val);
        if guarded {
            self.pnodes[ctx.pnode].procs[ctx.local]
                .in_write
                .store(false, Ordering::Release);
        }
        self.charge_access(ctx);
        if self.cfg.protocol.write_through() {
            let master = self.master(page);
            // Home procs write the master directly (frame == master); only
            // remote copies need the doubled write.
            if !Arc::ptr_eq(ctx.frames[page].as_ref().unwrap(), master) {
                master.store(off, val);
                ctx.clock.charge(
                    TimeCategory::WriteDoubling,
                    self.cost.write_double_per_store,
                );
                ctx.pending_double += 8;
                ctx.tally.counters.data_bytes += 8;
                if ctx.pending_double >= 512 {
                    self.settle_double(ctx);
                }
            }
        }
    }

    fn charge_access(&self, ctx: &mut ProcCtx) {
        let c = &self.cost;
        ctx.clock.charge(TimeCategory::User, c.shared_access);
        if ctx.poll_access_ns > 0 {
            // Precomputed in `ProcCtx::new` — identical to
            // `(shared_access as f64 * poll_fraction) as Nanos` but without
            // the per-access float multiply.
            ctx.clock.charge(TimeCategory::Polling, ctx.poll_access_ns);
        }
        // Cache-capacity traffic through the node's shared bus, settled in
        // batches to keep contention on the Resource realistic but cheap.
        ctx.pending_bus += ctx.bus_bytes;
        if ctx.pending_bus >= 4096 {
            self.settle_bus(ctx);
        }
    }

    /// Settles the accumulated bus batch against the node's shared bus.
    /// The bus `Resource` is shared mutable state whose grant times depend
    /// on acquisition order, so under the deterministic scheduler the
    /// settle is a lookahead barrier (DESIGN.md §15).
    fn settle_bus(&self, ctx: &mut ProcCtx) {
        ctx.gate_enter();
        let busy = ctx.pending_bus * self.cost.node_bus_ns_per_byte;
        ctx.pending_bus = 0;
        let done = self.buses[ctx.phys].acquire(ctx.clock.now(), busy);
        ctx.clock.wait_until(done);
        ctx.gate_exit();
    }

    /// Settles the accumulated write-doubling bytes through the node's MC
    /// link in bulk (the hardware's write buffer coalesces them; the writes
    /// are posted, so the writer does not block). Like [`Self::settle_bus`],
    /// a lookahead barrier: link occupancy is order-sensitive shared state.
    fn settle_double(&self, ctx: &mut ProcCtx) {
        ctx.gate_enter();
        let _ = self
            .mc
            .charge_link(ctx.pnode, ctx.pending_double, ctx.clock.now());
        ctx.pending_double = 0;
        ctx.gate_exit();
    }

    /// Charges `n` shared accesses in bulk, *bit-identically* to `n` calls
    /// of [`Self::charge_access`]. The per-access charges are constants, so
    /// `k` of them sum to `k × constant` regardless of grouping; the only
    /// ordering-sensitive step is the bus settle, which the scalar path
    /// performs after exactly the access that pushes `pending_bus` to the
    /// 4096-byte threshold. The loop below replays each settle at the same
    /// access index (the same clock value, since the intervening charges
    /// are pure additions), so bus `Resource` acquisitions happen at
    /// identical virtual times.
    fn charge_accesses(&self, ctx: &mut ProcCtx, mut n: u64) {
        if n == 0 {
            return;
        }
        let c = &self.cost;
        if ctx.bus_bytes == 0 {
            ctx.clock.charge(TimeCategory::User, c.shared_access * n);
            if ctx.poll_access_ns > 0 {
                ctx.clock
                    .charge(TimeCategory::Polling, ctx.poll_access_ns * n);
            }
            return;
        }
        while n > 0 {
            // Accesses until the batch crosses the settle threshold
            // (`charge_access` keeps `pending_bus < 4096` between calls).
            let to_settle = 4096u64
                .saturating_sub(ctx.pending_bus)
                .div_ceil(ctx.bus_bytes)
                .max(1);
            let k = to_settle.min(n);
            ctx.clock.charge(TimeCategory::User, c.shared_access * k);
            if ctx.poll_access_ns > 0 {
                ctx.clock
                    .charge(TimeCategory::Polling, ctx.poll_access_ns * k);
            }
            ctx.pending_bus += ctx.bus_bytes * k;
            if ctx.pending_bus >= 4096 {
                self.settle_bus(ctx);
            }
            n -= k;
        }
    }

    /// Reads a run of consecutive words starting at `addr`, faulting
    /// page-by-page exactly as a word-at-a-time loop would. Virtual time is
    /// charged through [`Self::charge_accesses`] (bit-identical to the
    /// scalar loop); values match the scalar loop because read permission,
    /// once present, is only ever revoked by this processor's *own*
    /// acquire — which cannot run mid-call.
    pub fn read_run(&self, ctx: &mut ProcCtx, addr: Addr, out: &mut [u64]) {
        ctx.det_checkpoint();
        let total = out.len();
        let mut done = 0;
        while done < total {
            let page = (addr + done) / PAGE_WORDS;
            let off = (addr + done) % PAGE_WORDS;
            let n = (total - done).min(PAGE_WORDS - off);
            if self.pt(ctx).read_faults(page) {
                ctx.tally.counters.read_faults += 1;
                self.fault_common(ctx, page, off, /* write: */ false);
            } else if ctx.frames[page].is_none() {
                self.refresh_frame_cache(ctx, page);
            }
            self.charge_accesses(ctx, n as u64);
            ctx.frames[page]
                .as_ref()
                .expect("fault left no frame")
                .load_run(off, &mut out[done..done + n]);
            done += n;
        }
    }

    /// Writes a run of consecutive words starting at `addr`, faulting
    /// page-by-page. Under a guarded page (shootdown protocols or a page
    /// this context has held exclusively) the in-write flag is raised over
    /// the whole page sub-run: the mutual-exclusion argument of
    /// [`Self::write_word`] is unchanged (no lock is held while storing; a
    /// concurrent shooter merely waits for the full sub-run, and its flush
    /// then captures every word of it). Under the write-doubling protocols
    /// the per-page charges go through [`Self::charge_doubled_stores`],
    /// which replays the scalar loop's charge/settle sequence exactly.
    pub fn write_run(&self, ctx: &mut ProcCtx, addr: Addr, vals: &[u64]) {
        ctx.det_checkpoint();
        let write_through = self.cfg.protocol.write_through();
        let total = vals.len();
        let mut done = 0;
        while done < total {
            let page = (addr + done) / PAGE_WORDS;
            let off = (addr + done) % PAGE_WORDS;
            let n = (total - done).min(PAGE_WORDS - off);
            if ctx.frames[page].is_none() && !self.pt(ctx).write_faults(page) {
                self.refresh_frame_cache(ctx, page);
            }
            let shootdown = self.cfg.protocol.uses_shootdown();
            let mut guarded;
            loop {
                // Recomputed per iteration — see `write_word`.
                guarded = shootdown || ctx.excl_held[page];
                if guarded {
                    let in_write = &self.pnodes[ctx.pnode].procs[ctx.local].in_write;
                    in_write.store(true, Ordering::SeqCst);
                    if !self.pt(ctx).write_faults(page) {
                        break;
                    }
                    in_write.store(false, Ordering::SeqCst);
                } else if !self.pt(ctx).write_faults(page) {
                    break;
                }
                ctx.tally.counters.write_faults += 1;
                self.fault_common(ctx, page, off, /* write: */ true);
            }
            let frame = ctx.frames[page].as_ref().expect("fault left no frame");
            frame.store_run(off, &vals[done..done + n]);
            let doubled = write_through && {
                let master = self.master(page);
                if Arc::ptr_eq(frame, master) {
                    false
                } else {
                    master.store_run(off, &vals[done..done + n]);
                    true
                }
            };
            // Clear the in-write flag before the charges: their settles are
            // lookahead barriers under the deterministic scheduler, and a
            // processor must never park with the flag raised (see
            // `write_word`). The charges are pure clock additions plus
            // settles that never read the flag, so virtual time is
            // unchanged by the move.
            if guarded {
                self.pnodes[ctx.pnode].procs[ctx.local]
                    .in_write
                    .store(false, Ordering::Release);
            }
            if doubled {
                self.charge_doubled_stores(ctx, n as u64);
            } else {
                self.charge_accesses(ctx, n as u64);
            }
            done += n;
        }
    }

    /// Charges `n` write-doubled stores in bulk, bit-identically to `n`
    /// iterations of [`Self::write_word`]'s write-through tail (access
    /// charge + doubling charge + the 4096-byte bus and 512-byte link
    /// settles). Both settle counters advance by a constant per store, so
    /// each settle fires after the same store index — at the same clock
    /// value — as in the scalar loop; within a batch the charges are pure
    /// additions and commute. The one ordering quirk preserved below: the
    /// store that trips the bus settle charges its own doubling cost
    /// *after* the bus wait, exactly as the scalar sequence does.
    fn charge_doubled_stores(&self, ctx: &mut ProcCtx, mut n: u64) {
        let c = &self.cost;
        let wd = c.write_double_per_store;
        ctx.tally.counters.data_bytes += 8 * n;
        while n > 0 {
            let k_bus = if ctx.bus_bytes == 0 {
                u64::MAX
            } else {
                4096u64
                    .saturating_sub(ctx.pending_bus)
                    .div_ceil(ctx.bus_bytes)
                    .max(1)
            };
            // `pending_double` stays a multiple of 8 below 512.
            let k_dbl = (512u64.saturating_sub(ctx.pending_double))
                .div_ceil(8)
                .max(1);
            let k = k_bus.min(k_dbl).min(n);
            ctx.clock.charge(TimeCategory::User, c.shared_access * k);
            if ctx.poll_access_ns > 0 {
                ctx.clock
                    .charge(TimeCategory::Polling, ctx.poll_access_ns * k);
            }
            ctx.pending_bus += ctx.bus_bytes * k;
            if ctx.pending_bus >= 4096 {
                if k > 1 {
                    ctx.clock.charge(TimeCategory::WriteDoubling, wd * (k - 1));
                }
                self.settle_bus(ctx);
                ctx.clock.charge(TimeCategory::WriteDoubling, wd);
            } else {
                ctx.clock.charge(TimeCategory::WriteDoubling, wd * k);
            }
            ctx.pending_double += 8 * k;
            if ctx.pending_double >= 512 {
                self.settle_double(ctx);
            }
            n -= k;
        }
    }

    /// Charges `ns` of application compute time (plus polling overhead).
    pub fn compute(&self, ctx: &mut ProcCtx, ns: Nanos) {
        ctx.det_checkpoint();
        ctx.clock.charge(TimeCategory::User, ns);
        if self.poll_fraction > 0.0 {
            ctx.clock.charge(
                TimeCategory::Polling,
                (ns as f64 * self.poll_fraction) as Nanos,
            );
        }
    }

    // ------------------------------------------------------------------
    // Home assignment (§2.3 "Home node selection", "Superpages")
    // ------------------------------------------------------------------

    /// Resolves the page's home, running the first-touch relocation
    /// heuristic on the first fault of a still-default superpage.
    fn resolve_home(&self, ctx: &mut ProcCtx, page: usize) -> usize {
        let home = self
            .dir
            .read_home(page, ctx.pnode)
            .expect("home initialized at startup");
        if !home.is_default {
            return home.pnode;
        }
        // First touch: relocate the whole superpage to us, once, under the
        // global home-selection lock (the only protocol use of global
        // locks; "because we only relocate once, the use of locks does not
        // impact performance").
        ctx.obs_begin(SpanKind::McLock, page as i64);
        let vt = self
            .home_lock
            .acquire(ctx.pnode, ctx.clock.now(), self.lock_cost());
        ctx.clock.wait_until(vt);
        ctx.clock
            .charge(TimeCategory::Protocol, self.cost.dir_update_locked);
        let home = self
            .dir
            .read_home(page, ctx.pnode)
            .expect("home initialized");
        let chosen = if home.is_default {
            let spp = self.cfg.pages_per_superpage.max(1);
            let sp_base = page / spp * spp;
            for p in sp_base..(sp_base + spp).min(self.cfg.heap_pages) {
                self.dir.write_home(
                    p,
                    ctx.pnode,
                    HomeInfo {
                        pnode: ctx.pnode,
                        is_default: false,
                    },
                    ctx.clock.now(),
                );
                ctx.tally.counters.directory_updates += 1;
            }
            ctx.tally.counters.home_relocations += 1;
            ctx.pnode
        } else {
            home.pnode
        };
        let vt = self.home_lock.release(ctx.pnode, ctx.clock.now());
        ctx.clock.wait_until(vt);
        if let Some(o) = &mut ctx.obs {
            o.end(SpanKind::McLock, &ctx.clock);
            o.metrics.mc_lock_acquires += 1;
        }
        chosen
    }

    /// Virtual cost of one application-lock hand-off (or flag wait) under
    /// the protocol in force.
    #[inline]
    pub(crate) fn lock_cost(&self) -> Nanos {
        if self.cfg.protocol.is_two_level() {
            self.cost.lock_two_level
        } else {
            self.cost.lock_one_level
        }
    }

    /// Whether `ctx`'s node acts as home for a page homed at `home_pnode`:
    /// either it *is* the home protocol node, or the home-node optimization
    /// extends master access to every processor on the home physical node.
    fn acts_as_home(&self, ctx: &ProcCtx, home_pnode: usize) -> bool {
        if ctx.pnode == home_pnode {
            return true;
        }
        self.cfg.protocol.home_node_opt()
            && !self.cfg.protocol.is_two_level()
            && self
                .map
                .physical_of(&self.topo, cashmere_sim::NodeId(home_pnode))
                .0
                == ctx.phys
    }

    // ------------------------------------------------------------------
    // Page faults (§2.4.1)
    // ------------------------------------------------------------------

    /// Fault entry point: under the deterministic scheduler the whole
    /// handler is one exclusive gate (DESIGN.md §15) — it reads and writes
    /// the directory, node-page state, the notice board, node clocks, the
    /// home lock, and the transport, all order-sensitive shared state.
    fn fault_common(&self, ctx: &mut ProcCtx, page: usize, word: usize, write: bool) {
        ctx.gate_enter();
        self.fault_common_inner(ctx, page, word, write);
        ctx.gate_exit();
    }

    fn fault_common_inner(&self, ctx: &mut ProcCtx, page: usize, word: usize, write: bool) {
        ctx.obs_begin(SpanKind::Fault, page as i64);
        if let Some(o) = &mut ctx.obs {
            o.heat(page);
        }
        // Borrow, don't clone: every call below takes `&self`, so the fault
        // path no longer deep-copies the whole cost table per fault.
        let c = &self.cost;
        ctx.clock.charge(TimeCategory::Protocol, c.page_fault);
        let home = self.resolve_home(ctx, page);
        let my_home = self.acts_as_home(ctx, home);

        loop {
            // Cheap pre-check: break a remote exclusive holder before
            // taking our own per-page lock (we hold none of our own locks
            // while touching the holder's — lock-ordering discipline).
            if let Some((holder, hproc)) = self.dir.exclusive_holder(page, ctx.pnode) {
                if holder != ctx.pnode {
                    ctx.obs_begin(SpanKind::Break, page as i64);
                    self.break_exclusive(ctx, page, holder, hproc, home);
                    if let Some(o) = &mut ctx.obs {
                        let dur = o.end(SpanKind::Break, &ctx.clock);
                        o.metrics.break_rtt.record(dur);
                        o.metrics.breaks += 1;
                        if self.cost.messaging == Messaging::Interrupt {
                            o.metrics.interrupts += 1;
                        }
                    }
                    continue;
                }
            }

            let mut np = self.pnodes[ctx.pnode].pages[page].lock();
            let node_now = self.node_now(ctx.pnode);

            // Establish the frame.
            if np.frame.is_none() {
                if my_home {
                    np.frame = Some(Arc::clone(self.master(page)));
                    np.is_home = true;
                } else {
                    np.frame = Some(Arc::new(Frame::new()));
                }
            }

            // Publish our sharing intent in the directory FIRST (§2.4.1:
            // "a processor first modifies the page's second-level directory
            // entry … if no other local processor has the same permissions,
            // the global directory entry is modified as well"). Publishing
            // before the exclusivity re-check closes the race with a
            // concurrent exclusive-mode entry: either the enterer's
            // validation read sees our word, or our re-check below sees its
            // exclusive flag — standard flag-race reasoning.
            let bit = 1u64 << ctx.local;
            let before = np.effective_perm();
            np.readers |= bit;
            if write {
                np.writers |= bit;
            }
            if np.effective_perm() != before {
                self.write_dir(ctx, page, &np);
            }

            // Re-validate exclusivity now that we are visible.
            if let Some((holder, _)) = self.dir.exclusive_holder(page, ctx.pnode) {
                if holder != ctx.pnode {
                    drop(np);
                    continue;
                }
            }

            // Fetch an up-to-date copy if needed (§2.4.1: "if no local copy
            // exists, or if the local copy's update timestamp precedes its
            // write notice timestamp or the processor's acquire timestamp,
            // whichever is earlier").
            let never_fetched = np.ts_update == 0 && !np.is_home;
            // §2.4.1: fetch if the update timestamp precedes the write-
            // notice timestamp or the processor's acquire timestamp,
            // whichever is earlier. A copy newer than the last distributed
            // notice is current (pending notices a mapping processor missed
            // are handled by the self-notice queued below).
            let stale = np.ts_update < np.ts_wn.min(ctx.acquire_ts);
            let mut fetched = false;
            if !np.is_home && (never_fetched || stale) && np.excl_local.is_none() {
                self.fetch_page(ctx, page, home, &mut np, node_now);
                fetched = true;
            }

            // Write faults: exclusive mode or dirty-list + twin (§2.4.1).
            // If a *local* processor already holds the page exclusively we
            // simply join under hardware coherence; the NLE mechanism
            // handles us at break time.
            let mut dirtied = false;
            if write && np.excl_local.is_none() {
                let mut entered = false;
                if !np.is_home && !self.dir.shared_by_others(page, ctx.pnode, ctx.pnode) {
                    entered = self.try_enter_exclusive(ctx, page, &mut np);
                }
                if !entered {
                    ctx.dirty.push(page as u32);
                    dirtied = true;
                    if !np.is_home && np.twin.is_none() && !self.cfg.protocol.write_through() {
                        let frame = np.frame.as_ref().unwrap();
                        np.twin = Some(self.pnodes[ctx.pnode].twin_pool.twin_of(frame));
                        emit(&self.rec, || ProtocolEvent::TwinCreate {
                            pnode: ctx.pnode,
                            page,
                        });
                        ctx.tally.counters.twin_creations += 1;
                        ctx.clock.charge(TimeCategory::Protocol, c.twin_create);
                    }
                }
            }

            // Install permissions (the simulated mprotect) and cache the
            // frame pointer.
            let perm = if write { Perm::Write } else { Perm::Read };
            self.pt(ctx).set(page, perm);
            ctx.clock.charge(TimeCategory::Protocol, c.mprotect);
            ctx.frames[page] = Some(Arc::clone(np.frame.as_ref().unwrap()));

            // If the page has a pending write notice that this fault
            // legitimately did not act on (our acquire predates the
            // notice), queue a self-notice: notices are distributed only
            // to processors with mappings, so a processor that maps the
            // page *after* the distribution would otherwise carry the
            // stale copy straight through its next acquire.
            if !np.is_home && np.ts_update < np.ts_wn {
                self.pnodes[ctx.pnode].procs[ctx.local]
                    .wn
                    .insert(page as u32, ctx.local);
            }
            // Emitted while the node-page lock is still held, so the fault
            // is sequenced before any later protocol action on this page.
            emit(&self.rec, || ProtocolEvent::Fault {
                proc: ctx.id.0,
                pnode: ctx.pnode,
                page,
                word,
                write,
                fetched,
                dirtied,
                is_home: np.is_home,
                excl: np.excl_local.is_some(),
            });
            if let Some(o) = &mut ctx.obs {
                let dur = o.end(SpanKind::Fault, &ctx.clock);
                o.metrics.fault_ns.record(dur);
            }
            return;
        }
    }

    /// Attempts to put the page into exclusive mode (§2.4.1 "Exclusive
    /// Mode"). Publishes the exclusive claim, then re-validates against the
    /// other nodes' words; on a race both claimants back off to the shared
    /// path. Returns whether exclusive mode was entered.
    fn try_enter_exclusive(&self, ctx: &mut ProcCtx, page: usize, np: &mut NodePage) -> bool {
        // A node must not enter exclusive mode on a copy that a pending
        // write notice has already superseded: notices for an exclusive
        // page invalidate the mapping but the exclusivity suppresses the
        // re-fetch, and the eventual break would fill the master from the
        // holder's stale frame. `ts_wn > ts_update` means exactly that a
        // distributed notice postdates our copy.
        if np.ts_wn > np.ts_update {
            return false;
        }
        let me = self.pnodes[ctx.pnode].procs[ctx.local].global.0 as u16;
        np.excl_local = Some(ctx.local);
        let bit = 1u64 << ctx.local;
        np.readers |= bit;
        np.writers |= bit;
        self.write_dir_with(ctx, page, np.dir_word(me));
        // Validation read: if anyone else claims a copy or exclusivity, back
        // off (conservative on races; safe because both racers back off).
        //
        // Passing validation also implies no *future* notice can target our
        // copy unseen: a poster's directory word stays set from before its
        // post until its own later acquire-time invalidation, so a post not
        // yet visible below would have left its word visible instead.
        let mut ok = !self.dir.shared_by_others(page, ctx.pnode, ctx.pnode);
        if ok {
            // Undrained-notice gate: a notice already in our global bins
            // (or mid-distribution) may be for this page, superseding the
            // copy we are about to pin. `try_lock` is mandatory — we hold
            // the node-page mutex, and the distribution loop takes node-
            // page mutexes while holding `distribute`, so blocking here
            // would deadlock; a held `distribute` conservatively refuses.
            ok = match self.pnodes[ctx.pnode].distribute.try_lock() {
                Some(_guard) => self.notices.is_empty(ctx.pnode),
                None => false,
            };
        }
        if !ok {
            np.excl_local = None;
            self.write_dir_with(ctx, page, np.dir_word(0));
            return false;
        }
        emit(&self.rec, || ProtocolEvent::ExclEnter {
            proc: ctx.id.0,
            pnode: ctx.pnode,
            page,
        });
        // Sticky: an exclusive break downgrades this holder's page table
        // from another thread, so from now on this context's writes to the
        // page must always raise the in-write flag (see `write_word`).
        ctx.excl_held[page] = true;
        self.any_exclusive.store(true, Ordering::Release);
        ctx.tally.counters.exclusive_transitions += 1;
        true
    }

    /// Fetches the current master copy into the node's frame, reconciling
    /// with concurrent local writers by incoming diff (2L) or shootdown
    /// (2LS). Called with the node-page lock held.
    fn fetch_page(
        &self,
        ctx: &mut ProcCtx,
        page: usize,
        home: usize,
        np: &mut NodePage,
        node_now: u64,
    ) {
        let c = &self.cost;
        ctx.obs_begin(SpanKind::Fetch, page as i64);
        ctx.tally.counters.page_transfers += 1;
        ctx.tally.counters.data_bytes += PAGE_BYTES as u64;

        // Sequence-number the request (fault recovery): a lost request can
        // simply be re-sent, and the reply is idempotent — the sequence
        // check in `apply_reply` suppresses replayed duplicates.
        np.fetch_seq += 1;
        let seq = np.fetch_seq;

        let home_phys = self
            .map
            .physical_of(&self.topo, cashmere_sim::NodeId(home))
            .0;
        // Direct-read fabrics (RDMA, CXL) pull the page with a one-sided
        // remote read: no request message, no home-side handler, no reply —
        // a protocol-shape change, not just different constants
        // (DESIGN.md §14). Only the Memory Channel's request/reply fetch
        // counts as a remote request in the Table-3 sense.
        let direct = home_phys != ctx.phys && self.mc.fetch_shape() == FetchShape::DirectRead;
        if !direct {
            ctx.tally.counters.remote_requests += 1;
        }
        if home_phys == ctx.phys {
            // Same physical node (one-level protocols without the home
            // optimization): a memory-to-memory copy, no Memory Channel.
            ctx.clock.charge(TimeCategory::CommWait, c.fetch_local);
        } else {
            // What one transmission costs the requester, and the fixed
            // protocol cost on top. Direct read: the descriptor post/poll,
            // nothing else. Request/reply: request delivery at the home
            // (polling or interrupt) plus the home-side handler.
            let (delivery, fixed) = if direct {
                (c.fetch_direct_fixed, 0)
            } else if self.cfg.protocol.is_two_level() {
                (c.request_delivery(), c.fetch_remote_fixed_2l)
            } else {
                (c.request_delivery(), c.fetch_remote_fixed_1l)
            };
            if let Some(plan) = &self.faults {
                let me = ctx.pnode;
                retry_until_delivered(
                    ctx,
                    &self.rec,
                    Request::Fetch,
                    delivery,
                    |now, attempt| plan.fetch_lost(me, home_phys, now, attempt),
                    |attempt| ProtocolEvent::FetchTimeout {
                        pnode: me,
                        page,
                        seq,
                        attempt,
                    },
                );
            }
            ctx.clock.charge(TimeCategory::CommWait, delivery + fixed);
            // The page itself: the home's one-sided reply write serialized
            // through its link (`fetch_data` on the Memory Channel backend
            // prices exactly like `charge_link`), or the requester's
            // one-sided read.
            let done = self.mc.fetch_data(home, PAGE_BYTES as u64, ctx.clock.now());
            ctx.clock.wait_until(done);
        }

        if np.twin.is_some() && self.cfg.protocol.uses_shootdown() {
            // 2LS: shoot down the other local write mappings, flush their
            // outstanding changes, and discard the twin (§2.6).
            self.shootdown_local_writers(ctx, page, home, np, node_now);
        }
        let mut incoming = [0u64; PAGE_WORDS];
        self.master(page).snapshot(&mut incoming);
        // Consumer: the snapshot observed the master, so the fetch is
        // sequenced after every flush it saw.
        emit(&self.rec, || ProtocolEvent::Fetch {
            pnode: ctx.pnode,
            page,
        });
        self.apply_reply(ctx, page, np, seq, &incoming, node_now);

        // A duplicated reply re-delivers the same contents under the same
        // sequence number: the link is charged again (the bytes really
        // crossed the wire twice) but the apply is suppressed by the
        // sequence check — a replayed diff must never double-apply against
        // the twin. Direct-read fabrics have no reply message to duplicate.
        if home_phys != ctx.phys && !direct {
            if let Some(plan) = &self.faults {
                if plan.reply_duplicated(home, ctx.clock.now()) {
                    let _ = self
                        .mc
                        .charge_link(home, PAGE_BYTES as u64, ctx.clock.now());
                    self.apply_reply(ctx, page, np, seq, &incoming, node_now);
                }
            }
        }
        if let Some(o) = &mut ctx.obs {
            let dur = o.end(SpanKind::Fetch, &ctx.clock);
            o.metrics.fetch_rtt.record(dur);
            // A one-sided read never interrupts the home processor.
            if home_phys != ctx.phys && !direct && self.cost.messaging == Messaging::Interrupt {
                o.metrics.interrupts += 1;
            }
        }
    }

    /// Applies a fetch reply to the node's frame, reconciling with the twin
    /// (2L two-way diffing). Replayed duplicates — replies whose sequence
    /// number does not exceed the last applied one — are suppressed: the
    /// twin has moved on since that reply was first consumed, and applying
    /// it again would overwrite newer state. Returns whether the reply was
    /// fresh. Called with the node-page lock held.
    fn apply_reply(
        &self,
        ctx: &mut ProcCtx,
        page: usize,
        np: &mut NodePage,
        seq: u64,
        incoming: &[u64; PAGE_WORDS],
        node_now: u64,
    ) -> bool {
        let c = &self.cost;
        if seq <= np.applied_reply_seq {
            ctx.tally.recovery.duplicates_dropped += 1;
            emit(&self.rec, || ProtocolEvent::FetchReply {
                pnode: ctx.pnode,
                page,
                seq,
                dup: true,
            });
            return false;
        }
        np.applied_reply_seq = seq;
        emit(&self.rec, || ProtocolEvent::FetchReply {
            pnode: ctx.pnode,
            page,
            seq,
            dup: false,
        });
        let frame = Arc::clone(np.frame.as_ref().expect("frame installed before fetch"));
        match np.twin.as_mut() {
            Some(twin) => {
                // 2L's two-way diffing: remote changes are exactly the words
                // where the master differs from the twin; apply them to both
                // the working page and the twin, leaving concurrent local
                // modifications untouched (§2.2).
                if let Some(r) = &self.rec {
                    // A conflict word is one both sides modified: incoming
                    // differs from the twin (a remote write) while the frame
                    // also differs (an unflushed local write the apply below
                    // will overwrite). Zero for data-race-free programs.
                    let conflicts = (0..PAGE_WORDS)
                        .filter(|&i| incoming[i] != twin[i] && frame.load(i) != twin[i])
                        .count() as u32;
                    r.emit(ProtocolEvent::DiffIn {
                        pnode: ctx.pnode,
                        page,
                        conflicts,
                    });
                }
                let applied = apply_incoming_diff(&frame, twin, incoming);
                ctx.tally.counters.incoming_diffs += 1;
                ctx.clock
                    .charge(TimeCategory::Protocol, c.diff_in(applied, PAGE_WORDS));
            }
            None => frame.fill_from(incoming),
        }
        np.ts_update = node_now;
        true
    }

    /// 2LS's shootdown: downgrade every *other* local write mapping, flush
    /// outstanding local changes to the home, and discard the twin. Called
    /// with the node-page lock held.
    fn shootdown_local_writers(
        &self,
        ctx: &mut ProcCtx,
        page: usize,
        home: usize,
        np: &mut NodePage,
        node_now: u64,
    ) {
        let c = &self.cost;
        let per_proc = match self.cost.messaging {
            Messaging::Polling => c.shootdown_polling,
            Messaging::Interrupt => c.shootdown_interrupt,
        };
        let mut shot = 0u64;
        for (i, lp) in self.pnodes[ctx.pnode].procs.iter().enumerate() {
            if i != ctx.local && np.writers >> i & 1 == 1 {
                lp.pt.set(page, Perm::Read);
                // Wait out any store that already passed its permission
                // check — the synchronous half of a real TLB shootdown.
                // Yield rather than spin: the writer may not be scheduled
                // (the simulator oversubscribes cores), and a burned
                // quantum here stalls the whole node-page lock.
                while lp.in_write.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                np.writers &= !(1u64 << i);
                shot += 1;
            }
        }
        if shot > 0 {
            ctx.tally.counters.shootdowns += shot;
            ctx.clock.charge(TimeCategory::Protocol, per_proc * shot);
        }
        // Flush the outstanding local modifications so they aren't lost
        // when the fresh copy overwrites the frame.
        if let Some(twin) = np.twin.take() {
            let frame = np.frame.as_ref().unwrap();
            let diff = diff_against_twin(frame, &twin);
            if !diff.is_empty() {
                self.flush_diff_to_master(ctx, page, home, &diff);
                np.ts_flush = node_now;
            }
            self.pnodes[ctx.pnode].twin_pool.release(twin);
        }
    }

    /// Applies an outgoing diff to the master copy, charging diff cost,
    /// link occupancy, and byte counts. Every cost below is a function of
    /// the dirty-word count (`diff.words()`), so the run-length
    /// representation cannot perturb virtual time.
    fn flush_diff_to_master(&self, ctx: &mut ProcCtx, page: usize, home: usize, diff: &DiffRuns) {
        let c = &self.cost;
        // Producer: emit before the master stores so any fetch that sees
        // these words is sequenced after this flush.
        emit(&self.rec, || ProtocolEvent::DiffOut {
            pnode: ctx.pnode,
            page,
            words: diff.iter_words().map(|(i, _)| i).collect(),
        });
        let master = self.master(page);
        for (start, vals) in diff.runs() {
            master.store_run(start as usize, vals);
        }
        let home_phys = self
            .map
            .physical_of(&self.topo, cashmere_sim::NodeId(home))
            .0;
        let cost = if home_phys == ctx.phys {
            c.diff_out_local(diff.words(), PAGE_WORDS)
        } else {
            // Posted writes: reserve the link for bandwidth accounting but
            // do not block the flusher on delivery.
            let _ = self
                .mc
                .charge_link(ctx.pnode, diff.words() as u64 * 12, ctx.clock.now());
            c.diff_out_remote(diff.words(), PAGE_WORDS)
        };
        ctx.clock.charge(TimeCategory::Protocol, cost);
        ctx.tally.counters.data_bytes += diff.words() as u64 * 12;
        if let Some(o) = &mut ctx.obs {
            o.metrics.diffs_sent += 1;
        }
    }

    // ------------------------------------------------------------------
    // Exclusive-mode break (§2.4.1 "Exclusive Mode")
    // ------------------------------------------------------------------

    /// Breaks `page` out of exclusive mode on `holder`. In the simulation
    /// the requesting thread performs the holder-side work against the
    /// holder's locked state, charging virtual time as if the holder had
    /// polled and serviced the request (DESIGN.md §2.4).
    fn break_exclusive(
        &self,
        ctx: &mut ProcCtx,
        page: usize,
        holder: usize,
        holder_proc: u16,
        home: usize,
    ) {
        // Borrow, don't clone (see `fault_common`).
        let c = &self.cost;
        ctx.tally.counters.remote_requests += 1;

        // Fault recovery: a lost break interrupt times out in virtual time
        // and is re-sent until it is delivered or found moot.
        let timed_out = self.faults.as_ref().is_some_and(|plan| {
            let me = ctx.pnode;
            let holder_phys = self
                .map
                .physical_of(&self.topo, cashmere_sim::NodeId(holder))
                .0;
            retry_until_delivered(
                ctx,
                &self.rec,
                Request::Break,
                c.request_delivery(),
                |now, attempt| plan.break_lost(me, holder_phys, now, attempt),
                |attempt| ProtocolEvent::BreakTimeout {
                    pnode: holder,
                    page,
                    by: me,
                    attempt,
                },
            )
        });
        ctx.clock
            .charge(TimeCategory::CommWait, c.request_delivery());

        let hnode = &self.pnodes[holder];
        let mut np = hnode.pages[page].lock();
        let Some(excl_local) = np.excl_local else {
            // Someone else broke it first. If our request had timed out,
            // close the auditor's pending-timeout obligation explicitly:
            // the retried break is abandoned as already satisfied.
            if timed_out {
                emit(&self.rec, || ProtocolEvent::BreakAbandoned {
                    pnode: holder,
                    page,
                    by: ctx.pnode,
                });
            }
            return;
        };
        let node_now = self.node_now(holder);
        // Producer: the break publishes the holder's frame to the master
        // and clears the exclusive claim; emit before either is visible.
        emit(&self.rec, || ProtocolEvent::ExclBreak {
            pnode: holder,
            page,
            by: ctx.pnode,
        });

        // Downgrade the responding processor's permissions FIRST and wait
        // out any in-flight store, so the flush below captures everything
        // the holder wrote (on real hardware the request handler runs on
        // the holder itself, giving this synchrony for free).
        hnode.procs[excl_local].pt.set(page, Perm::Read);
        // Yield, not spin: the holder may be descheduled mid-store (see
        // `shootdown_local_writers`), and it may now be storing a whole
        // page run under the flag.
        while hnode.procs[excl_local].in_write.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }

        // One snapshot serves both the whole-page flush to the home and the
        // twin: any concurrent store by a *remaining* local writer then
        // either made it into both (already flushed) or neither (still
        // differs from the twin, flushed at that writer's next release).
        // The buffer comes from the holder's pool: it either becomes the
        // twin below or goes straight back.
        let mut buf = hnode.twin_pool.acquire();
        np.frame
            .as_ref()
            .expect("exclusive page has a frame")
            .snapshot(&mut buf);

        if !self.cfg.protocol.write_through() {
            self.master(page).fill_from(&buf);
            ctx.tally.counters.data_bytes += PAGE_BYTES as u64;
            let holder_phys = self
                .map
                .physical_of(&self.topo, cashmere_sim::NodeId(holder))
                .0;
            let home_phys = self
                .map
                .physical_of(&self.topo, cashmere_sim::NodeId(home))
                .0;
            if holder_phys != home_phys {
                // Posted write of the whole page; reserves the holder's link
                // but does not block the requester beyond the fetch below.
                let _ = self
                    .mc
                    .charge_link(holder, PAGE_BYTES as u64, ctx.clock.now());
            }
        }
        np.ts_flush = node_now;

        // If other local processors hold write mappings, create a twin and
        // leave no-longer-exclusive notices for them.
        let other_writers = np.writers & !(1u64 << excl_local);
        if other_writers != 0 {
            np.twin = Some(buf);
            emit(&self.rec, || ProtocolEvent::TwinCreate {
                pnode: holder,
                page,
            });
            ctx.tally.counters.twin_creations += 1;
            ctx.clock.charge(TimeCategory::Protocol, c.twin_create);
            for (i, lp) in hnode.procs.iter().enumerate() {
                if other_writers >> i & 1 == 1 {
                    emit(&self.rec, || ProtocolEvent::NlePush {
                        proc: lp.global.0,
                        pnode: holder,
                        page,
                    });
                    // The breaker (`ctx`) is the poster, from any node.
                    lp.nle.push(page as u32, ctx.id.0);
                }
            }
        } else {
            hnode.twin_pool.release(buf);
        }

        // The page leaves exclusive mode.
        np.writers &= !(1u64 << excl_local);
        np.excl_local = None;
        ctx.tally.counters.exclusive_transitions += 1;
        // Update the holder's directory word on its behalf, while its
        // node-page lock is still held (the holder's own directory writes
        // all happen under this lock, so this cannot interleave with them).
        let word = np.dir_word(holder_proc);
        let done = self.dir.write_my_word(page, holder, word, ctx.clock.now());
        ctx.tally.counters.directory_updates += 1;
        ctx.clock
            .charge(TimeCategory::Protocol, self.dir.update_cost());
        ctx.clock.wait_until(done);
        drop(np);
    }

    // ------------------------------------------------------------------
    // Releases (§2.4.3)
    // ------------------------------------------------------------------

    /// Posts write notices for one flushed page to every node in `sharers`
    /// except the home node, then charges the fan-out: in the replicated
    /// modes the batch rides one remote write (a single flat
    /// `mc_write_latency`, byte-identical to the pre-sparse engine); in
    /// sparse mode it is charged as a hierarchical tree broadcast over the
    /// actual recipient set — O(fanout) sender-link occupancy per level,
    /// every hop fault-interposed (DESIGN.md §12). Returns whether any
    /// notice was posted.
    fn post_write_notices(
        &self,
        ctx: &mut ProcCtx,
        page32: u32,
        home: usize,
        mut sharers: Vec<usize>,
    ) {
        sharers.retain(|&s| s != home);
        for &s in &sharers {
            let done = self.notices.post(s, ctx.pnode, page32, ctx.clock.now());
            ctx.clock.wait_until(done);
            ctx.tally.counters.write_notices += 1;
        }
        if sharers.is_empty() {
            return;
        }
        if self.cfg.directory == DirectoryMode::Sparse {
            // 12 bytes per notice hop: the page index rides a diff-format
            // word, as for sparse directory updates.
            let now = ctx.clock.now();
            let done = self
                .mc
                .charge_tree(ctx.pnode, &sharers, TREE_FANOUT, 12, now);
            ctx.clock
                .charge(TimeCategory::Protocol, done.saturating_sub(now));
        } else {
            // The notice batch for this page rides one remote write.
            ctx.clock
                .charge(TimeCategory::Protocol, self.cost.mc_write_latency);
        }
    }

    /// Consistency actions before a release: flush every dirty, non-
    /// exclusive page to its home and send write notices to the sharers.
    /// Under the deterministic scheduler the whole release is one
    /// exclusive gate (DESIGN.md §15).
    pub fn release_actions(&self, ctx: &mut ProcCtx) {
        ctx.gate_enter();
        self.release_actions_inner(ctx);
        ctx.gate_exit();
    }

    fn release_actions_inner(&self, ctx: &mut ProcCtx) {
        ctx.obs_begin(SpanKind::Release, -1);
        let release_begin = self.node_now(ctx.pnode);
        // relaxed-ok: `last_release` is monotonic bookkeeping that no
        // protocol path currently reads (the overlapping-release skip below
        // compares the per-page `ts_flush` against this release's own
        // `release_begin` instead); `fetch_max` on one atomic is coherent
        // under any ordering. Retained as the node's release horizon for
        // diagnostics.
        self.pnodes[ctx.pnode]
            .last_release
            .fetch_max(release_begin, Ordering::Relaxed);
        emit(&self.rec, || ProtocolEvent::ReleaseBegin {
            proc: ctx.id.0,
            pnode: ctx.pnode,
            ts: release_begin,
        });

        let mut pages: Vec<u32> = std::mem::take(&mut ctx.dirty);
        pages.extend(self.pnodes[ctx.pnode].procs[ctx.local].nle.drain());
        pages.sort_unstable();
        pages.dedup();

        for page32 in pages {
            let page = page32 as usize;
            let mut np = self.pnodes[ctx.pnode].pages[page].lock();

            // Exclusive pages incur no coherence overhead at releases.
            if np.excl_local.is_some() {
                emit(&self.rec, || ProtocolEvent::ReleasePage {
                    proc: ctx.id.0,
                    pnode: ctx.pnode,
                    page,
                    action: ReleaseAction::ExclusiveSkip,
                });
                continue;
            }

            // Skip the flush and the notices if an overlapping release
            // already flushed this page ("it skips the flush and the
            // sending of write notices if the [node's last release time]
            // precedes the [flush timestamp]") — but NOT the permission
            // downgrade below: the paper downgrades after processing every
            // dirty page, and keeping the write mapping would let future
            // stores bypass the dirty list entirely.
            let home = self
                .dir
                .read_home(page, ctx.pnode)
                .expect("dirty page has a home")
                .pnode;
            let mut entered_exclusive = false;
            let mut action = ReleaseAction::OverlapSkip;
            if np.ts_flush < release_begin {
                let node_now = self.node_now(ctx.pnode);
                np.ts_flush = node_now;
                action = ReleaseAction::Clean;

                // Flush local modifications to the home.
                if !np.is_home && !self.cfg.protocol.write_through() {
                    if self.cfg.protocol.uses_shootdown() {
                        // 2LS: shoot down concurrent local writers before
                        // flushing, then discard the twin (§2.6).
                        self.shootdown_local_writers(ctx, page, home, &mut np, node_now);
                    }
                    if np.twin.is_some() {
                        let frame = Arc::clone(np.frame.as_ref().unwrap());
                        let twin = np.twin.as_mut().unwrap();
                        let diff = diff_against_twin(&frame, twin);
                        if !diff.is_empty() {
                            flush_update_twin(twin, &diff);
                            ctx.tally.counters.flush_updates += 1;
                            self.flush_diff_to_master(ctx, page, home, &diff);
                            action = ReleaseAction::Flushed;
                        }
                    }
                }
                // (Write-through pages and home pages are already current
                // at the master; only notices remain.)

                // One-level protocols: with no remaining sharers the page
                // moves to exclusive mode at release (§2.6, Cashmere-1LD).
                entered_exclusive = !self.cfg.protocol.is_two_level()
                    && !np.is_home
                    && !self.dir.shared_by_others(page, ctx.pnode, ctx.pnode)
                    && self.try_enter_exclusive_at_release(ctx, page, &mut np);

                if !entered_exclusive {
                    // Send write notices to every other node with a copy,
                    // excluding the home node (its master was just updated
                    // directly).
                    let sharers = self.dir.sharers(page, ctx.pnode, ctx.pnode);
                    self.post_write_notices(ctx, page32, home, sharers);
                }
            }
            if entered_exclusive {
                emit(&self.rec, || ProtocolEvent::ReleasePage {
                    proc: ctx.id.0,
                    pnode: ctx.pnode,
                    page,
                    action: ReleaseAction::EnteredExclusive,
                });
                continue;
            }

            // Downgrade write permission so future modifications are
            // trapped, and retire the twin once no local writer remains.
            if np.writers >> ctx.local & 1 == 1 {
                self.pt(ctx).set(page, Perm::Read);
                np.writers &= !(1u64 << ctx.local);
                ctx.clock.charge(TimeCategory::Protocol, self.cost.mprotect);
                if np.effective_perm() != PermBits::Write {
                    self.write_dir(ctx, page, &np);
                }
            }
            // Retire the twin once no local writer remains — but only if
            // nothing unflushed hides behind it: a processor invalidated at
            // its own acquire clears its writer bit while its modifications
            // still sit in the frame, and if our flush above was skipped by
            // the overlapping-release rule, dropping the twin here would
            // orphan those words. Flush any residue first, *with* the full
            // flush protocol: stamp `ts_flush` and post write notices to
            // the sharers — the residue words are as-yet-unannounced
            // modifications, and sharers that skip a re-fetch because no
            // notice arrived would read stale data.
            if np.writers == 0 {
                let before = np.effective_perm();
                if let Some(twin) = np.twin.take() {
                    let frame = Arc::clone(np.frame.as_ref().unwrap());
                    let diff = diff_against_twin(&frame, &twin);
                    if !diff.is_empty() {
                        self.flush_diff_to_master(ctx, page, home, &diff);
                        ctx.tally.counters.flush_updates += 1;
                        np.ts_flush = self.node_now(ctx.pnode);
                        action = ReleaseAction::Flushed;
                        let sharers = self.dir.sharers(page, ctx.pnode, ctx.pnode);
                        self.post_write_notices(ctx, page32, home, sharers);
                    }
                    self.pnodes[ctx.pnode].twin_pool.release(twin);
                }
                // Retiring the twin may drop the residue-sharer Read claim
                // (see `NodePage::effective_perm`): with no mapped local
                // processor left, publish the now-empty word.
                if np.effective_perm() != before {
                    self.write_dir(ctx, page, &np);
                }
            }
            emit(&self.rec, || ProtocolEvent::ReleasePage {
                proc: ctx.id.0,
                pnode: ctx.pnode,
                page,
                action,
            });
        }
        emit(&self.rec, || ProtocolEvent::ReleaseEnd {
            proc: ctx.id.0,
            pnode: ctx.pnode,
        });
        ctx.obs_end(SpanKind::Release);
    }

    fn try_enter_exclusive_at_release(
        &self,
        ctx: &mut ProcCtx,
        page: usize,
        np: &mut NodePage,
    ) -> bool {
        // Only meaningful when this processor still has the write mapping.
        if np.writers >> ctx.local & 1 != 1 {
            return false;
        }
        let entered = self.try_enter_exclusive(ctx, page, np);
        if entered {
            // Exclusive mode needs no twin; recycle it.
            if let Some(twin) = np.twin.take() {
                self.pnodes[ctx.pnode].twin_pool.release(twin);
            }
        }
        entered
    }

    // ------------------------------------------------------------------
    // Acquires (§2.4.2)
    // ------------------------------------------------------------------

    /// Consistency actions after an acquire: distribute the node's global
    /// write notices, then invalidate the pages in this processor's list
    /// whose updates predate their notices. Under the deterministic
    /// scheduler the whole acquire is one exclusive gate (DESIGN.md §15).
    pub fn acquire_actions(&self, ctx: &mut ProcCtx) {
        ctx.gate_enter();
        self.acquire_actions_inner(ctx);
        ctx.gate_exit();
    }

    fn acquire_actions_inner(&self, ctx: &mut ProcCtx) {
        ctx.obs_begin(SpanKind::Acquire, -1);
        // Distribute the global bins to affected local processors. The
        // drain + distribute is serialized per node so a sibling's acquire
        // cannot slip between our bin drain and our list inserts.
        {
            let _serialize = self.pnodes[ctx.pnode].distribute.lock();
            let incoming = self.notices.drain(ctx.pnode);
            // Both this acquire's timestamp and the write-notice timestamp
            // must be drawn from the same clock read, AFTER the drain: a
            // sibling's concurrent fault may take a later clock value for
            // `ts_update` while fetching a copy that predates the noticed
            // write. Stamping notices (or this acquire) with an earlier
            // time would rank that stale copy as newer than the notice —
            // `min(ts_wn, acquire_ts)` in the fetch check would then
            // suppress the re-fetch and reads after this acquire would see
            // stale data.
            let wn_now = self.node_now(ctx.pnode);
            ctx.acquire_ts = wn_now;
            for (_from, page32) in incoming {
                let page = page32 as usize;
                let mut np = self.pnodes[ctx.pnode].pages[page].lock();
                np.ts_wn = wn_now;
                let mapped = np.readers | np.writers;
                // Producer: emitted under the node-page lock, before the
                // per-processor inserts below.
                emit(&self.rec, || ProtocolEvent::WnDistribute {
                    pnode: ctx.pnode,
                    page,
                    mapped,
                });
                drop(np);
                ctx.clock.charge(TimeCategory::Protocol, 500);
                for (i, lp) in self.pnodes[ctx.pnode].procs.iter().enumerate() {
                    if mapped >> i & 1 == 1 {
                        lp.wn.insert(page32, ctx.local);
                    }
                }
            }
        }

        // Process this processor's own list (which may also hold entries
        // enqueued by other local processors' distributions).
        for page32 in self.pnodes[ctx.pnode].procs[ctx.local].wn.drain() {
            let page = page32 as usize;
            let mut np = self.pnodes[ctx.pnode].pages[page].lock();
            if np.is_home {
                continue;
            }
            if np.ts_update < np.ts_wn {
                // Invalidate our mapping with an mprotect; the twin (if any)
                // survives so unflushed local modifications keep their
                // baseline.
                let bit = 1u64 << ctx.local;
                if (np.readers | np.writers) & bit != 0 {
                    // `effective_perm` (not the raw mapped bits) drives the
                    // directory update: when a twin with unflushed residue
                    // survives this invalidation, the node keeps claiming
                    // Read so no remote node can enter exclusive mode until
                    // a release's residue flush retires the twin.
                    let before = np.effective_perm();
                    self.pt(ctx).set(page, Perm::None);
                    np.readers &= !bit;
                    np.writers &= !bit;
                    ctx.clock.charge(TimeCategory::Protocol, self.cost.mprotect);
                    if np.effective_perm() != before {
                        self.write_dir(ctx, page, &np);
                    }
                }
            }
        }
        ctx.obs_end(SpanKind::Acquire);
    }

    // ------------------------------------------------------------------
    // Directory helpers
    // ------------------------------------------------------------------

    fn write_dir(&self, ctx: &mut ProcCtx, page: usize, np: &NodePage) {
        let excl_proc = np
            .excl_local
            .map(|l| self.pnodes[ctx.pnode].procs[l].global.0 as u16)
            .unwrap_or(0);
        self.write_dir_with(ctx, page, np.dir_word(excl_proc));
    }

    fn write_dir_with(&self, ctx: &mut ProcCtx, page: usize, word: DirWord) {
        // Memory Channel writes are posted: the writer pays the update cost
        // (and the link reservation models bandwidth for *other* traffic)
        // but does not block on delivery.
        let _ = self
            .dir
            .write_my_word(page, ctx.pnode, word, ctx.clock.now());
        ctx.tally.counters.directory_updates += 1;
        ctx.clock
            .charge(TimeCategory::Protocol, self.dir.update_cost());
    }

    // ------------------------------------------------------------------
    // Setup / teardown helpers
    // ------------------------------------------------------------------

    /// Seeds the master copy of `addr` with `val` before the run (models
    /// pre-parallel-phase initialization without touching the protocol, so
    /// the first-touch heuristic still sees the parallel phase's accesses).
    pub fn seed_word(&self, addr: Addr, val: u64) {
        self.master(addr / PAGE_WORDS).store(addr % PAGE_WORDS, val);
    }

    /// Reads back the authoritative value of `addr` after a run: the
    /// exclusive holder's frame if the page is exclusive, the master copy
    /// otherwise. Intended for verification once all processors have
    /// finished (every `run` closure gets a final implicit release).
    pub fn read_back(&self, addr: Addr) -> u64 {
        let page = addr / PAGE_WORDS;
        let off = addr % PAGE_WORDS;
        if let Some((holder, _)) = self.dir.exclusive_holder(page, 0) {
            let np = self.pnodes[holder].pages[page].lock();
            if let Some(frame) = np.frame.as_ref() {
                return frame.load(off);
            }
        }
        self.master(page).load(off)
    }

    /// Bulk [`Self::read_back`]: one directory exclusive-holder lookup (and
    /// at most one node-page lock) per page instead of per word.
    pub fn read_back_run(&self, addr: Addr, out: &mut [u64]) {
        let total = out.len();
        let mut done = 0;
        while done < total {
            let page = (addr + done) / PAGE_WORDS;
            let off = (addr + done) % PAGE_WORDS;
            let n = (total - done).min(PAGE_WORDS - off);
            let dst = &mut out[done..done + n];
            let mut from_holder = false;
            if let Some((holder, _)) = self.dir.exclusive_holder(page, 0) {
                let np = self.pnodes[holder].pages[page].lock();
                if let Some(frame) = np.frame.as_ref() {
                    frame.load_run(off, dst);
                    from_holder = true;
                }
            }
            if !from_holder {
                self.master(page).load_run(off, dst);
            }
            done += n;
        }
    }

    /// Flushes a processor's residual accounting (bus/doubling batches) at
    /// the end of its run. Each settle self-gates under the deterministic
    /// scheduler (see [`Self::settle_bus`] / [`Self::settle_double`]).
    pub fn settle(&self, ctx: &mut ProcCtx) {
        if ctx.pending_bus > 0 {
            self.settle_bus(ctx);
        }
        if ctx.pending_double > 0 {
            self.settle_double(ctx);
        }
    }

    /// The directory (exposed for tests and diagnostics).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Protocol-node count.
    pub fn protocol_nodes(&self) -> usize {
        self.pnodes.len()
    }
}
