//! Run configuration: protocol selection, topology, heap, ablation switches.

use std::sync::Arc;

use cashmere_faults::FaultPlan;
use cashmere_sim::{Backend, CostModel, Nanos, NodeMap, Topology};

/// Which coherence protocol to run (§2.2, §2.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Cashmere-2L: two-level, two-way diffing (the paper's contribution).
    TwoLevel,
    /// Cashmere-2LS: two-level, TLB-shootdown-style reconciliation.
    TwoLevelShootdown,
    /// Cashmere-1LD: one protocol node per processor, twins + outgoing diffs.
    OneLevelDiff,
    /// Cashmere-1L: one protocol node per processor, in-line write doubling.
    OneLevelWrite,
    /// 1LD with the home-node optimization: processors on a page's home
    /// *physical* node operate directly on the master copy.
    OneLevelDiffHome,
    /// 1L with the home-node optimization.
    OneLevelWriteHome,
}

impl ProtocolKind {
    /// All six variants, in the paper's presentation order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::TwoLevel,
        ProtocolKind::TwoLevelShootdown,
        ProtocolKind::OneLevelDiff,
        ProtocolKind::OneLevelWrite,
        ProtocolKind::OneLevelDiffHome,
        ProtocolKind::OneLevelWriteHome,
    ];

    /// The four protocols of Figures 6–7 and Table 3.
    pub const PAPER_FOUR: [ProtocolKind; 4] = [
        ProtocolKind::TwoLevel,
        ProtocolKind::TwoLevelShootdown,
        ProtocolKind::OneLevelDiff,
        ProtocolKind::OneLevelWrite,
    ];

    /// Protocol-node mapping: the two-level protocols treat a physical node
    /// as one protocol node; the one-level protocols treat every processor
    /// as a separate node.
    pub fn node_map(self) -> NodeMap {
        match self {
            ProtocolKind::TwoLevel | ProtocolKind::TwoLevelShootdown => NodeMap::Physical,
            _ => NodeMap::PerProcessor,
        }
    }

    /// Whether this is one of the two-level protocols.
    pub fn is_two_level(self) -> bool {
        matches!(
            self,
            ProtocolKind::TwoLevel | ProtocolKind::TwoLevelShootdown
        )
    }

    /// Whether intra-node reconciliation uses shootdown (2LS) rather than
    /// two-way diffing (2L). Irrelevant for the one-level protocols, whose
    /// protocol nodes have a single processor.
    pub fn uses_shootdown(self) -> bool {
        matches!(self, ProtocolKind::TwoLevelShootdown)
    }

    /// Whether stores are written through to the home copy in-line (the 1L
    /// write-doubling protocols) instead of collected with twins and diffs.
    pub fn write_through(self) -> bool {
        matches!(
            self,
            ProtocolKind::OneLevelWrite | ProtocolKind::OneLevelWriteHome
        )
    }

    /// Whether the one-level home-node optimization is enabled: every
    /// processor on the home *physical* node works directly on the master
    /// copy. (Inherent in the two-level protocols.)
    pub fn home_node_opt(self) -> bool {
        matches!(
            self,
            ProtocolKind::TwoLevel
                | ProtocolKind::TwoLevelShootdown
                | ProtocolKind::OneLevelDiffHome
                | ProtocolKind::OneLevelWriteHome
        )
    }

    /// Short display label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::TwoLevel => "2L",
            ProtocolKind::TwoLevelShootdown => "2LS",
            ProtocolKind::OneLevelDiff => "1LD",
            ProtocolKind::OneLevelWrite => "1L",
            ProtocolKind::OneLevelDiffHome => "1LD+H",
            ProtocolKind::OneLevelWriteHome => "1L+H",
        }
    }

    /// Parses a [`Self::label`] back to the protocol (used by report
    /// deserialization).
    pub fn from_label(s: &str) -> Option<Self> {
        ProtocolKind::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// Named sizing of the application synchronization pools, taken by
/// [`ClusterConfig::with_sync`]. Replaces the old positional
/// `(locks, barriers, flags)` triple, whose call sites were unreadable and
/// transposition-prone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncSpec {
    /// Number of application locks.
    pub locks: usize,
    /// Number of application barriers.
    pub barriers: usize,
    /// Number of application flags.
    pub flags: usize,
}

impl Default for SyncSpec {
    /// The same pools [`ClusterConfig::new`] starts with: 64 locks, 8
    /// barriers, no flags.
    fn default() -> Self {
        Self {
            locks: 64,
            barriers: 8,
            flags: 0,
        }
    }
}

/// How the global directory and remote write-notice lists are protected
/// (§3.3.5). `LockFree` is Cashmere-2L's per-node-word design; `GlobalLock`
/// is the ablation that compresses each entry and serializes access with a
/// cluster-wide lock; `Sparse` is the beyond-the-paper scaling design
/// (DESIGN.md §12) that shards entries across home nodes instead of
/// replicating them everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryMode {
    /// One word per node per entry, replicated on every node; no locks (the
    /// paper's design). O(pages × nodes) memory per node and a per-replica
    /// broadcast per update.
    #[default]
    LockFree,
    /// Compressed entries protected by global locks (the ablation).
    GlobalLock,
    /// Home-sharded entries: each page's directory entry lives only on its
    /// home shard (`page % nodes`), readers consult the shard through a
    /// per-node cache guarded by an invalidation-on-change word, and updates
    /// are O(1) messages instead of an O(nodes) broadcast (DESIGN.md §12).
    /// O(pages) total directory memory. Lock-free like the paper's design.
    Sparse,
}

impl DirectoryMode {
    /// How many physical nodes the replicated (paper) directory comfortably
    /// serves. Beyond this, its O(pages × nodes) memory and O(nodes)
    /// broadcast per update dominate (DESIGN.md §12).
    pub const REPLICATED_NODE_LIMIT: usize = 8;

    /// The default directory for `topology`: the paper's replicated
    /// lock-free directory up to the paper's largest cluster (8 nodes), the
    /// home-sharded [`DirectoryMode::Sparse`] directory beyond it. Keyed on
    /// *physical* nodes — the directory is a per-node structure, and at the
    /// paper's 8×4 the one-level protocols already run 32 protocol nodes on
    /// 8 physical ones — so every paper configuration keeps the paper's
    /// directory under every protocol, and only the scaling-ladder shapes
    /// (16 nodes and up) flip to Sparse.
    pub fn default_for(topology: &Topology) -> Self {
        if topology.nodes() > Self::REPLICATED_NODE_LIMIT {
            DirectoryMode::Sparse
        } else {
            DirectoryMode::LockFree
        }
    }
}

/// Virtual-time timeout/backoff policy for lost protocol requests (page
/// fetches, exclusive-mode break interrupts). Timeouts double per attempt
/// from [`RecoveryPolicy::base_timeout`] up to [`RecoveryPolicy::backoff_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Timeout charged for the first lost attempt, in virtual nanoseconds.
    pub base_timeout: Nanos,
    /// Upper bound on the per-attempt timeout (caps the exponential).
    pub backoff_cap: Nanos,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        // ~60 µs base: comfortably above the round-trip a healthy fetch
        // takes under the default cost model, so a timeout only fires for
        // genuinely lost requests; capped at 16× to keep deep retry chains
        // from dominating virtual time.
        Self {
            base_timeout: 60_000,
            backoff_cap: 960_000,
        }
    }
}

impl RecoveryPolicy {
    /// The timeout charged before retrying after the `attempt`-th loss
    /// (attempts count from 1): `base_timeout << (attempt-1)`, capped.
    #[must_use]
    pub fn timeout(&self, attempt: u32) -> Nanos {
        let shift = attempt.saturating_sub(1).min(63);
        // `checked_mul`, not `checked_shl`: a shift only fails for counts
        // >= 64, silently discarding overflowed bits otherwise.
        self.base_timeout
            .checked_mul(1u64 << shift)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }
}

/// Complete configuration for one simulated run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Physical cluster shape.
    pub topology: Topology,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Directory/write-notice locking discipline.
    pub directory: DirectoryMode,
    /// Size of the shared heap in 8 KB pages.
    pub heap_pages: usize,
    /// Pages per superpage (home-assignment granularity, §2.3
    /// "Superpages"). All pages of a superpage share a home node. The paper
    /// needed multi-page superpages only because of Memory Channel kernel
    /// table limits; at this reproduction's scaled-down problem sizes a
    /// multi-page granularity would misplace a large fraction of each
    /// processor's data (the paper's per-band data is hundreds of pages),
    /// so the default is per-page first-touch homing.
    pub pages_per_superpage: usize,
    /// Whether the first-touch home relocation heuristic runs (§2.3, "Home
    /// node selection"). When off, homes stay round-robin.
    pub first_touch: bool,
    /// Number of application locks.
    pub locks: usize,
    /// Number of application barriers.
    pub barriers: usize,
    /// Number of application flags.
    pub flags: usize,
    /// Interconnect backend the engine builds its transport from
    /// (DESIGN.md §14). The default, [`Backend::MemoryChannel`], is the
    /// paper's network; switching it swaps both the cost model and the
    /// page-fetch protocol shape. Set via [`Self::with_transport`], which
    /// also installs the backend's cost model into [`Self::cost`].
    pub backend: Backend,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Fraction of user/compute time added as polling overhead (the paper's
    /// per-application 0–36% loop-instrumentation cost). Ignored when the
    /// cost model selects interrupt-based messaging.
    pub poll_fraction: f64,
    /// Memory-bus bytes charged per shared access, modeling cache-capacity
    /// traffic through the node's shared bus (what makes SOR and Gauss
    /// cluster badly).
    pub bus_bytes_per_access: u64,
    /// Record a [`crate::trace::ProtocolEvent`] stream for the
    /// `cashmere-check` invariant auditor. Off by default; when off the
    /// protocol hot path pays only an `Option` discriminant test per
    /// potential emission.
    pub audit: bool,
    /// Record observability data (spans, metrics, Figure-7 breakdown; see
    /// `cashmere-obs`). Off by default; when off every hook site pays one
    /// `Option` discriminant test and nothing allocates. Unlike `audit`,
    /// enabling this is also *charge-free*: observability only reads
    /// clocks, so virtual times are byte-identical either way.
    pub obs: bool,
    /// Deterministic fault-injection plan (see `cashmere-faults`). `None`
    /// (the default) and an empty plan are both virtual-time-neutral: the
    /// run is byte-identical to one with no fault machinery at all.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Timeout/backoff policy for recovering lost requests.
    pub recovery: RecoveryPolicy,
    /// Deterministic parallel execution inside the run (DESIGN.md §15):
    /// `Some(w)` runs the simulated processors under the conservative
    /// virtual-time scheduler with at most `w` concurrently running host
    /// threads. `None` (the default) keeps the free-running path. The
    /// [`crate::Report`] of a deterministic run is byte-identical at any
    /// worker count.
    pub det_workers: Option<usize>,
    /// Lookahead window quantum for the deterministic scheduler, in
    /// virtual nanoseconds.
    pub det_quantum_ns: Nanos,
}

/// Default lookahead window quantum: coarse enough that a window spans many
/// operations of every paper app, fine enough to keep processors' virtual
/// times loosely synchronized at protocol boundaries.
pub const DET_QUANTUM_DEFAULT: Nanos = 50_000;

impl ClusterConfig {
    /// A small default configuration: the paper's full 8×4 cluster, the 2L
    /// protocol, and a 64-page heap.
    pub fn new(topology: Topology, protocol: ProtocolKind) -> Self {
        Self {
            directory: DirectoryMode::default_for(&topology),
            topology,
            protocol,
            heap_pages: 64,
            pages_per_superpage: 1,
            first_touch: true,
            locks: 64,
            barriers: 8,
            flags: 0,
            backend: Backend::default(),
            cost: CostModel::default(),
            poll_fraction: 0.05,
            bus_bytes_per_access: 2,
            audit: false,
            obs: false,
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            det_workers: None,
            det_quantum_ns: DET_QUANTUM_DEFAULT,
        }
    }

    /// Builder-style deterministic-parallelism opt-in: run the simulated
    /// processors under the conservative virtual-time scheduler with at
    /// most `workers` concurrently running host threads (DESIGN.md §15).
    pub fn with_det_parallel(mut self, workers: usize) -> Self {
        self.det_workers = Some(workers.max(1));
        self
    }

    /// Builder-style lookahead-quantum override for the deterministic
    /// scheduler.
    pub fn with_det_quantum(mut self, quantum_ns: Nanos) -> Self {
        self.det_quantum_ns = quantum_ns.max(1);
        self
    }

    /// Builder-style interconnect selection: installs `backend` and its
    /// cost model ([`Backend::cost_model`]). Callers that want a custom
    /// cost model on a non-default backend should override [`Self::cost`]
    /// *after* this call. `with_transport(Backend::MemoryChannel)` is a
    /// no-op relative to [`Self::new`].
    pub fn with_transport(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self.cost = backend.cost_model();
        self
    }

    /// Builder-style protocol-event tracing toggle (the invariant auditor).
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Builder-style observability toggle (spans + metrics registry).
    pub fn with_obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// Builder-style fault-plan installation. The plan is shared with the
    /// Memory Channel and the engine's recovery paths.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style heap size override.
    pub fn with_heap_pages(mut self, pages: usize) -> Self {
        self.heap_pages = pages;
        self
    }

    /// Builder-style lock/barrier/flag pool sizing.
    pub fn with_sync(mut self, sync: SyncSpec) -> Self {
        self.locks = sync.locks;
        self.barriers = sync.barriers;
        self.flags = sync.flags;
        self
    }

    /// Number of protocol nodes under this configuration's protocol.
    pub fn protocol_nodes(&self) -> usize {
        self.protocol.node_map().protocol_nodes(&self.topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_default_is_replicated_up_to_the_papers_largest_cluster() {
        // Every paper configuration (Figure 7 tops out at 8×4) keeps the
        // paper's replicated lock-free directory — including under the
        // one-level protocols, whose 32 protocol nodes still live on 8
        // physical nodes.
        for (nodes, per) in [(1, 1), (2, 2), (4, 4), (8, 1), (8, 4)] {
            let t = Topology::new(nodes, per);
            assert_eq!(DirectoryMode::default_for(&t), DirectoryMode::LockFree);
            let cfg = ClusterConfig::new(t, ProtocolKind::OneLevelDiff);
            assert_eq!(cfg.directory, DirectoryMode::LockFree);
        }
        // The scaling-ladder shapes flip to the home-sharded directory.
        for (nodes, per) in [(16, 8), (32, 8), (64, 16)] {
            let t = Topology::new(nodes, per);
            assert_eq!(DirectoryMode::default_for(&t), DirectoryMode::Sparse);
            let cfg = ClusterConfig::new(t, ProtocolKind::TwoLevel);
            assert_eq!(cfg.directory, DirectoryMode::Sparse);
        }
    }

    #[test]
    fn transport_defaults_to_the_papers_network() {
        let cfg = ClusterConfig::new(Topology::new(8, 4), ProtocolKind::TwoLevel);
        assert_eq!(cfg.backend, Backend::MemoryChannel);
        // with_transport(MemoryChannel) must be a no-op relative to new():
        // goldens depend on it.
        let same = cfg.clone().with_transport(Backend::MemoryChannel);
        assert_eq!(same.backend, cfg.backend);
        assert_eq!(same.cost.mc_write_latency, cfg.cost.mc_write_latency);
        // Picking a modern fabric swaps the whole cost model in one move.
        let rdma = cfg.with_transport(Backend::Rdma);
        assert_eq!(rdma.backend, Backend::Rdma);
        assert_eq!(
            rdma.cost.remote_read_latency,
            Backend::Rdma.cost_model().remote_read_latency
        );
    }

    #[test]
    fn protocol_kind_properties() {
        use ProtocolKind::*;
        assert!(TwoLevel.is_two_level() && TwoLevelShootdown.is_two_level());
        assert!(!OneLevelDiff.is_two_level());
        assert!(TwoLevelShootdown.uses_shootdown());
        assert!(!TwoLevel.uses_shootdown());
        assert!(OneLevelWrite.write_through() && OneLevelWriteHome.write_through());
        assert!(!OneLevelDiff.write_through());
        assert!(TwoLevel.home_node_opt(), "inherent in the two-level design");
        assert!(OneLevelDiffHome.home_node_opt());
        assert!(!OneLevelDiff.home_node_opt());
    }

    #[test]
    fn protocol_node_counts() {
        let topo = Topology::new(8, 4);
        let two = ClusterConfig::new(topo, ProtocolKind::TwoLevel);
        assert_eq!(two.protocol_nodes(), 8);
        let one = ClusterConfig::new(topo, ProtocolKind::OneLevelDiff);
        assert_eq!(one.protocol_nodes(), 32);
    }

    #[test]
    fn recovery_timeouts_back_off_exponentially_and_cap() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.timeout(1), 60_000);
        assert_eq!(p.timeout(2), 120_000);
        assert_eq!(p.timeout(3), 240_000);
        assert_eq!(p.timeout(5), 960_000, "hits the cap at 16x");
        assert_eq!(p.timeout(6), 960_000, "stays capped");
        assert_eq!(p.timeout(200), 960_000, "no overflow at silly attempts");
    }

    #[test]
    fn with_faults_installs_a_shared_plan() {
        let plan = Arc::new(FaultPlan::new(7));
        let cfg = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
            .with_faults(Arc::clone(&plan));
        assert_eq!(cfg.fault_plan.as_ref().unwrap().seed(), 7);
        let cfg2 = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
        assert!(cfg2.fault_plan.is_none(), "default is fault-free");
    }

    #[test]
    fn sync_spec_defaults_match_config_defaults() {
        let spec = SyncSpec::default();
        let base = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
        assert_eq!(
            (spec.locks, spec.barriers, spec.flags),
            (base.locks, base.barriers, base.flags),
            "with_sync(SyncSpec::default()) must be a no-op"
        );
        let cfg = base.clone().with_sync(SyncSpec {
            locks: 3,
            barriers: 1,
            flags: 2,
        });
        assert_eq!((cfg.locks, cfg.barriers, cfg.flags), (3, 1, 2));
    }

    #[test]
    fn obs_defaults_off_and_toggles() {
        let cfg = ClusterConfig::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
        assert!(!cfg.obs, "observability must be opt-in");
        assert!(cfg.with_obs(true).obs);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_label(p.label()), Some(p));
        }
        assert_eq!(ProtocolKind::from_label("bogus"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ProtocolKind::ALL.len());
    }
}
