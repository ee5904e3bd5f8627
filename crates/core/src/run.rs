//! [`RunSpec`]: everything that defines one simulated run, as one value.
//!
//! Before this module existed every caller — the examples, the bench
//! harness, the integration tests — hand-assembled a [`ClusterConfig`] and
//! remembered to apply the audit/fault/observability toggles in the right
//! order. [`RunSpec`] centralizes that assembly so the toggles compose the
//! same way everywhere; [`RunSpec::build_cluster`] hands back the
//! [`Cluster`] to allocate on, run, and read back from.

use std::sync::Arc;

use cashmere_faults::FaultPlan;
use cashmere_sim::{Backend, Messaging, Topology};

use crate::config::{ClusterConfig, DirectoryMode, ProtocolKind, SyncSpec};
use crate::proc::Cluster;

/// Everything that defines one simulated run, independent of the
/// application code itself. Construct with [`RunSpec::new`], refine with
/// the builder methods, then build the cluster with
/// [`RunSpec::build_cluster`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Physical cluster shape.
    pub topology: Topology,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Provenance tag the gates echo into their output rows; fault plans
    /// carry their own seed.
    pub seed: u64,
    /// Synchronization pool sizing.
    pub sync: SyncSpec,
    /// Shared-heap override in pages (`None` keeps the config default).
    pub heap_pages: Option<usize>,
    /// Directory/write-notice locking ablation.
    pub directory: DirectoryMode,
    /// Interconnect backend (DESIGN.md §14). Defaults to the paper's
    /// Memory Channel; [`Backend::Rdma`] / [`Backend::Cxl`] swap in a
    /// modern cost model and a direct-read page-fetch shape.
    pub backend: Backend,
    /// Request-delivery mechanism.
    pub messaging: Messaging,
    /// Force the polling-overhead fraction to zero (the paper's
    /// "uninstrumented" sequential runs).
    pub uninstrumented: bool,
    /// Record the protocol event trace for `cashmere_check::audit`.
    pub audit: bool,
    /// Record observability data (`Report::obs`).
    pub obs: bool,
    /// Deterministic fault-injection plan.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Deterministic parallel execution (DESIGN.md §15): run the simulated
    /// processors on this many host workers. `None` keeps the sequential
    /// engine.
    pub det_workers: Option<usize>,
}

impl RunSpec {
    /// A spec with every toggle at its default (no audit, no faults, no
    /// observability, default pools and heap).
    #[must_use]
    pub fn new(topology: Topology, protocol: ProtocolKind) -> Self {
        Self {
            directory: DirectoryMode::default_for(&topology),
            topology,
            protocol,
            seed: 0,
            sync: SyncSpec::default(),
            heap_pages: None,
            backend: Backend::default(),
            messaging: Messaging::default(),
            uninstrumented: false,
            audit: false,
            obs: false,
            fault_plan: None,
            det_workers: None,
        }
    }

    /// Builder-style seed tag.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style sync pool sizing.
    #[must_use]
    pub fn with_sync(mut self, sync: SyncSpec) -> Self {
        self.sync = sync;
        self
    }

    /// Builder-style heap size.
    #[must_use]
    pub fn with_heap_pages(mut self, pages: usize) -> Self {
        self.heap_pages = Some(pages);
        self
    }

    /// Builder-style directory ablation.
    #[must_use]
    pub fn with_directory(mut self, directory: DirectoryMode) -> Self {
        self.directory = directory;
        self
    }

    /// Builder-style interconnect backend. Mirrors
    /// [`ClusterConfig::with_transport`]: a non-default backend replaces
    /// the whole cost model when the config is materialized, so goldens
    /// (always Memory Channel) are untouched by this machinery existing.
    #[must_use]
    pub fn with_transport(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style messaging mechanism.
    #[must_use]
    pub fn with_messaging(mut self, messaging: Messaging) -> Self {
        self.messaging = messaging;
        self
    }

    /// Builder-style uninstrumented toggle.
    #[must_use]
    pub fn uninstrumented(mut self, on: bool) -> Self {
        self.uninstrumented = on;
        self
    }

    /// Builder-style audit toggle.
    #[must_use]
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Builder-style observability toggle.
    #[must_use]
    pub fn with_obs(mut self, on: bool) -> Self {
        self.obs = on;
        self
    }

    /// Builder-style fault plan.
    #[must_use]
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style deterministic parallelism: run the simulated
    /// processors on `workers` host threads (clamped to at least 1). The
    /// [`crate::Report`] is byte-identical at any worker count — see
    /// [`ClusterConfig::with_det_parallel`].
    #[must_use]
    pub fn with_det_parallel(mut self, workers: usize) -> Self {
        self.det_workers = Some(workers.max(1));
        self
    }

    /// Materializes the [`ClusterConfig`], letting `tweak` (typically an
    /// application's `configure`) adjust the base config *before* the
    /// spec's overriding toggles (directory, messaging, instrumentation,
    /// audit/obs/faults) are applied on top.
    #[must_use]
    pub fn to_config_with(&self, tweak: impl FnOnce(&mut ClusterConfig)) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.topology, self.protocol).with_sync(self.sync);
        if let Some(pages) = self.heap_pages {
            cfg.heap_pages = pages;
        }
        tweak(&mut cfg);
        cfg.directory = self.directory;
        cfg.backend = self.backend;
        if self.backend != Backend::MemoryChannel {
            // A modern fabric brings its own cost model; on the default
            // backend the tweak's cost adjustments (if any) stand.
            cfg.cost = self.backend.cost_model();
        }
        cfg.cost.messaging = self.messaging;
        if self.uninstrumented {
            cfg.poll_fraction = 0.0;
        }
        cfg.audit = self.audit;
        cfg.obs = self.obs;
        cfg.fault_plan = self.fault_plan.clone();
        if let Some(workers) = self.det_workers {
            cfg = cfg.with_det_parallel(workers);
        }
        cfg
    }

    /// Builds a [`Cluster`] ready to run, after letting `tweak` adjust the
    /// base config (see [`Self::to_config_with`]).
    #[must_use]
    pub fn build_cluster(&self, tweak: impl FnOnce(&mut ClusterConfig)) -> Cluster {
        Cluster::new(self.to_config_with(tweak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_match_hand_assembled_config() {
        let topo = Topology::new(2, 2);
        let spec = RunSpec::new(topo, ProtocolKind::OneLevelDiff);
        let cfg = spec.to_config_with(|_| {});
        let base = ClusterConfig::new(topo, ProtocolKind::OneLevelDiff);
        assert_eq!(cfg.heap_pages, base.heap_pages);
        assert_eq!(
            (cfg.locks, cfg.barriers, cfg.flags),
            (base.locks, base.barriers, base.flags)
        );
        assert_eq!(cfg.directory, base.directory);
        assert_eq!(cfg.poll_fraction, base.poll_fraction);
        assert!(!cfg.audit && !cfg.obs && cfg.fault_plan.is_none());
        assert_eq!(cfg.recovery, base.recovery);
        assert_eq!(spec.seed, 0);
    }

    #[test]
    fn spec_directory_tracks_the_topology_default() {
        let small = RunSpec::new(Topology::new(8, 4), ProtocolKind::OneLevelWrite);
        assert_eq!(small.directory, DirectoryMode::LockFree);
        let large = RunSpec::new(Topology::new(16, 8), ProtocolKind::TwoLevel);
        assert_eq!(large.directory, DirectoryMode::Sparse);
        // An explicit choice still wins over the topology default.
        let forced = large.with_directory(DirectoryMode::LockFree);
        assert_eq!(
            forced.to_config_with(|_| {}).directory,
            DirectoryMode::LockFree
        );
    }

    #[test]
    fn backend_selection_swaps_the_cost_model_but_default_leaves_it_alone() {
        let topo = Topology::new(2, 2);
        let spec = RunSpec::new(topo, ProtocolKind::TwoLevel);
        assert_eq!(spec.backend, Backend::MemoryChannel);
        // Default backend: an application cost tweak survives.
        let cfg = spec.to_config_with(|c| c.cost.shared_access = 99);
        assert_eq!(cfg.backend, Backend::MemoryChannel);
        assert_eq!(cfg.cost.shared_access, 99);
        // A modern backend replaces the cost model wholesale (its constants
        // are a coherent set) but keeps the spec's messaging choice.
        let rdma = RunSpec::new(topo, ProtocolKind::TwoLevel)
            .with_transport(Backend::Rdma)
            .with_messaging(Messaging::Interrupt);
        let cfg = rdma.to_config_with(|_| {});
        assert_eq!(cfg.backend, Backend::Rdma);
        assert_eq!(
            cfg.cost.remote_read_latency,
            Backend::Rdma.cost_model().remote_read_latency
        );
        assert_eq!(cfg.cost.messaging, Messaging::Interrupt);
    }

    #[test]
    fn overrides_apply_after_the_tweak() {
        let spec = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
            .with_heap_pages(8)
            .uninstrumented(true)
            .with_audit(true)
            .with_obs(true)
            .with_seed(42);
        let cfg = spec.to_config_with(|c| {
            c.heap_pages = 32; // the "application" wants more heap
            c.poll_fraction = 0.9; // …but cannot undo uninstrumented
        });
        assert_eq!(cfg.heap_pages, 32, "tweak overrides the spec's heap");
        assert_eq!(cfg.poll_fraction, 0.0, "spec toggles win over the tweak");
        assert!(cfg.audit && cfg.obs);
    }
}
