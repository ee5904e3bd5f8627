//! [`RunSpec`]: everything that defines one simulated run, as one value.
//!
//! The experimenter owns the deployment — protocol, cluster shape,
//! directory layout, fabric, messaging, instrumentation, probes, fault
//! plan, engine. An application's `configure` declares its demands on the
//! same value: heap pages, synchronization pools, its polling-overhead
//! fraction and its memory-bus intensity. Nothing else is assembled: the
//! engine reads the spec as given and derives the cost model from
//! `(backend, messaging)` and the effective polling fraction from
//! `(messaging, uninstrumented, poll_fraction)` in [`Engine::new`]
//! (DESIGN.md §3, "One description of a run").
//!
//! [`Engine::new`]: crate::Engine::new

use std::sync::Arc;

use cashmere_faults::FaultPlan;
use cashmere_sim::{Backend, Messaging, Topology};

use crate::config::{DirectoryMode, ProtocolKind, SyncSpec};
use crate::proc::Cluster;

/// Everything that defines one simulated run, independent of the
/// application code itself. Construct with [`RunSpec::new`], refine with
/// the builder methods, then build the cluster with
/// [`RunSpec::build_cluster`] (or [`Cluster::new`]).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Physical cluster shape.
    pub topology: Topology,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Seeds the gates' fault plans and is echoed into their output rows.
    pub seed: u64,
    /// Synchronization pool sizing (an application's `configure` sets it).
    pub sync: SyncSpec,
    /// Size of the shared heap in 8 KB pages (an application's `configure`
    /// sets it).
    pub heap_pages: usize,
    /// Pages per superpage (home-assignment granularity, §2.3
    /// "Superpages"): all pages of a superpage share a home node, and the
    /// first touch of any of them relocates the whole superpage. The paper
    /// needed multi-page superpages only because of Memory Channel kernel
    /// table limits; at this reproduction's scaled-down problem sizes they
    /// would misplace a large fraction of each processor's data, so the
    /// default is per-page first-touch homing.
    pub pages_per_superpage: usize,
    /// Directory/write-notice locking discipline.
    pub directory: DirectoryMode,
    /// Interconnect backend (DESIGN.md §14). Defaults to the paper's
    /// Memory Channel; [`Backend::Rdma`] / [`Backend::Cxl`] bring their own
    /// cost table and a direct-read page-fetch shape.
    pub backend: Backend,
    /// Request-delivery mechanism.
    pub messaging: Messaging,
    /// Fraction of user/compute time added as polling overhead (the
    /// paper's per-application 0–36% loop-instrumentation cost; an
    /// application's `configure` sets it). Charged only under polling
    /// messaging and only when the run is not [`Self::uninstrumented`].
    pub poll_fraction: f64,
    /// Run without polling instrumentation whatever [`Self::poll_fraction`]
    /// says (the paper's "uninstrumented" sequential runs).
    pub uninstrumented: bool,
    /// Memory-bus bytes charged per shared access, modeling cache-capacity
    /// traffic through the node's shared bus (what makes SOR and Gauss
    /// cluster badly; an application's `configure` sets it).
    pub bus_bytes_per_access: u64,
    /// Record a [`crate::trace::ProtocolEvent`] stream for
    /// `cashmere_check::audit`. When off the protocol hot path pays only an
    /// `Option` discriminant test per potential emission.
    pub audit: bool,
    /// Record observability data ([`crate::Report::obs`]: spans, metrics,
    /// Figure-7 breakdown). When off every hook site pays one `Option`
    /// discriminant test and nothing allocates; when on it is still
    /// *charge-free* — observability only reads clocks, so virtual times
    /// are byte-identical either way.
    pub obs: bool,
    /// Deterministic fault-injection plan, shared with the transport and
    /// the engine's recovery paths. `None` and an empty plan are both
    /// virtual-time-neutral.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Deterministic parallel execution (DESIGN.md §15): `Some(w)` runs the
    /// simulated processors under the conservative virtual-time scheduler
    /// on at most `w` concurrently running host threads, and the
    /// [`crate::Report`] is byte-identical at any `w`. `None` keeps the
    /// free-running engine.
    pub det_workers: Option<usize>,
}

impl RunSpec {
    /// The paper's network, polling, the topology's default directory, a
    /// 64-page heap with per-page homing, default pools, every probe off,
    /// the free-running engine.
    #[must_use]
    pub fn new(topology: Topology, protocol: ProtocolKind) -> Self {
        Self {
            directory: DirectoryMode::default_for(&topology),
            topology,
            protocol,
            seed: 0,
            sync: SyncSpec::default(),
            heap_pages: 64,
            pages_per_superpage: 1,
            backend: Backend::default(),
            messaging: Messaging::default(),
            poll_fraction: 0.05,
            uninstrumented: false,
            bus_bytes_per_access: 2,
            audit: false,
            obs: false,
            fault_plan: None,
            det_workers: None,
        }
    }

    /// Builder-style seed.
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
        self.heap_pages = pages;
        self
    }

    /// Builder-style directory ablation.
    #[must_use]
    pub fn with_directory(mut self, directory: DirectoryMode) -> Self {
        self.directory = directory;
        self
    }

    /// Builder-style interconnect backend.
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
    /// processors on `workers` host threads (clamped to at least 1).
    #[must_use]
    pub fn with_det_parallel(mut self, workers: usize) -> Self {
        self.det_workers = Some(workers.max(1));
        self
    }

    /// Builds a [`Cluster`] on a copy of this spec that `tweak` — typically
    /// an application's `configure` — has adjusted.
    #[must_use]
    pub fn build_cluster(&self, tweak: impl FnOnce(&mut RunSpec)) -> Cluster {
        let mut spec = self.clone();
        tweak(&mut spec);
        Cluster::new(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ProcCtx;
    use cashmere_sim::{CostModel, Nanos, ProcId, TimeCategory};

    #[test]
    fn defaults_are_the_papers_network_with_every_probe_off() {
        let spec = RunSpec::new(Topology::new(2, 2), ProtocolKind::OneLevelDiff);
        assert_eq!(spec.backend, Backend::MemoryChannel);
        assert_eq!(spec.messaging, Messaging::Polling);
        assert_eq!(spec.sync, SyncSpec::default());
        assert_eq!((spec.heap_pages, spec.pages_per_superpage), (64, 1));
        assert_eq!((spec.poll_fraction, spec.bus_bytes_per_access), (0.05, 2));
        assert!(!spec.uninstrumented, "runs are instrumented by default");
        assert!(!spec.audit, "auditing must be opt-in");
        assert!(!spec.obs, "observability must be opt-in");
        assert!(spec.fault_plan.is_none(), "default is fault-free");
        assert!(spec.det_workers.is_none(), "default is free-running");
        assert_eq!(spec.seed, 0);
        // The directory follows the topology: the paper's replicated one up
        // to the paper's largest cluster, home-sharded beyond it.
        assert_eq!(spec.directory, DirectoryMode::LockFree);
        let large = RunSpec::new(Topology::new(16, 8), ProtocolKind::TwoLevel);
        assert_eq!(large.directory, DirectoryMode::Sparse);
    }

    #[test]
    fn builders_set_their_field() {
        let base = RunSpec::new(Topology::new(16, 8), ProtocolKind::TwoLevel);
        // with_sync(SyncSpec::default()) is a no-op; anything else lands.
        assert_eq!(base.clone().with_sync(SyncSpec::default()).sync, base.sync);
        let pools = SyncSpec {
            locks: 3,
            barriers: 1,
            flags: 2,
        };
        assert_eq!(base.clone().with_sync(pools).sync, pools);
        assert!(base.clone().with_obs(true).obs);
        assert!(base.clone().with_audit(true).audit);
        assert_eq!(base.clone().with_heap_pages(8).heap_pages, 8);
        assert_eq!(base.clone().with_seed(42).seed, 42);
        // An explicit directory wins over the topology default.
        let forced = base.clone().with_directory(DirectoryMode::LockFree);
        assert_eq!(forced.directory, DirectoryMode::LockFree);
        // The plan is shared, not copied.
        let plan = Arc::new(FaultPlan::new(7));
        let faulty = base.clone().with_faults(Arc::clone(&plan));
        assert!(Arc::ptr_eq(faulty.fault_plan.as_ref().unwrap(), &plan));
        assert_eq!(faulty.fault_plan.as_ref().unwrap().seed(), 7);
        assert_eq!(base.clone().with_det_parallel(0).det_workers, Some(1));
        // with_transport(MemoryChannel) is a no-op relative to new():
        // goldens depend on it.
        assert_eq!(
            base.clone().with_transport(Backend::MemoryChannel).backend,
            base.backend
        );
        assert_eq!(base.with_transport(Backend::Rdma).backend, Backend::Rdma);
    }

    /// The one resolution the engine makes, over every combination: the
    /// cost model is the backend's table with the spec's messaging and
    /// nothing else, and the polling fraction an application asked for is
    /// charged only under polling messaging on an instrumented run.
    #[test]
    fn engine_resolves_the_cost_model_and_the_polling_fraction() {
        let topo = Topology::new(1, 1);
        for backend in Backend::ALL {
            for messaging in [Messaging::Polling, Messaging::Interrupt] {
                for uninstrumented in [false, true] {
                    for app_poll in [0.0, 0.05, 0.9] {
                        let spec = RunSpec::new(topo, ProtocolKind::TwoLevel)
                            .with_transport(backend)
                            .with_messaging(messaging)
                            .uninstrumented(uninstrumented);
                        // The "application" asks for its polling fraction
                        // after the experimenter's toggles are in place —
                        // and cannot undo `uninstrumented`.
                        let cluster = spec.build_cluster(|s| s.poll_fraction = app_poll);
                        let engine = cluster.engine();
                        let what = format!("{backend:?} {messaging:?} {uninstrumented} {app_poll}");

                        let mut cost = backend.cost_model();
                        cost.messaging = messaging;
                        assert_eq!(engine.cost(), &cost, "{what}");
                        // The spec itself is passed through untouched.
                        assert_eq!(engine.config().poll_fraction, app_poll, "{what}");
                        assert_eq!(engine.config().uninstrumented, uninstrumented, "{what}");

                        // What a processor is actually charged, per
                        // compute interval and per shared access.
                        let polls = messaging == Messaging::Polling && !uninstrumented;
                        let want = if polls { app_poll } else { 0.0 };
                        let mut ctx = engine.make_ctx(ProcId(0));
                        let polled =
                            |ctx: &ProcCtx| ctx.clock.breakdown().get(TimeCategory::Polling);
                        engine.compute(&mut ctx, 1_000);
                        assert_eq!(polled(&ctx), (1_000.0 * want) as Nanos, "{what}");
                        engine.read_word(&mut ctx, 0); // faults the page in
                        let before = polled(&ctx);
                        engine.read_word(&mut ctx, 0); // a plain hit
                        let per_access = (cost.shared_access as f64 * want) as Nanos;
                        assert_eq!(polled(&ctx) - before, per_access, "{what}");
                    }
                }
            }
        }
        // What keeps the goldens still: the paper's network under polling
        // is bit-for-bit the default cost model.
        let paper = RunSpec::new(topo, ProtocolKind::TwoLevel).build_cluster(|_| {});
        assert_eq!(paper.engine().cost(), &CostModel::default());
    }

    #[test]
    fn build_cluster_tweaks_a_copy() {
        let spec = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel)
            .with_heap_pages(8)
            .with_audit(true);
        // The "application" wants more heap: its word is final.
        let cluster = spec.build_cluster(|s| s.heap_pages = 32);
        assert_eq!(cluster.config().heap_pages, 32);
        assert!(cluster.config().audit);
        assert_eq!(spec.heap_pages, 8, "the caller's spec is not modified");
    }
}
