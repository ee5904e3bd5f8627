//! The eight-application benchmark suite of the Cashmere-2L evaluation
//! (§3.2 of the paper):
//!
//! | App    | Pattern (paper)                                             |
//! |--------|-------------------------------------------------------------|
//! | SOR    | red-black successive over-relaxation; row bands; barriers   |
//! | LU     | SPLASH-2 blocked dense LU; block ownership; barriers        |
//! | Water  | SPLASH molecular dynamics; per-molecule locks; migratory    |
//! | TSP    | branch-and-bound; central priority queue; locks; nondeterministic |
//! | Gauss  | Gaussian elimination; cyclic rows; per-row flags            |
//! | Ilink  | genetic linkage (synthetic stand-in, see DESIGN.md §2.5): master–slave sparse arrays; barriers |
//! | Em3d   | electromagnetic wave propagation; bipartite graph; barriers |
//! | Barnes | Barnes-Hut N-body; sequential tree build; dynamic balance   |
//!
//! Every application implements [`Benchmark`]: it sizes the shared heap and
//! synchronization pools, seeds its data, runs on the cluster, and returns a
//! checksum so results can be validated against a sequential (1×1) run of
//! the same program under any protocol.
//!
//! Data-set sizes are scaled down from the paper (Table 2) so that the full
//! evaluation sweep completes in minutes; the compute-per-element constants
//! keep each application's computation-to-communication ratio in the
//! paper's regime (see EXPERIMENTS.md).

// The physics kernels walk fixed 3-element dimension arrays with `for d in
// 0..3`; iterator-with-enumerate rewrites of those loops read worse, not
// better.
#![allow(clippy::needless_range_loop)]

pub mod bank_oltp;
pub mod barnes;
pub mod em3d;
pub mod gauss;
pub mod ilink;
pub mod kv_service;
pub mod lu;
pub mod sor;
pub mod tsp;
pub mod util;
pub mod water;

pub use bank_oltp::BankOltp;
pub use barnes::Barnes;
pub use em3d::Em3d;
pub use gauss::Gauss;
pub use ilink::Ilink;
pub use kv_service::KvService;
pub use lu::Lu;
pub use sor::Sor;
pub use tsp::Tsp;
pub use water::Water;

use cashmere_core::{Cluster, Report, RunSpec};

/// Outcome of one application run: the protocol [`Report`] plus a checksum
/// of the application's final shared state.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Protocol/run statistics.
    pub report: Report,
    /// Digest of the result data (bitwise for exact algorithms; see each
    /// app for what it covers).
    pub checksum: u64,
}

/// A runnable member of the benchmark suite.
pub trait Benchmark: Sync {
    /// The paper's name for the application.
    fn name(&self) -> &'static str;

    /// Human-readable description of this instance's (scaled) data set,
    /// for the Table 2 reproduction.
    fn size_description(&self) -> String;

    /// Whether the application is deterministic (TSP's branch-and-bound
    /// pruning makes its *work* nondeterministic, though its answer — the
    /// optimal tour length — is still checked).
    fn deterministic(&self) -> bool {
        true
    }

    /// How many repetitions a timing measurement should take the best of
    /// (the paper uses best-of-three). Applications whose *timing* is
    /// nondeterministic — dynamic load balancing, lock interleavings,
    /// bound-dependent pruning — override this.
    fn timing_reps(&self) -> usize {
        1
    }

    /// Declares this application's demands on `spec`: heap pages,
    /// lock/barrier/flag pools, polling-overhead fraction, and memory-bus
    /// intensity — and nothing else (the deployment is the experimenter's;
    /// `configure_sets_only_the_applications_own_fields` holds every app to
    /// that).
    fn configure(&self, spec: &mut RunSpec);

    /// Seeds shared data, runs the parallel program on `cluster`, and
    /// returns the report plus result checksum.
    fn execute(&self, cluster: &mut Cluster) -> AppOutcome;
}

/// All eight applications at the given scale, in the paper's Table 2 order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Sor::new(scale)),
        Box::new(Lu::new(scale)),
        Box::new(Water::new(scale)),
        Box::new(Tsp::new(scale)),
        Box::new(Gauss::new(scale)),
        Box::new(Ilink::new(scale)),
        Box::new(Em3d::new(scale)),
        Box::new(Barnes::new(scale)),
    ]
}

/// The two service-style applications (trace-driven, DESIGN.md §13) at the
/// given scale. Kept separate from [`suite`] on purpose: the golden
/// artifacts (`results/vt_golden.jsonl`, Table 2) iterate the paper suite
/// and must stay byte-identical; the service apps are gated by the
/// `service` bench bin instead.
pub fn service_suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(KvService::new(scale)),
        Box::new(BankOltp::new(scale)),
    ]
}

/// Problem-size scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny instances for correctness tests (sub-second at any topology).
    Test,
    /// The evaluation scale used by the table/figure harnesses.
    Bench,
}

/// Runs `bench` on the cluster `spec` describes once the application's
/// [`Benchmark::configure`] has sized it. The one way to run an application;
/// the cluster comes back too, for callers that read the trace or the
/// engine afterwards.
pub fn run_app(bench: &dyn Benchmark, spec: &RunSpec) -> (AppOutcome, Cluster) {
    let mut cluster = spec.build_cluster(|s| bench.configure(s));
    let outcome = bench.execute(&mut cluster);
    (outcome, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_core::{
        Backend, DirectoryMode, FaultPlan, Messaging, ProtocolKind, SyncSpec, Topology,
    };
    use std::sync::Arc;

    /// The deployment is the experimenter's: on a spec with every
    /// experimenter-owned field off its default, `configure` may change the
    /// application's own four fields and nothing else.
    #[test]
    fn configure_sets_only_the_applications_own_fields() {
        let mut spec = RunSpec::new(Topology::new(3, 2), ProtocolKind::OneLevelWriteHome)
            .with_seed(99)
            .with_directory(DirectoryMode::GlobalLock)
            .with_transport(Backend::Cxl)
            .with_messaging(Messaging::Interrupt)
            .uninstrumented(true)
            .with_audit(true)
            .with_obs(true)
            .with_faults(Arc::new(FaultPlan::new(5)))
            .with_det_parallel(3);
        spec.pages_per_superpage = 4;
        let apps = suite(Scale::Test)
            .into_iter()
            .chain(service_suite(Scale::Test));
        for app in apps {
            let mut configured = spec.clone();
            app.configure(&mut configured);
            assert!(configured.heap_pages > 0, "{} sizes its heap", app.name());
            assert_ne!(
                configured.sync,
                SyncSpec::default(),
                "{} sizes its pools",
                app.name()
            );
            // Put the application's fields back; every other field —
            // whatever the struct grows — must then read as it did.
            configured.heap_pages = spec.heap_pages;
            configured.sync = spec.sync;
            configured.poll_fraction = spec.poll_fraction;
            configured.bus_bytes_per_access = spec.bus_bytes_per_access;
            assert_eq!(
                format!("{configured:?}"),
                format!("{spec:?}"),
                "{} touched a field that is not its own",
                app.name()
            );
        }
    }
}
