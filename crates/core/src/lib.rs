//! The Cashmere coherence protocols (SOSP '97).
//!
//! This crate implements the paper's primary contribution — the
//! **Cashmere-2L** two-level software coherent shared memory protocol — plus
//! every protocol it is evaluated against:
//!
//! * **2L** ([`ProtocolKind::TwoLevel`]) — hardware sharing within a node,
//!   "moderately lazy" release consistency across nodes, multiple concurrent
//!   writers, home nodes, page-size coherence blocks, directory-based
//!   sharing sets, *two-way diffing* instead of TLB shootdown, exclusive
//!   mode, and lock-free (per-node-word) directory and write-notice
//!   structures.
//! * **2LS** ([`ProtocolKind::TwoLevelShootdown`]) — identical except that
//!   races between a faulting/releasing processor and concurrent local
//!   writers are resolved by shooting down the other write mappings on the
//!   node (§2.6).
//! * **1LD** ([`ProtocolKind::OneLevelDiff`]) — every processor is its own
//!   protocol node; twins and outgoing diffs.
//! * **1L** ([`ProtocolKind::OneLevelWrite`]) — every processor is its own
//!   protocol node; in-line *write doubling* to the home copy.
//! * The **home-node optimization** variants of both one-level protocols
//!   ([`ProtocolKind::OneLevelDiffHome`], [`ProtocolKind::OneLevelWriteHome`]).
//! * The **global-lock ablation** of §3.3.5 ([`DirectoryMode::GlobalLock`]).
//!
//! The public surface is [`RunSpec`] (the one description of a run),
//! [`Cluster`] (build the simulated cluster a spec describes, allocate
//! shared memory, seed initial data) and
//! [`Proc`] (the per-processor handle applications use to access shared
//! memory and synchronize). See the runnable examples in the repository's
//! `examples/` directory.

pub mod config;
pub mod det;
pub mod directory;
pub mod engine;
pub mod mc_lock;
#[doc(hidden)]
pub mod model_scenarios;
pub mod proc;
pub mod recovery;
pub mod report;
pub mod run;
pub mod sync;
pub mod trace;
pub mod write_notice;

pub use config::{DirectoryMode, ProtocolKind, SyncSpec};
pub use engine::Engine;
pub use proc::{Cluster, Proc};
pub use recovery::{RecoveryCounts, RecoverySummary};
pub use report::Report;
pub use run::RunSpec;
pub use trace::{ProtocolEvent, ReleaseAction, Trace, TraceEvent, TraceRecorder};

pub use cashmere_faults::{FaultKind, FaultPlan, FaultRule};
pub use cashmere_obs::ObsReport;

pub use cashmere_sim::{
    Backend, CostModel, FetchShape, Messaging, Nanos, NodeId, ProcId, TimeCategory, Topology,
};
pub use cashmere_transport::{build_transport, Transport};
pub use cashmere_vmpage::{PAGE_BYTES, PAGE_WORDS};

/// A word address in the shared heap (index of a 64-bit word).
pub type Addr = usize;
