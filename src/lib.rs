//! Cashmere-2L: software coherent shared memory on a clustered remote-write
//! network — a Rust reproduction of the SOSP '97 system.
//!
//! This facade crate re-exports the whole public API:
//!
//! * [`core`](cashmere_core) — the coherence protocols: [`RunSpec`] (the
//!   one description of a run), [`Cluster`], [`Proc`], [`ProtocolKind`], …;
//! * [`apps`](cashmere_apps) — the eight-application benchmark suite and
//!   [`apps::run_app`], the one way to run an application on a spec;
//! * [`check`](cashmere_check) — the protocol invariant auditor
//!   (vector-clock happens-before replay over audit traces);
//! * the substrates: [`sim`](cashmere_sim) (virtual time, cost model,
//!   topology), [`memchan`](cashmere_memchan) (the Memory Channel
//!   simulator), and [`vmpage`](cashmere_vmpage) (page tables, frames,
//!   twins, diffs).
//!
//! See `examples/quickstart.rs` for a five-minute tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the paper-vs-measured results.

pub use cashmere_apps as apps;
pub use cashmere_check as check;
pub use cashmere_core::*;
pub use cashmere_memchan as memchan;
pub use cashmere_sim as sim;
pub use cashmere_vmpage as vmpage;
pub use cashmere_workload as workload;
