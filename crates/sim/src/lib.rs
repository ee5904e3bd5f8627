//! Simulation substrate for the Cashmere-2L reproduction.
//!
//! The original Cashmere-2L system ran on an 8-node, 32-processor DEC
//! AlphaServer cluster. This crate provides the synthetic equivalent of that
//! hardware platform:
//!
//! * [`Topology`] — the cluster shape (physical nodes × processors per node)
//!   and the *protocol node* mapping (the one-level protocols treat every
//!   processor as its own node),
//! * [`ProcClock`] — per-processor virtual time, accumulated in the same
//!   categories the paper's Figure 6 reports (`User`, `Protocol`, `Polling`,
//!   `Comm & Wait`, `Write Doubling`),
//! * [`CostModel`] — every measured constant from §3.1 and Table 1 of the
//!   paper (page-fault, mprotect, twin, diff, directory, lock, barrier and
//!   transfer costs),
//! * [`Resource`] — a serially shared resource in virtual time, used to model
//!   the per-node Memory Channel PCI link and the per-node memory bus (these
//!   produce the paper's contention effects: LU's one-level clustering
//!   collapse and SOR/Gauss's negative clustering),
//! * [`TimeBreakdown`] — the Figure 6 time categories a clock accumulates,
//! * [`HorizonClock`] — the shared lookahead horizon the deterministic
//!   parallel scheduler (DESIGN.md §15) advances window by window, and
//!   [`WakeSlot`], the per-processor location it hands each turn over on.
//!
//! Nothing in this crate knows about coherence; it is the "hardware".

pub mod cost;
pub mod lookahead;
pub mod resource;
pub mod stats;
pub mod time;
pub mod topology;

pub use cost::{Backend, CostModel, FetchShape, Messaging};
pub use lookahead::{HorizonClock, WakeSlot};
pub use resource::Resource;
pub use stats::{Counter, TimeBreakdown, TimeCategory};
pub use time::{Nanos, ProcClock};
pub use topology::{NodeId, NodeMap, ProcId, Topology};
