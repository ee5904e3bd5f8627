//! The interconnect behind one [`Transport`] trait (DESIGN.md §14).
//!
//! The coherence engine and the directory talk to `dyn Transport`, which
//! covers exactly the operations they call: region create/attach, remote
//! word and run writes, tree broadcast and charging, bulk link charges,
//! local reads, and the page-fetch data movement. (The channel's other
//! entry points — block and sparse writes, the manual local double — stay
//! inherent methods of [`MemoryChannel`], where their only callers are.)
//!
//! There is one fabric implementation, [`MemoryChannel`], and a backend is
//! data it carries ([`MemoryChannel::backend`]): a cost table
//! ([`Backend::cost_model`]) and a page-fetch shape
//! ([`Backend::fetch_shape`]).
//!
//! * [`Backend::MemoryChannel`] — the paper's 1997 remote-write-only
//!   network. Fetches are request/reply ([`FetchShape::RequestReply`]);
//!   every virtual-time path is byte-identical to the pre-trait simulator,
//!   which the committed goldens prove.
//! * [`Backend::Rdma`] — a 2026-class RDMA NIC with one-sided reads *and*
//!   writes ([`CostModel::rdma`]). Same ordered region machinery, but
//!   fetches become **direct remote reads** ([`FetchShape::DirectRead`]):
//!   no request delivery, no home-side CPU, just wire time plus the
//!   read-completion latency.
//! * [`Backend::Cxl`] — CXL/disaggregated far memory ([`CostModel::cxl`]):
//!   load/store granularity, direct reads with zero per-message software
//!   overhead.
//!
//! Fault injection interposes on every backend alike: every link
//! reservation goes through the same fault-interposed path inside the
//! channel, so a drop/duplicate/delay/outage plan perturbs RDMA and CXL
//! schedules exactly as it perturbs Memory Channel ones. The conformance
//! battery in `tests/conformance.rs` holds each backend to the shared
//! contract (write visibility, charge determinism, fault interposition,
//! same-seed replay identity).
//!
//! The trait has one implementor and stays only because the repo
//! benchmark (`benchmark/src/layers.rs`) pins `Transport`,
//! [`build_transport`] and `Arc<dyn Transport>`; removing it is ROADMAP
//! item 3(a), after item 0 unpins them.

use std::sync::Arc;

use cashmere_memchan::{MemoryChannel, RegionId, RxBuffer, TransportConfig};
use cashmere_sim::{CostModel, FetchShape, Nanos};

/// The operations the coherence engine and directory need from an
/// interconnect. Object-safe: the engine holds an `Arc<dyn Transport>`.
///
/// Completion-time semantics follow [`MemoryChannel`]: every charging
/// method takes the caller's current virtual time `now` and returns the
/// virtual time at which the operation has been performed (globally, for
/// ordered region writes).
pub trait Transport: Send + Sync {
    /// The cost model in force.
    fn cost(&self) -> &CostModel;

    /// Creates a region of `words` 64-bit words; `loopback` selects whether
    /// a writer's own receive copy observes its own transmits.
    fn create_region(&self, words: usize, loopback: bool) -> RegionId;

    /// Maps region `r` for receive on `endpoint` (idempotent).
    fn attach_rx(&self, r: RegionId, endpoint: usize);

    /// Direct handle to `endpoint`'s receive buffer, if mapped.
    fn rx_buffer(&self, r: RegionId, endpoint: usize) -> Option<RxBuffer>;

    /// Reads a word from `endpoint`'s receive copy (charge-free).
    fn read_local(&self, r: RegionId, endpoint: usize, offset: usize) -> u64;

    /// Writes one word through `from`'s transmit mapping.
    fn write(&self, r: RegionId, from: usize, offset: usize, val: u64, now: Nanos) -> Nanos;

    /// Writes a run-length-encoded diff; wire cost is 12 bytes per dirty
    /// word.
    fn write_runs(&self, r: RegionId, from: usize, runs: &[(u32, &[u64])], now: Nanos) -> Nanos;

    /// Writes one word to every attached copy through a `fanout`-ary
    /// forwarding tree.
    fn write_tree(
        &self,
        r: RegionId,
        from: usize,
        offset: usize,
        val: u64,
        fanout: usize,
        now: Nanos,
    ) -> Nanos;

    /// Reserves `from`'s link for a modeled `bytes` transfer and returns
    /// when it has been performed (one-sided write semantics).
    fn charge_link(&self, from: usize, bytes: u64, now: Nanos) -> Nanos;

    /// Tree-broadcast analogue of [`charge_link`](Self::charge_link):
    /// returns when the last target holds the payload.
    fn charge_tree(
        &self,
        from: usize,
        targets: &[usize],
        fanout: usize,
        bytes: u64,
        now: Nanos,
    ) -> Nanos;

    /// How page fetches cross this backend ([`Backend::fetch_shape`]).
    fn fetch_shape(&self) -> FetchShape;

    /// Moves `bytes` of page data from `home` to the faulting processor,
    /// returning the arrival time. Under [`FetchShape::RequestReply`] this
    /// is the home's *reply write* (request delivery is charged separately
    /// by the protocol); under [`FetchShape::DirectRead`] it is the
    /// requester's one-sided read — wire time through the fault-interposed
    /// link plus [`CostModel::remote_read_latency`].
    fn fetch_data(&self, home: usize, bytes: u64, now: Nanos) -> Nanos;
}

impl Transport for MemoryChannel {
    fn cost(&self) -> &CostModel {
        MemoryChannel::cost(self)
    }
    fn create_region(&self, words: usize, loopback: bool) -> RegionId {
        MemoryChannel::create_region(self, words, loopback)
    }
    fn attach_rx(&self, r: RegionId, endpoint: usize) {
        MemoryChannel::attach_rx(self, r, endpoint);
    }
    fn rx_buffer(&self, r: RegionId, endpoint: usize) -> Option<RxBuffer> {
        MemoryChannel::rx_buffer(self, r, endpoint)
    }
    fn read_local(&self, r: RegionId, endpoint: usize, offset: usize) -> u64 {
        MemoryChannel::read_local(self, r, endpoint, offset)
    }
    fn write(&self, r: RegionId, from: usize, offset: usize, val: u64, now: Nanos) -> Nanos {
        MemoryChannel::write(self, r, from, offset, val, now)
    }
    fn write_runs(&self, r: RegionId, from: usize, runs: &[(u32, &[u64])], now: Nanos) -> Nanos {
        MemoryChannel::write_runs(self, r, from, runs.iter().copied(), now)
    }
    fn write_tree(
        &self,
        r: RegionId,
        from: usize,
        offset: usize,
        val: u64,
        fanout: usize,
        now: Nanos,
    ) -> Nanos {
        MemoryChannel::write_tree(self, r, from, offset, val, fanout, now)
    }
    fn charge_link(&self, from: usize, bytes: u64, now: Nanos) -> Nanos {
        MemoryChannel::charge_link(self, from, bytes, now)
    }
    fn charge_tree(
        &self,
        from: usize,
        targets: &[usize],
        fanout: usize,
        bytes: u64,
        now: Nanos,
    ) -> Nanos {
        MemoryChannel::charge_tree(self, from, targets, fanout, bytes, now)
    }
    fn fetch_shape(&self) -> FetchShape {
        self.backend().fetch_shape()
    }
    fn fetch_data(&self, home: usize, bytes: u64, now: Nanos) -> Nanos {
        match self.backend().fetch_shape() {
            // The home node's reply is an ordinary one-sided remote write
            // of the page: the same charge as any other modeled bulk
            // transfer.
            FetchShape::RequestReply => MemoryChannel::charge_link(self, home, bytes, now),
            // One-sided read: pull the page over the (fault-interposed)
            // link and pay the read-completion latency. No request
            // delivery, no reply, no home-side CPU.
            FetchShape::DirectRead => {
                self.reserve(home, bytes, now) + self.cost().remote_read_latency
            }
        }
    }
}

/// Builds the transport a [`TransportConfig`] describes. This is the one
/// assembly point the engine (and every test harness) uses.
pub fn build_transport(cfg: TransportConfig) -> Arc<dyn Transport> {
    Arc::new(cfg.build_channel())
}
