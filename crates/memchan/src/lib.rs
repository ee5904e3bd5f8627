//! A simulation of DEC's Memory Channel remote-write network (§2.1 of the
//! paper).
//!
//! Memory Channel properties reproduced here:
//!
//! * **Remote writes only** — a region can be mapped for *transmit* or
//!   *receive*; writes through a transmit mapping are delivered into the
//!   receive copies of the same region on every attached node. There is no
//!   remote read: reading remote data requires the explicit-request protocol
//!   built on top (in `cashmere-core`).
//! * **Global write ordering** — two writes to the same region appear in the
//!   same order in every receive copy. The simulator linearizes deliveries
//!   with a per-region order lock (the "hub").
//! * **Loop-back** — normally a node's own receive copy is *not* updated by
//!   its own transmits; the writer must "double" the write by storing into
//!   its local copy manually (the paper does this for directory entries).
//!   With loop-back enabled (used for synchronization objects), the writer's
//!   own receive copy *is* updated, and the completion time returned by a
//!   write is the moment the write has been *globally performed* — which is
//!   how the paper's locks detect that their array-entry write is visible
//!   everywhere.
//! * **Latency and bandwidth** — each write charges the 5.2 µs
//!   process-to-process latency plus `bytes × link-ns-per-byte` serialized
//!   through the sending node's PCI link ([`cashmere_sim::Resource`]), which
//!   reproduces the paper's link contention effects.
//!
//! Endpoints are *protocol* nodes (the one-level protocols give every
//! processor its own endpoint); each endpoint is pinned to a *physical* link
//! for bandwidth accounting.
//!
//! # Construction
//!
//! Channels are built through the [`TransportConfig`] builder
//! (`TransportConfig::new(link_of, links).build_channel()`), which carries
//! the cost model, the interconnect [`Backend`], the fault plan, and the
//! observability counters. The old positional `new`/`with_faults`/
//! `with_observers` constructor family is gone.
//!
//! # Fault interposition
//!
//! When built with a fault plan ([`TransportConfig::with_fault_plan`]),
//! every transmission —
//! [`write`](MemoryChannel::write) / [`write_block`](MemoryChannel::write_block)
//! / [`write_sparse`](MemoryChannel::write_sparse) /
//! [`write_runs`](MemoryChannel::write_runs) and the modeled bulk transfers
//! of [`charge_link`](MemoryChannel::charge_link) and
//! [`reserve`](MemoryChannel::reserve) — consults the
//! [`FaultPlan`] at exactly one interposition point: a *dropped* write is
//! repaired by the simulated adapter's link-level retransmission (the lost
//! attempt's bandwidth and latency are charged, then the payload is resent),
//! a *duplicated* write re-delivers its idempotent stores and re-charges the
//! link, a *delayed* write completes late, and an *outage* stalls the
//! transmission to the outage epoch's boundary. Ordered region traffic
//! (directories, locks) therefore stays reliable — as Cashmere requires —
//! while paying for the faults in virtual time; loss of the *user-level*
//! request messages (page fetch, exclusive break) is surfaced to the
//! protocol layer instead, which recovers with timeouts and retries (see
//! `cashmere-core`). With no plan (or an empty one) every path is
//! byte-identical in virtual time to the pre-fault-layer simulator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use cashmere_model::ModelAtomicU64;
use parking_lot::Mutex;

use cashmere_faults::{FaultPlan, WriteFault};
use cashmere_obs::LinkMetrics;
use cashmere_sim::{Backend, CostModel, Nanos, Resource};

/// Builder for a simulated interconnect channel: endpoint→link topology
/// plus the optional knobs (cost model, [`Backend`], fault plan,
/// observability counters). This is the only way to construct a
/// [`MemoryChannel`]; it replaces the old positional
/// `new(link_of, links, cost)` / `with_faults` / `with_observers` family.
///
/// The cost model defaults to the configured backend's
/// ([`Backend::cost_model`]), which for the default
/// [`Backend::MemoryChannel`] is exactly [`CostModel::default`].
#[derive(Clone)]
pub struct TransportConfig {
    link_of: Vec<usize>,
    links: usize,
    backend: Backend,
    cost: Option<CostModel>,
    faults: Option<Arc<FaultPlan>>,
    metrics: Option<Arc<LinkMetrics>>,
}

impl TransportConfig {
    /// A channel with `link_of.len()` endpoints; endpoint `e` sends through
    /// physical link `link_of[e]` of `links` total.
    pub fn new(link_of: Vec<usize>, links: usize) -> Self {
        Self {
            link_of,
            links,
            backend: Backend::default(),
            cost: None,
            faults: None,
            metrics: None,
        }
    }

    /// Selects the interconnect backend (default: the paper's Memory
    /// Channel). Does not override an explicit [`with_cost`](Self::with_cost).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the cost model (default: the backend's).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Interposes a fault-injection plan on every transmission (see the
    /// crate docs' fault-interposition section).
    pub fn with_fault_plan(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches observability traffic counters: every link reservation
    /// (remote writes, page transfers, doubled stores, notice posts) is
    /// counted. Counting is charge-free — virtual times are identical with
    /// or without it.
    pub fn with_metrics(mut self, metrics: Option<Arc<LinkMetrics>>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Builds the channel.
    ///
    /// # Panics
    ///
    /// Panics if `link_of` is empty or names a link ≥ `links`.
    pub fn build_channel(self) -> MemoryChannel {
        assert!(!self.link_of.is_empty(), "need at least one endpoint");
        assert!(
            self.link_of.iter().all(|&l| l < self.links),
            "endpoint mapped to nonexistent link"
        );
        MemoryChannel {
            backend: self.backend,
            cost: self.cost.unwrap_or_else(|| self.backend.cost_model()),
            links: (0..self.links).map(|_| Resource::new()).collect(),
            link_of: self.link_of,
            regions: RegionTable::new(),
            faults: self.faults,
            metrics: self.metrics,
        }
    }
}

/// Identifies a Memory Channel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Default branching factor for [`MemoryChannel::write_tree`] /
/// [`MemoryChannel::charge_tree`] hierarchical broadcasts.
pub const TREE_FANOUT: usize = 4;

/// Capacity of the first region-table bucket; bucket `i` holds
/// `BUCKET0 << i` slots, so 28 buckets cover every realistic region count.
const BUCKET0: usize = 64;
const TABLE_BUCKETS: usize = 28;

/// One lazily-allocated run of region slots; each slot is written once.
type Bucket = Box<[OnceLock<Arc<Region>>]>;

/// Append-only, lock-free region table: a fixed spine of doubling buckets,
/// each allocated at most once, so a published `RegionId` resolves to a
/// stable `&Arc<Region>` with two array indexings and one `Acquire` load —
/// no read lock and no `Arc` clone on the page-fetch hot path. Appends
/// (region creation, a cold setup-time path) serialize on a plain mutex;
/// the new slot is written before `len` is published with `Release`, so any
/// id below the observed `len` is fully initialized.
struct RegionTable {
    buckets: [OnceLock<Bucket>; TABLE_BUCKETS],
    len: AtomicUsize,
    append: Mutex<()>,
}

impl RegionTable {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }

    /// Maps a region id to (bucket, slot): ids 0..64 live in bucket 0,
    /// the next 128 in bucket 1, the next 256 in bucket 2, and so on.
    #[inline]
    fn locate(id: usize) -> (usize, usize) {
        let chunk = id / BUCKET0 + 1;
        let bucket = (usize::BITS - 1 - chunk.leading_zeros()) as usize;
        (bucket, id - ((1usize << bucket) - 1) * BUCKET0)
    }

    #[inline]
    fn get(&self, id: usize) -> &Arc<Region> {
        assert!(id < self.len.load(Ordering::Acquire), "unknown region {id}");
        let (bucket, slot) = Self::locate(id);
        self.buckets[bucket]
            .get()
            .expect("bucket allocated before len covered it")[slot]
            .get()
            .expect("slot written before len covered it")
    }

    fn push(&self, region: Arc<Region>) -> usize {
        let _append = self.append.lock();
        let id = self.len.load(Ordering::Acquire);
        let (bucket, slot) = Self::locate(id);
        let bucket = self.buckets[bucket]
            .get_or_init(|| (0..BUCKET0 << bucket).map(|_| OnceLock::new()).collect());
        bucket[slot]
            .set(region)
            .ok()
            .expect("a slot below len is only ever written once");
        self.len.store(id + 1, Ordering::Release);
        id
    }
}

/// One mapped region: a per-endpoint set of receive buffers plus the hub's
/// ordering lock.
struct Region {
    words: usize,
    loopback: bool,
    /// The hub: deliveries to receive copies are linearized under this lock,
    /// giving the Memory Channel's total write order per region.
    order: Mutex<()>,
    /// Receive copies, indexed by endpoint; attached lazily (a mapping
    /// created after some writes does not see history, as on real hardware).
    /// The words are model-routed atomics so the interleaving explorer can
    /// schedule around the lock-free directory reads built on them
    /// (DESIGN.md §11); outside model tests they are plain `AtomicU64`s.
    rx: Vec<OnceLock<Box<[ModelAtomicU64]>>>,
}

impl Region {
    fn rx_of(&self, endpoint: usize) -> Option<&[ModelAtomicU64]> {
        self.rx[endpoint].get().map(|b| &b[..])
    }
}

/// The simulated network: a set of regions shared by `endpoints` protocol
/// nodes, with `links` physical PCI links.
pub struct MemoryChannel {
    /// Which interconnect this channel stands for: selects the page-fetch
    /// shape (and, unless overridden, the cost table).
    backend: Backend,
    cost: CostModel,
    /// Physical link index for each endpoint.
    link_of: Vec<usize>,
    links: Vec<Resource>,
    regions: RegionTable,
    /// Fault-injection plan; `None` (or an empty plan) leaves every path
    /// byte-identical in virtual time to a fault-free build.
    faults: Option<Arc<FaultPlan>>,
    /// Observability traffic counters; `None` costs one discriminant test
    /// per transmission and recording never charges virtual time.
    metrics: Option<Arc<LinkMetrics>>,
}

impl MemoryChannel {
    /// The interconnect this channel stands for.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.link_of.len()
    }

    /// Creates a region of `words` 64-bit words. `loopback` selects whether a
    /// writer's own receive copy is updated by its own transmits.
    pub fn create_region(&self, words: usize, loopback: bool) -> RegionId {
        let region = Arc::new(Region {
            words,
            loopback,
            order: Mutex::new(()),
            rx: (0..self.endpoints()).map(|_| OnceLock::new()).collect(),
        });
        RegionId(self.regions.push(region))
    }

    fn region(&self, r: RegionId) -> &Arc<Region> {
        self.regions.get(r.0)
    }

    /// Maps region `r` for receive on `endpoint` (idempotent). The buffer
    /// starts zeroed and only observes writes delivered after attachment.
    pub fn attach_rx(&self, r: RegionId, endpoint: usize) {
        let region = self.region(r);
        region.rx[endpoint]
            .get_or_init(|| (0..region.words).map(|_| ModelAtomicU64::new(0)).collect());
    }

    /// The fault-layer interposition point shared by every transmission:
    /// reserves `from`'s physical link for `bytes` of payload starting at
    /// `now`, applying the fault plan's verdict — drop (adapter
    /// retransmission: the lost attempt's bandwidth and latency are charged,
    /// then the payload is resent), duplicate (the link is charged twice),
    /// delay (completion deferred), or outage (transmission stalls to the
    /// epoch boundary). Returns the time the last transmission clears the
    /// link and how many times the payload is delivered. Without a plan this
    /// is exactly one `Resource::acquire`.
    fn reserve_link(&self, from: usize, bytes: Nanos, now: Nanos) -> (Nanos, u32) {
        if let Some(m) = &self.metrics {
            m.record(self.link_of[from], bytes);
        }
        let link = &self.links[self.link_of[from]];
        let wire = self.cost.wire_ns(bytes);
        let Some(plan) = &self.faults else {
            return (link.acquire(now, wire), 1);
        };
        match plan.write_fault(from, self.link_of[from], now) {
            WriteFault::Deliver => (link.acquire(now, wire), 1),
            WriteFault::Drop => {
                // Link-level retransmission: the lost attempt burned its
                // bandwidth and a latency window before the adapter noticed
                // and resent. Ordered region traffic (directories, locks)
                // must stay reliable — the protocol's state machine assumes
                // it — so the drop costs virtual time instead of data.
                let lost = link.acquire(now, wire) + self.cost.mc_write_latency;
                (link.acquire(lost, wire), 1)
            }
            WriteFault::Duplicate => {
                let first = link.acquire(now, wire);
                (link.acquire(first, wire), 2)
            }
            WriteFault::Delay(d) => (link.acquire(now, wire) + d, 1),
            WriteFault::Outage(resume) => (link.acquire(resume.max(now), wire), 1),
        }
    }

    /// The single delivery loop every transmit flavor shares: charges the
    /// sending link for `bytes` of payload starting at `now` (through the
    /// fault-plan interposition of [`Self::reserve_link`]), then — under
    /// the region's order lock, so the transfer is atomic with respect to
    /// the region's global write order — invokes `deliver` once per attached
    /// receive copy (skipping `from`'s own copy unless the region has
    /// loop-back), twice when the fault plan duplicated the write (the
    /// stores are idempotent, so state is unchanged and only time and
    /// bandwidth are lost). Returns the time the write is globally
    /// performed.
    fn transmit(
        &self,
        region: &Region,
        from: usize,
        bytes: Nanos,
        now: Nanos,
        deliver: impl Fn(&[ModelAtomicU64]),
    ) -> Nanos {
        let (link_done, deliveries) = self.reserve_link(from, bytes, now);
        let done = link_done + self.cost.mc_write_latency;
        let _order = region.order.lock();
        for _ in 0..deliveries {
            for (e, slot) in region.rx.iter().enumerate() {
                if e == from && !region.loopback {
                    continue;
                }
                if let Some(buf) = slot.get() {
                    deliver(&buf[..]);
                }
            }
        }
        done
    }

    /// Writes one word through `from`'s transmit mapping.
    ///
    /// Delivers `val` to every attached receive copy (skipping `from`'s own
    /// copy unless the region has loop-back), charges latency plus link
    /// occupancy starting at `now`, and returns the time at which the write
    /// has been globally performed.
    pub fn write(&self, r: RegionId, from: usize, offset: usize, val: u64, now: Nanos) -> Nanos {
        self.write_block(r, from, offset, std::slice::from_ref(&val), now)
    }

    /// Writes a contiguous block through `from`'s transmit mapping.
    ///
    /// Same semantics as [`write`](Self::write); the block occupies the link
    /// for `8 × vals.len()` bytes and is delivered atomically with respect to
    /// the region's write order.
    ///
    /// # Panics
    ///
    /// Panics if the block extends past the end of the region.
    pub fn write_block(
        &self,
        r: RegionId,
        from: usize,
        offset: usize,
        vals: &[u64],
        now: Nanos,
    ) -> Nanos {
        let region = self.region(r);
        assert!(
            offset + vals.len() <= region.words,
            "write past end of region (offset {offset} + {} > {})",
            vals.len(),
            region.words
        );
        let bytes = (vals.len() * 8) as Nanos;
        self.transmit(region, from, bytes, now, |buf| {
            for (i, v) in vals.iter().enumerate() {
                buf[offset + i].store(*v, Ordering::Release);
            }
        })
    }

    /// Writes sparse words (index/value pairs) through `from`'s transmit
    /// mapping — the shape of a per-word outgoing diff. Delivered atomically
    /// with respect to the region's write order; the link is occupied for
    /// the diff payload (8 data bytes + 4 index bytes per word).
    pub fn write_sparse(
        &self,
        r: RegionId,
        from: usize,
        entries: &[(u32, u64)],
        now: Nanos,
    ) -> Nanos {
        let region = self.region(r);
        assert!(
            entries.iter().all(|&(i, _)| (i as usize) < region.words),
            "sparse write past end of region"
        );
        let bytes = (entries.len() * 12) as Nanos;
        self.transmit(region, from, bytes, now, |buf| {
            for &(i, v) in entries {
                buf[i as usize].store(v, Ordering::Release);
            }
        })
    }

    /// Writes a run-length-encoded diff through `from`'s transmit mapping:
    /// each `(start, values)` run lands as one blockwise copy per receive
    /// copy, instead of `write_sparse`'s word-at-a-time scatter.
    ///
    /// The link occupancy is identical to [`write_sparse`](Self::write_sparse)
    /// for the same word set — 12 bytes per dirty word — because the paper's
    /// diff wire format carries an index alongside every word; the cost is a
    /// property of *how many words changed*, not of how the simulator
    /// represents them (see DESIGN.md on virtual-time neutrality).
    ///
    /// # Panics
    ///
    /// Panics if any run extends past the end of the region.
    pub fn write_runs<'a, I>(&self, r: RegionId, from: usize, runs: I, now: Nanos) -> Nanos
    where
        I: Iterator<Item = (u32, &'a [u64])> + Clone,
    {
        let region = self.region(r);
        let mut words = 0usize;
        for (start, vals) in runs.clone() {
            assert!(
                start as usize + vals.len() <= region.words,
                "run write past end of region (start {start} + {} > {})",
                vals.len(),
                region.words
            );
            words += vals.len();
        }
        let bytes = (words * 12) as Nanos;
        self.transmit(region, from, bytes, now, |buf| {
            for (start, vals) in runs.clone() {
                for (k, v) in vals.iter().enumerate() {
                    buf[start as usize + k].store(*v, Ordering::Release);
                }
            }
        })
    }

    /// Reads a word from `endpoint`'s receive copy (an ordinary local memory
    /// read on real hardware; free of virtual-time cost).
    ///
    /// # Panics
    ///
    /// Panics if `endpoint` has no receive mapping for `r`.
    pub fn read_local(&self, r: RegionId, endpoint: usize, offset: usize) -> u64 {
        let region = self.region(r);
        let buf = region
            .rx_of(endpoint)
            .expect("read_local from endpoint without a receive mapping");
        buf[offset].load(Ordering::Acquire)
    }

    /// Direct access to `endpoint`'s receive buffer for region `r`, if
    /// mapped. Used by the protocol layer when home-node processors operate
    /// directly on the master copy of a page.
    pub fn rx_buffer(&self, r: RegionId, endpoint: usize) -> Option<RxBuffer> {
        let region = self.region(r);
        region.rx[endpoint].get()?;
        Some(RxBuffer {
            region: Arc::clone(region),
            endpoint,
        })
    }

    /// Reserves the physical link of endpoint `from` for `bytes` starting at
    /// `now` without writing data — used for modeled transfers whose payload
    /// is materialized by other means (e.g. page-fetch replies and diff
    /// flushes to master frames). Subject to the same fault interposition as
    /// the region transmit paths (a duplicated transfer burns the link
    /// twice; the payload side of duplication is handled by the protocol's
    /// sequence-numbered replies).
    pub fn charge_link(&self, from: usize, bytes: u64, now: Nanos) -> Nanos {
        let (link_done, _deliveries) = self.reserve_link(from, bytes, now);
        link_done + self.cost.mc_write_latency
    }

    /// Reserves the physical link of endpoint `from` for `bytes` starting
    /// at `now` and returns the time the transfer clears the link — *wire
    /// time only*, without the one-sided write-latency constant that
    /// [`charge_link`](Self::charge_link) adds. Direct-read backends
    /// (DESIGN.md §14) use this to charge a page pull as wire time plus
    /// their own read-completion latency. Subject to the same fault
    /// interposition and traffic counting as every other transmission.
    pub fn reserve(&self, from: usize, bytes: u64, now: Nanos) -> Nanos {
        self.reserve_link(from, bytes, now).0
    }

    /// Virtual-time schedule of a hierarchical (tree) broadcast: `from`
    /// forwards `bytes` of payload to every endpoint in `targets` through a
    /// `fanout`-ary forwarding tree instead of a flat per-target unicast
    /// loop. `from` transmits to the first `fanout` targets through its own
    /// physical link; each target, once its copy has arrived, forwards to
    /// its own `fanout` children (`targets[i]`'s children are
    /// `targets[fanout·(i+1) .. fanout·(i+2)]`) through *its* link. Every
    /// hop is a real link reservation (the same fault-interposed path as
    /// [`reserve`](Self::reserve)), so per-hop faults
    /// (drop/duplicate/delay/outage) and
    /// link contention are charged exactly like any other transmission,
    /// and the sender-side serialized cost is O(fanout) per level —
    /// O(log N) levels — instead of O(N).
    ///
    /// Returns the time the last target has received the payload (`now`
    /// when `targets` is empty). This is the modeled-transfer flavor (no
    /// data movement), the tree analogue of
    /// [`charge_link`](Self::charge_link); [`write_tree`](Self::write_tree)
    /// combines it with delivery.
    pub fn charge_tree(
        &self,
        from: usize,
        targets: &[usize],
        fanout: usize,
        bytes: u64,
        now: Nanos,
    ) -> Nanos {
        let fanout = fanout.max(1);
        let mut arrival = vec![0 as Nanos; targets.len()];
        let mut done = now;
        for i in 0..targets.len() {
            // Heap layout over [from, targets...]: target i's parent is
            // `from` for the first rank, else targets[i / fanout - 1].
            let (parent, start) = if i / fanout == 0 {
                (from, now)
            } else {
                let p = i / fanout - 1;
                (targets[p], arrival[p])
            };
            // Sibling sends serialize on the parent's link Resource: each
            // reservation queues behind the previous one automatically.
            let (link_done, _deliveries) = self.reserve_link(parent, bytes, start);
            arrival[i] = link_done + self.cost.mc_write_latency;
            done = done.max(arrival[i]);
        }
        done
    }

    /// Writes one word to every attached receive copy (skipping `from`'s
    /// own copy unless the region has loop-back) through a `fanout`-ary
    /// forwarding tree: the data lands exactly as with
    /// [`write`](Self::write) — once, under the region's order lock, so the
    /// global write order is preserved — but virtual time is charged per
    /// hop along the tree via [`charge_tree`](Self::charge_tree) instead of
    /// a single flat broadcast. Returns the time the *last* receiver holds
    /// the word.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is past the end of the region.
    pub fn write_tree(
        &self,
        r: RegionId,
        from: usize,
        offset: usize,
        val: u64,
        fanout: usize,
        now: Nanos,
    ) -> Nanos {
        let region = self.region(r);
        assert!(
            offset < region.words,
            "write past end of region (offset {offset} >= {})",
            region.words
        );
        let targets: Vec<usize> = (0..self.endpoints())
            .filter(|&e| e != from && region.rx[e].get().is_some())
            .collect();
        let done = self.charge_tree(from, &targets, fanout, 8, now);
        let _order = region.order.lock();
        for (e, slot) in region.rx.iter().enumerate() {
            if e == from && !region.loopback {
                continue;
            }
            if let Some(buf) = slot.get() {
                buf[offset].store(val, Ordering::Release);
            }
        }
        done
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

/// A handle to one endpoint's receive buffer of one region.
///
/// Reads and writes through the handle are ordinary local memory accesses on
/// the owning node (used for the home node's master page copies).
pub struct RxBuffer {
    region: std::sync::Arc<Region>,
    endpoint: usize,
}

impl RxBuffer {
    /// Number of words in the buffer.
    pub fn words(&self) -> usize {
        self.region.words
    }

    /// Loads word `offset`.
    #[inline]
    pub fn load(&self, offset: usize) -> u64 {
        // The mapping was verified to exist when the handle was created and
        // attachments are never removed.
        self.region.rx[self.endpoint].get().unwrap()[offset].load(Ordering::Acquire)
    }

    /// Stores `val` at word `offset`.
    #[inline]
    pub fn store(&self, offset: usize, val: u64) {
        self.region.rx[self.endpoint].get().unwrap()[offset].store(val, Ordering::Release);
    }

    /// Loads word `offset` with sequential consistency. Used for the sparse
    /// directory's claim/validate protocol, where the publish-then-check
    /// argument needs a single total order over the entry's change word
    /// (DESIGN.md §12) — plain acquire/release is not enough to forbid both
    /// racers missing each other's claim.
    #[inline]
    pub fn load_sc(&self, offset: usize) -> u64 {
        self.region.rx[self.endpoint].get().unwrap()[offset].load(Ordering::SeqCst)
    }

    /// Atomically adds `val` to word `offset`, returning the previous
    /// value (sequentially consistent — see [`load_sc`](Self::load_sc)).
    /// Host-side RMW on the owning node's copy: the home-shard directory
    /// service operates on its own memory, so this is an ordinary local
    /// atomic, not a Memory Channel transmission.
    #[inline]
    pub fn fetch_add(&self, offset: usize, val: u64) -> u64 {
        self.region.rx[self.endpoint].get().unwrap()[offset].fetch_add(val, Ordering::SeqCst)
    }

    /// Atomically replaces word `offset` with `new` if it currently holds
    /// `current` (sequentially consistent on both paths). Host-side RMW on
    /// the owning node's copy, like [`fetch_add`](Self::fetch_add).
    #[inline]
    pub fn compare_exchange(&self, offset: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.region.rx[self.endpoint].get().unwrap()[offset].compare_exchange(
            current,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc2() -> MemoryChannel {
        // Two endpoints on two physical links.
        TransportConfig::new(vec![0, 1], 2).build_channel()
    }

    #[test]
    fn write_is_delivered_to_attached_receivers_only() {
        let mc = mc2();
        let r = mc.create_region(16, false);
        mc.attach_rx(r, 1);
        mc.write(r, 0, 3, 42, 0);
        assert_eq!(mc.read_local(r, 1, 3), 42);
        assert!(mc.rx_buffer(r, 0).is_none());
    }

    #[test]
    fn no_loopback_means_writer_copy_is_stale_until_doubled() {
        let mc = mc2();
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 0);
        mc.attach_rx(r, 1);
        mc.write(r, 0, 0, 7, 0);
        assert_eq!(mc.read_local(r, 1, 0), 7, "remote copy updated");
        assert_eq!(
            mc.read_local(r, 0, 0),
            0,
            "own copy NOT updated without loop-back"
        );
        mc.rx_buffer(r, 0).unwrap().store(0, 7);
        assert_eq!(mc.read_local(r, 0, 0), 7, "manual doubling fixes it");
    }

    #[test]
    fn loopback_updates_writer_copy() {
        let mc = mc2();
        let r = mc.create_region(8, true);
        mc.attach_rx(r, 0);
        mc.attach_rx(r, 1);
        mc.write(r, 0, 2, 9, 0);
        assert_eq!(mc.read_local(r, 0, 2), 9);
        assert_eq!(mc.read_local(r, 1, 2), 9);
    }

    #[test]
    fn write_charges_latency_plus_bandwidth() {
        let mc = mc2();
        let c = CostModel::default();
        let r = mc.create_region(2048, false);
        mc.attach_rx(r, 1);
        let vals = vec![1u64; 1024]; // a full 8 KB page
        let done = mc.write_block(r, 0, 0, &vals, 0);
        assert_eq!(done, 8192 * c.mc_link_ns_per_byte + c.mc_write_latency);
        // A second transfer on the same link queues behind the first.
        let done2 = mc.write_block(r, 0, 1024, &vals, 0);
        assert_eq!(done2, 2 * 8192 * c.mc_link_ns_per_byte + c.mc_write_latency);
    }

    #[test]
    fn different_links_do_not_contend() {
        let mc = mc2();
        let r = mc.create_region(2048, false);
        mc.attach_rx(r, 0);
        mc.attach_rx(r, 1);
        let vals = vec![1u64; 1024];
        let a = mc.write_block(r, 0, 0, &vals, 0);
        let b = mc.write_block(r, 1, 0, &vals, 0);
        assert_eq!(a, b, "independent links run in parallel in virtual time");
    }

    #[test]
    fn sparse_write_applies_diff_entries() {
        let mc = mc2();
        let r = mc.create_region(1024, false);
        mc.attach_rx(r, 1);
        mc.write_sparse(r, 0, &[(5, 55), (900, 99)], 0);
        assert_eq!(mc.read_local(r, 1, 5), 55);
        assert_eq!(mc.read_local(r, 1, 900), 99);
        assert_eq!(mc.read_local(r, 1, 6), 0);
    }

    #[test]
    fn late_attachment_does_not_see_history() {
        let mc = mc2();
        let r = mc.create_region(4, false);
        mc.attach_rx(r, 1);
        mc.write(r, 0, 0, 1, 0);
        mc.attach_rx(r, 0);
        assert_eq!(
            mc.read_local(r, 0, 0),
            0,
            "mapping created after the write sees zeroes"
        );
        mc.write(r, 1, 0, 2, 0);
        assert_eq!(mc.read_local(r, 0, 0), 2);
    }

    #[test]
    fn rx_buffer_round_trips() {
        let mc = mc2();
        let r = mc.create_region(4, false);
        mc.attach_rx(r, 0);
        let buf = mc.rx_buffer(r, 0).unwrap();
        buf.store(1, 123);
        assert_eq!((buf.load(0), buf.load(1)), (0, 123));
        assert!(mc.rx_buffer(r, 1).is_none());
    }

    #[test]
    fn run_write_applies_each_run_as_a_block() {
        let mc = mc2();
        let r = mc.create_region(1024, false);
        mc.attach_rx(r, 1);
        let a = [1u64, 2, 3];
        let b = [9u64, 8];
        let runs = [(4u32, &a[..]), (700u32, &b[..])];
        mc.write_runs(r, 0, runs.iter().copied(), 0);
        assert_eq!(mc.read_local(r, 1, 4), 1);
        assert_eq!(mc.read_local(r, 1, 5), 2);
        assert_eq!(mc.read_local(r, 1, 6), 3);
        assert_eq!(mc.read_local(r, 1, 700), 9);
        assert_eq!(mc.read_local(r, 1, 701), 8);
        assert_eq!(mc.read_local(r, 1, 7), 0, "gap untouched");
        assert_eq!(mc.read_local(r, 1, 699), 0, "gap untouched");
    }

    #[test]
    fn run_write_costs_match_sparse_for_same_word_set() {
        let mc = mc2();
        let r = mc.create_region(1024, false);
        mc.attach_rx(r, 1);
        let sparse_done = mc.write_sparse(r, 0, &[(10, 1), (11, 2), (12, 3)], 0);
        let vals = [1u64, 2, 3];
        let runs = [(10u32, &vals[..])];
        // Fresh start time far past the first transfer so the link is idle.
        let t0 = 10 * sparse_done;
        let runs_done = mc.write_runs(r, 1, runs.iter().copied(), t0);
        assert_eq!(
            runs_done - t0,
            sparse_done,
            "RLE wire cost is representation-independent (12 B/word)"
        );
    }

    #[test]
    fn run_write_respects_loopback_rules() {
        let mc = mc2();
        let r = mc.create_region(16, false);
        mc.attach_rx(r, 0);
        mc.attach_rx(r, 1);
        let vals = [7u64];
        mc.write_runs(r, 0, [(3u32, &vals[..])].iter().copied(), 0);
        assert_eq!(mc.read_local(r, 1, 3), 7, "remote copy updated");
        assert_eq!(
            mc.read_local(r, 0, 3),
            0,
            "own copy stale without loop-back"
        );
    }

    #[test]
    #[should_panic(expected = "past end of region")]
    fn out_of_bounds_run_write_panics() {
        let mc = mc2();
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let vals = [1u64, 2, 3];
        mc.write_runs(r, 0, [(6u32, &vals[..])].iter().copied(), 0);
    }

    #[test]
    #[should_panic(expected = "past end of region")]
    fn out_of_bounds_write_panics() {
        let mc = mc2();
        let r = mc.create_region(4, false);
        mc.attach_rx(r, 1);
        mc.write(r, 0, 4, 1, 0);
    }

    // --- fault interposition --------------------------------------------

    use cashmere_faults::{FaultKind, FaultRule};

    fn mc2_with(plan: FaultPlan) -> MemoryChannel {
        TransportConfig::new(vec![0, 1], 2)
            .with_fault_plan(Some(Arc::new(plan)))
            .build_channel()
    }

    #[test]
    fn empty_plan_is_virtual_time_neutral() {
        let plain = mc2();
        let faulty = mc2_with(FaultPlan::new(1));
        for mc in [&plain, &faulty] {
            let r = mc.create_region(16, false);
            mc.attach_rx(r, 1);
        }
        let r = RegionId(0);
        for i in 0..8 {
            let now = i * 137;
            assert_eq!(
                plain.write(r, 0, 0, i, now),
                faulty.write(r, 0, 0, i, now),
                "zero-fault plan must not perturb completion times"
            );
        }
        assert_eq!(
            plain.charge_link(0, 8192, 0),
            faulty.charge_link(0, 8192, 0)
        );
    }

    #[test]
    fn dropped_write_is_retransmitted_and_costs_double() {
        let c = CostModel::default();
        let mc = mc2_with(FaultPlan::new(2).with_rule(FaultRule::new(FaultKind::DropWrite, 1.0)));
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let done = mc.write(r, 0, 3, 42, 0);
        // Lost attempt: wire + latency; retransmission: wire + latency.
        assert_eq!(done, 2 * (8 * c.mc_link_ns_per_byte + c.mc_write_latency));
        assert_eq!(mc.read_local(r, 1, 3), 42, "the retransmission delivers");
    }

    #[test]
    fn duplicated_write_charges_twice_but_state_is_idempotent() {
        let c = CostModel::default();
        let mc =
            mc2_with(FaultPlan::new(3).with_rule(FaultRule::new(FaultKind::DuplicateWrite, 1.0)));
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let done = mc.write(r, 0, 0, 7, 0);
        assert_eq!(done, 2 * 8 * c.mc_link_ns_per_byte + c.mc_write_latency);
        assert_eq!(mc.read_local(r, 1, 0), 7);
    }

    #[test]
    fn delayed_write_defers_completion_only() {
        let c = CostModel::default();
        let mc = mc2_with(
            FaultPlan::new(4)
                .with_rule(FaultRule::new(FaultKind::DelayWrite, 1.0).with_param_ns(5_000)),
        );
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let done = mc.write(r, 0, 0, 9, 0);
        assert_eq!(done, 8 * c.mc_link_ns_per_byte + c.mc_write_latency + 5_000);
        assert_eq!(mc.read_local(r, 1, 0), 9, "delivered, just late");
    }

    #[test]
    fn outage_stalls_transmission_to_epoch_end() {
        let c = CostModel::default();
        let plan = FaultPlan::new(5)
            .with_rule(FaultRule::new(FaultKind::LinkOutage, 1.0).with_param_ns(10_000));
        let mc = mc2_with(plan);
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let done = mc.write(r, 0, 0, 1, 2_500);
        assert_eq!(
            done,
            10_000 + 8 * c.mc_link_ns_per_byte + c.mc_write_latency,
            "write waits out the dark epoch"
        );
        assert_eq!(mc.read_local(r, 1, 0), 1);
    }

    #[test]
    fn reserve_is_wire_time_without_the_write_latency() {
        let c = CostModel::default();
        let mc = mc2();
        assert_eq!(mc.reserve(0, 8192, 0), 8192 * c.mc_link_ns_per_byte);
        // charge_link = the same reservation + the one-sided write latency
        // (endpoint 1 so the link is idle).
        assert_eq!(
            mc.charge_link(1, 8192, 0),
            8192 * c.mc_link_ns_per_byte + c.mc_write_latency
        );
    }

    #[test]
    fn reserve_sees_the_same_faults() {
        let c = CostModel::default();
        let mc = mc2_with(FaultPlan::new(7).with_rule(FaultRule::new(FaultKind::DropWrite, 1.0)));
        // Lost attempt: wire + latency window; retransmission: wire.
        assert_eq!(
            mc.reserve(0, 8192, 0),
            2 * 8192 * c.mc_link_ns_per_byte + c.mc_write_latency
        );
        assert!(mc.faults.as_ref().unwrap().stats().total() > 0);
    }

    #[test]
    fn charge_link_sees_the_same_faults() {
        let c = CostModel::default();
        let mc = mc2_with(FaultPlan::new(6).with_rule(FaultRule::new(FaultKind::DropWrite, 1.0)));
        let done = mc.charge_link(0, 8192, 0);
        assert_eq!(
            done,
            2 * (8192 * c.mc_link_ns_per_byte + c.mc_write_latency)
        );
        assert!(mc.faults.as_ref().unwrap().stats().total() > 0);
    }

    // --- observability --------------------------------------------------

    #[test]
    fn link_metrics_count_every_reservation_charge_free() {
        let metrics = Arc::new(LinkMetrics::new(2));
        let mc = TransportConfig::new(vec![0, 1], 2)
            .with_metrics(Some(Arc::clone(&metrics)))
            .build_channel();
        let plain = mc2();
        let r = mc.create_region(8, false);
        mc.attach_rx(r, 1);
        let rp = plain.create_region(8, false);
        plain.attach_rx(rp, 1);
        // One remote word write + one bulk charge, from different endpoints.
        let t1 = mc.write(r, 0, 0, 9, 0);
        let t2 = mc.charge_link(1, 4096, 0);
        assert_eq!(t1, plain.write(rp, 0, 0, 9, 0), "counting is charge-free");
        assert_eq!(t2, plain.charge_link(1, 4096, 0));
        let snap = metrics.snapshot();
        assert_eq!(snap[0].messages, 1);
        assert_eq!(snap[0].bytes, 8, "one 8-byte word");
        assert_eq!(snap[1].messages, 1);
        assert_eq!(snap[1].bytes, 4096);
    }

    // --- lock-free region table -----------------------------------------

    #[test]
    fn region_table_locate_is_a_bijection_over_buckets() {
        // Bucket i holds BUCKET0 << i slots; ids map in order with no gaps.
        let mut expected = 0usize..;
        for bucket in 0..6 {
            for slot in 0..(BUCKET0 << bucket) {
                let id = expected.next().unwrap();
                assert_eq!(RegionTable::locate(id), (bucket, slot), "id {id}");
            }
        }
    }

    #[test]
    fn region_table_survives_growth_across_buckets() {
        // Enough regions to fill several buckets (64 + 128 + 256 + …).
        let mc = mc2();
        let n = 600;
        let ids: Vec<RegionId> = (0..n).map(|_| mc.create_region(4, false)).collect();
        for (i, r) in ids.iter().enumerate() {
            assert_eq!(r.0, i, "ids are dense and in creation order");
            mc.attach_rx(*r, 1);
            mc.write(*r, 0, 0, i as u64 + 1, 0);
        }
        for (i, r) in ids.iter().enumerate() {
            assert_eq!(mc.read_local(*r, 1, 0), i as u64 + 1);
        }
    }

    #[test]
    fn region_table_lookup_races_creation() {
        // Readers resolve every id below a published high-water mark while a
        // creator keeps appending past bucket boundaries; any id at or below
        // the mark must resolve to its fully initialized region.
        let mc = Arc::new(mc2());
        let published = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let creator = {
                let mc = Arc::clone(&mc);
                let published = Arc::clone(&published);
                s.spawn(move || {
                    for _ in 0..300 {
                        let r = mc.create_region(1, false);
                        mc.attach_rx(r, 0);
                        mc.rx_buffer(r, 0).unwrap().store(0, r.0 as u64 + 1);
                        published.store(r.0 + 1, Ordering::Release);
                    }
                })
            };
            for _ in 0..2 {
                let mc = Arc::clone(&mc);
                let published = Arc::clone(&published);
                s.spawn(move || {
                    for i in 0..3000usize {
                        let hw = published.load(Ordering::Acquire);
                        if hw == 0 {
                            continue;
                        }
                        let id = i % hw;
                        assert_eq!(
                            mc.read_local(RegionId(id), 0, 0),
                            id as u64 + 1,
                            "published region must be fully initialized"
                        );
                    }
                });
            }
            creator.join().unwrap();
        });
    }

    // --- tree broadcast --------------------------------------------------

    fn mc_n(n: usize) -> MemoryChannel {
        // n endpoints, each on its own physical link.
        TransportConfig::new((0..n).collect(), n).build_channel()
    }

    #[test]
    fn write_tree_delivers_to_every_attached_copy_once() {
        let mc = mc_n(9);
        let r = mc.create_region(4, false);
        for e in 0..9 {
            mc.attach_rx(r, e);
        }
        mc.write_tree(r, 0, 2, 77, TREE_FANOUT, 0);
        for e in 1..9 {
            assert_eq!(mc.read_local(r, e, 2), 77, "endpoint {e}");
        }
        assert_eq!(mc.read_local(r, 0, 2), 0, "no loop-back: own copy stale");
    }

    #[test]
    fn single_target_tree_costs_exactly_one_hop() {
        let c = CostModel::default();
        let mc = mc_n(2);
        let done = mc.charge_tree(0, &[1], TREE_FANOUT, 12, 0);
        assert_eq!(
            done,
            12 * c.mc_link_ns_per_byte + c.mc_write_latency,
            "degenerate tree = one link reservation + latency (== charge_link)"
        );
        assert_eq!(
            mc.charge_tree(0, &[], TREE_FANOUT, 12, 5),
            5,
            "no targets, no charge"
        );
    }

    #[test]
    fn tree_fanout_caps_sender_side_serialization() {
        // 8 targets, fanout 4, page-sized payload: the root serializes only
        // 4 sends on its own link; targets 4..7 are forwarded by target 0 in
        // parallel with the root's later sends. Exact schedule: the root's
        // children arrive at i*hop + latency (i = 1..=4); target 0 (arrived
        // at hop + latency) forwards its 4 children serially, so the last
        // one lands at hop + latency + 4*hop + latency.
        let c = CostModel::default();
        let bytes = 8192u64; // one page
        let hop = bytes * c.mc_link_ns_per_byte;
        let mc = mc_n(9);
        let targets: Vec<usize> = (1..9).collect();
        let tree = mc.charge_tree(0, &targets, 4, bytes, 0);
        assert_eq!(tree, 5 * hop + 2 * c.mc_write_latency);
        // Flat unicast serializes all 8 sends on the root's link.
        let mc2 = mc_n(9);
        let mut flat = 0;
        for _ in 0..8 {
            flat = flat.max(mc2.charge_link(0, bytes, 0));
        }
        assert_eq!(flat, 8 * hop + c.mc_write_latency);
        assert!(
            tree < flat,
            "tree beats flat unicast once sender occupancy dominates latency"
        );
    }

    #[test]
    fn tree_hops_are_individually_fault_interposed() {
        // Every hop goes through reserve_link: with a 100% drop rule, each
        // of the hops on a root→child path is retransmitted, and the fault
        // counter sees one verdict per hop.
        let c = CostModel::default();
        let plan = FaultPlan::new(9).with_rule(FaultRule::new(FaultKind::DropWrite, 1.0));
        let mc = TransportConfig::new((0..6).collect(), 6)
            .with_fault_plan(Some(Arc::new(plan)))
            .build_channel();
        let r = mc.create_region(2, false);
        for e in 0..6 {
            mc.attach_rx(r, e);
        }
        let done = mc.write_tree(r, 0, 0, 5, 4, 0);
        for e in 1..6 {
            assert_eq!(mc.read_local(r, e, 0), 5, "retransmissions deliver");
        }
        assert_eq!(
            mc.faults.as_ref().unwrap().stats().total(),
            5,
            "one fault verdict per tree hop (5 targets = 5 hops)"
        );
        // Every hop pays its own drop-retransmit penalty, so the all-drops
        // schedule is strictly later than the fault-free one.
        let clean = mc_n(6);
        let rc = clean.create_region(2, false);
        for e in 0..6 {
            clean.attach_rx(rc, e);
        }
        let clean_done = clean.write_tree(rc, 0, 0, 5, 4, 0);
        assert!(
            done >= clean_done + 8 * c.mc_link_ns_per_byte + c.mc_write_latency,
            "dropped hops cost retransmission time (done={done}, clean={clean_done})"
        );
    }
}
