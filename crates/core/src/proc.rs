//! The public API: [`Cluster`] (build, allocate, seed, run) and [`Proc`]
//! (the per-processor handle applications program against).
//!
//! A `Cluster` owns the protocol [`Engine`] and the pools of application
//! synchronization objects. [`Cluster::run`] spawns one OS thread per
//! simulated processor, hands each a `Proc`, and collects a [`Report`]
//! (virtual execution time, Figure 6 time breakdown, Table 3 counters) when
//! all of them finish.
//!
//! ```
//! use cashmere_core::{Cluster, ProtocolKind, RunSpec, Topology};
//!
//! let spec = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
//! let mut cluster = Cluster::new(spec);
//! let counters = cluster.alloc(4);
//! let report = cluster.run(|p| {
//!     p.barrier(0);
//!     p.write_u64(counters + p.id(), p.id() as u64 + 1);
//!     p.barrier(0);
//! });
//! assert_eq!(cluster.read_u64(counters + 3), 4);
//! assert!(report.exec_ns > 0);
//! ```

use std::sync::Arc;

use cashmere_obs::{ObsReport, SpanKind};
use cashmere_sim::{Nanos, ProcId, TimeCategory};
use cashmere_vmpage::PAGE_WORDS;
use parking_lot::Mutex;

use crate::det::{DetScheduler, DetStats, QUANTUM_NS};
use crate::engine::{Engine, ProcCtx};
use crate::report::Report;
use crate::run::RunSpec;
use crate::sync::{CarrierBarrier, CarrierFlag, CarrierLock};
use crate::trace::{ProtocolEvent, Trace};
use crate::Addr;

/// Synchronization-object pools shared by all processors.
struct SyncPools {
    locks: Vec<CarrierLock>,
    barriers: Vec<CarrierBarrier>,
    flags: Vec<CarrierFlag>,
}

/// A simulated cluster, ready to allocate shared memory and run programs.
pub struct Cluster {
    engine: Arc<Engine>,
    pools: Arc<SyncPools>,
    next_word: usize,
    det_stats: Mutex<DetStats>,
}

impl Cluster {
    /// Builds the cluster `spec` describes.
    pub fn new(spec: RunSpec) -> Self {
        let sync = spec.sync;
        let pools = Arc::new(SyncPools {
            locks: (0..sync.locks).map(|_| CarrierLock::default()).collect(),
            barriers: (0..sync.barriers)
                .map(|_| CarrierBarrier::default())
                .collect(),
            flags: (0..sync.flags).map(|_| CarrierFlag::default()).collect(),
        });
        Self {
            engine: Engine::new(spec),
            pools,
            next_word: 0,
            det_stats: Mutex::new(DetStats::default()),
        }
    }

    /// The spec in force.
    pub fn config(&self) -> &RunSpec {
        self.engine.config()
    }

    /// The protocol engine (exposed for tests that drive protocol
    /// operations deterministically).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Allocates `words` contiguous 64-bit words of shared memory and
    /// returns the base address.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted.
    pub fn alloc(&mut self, words: usize) -> Addr {
        let base = self.next_word;
        self.next_word += words;
        assert!(
            self.next_word <= self.config().heap_pages * PAGE_WORDS,
            "shared heap exhausted: need {} words, have {}",
            self.next_word,
            self.config().heap_pages * PAGE_WORDS
        );
        base
    }

    /// Allocates `words` of shared memory starting on a fresh page boundary
    /// (useful to give an array its own pages and control false sharing).
    pub fn alloc_page_aligned(&mut self, words: usize) -> Addr {
        if !self.next_word.is_multiple_of(PAGE_WORDS) {
            let pad = PAGE_WORDS - self.next_word % PAGE_WORDS;
            self.alloc(pad);
        }
        self.alloc(words)
    }

    /// Seeds initial data into the master copy of `addr` before the run —
    /// models pre-parallel-phase initialization without perturbing the
    /// first-touch home heuristic.
    pub fn seed_u64(&self, addr: Addr, val: u64) {
        self.engine.seed_word(addr, val);
    }

    /// Seeds an `f64` (stored via its bit pattern).
    pub fn seed_f64(&self, addr: Addr, val: f64) {
        self.engine.seed_word(addr, val.to_bits());
    }

    /// Reads back the authoritative post-run value at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.engine.read_back(addr)
    }

    /// Reads back a run of consecutive words (bulk [`Self::read_u64`]; one
    /// directory lookup per page instead of per word).
    pub fn read_back_run(&self, addr: Addr, out: &mut [u64]) {
        self.engine.read_back_run(addr, out);
    }

    /// Reads back an `f64`.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.engine.read_back(addr))
    }

    /// Takes the protocol event trace accumulated so far (empty unless the
    /// cluster was built with [`RunSpec::audit`] set). Feed it to
    /// `cashmere_check::audit` to verify the run's coherence invariants.
    pub fn take_trace(&self) -> Trace {
        self.engine.recorder().map(|r| r.take()).unwrap_or_default()
    }

    /// Runs `f` on every simulated processor (one OS thread each) and
    /// returns the run's [`Report`]. Each processor gets an implicit final
    /// release so all its modifications reach the home copies. Flags set by
    /// an earlier run on this cluster start unset.
    ///
    /// With [`RunSpec::with_det_parallel`], the processors advance
    /// under the deterministic parallel scheduler (DESIGN.md §15): at most
    /// that many host workers run concurrently, every protocol/sync
    /// boundary is serialized in (virtual time, processor id) order, and
    /// the returned `Report` is byte-identical at every worker count. The
    /// scheduler is the only difference between the two engines here.
    pub fn run<F>(&self, f: F) -> Report
    where
        F: Fn(&mut Proc) + Sync,
    {
        for flag in &self.pools.flags {
            flag.clear();
        }
        let n = self.config().topology.total_procs();
        let sched = self
            .config()
            .det_workers
            .map(|workers| Arc::new(DetScheduler::new(n, workers, QUANTUM_NS)));
        let results: Vec<ProcCtx> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|p| {
                    let engine = Arc::clone(&self.engine);
                    let pools = Arc::clone(&self.pools);
                    let det = sched.as_ref().map(|sched| sched.handle(p));
                    let f = &f;
                    s.spawn(move || {
                        let mut proc = Proc::new(engine, pools, ProcId(p));
                        if let Some(h) = det {
                            // Start barrier: no processor computes until
                            // every context exists, so window 0 opens
                            // identically at any worker count.
                            h.start();
                            proc.ctx.set_det(h);
                        }
                        f(&mut proc);
                        proc.finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulated processor panicked"))
                .collect()
        });
        if let Some(sched) = &sched {
            *self.det_stats.lock() = sched.stats();
        }
        self.collect_report(&results)
    }

    /// Scheduler traffic of this cluster's last deterministic run (all
    /// zero if there was none). Kept off [`Report`], whose
    /// bytes are the same at every worker count; `wakes` need not be.
    #[doc(hidden)]
    pub fn det_stats(&self) -> DetStats {
        *self.det_stats.lock()
    }

    /// Sums the finished processors' numbers: each tally is folded into
    /// the engine-held totals (so a second run reports cluster totals),
    /// which become `counters` and, per requesting node, `recovery`.
    fn collect_report(&self, results: &[ProcCtx]) -> Report {
        for ctx in results {
            self.engine.absorb(ctx);
        }
        let mut report = Report::build(
            self.engine.config(),
            self.engine.counters(),
            results.iter().map(|ctx| &ctx.clock),
        )
        .with_recovery(self.engine.recovery_summary());
        if self.config().obs {
            let mut obs = ObsReport::new();
            for po in results.iter().filter_map(|ctx| ctx.obs.as_deref()) {
                obs.merge_proc(po);
            }
            if let Some(lm) = self.engine.link_metrics() {
                obs.links = lm.snapshot();
            }
            report = report.with_obs(obs);
        }
        report
    }
}

/// A simulated processor's handle: shared-memory accesses, synchronization,
/// and compute-time accounting. One per processor, owned by its thread.
pub struct Proc {
    engine: Arc<Engine>,
    pools: Arc<SyncPools>,
    ctx: ProcCtx,
    /// Reusable bit-pattern buffer for the `f64` run accessors.
    scratch: Vec<u64>,
}

impl Proc {
    fn new(engine: Arc<Engine>, pools: Arc<SyncPools>, id: ProcId) -> Self {
        let ctx = engine.make_ctx(id);
        Self {
            engine,
            pools,
            ctx,
            scratch: Vec::new(),
        }
    }

    /// Cluster-wide processor id, `0..nprocs()`.
    pub fn id(&self) -> usize {
        self.ctx.id.0
    }

    /// Total processors in the run.
    pub fn nprocs(&self) -> usize {
        self.engine.config().topology.total_procs()
    }

    /// Physical node index of this processor.
    pub fn node(&self) -> usize {
        self.ctx.phys
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.ctx.clock.now()
    }

    // --- Shared-memory accesses -------------------------------------

    /// Reads the shared 64-bit word at `addr`.
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        self.engine.read_word(&mut self.ctx, addr)
    }

    /// Writes the shared 64-bit word at `addr`.
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        self.engine.write_word(&mut self.ctx, addr, val);
    }

    /// Reads the shared `f64` at `addr`.
    pub fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes the shared `f64` at `addr`.
    pub fn write_f64(&mut self, addr: Addr, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Reads `out.len()` consecutive shared words starting at `addr`.
    /// Virtual time and values are identical to the equivalent
    /// [`Self::read_u64`] loop; the wall cost is one fault check and one
    /// bulk charge per page touched.
    pub fn read_run_u64(&mut self, addr: Addr, out: &mut [u64]) {
        self.engine.read_run(&mut self.ctx, addr, out);
    }

    /// Writes `vals` to consecutive shared words starting at `addr`
    /// (run-granular [`Self::write_u64`]; virtual time identical).
    pub fn write_run_u64(&mut self, addr: Addr, vals: &[u64]) {
        self.engine.write_run(&mut self.ctx, addr, vals);
    }

    /// [`Self::read_run_u64`] for `f64` values.
    pub fn read_run_f64(&mut self, addr: Addr, out: &mut [f64]) {
        self.scratch.clear();
        self.scratch.resize(out.len(), 0);
        self.engine.read_run(&mut self.ctx, addr, &mut self.scratch);
        for (o, &w) in out.iter_mut().zip(&self.scratch) {
            *o = f64::from_bits(w);
        }
    }

    /// [`Self::write_run_u64`] for `f64` values.
    pub fn write_run_f64(&mut self, addr: Addr, vals: &[f64]) {
        self.scratch.clear();
        self.scratch.extend(vals.iter().map(|v| v.to_bits()));
        self.engine.write_run(&mut self.ctx, addr, &self.scratch);
    }

    /// Charges `ns` of application compute time (private computation that
    /// touches no shared words).
    pub fn compute(&mut self, ns: Nanos) {
        self.engine.compute(&mut self.ctx, ns);
    }

    // --- Synchronization ---------------------------------------------

    /// Emits a synchronization event when auditing is enabled.
    fn trace(&self, ev: impl FnOnce() -> ProtocolEvent) {
        if let Some(r) = self.engine.recorder() {
            r.emit(ev());
        }
    }

    /// Acquires application lock `l`, then performs the protocol's acquire
    /// consistency actions (§2.4.2).
    pub fn lock(&mut self, l: usize) {
        self.ctx.obs_begin(SpanKind::Lock, l as i64);
        self.ctx.tally.counters.lock_acquires += 1;
        // Under the deterministic scheduler the acquire is a gate
        // (DESIGN.md §15): contenders block in the scheduler and are
        // re-granted in (virtual time, processor id) order at each release.
        self.ctx.gate_enter();
        let vt = self.pools.locks[l].acquire(&self.ctx, l, self.engine.lock_cost());
        self.ctx.gate_exit();
        self.ctx.clock.wait_until(vt);
        // Consumer: emitted after the carrier grant, so it is sequenced
        // after the previous holder's LockRelease.
        self.trace(|| ProtocolEvent::LockAcquire {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            lock: l,
        });
        self.engine.acquire_actions(&mut self.ctx);
        self.ctx.obs_end(SpanKind::Lock);
    }

    /// Performs the protocol's release consistency actions (§2.4.3), then
    /// releases application lock `l`.
    pub fn unlock(&mut self, l: usize) {
        self.engine.release_actions(&mut self.ctx);
        // Producer: emitted after the consistency actions but before the
        // carrier hand-off, so the next holder's LockAcquire follows it.
        self.trace(|| ProtocolEvent::LockRelease {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            lock: l,
        });
        self.ctx.gate_enter();
        self.pools.locks[l].release(&self.ctx, l);
        self.ctx.gate_exit();
    }

    /// Crosses application barrier `b` (all processors participate): a
    /// release on arrival, the two-level rendezvous, and an acquire on
    /// departure (§2.3, §2.4).
    pub fn barrier(&mut self, b: usize) {
        self.ctx.obs_begin(SpanKind::Barrier, b as i64);
        self.engine.release_actions(&mut self.ctx);
        // Producer: arrival is the release half of the crossing; emit before
        // the rendezvous so every departure is sequenced after it.
        self.trace(|| ProtocolEvent::BarrierArrive {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            barrier: b,
        });
        // Under the deterministic scheduler arrivals are gates ordered by
        // (virtual time, processor id); early arrivers block in the
        // scheduler until the last arrival completes the episode.
        self.ctx.gate_enter();
        let crossing =
            self.pools.barriers[b].wait(&self.ctx, b, self.nprocs(), self.barrier_cost());
        self.ctx.gate_exit();
        if crossing.was_last {
            self.ctx.tally.counters.barriers += 1;
        }
        // Consumer: emitted after the rendezvous completes; `epoch` lets the
        // auditor pair every departure with its episode's arrivals.
        self.trace(|| ProtocolEvent::BarrierDepart {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            barrier: b,
            epoch: crossing.epoch,
        });
        self.ctx.clock.wait_until(crossing.departure_vt);
        self.engine.acquire_actions(&mut self.ctx);
        self.ctx.obs_end(SpanKind::Barrier);
    }

    /// Sets application flag `fl` (release semantics).
    pub fn flag_set(&mut self, fl: usize) {
        self.engine.release_actions(&mut self.ctx);
        // Producer: emitted before the carrier set, so waiters' FlagWait
        // events are sequenced after it.
        self.trace(|| ProtocolEvent::FlagSet {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            flag: fl,
        });
        self.ctx.gate_enter();
        self.pools.flags[fl].set(&self.ctx, fl);
        self.ctx.gate_exit();
    }

    /// Waits for application flag `fl` (acquire semantics).
    pub fn flag_wait(&mut self, fl: usize) {
        self.ctx.obs_begin(SpanKind::Flag, fl as i64);
        self.ctx.tally.counters.lock_acquires += 1;
        self.ctx.gate_enter();
        let vt = self.pools.flags[fl].wait(&self.ctx, fl);
        self.ctx.gate_exit();
        // Consumer: emitted after the wait observed the set.
        self.trace(|| ProtocolEvent::FlagWait {
            proc: self.ctx.id.0,
            pnode: self.ctx.pnode,
            flag: fl,
        });
        self.ctx.clock.wait_until(vt);
        self.ctx
            .clock
            .charge(TimeCategory::CommWait, self.engine.lock_cost());
        self.engine.acquire_actions(&mut self.ctx);
        self.ctx.obs_end(SpanKind::Flag);
    }

    // --- Accounting -----------------------------------------------------

    /// Records one request's sojourn (arrival-to-completion) latency into
    /// the observability histograms (`Report::obs`, `sojourn_ns`). Used by
    /// the trace-driven service applications (DESIGN.md §13); a no-op when
    /// observability is off — like every obs hook it never charges the
    /// clock, so recording cannot perturb virtual time.
    pub fn record_sojourn(&mut self, ns: Nanos) {
        if let Some(o) = &mut self.ctx.obs {
            o.metrics.sojourn_ns.record(ns);
        }
    }

    fn barrier_cost(&self) -> Nanos {
        let (cfg, cost) = (self.engine.config(), self.engine.cost());
        if cfg.protocol.is_two_level() {
            cost.barrier_two_level(cfg.topology.nodes())
        } else {
            cost.barrier_one_level(cfg.topology.total_procs())
        }
    }

    /// Final release + accounting settlement; hands back the processor's
    /// context — its clock, its tally, its protocol node and (when
    /// observability is on) its finished observability state. Called
    /// automatically at the end of [`Cluster::run`].
    fn finish(mut self) -> ProcCtx {
        self.engine.release_actions(&mut self.ctx);
        self.engine.settle(&mut self.ctx);
        if let Some(o) = &mut self.ctx.obs {
            o.finish(&self.ctx.clock);
        }
        self.ctx.det_finish();
        self.ctx
    }
}
