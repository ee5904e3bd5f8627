//! Deterministic parallel execution inside a run (DESIGN.md §15).
//!
//! A conservative virtual-time scheduler: simulated processors run
//! concurrently on up to `workers` host threads, but only through *local*
//! segments (compute, non-faulting mapped accesses), and only up to the
//! shared lookahead horizon ([`HorizonClock`]). Everything that touches
//! shared protocol state — page faults, bus/link settles, release/acquire
//! actions, lock/barrier/flag carriers — is a **gate**: the processor parks
//! and the gate body executes only when every peer is parked, one gate at a
//! time, in ascending `(virtual time, proc id, per-proc seq)` order.
//!
//! The schedule is defined one quantum ([`QUANTUM_NS`]) at a time: a
//! window's gates run once every processor inside it has parked at its end
//! or at a gate. Windows that close with no gate granted make the next one
//! wider (up to `MAX_WINDOW_QUANTA`, 32 quanta), so gate-free stretches
//! cost one release instead of one per quantum. The gate order stays the
//! quantum schedule's: each gate carries its processor's *position* (the
//! virtual time of its last checkpoint or gate exit), a widened window's
//! first gate phase pulls the horizon back to the end of the quantum that
//! holds the earliest position, and gates positioned beyond it are deferred
//! until a window covers them (DESIGN.md §15.2).
//!
//! Determinism argument (the full version is DESIGN.md §15): every
//! scheduling decision — which gate runs next, where the next window ends,
//! where a widened one retreats to, which processors it releases — is a
//! pure function of the multiset of parked states, never of host timing or
//! the worker count. Shared protocol
//! state is mutated only inside gates, and gates run only when no processor
//! is free-running, so the frozen-state a free-running segment reads is the
//! same under any host interleaving. The worker bound changes only *when*
//! released processors run their (purely local) segments, not what those
//! segments compute. Hence the same config + seed produces byte-identical
//! [`Report`](crate::Report)s at any worker count — gated by
//! `scripts/gate.sh detpar`.
//!
//! The scheduler hands turns over directly: one mutex guards the
//! parked-state bookkeeping, and every processor sleeps on its own
//! [`WakeSlot`]. Whoever makes a scheduling decision records, under the
//! mutex, exactly which processors it set `Running`, drops the mutex, and
//! wakes those and nobody else; a processor that released itself wakes
//! nobody and does not sleep. A processor becomes `Running` only when the
//! coordinator has put it inside a window (or granted its gate), so being
//! woken already implies the horizon has passed its virtual time — there is
//! no separate sleep on the horizon. The lock-free [`HorizonClock`] remains
//! the fast path consulted at every operation entry
//! ([`DetHandle::checkpoint`]). Each processor's thread binds its slot in
//! [`DetHandle::start`], before the mutex makes it visible to any waker;
//! the slot's flag-then-unpark protocol is the model-checked piece — see
//! `model_scenarios::handoff_wakeup`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use cashmere_sim::{HorizonClock, Nanos, WakeSlot};
use parking_lot::{Mutex, MutexGuard};

/// What a blocked processor is waiting on, keyed by carrier pool index.
/// `unblock_all` with the same key re-arms matching waiters as pending
/// gates at their original virtual time (with a fresh seq, so re-tries
/// order deterministically after first arrivals): every waiter of a barrier
/// or a flag, the earliest waiter of a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKey {
    /// Waiting for `CarrierLock` *index* to be released.
    Lock(usize),
    /// Waiting for the current episode of `CarrierBarrier` *index*.
    Barrier(usize),
    /// Waiting for `CarrierFlag` *index* to be set.
    Flag(usize),
}

/// Per-processor scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Released: free-running a local segment (or executing its gate, if
    /// `granted` names it).
    Running,
    /// Parked at an operation entry at this virtual time (horizon reached,
    /// or re-parked after a gate) — runnable local work pending.
    Parked(Nanos),
    /// Parked at a gate entry: `(vt, seq)`; runs when granted.
    AtGate(Nanos, u64),
    /// A gate entered beyond the end a widened window retreated to:
    /// `(vt, seq)`. Counts as parked at its position (`DetState::pos`) until
    /// a window covers that, then is an `AtGate` again.
    Deferred(Nanos, u64),
    /// Blocked inside a gate on a carrier; re-armed by `unblock_all`.
    Blocked(Nanos, WaitKey),
    /// Ran to completion.
    Finished,
}

/// Scheduler traffic counts for one run. All but `wakes` are pure functions
/// of the schedule, hence equal at every worker count; `wakes` counts the
/// slot wake-ups actually issued (a self-release costs none).
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetStats {
    /// Horizon parks at operation entries (including the start barrier).
    pub parks: u64,
    /// Gate entries.
    pub gates: u64,
    /// Carrier blocks from inside a gate.
    pub blocks: u64,
    /// Windows opened.
    pub windows: u64,
    /// Windows opened more than one quantum wide.
    pub widened: u64,
    /// Gates deferred when a widened window retreated.
    pub deferred: u64,
    /// Wake-ups issued to other processors' slots.
    pub wakes: u64,
}

#[derive(Debug)]
struct DetState {
    procs: Vec<PState>,
    /// Per-proc gate sequence numbers (third tie-break component).
    seq: Vec<u64>,
    /// Per-proc gate position: where the processor's last checkpoint or
    /// gate exit left it when it entered its current gate. Decides which
    /// quantum's gate phase grants the gate.
    pos: Vec<Nanos>,
    /// The next window's width in quanta: doubled by each window that
    /// closes with no gate granted (up to [`MAX_WINDOW_QUANTA`]), one after
    /// any gate.
    width: Nanos,
    /// A gate was granted since the last window opened.
    gated: bool,
    /// The current window is widened and has not had a gate phase yet.
    wide: bool,
    /// Released processors that have not parked again (includes the granted
    /// one). All scheduling decisions happen at `runners == 0`.
    runners: usize,
    /// The processor currently granted exclusive gate execution.
    granted: Option<usize>,
    /// Window-eligible processors awaiting a free worker slot, in
    /// deterministic `(vt, id)` order.
    release_queue: VecDeque<usize>,
    finished: usize,
    /// The processors the decision in progress set `Running`, for the
    /// deciding thread to wake once it has dropped the lock. Never holds
    /// more than `workers` entries; swapped against the decider's own
    /// empty buffer, so the steady state allocates nothing.
    handoff: Vec<usize>,
    /// Scratch for the coordinator's window sort.
    parked: Vec<(Nanos, usize)>,
    stats: DetStats,
}

impl DetState {
    fn release(&mut self, p: usize) {
        self.procs[p] = PState::Running;
        self.runners += 1;
        self.handoff.push(p);
    }

    /// Re-arms blocked processor `p` as a pending gate at `vt`.
    fn rearm(&mut self, p: usize, vt: Nanos) {
        self.seq[p] += 1;
        self.procs[p] = PState::AtGate(vt, self.seq[p]);
    }

    /// The earliest pending gate by `(vt, id, seq)`.
    fn next_gate(&self) -> Option<usize> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match *s {
                PState::AtGate(vt, seq) => Some((vt, p, seq)),
                _ => None,
            })
            .min()
            .map(|(_, p, _)| p)
    }
}

/// The lookahead window every run uses, in virtual nanoseconds: coarse
/// enough that a window spans many operations of every paper app, fine
/// enough to keep processors' virtual times loosely synchronized at
/// protocol boundaries.
pub const QUANTUM_NS: Nanos = 50_000;

/// The widest window, in quanta (1.6 ms at [`QUANTUM_NS`]): how far a
/// gate-free stretch lets windows grow.
const MAX_WINDOW_QUANTA: Nanos = 32;

/// The conservative virtual-time scheduler for one run.
pub struct DetScheduler {
    state: Mutex<DetState>,
    /// Where each processor sleeps while it is not `Running`.
    slots: Vec<WakeSlot>,
    horizon: HorizonClock,
    nprocs: usize,
    workers: usize,
    /// The deadlock diagnosis, set once by the coordinator that detects it;
    /// every waiter leaves its wait with it as a panic, so the run aborts
    /// instead of hanging.
    aborted: OnceLock<String>,
}

impl DetScheduler {
    /// A scheduler for `nprocs` processors multiplexed onto at most
    /// `workers` concurrently running host threads, with windows of
    /// `quantum_ns` virtual nanoseconds.
    #[must_use]
    pub fn new(nprocs: usize, workers: usize, quantum_ns: Nanos) -> Self {
        let workers = workers.max(1);
        Self {
            state: Mutex::new(DetState {
                procs: vec![PState::Running; nprocs],
                seq: vec![0; nprocs],
                pos: vec![0; nprocs],
                width: 1,
                gated: true,
                wide: false,
                runners: nprocs,
                granted: None,
                release_queue: VecDeque::with_capacity(nprocs),
                finished: 0,
                handoff: Vec::with_capacity(workers.min(nprocs)),
                parked: Vec::with_capacity(nprocs),
                stats: DetStats::default(),
            }),
            slots: (0..nprocs).map(|_| WakeSlot::new()).collect(),
            horizon: HorizonClock::new(quantum_ns),
            nprocs,
            workers,
            aborted: OnceLock::new(),
        }
    }

    /// The worker bound.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The run's scheduler traffic so far.
    #[doc(hidden)]
    #[must_use]
    pub fn stats(&self) -> DetStats {
        self.state.lock().stats
    }

    /// A per-processor handle for embedding in the engine's `ProcCtx`.
    #[must_use]
    pub fn handle(self: &Arc<Self>, id: usize) -> DetHandle {
        DetHandle {
            sched: Arc::clone(self),
            id,
            pos: Cell::new(0),
            woken: Cell::new(Vec::with_capacity(self.workers.min(self.nprocs))),
        }
    }

    /// The per-op fast path: one atomic horizon load (see the hotpath rows).
    #[inline]
    fn must_park(&self, vt: Nanos) -> bool {
        self.horizon.past(vt)
    }

    /// One released processor, `me`, has parked (in whatever state the
    /// caller just recorded): refill its worker slot from the release queue,
    /// and run the coordinator if it was the last runner.
    fn retire_runner(&self, st: &mut DetState, me: usize) {
        st.runners -= 1;
        while st.runners < self.workers {
            let Some(p) = st.release_queue.pop_front() else {
                break;
            };
            st.release(p);
        }
        if st.runners == 0 {
            self.coordinate(st, me);
        }
    }

    /// The scheduling decision point, reached only when every processor is
    /// parked; `me` is the processor deciding. Everything here is a pure
    /// function of the parked multiset.
    fn coordinate(&self, st: &mut DetState, me: usize) {
        debug_assert_eq!(st.runners, 0);
        debug_assert!(st.granted.is_none());
        debug_assert!(st.release_queue.is_empty());

        if st.next_gate().is_none() {
            self.open_window(st, me);
            if st.runners > 0 || st.finished == self.nprocs {
                return;
            }
            // The window covers deferred gates and no parked processor.
        }
        if std::mem::take(&mut st.wide) {
            self.retreat(st);
        }
        // Drain pending gates, earliest (vt, id, seq) first.
        let p = st.next_gate().expect("a gate phase has a pending gate");
        st.gated = true;
        st.granted = Some(p);
        st.release(p);
    }

    /// No gate pending: opens the next window over the parked processors
    /// and the deferred gates, and releases the processors it covers —
    /// `me` first, so a decider that runs on wakes nobody for itself.
    fn open_window(&self, st: &mut DetState, me: usize) {
        let mut parked = std::mem::take(&mut st.parked);
        parked.clear();
        parked.extend(st.procs.iter().enumerate().filter_map(|(p, s)| match *s {
            PState::Parked(vt) => Some((vt, p)),
            _ => None,
        }));
        parked.sort_unstable();
        let first_deferred = (0..self.nprocs)
            .filter(|&p| matches!(st.procs[p], PState::Deferred(..)))
            .map(|p| st.pos[p])
            .min();
        let first_parked = parked.first().map(|&(vt, _)| vt);
        let Some(min_vt) = first_parked.into_iter().chain(first_deferred).min() else {
            if st.finished == self.nprocs {
                // The run is over; nothing is left to schedule.
                return;
            }
            self.abort_deadlocked(st);
        };
        st.wide = false;
        if self.horizon.past(min_vt) {
            // Gate-free windows double the next one; any gate resets it.
            st.width = if st.gated {
                1
            } else {
                (2 * st.width).min(MAX_WINDOW_QUANTA)
            };
            let first = self.horizon.quantum_end(min_vt);
            let mut end = first + (st.width - 1) * self.horizon.quantum();
            // A known gate bounds the window: the first gate phase would
            // pull the end back to its quantum anyway.
            if let Some(pos) = first_deferred {
                end = end.min(self.horizon.quantum_end(pos));
            }
            self.horizon.set_end(end);
            st.wide = end > first;
            st.stats.widened += u64::from(st.wide);
        }
        st.gated = false;
        let end = self.horizon.end();
        for p in 0..self.nprocs {
            if let PState::Deferred(vt, seq) = st.procs[p] {
                if st.pos[p] < end {
                    st.procs[p] = PState::AtGate(vt, seq);
                }
            }
        }
        // Beyond the window: stays parked for a later one.
        let covers_me = matches!(st.procs[me], PState::Parked(vt) if vt < end);
        if covers_me {
            st.release(me);
        }
        for &(_, p) in parked.iter().take_while(|&&(vt, _)| vt < end) {
            if p == me {
                continue;
            }
            if st.runners < self.workers {
                st.release(p);
            } else {
                st.release_queue.push_back(p);
            }
        }
        st.stats.windows += 1;
        st.parked = parked;
    }

    /// The first gate phase of a widened window: gates are granted in the
    /// quantum schedule's order, so the window ends after all with the
    /// quantum that holds the earliest gate position. Every processor is
    /// parked, so the horizon may move back; gates positioned beyond it are
    /// deferred until a window covers them.
    fn retreat(&self, st: &mut DetState) {
        let first = (0..self.nprocs)
            .filter(|&p| matches!(st.procs[p], PState::AtGate(..)))
            .map(|p| st.pos[p])
            .min()
            .expect("a gate phase has a pending gate");
        let end = self.horizon.quantum_end(first);
        if end >= self.horizon.end() {
            return;
        }
        self.horizon.set_end(end);
        for p in 0..self.nprocs {
            if let PState::AtGate(vt, seq) = st.procs[p] {
                if st.pos[p] >= end {
                    st.procs[p] = PState::Deferred(vt, seq);
                    st.stats.deferred += 1;
                }
            }
        }
    }

    /// Leaves a wait: if the coordinator aborted the run meanwhile, with
    /// its diagnosis as a panic.
    fn check_abort(&self) {
        if let Some(diagnosis) = self.aborted.get() {
            panic!("{diagnosis}");
        }
    }

    /// No gate pending, nobody parked, not everyone finished: the remaining
    /// processors are blocked on carriers nobody will ever signal. Wake
    /// every waiter into a panic (instead of hanging the run) and report
    /// who waits on what.
    fn abort_deadlocked(&self, st: &DetState) -> ! {
        let waiters: Vec<String> = (0..self.nprocs)
            .filter_map(|p| match st.procs[p] {
                PState::Blocked(vt, key) => Some(format!("proc {p} blocked on {key:?} at vt {vt}")),
                _ => None,
            })
            .collect();
        let diagnosis = format!(
            "deterministic scheduler deadlock: no runnable processor \
             ({}/{} finished; {})",
            st.finished,
            self.nprocs,
            waiters.join(", ")
        );
        // Only the coordinator gets here, under the state lock: the set
        // cannot race.
        let _ = self.aborted.set(diagnosis.clone());
        for slot in &self.slots {
            slot.wake();
        }
        panic!("{diagnosis}");
    }

    // -- microbench probes (charge-free host machinery; see `hotpath`) ----

    /// The checkpoint fast path, exposed for the hotpath rows.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_horizon_check(&self, vt: Nanos) -> bool {
        self.must_park(vt)
    }

    /// The coordinator's grant selection over the current parked multiset,
    /// exposed for the hotpath rows: `coordinate`'s grant scan, changing
    /// nothing.
    #[doc(hidden)]
    #[must_use]
    pub fn bench_grant_scan(&self) -> Option<usize> {
        self.state.lock().next_gate()
    }

    /// Seeds proc `p` as a pending gate at `(vt, seq)` for
    /// [`bench_grant_scan`](Self::bench_grant_scan). Bench-only: bypasses
    /// the runner accounting.
    #[doc(hidden)]
    pub fn bench_seed_gate(&self, p: usize, vt: Nanos, seq: u64) {
        let mut st = self.state.lock();
        st.procs[p] = PState::AtGate(vt, seq);
    }
}

/// A per-processor handle on the shared scheduler, embedded in the engine's
/// `ProcCtx` (absent in the default free-running mode, so the off path costs
/// one `Option` discriminant test per hook, like the obs layer).
pub struct DetHandle {
    sched: Arc<DetScheduler>,
    id: usize,
    /// This processor's position: the virtual time of its last checkpoint
    /// or gate exit. Only its own thread touches it.
    pos: Cell<Nanos>,
    /// This processor's empty buffer to swap against the scheduler's
    /// hand-off list (see `yield_turn`).
    woken: Cell<Vec<usize>>,
}

impl DetHandle {
    /// Operation-entry checkpoint: records the position, and parks if the
    /// lookahead horizon has been reached. The common case is one
    /// thread-local store and one atomic load.
    #[inline]
    pub fn checkpoint(&self, vt: Nanos) {
        self.pos.set(vt);
        if self.sched.must_park(vt) {
            self.park(vt);
        }
    }

    /// Start-of-run barrier, called first, on the thread that will run this
    /// processor: parks at vt 0 so the first window opens only once every
    /// processor has checked in, and no more than `workers` processors
    /// ever run concurrently.
    pub fn start(&self) {
        // Bind before the park below publishes this processor under the
        // state lock: whoever later releases it took that lock after us,
        // so its wake finds the thread to unpark.
        self.sched.slots[self.id].bind();
        self.park(0);
    }

    /// Parks at an operation entry and blocks until readmitted to a window.
    fn park(&self, vt: Nanos) {
        let mut st = self.sched.state.lock();
        debug_assert_ne!(st.granted, Some(self.id), "park inside a gate body");
        st.procs[self.id] = PState::Parked(vt);
        st.stats.parks += 1;
        self.yield_turn(st);
    }

    /// Enters a gate at `vt`: blocks until every peer is parked and this
    /// processor's `(vt, id, seq)` is the earliest pending gate of the
    /// quantum that holds its position.
    pub fn gate_enter(&self, vt: Nanos) {
        let mut st = self.sched.state.lock();
        debug_assert_ne!(st.granted, Some(self.id), "nested gate");
        st.seq[self.id] += 1;
        st.procs[self.id] = PState::AtGate(vt, st.seq[self.id]);
        st.pos[self.id] = self.pos.get();
        st.stats.gates += 1;
        self.yield_turn(st);
    }

    /// Leaves the current gate at `vt` (clock may have advanced inside) and
    /// blocks until readmitted to a window.
    pub fn gate_exit(&self, vt: Nanos) {
        let mut st = self.sched.state.lock();
        debug_assert_eq!(st.granted, Some(self.id), "gate_exit outside a gate");
        st.granted = None;
        st.procs[self.id] = PState::Parked(vt);
        self.pos.set(vt);
        self.yield_turn(st);
    }

    /// From inside a gate: gives up the grant, blocks on `key`, and returns
    /// once re-granted (after some peer's gate called
    /// [`unblock_all`](Self::unblock_all) and the coordinator re-selected
    /// this processor). The caller loops: re-check the carrier, block again
    /// if still unavailable.
    pub fn gate_block(&self, vt: Nanos, key: WaitKey) {
        let mut st = self.sched.state.lock();
        debug_assert_eq!(st.granted, Some(self.id), "gate_block outside a gate");
        st.granted = None;
        st.procs[self.id] = PState::Blocked(vt, key);
        st.stats.blocks += 1;
        self.yield_turn(st);
    }

    /// From inside a gate: re-arms the processors blocked on `key` as
    /// pending gates at their original virtual time with a fresh seq. The
    /// grants happen later, one at a time, once this gate ends.
    ///
    /// A lock re-arms only its earliest waiter by `(vt, id)`: the others'
    /// re-grants could only block again, since the new holder cannot
    /// release before this gate phase ends, and seq never orders two
    /// processors. A barrier or a flag lets every waiter through.
    pub fn unblock_all(&self, key: WaitKey) {
        let mut st = self.sched.state.lock();
        debug_assert!(st.granted.is_some(), "unblock_all outside a gate");
        let waiting = |s: PState| match s {
            PState::Blocked(vt, k) if k == key => Some(vt),
            _ => None,
        };
        if let WaitKey::Lock(_) = key {
            let earliest = (0..self.sched.nprocs)
                .filter_map(|p| waiting(st.procs[p]).map(|vt| (vt, p)))
                .min();
            if let Some((vt, p)) = earliest {
                st.rearm(p, vt);
            }
        } else {
            for p in 0..self.sched.nprocs {
                if let Some(vt) = waiting(st.procs[p]) {
                    st.rearm(p, vt);
                }
            }
        }
    }

    /// Marks this processor finished and hands its worker slot on.
    pub fn finish(&self) {
        let mut st = self.sched.state.lock();
        debug_assert_ne!(st.granted, Some(self.id), "finish inside a gate body");
        st.procs[self.id] = PState::Finished;
        st.finished += 1;
        self.yield_turn(st);
    }

    /// This processor has just recorded, in `st`, the state it stops
    /// running in. Retires it as a runner (which may refill its worker slot
    /// or run the coordinator), wakes exactly the processors that decision
    /// released — after dropping the lock, so none of them wakes into a
    /// held mutex — and, unless it released itself or has finished, sleeps
    /// on its own slot until some later decision releases it.
    fn yield_turn(&self, mut st: MutexGuard<'_, DetState>) {
        let sched = &*self.sched;
        sched.retire_runner(&mut st, self.id);
        let mut woken = self.woken.take();
        std::mem::swap(&mut st.handoff, &mut woken);
        let released_self = woken.contains(&self.id);
        let runs_on = released_self || st.procs[self.id] == PState::Finished;
        st.stats.wakes += (woken.len() - usize::from(released_self)) as u64;
        drop(st);
        for &p in woken.iter().filter(|&&p| p != self.id) {
            sched.slots[p].wake();
        }
        woken.clear();
        self.woken.set(woken);
        if !runs_on {
            sched.slots[self.id].wait();
            sched.check_abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type ProcBody = Box<dyn FnOnce(&DetHandle) + Send>;

    fn run_procs(sched: &Arc<DetScheduler>, bodies: Vec<ProcBody>) {
        std::thread::scope(|s| {
            for (id, body) in bodies.into_iter().enumerate() {
                let h = sched.handle(id);
                s.spawn(move || {
                    h.start();
                    body(&h);
                    h.finish();
                });
            }
        });
    }

    #[test]
    fn windows_release_all_procs_regardless_of_worker_bound() {
        for workers in [1, 2, 8] {
            let sched = Arc::new(DetScheduler::new(4, workers, 100));
            let bodies: Vec<ProcBody> = (0..4)
                .map(|p| {
                    Box::new(move |h: &DetHandle| {
                        let mut vt = 0;
                        for _ in 0..10 {
                            vt += 30 + p as u64;
                            h.checkpoint(vt);
                        }
                    }) as Box<dyn FnOnce(&DetHandle) + Send>
                })
                .collect();
            run_procs(&sched, bodies);
        }
    }

    #[test]
    fn gates_serialize_in_vt_id_order() {
        let sched = Arc::new(DetScheduler::new(3, 8, 1_000));
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<ProcBody> = (0..3)
            .map(|p| {
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle| {
                    // Proc p gates at vt 30-p: higher ids carry earlier vts,
                    // so the grant order must be exactly reversed.
                    let vt = 30 - p as u64;
                    h.gate_enter(vt);
                    log.lock().push(p);
                    h.gate_exit(vt);
                }) as Box<dyn FnOnce(&DetHandle) + Send>
            })
            .collect();
        run_procs(&sched, bodies);
        assert_eq!(*log.lock(), vec![2, 1, 0]);
    }

    #[test]
    fn blocked_procs_reacquire_in_vt_order() {
        // A 1-slot "carrier" lock: procs 1, 2 and 3 block until proc 0's
        // gate releases it; they must acquire in gate-vt order, each only
        // after the one before releases in turn. Each release re-arms only
        // the earliest waiter, so every waiter blocks exactly once: 3
        // blocks, where re-arming every waiter would make 6.
        let sched = Arc::new(DetScheduler::new(4, 8, 1_000));
        let held = Arc::new(Mutex::new(true));
        let log = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<ProcBody> = (0..4)
            .map(|p| {
                let held = Arc::clone(&held);
                let log = Arc::clone(&log);
                Box::new(move |h: &DetHandle| {
                    if p == 0 {
                        // Initial holder: release inside a later gate.
                        h.gate_enter(50);
                        *held.lock() = false;
                        h.unblock_all(WaitKey::Lock(0));
                        h.gate_exit(50);
                        return;
                    }
                    let vt = 10 * p as u64; // procs 1, 2, 3 at 10, 20, 30
                    h.gate_enter(vt);
                    loop {
                        let mut s = held.lock();
                        if !*s {
                            *s = true;
                            drop(s);
                            log.lock().push(p);
                            break;
                        }
                        drop(s);
                        h.gate_block(vt, WaitKey::Lock(0));
                    }
                    h.gate_exit(vt);
                    // Release in a second gate so the next waiter can run.
                    h.gate_enter(vt + 5);
                    *held.lock() = false;
                    h.unblock_all(WaitKey::Lock(0));
                    h.gate_exit(vt + 5);
                }) as Box<dyn FnOnce(&DetHandle) + Send>
            })
            .collect();
        run_procs(&sched, bodies);
        assert_eq!(*log.lock(), vec![1, 2, 3]);
        assert_eq!(sched.stats().blocks, 3);
    }

    #[test]
    fn widened_window_grants_gates_in_quantum_order() {
        // Quantum 100. Both processors cross checkpoints every 10 ns with
        // no gate, so windows widen: [0,100), [100,300), [300,700),
        // [700,1500). In that last one proc 0 gates at position 1050 but
        // virtual time 2000 (charges between its checkpoint and its gate),
        // proc 1 at position 1250 and virtual time 1260. One quantum at a
        // time, proc 0's gate is granted in the gate phase of the quantum
        // ending at 1100 and proc 1's in the one ending at 1300 — so proc 0
        // first, though its gate vt is later. The widened window must
        // retreat to 1100 and defer proc 1's gate until a window covers
        // 1250.
        for workers in [1, 2] {
            let sched = Arc::new(DetScheduler::new(2, workers, 100));
            let log = Arc::new(Mutex::new(Vec::new()));
            let bodies: Vec<ProcBody> = (0..2)
                .map(|p| {
                    let (sched, log) = (Arc::clone(&sched), Arc::clone(&log));
                    Box::new(move |h: &DetHandle| {
                        let (last, gate_vt) = [(1_050, 2_000), (1_250, 1_260)][p];
                        for vt in (0..=last).step_by(10) {
                            h.checkpoint(vt);
                        }
                        h.gate_enter(gate_vt);
                        log.lock().push((p, sched.horizon.end()));
                        h.gate_exit(gate_vt);
                    }) as Box<dyn FnOnce(&DetHandle) + Send>
                })
                .collect();
            run_procs(&sched, bodies);
            assert_eq!(
                *log.lock(),
                vec![(0, 1_100), (1, 1_300)],
                "{workers} workers"
            );
            // Widened: the three above, and [2000,2200) where proc 0 runs
            // out after the gate-free window that let proc 1 finish.
            let st = sched.stats();
            assert_eq!((st.widened, st.deferred), (4, 1), "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "deterministic scheduler deadlock")]
    fn deadlock_panics_with_diagnostics() {
        // Single proc, no scope: blocking on a flag nobody will ever set
        // makes the coordinator's deadlock panic fire on this very thread.
        let sched = Arc::new(DetScheduler::new(1, 1, 100));
        let h = sched.handle(0);
        h.start();
        h.gate_enter(5);
        h.gate_block(5, WaitKey::Flag(0));
    }

    #[test]
    fn deadlock_wakes_every_blocked_thread_with_the_diagnosis() {
        // Three processors on their own threads all block on a flag nobody
        // sets. The last to block runs the coordinator and panics there;
        // the other two sleep on their own slots, so the abort has to wake
        // each of them — or this scope never returns.
        let sched = Arc::new(DetScheduler::new(3, 8, 100));
        let messages: Vec<String> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..3)
                .map(|p| {
                    let h = sched.handle(p);
                    s.spawn(move || {
                        h.start();
                        h.gate_enter(5);
                        h.gate_block(5, WaitKey::Flag(0));
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| {
                    let payload = t.join().expect_err("every thread must leave its wait");
                    *payload
                        .downcast::<String>()
                        .expect("the abort panics with a formatted diagnosis")
                })
                .collect()
        });
        for m in &messages {
            assert!(m.contains("deterministic scheduler deadlock"), "{m}");
            for p in 0..3 {
                let waiter = format!("proc {p} blocked on Flag(0) at vt 5");
                assert!(m.contains(&waiter), "{m}");
            }
        }
    }

    #[test]
    fn first_wait_on_a_fresh_slot_is_never_slept_through() {
        // A slot's first wait is the one that could race its owner's
        // registration, and it happens once per scheduler: at the start
        // barrier, where the first processor to park goes to sleep just as
        // the second opens window 0 and wakes it. Two host threads walk a
        // row of fresh schedulers through exactly that, meeting on a spin
        // count before each so both reach `start` together. A lost
        // wake-up leaves one asleep with the other spinning for it, and
        // the scope never returns.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fresh: Vec<_> = (0..100_000)
            .map(|_| Arc::new(DetScheduler::new(2, 2, 100)))
            .collect();
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..2 {
                let (fresh, arrived) = (&fresh, &arrived);
                s.spawn(move || {
                    for (i, sched) in fresh.iter().enumerate() {
                        let h = sched.handle(p);
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 * (i + 1) {
                            std::hint::spin_loop();
                        }
                        h.start();
                        h.finish();
                    }
                });
            }
        });
    }

    #[test]
    fn handoff_wakeup_stress() {
        crate::model_scenarios::handoff_wakeup(20_000, false);
    }

    #[test]
    fn a_processor_that_releases_itself_wakes_nobody() {
        // One processor: every decision it makes releases itself, so no
        // slot is ever written (and with no second thread, a sleep here
        // would hang the test).
        let sched = Arc::new(DetScheduler::new(1, 1, 100));
        let h = sched.handle(0);
        h.start();
        for vt in [10, 150, 320] {
            h.checkpoint(vt);
            h.gate_enter(vt);
            h.gate_exit(vt + 5);
        }
        h.finish();
        let st = sched.stats();
        assert_eq!(st.wakes, 0);
        assert_eq!((st.gates, st.blocks), (3, 0));
    }
}
