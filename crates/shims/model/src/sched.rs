//! The schedule controller: one OS thread runs at a time, every routed
//! operation parks its thread at a *schedule point*, and the controller
//! picks the next runner with seeded-random choice under an iterative
//! preemption bound, with a partial-order skip for commuting steps.
//!
//! Threads under test are real OS threads (the code under test is the real
//! code, not an interpretation of it); determinism comes from the fact that
//! exactly one of them is ever unparked, so the only scheduling freedom the
//! host kernel has left is *when* a parked thread wakes, never *what order*
//! the routed operations execute in.

use crate::{Op, OpKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Upper bound on threads per schedule; model tests are small by design.
const MAX_THREADS: usize = 32;

/// Safety net: if a parked thread sees no wake-up for this long, the
/// controller itself is wedged (a cashmere-model bug) — fail the schedule
/// loudly instead of hanging CI.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(60);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: the standard 64-bit finalizer; tiny, seedable, deterministic.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives schedule `i`'s PRNG seed from the base seed.
fn schedule_seed(base: u64, i: u64) -> u64 {
    let mut s = base ^ (i.wrapping_add(1)).wrapping_mul(GOLDEN);
    splitmix64(&mut s)
}

// ---------------------------------------------------------------------------
// Configuration and results
// ---------------------------------------------------------------------------

/// Exploration parameters. `Default` reads the schedule budget from the
/// `MODEL_BUDGET` environment variable (the knob `scripts/check.sh` tunes).
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of schedules to run.
    pub schedules: u64,
    /// Maximum preemptions per schedule. Schedule `i` runs with bound
    /// `i % (max_preemptions + 1)`, so every bound tier is exercised even
    /// under a small budget.
    pub max_preemptions: u32,
    /// Per-schedule step cap; schedules that exceed it (e.g. an adversarial
    /// ordering starving a spin loop) count as truncated, not failed.
    pub max_steps: u64,
    /// Base seed; schedule `i` uses `mix(seed, i)`.
    pub seed: u64,
    /// Whether the partial-order skip heuristic is on.
    pub por: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        let schedules = std::env::var("MODEL_BUDGET")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256);
        Self {
            schedules,
            max_preemptions: 3,
            max_steps: 20_000,
            seed: 0xCA5D_2ECE_0000_0002, // "cashmere-2l", stable across runs
            por: true,
        }
    }
}

/// Summary of a completed (violation-free) exploration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Explored {
    /// Schedules that ran to completion with all assertions holding.
    pub schedules: u64,
    /// Schedules cut off at the step cap (neither pass nor fail).
    pub truncated: u64,
    /// Decision points skipped by the partial-order heuristic, summed.
    pub por_skips: u64,
    /// Largest step count any single schedule needed.
    pub max_steps_seen: u64,
}

/// A failing schedule: everything needed to reproduce it exactly.
#[derive(Debug, Clone)]
pub struct Violation {
    /// PRNG seed of the failing schedule.
    pub seed: u64,
    /// Preemption bound the failing schedule ran with.
    pub bound: u32,
    /// Panic message / deadlock report from the failure.
    pub message: String,
    /// Steps executed before the failure.
    pub steps: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violating schedule (seed=0x{:016x} bound={} steps={}): {} \
             [replay: CASHMERE_MODEL_REPLAY=0x{:016x}:{}]",
            self.seed, self.bound, self.steps, self.message, self.seed, self.bound
        )
    }
}

// ---------------------------------------------------------------------------
// Controller state
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum ThState {
    /// OS thread spawned, has not yet parked at its `Start` point. Never
    /// visible to a scheduling decision: the spawner blocks in a rendezvous
    /// (not a schedule point) until the child publishes `Ready`.
    Starting,
    /// Parked at a schedule point, pending operation published.
    Ready(Op),
    /// The (single) unparked thread.
    Running,
    /// Done — body returned or aborted.
    Finished,
}

#[derive(Debug, Clone, Copy)]
enum LockSt {
    /// Mutex or exclusive rwlock, held by this thread id.
    Excl(usize),
    /// Shared rwlock, held by this many readers.
    Shared(usize),
}

#[derive(Debug)]
enum Outcome {
    Running,
    Failed(String),
    Truncated,
}

struct State {
    threads: Vec<ThState>,
    current: Option<usize>,
    locks: HashMap<usize, LockSt>,
    /// Park tokens by thread id (`std::thread` semantics: at most one).
    tokens: Vec<bool>,
    /// Threads queued on a condvar, as `(condvar loc, thread id)` in
    /// arrival order.
    cond_waiters: Vec<(usize, usize)>,
    rng: u64,
    bound: u32,
    preemptions: u32,
    steps: u64,
    max_steps: u64,
    por: bool,
    por_skips: u64,
    outcome: Outcome,
}

impl State {
    fn new(cfg: &ModelConfig, seed: u64, bound: u32) -> Self {
        Self {
            threads: vec![ThState::Starting],
            current: Some(0),
            locks: HashMap::new(),
            tokens: vec![false],
            cond_waiters: Vec::new(),
            rng: seed,
            bound,
            preemptions: 0,
            steps: 0,
            max_steps: cfg.max_steps,
            por: cfg.por,
            por_skips: 0,
            outcome: Outcome::Running,
        }
    }

    fn pending(&self, tid: usize) -> Option<Op> {
        match self.threads[tid] {
            ThState::Ready(op) => Some(op),
            _ => None,
        }
    }

    /// Whether `tid` could be granted the next step right now. Lock waiters
    /// become runnable the instant the modeled lock table frees up; join
    /// waiters when their target finishes.
    fn runnable(&self, tid: usize) -> bool {
        let Some(op) = self.pending(tid) else {
            return false;
        };
        match op.kind {
            OpKind::LockAcquire | OpKind::RwWrite => !self.locks.contains_key(&op.loc),
            OpKind::RwRead => !matches!(self.locks.get(&op.loc), Some(LockSt::Excl(_))),
            OpKind::Join(target) => matches!(self.threads[target], ThState::Finished),
            OpKind::Park => self.tokens[tid],
            OpKind::CondWake => !self.cond_waiters.contains(&(op.loc, tid)),
            _ => true,
        }
    }

    /// Applies the lock-table side effects of granting `tid`'s pending
    /// operation and makes it current. Claiming at grant time (while the
    /// grantee is still parked) is safe because nothing else runs in
    /// between, and it keeps the table authoritative for `runnable`.
    fn grant(&mut self, tid: usize) {
        self.current = Some(tid);
        if let Some(op) = self.pending(tid) {
            match op.kind {
                OpKind::LockAcquire | OpKind::RwWrite => {
                    self.locks.insert(op.loc, LockSt::Excl(tid));
                }
                OpKind::LockRelease | OpKind::RwUnlockWrite => {
                    let prev = self.locks.remove(&op.loc);
                    debug_assert!(
                        !matches!(prev, Some(LockSt::Excl(owner)) if owner != tid),
                        "modeled lock released by non-owner"
                    );
                }
                OpKind::RwRead => {
                    let n = match self.locks.get(&op.loc) {
                        Some(LockSt::Shared(n)) => *n,
                        _ => 0,
                    };
                    self.locks.insert(op.loc, LockSt::Shared(n + 1));
                }
                OpKind::RwUnlockRead => {
                    if let Some(LockSt::Shared(n)) = self.locks.get(&op.loc) {
                        if *n <= 1 {
                            self.locks.remove(&op.loc);
                        } else {
                            self.locks.insert(op.loc, LockSt::Shared(n - 1));
                        }
                    }
                }
                OpKind::Park => self.tokens[tid] = false,
                OpKind::Unpark(target) => self.tokens[target] = true,
                OpKind::CondWait(mutex) => {
                    self.locks.remove(&mutex);
                    self.cond_waiters.push((op.loc, tid));
                }
                OpKind::Notify(true) => self.cond_waiters.retain(|&(cv, _)| cv != op.loc),
                OpKind::Notify(false) => {
                    if let Some(i) = self.cond_waiters.iter().position(|&(cv, _)| cv == op.loc) {
                        self.cond_waiters.remove(i);
                    }
                }
                _ => {}
            }
        }
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| matches!(t, ThState::Finished))
    }

    fn blocked_report(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                ThState::Ready(op) => Some(format!("t{i} blocked on {:?}@{:#x}", op.kind, op.loc)),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

pub(crate) struct Controller {
    state: Mutex<State>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn lock_state(ctl: &Controller) -> MutexGuard<'_, State> {
    // A panicking model thread can poison the state lock mid-abort; the
    // state is still coherent for reporting, so strip the poison marker.
    ctl.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Controller {
    fn new(cfg: &ModelConfig, seed: u64, bound: u32) -> Self {
        Self {
            state: Mutex::new(State::new(cfg, seed, bound)),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Picks the next thread to run. `me` is the thread at whose schedule
    /// point the decision happens (it has already published `Ready`).
    fn reschedule(&self, st: &mut State, me: Option<usize>) {
        if !matches!(st.outcome, Outcome::Running) {
            return;
        }
        let runnable: Vec<usize> = (0..st.threads.len()).filter(|&i| st.runnable(i)).collect();
        if runnable.is_empty() {
            if st.all_finished() {
                st.current = None; // schedule complete
            } else {
                st.outcome = Outcome::Failed(format!("deadlock: {}", st.blocked_report()));
            }
            return;
        }
        let me_runnable = me.is_some_and(|m| runnable.contains(&m));
        // Partial-order skip: if my pending op commutes with every other
        // runnable thread's pending op, continuing me explores the same set
        // of behaviors as switching — don't burn a decision on it.
        if st.por && me_runnable {
            let m = me.expect("me_runnable implies me");
            let op = st.pending(m).expect("runnable implies Ready");
            if op.por_eligible()
                && runnable
                    .iter()
                    .all(|&o| o == m || st.pending(o).is_none_or(|other| !op.conflicts(other)))
            {
                st.por_skips += 1;
                st.grant(m);
                return;
            }
        }
        let pick = if me_runnable && st.preemptions >= st.bound {
            // Preemption budget spent: keep running until forced to switch.
            me.expect("me_runnable implies me")
        } else if runnable.len() == 1 {
            runnable[0]
        } else {
            let r = splitmix64(&mut st.rng);
            runnable[usize::try_from(r % runnable.len() as u64).expect("len < 2^32")]
        };
        if me_runnable && Some(pick) != me {
            st.preemptions += 1;
        }
        st.grant(pick);
    }
}

// ---------------------------------------------------------------------------
// Per-thread context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    ctl: Arc<Controller>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn cur_ctx() -> Option<Ctx> {
    // During unwind (including our own schedule aborts) hooks must not
    // re-enter the controller: lock guards dropping on the way out would
    // otherwise try to schedule from a dying thread.
    if std::thread::panicking() {
        return None;
    }
    CTX.try_with(|c| c.borrow().clone()).ok().flatten()
}

/// Whether the calling thread is registered with an active exploration.
pub(crate) fn active() -> bool {
    cur_ctx().is_some()
}

/// The calling thread's model id, if it is registered with an exploration.
pub(crate) fn current_tid() -> Option<usize> {
    cur_ctx().map(|c| c.tid)
}

/// Sentinel unwind payload used to tear threads out of a dead schedule.
struct ModelAbort;

fn abort_schedule() -> ! {
    std::panic::panic_any(ModelAbort);
}

// ---------------------------------------------------------------------------
// Schedule points
// ---------------------------------------------------------------------------

/// The heart of the model: publish the pending operation, let the
/// controller decide, park until granted. No-op for unregistered threads.
pub(crate) fn point(op: Op) {
    let Some(Ctx { ctl, tid: me }) = cur_ctx() else {
        return;
    };
    let mut st = lock_state(&ctl);
    if !matches!(st.outcome, Outcome::Running) {
        drop(st);
        abort_schedule();
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        st.outcome = Outcome::Truncated;
        ctl.cv.notify_all();
        drop(st);
        abort_schedule();
    }
    st.threads[me] = ThState::Ready(op);
    if st.current == Some(me) {
        // Normal schedule point of the running thread: decide here.
        ctl.reschedule(&mut st, Some(me));
    } else {
        // First parking of a freshly spawned thread: the spawner is still
        // current and blocked in its rendezvous — publish and wake it, but
        // the decision stays with the spawner's next schedule point.
        debug_assert!(
            matches!(op.kind, OpKind::Start),
            "only Start may park while not current"
        );
    }
    ctl.cv.notify_all();
    loop {
        match st.outcome {
            Outcome::Running => {}
            _ => {
                drop(st);
                abort_schedule();
            }
        }
        if st.current == Some(me) && matches!(st.threads[me], ThState::Ready(_)) {
            break;
        }
        let (g, timeout) = ctl
            .cv
            .wait_timeout(st, WEDGE_TIMEOUT)
            .unwrap_or_else(PoisonError::into_inner);
        st = g;
        if timeout.timed_out() && !matches!(st.outcome, Outcome::Failed(_)) {
            st.outcome = Outcome::Failed(
                "model scheduler wedged (cashmere-model bug): no grant within timeout".into(),
            );
            ctl.cv.notify_all();
        }
    }
    st.threads[me] = ThState::Running;
}

/// Records the caller as owner of `loc` after its `try_lock` succeeded for
/// real. Not a schedule point (the decision happened at the `TryLock` one).
pub(crate) fn claim_try_lock(loc: usize) {
    let Some(Ctx { ctl, tid }) = cur_ctx() else {
        return;
    };
    let mut st = lock_state(&ctl);
    st.locks.insert(loc, LockSt::Excl(tid));
}

// ---------------------------------------------------------------------------
// Thread lifecycle
// ---------------------------------------------------------------------------

fn panic_message(payload: Option<Box<dyn std::any::Any + Send>>) -> Option<String> {
    let payload = payload?;
    if payload.is::<ModelAbort>() {
        return None; // controlled teardown, not a failure
    }
    Some(match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_string()),
    })
}

/// Marks `tid` finished; on a real panic, fails the schedule; on a normal
/// completion, hands the token to the next thread.
fn finish_thread(ctl: &Controller, tid: usize, panicked: Option<String>) {
    let mut st = lock_state(ctl);
    st.threads[tid] = ThState::Finished;
    if let Some(msg) = panicked {
        if matches!(st.outcome, Outcome::Running) {
            st.outcome = Outcome::Failed(format!("thread t{tid} panicked: {msg}"));
        }
    } else if matches!(st.outcome, Outcome::Running) && st.current == Some(tid) {
        ctl.reschedule(&mut st, None);
    }
    ctl.cv.notify_all();
}

/// Model-mode join handle; created by [`spawn_model`], consumed by
/// [`crate::thread::JoinHandle::join`].
pub struct ModelJoinHandle<T> {
    tid: usize,
    ctl: Arc<Controller>,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> ModelJoinHandle<T> {
    pub(crate) fn join(self) -> T {
        point(Op {
            kind: OpKind::Join(self.tid),
            loc: self.tid,
        });
        // Granted only once the target is Finished; a target that panicked
        // for real fails the schedule, so reaching here means it completed.
        let _ = &self.ctl;
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("model thread finished without publishing a result")
    }
}

/// Spawns `f` as a model-controlled thread. Must be called from a
/// registered thread (the facade checks [`active`] first).
pub(crate) fn spawn_model<F, T>(f: F) -> ModelJoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = cur_ctx().expect("spawn_model requires an active model thread");
    point(Op {
        kind: OpKind::Spawn,
        loc: 0,
    });
    let ctl = ctx.ctl;
    let tid = {
        let mut st = lock_state(&ctl);
        assert!(
            st.threads.len() < MAX_THREADS,
            "model schedule exceeded {MAX_THREADS} threads"
        );
        st.threads.push(ThState::Starting);
        st.tokens.push(false);
        st.threads.len() - 1
    };
    let slot = Arc::new(Mutex::new(None));
    let child_slot = Arc::clone(&slot);
    let child_ctl = Arc::clone(&ctl);
    let handle = std::thread::Builder::new()
        .name(format!("model-t{tid}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    ctl: Arc::clone(&child_ctl),
                    tid,
                });
            });
            let res = catch_unwind(AssertUnwindSafe(|| {
                point(Op {
                    kind: OpKind::Start,
                    loc: 0,
                });
                f()
            }));
            let panicked = match res {
                Ok(v) => {
                    *child_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                    None
                }
                Err(payload) => panic_message(Some(payload)),
            };
            finish_thread(&child_ctl, tid, panicked);
            let _ = CTX.try_with(|c| c.borrow_mut().take());
        })
        .expect("failed to spawn model thread");
    ctl.handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
    // Rendezvous (not a schedule point): wait until the child has published
    // Ready(Start), so the candidate set at the next decision point is
    // deterministic regardless of OS thread startup latency.
    let mut st = lock_state(&ctl);
    loop {
        if !matches!(st.outcome, Outcome::Running) {
            drop(st);
            abort_schedule();
        }
        if !matches!(st.threads[tid], ThState::Starting) {
            break;
        }
        let (g, timeout) = ctl
            .cv
            .wait_timeout(st, WEDGE_TIMEOUT)
            .unwrap_or_else(PoisonError::into_inner);
        st = g;
        if timeout.timed_out() {
            st.outcome = Outcome::Failed("model thread failed to start within timeout".into());
            ctl.cv.notify_all();
        }
    }
    drop(st);
    ModelJoinHandle { tid, ctl, slot }
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

enum SchedResult {
    Pass { steps: u64, por_skips: u64 },
    Truncated,
    Failed { message: String, steps: u64 },
}

fn run_schedule<F: Fn() + Sync>(cfg: &ModelConfig, seed: u64, bound: u32, f: &F) -> SchedResult {
    let ctl = Arc::new(Controller::new(cfg, seed, bound));
    std::thread::scope(|s| {
        let root_ctl = Arc::clone(&ctl);
        s.spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    ctl: Arc::clone(&root_ctl),
                    tid: 0,
                });
            });
            let res = catch_unwind(AssertUnwindSafe(|| {
                point(Op {
                    kind: OpKind::Start,
                    loc: 0,
                });
                f();
            }));
            finish_thread(&root_ctl, 0, panic_message(res.err()));
            let _ = CTX.try_with(|c| c.borrow_mut().take());
        });
    });
    // Children outlive the scope (they are plain OS threads); by now the
    // schedule's outcome is settled, so they are finished or aborting.
    loop {
        let hs: Vec<_> = {
            let mut handles = ctl.handles.lock().unwrap_or_else(PoisonError::into_inner);
            handles.drain(..).collect()
        };
        if hs.is_empty() {
            break;
        }
        for h in hs {
            let _ = h.join();
        }
    }
    let st = lock_state(&ctl);
    match &st.outcome {
        Outcome::Running => SchedResult::Pass {
            steps: st.steps,
            por_skips: st.por_skips,
        },
        Outcome::Truncated => SchedResult::Truncated,
        Outcome::Failed(message) => SchedResult::Failed {
            message: message.clone(),
            steps: st.steps,
        },
    }
}

fn parse_replay(spec: &str) -> Option<(u64, u32)> {
    let (seed, bound) = spec.split_once(':')?;
    let seed = seed.trim().trim_start_matches("0x");
    Some((
        u64::from_str_radix(seed, 16).ok()?,
        bound.trim().parse().ok()?,
    ))
}

/// Runs `f` under up to `cfg.schedules` bounded schedules. Returns the
/// first [`Violation`] found, or pass statistics. Honors
/// `CASHMERE_MODEL_REPLAY=0x<seed>:<bound>` by running exactly that
/// schedule instead (use with a single-test filter).
pub fn try_explore<F>(name: &str, cfg: &ModelConfig, f: F) -> Result<Explored, Violation>
where
    F: Fn() + Sync,
{
    if let Ok(spec) = std::env::var("CASHMERE_MODEL_REPLAY") {
        let (seed, bound) = parse_replay(&spec)
            .unwrap_or_else(|| panic!("bad CASHMERE_MODEL_REPLAY (want 0x<seed>:<bound>): {spec}"));
        eprintln!("[cashmere-model] {name}: replaying seed=0x{seed:016x} bound={bound}");
        return replay(cfg, seed, bound, f);
    }
    let mut out = Explored::default();
    for i in 0..cfg.schedules {
        let bound =
            u32::try_from(i % (u64::from(cfg.max_preemptions) + 1)).expect("bound fits u32");
        let seed = schedule_seed(cfg.seed, i);
        match run_schedule(cfg, seed, bound, &f) {
            SchedResult::Pass { steps, por_skips } => {
                out.schedules += 1;
                out.por_skips += por_skips;
                out.max_steps_seen = out.max_steps_seen.max(steps);
            }
            SchedResult::Truncated => out.truncated += 1,
            SchedResult::Failed { message, steps } => {
                let v = Violation {
                    seed,
                    bound,
                    message,
                    steps,
                };
                eprintln!("[cashmere-model] {name}: {v}");
                return Err(v);
            }
        }
    }
    eprintln!(
        "[cashmere-model] {name}: pass — {} schedules ({} truncated, {} POR skips, \
         max {} steps, bounds 0..={}, base seed 0x{:x})",
        out.schedules,
        out.truncated,
        out.por_skips,
        out.max_steps_seen,
        cfg.max_preemptions,
        cfg.seed
    );
    Ok(out)
}

/// [`try_explore`] with the default config, panicking on a violation (the
/// panic message contains the replay seed).
pub fn explore<F>(name: &str, f: F) -> Explored
where
    F: Fn() + Sync,
{
    let cfg = ModelConfig::default();
    match try_explore(name, &cfg, f) {
        Ok(e) => e,
        Err(v) => panic!("{name}: {v}"),
    }
}

/// Re-runs exactly one schedule (a previously printed `(seed, bound)`).
pub fn replay<F>(cfg: &ModelConfig, seed: u64, bound: u32, f: F) -> Result<Explored, Violation>
where
    F: Fn() + Sync,
{
    match run_schedule(cfg, seed, bound, &f) {
        SchedResult::Pass { steps, por_skips } => Ok(Explored {
            schedules: 1,
            truncated: 0,
            por_skips,
            max_steps_seen: steps,
        }),
        SchedResult::Truncated => Ok(Explored {
            schedules: 0,
            truncated: 1,
            por_skips: 0,
            max_steps_seen: 0,
        }),
        SchedResult::Failed { message, steps } => Err(Violation {
            seed,
            bound,
            message,
            steps,
        }),
    }
}

/// Mutation-battery helper: asserts the explorer finds a violation within
/// the budget and returns it (callers then assert it replays).
pub fn expect_violation<F>(name: &str, cfg: &ModelConfig, f: F) -> Violation
where
    F: Fn() + Sync,
{
    match try_explore(name, cfg, f) {
        Ok(e) => panic!(
            "{name}: mutant survived — no violation within {} schedules ({} truncated)",
            e.schedules, e.truncated
        ),
        Err(v) => v,
    }
}

// ---------------------------------------------------------------------------
// Self-tests: the explorer must find a seeded lost update, respect modeled
// locks, detect deadlock, replay deterministically, and truncate spin loops.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread;
    use crate::ModelAtomicU64;
    use std::sync::Arc;

    fn small() -> ModelConfig {
        ModelConfig {
            schedules: 128,
            max_preemptions: 2,
            max_steps: 2_000,
            seed: 0x00DE_C0DE,
            por: true,
        }
    }

    /// Classic lost update: load-then-store increments from two threads.
    fn lost_update_scenario() {
        let c = Arc::new(ModelAtomicU64::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let v = c.load(std::sync::atomic::Ordering::SeqCst);
                    c.store(v + 1, std::sync::atomic::Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(
            c.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "lost update"
        );
    }

    #[test]
    fn model_finds_lost_update_and_replays_deterministically() {
        let cfg = small();
        let v = expect_violation("lost-update", &cfg, lost_update_scenario);
        assert!(v.message.contains("lost update"), "got: {}", v.message);
        // The printed (seed, bound) must reproduce the same failure, twice.
        let r1 = replay(&cfg, v.seed, v.bound, lost_update_scenario)
            .expect_err("replay must fail again");
        let r2 = replay(&cfg, v.seed, v.bound, lost_update_scenario)
            .expect_err("replay must fail again");
        assert_eq!(r1.message, r2.message);
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.message, v.message);
        assert_eq!(r1.steps, v.steps);
    }

    #[test]
    fn model_passes_atomic_rmw_increment() {
        let explored = try_explore("rmw-increment", &small(), || {
            let c = Arc::new(ModelAtomicU64::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(c.load(std::sync::atomic::Ordering::SeqCst), 2);
        })
        .expect("fetch_add increment must pass");
        assert!(explored.schedules > 0);
    }

    #[test]
    fn model_lock_table_enforces_mutual_exclusion() {
        // The same load-then-store race, but bracketed by modeled lock
        // acquire/release on one location: must pass every schedule.
        try_explore("locked-increment", &small(), || {
            let c = Arc::new(ModelAtomicU64::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        crate::on_mutex_lock(0x1000);
                        let v = c.load(std::sync::atomic::Ordering::SeqCst);
                        c.store(v + 1, std::sync::atomic::Ordering::SeqCst);
                        crate::on_mutex_unlock(0x1000);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(c.load(std::sync::atomic::Ordering::SeqCst), 2);
        })
        .expect("lock-protected increment must pass");
    }

    #[test]
    fn model_detects_abba_deadlock() {
        let cfg = small();
        let v = expect_violation("abba-deadlock", &cfg, || {
            let h1 = thread::spawn(|| {
                crate::on_mutex_lock(0xA);
                crate::on_mutex_lock(0xB);
                crate::on_mutex_unlock(0xB);
                crate::on_mutex_unlock(0xA);
            });
            let h2 = thread::spawn(|| {
                crate::on_mutex_lock(0xB);
                crate::on_mutex_lock(0xA);
                crate::on_mutex_unlock(0xA);
                crate::on_mutex_unlock(0xB);
            });
            h1.join();
            h2.join();
        });
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
    }

    #[test]
    fn model_truncates_unserviced_spin_loops() {
        let cfg = ModelConfig {
            schedules: 4,
            max_steps: 200,
            ..small()
        };
        let explored = try_explore("spin-truncation", &cfg, || {
            let flag = Arc::new(ModelAtomicU64::new(0));
            let f2 = Arc::clone(&flag);
            let h = thread::spawn(move || {
                while f2.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                    thread::yield_now();
                }
            });
            // Nobody ever sets the flag: every schedule must hit the step
            // cap and be truncated rather than hanging or failing.
            h.join();
        })
        .expect("truncation is not a violation");
        assert_eq!(explored.schedules, 0);
        assert_eq!(explored.truncated, cfg.schedules);
    }

    #[test]
    fn por_skips_commuting_steps_on_disjoint_locations() {
        let explored = try_explore("por-disjoint", &small(), || {
            let a = Arc::new(ModelAtomicU64::new(0));
            let b = Arc::new(ModelAtomicU64::new(0));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h1 = thread::spawn(move || {
                for _ in 0..8 {
                    a2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            });
            let h2 = thread::spawn(move || {
                for _ in 0..8 {
                    b2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            });
            h1.join();
            h2.join();
            assert_eq!(a.load(std::sync::atomic::Ordering::SeqCst), 8);
            assert_eq!(b.load(std::sync::atomic::Ordering::SeqCst), 8);
        })
        .expect("disjoint counters must pass");
        assert!(
            explored.por_skips > 0,
            "POR should skip commuting steps on disjoint locations"
        );
    }

    #[test]
    fn park_consumes_one_token_and_a_lost_wakeup_is_a_deadlock() {
        // An unpark that lands before the park is not lost (the token
        // waits), so a single hand-off passes under every schedule.
        try_explore("park-token", &small(), || {
            let sleeper = thread::spawn(thread::park);
            // Model ids are assigned in spawn order; the sleeper is t1.
            let waker = thread::spawn(|| thread::Thread::model(1).unpark());
            waker.join();
            sleeper.join();
        })
        .expect("a token set before the park must release it");
        // Tokens do not accumulate: two unparks release only one park.
        let v = expect_violation("park-token-single", &small(), || {
            let sleeper = thread::spawn(|| {
                thread::park();
                thread::park();
            });
            let t = thread::Thread::model(1);
            t.unpark();
            t.unpark();
            sleeper.join();
        });
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
        assert!(v.message.contains("Park"), "got: {}", v.message);
    }

    #[test]
    fn condvar_wait_releases_the_mutex_and_a_lost_notify_is_a_deadlock() {
        const M: usize = 0x10;
        const CV: usize = 0x20;
        use std::sync::atomic::Ordering::SeqCst;
        // `locked_check`: the waiter tests the flag under the mutex the
        // wait releases (correct), or before taking it (a set and its
        // notify can land in between, and nobody is queued to hear it).
        fn scenario(locked_check: bool) {
            let flag = Arc::new(ModelAtomicU64::new(0));
            let f2 = Arc::clone(&flag);
            let waiter = thread::spawn(move || {
                if locked_check {
                    crate::on_mutex_lock(M);
                }
                while f2.load(SeqCst) == 0 {
                    if !locked_check {
                        crate::on_mutex_lock(M);
                    }
                    assert!(crate::on_condvar_wait(CV, M));
                    crate::on_condvar_wake(CV);
                    crate::on_mutex_lock(M);
                    if !locked_check {
                        crate::on_mutex_unlock(M);
                    }
                }
                if locked_check {
                    crate::on_mutex_unlock(M);
                }
            });
            crate::on_mutex_lock(M);
            flag.store(1, SeqCst);
            crate::on_mutex_unlock(M);
            crate::on_condvar_notify(CV, false);
            waiter.join();
        }
        try_explore("condvar", &small(), || scenario(true))
            .expect("a predicate checked under the mutex loses no wake-up");
        let v = expect_violation("condvar-unlocked-check", &small(), || scenario(false));
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
        assert!(v.message.contains("CondWake"), "got: {}", v.message);
        // Outside an exploration the caller is told to use the real one.
        assert!(!crate::on_condvar_wait(CV, M));
    }

    #[test]
    fn unregistered_threads_fall_through() {
        // Hooks called outside any exploration must be no-ops.
        crate::on_mutex_lock(0x42);
        crate::on_mutex_unlock(0x42);
        let c = ModelAtomicU64::new(7);
        assert_eq!(c.load(std::sync::atomic::Ordering::SeqCst), 7);
        let h = thread::spawn(|| 41 + 1);
        assert_eq!(h.join(), 42);
    }
}
