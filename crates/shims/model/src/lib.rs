//! `cashmere-model`: a bounded, deterministic interleaving explorer baked
//! into the vendored shim layer (DESIGN.md §11).
//!
//! The container is offline, so we cannot pull `loom`; we own the shims, so
//! the explorer lives directly inside them. When a test runs a closure under
//! [`explore`], every lock acquire/release of the vendored `parking_lot`
//! shim, every [`ModelAtomicU64`]/[`ModelAtomicBool`] operation, and every
//! [`thread::spawn`]/[`thread::JoinHandle::join`]/[`thread::park`]/
//! [`thread::Thread::unpark`] and every shim `Condvar` wait/notify routes
//! through a schedule
//! controller that runs exactly **one thread at a time** and decides, at
//! each such *schedule point*, which thread runs next:
//!
//! * **Seeded-random exploration with iterative preemption bounding**
//!   (CHESS-style): schedule `i` draws its decisions from a deterministic
//!   PRNG seeded by `mix(base_seed, i)` and may preempt a runnable thread at
//!   most `i % (max_preemptions + 1)` times; forced switches (current thread
//!   blocked on a lock or join) are free. Small preemption bounds find the
//!   overwhelming majority of real interleaving bugs while keeping the
//!   schedule space shallow.
//! * **Heuristic partial-order reduction**: when the running thread's
//!   pending operation commutes with every other runnable thread's pending
//!   operation (disjoint locations, or the same location with both sides
//!   reading), the controller lets it continue without consuming a decision
//!   — equivalent schedules differ only in the order of commuting steps, so
//!   branching there wastes budget.
//! * **Deterministic replay**: a violating schedule is identified by its
//!   `(seed, bound)` pair, printed on failure; [`replay`] re-executes that
//!   single schedule bit-identically (the program under test has no
//!   nondeterminism other than scheduling once its operations are routed).
//!
//! # What is and is not modeled
//!
//! The explorer enumerates **sequentially consistent** interleavings of the
//! routed operations. It does not model C11 weak-memory reorderings — the
//! workspace-wide `relaxed-ok:` tag registry (`scripts/lint.sh`) is the
//! discipline covering memory-ordering arguments. Page *data* words
//! (`cashmere_vmpage::Frame`) are deliberately not routed: applications are
//! data-race-free at word granularity by the paper's programming model, and
//! routing 1024-word pages would drown the schedule space; the model targets
//! the protocol's hand-rolled concurrent structures.
//!
//! # Cost when disabled
//!
//! Without the `enable` feature every hook in this crate is an empty
//! `#[inline]` function and the `ModelAtomic*` types are transparent
//! newtypes over `std::sync::atomic`, so release builds of the simulator are
//! unchanged. Crates with model tests switch the feature on from their
//! dev-dependencies, scoping the (thread-local check) dynamic dispatch to
//! test builds. A thread that is not registered with an active exploration
//! always falls through to the real primitive, so ordinary tests coexist
//! with model tests in one process.

// This crate IS the concurrency shim layer's model backend: it legitimately
// builds on raw std primitives (the workspace-wide bans exist to funnel
// everyone else through the shims so this crate can interpose).
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod atomic;
pub mod thread;

#[cfg(any(test, feature = "enable"))]
mod sched;

pub use atomic::{ModelAtomicBool, ModelAtomicU64, ModelAtomicUsize};

#[cfg(any(test, feature = "enable"))]
pub use sched::{expect_violation, explore, replay, try_explore, Explored, ModelConfig, Violation};

/// The flavor of a routed operation, as published to the controller at a
/// schedule point. Lock flavors are used by the `parking_lot` shim; atomic
/// flavors by the [`ModelAtomic*`](ModelAtomicU64) wrappers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Atomic load.
    Read,
    /// Atomic store.
    Write,
    /// Atomic read-modify-write.
    Rmw,
    /// Blocking mutex acquire.
    LockAcquire,
    /// Mutex release.
    LockRelease,
    /// Non-blocking mutex attempt.
    TryLock,
    /// Shared rwlock acquire.
    RwRead,
    /// Exclusive rwlock acquire.
    RwWrite,
    /// Shared rwlock release.
    RwUnlockRead,
    /// Exclusive rwlock release.
    RwUnlockWrite,
    /// Thread creation.
    Spawn,
    /// First schedule point of a new thread.
    Start,
    /// Join on the thread whose model id is the operand.
    Join(usize),
    /// Explicit yield (always a branch point).
    Yield,
    /// Park: runnable only while the thread's park token is available;
    /// consumes it.
    Park,
    /// Unpark of the thread whose model id is the operand: makes its park
    /// token available.
    Unpark(usize),
    /// Condvar wait on `loc`: releases the mutex whose location is the
    /// operand and queues the thread on the condvar, in one step.
    CondWait(usize),
    /// Return from a condvar wait on `loc`: runnable only once a notify has
    /// dequeued the thread.
    CondWake,
    /// Condvar notify on `loc`: dequeues the longest waiter, or every
    /// waiter if the operand is set; lost if nobody is queued.
    Notify(bool),
}

macro_rules! gated {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),*) $body:block) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) {
            #[cfg(any(test, feature = "enable"))]
            $body
            #[cfg(not(any(test, feature = "enable")))]
            {
                $(let _ = $arg;)*
            }
        }
    };
}

gated! {
    /// Schedule point before an atomic operation on location `loc`.
    pub fn on_atomic(loc: usize, kind: OpKind) {
        sched::point(crate::Op { kind, loc });
    }
}

gated! {
    /// Blocking mutex acquire on `loc`: under an active exploration the
    /// calling thread is scheduled only once the modeled lock is free, and
    /// the controller records it as the owner before this returns.
    pub fn on_mutex_lock(loc: usize) {
        sched::point(crate::Op { kind: OpKind::LockAcquire, loc });
    }
}

gated! {
    /// Mutex release on `loc` (called before the real unlock).
    pub fn on_mutex_unlock(loc: usize) {
        sched::point(crate::Op { kind: OpKind::LockRelease, loc });
    }
}

gated! {
    /// Schedule point before a non-blocking mutex attempt on `loc`.
    pub fn on_mutex_try(loc: usize) {
        sched::point(crate::Op { kind: OpKind::TryLock, loc });
    }
}

gated! {
    /// Records the caller as owner of `loc` after a successful `try_lock`
    /// (bookkeeping only — not a schedule point).
    pub fn on_mutex_acquired(loc: usize) {
        sched::claim_try_lock(loc);
    }
}

gated! {
    /// Shared rwlock acquire on `loc`.
    pub fn on_rwlock_read(loc: usize) {
        sched::point(crate::Op { kind: OpKind::RwRead, loc });
    }
}

gated! {
    /// Exclusive rwlock acquire on `loc`.
    pub fn on_rwlock_write(loc: usize) {
        sched::point(crate::Op { kind: OpKind::RwWrite, loc });
    }
}

gated! {
    /// Shared rwlock release on `loc` (called before the real unlock).
    pub fn on_rwlock_unlock_read(loc: usize) {
        sched::point(crate::Op { kind: OpKind::RwUnlockRead, loc });
    }
}

gated! {
    /// Exclusive rwlock release on `loc` (called before the real unlock).
    pub fn on_rwlock_unlock_write(loc: usize) {
        sched::point(crate::Op { kind: OpKind::RwUnlockWrite, loc });
    }
}

/// Condvar wait on `cv` with the guard of `mutex`: under an active
/// exploration the controller releases the modeled mutex and queues the
/// caller on `cv` in one step, and this returns `true` — the caller then
/// drops the real guard, passes [`on_condvar_wake`] and locks again. Returns
/// `false` outside an exploration: the caller uses the real primitive.
#[inline]
#[must_use]
pub fn on_condvar_wait(cv: usize, mutex: usize) -> bool {
    #[cfg(any(test, feature = "enable"))]
    if sched::active() {
        sched::point(Op {
            kind: OpKind::CondWait(mutex),
            loc: cv,
        });
        return true;
    }
    let _ = (cv, mutex);
    false
}

gated! {
    /// The sleep of a modeled condvar wait on `cv`: the calling thread is
    /// scheduled only once a notify has dequeued it.
    pub fn on_condvar_wake(cv: usize) {
        sched::point(crate::Op { kind: OpKind::CondWake, loc: cv });
    }
}

gated! {
    /// Notify on `cv`, of one waiter or of `all`.
    pub fn on_condvar_notify(cv: usize, all: bool) {
        sched::point(crate::Op { kind: OpKind::Notify(all), loc: cv });
    }
}

/// One routed operation: the flavor plus the address-derived location id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Operation flavor.
    pub kind: OpKind,
    /// Location identity (the primitive's address; stable for the lifetime
    /// of a schedule, which is all the controller compares within).
    pub loc: usize,
}

#[cfg(any(test, feature = "enable"))]
impl Op {
    /// Whether this operation may be skipped over by the partial-order
    /// heuristic (pure data/lock traffic; control operations always branch).
    fn por_eligible(self) -> bool {
        !matches!(
            self.kind,
            OpKind::Spawn
                | OpKind::Start
                | OpKind::Join(_)
                | OpKind::Yield
                | OpKind::Park
                | OpKind::Unpark(_)
                | OpKind::CondWait(_)
                | OpKind::CondWake
                | OpKind::Notify(_)
        )
    }

    /// Whether two pending operations conflict (must be ordered both ways to
    /// cover the schedule space). Control operations conservatively conflict
    /// with everything.
    fn conflicts(self, other: Op) -> bool {
        if !self.por_eligible() || !other.por_eligible() {
            return true;
        }
        if self.loc != other.loc {
            return false;
        }
        // Same location: only read/read pairs commute.
        !matches!(
            (self.kind, other.kind),
            (OpKind::Read, OpKind::Read) | (OpKind::RwRead, OpKind::RwRead)
        )
    }
}
