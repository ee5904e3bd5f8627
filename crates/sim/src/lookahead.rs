//! Lookahead horizon for the deterministic parallel engine (DESIGN.md §15).
//!
//! Lives next to [`ProcClock`](crate::ProcClock): where the clock answers
//! "how far has this processor advanced?", the [`HorizonClock`] answers "how
//! far may any processor advance before it must park?". The deterministic
//! scheduler (`cashmere-core`'s `det` module) opens execution windows by
//! advancing the horizon one quantum at a time; simulated processors consult
//! it lock-free on every operation entry and park once their virtual time
//! reaches the window end.
//!
//! Parked processors do not sleep on the horizon: the scheduler hands each
//! one its turn through its own [`WakeSlot`] (below), and only ever to a
//! processor it has already put inside a window.
//!
//! # The hand-off slot
//!
//! A [`WakeSlot`] is one processor's private wait location: a flag plus
//! the host thread that sleeps on it. The waker writes it once; nobody
//! else is disturbed. The owner [`bind`](WakeSlot::bind)s its thread to
//! the slot once, before anything that lets a waker reach it (the
//! scheduler binds in `start`, ahead of the mutex under which a waker
//! first learns the processor is parked), so a wake always has a thread to
//! unpark. The lost-wakeup argument then rests on two orders:
//!
//! * the **waker** sets the flag *first*, then unparks the owner —
//!   [`wake`](WakeSlot::wake);
//! * the **owner** re-checks the flag every time `park` returns —
//!   [`wait`](WakeSlot::wait).
//!
//! `park`/`unpark` keep a one-deep token and synchronize through it (the
//! `std::thread` contract, which the model reproduces): an unpark issued
//! before the owner parks makes that `park` return at once, with the flag
//! store before it visible; one issued after wakes it. With the waker's
//! two steps swapped ([`wake_mutant_unpark_first`]) the owner can consume
//! the token, read the flag still down, and park again with no unpark left
//! to come; `model_handoff_*` proves the explorer finds that schedule.
//!
//! # The horizon's own wakeup protocol
//!
//! [`wait_past`] has no caller in the tree but `model_scenarios::
//! lookahead_wakeup`; the scheduler stopped using it when per-processor
//! hand-off made the horizon sleep redundant. It stays because the repo
//! benchmark (`benchmark/`) calls it; a benchmark issue can retire it.
//!
//! A sleeper on the horizon must not miss the advance that releases it
//! (the classic lost-wakeup race: the sleeper checks the horizon, decides to
//! sleep, and the advance lands in between). The protocol is seqlock-style,
//! built from two atomics so the interleaving explorer can model it:
//!
//! * the **advancer** publishes the new horizon *first*, then bumps
//!   `sleep_epoch` (the wakeup broadcast) — [`advance_past`];
//! * the **sleeper** re-reads the horizon *after* capturing the epoch it
//!   will sleep on — [`wait_past`] — so either it observes the new horizon
//!   and returns, or its captured epoch predates the broadcast and the
//!   epoch bump wakes it.
//!
//! Swapping the advancer's two stores loses exactly one interleaving: the
//! sleeper can capture the *post-bump* epoch while still reading the
//! *pre-advance* horizon, then sleep on an epoch that will never change.
//! The `model_lookahead_*` scenarios prove the explorer catches that mutant
//! ([`advance_past_mutant_wake_first`]).
//!
//! Only one thread may advance at a time (in the scheduler that is whoever
//! runs the coordinator, always under the scheduler lock); any number of
//! threads may wait or read concurrently.
//!
//! [`advance_past`]: HorizonClock::advance_past
//! [`wait_past`]: HorizonClock::wait_past
//! [`advance_past_mutant_wake_first`]: HorizonClock::advance_past_mutant_wake_first
//! [`wake_mutant_unpark_first`]: WakeSlot::wake_mutant_unpark_first

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use cashmere_model::thread::{self, Thread};
use cashmere_model::{ModelAtomicBool, ModelAtomicU64};

use crate::time::Nanos;

/// The shared lookahead horizon: an execution-window end in virtual
/// nanoseconds plus the sleep epoch used to wake parked processors.
#[derive(Debug)]
pub struct HorizonClock {
    /// Exclusive end of the current window: a processor at virtual time
    /// `vt` may keep running iff `vt < end`.
    end: ModelAtomicU64,
    /// Bumped after every horizon advance; sleepers wait for it to change.
    sleep_epoch: ModelAtomicU64,
    /// Window granularity: horizons always land on multiples of this.
    quantum: Nanos,
}

impl HorizonClock {
    /// A horizon starting at 0 (everything parks immediately) with the
    /// given window quantum (clamped to at least 1 ns).
    #[must_use]
    pub fn new(quantum: Nanos) -> Self {
        Self {
            end: ModelAtomicU64::new(0),
            sleep_epoch: ModelAtomicU64::new(0),
            quantum: quantum.max(1),
        }
    }

    /// The window quantum.
    #[must_use]
    pub fn quantum(&self) -> Nanos {
        self.quantum
    }

    /// The current window end (exclusive).
    #[must_use]
    pub fn end(&self) -> Nanos {
        self.end.load(Ordering::Acquire)
    }

    /// Whether a processor at `vt` has reached the horizon and must park.
    /// This is the per-operation fast path: a single atomic load.
    #[must_use]
    pub fn past(&self, vt: Nanos) -> bool {
        vt >= self.end()
    }

    /// The current sleep epoch. Sleepers capture it via [`wait_past`]'s
    /// protocol; a change means "a horizon advance happened, re-check".
    #[must_use]
    pub fn sleep_epoch(&self) -> u64 {
        self.sleep_epoch.load(Ordering::Acquire)
    }

    /// Advances the horizon to the next quantum boundary strictly past
    /// `vt` (never retreating), then broadcasts the wakeup by bumping the
    /// sleep epoch. Returns the new window end.
    ///
    /// Single-advancer contract: callers must serialize advances (the
    /// deterministic scheduler's coordinator holds the scheduler lock).
    pub fn advance_past(&self, vt: Nanos) -> Nanos {
        let new_end = self.cover(vt);
        // Horizon first, broadcast second: a sleeper that captured the old
        // epoch re-checks the horizon before sleeping, so it either sees
        // this store or is woken by the bump below.
        self.end.store(new_end, Ordering::Release);
        self.sleep_epoch.fetch_add(1, Ordering::Release);
        new_end
    }

    /// The mutant of [`advance_past`] with the two stores swapped (wakeup
    /// broadcast before the horizon bump). Kept compiled so the
    /// `model_lookahead_*` tests can prove the explorer catches the lost
    /// wakeup this order admits.
    #[doc(hidden)]
    pub fn advance_past_mutant_wake_first(&self, vt: Nanos) -> Nanos {
        let new_end = self.cover(vt);
        self.sleep_epoch.fetch_add(1, Ordering::Release);
        self.end.store(new_end, Ordering::Release);
        new_end
    }

    /// Blocks until the horizon passes `vt`, using `sleep` to wait.
    ///
    /// `sleep(epoch)` must block until [`sleep_epoch`](Self::sleep_epoch)
    /// differs from `epoch` (spurious returns are fine — the loop
    /// re-checks): a condvar wait on real threads, a yielding spin in the
    /// model scenario.
    pub fn wait_past(&self, vt: Nanos, mut sleep: impl FnMut(u64)) {
        loop {
            if !self.past(vt) {
                return;
            }
            let seen = self.sleep_epoch();
            // Re-check after capturing the epoch: an advance that completed
            // before this load already bumped the epoch, so sleeping on
            // `seen` would never wake for it.
            if !self.past(vt) {
                return;
            }
            sleep(seen);
        }
    }

    /// The smallest quantum multiple strictly past `vt`, floored at the
    /// current end so the horizon never retreats.
    fn cover(&self, vt: Nanos) -> Nanos {
        let target = (vt / self.quantum + 1).saturating_mul(self.quantum);
        self.end().max(target)
    }
}

/// One waiter's private wake location: a one-shot flag plus the host
/// thread parked on it (see the module docs for the protocol).
///
/// The thread that [`bind`](Self::bind)s the slot owns it for good and is
/// the only one to [`wait`](Self::wait) on it; any thread may
/// [`wake`](Self::wake) it once the bind happens-before that wake. Each
/// wake releases exactly one wait, whichever comes first.
#[derive(Debug, Default)]
pub struct WakeSlot {
    /// Raised by the waker, lowered by the owner as it leaves its wait.
    flag: ModelAtomicBool,
    /// The owner's host thread.
    owner: OnceLock<Thread>,
}

impl WakeSlot {
    /// An unbound slot, flag down.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes the calling thread the slot's owner. Call once, before
    /// publishing whatever lets a waker find this slot.
    pub fn bind(&self) {
        let fresh = self.owner.set(thread::current()).is_ok();
        assert!(fresh, "WakeSlot bound twice");
    }

    /// Blocks the owner until the slot has been woken since its last wait
    /// returned. Returns at once if the wake already landed.
    pub fn wait(&self) {
        // Acquire pairs with the Release store in `wake`: what the waker
        // wrote before handing over is visible after this returns.
        while !self.flag.swap(false, Ordering::Acquire) {
            thread::park();
        }
    }

    /// Releases the owner's current or next [`wait`](Self::wait).
    pub fn wake(&self) {
        self.flag.store(true, Ordering::Release);
        self.unpark_owner();
    }

    /// The mutant of [`wake`](Self::wake) with its two steps swapped
    /// (unpark before the flag). Kept compiled so the `model_handoff_*`
    /// tests can prove the explorer catches the lost wakeup it admits.
    #[doc(hidden)]
    pub fn wake_mutant_unpark_first(&self) {
        self.unpark_owner();
        self.flag.store(true, Ordering::Release);
    }

    fn unpark_owner(&self) {
        self.owner
            .get()
            .expect("WakeSlot woken before its owner bound it")
            .unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_before_wait_is_kept_and_consumed_once() {
        let slot = WakeSlot::new();
        slot.bind();
        slot.wake();
        slot.wait();
        assert!(!slot.flag.load(Ordering::Acquire), "wait consumes the wake");
    }

    #[test]
    fn starts_closed_and_advances_on_quantum_boundaries() {
        let hc = HorizonClock::new(100);
        assert_eq!(hc.end(), 0);
        assert!(hc.past(0));
        assert_eq!(hc.advance_past(0), 100);
        assert!(!hc.past(99));
        assert!(hc.past(100));
        assert_eq!(hc.advance_past(100), 200);
        assert_eq!(hc.advance_past(250), 300);
        // Exact multiples still open a strictly later window.
        assert_eq!(hc.advance_past(300), 400);
    }

    #[test]
    fn never_retreats() {
        let hc = HorizonClock::new(10);
        assert_eq!(hc.advance_past(995), 1000);
        assert_eq!(hc.advance_past(5), 1000);
        assert_eq!(hc.end(), 1000);
    }

    #[test]
    fn quantum_clamped_to_one() {
        let hc = HorizonClock::new(0);
        assert_eq!(hc.quantum(), 1);
        assert_eq!(hc.advance_past(7), 8);
    }

    #[test]
    fn wait_past_returns_without_sleeping_when_open() {
        let hc = HorizonClock::new(100);
        hc.advance_past(50);
        let mut slept = 0;
        hc.wait_past(20, |_| slept += 1);
        assert_eq!(slept, 0);
    }

    #[test]
    fn wait_past_sleeps_until_epoch_change() {
        let hc = HorizonClock::new(100);
        let mut sleeps = Vec::new();
        hc.wait_past(150, |epoch| {
            sleeps.push(epoch);
            // Simulate the advancer landing while we sleep.
            hc.advance_past(150);
        });
        assert_eq!(sleeps, vec![0]);
        assert!(hc.end() > 150);
    }

    #[test]
    fn epoch_bumps_once_per_advance() {
        let hc = HorizonClock::new(100);
        assert_eq!(hc.sleep_epoch(), 0);
        hc.advance_past(0);
        hc.advance_past(100);
        assert_eq!(hc.sleep_epoch(), 2);
    }
}
