//! Synchronization carriers: locks, barriers, and flags.
//!
//! The paper's synchronization primitives are two-level: an intra-node
//! `ll/sc` flag plus reads and writes to a loop-back Memory Channel array
//! (§2.3, "Synchronization"). This module provides the *carrier* half of
//! each primitive — real blocking (so the simulated processors, which are OS
//! threads, actually exclude each other and rendezvous) plus **virtual-time
//! reconciliation**:
//!
//! * a lock occupies a virtual-time slot per hand-off (see [`CarrierLock`]
//!   for why it deliberately does NOT chain clocks through release times),
//! * a barrier departs at the maximum arrival time plus the barrier cost,
//! * a flag wait completes no earlier than the flag's set time (flags carry
//!   the producer→consumer causality, e.g. Gauss's pivot-row readiness).
//!
//! The protocol side of synchronization (consistency actions on acquire and
//! release) lives in the engine; the faithful Memory Channel lock algorithm
//! itself is in [`crate::mc_lock`] and is used where the paper uses it —
//! home-node selection.

use parking_lot::{Condvar, Mutex};

use cashmere_sim::{Nanos, Resource};

/// A mutual-exclusion carrier.
///
/// *Real* mutual exclusion comes from the mutex/condvar pair — critical
/// sections of the simulated program never overlap in real execution, so
/// shared data stays consistent. *Virtual-time* cost is modeled with a
/// busy-interval [`Resource`]: each acquire occupies the lock for the
/// configured hand-off cost in the earliest gap at or after the caller's
/// own clock. Overlapping (virtual-time) acquires therefore queue, while a
/// processor whose clock is far behind the previous holder's is NOT dragged
/// to that holder's release time — on real hardware it would have been
/// granted the lock long before, and chaining clocks through the host
/// machine's arbitrary real-time grant order would serialize whole
/// applications behind whichever thread the OS happened to schedule first.
/// (Coherence itself is ordered by the protocol's per-node logical clocks
/// and by the real execution order, not by these accounting clocks.)
pub struct CarrierLock {
    inner: Mutex<LockInner>,
    cv: Condvar,
    slots: Resource,
}

#[derive(Default)]
struct LockInner {
    held: bool,
}

impl CarrierLock {
    /// Creates an unheld lock.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(LockInner::default()),
            cv: Condvar::new(),
            slots: Resource::new(),
        }
    }

    /// Blocks until the lock is free, takes it, and returns the virtual
    /// time at which the acquire completes, having occupied the lock for
    /// `hold` ns in the earliest available virtual-time slot.
    pub fn acquire_for(&self, arrive_vt: Nanos, hold: Nanos) -> Nanos {
        let mut g = self.inner.lock();
        while g.held {
            self.cv.wait(&mut g);
        }
        g.held = true;
        drop(g);
        self.slots.acquire(arrive_vt, hold.max(1))
    }

    /// Blocks until the lock is free and takes it (zero-cost hand-off;
    /// tests and simple callers).
    pub fn acquire(&self, arrive_vt: Nanos) -> Nanos {
        self.acquire_for(arrive_vt, 1)
    }

    /// Non-blocking [`Self::acquire_for`]: takes the lock and returns the
    /// completion time if it is free, or `None` without blocking. Used by
    /// the deterministic scheduler's lock gate (DESIGN.md §15), where
    /// blocking in real time would stall a host worker — contenders park in
    /// the scheduler instead and retry when the holder's release unblocks
    /// them.
    pub fn try_acquire_for(&self, arrive_vt: Nanos, hold: Nanos) -> Option<Nanos> {
        let mut g = self.inner.lock();
        if g.held {
            return None;
        }
        g.held = true;
        drop(g);
        Some(self.slots.acquire(arrive_vt, hold.max(1)))
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn release(&self, _vt: Nanos) {
        let mut g = self.inner.lock();
        assert!(g.held, "release of an unheld lock");
        g.held = false;
        drop(g);
        self.cv.notify_one();
    }
}

impl Default for CarrierLock {
    fn default() -> Self {
        Self::new()
    }
}

/// A generation (sense-reversing) barrier carrier.
pub struct CarrierBarrier {
    inner: Mutex<BarrierInner>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierInner {
    arrived: usize,
    max_vt: Nanos,
    epoch: u64,
    departure_vt: Nanos,
}

/// Result of a non-blocking barrier arrival ([`CarrierBarrier::arrive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierArrival {
    /// This arrival completed the rendezvous; every participant departs.
    Complete(BarrierCrossing),
    /// Others are still missing; poll with the returned epoch.
    Waiting(u64),
}

/// Result of a barrier crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCrossing {
    /// Virtual time at which every participant departs.
    pub departure_vt: Nanos,
    /// Whether this caller was the last arriver (used to count episodes).
    pub was_last: bool,
    /// The barrier episode this crossing completed (1-based). All
    /// participants of one rendezvous report the same epoch.
    pub epoch: u64,
}

impl CarrierBarrier {
    /// Creates a barrier.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(BarrierInner::default()),
            cv: Condvar::new(),
        }
    }

    /// Waits for `participants` arrivals. The last arriver computes the
    /// common departure time `max(arrival times) + cost` and wakes everyone.
    pub fn wait(&self, participants: usize, arrive_vt: Nanos, cost: Nanos) -> BarrierCrossing {
        assert!(participants > 0);
        let mut g = self.inner.lock();
        g.max_vt = g.max_vt.max(arrive_vt);
        g.arrived += 1;
        if g.arrived == participants {
            let departure = g.max_vt + cost;
            g.departure_vt = departure;
            g.arrived = 0;
            g.max_vt = 0;
            g.epoch += 1;
            let epoch = g.epoch;
            drop(g);
            self.cv.notify_all();
            BarrierCrossing {
                departure_vt: departure,
                was_last: true,
                epoch,
            }
        } else {
            let epoch = g.epoch;
            while g.epoch == epoch {
                self.cv.wait(&mut g);
            }
            BarrierCrossing {
                departure_vt: g.departure_vt,
                was_last: false,
                epoch: epoch + 1,
            }
        }
    }

    /// Non-blocking [`Self::wait`]: registers the arrival and either
    /// completes the rendezvous (this caller was the last participant) or
    /// returns the epoch to [`poll`](Self::poll) once the completion has
    /// been signalled. Used by the deterministic scheduler's barrier gate
    /// (DESIGN.md §15): early arrivers park in the scheduler instead of on
    /// the condvar.
    pub fn arrive(&self, participants: usize, arrive_vt: Nanos, cost: Nanos) -> BarrierArrival {
        assert!(participants > 0);
        let mut g = self.inner.lock();
        g.max_vt = g.max_vt.max(arrive_vt);
        g.arrived += 1;
        if g.arrived == participants {
            let departure = g.max_vt + cost;
            g.departure_vt = departure;
            g.arrived = 0;
            g.max_vt = 0;
            g.epoch += 1;
            let epoch = g.epoch;
            BarrierArrival::Complete(BarrierCrossing {
                departure_vt: departure,
                was_last: true,
                epoch,
            })
        } else {
            BarrierArrival::Waiting(g.epoch)
        }
    }

    /// Checks whether the episode a [`Self::arrive`] joined at `epoch` has
    /// completed; returns the crossing if so.
    pub fn poll(&self, epoch: u64) -> Option<BarrierCrossing> {
        let g = self.inner.lock();
        (g.epoch != epoch).then_some(BarrierCrossing {
            departure_vt: g.departure_vt,
            was_last: false,
            epoch: epoch + 1,
        })
    }
}

impl Default for CarrierBarrier {
    fn default() -> Self {
        Self::new()
    }
}

/// A one-shot event flag carrier — the paper's third primitive,
/// used e.g. by Gauss to announce pivot-row availability.
pub struct CarrierFlag {
    inner: Mutex<FlagInner>,
    cv: Condvar,
}

#[derive(Default)]
struct FlagInner {
    set: bool,
    set_vt: Nanos,
}

impl CarrierFlag {
    /// Creates an unset flag.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(FlagInner::default()),
            cv: Condvar::new(),
        }
    }

    /// Sets the flag at virtual time `vt`, waking waiters.
    pub fn set(&self, vt: Nanos) {
        let mut g = self.inner.lock();
        g.set = true;
        g.set_vt = g.set_vt.max(vt);
        drop(g);
        self.cv.notify_all();
    }

    /// Blocks until the flag is set; returns the virtual time at which the
    /// wait logically completes.
    pub fn wait(&self, arrive_vt: Nanos) -> Nanos {
        let mut g = self.inner.lock();
        while !g.set {
            self.cv.wait(&mut g);
        }
        arrive_vt.max(g.set_vt)
    }

    /// Non-blocking [`Self::wait`]: returns the completion time if the flag
    /// is set, `None` otherwise. Used by the deterministic scheduler's flag
    /// gate (DESIGN.md §15); waiters park in the scheduler and retry when
    /// the setter unblocks them.
    pub fn try_wait(&self, arrive_vt: Nanos) -> Option<Nanos> {
        let g = self.inner.lock();
        g.set.then_some(arrive_vt.max(g.set_vt))
    }

    /// Non-blocking check.
    pub fn is_set(&self) -> bool {
        self.inner.lock().set
    }
}

impl Default for CarrierFlag {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_handoff_occupies_virtual_time_slots() {
        let l = CarrierLock::new();
        // Each acquire occupies the lock for the hold time, in the earliest
        // gap at or after the caller's clock.
        assert_eq!(l.acquire_for(100, 50), 150);
        l.release(150);
        // Overlapping request queues behind the first slot.
        assert_eq!(l.acquire_for(120, 50), 200);
        l.release(200);
        // A request far in the past is NOT dragged to the previous holder's
        // time; it slots in before.
        assert_eq!(l.acquire_for(0, 50), 50);
        l.release(50);
        assert_eq!(l.acquire(900), 901);
        l.release(950);
    }

    #[test]
    #[should_panic(expected = "unheld")]
    fn releasing_unheld_lock_panics() {
        CarrierLock::new().release(0);
    }

    #[test]
    fn lock_excludes_across_threads() {
        let l = Arc::new(CarrierLock::new());
        let counter = Arc::new(Mutex::new(0u64));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let counter = Arc::clone(&counter);
                cashmere_model::thread::spawn(move || {
                    for _ in 0..500 {
                        let vt = l.acquire(0);
                        *counter.lock() += 1;
                        l.release(vt + 1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        assert_eq!(*counter.lock(), 2000);
    }

    #[test]
    fn barrier_departs_at_max_plus_cost() {
        let b = Arc::new(CarrierBarrier::new());
        let b2 = Arc::clone(&b);
        let h = cashmere_model::thread::spawn(move || b2.wait(2, 1_000, 50));
        let me = b.wait(2, 3_000, 50);
        let other = h.join();
        assert_eq!(me.departure_vt, 3_050);
        assert_eq!(other.departure_vt, 3_050);
        assert_ne!(me.was_last, other.was_last, "exactly one last arriver");
    }

    #[test]
    fn barrier_is_reusable_across_episodes() {
        let b = Arc::new(CarrierBarrier::new());
        for round in 0..5u64 {
            let b2 = Arc::clone(&b);
            let h = cashmere_model::thread::spawn(move || b2.wait(2, round * 10, 1));
            let me = b.wait(2, round * 10 + 5, 1);
            let other = h.join();
            assert_eq!(me.departure_vt, round * 10 + 6);
            assert_eq!(other.departure_vt, me.departure_vt);
        }
    }

    #[test]
    fn flag_wait_reconciles_with_set_time() {
        let f = Arc::new(CarrierFlag::new());
        let f2 = Arc::clone(&f);
        let h = cashmere_model::thread::spawn(move || f2.wait(10));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!f.is_set());
        f.set(9_999);
        assert_eq!(h.join(), 9_999);
        // A late waiter keeps its own (later) time.
        assert_eq!(f.wait(20_000), 20_000);
    }
}
