//! In-tree stand-in for the `parking_lot` API subset this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the locking API it needs on top of `std::sync`. Differences from the real
//! crate are deliberate simplifications:
//!
//! * Poisoning is swallowed (`parking_lot` has no poisoning): a panic while
//!   holding a guard does not wedge later lockers. Simulated-processor
//!   panics already abort the run via `Cluster::run`'s joins.
//! * Fairness/eventual-fairness knobs are absent; the protocol code never
//!   relied on them.
//!
//! Only the types actually imported by the workspace are provided: [`Mutex`]
//! (with `const fn new`), [`Condvar`], and [`RwLock`].
//!
//! # Model hooks
//!
//! Every acquire, release, and try-acquire routes through
//! [`cashmere-model`](cashmere_model)'s schedule controller (re-exported
//! here as [`model`]). Without the `model` feature those hooks are empty
//! inline functions; with it, code running under `model::explore` has its
//! lock operations interleaved systematically (see DESIGN.md §11). This is
//! the reason the workspace bans `std::sync::{Mutex,RwLock}` outside the
//! shims (`scripts/lint.sh`): a lock that bypasses this facade is invisible
//! to the explorer.

// This crate IS the shim layer the workspace concurrency bans funnel
// everyone into; it legitimately builds on the raw std primitives.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// The interleaving explorer whose hooks these primitives call; model tests
/// reach it as `parking_lot::model` (or depend on `cashmere-model`
/// directly).
pub use cashmere_model as model;

/// Stable per-primitive location id for the model's conflict relation.
fn loc_of<T: ?Sized>(x: &T) -> usize {
    std::ptr::from_ref(x).cast::<()>() as usize
}

/// A mutual-exclusion primitive with `parking_lot`'s unpoisoned interface.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // The mutex itself, not just its location id: a modeled
    // `Condvar::wait` drops the std guard and has to lock again.
    mutex: &'a Mutex<T>,
    // `Option` so `Condvar::wait` can move the std guard out and back while
    // the caller retains the `&mut MutexGuard`.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex (usable in `static` initializers).
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available. Under an active model
    /// exploration the thread is scheduled only once the modeled lock is
    /// free, so the inner `std` lock never actually contends there.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        model::on_mutex_lock(loc_of(self));
        MutexGuard {
            mutex: self,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let loc = loc_of(self);
        model::on_mutex_try(loc);
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        model::on_mutex_acquired(loc);
        Some(MutexGuard {
            mutex: self,
            inner: Some(g),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release schedule point fires before the real unlock (the inner
        // guard drops after this body), keeping the modeled lock table
        // authoritative for who may be granted the lock next.
        model::on_mutex_unlock(loc_of(self.mutex));
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard invariant")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard invariant")
    }
}

/// A condition variable pairing with [`Mutex`], `parking_lot`-style
/// (`wait` takes the guard by `&mut`).
///
/// Under an active model exploration a wait is three schedule points: the
/// controller releases the modeled mutex and queues the thread on the
/// condvar in one step, the thread is not runnable again until a notify
/// dequeues it, and it then takes the mutex back like any other locker. A
/// notify with nobody queued is lost, as on the real primitive, so a lost
/// wake-up is a reported deadlock; the model has no spurious returns.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's mutex and waits for a notification,
    /// reacquiring before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard invariant");
        let g = if model::on_condvar_wait(loc_of(self), loc_of(guard.mutex)) {
            // The modeled release fired before the real unlock, as in
            // `MutexGuard::drop`; nothing else runs in between.
            drop(g);
            model::on_condvar_wake(loc_of(self));
            model::on_mutex_lock(loc_of(guard.mutex));
            guard.mutex.inner.lock()
        } else {
            self.inner.wait(g)
        };
        guard.inner = Some(g.unwrap_or_else(PoisonError::into_inner));
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        model::on_condvar_notify(loc_of(self), false);
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        model::on_condvar_notify(loc_of(self), true);
        self.inner.notify_all();
    }
}

/// A reader-writer lock with `parking_lot`'s unpoisoned interface.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    loc: usize,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    loc: usize,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let loc = loc_of(self);
        model::on_rwlock_read(loc);
        RwLockReadGuard {
            loc,
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let loc = loc_of(self);
        model::on_rwlock_write(loc);
        RwLockWriteGuard {
            loc,
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        model::on_rwlock_unlock_read(self.loc);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        model::on_rwlock_unlock_write(self.loc);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_excludes_and_survives_panic() {
        let m = Arc::new(Mutex::new(0u64));
        let m2 = Arc::clone(&m);
        // A panicking holder must not wedge the mutex for later lockers.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn static_mutex_const_init() {
        static S: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        S.lock().push(3);
        assert_eq!(S.lock().len(), 1);
    }

    #[test]
    fn condvar_wait_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(h.join().unwrap());
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(5u64);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 1);
    }
}
