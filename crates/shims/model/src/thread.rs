//! Thread facade: `spawn`/`join`/`yield_now`/`park`/`unpark` that pass
//! straight through to `std::thread` normally, and become model-controlled
//! schedule points when the calling thread belongs to an active exploration.
//! Writing scenario code against this facade lets the *same* function back
//! both an ordinary OS-thread stress test and a model test.
//!
//! `JoinHandle::join` returns `T` directly (propagating a child panic by
//! resuming its unwind), because the model has no meaningful
//! `Result`-shaped join: a panicked model thread fails the whole schedule.

enum Inner<T> {
    Os(std::thread::JoinHandle<T>),
    #[cfg(any(test, feature = "enable"))]
    Model(crate::sched::ModelJoinHandle<T>),
}

/// Handle to a spawned thread; see the module docs for join semantics.
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread and returns its result. A child panic resumes
    /// unwinding in the caller (under the model it fails the schedule).
    pub fn join(self) -> T {
        match self.0 {
            Inner::Os(h) => match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            },
            #[cfg(any(test, feature = "enable"))]
            Inner::Model(h) => h.join(),
        }
    }
}

/// Spawns a thread: model-controlled when called from a registered model
/// thread, a plain `std::thread::spawn` otherwise.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(any(test, feature = "enable"))]
    if crate::sched::active() {
        return JoinHandle(Inner::Model(crate::sched::spawn_model(f)));
    }
    JoinHandle(Inner::Os(std::thread::spawn(f)))
}

/// Yields: a (never POR-skipped) schedule point under the model, a real
/// `std::thread::yield_now` otherwise.
pub fn yield_now() {
    #[cfg(any(test, feature = "enable"))]
    if crate::sched::active() {
        crate::sched::point(crate::Op {
            kind: crate::OpKind::Yield,
            loc: 0,
        });
        return;
    }
    std::thread::yield_now();
}

/// A handle to a thread, for [`Thread::unpark`]; obtained with [`current`].
#[derive(Debug, Clone)]
pub struct Thread(ThreadInner);

#[derive(Debug, Clone)]
enum ThreadInner {
    Os(std::thread::Thread),
    #[cfg(any(test, feature = "enable"))]
    Model(usize),
}

impl Thread {
    /// The handle of model thread `tid` (ids follow spawn order).
    #[cfg(test)]
    pub(crate) fn model(tid: usize) -> Self {
        Self(ThreadInner::Model(tid))
    }

    /// Makes the thread's park token available: its current or next
    /// [`park`] returns. Tokens do not accumulate (`std::thread` semantics,
    /// which the model reproduces exactly).
    pub fn unpark(&self) {
        match &self.0 {
            ThreadInner::Os(t) => t.unpark(),
            #[cfg(any(test, feature = "enable"))]
            ThreadInner::Model(tid) => crate::sched::point(crate::Op {
                kind: crate::OpKind::Unpark(*tid),
                loc: *tid,
            }),
        }
    }
}

/// The calling thread's handle: its model thread when it belongs to an
/// active exploration, its OS thread otherwise.
#[must_use]
pub fn current() -> Thread {
    #[cfg(any(test, feature = "enable"))]
    if let Some(tid) = crate::sched::current_tid() {
        return Thread(ThreadInner::Model(tid));
    }
    Thread(ThreadInner::Os(std::thread::current()))
}

/// Blocks until the calling thread's park token is available, and consumes
/// it. Under the model the thread is not runnable while the token is
/// absent, so a lost wakeup is a reported deadlock, and there are no
/// spurious returns; `std::thread::park` may return spuriously, so callers
/// re-check their condition in a loop either way.
pub fn park() {
    #[cfg(any(test, feature = "enable"))]
    if crate::sched::active() {
        crate::sched::point(crate::Op {
            kind: crate::OpKind::Park,
            loc: 0,
        });
        return;
    }
    std::thread::park();
}
