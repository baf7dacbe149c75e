//! Structured (borrowing) task scopes.
//!
//! A [`Scope`] lets tasks borrow data from the caller's stack frame. Safety
//! rests on one invariant: every task spawned on the scope completes before
//! [`ThreadPool::scope`](crate::ThreadPool::scope) returns, enforced by
//! [`Scope::wait`]. The lifetime erasure below (`'scope` → `'static`) is the
//! standard scoped-pool construction, sound because of that join.

use std::any::Any;
use std::marker::PhantomData;
use std::mem;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_util::sync::Mutex;

use crate::fault::FatalFault;
use crate::latch::Latch;
use crate::pool::ThreadPool;

/// How long [`Scope::wait`] blocks before it looks for stealable work
/// again. Work a blocked waiter must run itself only appears when every
/// other thread is blocked too (nested scopes on a saturated pool), so the
/// cap bounds that rare case; the common end of a wait is the last task's
/// wake.
const STEAL_RECHECK: Duration = Duration::from_millis(1);

struct ScopeState {
    /// Counts spawned tasks not yet finished.
    pending: Latch,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Handle for spawning tasks that may borrow from the enclosing frame.
pub struct Scope<'scope> {
    state: Arc<ScopeState>,
    pool: *const ThreadPool,
    /// Invariant over `'scope`, mirroring `std::thread::Scope`.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    pub(crate) fn new(pool: &ThreadPool) -> Self {
        Scope {
            state: Arc::new(ScopeState {
                pending: Latch::new(0),
                panic: Mutex::new(None),
            }),
            pool: pool as *const ThreadPool,
            _marker: PhantomData,
        }
    }

    /// Spawn a task that may borrow data living at least as long as the
    /// scope. The task is joined before the scope call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.count_up();
        let state = Arc::clone(&self.state);
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: `wait` blocks until `pending == 0`, so the closure (and
        // everything it borrows from `'scope`) outlives its execution.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { mem::transmute(boxed) };
        let job = Box::new(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(boxed));
            if let Err(payload) = result {
                let fatal = payload.is::<FatalFault>();
                {
                    let mut slot = state.panic.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                state.pending.count_down();
                if fatal {
                    // The payload is recorded for the host above; re-raise a
                    // fresh FatalFault so the pool still retires this worker
                    // (fatality must not be absorbed by scope bookkeeping).
                    FatalFault::raise("fatal fault re-raised from scope task");
                }
            } else {
                state.pending.count_down();
            }
        });
        // SAFETY: the pool pointer is valid for the duration of the scope
        // (it is the pool running the enclosing `scope` call).
        let pool = unsafe { &*self.pool };
        pool.inner.injector.push(job);
        pool.inner.notify_one();
    }

    /// Number of tasks not yet finished. Only a hint; racy by nature.
    pub fn pending(&self) -> usize {
        self.state.pending.remaining() as usize
    }

    /// Join every task: run stealable pool work while there is any (a
    /// nested scope's tasks may be queued behind this one), and otherwise
    /// wait on the scope's latch, spinning only the first time after each
    /// run of work. A helping thread is never retired by a fatal fault —
    /// only pool workers are.
    pub(crate) fn wait(self, pool: &ThreadPool) {
        let pending = &self.state.pending;
        let mut spin = true;
        while !pending.is_done() {
            if let Some(task) = pool.inner.steal_task() {
                // Outcome deliberately ignored: fatality applies to workers.
                let _ = pool.inner.execute(task);
                spin = true;
            } else {
                pending.wait_until(Some(Instant::now() + STEAL_RECHECK), spin);
                spin = false;
            }
        }
        if let Some(payload) = self.state.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
    }
}

// SAFETY: Scope only hands out methods requiring `&self`; internal state is
// atomics and a mutex. The raw pool pointer is only dereferenced while the
// pool is alive (guaranteed by `ThreadPool::scope`'s borrow).
unsafe impl Sync for Scope<'_> {}
unsafe impl Send for Scope<'_> {}

#[cfg(test)]
mod tests {
    use crate::{PoolConfig, ThreadPool};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(PoolConfig::default().workers(4)).unwrap();
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn first_panic_wins_but_all_tasks_finish() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        let done = AtomicUsize::new(0);
        let done = &done;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    s.spawn(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = ThreadPool::new(PoolConfig::default().workers(1)).unwrap();
        pool.scope(|_| {});
    }
}
