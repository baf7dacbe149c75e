//! Worker thread main loop.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::deque::{Steal, Worker as LocalQueue};

use crate::affinity::pin_current_thread;
use crate::pool::{ExecOutcome, Inner, Task};
use crate::WorkerId;

/// How many times an idle worker polls for work before parking.
const SPIN_TRIES: u32 = 64;

thread_local! {
    static WORKER_ID: Cell<Option<WorkerId>> = const { Cell::new(None) };
    static WORKER_CORE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker id of the calling thread, when it is a pool worker.
pub(crate) fn current_worker() -> Option<WorkerId> {
    WORKER_ID.with(|c| c.get())
}

/// Core the calling worker was assigned by its pool's [`crate::PinPolicy`],
/// when the thread is a pool worker with a pinned core. This records the
/// policy's *intent* — it is set even if the `sched_setaffinity` call was
/// rejected (restricted cpuset), so traces stay deterministic.
pub(crate) fn current_pinned_core() -> Option<usize> {
    WORKER_CORE.with(|c| c.get())
}

pub(crate) fn run_worker(
    inner: Arc<Inner>,
    id: WorkerId,
    local: LocalQueue<Task>,
    pin_core: Option<usize>,
) {
    WORKER_ID.with(|c| c.set(Some(id)));
    WORKER_CORE.with(|c| c.set(pin_core));
    if let Some(core) = pin_core {
        // Best effort: a rejected mask (restricted cpuset) must not kill the
        // worker, only lose the locality benefit.
        let _ = pin_current_thread(core);
    }

    let mut idle_spins: u32 = 0;
    while !inner.shutdown.load(Ordering::SeqCst) {
        let task = local.pop().or_else(|| {
            // Refill from the injector in batches to amortize contention.
            loop {
                match inner.injector.steal_batch_and_pop(&local) {
                    Steal::Success(t) => {
                        inner.metrics.record_injector();
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
            // Steal from siblings, starting after our own position so the
            // pressure spreads instead of converging on worker 0.
            let n = inner.stealers.len();
            for k in 1..n {
                let victim = (id + k) % n;
                loop {
                    match inner.stealers[victim].steal_batch_and_pop(&local) {
                        Steal::Success(t) => {
                            inner.metrics.record_steal();
                            if let Some(sink) = inner.sink() {
                                sink.on_steal(Some(id));
                            }
                            return Some(t);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
            }
            None
        });

        match task {
            Some(task) => {
                idle_spins = 0;
                if inner.execute(task) == ExecOutcome::Fatal {
                    // Retire this worker (device-lost model). The exit is a
                    // clean return — no unwind — so the thread's local queue
                    // (shared with its Stealer) survives for siblings to
                    // drain and for the respawned replacement to adopt.
                    inner.metrics.record_worker_lost();
                    inner.dead[id].store(true, Ordering::Release);
                    inner.worker_died.store(true, Ordering::Release);
                    if let Some(sink) = inner.sink() {
                        sink.on_worker_lost(id);
                    }
                    // Wake peers: queued work must not wait for a park tick.
                    inner.notify_all();
                    WORKER_ID.with(|c| c.set(None));
                    WORKER_CORE.with(|c| c.set(None));
                    return;
                }
            }
            None => {
                idle_spins += 1;
                if idle_spins < SPIN_TRIES {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                } else {
                    // Park with a timeout: a timed wait sidesteps lost-wakeup
                    // races at the cost of a 1ms worst-case wake latency,
                    // which the submit path's notify_one avoids in practice.
                    inner.metrics.record_park();
                    let mut sleepers = inner.sleep_lock.lock();
                    *sleepers += 1;
                    inner
                        .wakeup
                        .wait_for(&mut sleepers, Duration::from_millis(1));
                    *sleepers -= 1;
                    drop(sleepers);
                    idle_spins = 0;
                }
            }
        }
    }
    WORKER_ID.with(|c| c.set(None));
    WORKER_CORE.with(|c| c.set(None));
}

#[cfg(test)]
mod tests {
    use crate::{PoolConfig, ThreadPool};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn workers_report_their_id() {
        // Detached spawns always run on worker threads (no scope helping),
        // so every observed id must be a valid worker id.
        let pool = ThreadPool::new(PoolConfig::default().workers(3)).unwrap();
        let bad = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let bad = Arc::clone(&bad);
            let done = Arc::clone(&done);
            pool.spawn(move || {
                match crate::current_worker() {
                    Some(id) if id < 3 => {}
                    _ => {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        while done.load(Ordering::SeqCst) < 32 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(bad.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn non_worker_thread_has_no_id() {
        assert_eq!(crate::current_worker(), None);
    }
}
