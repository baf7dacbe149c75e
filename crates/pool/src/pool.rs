//! The thread pool itself: construction, task submission, structured scopes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use cl_util::sync::{Condvar, Mutex};

use crate::deque::{Injector, Steal, Stealer};

use crate::affinity::{available_cores, PinPolicy};
use crate::fault::FatalFault;
use crate::metrics::PoolMetrics;
use crate::scope::Scope;
use crate::worker;

/// What `Inner::execute` observed about a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecOutcome {
    /// The task ran (possibly panicking — ordinary panics are contained).
    Done,
    /// The task raised a [`FatalFault`]: the executing worker must retire.
    Fatal,
}

/// A unit of work queued on the pool.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Configuration for [`ThreadPool::new`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads. Defaults to the number of available cores.
    pub workers: usize,
    /// Core-binding policy for workers.
    pub pin: PinPolicy,
    /// Prefix for worker thread names.
    pub name_prefix: String,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: available_cores(),
            pin: PinPolicy::None,
            name_prefix: "cl-pool".to_string(),
        }
    }
}

impl PoolConfig {
    /// Set the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the pinning policy.
    pub fn pin(mut self, p: PinPolicy) -> Self {
        self.pin = p;
        self
    }
}

/// Observer for scheduler events that are invisible in aggregate counters:
/// individual steals, worker retirements, and respawns. Installed with
/// [`ThreadPool::set_event_sink`]; `ocl-rt`'s trace log implements it so
/// launches can attribute scheduling behaviour span-by-span.
///
/// Callbacks run on the thread where the event happened (the thief, the
/// dying worker, the recovering host) and must be cheap and panic-free.
pub trait PoolEventSink: Send + Sync {
    /// A task was stolen from a sibling worker's deque. `thief` is the
    /// stealing worker's id, or `None` when a non-worker (helping) thread
    /// stole it.
    fn on_steal(&self, thief: Option<crate::WorkerId>);
    /// A worker retired after executing a task that raised a
    /// [`FatalFault`].
    fn on_worker_lost(&self, worker: crate::WorkerId);
    /// [`ThreadPool::recover`] replaced a retired worker.
    fn on_worker_respawned(&self, worker: crate::WorkerId);
}

/// Errors from pool construction.
#[derive(Debug)]
pub enum PoolError {
    /// `workers == 0` was requested.
    ZeroWorkers,
    /// An OS thread could not be spawned.
    Spawn(std::io::Error),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ZeroWorkers => write!(f, "thread pool needs at least one worker"),
            PoolError::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

pub(crate) struct Inner {
    pub(crate) injector: Injector<Task>,
    pub(crate) stealers: Vec<Stealer<Task>>,
    pub(crate) sleep_lock: Mutex<usize>, // number of parked workers
    pub(crate) wakeup: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) metrics: PoolMetrics,
    pub(crate) workers: usize,
    /// Per-worker "retired by a fatal fault" flags, set on the worker's exit
    /// path so `recover` knows exactly which threads to replace.
    pub(crate) dead: Vec<AtomicBool>,
    /// Fast-path dirty bit: true iff some `dead[i]` may be set. Lets
    /// `recover` cost one atomic load per call in the (overwhelmingly
    /// common) no-fault case.
    pub(crate) worker_died: AtomicBool,
    /// Fast-path gate for the event sink: steal/retire/respawn paths pay
    /// one relaxed load when no sink is installed (the common case).
    pub(crate) sink_active: AtomicBool,
    pub(crate) sink: Mutex<Option<Arc<dyn PoolEventSink>>>,
    /// Completed heal batches: bumped once per [`ThreadPool::recover`] call
    /// that respawned at least one worker. Lets concurrent callers (the
    /// multi-tenant serving layer heals on every tenant's enqueue) observe
    /// "the pool healed since I last looked" without racing on the respawn
    /// counters themselves.
    pub(crate) heal_generation: std::sync::atomic::AtomicU64,
}

impl Inner {
    /// Wake one parked worker if any are parked.
    pub(crate) fn notify_one(&self) {
        let sleepers = self.sleep_lock.lock();
        if *sleepers > 0 {
            self.metrics.record_unpark();
            self.wakeup.notify_one();
        }
    }

    pub(crate) fn notify_all(&self) {
        self.wakeup.notify_all();
    }

    /// The installed event sink, if any. One relaxed load when none is.
    pub(crate) fn sink(&self) -> Option<Arc<dyn PoolEventSink>> {
        if !self.sink_active.load(Ordering::Relaxed) {
            return None;
        }
        self.sink.lock().clone()
    }

    /// Try to obtain one task from the injector or any worker deque.
    /// Used both by parked-adjacent workers and by threads helping while
    /// waiting on a scope.
    pub(crate) fn steal_task(&self) -> Option<Task> {
        loop {
            match self.injector.steal() {
                Steal::Success(t) => {
                    self.metrics.record_injector();
                    return Some(t);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        for s in &self.stealers {
            loop {
                match s.steal() {
                    Steal::Success(t) => {
                        self.metrics.record_steal();
                        if let Some(sink) = self.sink() {
                            sink.on_steal(crate::current_worker());
                        }
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    pub(crate) fn execute(&self, task: Task) -> ExecOutcome {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        self.metrics.record_exec();
        match result {
            Ok(()) => ExecOutcome::Done,
            Err(payload) => {
                // The panic itself is surfaced through the owning Scope or
                // launch fault record (if any); a detached `spawn` swallows
                // it but counts it.
                self.metrics.record_panic();
                let fatal = payload.is::<FatalFault>();
                // Even the payload's own Drop may panic (hostile kernels do
                // exist — the chaos harness injects exactly this); dropping
                // it inside another catch keeps the containment boundary
                // airtight.
                let payload = std::panic::AssertUnwindSafe(payload);
                let _ = std::panic::catch_unwind(move || drop(payload));
                if fatal {
                    ExecOutcome::Fatal
                } else {
                    ExecOutcome::Done
                }
            }
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool shuts it down and joins all workers.
pub struct ThreadPool {
    pub(crate) inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Resolved core assignment per worker id, kept so `recover` re-pins
    /// replacement threads exactly like the originals.
    cores: Vec<Option<usize>>,
    name_prefix: String,
}

impl ThreadPool {
    /// Create a pool with `cfg.workers` worker threads.
    pub fn new(cfg: PoolConfig) -> Result<Self, PoolError> {
        if cfg.workers == 0 {
            return Err(PoolError::ZeroWorkers);
        }
        let locals: Vec<crate::deque::Worker<Task>> = (0..cfg.workers)
            .map(|_| crate::deque::Worker::new_fifo())
            .collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: PoolMetrics::default(),
            workers: cfg.workers,
            dead: (0..cfg.workers).map(|_| AtomicBool::new(false)).collect(),
            worker_died: AtomicBool::new(false),
            sink_active: AtomicBool::new(false),
            sink: Mutex::new(None),
            heal_generation: std::sync::atomic::AtomicU64::new(0),
        });
        let n_cores = available_cores();
        let cores: Vec<Option<usize>> = (0..cfg.workers)
            .map(|id| cfg.pin.core_for(id, n_cores))
            .collect();
        let mut handles = Vec::with_capacity(cfg.workers);
        for (id, local) in locals.into_iter().enumerate() {
            let inner2 = Arc::clone(&inner);
            let core = cores[id];
            let handle = std::thread::Builder::new()
                .name(format!("{}-{}", cfg.name_prefix, id))
                .spawn(move || worker::run_worker(inner2, id, local, core))
                .map_err(PoolError::Spawn)?;
            handles.push(handle);
        }
        Ok(ThreadPool {
            inner,
            handles: Mutex::new(handles),
            cores,
            name_prefix: cfg.name_prefix,
        })
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Pool counters.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.inner.metrics
    }

    /// Install an observer for per-event scheduler signals (steals, worker
    /// retirements, respawns). Replaces any previous sink. When no sink is
    /// installed the hot paths pay a single relaxed atomic load.
    pub fn set_event_sink(&self, sink: Arc<dyn PoolEventSink>) {
        *self.inner.sink.lock() = Some(sink);
        self.inner.sink_active.store(true, Ordering::Release);
    }

    /// Remove the event sink installed by [`Self::set_event_sink`].
    pub fn clear_event_sink(&self) {
        self.inner.sink_active.store(false, Ordering::Release);
        *self.inner.sink.lock() = None;
    }

    /// Submit a detached `'static` task.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.injector.push(Box::new(f));
        self.inner.notify_one();
    }

    /// Submit a batch of detached tasks: one injector lock acquisition and
    /// one wake sweep for the whole batch, where a `spawn` loop would pay a
    /// lock and a wakeup per task. The fan-out path of a kernel launch.
    pub fn spawn_batch<F>(&self, jobs: impl IntoIterator<Item = F>)
    where
        F: FnOnce() + Send + 'static,
    {
        let pushed = self
            .inner
            .injector
            .push_batch(jobs.into_iter().map(|f| Box::new(f) as Task));
        match pushed {
            0 => {}
            1 => self.inner.notify_one(),
            _ => {
                // Wake every parked worker at once: the batch has work for
                // all of them.
                let sleepers = self.inner.sleep_lock.lock();
                if *sleepers > 0 {
                    self.inner.metrics.record_unpark();
                    self.inner.wakeup.notify_all();
                }
            }
        }
    }

    /// Structured parallelism: tasks spawned on the scope may borrow from the
    /// enclosing stack frame and are all joined before `scope` returns.
    ///
    /// If any task panics, the panic is re-raised here after all tasks have
    /// completed.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let scope = Scope::new(self);
        let out = f(&scope);
        scope.wait(self);
        out
    }

    /// Run `f(i)` for every `i in 0..n`, splitting the index space into
    /// roughly `chunks_per_worker * workers` contiguous chunks. Blocks until
    /// all indices have run.
    pub fn run_indexed(&self, n: usize, chunks_per_worker: usize, f: impl Fn(usize) + Sync) {
        if n == 0 {
            return;
        }
        let n_chunks = usize::max(1, self.workers() * usize::max(1, chunks_per_worker));
        let chunk = n.div_ceil(n_chunks);
        let f = &f;
        self.scope(|s| {
            let mut start = 0;
            while start < n {
                let end = usize::min(start + chunk, n);
                s.spawn(move || {
                    for i in start..end {
                        f(i);
                    }
                });
                start = end;
            }
        });
    }

    /// A process-wide shared pool with default configuration.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(PoolConfig::default()).expect("global pool"))
    }

    /// Number of workers currently retired by a fatal fault and awaiting
    /// [`recover`](Self::recover). Racy hint, like all pool statistics.
    pub fn lost_workers(&self) -> usize {
        if !self.inner.worker_died.load(Ordering::Acquire) {
            return 0;
        }
        self.inner
            .dead
            .iter()
            .filter(|d| d.load(Ordering::Acquire))
            .count()
    }

    /// Respawn workers retired by a [`crate::FatalFault`], re-pinning each
    /// replacement to the original worker's core. Returns the number of
    /// workers respawned.
    ///
    /// The replacement thread adopts the dead worker's deque, so tasks that
    /// were queued there when the fault hit are still executed. When no
    /// worker has died this costs a single atomic load, cheap enough to call
    /// before every kernel enqueue (self-healing queues do exactly that).
    ///
    /// Concurrent callers are safe *and* each caller's postcondition is
    /// meaningful: the dirty bit is consumed under the handles lock, so two
    /// tenants triggering recovery at once serialize and each rescans the
    /// full dead set. (The old swap-before-lock entry let the second caller
    /// return `0` — "healthy" — while the first was still mid-respawn; a
    /// tenant could then launch a kernel whose cross-group barrier needs
    /// every worker live and stall until another enqueue healed the pool.)
    /// When `recover` returns, every retirement flagged before the call has
    /// been respawned, unless the pool is shutting down or thread spawn
    /// failed (the flags stay set and a later call retries).
    pub fn recover(&self) -> usize {
        // Fast path: one atomic load in the no-fault case.
        if !self.inner.worker_died.load(Ordering::Acquire) {
            return 0;
        }
        let mut handles = self.handles.lock();
        // Consume the dirty bit under the lock: a retirement landing after
        // this store re-dirties it and is picked up by the next call, while
        // every retirement flagged before it is visible to this scan.
        self.inner.worker_died.store(false, Ordering::Release);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            // Shutdown joins every handle, dead or alive; nothing to do.
            return 0;
        }
        let mut respawned = 0;
        for (id, slot) in handles.iter_mut().enumerate() {
            if !self.inner.dead[id].swap(false, Ordering::AcqRel) {
                continue;
            }
            let inner2 = Arc::clone(&self.inner);
            let local = self.inner.stealers[id].to_worker();
            let core = self.cores[id];
            match std::thread::Builder::new()
                .name(format!("{}-{}", self.name_prefix, id))
                .spawn(move || worker::run_worker(inner2, id, local, core))
            {
                Ok(fresh) => {
                    // The dead flag is set on the worker's exit path, so this
                    // join returns promptly.
                    let _ = std::mem::replace(slot, fresh).join();
                    self.inner.metrics.record_worker_respawned();
                    if let Some(sink) = self.inner.sink() {
                        sink.on_worker_respawned(id);
                    }
                    respawned += 1;
                }
                Err(_) => {
                    // Out of threads right now; leave the worker flagged so a
                    // later recover() retries.
                    self.inner.dead[id].store(true, Ordering::Release);
                    self.inner.worker_died.store(true, Ordering::Release);
                }
            }
        }
        if respawned > 0 {
            self.inner.heal_generation.fetch_add(1, Ordering::AcqRel);
        }
        respawned
    }

    /// Number of completed heal batches (recover() calls that respawned at
    /// least one worker) since the pool was built. Monotone; observers can
    /// diff it across calls to learn "the pool healed in between" without
    /// racing on per-call respawn counts.
    pub fn heal_generation(&self) -> u64 {
        self.inner.heal_generation.load(Ordering::Acquire)
    }

    /// Shut the pool down and join every worker, including workers already
    /// retired by a fatal fault (their handles join immediately). Idempotent:
    /// handles are drained, so a second call — or the implicit call from
    /// `Drop` — is a no-op and never double-joins.
    ///
    /// Called on one of the pool's own workers — a task that held the last
    /// handle to the pool — the calling worker is not joined (a thread
    /// cannot join itself): it sees the shutdown flag and exits once the
    /// task returns.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify_all();
        let me = std::thread::current().id();
        for h in self.handles.lock().drain(..) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn zero_workers_is_an_error() {
        assert!(matches!(
            ThreadPool::new(PoolConfig::default().workers(0)),
            Err(PoolError::ZeroWorkers)
        ));
    }

    #[test]
    fn spawn_runs_detached_tasks() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = Instant::now();
        while hits.load(Ordering::SeqCst) < 100 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn scope_joins_before_returning() {
        let pool = ThreadPool::new(PoolConfig::default().workers(4)).unwrap();
        let mut data = vec![0u32; 4096];
        pool.scope(|s| {
            for chunk in data.chunks_mut(64) {
                s.spawn(move || chunk.iter_mut().for_each(|x| *x += 1));
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(PoolConfig::default().workers(2)).unwrap());
        let total = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&pool);
        let t2 = Arc::clone(&total);
        pool.scope(|s| {
            for _ in 0..4 {
                let p3 = Arc::clone(&p2);
                let t3 = Arc::clone(&t2);
                s.spawn(move || {
                    p3.scope(|inner| {
                        for _ in 0..8 {
                            let t4 = Arc::clone(&t3);
                            inner.spawn(move || {
                                t4.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn run_indexed_covers_every_index_once() {
        let pool = ThreadPool::new(PoolConfig::default().workers(3)).unwrap();
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(1000, 4, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_indexed_zero_is_noop() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        pool.run_indexed(0, 4, |_| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "kernel exploded")]
    fn scope_propagates_panics() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        pool.scope(|s| {
            s.spawn(|| panic!("kernel exploded"));
        });
    }

    #[test]
    fn metrics_count_tasks() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        pool.run_indexed(64, 2, |_| {});
        let snap = pool.metrics().snapshot();
        assert!(snap.tasks_executed >= 4, "{snap:?}");
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(PoolConfig::default().workers(1)).unwrap();
        let v = pool.scope(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn scope_with_tasks_only_on_workers_returns_promptly() {
        // Both tasks are running on workers before the join starts, so the
        // joining thread finds nothing to steal and blocks on the scope's
        // latch; the last task's count-down must end that wait.
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        let started = AtomicUsize::new(0);
        let on_workers = AtomicUsize::new(0);
        let t0 = Instant::now();
        pool.scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                    if crate::current_worker().is_some() {
                        on_workers.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                });
            }
            while started.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
        });
        let waited = t0.elapsed();
        assert_eq!(on_workers.load(Ordering::SeqCst), 2);
        assert!(
            waited < Duration::from_secs(2),
            "scope joined after {waited:?}"
        );
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        pool.run_indexed(16, 1, |_| {});
        drop(pool); // must not hang
    }

    fn kill_one_worker(pool: &ThreadPool) {
        pool.spawn(|| crate::FatalFault::raise("injected device-lost"));
        let t0 = Instant::now();
        while pool.metrics().snapshot().workers_lost == 0 {
            assert!(t0.elapsed() < Duration::from_secs(10), "worker never died");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fatal_fault_retires_worker_and_recover_respawns() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        kill_one_worker(&pool);
        assert_eq!(pool.lost_workers(), 1);
        assert_eq!(pool.recover(), 1);
        assert_eq!(pool.lost_workers(), 0);
        // Second recover is a no-op.
        assert_eq!(pool.recover(), 0);
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.workers_lost, 1);
        assert_eq!(snap.workers_respawned, 1);
        // The pool is fully functional again.
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = Instant::now();
        while hits.load(Ordering::SeqCst) < 64 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn pool_survives_unrecovered_worker_loss() {
        // Without recover(), the surviving worker (plus stealing) must still
        // drain all queued work — a dead worker's deque stays reachable.
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        kill_one_worker(&pool);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = Instant::now();
        while hits.load(Ordering::SeqCst) < 64 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropping_the_last_handle_on_a_worker_does_not_self_join() {
        // Regression: a task that owns the last `Arc<ThreadPool>` drops it
        // on a worker, so `shutdown` runs on that worker and used to join
        // the worker's own handle ("Resource deadlock avoided" panic).
        let pool = Arc::new(ThreadPool::new(PoolConfig::default().workers(2)).unwrap());
        let inner = Arc::downgrade(&pool.inner);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let last = Arc::clone(&pool);
        pool.spawn(move || {
            go_rx.recv().unwrap();
            drop(last);
            done_tx.send(()).unwrap();
        });
        drop(pool);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("dropping the last pool handle on a worker panicked");
        // Every worker exits: the last one releases the shared state.
        let t0 = Instant::now();
        while inner.strong_count() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "a worker kept running"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn shutdown_with_dead_workers_does_not_hang_or_double_join() {
        // Regression: Drop/shutdown after a contained fatal fault (recovery
        // never ran) must join the dead worker's handle exactly once and
        // return promptly.
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        kill_one_worker(&pool);
        pool.shutdown();
        pool.shutdown(); // idempotent: handles were drained
        assert_eq!(pool.recover(), 0, "recover after shutdown is a no-op");
        drop(pool); // implicit shutdown is also a no-op
    }

    #[test]
    fn fatal_fault_in_scope_reaches_host_and_retires_worker() {
        let pool = ThreadPool::new(PoolConfig::default().workers(2)).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| crate::FatalFault::raise("scope lane down"));
            });
        }));
        let payload = result.unwrap_err();
        assert!(payload.is::<crate::FatalFault>());
        // The worker that ran the task retires (unless the host helped it
        // through); either way recover() leaves a fully working pool.
        pool.recover();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        pool.spawn(move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        let t0 = Instant::now();
        while hits.load(Ordering::SeqCst) < 1 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Regression (multi-tenant serving): two tenants triggering recovery
    /// concurrently must neither double-respawn a worker nor let either
    /// caller return while flagged deaths are unhealed. Over many rounds of
    /// (kill, racing recovers) the respawn accounting must stay exact —
    /// every death respawned exactly once — and each racing caller must
    /// observe a fully staffed pool the moment its own call returns.
    #[test]
    fn concurrent_recover_is_idempotent_and_race_free() {
        const ROUNDS: u64 = 20;
        let pool = Arc::new(ThreadPool::new(PoolConfig::default().workers(2)).unwrap());
        let total_respawned = Arc::new(AtomicUsize::new(0));
        for round in 1..=ROUNDS {
            // kill_one_worker waits on the cumulative workers_lost metric;
            // per-round we wait for the *flag* (cleared by each recovery).
            pool.spawn(|| crate::FatalFault::raise("injected device-lost"));
            let t0 = Instant::now();
            while pool.lost_workers() == 0 {
                assert!(t0.elapsed() < Duration::from_secs(10), "worker never died");
                std::thread::sleep(Duration::from_millis(1));
            }
            let barrier = Arc::new(std::sync::Barrier::new(2));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let pool = Arc::clone(&pool);
                    let barrier = Arc::clone(&barrier);
                    let total = Arc::clone(&total_respawned);
                    s.spawn(move || {
                        barrier.wait();
                        let n = pool.recover();
                        total.fetch_add(n, Ordering::SeqCst);
                        // Post-condition per caller: when recover() returns,
                        // deaths flagged before the call are healed — there
                        // is no window where a second tenant is told
                        // "healthy" while the first is still respawning.
                        assert_eq!(pool.lost_workers(), 0);
                    });
                }
            });
            let snap = pool.metrics().snapshot();
            assert_eq!(snap.workers_lost, round, "one death per round");
            assert_eq!(snap.workers_respawned, round, "each healed exactly once");
            assert_eq!(
                total_respawned.load(Ordering::SeqCst) as u64,
                round,
                "racing callers never double-respawn or lose a respawn"
            );
            assert_eq!(pool.heal_generation(), round, "one heal batch per round");
        }
        // The pool is fully staffed: work that needs both workers alive
        // (two tasks that rendezvous) completes.
        let gate = Arc::new(std::sync::Barrier::new(2));
        pool.scope(|s| {
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    gate.wait();
                });
            }
        });
    }

    #[test]
    fn panicking_payload_drop_is_contained() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("payload drop bomb");
                }
            }
        }
        let pool = ThreadPool::new(PoolConfig::default().workers(1)).unwrap();
        pool.spawn(|| std::panic::panic_any(Bomb));
        let t0 = Instant::now();
        while pool.metrics().snapshot().panics < 1 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        // The worker survived both the panic and the panicking Drop.
        assert_eq!(pool.lost_workers(), 0);
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        pool.spawn(move || {
            d2.fetch_add(1, Ordering::SeqCst);
        });
        while done.load(Ordering::SeqCst) < 1 {
            assert!(t0.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
