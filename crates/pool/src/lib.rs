//! # cl-pool — a work-stealing thread pool with core pinning and overhead metrics
//!
//! This crate is the scheduling substrate of the OpenCL-on-CPU study. Both the
//! OpenCL-style runtime (`ocl-rt`) and the OpenMP-style baseline (`par-for`)
//! run on this pool, so that differences measured between the two programming
//! models come from the models themselves, not from two unrelated schedulers.
//!
//! The pool is deliberately *observable*: it counts tasks, steals, parks,
//! unparks and faults, because per-workgroup scheduling overhead is one of
//! the quantities the reproduced paper measures (Section III-B,
//! Figures 1-5). Dispatch latency itself is read from launch events'
//! profiling timestamps, not sampled per task.
//!
//! ## Design
//!
//! * One OS thread per worker, a global [`deque::Injector`] plus a
//!   per-worker [`deque::Worker`] queue with stealing.
//! * Workers spin briefly, then park on a condvar; submitters unpark.
//! * [`ThreadPool::scope`] provides structured, borrowing task spawning
//!   (joined before the scope returns, so borrowed data stays valid).
//! * [`affinity::PinPolicy`] pins workers to cores for the affinity
//!   experiment (Figure 9 of the paper).
//!
//! ## Example
//!
//! ```
//! use cl_pool::{ThreadPool, PoolConfig};
//!
//! let pool = ThreadPool::new(PoolConfig::default().workers(4)).unwrap();
//! let mut data = vec![0u64; 1024];
//! pool.scope(|s| {
//!     for chunk in data.chunks_mut(256) {
//!         s.spawn(move || {
//!             for x in chunk.iter_mut() {
//!                 *x = 7;
//!             }
//!         });
//!     }
//! });
//! assert!(data.iter().all(|&x| x == 7));
//! ```

pub mod affinity;
pub mod barrier;
pub mod chunk;
pub mod deque;
pub mod fault;
pub mod metrics;
mod pool;
mod scope;
mod worker;

pub use affinity::{available_cores, pin_current_thread, PinPolicy};
pub use barrier::CentralBarrier;
pub use chunk::{ChunkSource, GuidedSource};
pub use fault::{AbortSignal, BarrierAborted, FatalFault};
pub use metrics::{MetricsSnapshot, PoolMetrics};
pub use pool::{PoolConfig, PoolError, PoolEventSink, ThreadPool};
pub use scope::Scope;

/// Identifier of a worker inside a pool: `0..workers`.
pub type WorkerId = usize;

/// Returns the id of the worker executing the current thread, if the current
/// thread is a pool worker.
///
/// Kernel code uses this to attribute cache accesses and affinity decisions
/// to cores.
pub fn current_worker() -> Option<WorkerId> {
    worker::current_worker()
}

/// The core the calling pool worker was assigned by its [`PinPolicy`], or
/// `None` on non-worker threads and unpinned workers.
///
/// Reports the policy's intent (recorded even when the affinity syscall was
/// rejected by a restricted cpuset), so trace consumers see the placement
/// the experiment *asked for* deterministically.
pub fn current_pinned_core() -> Option<usize> {
    worker::current_pinned_core()
}
