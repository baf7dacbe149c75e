//! Pool observability counters.
//!
//! The paper's central CPU-side claim is that *per-workgroup scheduling
//! overhead dominates when workgroups are small* (Section III-B). To verify
//! that claim rather than assume it, the pool counts every dispatch event.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters maintained by the pool. All counters use relaxed
/// atomics: they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Tasks executed to completion.
    pub tasks_executed: AtomicU64,
    /// Tasks that were stolen from another worker's deque.
    pub tasks_stolen: AtomicU64,
    /// Tasks popped from the global injector.
    pub tasks_from_injector: AtomicU64,
    /// Times a worker parked (went to sleep) for lack of work.
    pub parks: AtomicU64,
    /// Times a submitter had to unpark a sleeping worker.
    pub unparks: AtomicU64,
    /// Tasks whose closure panicked.
    pub panics: AtomicU64,
    /// Workers retired by a fatal fault (see `FatalFault`).
    pub workers_lost: AtomicU64,
    /// Workers respawned by `ThreadPool::recover`.
    pub workers_respawned: AtomicU64,
}

impl PoolMetrics {
    pub(crate) fn record_exec(&self) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_steal(&self) {
        self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_injector(&self) {
        self.tasks_from_injector.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_unpark(&self) {
        self.unparks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_lost(&self) {
        self.workers_lost.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_respawned(&self) {
        self.workers_respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            tasks_from_injector: self.tasks_from_injector.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`PoolMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub tasks_from_injector: u64,
    pub parks: u64,
    pub unparks: u64,
    pub panics: u64,
    pub workers_lost: u64,
    pub workers_respawned: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier`, for measuring one experiment
    /// window on a shared pool.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_executed: self.tasks_executed - earlier.tasks_executed,
            tasks_stolen: self.tasks_stolen - earlier.tasks_stolen,
            tasks_from_injector: self.tasks_from_injector - earlier.tasks_from_injector,
            parks: self.parks - earlier.parks,
            unparks: self.unparks - earlier.unparks,
            panics: self.panics - earlier.panics,
            workers_lost: self.workers_lost - earlier.workers_lost,
            workers_respawned: self.workers_respawned - earlier.workers_respawned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = PoolMetrics::default();
        m.record_exec();
        m.record_exec();
        m.record_steal();
        m.record_park();
        let s = m.snapshot();
        assert_eq!(s.tasks_executed, 2);
        assert_eq!(s.tasks_stolen, 1);
        assert_eq!(s.parks, 1);
        assert_eq!(s.panics, 0);
    }

    #[test]
    fn delta_subtracts() {
        let m = PoolMetrics::default();
        m.record_exec();
        let a = m.snapshot();
        m.record_exec();
        m.record_exec();
        let b = m.snapshot();
        assert_eq!(b.delta_since(&a).tasks_executed, 2);
    }
}
