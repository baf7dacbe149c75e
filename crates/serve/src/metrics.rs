//! Per-tenant serving statistics: admission/fault counters plus a bounded
//! latency reservoir feeding the p50/p99 columns of `results/serve.md`.

use std::sync::atomic::{AtomicU64, Ordering};

use cl_util::sync::Mutex;

/// Latency samples kept per tenant: the most recent ones, so a long soak's
/// percentiles describe its latest window rather than its warm-up. Load
/// runs are far smaller than this; the cap only bounds memory.
const MAX_SAMPLES: usize = 1 << 16;

/// Live counters for one tenant. All increments are relaxed: the fields are
/// statistics, not synchronization.
#[derive(Default)]
pub struct TenantStats {
    pub(crate) launches: AtomicU64,
    pub(crate) transfers: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) faults: AtomicU64,
    pub(crate) backpressure: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) rejected_evicted: AtomicU64,
    /// Latency ring and the total number of samples ever recorded; once
    /// full, sample `n` overwrites slot `n % MAX_SAMPLES`.
    latencies_ns: Mutex<(Vec<u64>, usize)>,
}

impl TenantStats {
    pub(crate) fn record_latency(&self, ns: u64) {
        let mut guard = self.latencies_ns.lock();
        let (ring, recorded) = &mut *guard;
        if ring.len() < MAX_SAMPLES {
            ring.push(ns);
        } else {
            ring[*recorded % MAX_SAMPLES] = ns;
        }
        *recorded += 1;
    }

    /// A point-in-time copy with percentiles computed.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut sorted = self.latencies_ns.lock().0.clone();
        sorted.sort_unstable();
        let pct = |q: f64| -> u64 {
            if sorted.is_empty() {
                return 0;
            }
            sorted[((sorted.len() - 1) as f64 * q).round() as usize]
        };
        StatsSnapshot {
            launches: self.launches.load(Ordering::Relaxed),
            transfers: self.transfers.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rejected_evicted: self.rejected_evicted.load(Ordering::Relaxed),
            samples: sorted.len(),
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            max_ns: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// A point-in-time view of one tenant's [`TenantStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Successful kernel launches.
    pub launches: u64,
    /// Successful transfer/map commands.
    pub transfers: u64,
    /// Payload bytes moved by successful transfers/maps.
    pub bytes: u64,
    /// Kernel faults (panic or watchdog timeout) on this handle.
    pub faults: u64,
    /// Commands refused at admission (quota exceeded).
    pub backpressure: u64,
    /// Launches shed by the gate under overload (also counted as refused).
    pub shed: u64,
    /// Retries performed by `launch_with_retry`.
    pub retries: u64,
    /// Commands refused because the tenant was evicted.
    pub rejected_evicted: u64,
    /// Latency samples recorded.
    pub samples: usize,
    /// Median launch latency (event queued→completed), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile launch latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst launch latency, nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_reservoir() {
        let s = TenantStats::default();
        for ns in 1..=100u64 {
            s.record_latency(ns);
        }
        let snap = s.snapshot();
        assert_eq!(snap.samples, 100);
        assert_eq!(snap.p50_ns, 51); // nearest-rank on 0-based index
        assert_eq!(snap.p99_ns, 99);
        assert_eq!(snap.max_ns, 100);
    }

    #[test]
    fn percentiles_describe_the_latest_window() {
        let s = TenantStats::default();
        for _ in 0..MAX_SAMPLES {
            s.record_latency(1_000);
        }
        for _ in 0..1_000 {
            s.record_latency(1_000_000);
        }
        let snap = s.snapshot();
        assert_eq!(snap.samples, MAX_SAMPLES);
        assert!(snap.p99_ns >= 1_000_000, "p99 {} ns", snap.p99_ns);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = TenantStats::default().snapshot();
        assert_eq!(snap, StatsSnapshot::default());
    }
}
