//! Transfer accounting: mechanistic evidence behind the wall-clock numbers.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by a [`TransferEngine`](crate::TransferEngine).
#[derive(Debug, Default)]
pub struct TransferStats {
    /// Bytes physically copied by `memcpy` (staging hops included).
    pub bytes_copied: AtomicU64,
    /// Number of explicit-copy API calls (read or write buffer).
    pub copy_calls: AtomicU64,
    /// Number of map calls (zero-copy on a CPU device).
    pub map_calls: AtomicU64,
    /// Number of unmap calls.
    pub unmap_calls: AtomicU64,
    /// Staging windows allocated by the copy path: one per copy call, each
    /// at most 256 KiB however large the transfer (the two copies go through
    /// a bounded staging window).
    pub staging_allocs: AtomicU64,
}

impl TransferStats {
    pub(crate) fn add_copied(&self, bytes: u64) {
        self.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn bump_copy(&self) {
        self.copy_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_map(&self) {
        self.map_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_unmap(&self) {
        self.unmap_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_staging(&self) {
        self.staging_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> TransferStatsSnapshot {
        TransferStatsSnapshot {
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            copy_calls: self.copy_calls.load(Ordering::Relaxed),
            map_calls: self.map_calls.load(Ordering::Relaxed),
            unmap_calls: self.unmap_calls.load(Ordering::Relaxed),
            staging_allocs: self.staging_allocs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`TransferStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStatsSnapshot {
    pub bytes_copied: u64,
    pub copy_calls: u64,
    pub map_calls: u64,
    pub unmap_calls: u64,
    pub staging_allocs: u64,
}

impl TransferStatsSnapshot {
    /// Counter-wise `self - earlier`.
    pub fn delta_since(&self, earlier: &TransferStatsSnapshot) -> TransferStatsSnapshot {
        TransferStatsSnapshot {
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
            copy_calls: self.copy_calls - earlier.copy_calls,
            map_calls: self.map_calls - earlier.map_calls,
            unmap_calls: self.unmap_calls - earlier.unmap_calls,
            staging_allocs: self.staging_allocs - earlier.staging_allocs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TransferStats::default();
        s.add_copied(100);
        s.add_copied(28);
        s.bump_copy();
        s.bump_map();
        s.bump_unmap();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_copied, 128);
        assert_eq!(snap.copy_calls, 1);
        assert_eq!(snap.map_calls, 1);
        assert_eq!(snap.unmap_calls, 1);
    }

    #[test]
    fn delta_subtracts() {
        let s = TransferStats::default();
        s.add_copied(10);
        let a = s.snapshot();
        s.add_copied(5);
        assert_eq!(s.snapshot().delta_since(&a).bytes_copied, 5);
    }
}
