//! Per-launch fault machinery: fault records, the completion latch, and the
//! global-id trace that lets a contained panic name the workitem that raised
//! it. The fault *model* is documented in DESIGN.md §9.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cl_pool::AbortSignal;
use cl_util::sync::{Condvar, Mutex};

use crate::error::ClError;

/// What class of fault a launch suffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// A workitem body panicked; the worker survived.
    Panic,
    /// A workitem raised a `FatalFault`; the worker retired and will be
    /// respawned by the queue's self-healing path.
    FatalPanic,
    /// The launch's deadline (its `launch_timeout`) passed before all
    /// groups completed.
    Timeout(Duration),
}

/// The first fault observed during one launch — first fault wins, matching
/// OpenCL's single error code per enqueue.
#[derive(Debug, Clone)]
pub(crate) struct FaultRecord {
    pub(crate) kind: FaultKind,
    pub(crate) kernel: String,
    /// Global id of the workitem executing when the fault fired (the base
    /// item of the group if no item had started yet).
    pub(crate) gid: [usize; 3],
    /// Linear workgroup id.
    pub(crate) group: usize,
    /// Pool worker that contained the fault (`None`: the host thread, while
    /// helping or when its deadline passed).
    pub(crate) worker: Option<usize>,
    pub(crate) message: String,
}

/// Shared fault state of one launch: the abort signal every chunk checks,
/// plus the winning [`FaultRecord`].
pub(crate) struct LaunchFault {
    pub(crate) abort: AbortSignal,
    record: Mutex<Option<FaultRecord>>,
}

impl LaunchFault {
    pub(crate) fn new() -> Self {
        LaunchFault {
            abort: AbortSignal::new(),
            record: Mutex::new(None),
        }
    }

    /// Record `rec` if it is the launch's first fault, and trip the abort
    /// signal either way.
    pub(crate) fn trip(&self, rec: FaultRecord) {
        {
            let mut slot = self.record.lock();
            if slot.is_none() {
                *slot = Some(rec);
            }
        }
        self.abort.trip();
    }

    pub(crate) fn take(&self) -> Option<FaultRecord> {
        self.record.lock().take()
    }
}

impl FaultRecord {
    /// The enqueue's error for this fault. A panic's message is annotated
    /// with where the fault was contained.
    pub(crate) fn into_error(self) -> ClError {
        match self.kind {
            FaultKind::Timeout(timeout) => ClError::LaunchTimedOut {
                kernel: self.kernel,
                timeout,
            },
            FaultKind::Panic | FaultKind::FatalPanic => ClError::KernelPanicked {
                message: match self.worker {
                    Some(w) => format!("{} [workgroup {}, worker {w}]", self.message, self.group),
                    None => format!("{} [workgroup {}, host thread]", self.message, self.group),
                },
                gid: self.gid,
                kernel: self.kernel,
            },
        }
    }
}

/// Count-down completion latch for a launch's chunks. Unlike a `Scope`, the
/// latch never re-raises panics and supports waiting with a deadline, so a
/// timed-out launch can be reported while its stuck chunk is abandoned.
///
/// The count is an atomic: `count_down` is a single `fetch_sub` on every
/// chunk but the last (which additionally takes the lock to publish the
/// wakeup), and `is_done` — polled by the helping host between tasks — is
/// one load. Only actual *waiting* touches the mutex/condvar pair.
pub(crate) struct Latch {
    remaining: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    pub(crate) fn new(n: u64) -> Self {
        Latch {
            remaining: AtomicU64::new(n),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last chunk: serialize with waiters so the notify cannot land
            // between a waiter's count check and its wait.
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Wait until the latch reaches zero or `poll` elapses, whichever comes
    /// first. Returns `true` when all chunks completed. Lets callers without
    /// a deadline interleave waiting with recovery checks.
    pub(crate) fn wait_poll(&self, poll: Duration) -> bool {
        let deadline = Instant::now() + poll;
        self.wait_deadline(deadline)
    }

    /// Wait until the latch reaches zero or `deadline` passes. Returns
    /// `true` when all chunks completed.
    pub(crate) fn wait_deadline(&self, deadline: Instant) -> bool {
        let mut g = self.lock.lock();
        loop {
            if self.is_done() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Cap each wait so a missed notify can only cost one tick.
            let step = Duration::min(deadline - now, Duration::from_millis(5));
            self.cv.wait_for(&mut g, step);
        }
    }
}

/// Guard that counts a chunk down on drop, so the latch is released even
/// when a `FatalFault` re-raise unwinds through the chunk body.
pub(crate) struct LatchGuard<'a>(pub(crate) &'a Latch);

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// A per-chunk scratch cell the workitem loop stamps with the current global
/// id. Lives *outside* the `catch_unwind` boundary, so when a workitem
/// panics the id of the faulting item survives the unwind.
pub(crate) struct GidTrace {
    gid: Cell<[usize; 3]>,
    exact: bool,
}

impl GidTrace {
    pub(crate) fn new(initial: [usize; 3], exact: bool) -> Self {
        GidTrace {
            gid: Cell::new(initial),
            exact,
        }
    }

    /// Whether workitem loops should stamp this trace per item (see
    /// [`crate::Device::set_exact_gid`]). Checked once per loop, not per
    /// item.
    #[inline]
    pub(crate) fn exact(&self) -> bool {
        self.exact
    }

    #[inline]
    pub(crate) fn set(&self, gid: [usize; 3]) {
        self.gid.set(gid);
    }

    pub(crate) fn get(&self) -> [usize; 3] {
        self.gid.get()
    }
}

/// Extract a human-readable message from a panic payload, containing even a
/// payload whose own `Drop` panics.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<cl_pool::FatalFault>() {
        f.to_string()
    } else {
        "kernel panicked with a non-string payload".to_string()
    };
    let payload = std::panic::AssertUnwindSafe(payload);
    if std::panic::catch_unwind(move || drop(payload)).is_err() {
        return format!("{msg} (panic payload Drop also panicked; contained)");
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fault_wins() {
        let f = LaunchFault::new();
        f.trip(FaultRecord {
            kind: FaultKind::Panic,
            kernel: "a".into(),
            gid: [1, 0, 0],
            group: 0,
            worker: None,
            message: "first".into(),
        });
        f.trip(FaultRecord {
            kind: FaultKind::Panic,
            kernel: "a".into(),
            gid: [2, 0, 0],
            group: 1,
            worker: None,
            message: "second".into(),
        });
        assert!(f.abort.is_tripped());
        assert_eq!(f.take().unwrap().message, "first");
        assert!(f.take().is_none());
    }

    #[test]
    fn latch_counts_down_and_times_out() {
        let l = Latch::new(2);
        assert!(!l.is_done());
        l.count_down();
        let deadline = Instant::now() + Duration::from_millis(30);
        assert!(!l.wait_deadline(deadline), "one chunk outstanding");
        l.count_down();
        assert!(l.is_done());
        assert!(l.wait_deadline(Instant::now()));
    }

    #[test]
    fn latch_guard_counts_even_on_unwind() {
        let l = Latch::new(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = LatchGuard(&l);
            panic!("mid-chunk");
        }));
        assert!(l.is_done());
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = std::panic::catch_unwind(|| panic!("plain {}", 7)).unwrap_err();
        assert_eq!(panic_message(p), "plain 7");
        let p = std::panic::catch_unwind(|| cl_pool::FatalFault::raise("gone")).unwrap_err();
        assert!(panic_message(p).contains("gone"));
    }

    #[test]
    fn panic_message_contains_exploding_payload_drop() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("drop bomb");
                }
            }
        }
        let p = std::panic::catch_unwind(|| std::panic::panic_any(Bomb)).unwrap_err();
        let msg = panic_message(p);
        assert!(msg.contains("contained"), "{msg}");
    }
}
