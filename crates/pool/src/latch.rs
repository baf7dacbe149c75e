//! The count-down completion latch every wait in the runtime blocks on: a
//! kernel launch's chunks (`ocl-rt`) and a [`Scope`](crate::Scope)'s
//! tasks. No wait sleeps on a timer: a blocked waiter is woken by the last
//! [`Latch::count_down`].
//!
//! A waiter that has just run its share of the work ([`Latch::wait`]: an
//! unarmed launch's host, a scope's joining thread) first spins for
//! [`SPIN`] — `spin_loop` plus `yield_now`, the idle loop of a pool worker
//! — because the last chunk is usually microseconds from done and a block
//! costs a wake. A waiter that runs none of the work ([`Latch::wait_deadline`]:
//! a launch watchdog) blocks at once: its CPU belongs to the workers, and a
//! spinning watchdog under load (a serving layer's concurrent launches)
//! slows them down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cl_util::sync::{Condvar, Mutex};

/// How long a waiter spins before it blocks. Covers the tail of a launch of
/// few-microsecond chunks; a wait longer than this costs one wake.
pub const SPIN: Duration = Duration::from_micros(50);

/// Count-down completion latch. The count is an atomic, so `count_down` is
/// one `fetch_sub` on every call but the last, and `is_done` is one load.
/// The last count-down takes the mutex and notifies only when a waiter is
/// blocked, so a waiter that spun to completion costs no wake syscall.
///
/// Lost wakeups cannot happen: a waiter checks the count and registers
/// itself under the mutex before it blocks, and the last count-down takes
/// the same mutex after its decrement. Either the count-down's critical
/// section comes first, and the waiter then sees zero, or the waiter is
/// registered by then and is notified.
pub struct Latch {
    remaining: AtomicU64,
    /// Number of waiters blocked on `cv`.
    blocked: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    /// A latch that opens after `n` count-downs (`n = 0`: already open).
    pub fn new(n: u64) -> Self {
        Latch {
            remaining: AtomicU64::new(n),
            blocked: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Add one to the count. Only valid while no waiter can observe the
    /// latch open, e.g. before the wait starts.
    pub(crate) fn count_up(&self) {
        self.remaining.fetch_add(1, Ordering::Release);
    }

    /// Count one completion down; the last one wakes blocked waiters.
    pub fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let blocked = self.blocked.lock();
            if *blocked > 0 {
                self.cv.notify_all();
            }
        }
    }

    /// Whether the count has reached zero.
    pub fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Count-downs still outstanding. A racy hint.
    pub(crate) fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Acquire)
    }

    /// Wait until the count reaches zero: spin for [`SPIN`], then block.
    pub fn wait(&self) {
        self.wait_until(None, true);
    }

    /// Block until the count reaches zero or `deadline` passes, without
    /// spinning. Returns `true` when the count reached zero.
    pub fn wait_deadline(&self, deadline: Instant) -> bool {
        self.wait_until(Some(deadline), false)
    }

    /// [`Self::wait_deadline`] with the deadline `poll` from now, for
    /// callers that interleave waiting with recovery checks.
    pub fn wait_poll(&self, poll: Duration) -> bool {
        self.wait_deadline(Instant::now() + poll)
    }

    /// Wait until the count reaches zero or `deadline` (if any) passes,
    /// spinning first when `spin` is set. Returns `true` when it reached
    /// zero.
    pub(crate) fn wait_until(&self, deadline: Option<Instant>, spin: bool) -> bool {
        if spin && self.spin(deadline) {
            return true;
        }
        let mut blocked = self.blocked.lock();
        while !self.is_done() {
            let timeout = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => return false,
                timeout => timeout,
            };
            *blocked += 1;
            match timeout {
                None => self.cv.wait(&mut blocked),
                Some(timeout) => {
                    self.cv.wait_for(&mut blocked, timeout);
                }
            }
            *blocked -= 1;
        }
        true
    }

    /// Poll the count for [`SPIN`] or until `deadline`, whichever is first.
    /// Returns `true` when the count reached zero.
    fn spin(&self, deadline: Option<Instant>) -> bool {
        let end = Instant::now() + SPIN;
        let end = deadline.map_or(end, |d| d.min(end));
        loop {
            if self.is_done() {
                return true;
            }
            if Instant::now() >= end {
                return false;
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_down_and_times_out() {
        let l = Latch::new(2);
        assert!(!l.is_done());
        l.count_down();
        let deadline = Instant::now() + Duration::from_millis(30);
        assert!(!l.wait_deadline(deadline), "one count outstanding");
        assert!(Instant::now() >= deadline);
        l.count_down();
        assert!(l.is_done());
        assert!(l.wait_deadline(Instant::now()));
        Latch::new(0).wait();
    }

    #[test]
    fn last_count_down_wakes_a_blocked_waiter() {
        // The waiter's cap is 10 s, so only the wake from the last
        // count-down can end its wait within 1 s.
        let l = Arc::new(Latch::new(1));
        let waiter = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let done = l.wait_poll(Duration::from_secs(10));
                (done, t0.elapsed())
            })
        };
        // Count down once the waiter is blocked, past its spin window.
        let t0 = Instant::now();
        while *l.blocked.lock() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "waiter never blocked"
            );
            std::thread::yield_now();
        }
        l.count_down();
        let (done, waited) = waiter.join().unwrap();
        assert!(done);
        assert!(waited < Duration::from_secs(1), "woken after {waited:?}");
    }
}
