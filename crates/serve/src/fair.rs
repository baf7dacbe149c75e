//! The weighted admission gate: a fixed pool of execution slots handed out
//! across per-tenant lanes by deficit weighted round-robin.
//!
//! Kernel launches are the only tenant commands that occupy pool workers,
//! so they are the only commands that pass the gate. Each tenant owns a
//! *lane*; a lane's `weight` is the number of grants it receives per WRR
//! round while it has waiters. Slots release on [`SlotGuard`] drop, and the
//! releasing thread immediately grants the next waiter under the same lock,
//! so slot hand-off order is exactly grant order — deterministic given the
//! arrival order within each lane.
//!
//! **Shedding** (graceful degradation): the waiting room is bounded by
//! `max_waiting`. When it is full, the gate sheds the *newest waiter of the
//! lowest-weight lane* to admit a heavier arrival, and rejects the arrival
//! outright when the arrival itself is the newest lowest-weight work. Under
//! sustained overload, heavy tenants keep their bounded queue; the flood is
//! what gets refused.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cl_util::sync::{Condvar, Mutex};

const WAITING: u8 = 0;
const GRANTED: u8 = 1;
const SHED: u8 = 2;
const EVICTED: u8 = 3;

/// Why [`WeightedGate::acquire`] refused a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// Shed under overload (the waiting room is full). Transient — maps to
    /// `ClError::Backpressure`.
    Shed,
    /// The lane was evicted before or while waiting. Terminal — maps to
    /// `ClError::TenantEvicted`.
    Evicted,
}

struct Waiter {
    state: AtomicU8,
    /// Global arrival order, for picking the *newest* victim across
    /// equal-weight lanes when shedding.
    seq: u64,
}

struct Lane {
    tenant: u64,
    weight: u32,
    /// Grants remaining this WRR round.
    credit: u32,
    queue: VecDeque<Arc<Waiter>>,
    evicted: bool,
}

struct GateState {
    free: usize,
    waiting_total: usize,
    lanes: Vec<Lane>,
    /// Lane index the WRR scan starts from.
    cursor: usize,
    /// Arrival counter stamped onto waiters.
    next_seq: u64,
}

/// Weighted round-robin slot gate shared by all tenants of a server.
pub struct WeightedGate {
    state: Mutex<GateState>,
    cv: Condvar,
    capacity: usize,
    max_waiting: usize,
}

/// An execution slot; releasing (dropping) it grants the next waiter.
pub struct SlotGuard {
    gate: Arc<WeightedGate>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.gate.release();
    }
}

impl WeightedGate {
    /// A gate with `capacity` slots and a `max_waiting`-bounded waiting
    /// room.
    pub fn new(capacity: usize, max_waiting: usize) -> Arc<Self> {
        Arc::new(WeightedGate {
            state: Mutex::new(GateState {
                free: capacity.max(1),
                waiting_total: 0,
                lanes: Vec::new(),
                cursor: 0,
                next_seq: 0,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            max_waiting,
        })
    }

    /// Register a lane for `tenant` with the given WRR weight.
    pub fn register(&self, tenant: u64, weight: u32) {
        let mut s = self.state.lock();
        debug_assert!(
            s.lanes.iter().all(|l| l.tenant != tenant),
            "tenant {tenant} registered twice"
        );
        let weight = weight.max(1);
        s.lanes.push(Lane {
            tenant,
            weight,
            credit: weight,
            queue: VecDeque::new(),
            evicted: false,
        });
    }

    /// Remove `tenant`'s lane; its parked waiters fail with
    /// [`AcquireError::Evicted`].
    pub fn deregister(&self, tenant: u64) {
        let mut s = self.state.lock();
        let st = &mut *s;
        if let Some(i) = st.lanes.iter().position(|l| l.tenant == tenant) {
            let lane = st.lanes.remove(i);
            st.waiting_total -= lane.queue.len();
            if st.cursor > i {
                st.cursor -= 1;
            }
            if !st.lanes.is_empty() {
                st.cursor %= st.lanes.len();
            } else {
                st.cursor = 0;
            }
            let woken = !lane.queue.is_empty();
            for w in lane.queue {
                w.state.store(EVICTED, Ordering::Release);
            }
            drop(s);
            if woken {
                self.cv.notify_all();
            }
        }
    }

    /// Evict `tenant`'s lane in place: parked waiters fail with
    /// [`AcquireError::Evicted`], and so does every later acquire.
    pub fn evict(&self, tenant: u64) {
        let mut s = self.state.lock();
        let st = &mut *s;
        if let Some(lane) = st.lanes.iter_mut().find(|l| l.tenant == tenant) {
            lane.evicted = true;
            st.waiting_total -= lane.queue.len();
            let drained: Vec<_> = lane.queue.drain(..).collect();
            drop(s);
            if !drained.is_empty() {
                for w in &drained {
                    w.state.store(EVICTED, Ordering::Release);
                }
                self.cv.notify_all();
            }
        }
    }

    /// Acquire an execution slot on `tenant`'s lane, parking until granted,
    /// shed, or evicted.
    pub fn acquire(self: &Arc<Self>, tenant: u64) -> Result<SlotGuard, AcquireError> {
        let waiter = {
            let mut s = self.state.lock();
            let li = s
                .lanes
                .iter()
                .position(|l| l.tenant == tenant)
                .expect("tenant lane not registered with the gate");
            if s.lanes[li].evicted {
                return Err(AcquireError::Evicted);
            }
            // Fast path. Grants drain the waiting room before `free` goes
            // positive again, so free > 0 implies nobody is parked — taking
            // the slot directly cannot barge past a waiter.
            if s.waiting_total == 0 && s.free > 0 {
                s.free -= 1;
                return Ok(SlotGuard {
                    gate: Arc::clone(self),
                });
            }
            if s.waiting_total >= self.max_waiting {
                let my_weight = s.lanes[li].weight;
                let min_weight = s
                    .lanes
                    .iter()
                    .filter(|l| !l.queue.is_empty())
                    .map(|l| l.weight)
                    .min();
                match min_weight {
                    // Shed the newest waiter among the lowest-weight lanes
                    // to make room for this strictly heavier arrival. Each
                    // lane's newest waiter is its back; across equal-weight
                    // lanes the victim is the latest arrival (max seq).
                    Some(mw) if my_weight > mw => {
                        let vi = s
                            .lanes
                            .iter()
                            .enumerate()
                            .filter(|(_, l)| l.weight == mw && !l.queue.is_empty())
                            .max_by_key(|(_, l)| l.queue.back().expect("nonempty").seq)
                            .map(|(i, _)| i)
                            .expect("a lane with min weight has waiters");
                        let victim = s.lanes[vi].queue.pop_back().expect("nonempty");
                        s.waiting_total -= 1;
                        victim.state.store(SHED, Ordering::Release);
                        self.cv.notify_all();
                    }
                    // The arrival is itself the newest lowest-weight work.
                    _ => return Err(AcquireError::Shed),
                }
            }
            let w = Arc::new(Waiter {
                state: AtomicU8::new(WAITING),
                seq: s.next_seq,
            });
            s.next_seq += 1;
            s.lanes[li].queue.push_back(Arc::clone(&w));
            s.waiting_total += 1;
            // A slot may be free if we got here via the shed branch.
            let granted = Self::grant_locked(&mut s);
            drop(s);
            if granted > 0 {
                self.cv.notify_all();
            }
            w
        };

        let mut s = self.state.lock();
        loop {
            match waiter.state.load(Ordering::Acquire) {
                GRANTED => {
                    return Ok(SlotGuard {
                        gate: Arc::clone(self),
                    })
                }
                SHED => return Err(AcquireError::Shed),
                EVICTED => return Err(AcquireError::Evicted),
                _ => {}
            }
            // Periodic re-check is belt and braces against a lost wakeup;
            // grants always notify under normal operation.
            self.cv.wait_for(&mut s, Duration::from_millis(100));
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently parked acquisitions (all lanes).
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting_total
    }

    /// Slots not currently handed out.
    pub fn free(&self) -> usize {
        self.state.lock().free
    }

    fn release(&self) {
        let mut s = self.state.lock();
        s.free += 1;
        debug_assert!(s.free <= self.capacity, "slot released twice");
        let granted = Self::grant_locked(&mut s);
        drop(s);
        if granted > 0 {
            self.cv.notify_all();
        }
    }

    /// Hand free slots to parked waiters in deficit-WRR order. Caller
    /// notifies the condvar when the return is nonzero.
    fn grant_locked(s: &mut GateState) -> usize {
        let n = s.lanes.len();
        let mut granted = 0;
        if n == 0 {
            return 0;
        }
        while s.free > 0 && s.waiting_total > 0 {
            let mut progressed = false;
            for k in 0..n {
                let i = (s.cursor + k) % n;
                let lane = &mut s.lanes[i];
                if lane.credit > 0 && !lane.queue.is_empty() {
                    let w = lane.queue.pop_front().expect("nonempty");
                    lane.credit -= 1;
                    // Stay on the lane while it has credit (strict WRR
                    // bursts of `weight` grants), else move past it.
                    s.cursor = if lane.credit > 0 { i } else { (i + 1) % n };
                    s.waiting_total -= 1;
                    s.free -= 1;
                    w.state.store(GRANTED, Ordering::Release);
                    granted += 1;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                if !s.lanes.iter().any(|l| !l.queue.is_empty()) {
                    debug_assert!(false, "waiting_total out of sync with lane queues");
                    break;
                }
                // Every lane with waiters is out of credit: new WRR round.
                for l in &mut s.lanes {
                    l.credit = l.weight;
                }
            }
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;
    use std::time::Instant;

    fn park_until(gate: &Arc<WeightedGate>, waiting: usize) {
        let t0 = Instant::now();
        while gate.waiting() < waiting {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "waiters never parked"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn fast_path_and_single_waiter() {
        let gate = WeightedGate::new(1, 16);
        gate.register(1, 1);
        let g = gate.acquire(1).unwrap();
        let gate2 = Arc::clone(&gate);
        let h = std::thread::spawn(move || gate2.acquire(1).map(drop));
        park_until(&gate, 1);
        drop(g);
        h.join().unwrap().unwrap();
        assert_eq!(gate.free(), 1);
    }

    #[test]
    fn grant_order_is_weighted_round_robin() {
        let gate = WeightedGate::new(1, 16);
        gate.register(1, 2); // A, weight 2
        gate.register(2, 1); // B, weight 1
        let holder = gate.acquire(1).unwrap();
        let order = Arc::new(StdMutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Park 4 A waiters then 2 B waiters; lanes are independent queues,
        // so only the per-lane FIFO order matters and A/B arrival
        // interleaving does not.
        for (tenant, count) in [(1u64, 4usize), (2, 2)] {
            for _ in 0..count {
                let gate2 = Arc::clone(&gate);
                let order = Arc::clone(&order);
                let parked = gate.waiting() + 1;
                handles.push(std::thread::spawn(move || {
                    let g = gate2.acquire(tenant).unwrap();
                    order.lock().unwrap().push(tenant);
                    drop(g); // hand the slot to the next grant
                }));
                park_until(&gate, parked);
            }
        }
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        // Credits start at the weights: A,A,B then refill, A,A,B.
        assert_eq!(*order.lock().unwrap(), vec![1, 1, 2, 1, 1, 2]);
    }

    #[test]
    fn shed_newest_lowest_weight_first() {
        let gate = WeightedGate::new(1, 2);
        gate.register(1, 1); // low
        gate.register(2, 5); // high
        let holder = gate.acquire(2).unwrap();

        let spawn_waiter = |tenant: u64| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire(tenant).map(drop))
        };
        let low1 = spawn_waiter(1);
        park_until(&gate, 1);
        let low2 = spawn_waiter(1);
        park_until(&gate, 2);

        // Waiting room full. A heavier arrival sheds low2 (newest waiter of
        // the lowest-weight lane) and takes its place.
        let high = spawn_waiter(2);
        assert_eq!(low2.join().unwrap(), Err(AcquireError::Shed));
        park_until(&gate, 2);

        // A low-weight arrival with the room full is itself the newest
        // lowest-weight work: rejected outright, nothing else shed.
        assert!(matches!(gate.acquire(1), Err(AcquireError::Shed)));
        assert_eq!(gate.waiting(), 2);

        drop(holder);
        low1.join().unwrap().unwrap();
        high.join().unwrap().unwrap();
    }

    #[test]
    fn shed_victim_is_newest_across_equal_weight_lanes() {
        let gate = WeightedGate::new(1, 2);
        gate.register(1, 1); // lowA
        gate.register(2, 1); // lowB
        gate.register(3, 5); // high
        let holder = gate.acquire(3).unwrap();

        let ga = Arc::clone(&gate);
        let low_a = std::thread::spawn(move || ga.acquire(1).map(drop));
        park_until(&gate, 1);
        let gb = Arc::clone(&gate);
        let low_b = std::thread::spawn(move || gb.acquire(2).map(drop));
        park_until(&gate, 2);

        // lowB's waiter arrived last: it is the victim, even though lowA's
        // lane comes first in registration order.
        let gh = Arc::clone(&gate);
        let high = std::thread::spawn(move || gh.acquire(3).map(drop));
        assert_eq!(low_b.join().unwrap(), Err(AcquireError::Shed));
        drop(holder);
        low_a.join().unwrap().unwrap();
        high.join().unwrap().unwrap();
    }

    #[test]
    fn evicted_lane_fails_parked_and_future_acquires() {
        let gate = WeightedGate::new(1, 16);
        gate.register(1, 1);
        gate.register(2, 1);
        let holder = gate.acquire(2).unwrap();
        let gate2 = Arc::clone(&gate);
        let parked = std::thread::spawn(move || gate2.acquire(1).map(drop));
        park_until(&gate, 1);
        gate.evict(1);
        assert_eq!(parked.join().unwrap(), Err(AcquireError::Evicted));
        assert!(matches!(gate.acquire(1), Err(AcquireError::Evicted)));
        assert_eq!(gate.waiting(), 0);
        drop(holder);
    }

    #[test]
    fn deregister_frees_the_lane() {
        let gate = WeightedGate::new(2, 16);
        gate.register(1, 1);
        gate.register(2, 1);
        gate.deregister(1);
        let s = gate.state.lock();
        assert_eq!(s.lanes.len(), 1);
        assert_eq!(s.lanes[0].tenant, 2);
    }
}
