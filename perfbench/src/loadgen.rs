//! The open-loop load generator: a seeded Poisson schedule per tenant, and
//! a driver that starts each arrival when it is due and times it from that
//! moment, so a stall shows as lateness of every arrival behind it.

use std::time::Duration;

use ocl_rt::now_ns;

/// SplitMix64: the benchmark's own seeded stream for schedules and payloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled arrival: when it is due (ns after the window opens) and
/// which kind of work it is (an index the workload interprets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub kind: usize,
}

/// Poisson arrivals at `rate` per second over `window`: the process
/// conditioned on its expected count, i.e. `rate × window` arrival times
/// drawn uniformly over the window and sorted. Kinds come from a seeded
/// shuffle of a deck holding each kind `weights[kind]` times, so every
/// seed offers the same mix and only the order and timing vary.
pub fn poisson(seed: u64, rate: f64, window: Duration, weights: &[u32]) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let n = (rate * window.as_secs_f64()).round() as usize;
    let end = window.as_nanos() as f64;
    let mut due: Vec<u64> = (0..n).map(|_| (rng.unit() * end) as u64).collect();
    due.sort_unstable();
    let deck: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(kind, &w)| std::iter::repeat_n(kind, w as usize))
        .collect();
    let mut kinds = Vec::with_capacity(n);
    while kinds.len() < n {
        let mut hand = deck.clone();
        // Fisher–Yates.
        for i in (1..hand.len()).rev() {
            hand.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        kinds.extend(hand);
    }
    due.into_iter()
        .zip(kinds)
        .map(|(due_ns, kind)| Arrival { due_ns, kind })
        .collect()
}

/// What happened to one arrival, on the runtime clock.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub ok: bool,
}

impl Record {
    /// Latency from due time: includes any wait behind earlier arrivals.
    pub fn latency_ns(&self) -> u64 {
        self.end - self.due
    }

    /// How late the generator started the arrival.
    pub fn late_ns(&self) -> u64 {
        self.start - self.due
    }
}

/// How long before an arrival is due the driver stops sleeping and spins,
/// so the sleep's wake-up latency does not make every arrival late.
const SPIN_NS: u64 = 150_000;

/// Run `schedule` open-loop from `origin`: wait until each arrival is due
/// (never for one already late), run it, and record it. `prepare` runs
/// untimed work for the next arrival before the sleep and hands its result
/// to `run`, which does the arrival and returns its end stamp and whether
/// it succeeded (its own checks run after that stamp).
pub fn drive<P>(
    schedule: &[Arrival],
    origin: u64,
    mut prepare: impl FnMut(usize, &Arrival) -> P,
    mut run: impl FnMut(usize, &Arrival, u64, u64, P) -> (u64, bool),
) -> Vec<Record> {
    let mut records = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        let prepared = prepare(i, a);
        let due = origin + a.due_ns;
        let now = now_ns();
        if now + SPIN_NS < due {
            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        }
        while now_ns() < due {
            std::hint::spin_loop();
        }
        let start = now_ns();
        let (end, ok) = run(i, a, due, start, prepared);
        records.push(Record {
            due,
            start,
            end,
            ok,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded() {
        let w = Duration::from_secs(2);
        let a = poisson(7, 300.0, w, &[3, 2, 1]);
        assert_eq!(a, poisson(7, 300.0, w, &[3, 2, 1]));
        assert_ne!(a, poisson(8, 300.0, w, &[3, 2, 1]));
        assert_eq!(a.len(), 600);
        assert!(a.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        assert!(a.last().unwrap().due_ns < w.as_nanos() as u64);
        // Every seed offers the same mix: 3:2:1.
        let kinds = |k| a.iter().filter(|x| x.kind == k).count();
        assert_eq!((kinds(0), kinds(1), kinds(2)), (300, 200, 100));
    }

    /// A stall injected into one arrival makes the arrivals due during it
    /// late, and their latency counts the wait from their due time. The
    /// stall and the limit are tens of milliseconds, so the host's own
    /// scheduling hiccups (other tests run beside this one) stay below the
    /// limit.
    #[test]
    fn a_stall_makes_later_arrivals_late() {
        const MS: u64 = 1_000_000;
        let schedule: Vec<Arrival> = (0..60)
            .map(|i| Arrival {
                due_ns: i * 2 * MS,
                kind: 0,
            })
            .collect();
        let stall_at = 10;
        let stall = Duration::from_millis(100);
        let origin = now_ns() + MS;
        let records = drive(
            &schedule,
            origin,
            |_, _| {},
            |i, _, _, _, ()| {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                (now_ns(), true)
            },
        );
        let limit_ns = 40 * MS;
        let late: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].latency_ns() > limit_ns)
            .collect();
        // The stall ends 100 ms after arrival 10 (due at 20 ms) started, so
        // arrivals 11..40, due before 80 ms, start more than 40 ms late.
        assert!(late.contains(&stall_at));
        assert!(late.contains(&(stall_at + 15)), "{late:?}");
        assert!(
            late.iter().all(|&i| i >= stall_at && i <= stall_at + 35),
            "{late:?}"
        );
        assert!(records[stall_at + 1].late_ns() >= 80 * MS);
        assert!(records[stall_at + 1].latency_ns() >= records[stall_at + 1].late_ns());
        assert!(records[stall_at - 1].late_ns() < limit_ns);
    }
}
