//! The multi-tenant serving layer end to end (DESIGN.md §14): backoff
//! properties, admission-control backpressure, fault isolation across
//! tenants sharing one device, fault-budget eviction, and retry
//! accounting — all driven through the public `cl-serve` API.

use std::sync::Arc;
use std::time::Duration;

use cl_kernels::chaos::{reference, ChaosKernel, ChaosMode};
use cl_serve::{Backoff, RetryPolicy, ServeConfig, Server, Tenant, TenantConfig};
use cl_util::XorShift;
use integration_tests::reported_gid;
use ocl_rt::{Buffer, ClError, Kernel, MemFlags, NDRange};

/// A chaos kernel + its output buffer in `t`'s private context.
fn chaos(t: &Tenant, n: usize, mode: ChaosMode, groups: usize) -> (Buffer<u32>, Arc<dyn Kernel>) {
    let out = t.buffer::<u32>(MemFlags::default(), n).unwrap();
    let k: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(out.clone(), mode, groups));
    (out, k)
}

fn read_all(t: &Tenant, buf: &Buffer<u32>, n: usize) -> Vec<u32> {
    let mut host = vec![0u32; n];
    t.read(buf, 0, &mut host).unwrap();
    host
}

// --- Backoff properties --------------------------------------------------

/// For *any* policy and any RNG stream, the delay sequence is monotone
/// non-decreasing in the attempt number, never exceeds the cap, and
/// eventually plateaus exactly at the cap.
#[test]
fn backoff_is_monotone_and_capped_for_random_policies() {
    let mut meta = XorShift::seed_from_u64(0xB0FF);
    for case in 0..64 {
        let policy = RetryPolicy {
            max_retries: 16,
            base: Duration::from_micros(meta.range_usize(1, 2_000) as u64),
            cap: Duration::from_micros(meta.range_usize(500, 200_000) as u64),
        };
        let seed = meta.next_u64();
        let mut rng = XorShift::seed_from_u64(seed);
        let mut prev = Duration::ZERO;
        for attempt in 0..48 {
            let d = policy.delay(attempt, &mut rng);
            assert!(
                d >= prev,
                "case {case} seed {seed} attempt {attempt}: {d:?} < {prev:?}"
            );
            assert!(
                d <= policy.cap,
                "case {case}: {d:?} above cap {:?}",
                policy.cap
            );
            prev = d;
        }
        assert_eq!(
            prev, policy.cap,
            "case {case}: sequence must plateau at cap"
        );
    }
}

/// Same seed → identical delay sequence; different seeds decorrelate
/// (jitter actually varies within an attempt's `[raw/2, raw)` window).
#[test]
fn backoff_is_deterministic_per_seed_and_jittered_across_seeds() {
    let policy = RetryPolicy {
        max_retries: 10,
        base: Duration::from_micros(100),
        cap: Duration::from_secs(1),
    };
    let walk = |seed: u64| -> Vec<Duration> {
        let mut b = Backoff::new(policy.clone(), seed);
        std::iter::from_fn(move || b.next_delay()).collect()
    };
    for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
        assert_eq!(walk(seed), walk(seed), "seed {seed} must replay exactly");
        assert_eq!(walk(seed).len(), policy.max_retries as usize);
    }
    // Two streams agree on the envelope but not the exact delays.
    assert_ne!(walk(1), walk(2), "distinct seeds should jitter differently");
}

/// The jittered delay stays inside its analytic envelope
/// `[min(cap, base·2^k / 2), min(cap, base·2^k)]`.
#[test]
fn backoff_respects_the_halved_exponential_envelope() {
    let policy = RetryPolicy {
        max_retries: 8,
        base: Duration::from_micros(200),
        cap: Duration::from_millis(500),
    };
    for seed in 0..32u64 {
        let mut rng = XorShift::seed_from_u64(seed);
        for attempt in 0..20u32 {
            let raw = policy
                .base
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
            let lo = (raw / 2).min(policy.cap);
            let hi = raw.min(policy.cap);
            let d = policy.delay(attempt, &mut rng);
            assert!(
                d >= lo && d <= hi,
                "seed {seed} attempt {attempt}: {d:?} outside [{lo:?}, {hi:?}]"
            );
        }
    }
}

// --- Admission control ---------------------------------------------------

#[test]
fn byte_quota_refuses_oversized_transfers_with_backpressure() {
    let srv = Server::new(1, ServeConfig::default()).unwrap();
    let t = srv.tenant(TenantConfig::default().max_pending_bytes(1024));
    let buf = t.buffer::<u32>(MemFlags::default(), 16 * 1024).unwrap();

    let big = vec![1u32; 16 * 1024]; // 64 KiB ≫ the 1 KiB quota
    match t.write(&buf, 0, &big) {
        Err(ClError::Backpressure {
            tenant,
            retry_after,
        }) => {
            assert_eq!(tenant, t.id());
            assert!(retry_after > Duration::ZERO, "hint must be actionable");
        }
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // A transfer inside the quota still goes through on the same handle.
    let small = vec![2u32; 64]; // 256 B
    t.write(&buf, 0, &small).unwrap();
    let mut back = vec![0u32; 64];
    t.read(&buf, 0, &mut back).unwrap();
    assert_eq!(back, small);

    let s = t.stats();
    assert!(s.backpressure >= 1, "refusal must be counted: {s:?}");
    assert_eq!(s.transfers, 2, "only admitted transfers count: {s:?}");
}

#[test]
fn inflight_quota_refuses_while_a_stalled_launch_holds_the_slot() {
    let srv = Server::new(1, ServeConfig::default()).unwrap();
    let t = srv.tenant(
        TenantConfig::default()
            .max_inflight(1)
            .launch_timeout(Duration::from_millis(200)),
    );
    const N: usize = 64;
    let (_out, stall) = chaos(&t, N, ChaosMode::StallUntilAbort { group: 0 }, 1);
    let range = NDRange::d1(N).local1(N);

    std::thread::scope(|s| {
        let holder = s.spawn(|| t.launch(&stall, range));
        // Wait until the stalled launch is admitted, then overflow the quota.
        while t.in_flight() == 0 {
            std::thread::yield_now();
        }
        match t.launch(&stall, range) {
            Err(ClError::Backpressure { tenant, .. }) => assert_eq!(tenant, t.id()),
            other => panic!("expected Backpressure, got {other:?}"),
        }
        // The stalled holder is reaped by the watchdog, not wedged.
        match holder.join().unwrap() {
            Err(ClError::LaunchTimedOut { .. }) => {}
            other => panic!("expected LaunchTimedOut, got {other:?}"),
        }
    });
    assert!(t.stats().backpressure >= 1);
}

// --- Fault isolation -----------------------------------------------------

#[test]
fn faulty_tenant_does_not_perturb_a_clean_neighbor() {
    const N: usize = 256;
    let srv = Server::new(2, ServeConfig::default()).unwrap();
    let clean_t = srv.tenant(TenantConfig::default().name("clean"));
    let faulty_t = srv.tenant(TenantConfig::default().name("faulty"));
    let range = NDRange::d1(N).local1(64);

    std::thread::scope(|s| {
        let clean = s.spawn(|| {
            for _ in 0..6 {
                let (out, k) = chaos(&clean_t, N, ChaosMode::Clean, N / 64);
                clean_t.launch(&k, range).unwrap();
                assert_eq!(
                    read_all(&clean_t, &out, N),
                    reference(N),
                    "clean tenant drifted"
                );
            }
        });
        let faulty = s.spawn(|| {
            for round in 0..6 {
                let (_out, k) = chaos(&faulty_t, N, ChaosMode::PanicAt { gid: round * 7 }, N / 64);
                match faulty_t.launch(&k, range) {
                    Err(ClError::KernelPanicked { .. }) => {}
                    other => panic!("expected KernelPanicked, got {other:?}"),
                }
            }
        });
        clean.join().unwrap();
        faulty.join().unwrap();
    });

    // The faulty tenant's own handle still works after its faults…
    let (out, k) = chaos(&faulty_t, N, ChaosMode::Clean, N / 64);
    faulty_t.launch(&k, range).unwrap();
    assert_eq!(read_all(&faulty_t, &out, N), reference(N));
    // …and the books agree on who faulted.
    assert_eq!(faulty_t.stats().faults, 6);
    assert_eq!(clean_t.stats().faults, 0);
}

// --- Eviction ------------------------------------------------------------

#[test]
fn exhausting_the_fault_budget_evicts_the_tenant() {
    const N: usize = 64;
    let srv = Server::new(1, ServeConfig::default()).unwrap();
    let t = srv.tenant(TenantConfig::default().fault_budget(2));
    let range = NDRange::d1(N).local1(N);
    for _ in 0..2 {
        let (_out, k) = chaos(&t, N, ChaosMode::PanicAt { gid: 3 }, 1);
        assert!(matches!(
            t.launch(&k, range),
            Err(ClError::KernelPanicked { .. })
        ));
    }
    assert!(t.is_evicted(), "two faults must exhaust a budget of 2");
    let (_out, k) = chaos(&t, N, ChaosMode::Clean, 1);
    match t.launch(&k, range) {
        Err(ClError::TenantEvicted { tenant }) => assert_eq!(tenant, t.id()),
        other => panic!("expected TenantEvicted, got {other:?}"),
    }
}

#[test]
fn administrative_eviction_rejects_future_work() {
    const N: usize = 64;
    let srv = Server::new(1, ServeConfig::default()).unwrap();
    let t = srv.tenant(TenantConfig::default());
    assert!(srv.evict(t.id()));
    assert!(t.is_evicted());
    let (_out, k) = chaos(&t, N, ChaosMode::Clean, 1);
    assert!(matches!(
        t.launch(&k, range_64()),
        Err(ClError::TenantEvicted { .. })
    ));
    assert!(t.stats().rejected_evicted >= 1);

    fn range_64() -> NDRange {
        NDRange::d1(64).local1(64)
    }
}

// --- Retry accounting ----------------------------------------------------

#[test]
fn launch_with_retry_rides_out_transient_backpressure() {
    const N: usize = 64;
    let srv = Server::new(1, ServeConfig::default()).unwrap();
    let t = srv.tenant(
        TenantConfig::default()
            .max_inflight(1)
            .launch_timeout(Duration::from_millis(150))
            .retry(RetryPolicy {
                max_retries: 40,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(40),
            }),
    );
    let (_sout, stall) = chaos(&t, N, ChaosMode::StallUntilAbort { group: 0 }, 1);
    let (out, clean) = chaos(&t, N, ChaosMode::Clean, 1);
    let range = NDRange::d1(N).local1(N);

    std::thread::scope(|s| {
        let holder = s.spawn(|| t.launch(&stall, range));
        while t.in_flight() == 0 {
            std::thread::yield_now();
        }
        // First attempts hit the in-flight quota; once the watchdog reaps
        // the stalled holder, a retry is admitted and succeeds.
        t.launch_with_retry(&clean, range).unwrap();
        assert!(matches!(
            holder.join().unwrap(),
            Err(ClError::LaunchTimedOut { .. })
        ));
    });
    assert_eq!(read_all(&t, &out, N), reference(N));
    let s = t.stats();
    assert!(s.retries >= 1, "retries must be accounted: {s:?}");
    assert_eq!(s.launches, 1, "only the successful launch counts: {s:?}");
}

// --- Out-of-order tenant queues ------------------------------------------

/// A tenant opted into `TenantConfig::out_of_order` routes its launches
/// through the pending-DAG scheduler: an order-sensitive same-buffer chain
/// must still come out bit-exact (auto-inferred dependencies), while a
/// default in-order neighbor on the same server stays untouched — the
/// opt-in is per tenant, not per server.
#[test]
fn ooo_tenant_chains_stay_exact_and_neighbors_stay_in_order() {
    use cl_kernels::sched::{muladd_ref, MulAdd};
    const N: usize = 256;
    let srv = Server::new(2, ServeConfig::default()).unwrap();
    let ooo_t = srv.tenant(TenantConfig::default().name("ooo").out_of_order(true));
    let inorder_t = srv.tenant(TenantConfig::default().name("in-order"));
    let range = NDRange::d1(N).local1(64);
    let coeffs: [(u32, u32); 4] = [(3, 7), (5, 11), (9, 2), (7, 13)];

    let run_chain = |t: &Tenant| {
        let init: Vec<u32> = (0..N as u32).collect();
        let buf = t.buffer_from(MemFlags::default(), &init).unwrap();
        for &(mul, add) in &coeffs {
            let k: Arc<dyn Kernel> = Arc::new(MulAdd {
                data: buf.clone(),
                mul,
                add,
                iters: 1,
                label: "mul_add".into(),
            });
            t.launch(&k, range).unwrap();
        }
        let mut want = init;
        for &(mul, add) in &coeffs {
            muladd_ref(&mut want, mul, add);
        }
        assert_eq!(read_all(t, &buf, N), want);
    };

    std::thread::scope(|s| {
        let a = s.spawn(|| {
            for _ in 0..3 {
                run_chain(&ooo_t);
            }
        });
        let b = s.spawn(|| {
            for _ in 0..3 {
                run_chain(&inorder_t);
            }
        });
        a.join().unwrap();
        b.join().unwrap();
    });
    assert_eq!(ooo_t.stats().faults, 0);
    assert_eq!(inorder_t.stats().faults, 0);
}

/// A fault on an out-of-order tenant queue is contained to that tenant:
/// the panic is reported on the faulting handle, the OOO tenant heals, and
/// the books record the fault against it alone.
#[test]
fn ooo_tenant_faults_are_contained_and_heal() {
    const N: usize = 256;
    let srv = Server::new(2, ServeConfig::default()).unwrap();
    let t = srv.tenant(
        TenantConfig::default()
            .name("ooo-faulty")
            .out_of_order(true),
    );
    let neighbor = srv.tenant(TenantConfig::default().name("bystander"));
    let range = NDRange::d1(N).local1(64);

    let (_out, bad) = chaos(&t, N, ChaosMode::PanicAt { gid: 42 }, N / 64);
    match t.launch(&bad, range) {
        Err(ClError::KernelPanicked { gid, .. }) => assert_eq!(gid, reported_gid(42, 64)),
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
    // The OOO queue drains and the handle heals.
    let (out, good) = chaos(&t, N, ChaosMode::Clean, N / 64);
    t.launch(&good, range).unwrap();
    assert_eq!(read_all(&t, &out, N), reference(N));
    let (nout, nk) = chaos(&neighbor, N, ChaosMode::Clean, N / 64);
    neighbor.launch(&nk, range).unwrap();
    assert_eq!(read_all(&neighbor, &nout, N), reference(N));
    assert_eq!(t.stats().faults, 1);
    assert_eq!(neighbor.stats().faults, 0);
}
