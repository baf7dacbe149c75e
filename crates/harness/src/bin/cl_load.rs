//! `cl-load` — multi-tenant load harness for the serving layer (`cl-serve`).
//!
//! ```text
//! cl-load [--tenants N] [--faulty K] [--rounds R] [--seed S] [--workers W]
//!         [--timeout-ms T] [--stable] [--out DIR]
//!
//!   --tenants N     concurrent tenants in the isolation soak (default: 16)
//!   --faulty K      tenants injecting seeded faults (default: 2)
//!   --rounds R      rounds per tenant (default: 3)
//!   --seed S        PRNG seed for per-tenant workload mixes (default: 7)
//!   --workers W     pool workers of the shared device (default: min(4, cores))
//!   --timeout-ms T  launch watchdog per enqueue (default: 250)
//!   --stable        deterministic serve.md (volatile cells render as "·")
//!   --out DIR       output directory for serve.md (default: results)
//! ```
//!
//! **Phase 1 — isolation soak.** N tenants run concurrently on one
//! [`cl_serve::Server`] over a shared pool. The first K tenants inject one
//! seeded fault per round (panic, fatal worker-retiring fault, payload
//! bomb, watchdog-killed stall, or barrier desync) and must observe the
//! *right* contained `ClError`, then recover with a bit-exact probe on the
//! same queue. The other N−K tenants run mixed launch/write/read/map
//! traffic whose outputs must stay bit-exact, with every launch bounded by
//! a generous stall budget. Any mismatch, wrong error, failed probe, or
//! over-budget stall is an **isolation violation** and fails the run.
//!
//! **Phase 2 — overload scenarios.** Deterministic admission-control and
//! shedding checks on purpose-built tiny servers: in-flight and byte
//! quotas refuse with `Backpressure`; a full waiting room rejects the
//! newest lowest-weight arrival and displaces the newest light waiter for
//! a heavier one; overloaded clean traffic never sees any error *other*
//! than `Backpressure`; a tenant that exhausts its fault budget is evicted
//! (`TenantEvicted`); and `launch_with_retry` rides out transient
//! backpressure with jittered exponential backoff.
//!
//! The report (`results/serve.md`) is deterministic under `--stable`:
//! per-tenant op counts and verdicts are schedule-independent, and
//! wall-clock cells (p50/p99, respawns, wall time) render as "·".

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_harness::parse_flag;
use cl_kernels::chaos::{reference, ChaosKernel, ChaosMode};
use cl_serve::{ClError, RetryPolicy, ServeConfig, Server, StatsSnapshot, Tenant, TenantConfig};
use cl_util::XorShift;
use ocl_rt::{Kernel, MemFlags, NDRange};

struct TenantReport {
    name: String,
    weight: u32,
    faulty: bool,
    stats: StatsSnapshot,
    /// Clean checks (launch outputs, write/read roundtrips, map views)
    /// that compared bit-exact.
    exact: usize,
    /// Total clean checks run.
    checks: usize,
    /// Faulty rounds whose enqueue reported the expected contained error
    /// and whose same-queue probe recovered bit-exactly.
    contained: usize,
    /// Total fault injections.
    injected: usize,
    /// Launches that exceeded the stall budget.
    stalled: usize,
    /// Worst observed wall-clock launch time.
    worst: Duration,
}

impl TenantReport {
    fn violations(&self) -> usize {
        (self.checks - self.exact) + (self.injected - self.contained) + self.stalled
    }
}

struct Scenario {
    name: &'static str,
    what: &'static str,
    ok: bool,
    detail: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tenants = 16usize;
    let mut faulty = 2usize;
    let mut rounds = 3usize;
    let mut seed = 7u64;
    let mut workers = usize::min(4, cl_pool::available_cores().max(1));
    let mut timeout_ms = 250u64;
    let mut stable = false;
    let mut out_dir = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenants" => {
                i += 1;
                tenants = parse_flag(&args, i, "--tenants");
            }
            "--faulty" => {
                i += 1;
                faulty = parse_flag(&args, i, "--faulty");
            }
            "--rounds" => {
                i += 1;
                rounds = parse_flag(&args, i, "--rounds");
            }
            "--seed" => {
                i += 1;
                seed = parse_flag(&args, i, "--seed");
            }
            "--workers" => {
                i += 1;
                workers = parse_flag(&args, i, "--workers");
            }
            "--timeout-ms" => {
                i += 1;
                timeout_ms = parse_flag(&args, i, "--timeout-ms");
            }
            "--stable" => stable = true,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: cl-load [--tenants N] [--faulty K] [--rounds R] [--seed S] \
                     [--workers W] [--timeout-ms T] [--stable] [--out DIR]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let tenants = tenants.max(1);
    let faulty = faulty.min(tenants);
    let workers = workers.max(1);
    let timeout = Duration::from_millis(timeout_ms.max(1));
    // A clean launch may queue behind several watchdog-killed stalls before
    // its slot frees; the stall budget is deliberately generous — the
    // violation it guards against is an *unbounded* stall.
    let stall_budget = timeout * 20 + Duration::from_secs(5);

    // Faulty rounds assert the exact faulting gid; see cl-chaos.
    if std::env::var_os("CL_EXACT_GID").is_none() {
        std::env::set_var("CL_EXACT_GID", "1");
    }
    cl_kernels::chaos::install_quiet_panic_hook();

    let t0 = Instant::now();
    let reports = isolation_soak(
        tenants,
        faulty,
        rounds,
        seed,
        workers,
        timeout,
        stall_budget,
    );
    let scenarios = overload_scenarios(timeout);
    let elapsed = t0.elapsed();

    let violations: usize = reports.iter().map(|r| r.violations()).sum();
    let scen_failed = scenarios.iter().filter(|s| !s.ok).count();

    fs::create_dir_all(&out_dir).expect("create output directory");
    fs::write(
        out_dir.join("serve.md"),
        render_md(
            &reports, &scenarios, tenants, faulty, rounds, seed, workers, timeout, violations,
            elapsed, stable,
        ),
    )
    .expect("write serve.md");

    for r in reports.iter().filter(|r| r.violations() > 0) {
        eprintln!(
            "cl-load: {} ISOLATION VIOLATION: {}/{} checks exact, {}/{} faults contained, \
             {} stalls over budget (worst {:?})",
            r.name, r.exact, r.checks, r.contained, r.injected, r.stalled, r.worst
        );
    }
    for s in scenarios.iter().filter(|s| !s.ok) {
        eprintln!("cl-load: scenario {} FAILED: {}", s.name, s.detail);
    }
    println!(
        "cl-load: {tenants} tenants ({faulty} faulty) x {rounds} rounds on {workers} workers: \
         {violations} isolation violations, {}/{} overload scenarios ok ({:.2}s)",
        scenarios.len() - scen_failed,
        scenarios.len(),
        elapsed.as_secs_f64()
    );
    if violations > 0 || scen_failed > 0 {
        std::process::exit(1);
    }
}

/// Phase 1: N concurrent tenants, the first `faulty` of them injecting
/// seeded faults, the rest running bit-exact mixed traffic.
fn isolation_soak(
    tenants: usize,
    faulty: usize,
    rounds: usize,
    seed: u64,
    workers: usize,
    timeout: Duration,
    stall_budget: Duration,
) -> Vec<TenantReport> {
    let srv = Server::new(
        workers,
        ServeConfig::default()
            // No shedding in this phase: the waiting room fits every tenant.
            .max_waiting(tenants * 2 + 8)
            .launch_timeout(timeout),
    )
    .expect("load device");

    let handles: Vec<Tenant> = (0..tenants)
        .map(|i| {
            srv.tenant(
                TenantConfig::default()
                    .name(format!("tenant-{i:02}"))
                    // Mixed weights exercise the WRR lanes; fairness across
                    // them is asserted by shape (everyone finishes bounded).
                    .weight(1 + (i % 3) as u32)
                    .launch_timeout(timeout),
            )
        })
        .collect();

    let mut reports = Vec::with_capacity(tenants);
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(tenants);
        for (i, t) in handles.iter().enumerate() {
            let is_faulty = i < faulty;
            // Per-tenant stream: the workload mix depends only on (seed, i),
            // never on scheduling.
            let mut rng = XorShift::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            joins.push(s.spawn(move || {
                if is_faulty {
                    run_faulty_tenant(t, rounds, &mut rng, workers, stall_budget)
                } else {
                    run_clean_tenant(t, rounds, &mut rng, stall_budget)
                }
            }));
        }
        for (j, t) in joins.into_iter().zip(&handles) {
            let (exact, checks, contained, injected, stalled, worst) =
                j.join().expect("tenant thread");
            reports.push(TenantReport {
                name: t.name().to_string(),
                weight: 1 + (reports.len() % 3) as u32,
                faulty: reports.len() < faulty,
                stats: t.stats(),
                exact,
                checks,
                contained,
                injected,
                stalled,
                worst,
            });
        }
    });
    reports
}

type TenantOutcome = (usize, usize, usize, usize, usize, Duration);

/// Mixed clean traffic: a verified launch, a write/read roundtrip, and (on
/// alternate rounds) a map check. Returns
/// (exact, checks, contained=0, injected=0, stalled, worst).
fn run_clean_tenant(
    t: &Tenant,
    rounds: usize,
    rng: &mut XorShift,
    stall_budget: Duration,
) -> TenantOutcome {
    let mut exact = 0usize;
    let mut checks = 0usize;
    let mut stalled = 0usize;
    let mut worst = Duration::ZERO;
    for round in 0..rounds {
        let local = 32usize;
        let groups = 2 + rng.range_usize(0, 3);
        let n = groups * local;

        // Verified launch: chaos kernel in Clean mode writes 3i+1.
        let out = t.buffer::<u32>(MemFlags::default(), n).expect("buffer");
        let kernel: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(out.clone(), ChaosMode::Clean, groups));
        let t1 = Instant::now();
        let launched = t.launch(&kernel, NDRange::d1(n).local1(local));
        let took = t1.elapsed();
        worst = worst.max(took);
        if took > stall_budget {
            stalled += 1;
        }
        checks += 1;
        if launched.is_ok() {
            let mut host = vec![0u32; n];
            if t.read(&out, 0, &mut host).is_ok() && host == reference(n) {
                exact += 1;
            }
        }

        // Write/read roundtrip on a second buffer.
        let data: Vec<u32> = (0..n as u32)
            .map(|v| v.wrapping_mul(rng.next_u32() | 1))
            .collect();
        let buf = t.buffer::<u32>(MemFlags::default(), n).expect("buffer");
        checks += 1;
        let mut back = vec![0u32; n];
        if t.write(&buf, 0, &data).is_ok() && t.read(&buf, 0, &mut back).is_ok() && back == data {
            exact += 1;
        }

        // Map view check on alternate rounds (the view unmaps on drop).
        if round % 2 == 0 {
            checks += 1;
            if let Ok((view, _ev)) = t.map(&out) {
                if *view == reference(n)[..] {
                    exact += 1;
                }
            }
        }
    }
    (exact, checks, 0, 0, stalled, worst)
}

/// One seeded fault per round, judged like cl-chaos, followed by a
/// bit-exact recovery probe on the same queue. Returns
/// (exact, checks, contained, injected, stalled, worst).
fn run_faulty_tenant(
    t: &Tenant,
    rounds: usize,
    rng: &mut XorShift,
    workers: usize,
    stall_budget: Duration,
) -> TenantOutcome {
    let mut exact = 0usize;
    let mut checks = 0usize;
    let mut contained = 0usize;
    let mut stalled = 0usize;
    let mut worst = Duration::ZERO;
    for _ in 0..rounds {
        let local = 32usize;
        let kind = rng.next_u64() % 5;
        let mut groups = 2 + (rng.next_u64() % 3) as usize;
        if kind == 4 {
            // Barrier desync parks surviving groups on a cross-group
            // rendezvous; never park more groups than workers.
            groups = groups.min(workers);
        }
        let n = groups * local;
        let mode = match kind {
            0 => ChaosMode::PanicAt {
                gid: (rng.next_u64() as usize) % n,
            },
            1 => ChaosMode::FatalAt {
                gid: (rng.next_u64() as usize) % n,
            },
            2 => ChaosMode::PayloadBomb {
                gid: (rng.next_u64() as usize) % n,
            },
            3 => ChaosMode::StallUntilAbort {
                group: (rng.next_u64() as usize) % groups,
            },
            _ => ChaosMode::BarrierDesync {
                panic_group: (rng.next_u64() as usize) % groups,
            },
        };

        let out = t.buffer::<u32>(MemFlags::default(), n).expect("buffer");
        let kernel: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(out.clone(), mode, groups));
        let t1 = Instant::now();
        let res = t.launch(&kernel, NDRange::d1(n).local1(local));
        let took = t1.elapsed();
        worst = worst.max(took);
        if took > stall_budget {
            stalled += 1;
        }
        let error_ok = judge_multi_tenant(&mode, &res);

        // Recovery probe on the same queue, bit-exact.
        let probe: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(out.clone(), ChaosMode::Clean, groups));
        checks += 1;
        let probe_ok = match t.launch(&probe, NDRange::d1(n).local1(local)) {
            Ok(_) => {
                let mut host = vec![0u32; n];
                t.read(&out, 0, &mut host).is_ok() && host == reference(n)
            }
            Err(_) => false,
        };
        if probe_ok {
            exact += 1;
        }
        if error_ok && probe_ok {
            contained += 1;
        }
    }
    (exact, checks, contained, rounds, stalled, worst)
}

/// cl-chaos's judge, relaxed for cross-tenant contention: a barrier desync
/// may be resolved either by the contained panic or — when the deserting
/// group is starved of a worker by other tenants — by the watchdog. Both
/// are contained outcomes.
fn judge_multi_tenant(mode: &ChaosMode, res: &Result<ocl_rt::Event, ClError>) -> bool {
    match res {
        Ok(_) => false,
        Err(e) => match (mode, e) {
            (
                ChaosMode::PanicAt { gid }
                | ChaosMode::FatalAt { gid }
                | ChaosMode::PayloadBomb { gid },
                ClError::KernelPanicked {
                    kernel, gid: got, ..
                },
            ) => kernel == "chaos" && *got == [*gid, 0, 0],
            (ChaosMode::BarrierDesync { .. }, ClError::KernelPanicked { kernel, .. }) => {
                kernel == "chaos"
            }
            (ChaosMode::BarrierDesync { .. }, ClError::LaunchTimedOut { kernel, .. }) => {
                kernel == "chaos"
            }
            (ChaosMode::StallUntilAbort { .. }, ClError::LaunchTimedOut { kernel, .. }) => {
                kernel == "chaos"
            }
            _ => false,
        },
    }
}

/// Phase 2: deterministic admission/shedding/eviction/retry scenarios on
/// purpose-built tiny servers.
fn overload_scenarios(timeout: Duration) -> Vec<Scenario> {
    let mut out = Vec::new();
    let push = |out: &mut Vec<Scenario>, name, what, ok, detail: String| {
        out.push(Scenario {
            name,
            what,
            ok,
            detail,
        });
    };

    // --- quota/inflight: a held launch exhausts max_inflight=1; the next
    // command is refused with Backpressure, and retry rides it out. ---
    {
        let srv = Server::new(1, ServeConfig::default().launch_timeout(timeout)).expect("device");
        let t = srv.tenant(
            TenantConfig::default()
                .max_inflight(1)
                .retry(RetryPolicy {
                    max_retries: 12,
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(80),
                })
                .launch_timeout(timeout),
        );
        let groups = 1usize;
        let n = 32usize;
        let buf = t.buffer::<u32>(MemFlags::default(), n).expect("buffer");
        let stall: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
            buf.clone(),
            ChaosMode::StallUntilAbort { group: 0 },
            groups,
        ));
        let clean: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(buf.clone(), ChaosMode::Clean, groups));
        let mut held_result = None;
        let mut refused = false;
        let mut retried_ok = false;
        std::thread::scope(|s| {
            let h = s.spawn(|| t.launch(&stall, NDRange::d1(n).local1(32)));
            let t1 = Instant::now();
            while t.in_flight() == 0 && t1.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            // The stalled launch occupies the whole in-flight quota.
            refused = matches!(
                t.launch(&clean, NDRange::d1(n).local1(32)),
                Err(ClError::Backpressure { .. })
            );
            retried_ok = t
                .launch_with_retry(&clean, NDRange::d1(n).local1(32))
                .is_ok();
            held_result = Some(h.join().expect("holder"));
        });
        let held_timed_out = matches!(held_result, Some(Err(ClError::LaunchTimedOut { .. })));
        let retries = t.stats().retries;
        push(
            &mut out,
            "quota/inflight",
            "held launch fills max_inflight=1 → next command refused with Backpressure",
            refused && held_timed_out,
            format!("refused={refused}, holder watchdog-killed={held_timed_out}"),
        );
        push(
            &mut out,
            "retry/backoff",
            "launch_with_retry rides out transient backpressure (jittered exponential)",
            retried_ok && retries >= 1,
            format!("succeeded={retried_ok}, retries={retries}"),
        );
    }

    // --- quota/bytes: a write larger than max_pending_bytes is refused;
    // a within-quota write still succeeds afterwards. ---
    {
        let srv = Server::new(1, ServeConfig::default().launch_timeout(timeout)).expect("device");
        let t = srv.tenant(TenantConfig::default().max_pending_bytes(1 << 10));
        let buf = t
            .buffer::<u32>(MemFlags::default(), 1 << 14)
            .expect("buffer");
        let big = vec![1u32; 1 << 14]; // 64 KiB > 1 KiB quota
        let refused = matches!(t.write(&buf, 0, &big), Err(ClError::Backpressure { .. }));
        let small_ok = t.write(&buf, 0, &big[..64]).is_ok();
        push(
            &mut out,
            "quota/bytes",
            "oversized write refused with Backpressure; within-quota write succeeds",
            refused && small_ok,
            format!("refused={refused}, small_ok={small_ok}"),
        );
    }

    // --- overload shedding: slots=1 held by a stalled launch, waiting room
    // of 2 filled by two light waiters. A light arrival is rejected (it is
    // the newest lowest-weight work); a heavy arrival displaces the newest
    // light waiter; everything that runs either succeeds or sees
    // Backpressure — never a panic or a foreign error. ---
    {
        let srv = Server::new(
            2,
            ServeConfig::default()
                .slots(1)
                .max_waiting(2)
                .launch_timeout(timeout),
        )
        .expect("device");
        // The holder's stall must outlive the whole park/shed choreography
        // below, or a racing watchdog release would grant the waiters early
        // and the displacement assertions would be vacuous.
        let hold_timeout = timeout.max(Duration::from_millis(250)) * 8;
        let holder = srv.tenant(
            TenantConfig::default()
                .name("holder")
                .launch_timeout(hold_timeout),
        );
        let light_a = srv.tenant(TenantConfig::default().name("light-a").weight(1));
        let light_b = srv.tenant(TenantConfig::default().name("light-b").weight(1));
        let light_c = srv.tenant(TenantConfig::default().name("light-c").weight(1));
        let heavy = srv.tenant(TenantConfig::default().name("heavy").weight(5));
        let gate = Arc::clone(srv.gate());

        let mk = |t: &Tenant, mode: ChaosMode, groups: usize, n: usize| -> Arc<dyn Kernel> {
            Arc::new(ChaosKernel::new(
                t.buffer::<u32>(MemFlags::default(), n).expect("buffer"),
                mode,
                groups,
            ))
        };
        let n = 32usize;
        let stall_k = mk(&holder, ChaosMode::StallUntilAbort { group: 0 }, 1, n);
        let ka = mk(&light_a, ChaosMode::Clean, 1, n);
        let kb = mk(&light_b, ChaosMode::Clean, 1, n);
        let kc = mk(&light_c, ChaosMode::Clean, 1, n);
        let kh = mk(&heavy, ChaosMode::Clean, 1, n);

        let mut rejected_newest_low = false;
        let mut displaced_newest_light = false;
        let mut survivors_ok = false;
        let mut no_foreign_errors = true;
        std::thread::scope(|s| {
            let hold = s.spawn(|| holder.launch(&stall_k, NDRange::d1(n).local1(32)));
            let wait_for = |cond: &dyn Fn() -> bool| {
                let t1 = Instant::now();
                while !cond() && t1.elapsed() < Duration::from_secs(5) {
                    std::thread::yield_now();
                }
                cond()
            };
            // The stalled launch owns the only slot.
            wait_for(&|| gate.free() == 0);
            let a = s.spawn(|| light_a.launch(&ka, NDRange::d1(n).local1(32)));
            wait_for(&|| gate.waiting() == 1);
            let b = s.spawn(|| light_b.launch(&kb, NDRange::d1(n).local1(32)));
            wait_for(&|| gate.waiting() == 2);

            // Newest lowest-weight arrival with the room full: rejected.
            let c = light_c.launch(&kc, NDRange::d1(n).local1(32));
            rejected_newest_low = matches!(c, Err(ClError::Backpressure { .. }));

            // Heavy arrival displaces light-b (the newest light waiter).
            let h = s.spawn(|| heavy.launch(&kh, NDRange::d1(n).local1(32)));
            let rb = b.join().expect("light-b");
            displaced_newest_light = matches!(rb, Err(ClError::Backpressure { .. }));

            let ra = a.join().expect("light-a");
            let rh = h.join().expect("heavy");
            let rhold = hold.join().expect("holder");
            survivors_ok = ra.is_ok() && rh.is_ok();
            for r in [&ra, &rh, &rb, &c] {
                if let Err(e) = r {
                    if !matches!(e, ClError::Backpressure { .. }) {
                        no_foreign_errors = false;
                    }
                }
            }
            if !matches!(rhold, Err(ClError::LaunchTimedOut { .. })) {
                no_foreign_errors = false;
            }
        });
        push(
            &mut out,
            "shed/reject-newest-low",
            "waiting room full → newest lowest-weight arrival refused outright",
            rejected_newest_low,
            format!("rejected={rejected_newest_low}"),
        );
        push(
            &mut out,
            "shed/displace-for-heavy",
            "heavy arrival displaces the newest light waiter, then completes",
            displaced_newest_light && survivors_ok,
            format!("displaced={displaced_newest_light}, survivors_ok={survivors_ok}"),
        );
        push(
            &mut out,
            "degrade/backpressure-only",
            "overload degrades with Backpressure only — no panic, no foreign error",
            no_foreign_errors,
            format!("no_foreign_errors={no_foreign_errors}"),
        );
    }

    // --- eviction: exhausting the consecutive-fault budget evicts the
    // tenant; the next command fails TenantEvicted. ---
    {
        let srv = Server::new(1, ServeConfig::default().launch_timeout(timeout)).expect("device");
        let t = srv.tenant(
            TenantConfig::default()
                .fault_budget(2)
                .launch_timeout(timeout),
        );
        let n = 32usize;
        let buf = t.buffer::<u32>(MemFlags::default(), n).expect("buffer");
        let boom: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
            buf.clone(),
            ChaosMode::PanicAt { gid: 0 },
            1,
        ));
        let clean: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(buf.clone(), ChaosMode::Clean, 1));
        let f1 = t.launch(&boom, NDRange::d1(n).local1(32));
        let f2 = t.launch(&boom, NDRange::d1(n).local1(32));
        let faults_contained = matches!(f1, Err(ClError::KernelPanicked { .. }))
            && matches!(f2, Err(ClError::KernelPanicked { .. }));
        let evicted_err = matches!(
            t.launch(&clean, NDRange::d1(n).local1(32)),
            Err(ClError::TenantEvicted { .. })
        );
        push(
            &mut out,
            "evict/fault-budget",
            "2 consecutive kernel faults exhaust fault_budget=2 → TenantEvicted",
            faults_contained && evicted_err && t.is_evicted(),
            format!(
                "faults_contained={faults_contained}, evicted_err={evicted_err}, flag={}",
                t.is_evicted()
            ),
        );
    }

    out
}

#[allow(clippy::too_many_arguments)]
fn render_md(
    reports: &[TenantReport],
    scenarios: &[Scenario],
    tenants: usize,
    faulty: usize,
    rounds: usize,
    seed: u64,
    workers: usize,
    timeout: Duration,
    violations: usize,
    elapsed: Duration,
    stable: bool,
) -> String {
    // Volatile (wall-clock) cells render as "·" in stable mode, like
    // trace.md/flow.md: the committed report must be byte-identical on any
    // machine.
    let t = |v: String| if stable { "·".to_string() } else { v };
    let mut md = String::new();
    md.push_str("# Multi-tenant serving soak: isolation and overload\n\n");
    let _ = writeln!(
        md,
        "{tenants} tenants ({faulty} seeded-faulty) × {rounds} rounds, seed {seed}, \
         {workers} workers, launch timeout {timeout:?}, wall time {}. Faulty tenants \
         inject one contained fault per round and must observe the right `ClError`, \
         then recover bit-exactly on the same queue; clean tenants run mixed \
         launch/write/read/map traffic that must stay bit-exact and bounded.\n",
        t(format!("{:.2}s", elapsed.as_secs_f64()))
    );
    if stable {
        md.push_str(
            "*Stable mode (`--stable`): wall-clock cells (p50/p99, worst, wall time) \
             render as \"·\" so the committed report is machine-independent.*\n\n",
        );
    }
    let _ = writeln!(md, "**Isolation violations: {violations}.**\n");

    md.push_str(
        "| Tenant | Weight | Kind | Launches | Transfers | Checks exact | \
         Faults contained | p50 | p99 |\n",
    );
    md.push_str("|---|---:|---|---:|---:|---|---|---:|---:|\n");
    for r in reports {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.name,
            r.weight,
            if r.faulty { "faulty" } else { "clean" },
            r.stats.launches,
            r.stats.transfers,
            if r.exact == r.checks {
                format!("{}/{}", r.exact, r.checks)
            } else {
                format!("**{}/{}**", r.exact, r.checks)
            },
            if r.injected == 0 {
                "—".to_string()
            } else if r.contained == r.injected {
                format!("{}/{}", r.contained, r.injected)
            } else {
                format!("**{}/{}**", r.contained, r.injected)
            },
            t(format_ns(r.stats.p50_ns)),
            t(format_ns(r.stats.p99_ns)),
        );
    }

    // Aggregate clean-tenant latency: the isolation claim is that faulty
    // neighbours bound, not wreck, everyone else's tail.
    let clean: Vec<&TenantReport> = reports.iter().filter(|r| !r.faulty).collect();
    if !clean.is_empty() {
        let mut p99s: Vec<u64> = clean.iter().map(|r| r.stats.p99_ns).collect();
        p99s.sort_unstable();
        let worst = clean
            .iter()
            .map(|r| r.worst)
            .max()
            .unwrap_or(Duration::ZERO);
        let _ = writeln!(
            md,
            "\nClean tenants: worst per-tenant p99 {}, worst single launch {} \
             (stall budget {:?}; {} launches over budget).\n",
            t(format_ns(p99s.last().copied().unwrap_or(0))),
            t(format!("{worst:?}")),
            timeout * 20 + Duration::from_secs(5),
            reports.iter().map(|r| r.stalled).sum::<usize>(),
        );
    }

    md.push_str("\n## Overload scenarios\n\n");
    md.push_str(
        "Deterministic admission-control and shedding checks on purpose-built \
         tiny servers (slots/quotas pinned, outcomes schedule-independent).\n\n",
    );
    md.push_str("| Scenario | Property | Verdict |\n");
    md.push_str("|---|---|---|\n");
    for s in scenarios {
        let _ = writeln!(
            md,
            "| `{}` | {} | {} |",
            s.name,
            s.what,
            if s.ok { "ok" } else { "**FAILED**" },
        );
    }
    md
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
