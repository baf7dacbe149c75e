//! `cl-chaos` — randomized fault-injection soak for the fault-tolerant
//! runtime.
//!
//! ```text
//! cl-chaos [--rounds N] [--xq-rounds N] [--ooo-rounds N] [--seed S] [--workers W] [--timeout-ms T] [--out DIR]
//!
//!   --rounds N      fault rounds to run (default: 25)
//!   --xq-rounds N   two-queue contention rounds to run (default: 5)
//!   --ooo-rounds N  out-of-order subgraph-isolation rounds (default: 5)
//!   --seed S        PRNG seed for the round mix (default: 7)
//!   --workers W     pool workers of the device under test (default: min(4, cores))
//!   --timeout-ms T  launch watchdog deadline per enqueue (default: 250)
//!   --out DIR       output directory for chaos.md (default: results)
//! ```
//!
//! Each round injects one fault from [`cl_kernels::chaos`] — an ordinary
//! panic, a fatal (worker-retiring) fault, a panic payload whose `Drop`
//! panics, a stalled group the watchdog must kill, or a deserted
//! cross-group barrier — into a randomized 1-D launch geometry, asserts
//! the enqueue returns the *right* `ClError`, and then proves the queue
//! recovered by running a clean probe **on the same queue** and comparing
//! its output bit-exactly against the serial reference. Any wrong error,
//! failed probe, or mismatched output is an unrecovered fault and fails
//! the run (nonzero exit).
//!
//! The contention rounds then stress fault *isolation across queues*: a
//! second thread runs clean bit-exact probes on queue B (its own buffer)
//! while queue A takes a seeded fault on the shared pool. Queue B must
//! come through with zero mismatches — a fault on one queue may slow its
//! neighbours (shared workers) but must never corrupt or stall them.
//!
//! The out-of-order rounds stress fault isolation *within* one
//! `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE` queue: a seeded fault at the head of
//! one dependency chain must fail exactly its dependent subgraph
//! (`ClError::DependencyFailed`, work never run) while an independent
//! chain on a disjoint buffer — same queue, same scheduler — completes
//! bit-exactly. Worker-depleting faults are left to the single-queue soak:
//! on a small pool they starve concurrent independent commands for
//! capacity reasons unrelated to the scheduler.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_harness::cli::{host_workers, Cli};
use cl_kernels::chaos::{reference, ChaosKernel, ChaosMode};
use cl_util::XorShift;
use ocl_rt::{ClError, Context, Device, Kernel, MemFlags, NDRange, QueueConfig};

struct Round {
    mode: &'static str,
    n: usize,
    local: usize,
    injected: String,
    error: String,
    /// The faulted enqueue returned the expected `ClError` (with the exact
    /// faulting gid, where the mode pins one).
    error_ok: bool,
    /// The clean probe on the same queue succeeded bit-exactly.
    probe_ok: bool,
    respawned: u64,
}

/// One two-queue contention round: queue A's seeded fault vs queue B's
/// concurrent clean probes.
struct XqRound {
    mode: &'static str,
    injected: String,
    error: String,
    /// Queue A reported the expected `ClError` and healed.
    a_ok: bool,
    /// Every concurrent probe on queue B was bit-exact.
    b_ok: bool,
    b_probes: usize,
}

/// One out-of-order subgraph-isolation round: a faulted chain head on an
/// OOO queue vs an independent clean chain on the same queue.
struct OooRound {
    mode: &'static str,
    injected: String,
    /// What the faulted chain head reported.
    error: String,
    /// The chain head reported the injected fault (exact gid where pinned).
    fault_ok: bool,
    /// Dependents that failed with `DependencyFailed` (must be all).
    dependents_failed: usize,
    dependents: usize,
    /// The independent chain completed bit-exactly on the same queue.
    independent_ok: bool,
}

impl OooRound {
    fn ok(&self) -> bool {
        self.fault_ok && self.dependents_failed == self.dependents && self.independent_ok
    }
}

const USAGE: &str = "usage: cl-chaos [--rounds N] [--xq-rounds N] [--ooo-rounds N] [--seed S] \
                     [--workers W] [--timeout-ms T] [--out DIR]";

fn main() {
    let mut cli = Cli::parse("cl-chaos", USAGE);
    let rounds: usize = cli.get("--rounds", 25);
    let xq_rounds: usize = cli.get("--xq-rounds", 5);
    let ooo_rounds: usize = cli.get("--ooo-rounds", 5);
    let seed: u64 = cli.get("--seed", 7);
    let workers = cli.workers(host_workers());
    let timeout_ms: u64 = cli.get("--timeout-ms", 250);

    // The soak injects panics on purpose; keep them off stderr.
    cl_kernels::chaos::install_quiet_panic_hook();

    // The soak asserts the *exact* faulting gid in every panic report, so
    // opt into per-item gid stamping — release builds default to coarse
    // (group-base) attribution on the hot path.
    let mut device = Device::native_cpu(workers).expect("chaos device");
    device.set_exact_gid(true);
    let pool = Arc::clone(device.pool());
    let ctx = Context::new(device);
    let timeout = Duration::from_millis(timeout_ms.max(1));
    // One queue for the whole soak: every round must leave it usable.
    // `from_env` honours CL_TRACE=1, so CI can soak the tracing paths too.
    let q = ctx.queue_with(QueueConfig::from_env().launch_timeout(timeout));

    let mut rng = XorShift::seed_from_u64(seed);
    let mut results = Vec::with_capacity(rounds);
    let t0 = Instant::now();
    for round in 0..rounds {
        let local = [16usize, 32, 64][(rng.next_u64() % 3) as usize];
        let mut groups = 2 + (rng.next_u64() % 7) as usize;
        let kind = rng.next_u64() % 5;
        if kind == 4 {
            // Barrier desync parks every surviving group on a cross-group
            // rendezvous. With the watchdog armed the host does not help
            // execute chunks, so the parked groups must never outnumber the
            // workers or the deserting group could be starved of a worker.
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

        let out = ctx
            .buffer::<u32>(MemFlags::default(), n)
            .expect("chaos buffer");
        let kernel: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(out.clone(), mode, groups));
        let res = q.enqueue_kernel(&kernel, NDRange::d1(n).local1(local));
        let (error_ok, error) = judge(&mode, &res);

        // A fatal fault retires its worker asynchronously (the worker
        // unwinds after the launch's latch releases the host). Wait for the
        // retirement to land so the probe's self-healing respawn — and its
        // `workers_respawned` count — is deterministic.
        if matches!(mode, ChaosMode::FatalAt { .. }) {
            let deadline = Instant::now() + Duration::from_secs(2);
            while pool.lost_workers() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
        }

        // Recovery proof: a clean launch over the same buffer, same queue.
        let probe: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(out.clone(), ChaosMode::Clean, groups));
        let mut respawned = 0;
        let probe_ok = match q.enqueue_kernel(&probe, NDRange::d1(n).local1(local)) {
            Ok(ev) => {
                respawned = ev.workers_respawned;
                let mut host = vec![0u32; n];
                q.read_buffer(&out, 0, &mut host).is_ok() && host == reference(n)
            }
            Err(e) => {
                eprintln!("cl-chaos: round {round}: clean probe failed: {e}");
                false
            }
        };
        let respawn_ok = match mode {
            ChaosMode::FatalAt { .. } => respawned >= 1,
            _ => true,
        };

        results.push(Round {
            mode: mode.label(),
            n,
            local,
            injected: format!("{mode:?}"),
            error,
            error_ok: error_ok && respawn_ok,
            probe_ok,
            respawned,
        });
    }
    // ------ Two-queue contention rounds ------
    // Queue B's probes run on a second thread against B's own buffer while
    // queue A takes a seeded fault on the shared worker pool. Isolation
    // contract: B may be *slowed* (shared workers) but never corrupted or
    // stalled — every probe must complete bit-exactly.
    let mut xq_results = Vec::with_capacity(xq_rounds);
    for _ in 0..xq_rounds {
        let local = 32usize;
        let mut groups = 2 + (rng.next_u64() % 7) as usize;
        let kind = rng.next_u64() % 5;
        if kind == 4 {
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

        let qa = ctx.queue_with(QueueConfig::from_env().launch_timeout(timeout));
        // Queue B may legitimately wait out a full stall on queue A when
        // the shared pool is small (a 1-worker pool serializes them), so
        // its watchdog gets generous headroom: "slowed but never corrupted
        // or stalled" means it must *complete bit-exactly*, not that it
        // races A's deadline for the same worker.
        let qb = ctx.queue_with(QueueConfig::from_env().launch_timeout(timeout * 10));
        let b_groups = 4usize;
        let b_n = b_groups * local;
        let b_buf = ctx
            .buffer::<u32>(MemFlags::default(), b_n)
            .expect("xq buffer B");
        let b_ref = reference(b_n);
        const B_PROBES: usize = 4;

        let mut a_judge = (false, String::new());
        let mut b_clean = 0usize;
        std::thread::scope(|s| {
            let b = s.spawn(|| {
                let mut clean = 0usize;
                for _ in 0..B_PROBES {
                    let probe: Arc<dyn Kernel> =
                        Arc::new(ChaosKernel::new(b_buf.clone(), ChaosMode::Clean, b_groups));
                    let ok = match qb.enqueue_kernel(&probe, NDRange::d1(b_n).local1(local)) {
                        Ok(_) => {
                            let mut host = vec![0u32; b_n];
                            qb.read_buffer(&b_buf, 0, &mut host).is_ok() && host == b_ref
                        }
                        Err(e) => {
                            eprintln!("cl-chaos: contention probe on queue B failed: {e}");
                            false
                        }
                    };
                    if ok {
                        clean += 1;
                    }
                }
                clean
            });

            let a_buf = ctx
                .buffer::<u32>(MemFlags::default(), n)
                .expect("xq buffer A");
            let kernel: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(a_buf.clone(), mode, groups));
            let res = qa.enqueue_kernel(&kernel, NDRange::d1(n).local1(local));
            a_judge = judge(&mode, &res);
            b_clean = b.join().expect("queue B thread");
        });

        // Heal queue A (either thread's enqueue may have respawned a
        // retired worker already, so no respawn-count obligation here —
        // the single-queue soak above asserts that bookkeeping).
        let a_probe: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
            ctx.buffer::<u32>(MemFlags::default(), n).expect("heal"),
            ChaosMode::Clean,
            groups,
        ));
        let a_healed = qa
            .enqueue_kernel(&a_probe, NDRange::d1(n).local1(local))
            .is_ok();

        xq_results.push(XqRound {
            mode: mode.label(),
            injected: format!("{mode:?}"),
            error: a_judge.1.clone(),
            a_ok: a_judge.0 && a_healed,
            b_ok: b_clean == B_PROBES,
            b_probes: B_PROBES,
        });
    }

    // ------ Out-of-order subgraph-isolation rounds ------
    // One OOO queue, two chains. Chain A: a seeded fault at the head, two
    // clean dependents chained by explicit wait lists (explicit edges
    // propagate failure even if the head fails before the dependents are
    // submitted — no race on the live window). Chain B: three clean
    // launches on a disjoint buffer, ordered among themselves by
    // auto-inferred hazards, independent of chain A. The fault must fail
    // exactly chain A's dependents; chain B must come through bit-exact.
    let mut ooo_results = Vec::with_capacity(ooo_rounds);
    for _ in 0..ooo_rounds {
        let local = 32usize;
        let mut groups = 2 + (rng.next_u64() % 7) as usize;
        // No worker-depleting faults here (`StallUntilAbort`, `FatalAt`):
        // on a small pool they starve *concurrent independent* commands —
        // already dispatched, so never re-running the launch-entry
        // `recover` — until those commands' own watchdogs fire. That is a
        // pool-capacity artifact the single-queue soak already covers, not
        // a scheduler-isolation property. The fail-fast panics are what
        // exercise dependency-failure propagation.
        let kind = rng.next_u64() % 3;
        if kind == 2 {
            groups = groups.min(workers);
        }
        let n = groups * local;
        let mode = match kind {
            0 => ChaosMode::PanicAt {
                gid: (rng.next_u64() as usize) % n,
            },
            1 => ChaosMode::PayloadBomb {
                gid: (rng.next_u64() as usize) % n,
            },
            _ => ChaosMode::BarrierDesync {
                panic_group: (rng.next_u64() as usize) % groups,
            },
        };

        let q = ctx.queue_with(
            QueueConfig::from_env()
                .out_of_order(true)
                .launch_timeout(timeout),
        );
        let a_buf = ctx
            .buffer::<u32>(MemFlags::default(), n)
            .expect("ooo buffer A");
        let b_groups = 4usize;
        let b_n = b_groups * local;
        let b_buf = ctx
            .buffer::<u32>(MemFlags::default(), b_n)
            .expect("ooo buffer B");

        let fault: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(a_buf.clone(), mode, groups));
        let head = q
            .submit_kernel(&fault, NDRange::d1(n).local1(local), &[])
            .expect("submit chain A head");
        let dep1_k: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(a_buf.clone(), ChaosMode::Clean, groups));
        let dep1 = q
            .submit_kernel(
                &dep1_k,
                NDRange::d1(n).local1(local),
                std::slice::from_ref(&head),
            )
            .expect("submit chain A dep 1");
        let dep2_k: Arc<dyn Kernel> =
            Arc::new(ChaosKernel::new(a_buf.clone(), ChaosMode::Clean, groups));
        let dep2 = q
            .submit_kernel(
                &dep2_k,
                NDRange::d1(n).local1(local),
                std::slice::from_ref(&dep1),
            )
            .expect("submit chain A dep 2");
        let b_events: Vec<_> = (0..3)
            .map(|j| {
                let k: Arc<dyn Kernel> =
                    Arc::new(ChaosKernel::new(b_buf.clone(), ChaosMode::Clean, b_groups));
                q.submit_kernel(&k, NDRange::d1(b_n).local1(local), &[])
                    .unwrap_or_else(|e| panic!("submit chain B #{j}: {e}"))
            })
            .collect();
        // No `finish` here: with a watchdog armed, `finish` reuses the
        // per-launch deadline as its drain deadline, which a serialized
        // small pool can exceed legitimately. Each event wait below blocks
        // until that command settles, which drains the queue just as well.
        let (fault_ok, error) = judge(&mode, &head.wait(None));
        let dependents_failed = [&dep1, &dep2]
            .iter()
            .filter(|e| matches!(e.wait(None), Err(ClError::DependencyFailed { .. })))
            .count();
        let b_completed = b_events.iter().all(|e| e.wait(None).is_ok());
        let mut host = vec![0u32; b_n];
        let independent_ok =
            b_completed && q.read_buffer(&b_buf, 0, &mut host).is_ok() && host == reference(b_n);
        ooo_results.push(OooRound {
            mode: mode.label(),
            injected: format!("{mode:?}"),
            error,
            fault_ok,
            dependents_failed,
            dependents: 2,
            independent_ok,
        });
    }
    let elapsed = t0.elapsed();

    let recovered = results.iter().filter(|r| r.error_ok && r.probe_ok).count();
    let xq_recovered = xq_results.iter().filter(|r| r.a_ok && r.b_ok).count();
    let ooo_isolated = ooo_results.iter().filter(|r| r.ok()).count();
    cli.write(
        "chaos.md",
        render_md(
            &results,
            &xq_results,
            &ooo_results,
            seed,
            workers,
            timeout,
            recovered,
            xq_recovered,
            ooo_isolated,
            elapsed,
        ),
    );
    // Under CL_TRACE=1 the soak also exports its span log, so CI can assert
    // the traced-chaos artifact exists and parses (the trace must survive
    // every contained fault, not just clean runs).
    if let Some(log) = q.trace() {
        let path = cli.write("chaos-trace.json", log.to_chrome_json());
        println!(
            "cl-chaos: traced soak exported {} spans to {}",
            log.len(),
            path.display()
        );
    }

    for (i, r) in results.iter().enumerate() {
        if !(r.error_ok && r.probe_ok) {
            cli.fail(format!(
                "round {i} unrecovered: {} ({}), error: {} (expected={}), probe ok={}",
                r.mode, r.injected, r.error, r.error_ok, r.probe_ok
            ));
        }
    }
    for (i, r) in xq_results.iter().enumerate() {
        if !(r.a_ok && r.b_ok) {
            cli.fail(format!(
                "contention round {i}: {} ({}), queue A ok={}, queue B ok={}",
                r.mode, r.injected, r.a_ok, r.b_ok
            ));
        }
    }
    for (i, r) in ooo_results.iter().enumerate() {
        if !r.ok() {
            cli.fail(format!(
                "ooo round {i}: {} ({}), fault ok={}, dependents \
                 failed={}/{}, independent chain ok={}",
                r.mode, r.injected, r.fault_ok, r.dependents_failed, r.dependents, r.independent_ok
            ));
        }
    }
    println!(
        "cl-chaos: {recovered}/{} rounds recovered, {xq_recovered}/{} contention \
         rounds isolated, {ooo_isolated}/{} ooo subgraphs isolated \
         (seed {seed}, {workers} workers, timeout {timeout:?}, {:.2}s)",
        results.len(),
        xq_results.len(),
        ooo_results.len(),
        elapsed.as_secs_f64()
    );
    cli.finish();
}

/// Does `res` report the fault `mode` injected, the way the fault model
/// promises?
fn judge(mode: &ChaosMode, res: &Result<ocl_rt::Event, ClError>) -> (bool, String) {
    match res {
        Ok(_) => (false, "Ok (no fault reported)".into()),
        Err(e) => {
            let ok = match (mode, e) {
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
                (ChaosMode::StallUntilAbort { .. }, ClError::LaunchTimedOut { kernel, .. }) => {
                    kernel == "chaos"
                }
                _ => false,
            };
            (ok, e.to_string())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_md(
    rounds: &[Round],
    xq_rounds: &[XqRound],
    ooo_rounds: &[OooRound],
    seed: u64,
    workers: usize,
    timeout: Duration,
    recovered: usize,
    xq_recovered: usize,
    ooo_isolated: usize,
    elapsed: Duration,
) -> String {
    let mut md = String::new();
    md.push_str("# Chaos soak: fault injection against the fault-tolerant runtime\n\n");
    let _ = writeln!(
        md,
        "{} rounds, seed {seed}, {workers} workers, launch timeout {timeout:?}, \
         wall time {:.2}s. Each round injects one fault, asserts the enqueue \
         reports it as the right `ClError`, then runs a clean probe on the \
         **same queue** and checks its output bit-exactly.\n",
        rounds.len(),
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        md,
        "**Recovered: {recovered}/{} ({}%).**\n",
        rounds.len(),
        if rounds.is_empty() {
            100
        } else {
            100 * recovered / rounds.len()
        }
    );
    md.push_str("| Round | Mode | Geometry | Injected | Reported error | Error ok | Probe ok | Respawned |\n");
    md.push_str("|---:|---|---|---|---|---|---|---:|\n");
    for (i, r) in rounds.iter().enumerate() {
        let _ = writeln!(
            md,
            "| {} | {} | {}/{} | `{}` | {} | {} | {} | {} |",
            i,
            r.mode,
            r.n,
            r.local,
            r.injected,
            r.error,
            if r.error_ok { "yes" } else { "**NO**" },
            if r.probe_ok { "yes" } else { "**NO**" },
            r.respawned,
        );
    }
    let fatal_rounds = rounds.iter().filter(|r| r.mode == "fatal").count();
    let total_respawned: u64 = rounds.iter().map(|r| r.respawned).sum();
    let _ = writeln!(
        md,
        "\n{fatal_rounds} fatal (worker-retiring) rounds; {total_respawned} worker \
         respawns observed by probe enqueues. A `fatal` round counts as recovered \
         only if its probe respawned at least one worker."
    );

    md.push_str("\n## Two-queue contention\n\n");
    let _ = writeln!(
        md,
        "A second thread runs clean bit-exact probes on queue B (its own \
         buffer) while queue A takes the seeded fault on the shared worker \
         pool. Isolation contract: B may be slowed but never corrupted or \
         stalled. **Isolated: {xq_recovered}/{}.**\n",
        xq_rounds.len()
    );
    md.push_str("| Round | Fault on A | Reported error | A ok | B probes clean |\n");
    md.push_str("|---:|---|---|---|---|\n");
    for (i, r) in xq_rounds.iter().enumerate() {
        let _ = writeln!(
            md,
            "| {} | `{}` | {} | {} | {} |",
            i,
            r.injected,
            r.error,
            if r.a_ok { "yes" } else { "**NO**" },
            if r.b_ok {
                format!("{}/{}", r.b_probes, r.b_probes)
            } else {
                "**corrupted/stalled**".to_string()
            },
        );
    }

    md.push_str("\n## Out-of-order subgraph isolation\n\n");
    let _ = writeln!(
        md,
        "One `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE` queue, two chains. Chain A \
         takes the seeded fault at its head; its two explicitly chained \
         dependents must be skipped with `DependencyFailed`. Chain B (three \
         clean launches on a disjoint buffer, same queue) must complete \
         bit-exactly. **Isolated: {ooo_isolated}/{}.**\n",
        ooo_rounds.len()
    );
    md.push_str("| Round | Fault at head | Reported error | Fault ok | Dependents skipped | Independent chain |\n");
    md.push_str("|---:|---|---|---|---|---|\n");
    for (i, r) in ooo_rounds.iter().enumerate() {
        let _ = writeln!(
            md,
            "| {} | `{}` | {} | {} | {}/{} | {} |",
            i,
            r.injected,
            r.error,
            if r.fault_ok { "yes" } else { "**NO**" },
            r.dependents_failed,
            r.dependents,
            if r.independent_ok {
                "bit-exact"
            } else {
                "**corrupted/stalled**"
            },
        );
    }
    md
}
