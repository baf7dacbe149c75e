//! `cl-bench` — the continuous performance gate (DESIGN.md §12).
//!
//! ```text
//! cl-bench [--workers W] [--fast] [--out FILE] [--baseline FILE]
//!          [--refresh-baseline] [--record-baseline FILE]
//!          [--make-baseline FILE=LABEL ...]
//!          [--gate-only RUN.json] [--check-json FILE]
//!          [--inject-regression FACTOR]
//!          [--abs-floor-ns N] [--rel-floor F] [--mad-k K]
//! ```
//!
//! Runs the curated hot-path suite (enqueue latency, dispatch cost across
//! workgroup sizes, deque steal throughput, copy-vs-map transfer,
//! disabled-path instrumentation overheads), writes the run to `BENCH.json`,
//! and compares it against the committed `BENCH_BASELINE.json` with
//! noise-aware thresholds: a benchmark fails only when its median regresses
//! beyond `max(abs_floor, rel_floor·base, k·MAD)`. Nonzero exit on
//! regression.
//!
//! Maintenance flags:
//!
//! * `--refresh-baseline` — measure the suite and write it to the
//!   baseline path with a provenance header (host, workers, git rev,
//!   date), so a later gate failure names the machine and revision the
//!   thresholds came from. No gating.
//! * `--record-baseline FILE` — also write this run as a fresh baseline
//!   (no gating).
//! * `--make-baseline a.json=label-a b.json=label-b` — assemble a baseline
//!   from saved runs: the *last* file's benches become the gating set, and
//!   every file is kept as a labelled `history` entry (this is how the
//!   committed baseline carries its pre/post-optimization evidence).
//! * `--gate-only RUN.json` — skip measurement and gate a saved run
//!   (deterministic; used by the gate's own tests).
//! * `--inject-regression F` — multiply every measured median by `F`
//!   before gating, to prove the gate trips (used by tests and CI docs).
//! * `--check-json FILE` — parse-validate any JSON artifact and exit
//!   (used by CI on the traced-chaos export).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cl_harness::bench::{
    compare, sample, BenchRecord, BenchStats, GateConfig, HistoryEntry, Provenance, Report,
};
use cl_harness::parse_flag;
use cl_pool::deque::{Steal, Worker};
use cl_serve::{ServeConfig, Server, TenantConfig};
use ocl_rt::{Context, GroupCtx, Kernel, MemFlags, NDRange, QueueConfig};

/// A kernel with an empty body: enqueueing it measures pure runtime
/// overhead — resolve, contract checks, dispatch, completion, event
/// construction — with no compute to hide behind.
struct EmptyKernel;

impl Kernel for EmptyKernel {
    fn name(&self) -> &str {
        "bench_empty"
    }
    fn run_group(&self, _g: &mut GroupCtx) {}
}

struct Opts {
    workers: usize,
    fast: bool,
    out: PathBuf,
    baseline: PathBuf,
    refresh_baseline: bool,
    record_baseline: Option<PathBuf>,
    make_baseline: Vec<(PathBuf, String)>,
    gate_only: Option<PathBuf>,
    check_json: Option<PathBuf>,
    inject: f64,
    gate: GateConfig,
}

fn main() {
    let opts = parse_args();

    // --check-json: validate an arbitrary artifact and exit.
    if let Some(path) = &opts.check_json {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("{}: unreadable: {e}", path.display())),
        };
        if text.trim().is_empty() {
            fail(&format!("{}: empty file", path.display()));
        }
        if let Err(e) = cl_util::json::parse(&text) {
            fail(&format!("{}: invalid JSON: {e}", path.display()));
        }
        println!(
            "cl-bench: {} is valid JSON ({} bytes)",
            path.display(),
            text.len()
        );
        return;
    }

    // --make-baseline: assemble a baseline from saved run files.
    if !opts.make_baseline.is_empty() {
        let mut history = Vec::new();
        let mut gating: Option<Report> = None;
        for (path, label) in &opts.make_baseline {
            let r = load_report(path);
            history.push(HistoryEntry {
                label: label.clone(),
                benches: r.benches.clone(),
            });
            gating = Some(r);
        }
        let mut base = gating.expect("at least one --make-baseline file");
        base.history = history;
        std::fs::write(&opts.out, base.to_json()).expect("write baseline");
        println!(
            "cl-bench: baseline written to {} ({} benches, {} history entries)",
            opts.out.display(),
            base.benches.len(),
            base.history.len()
        );
        return;
    }

    // --refresh-baseline: measure and write the baseline with provenance.
    if opts.refresh_baseline {
        let mut run = run_suite(&opts);
        run.provenance = Some(collect_provenance(opts.workers));
        std::fs::write(&opts.baseline, run.to_json()).expect("write baseline");
        println!(
            "cl-bench: baseline refreshed at {} ({} benches; {})",
            opts.baseline.display(),
            run.benches.len(),
            run.provenance.as_ref().expect("provenance just set"),
        );
        return;
    }

    // Obtain the current run: measure, or load with --gate-only.
    let mut run = match &opts.gate_only {
        Some(path) => load_report(path),
        None => run_suite(&opts),
    };

    if opts.inject != 1.0 {
        eprintln!(
            "cl-bench: injecting synthetic regression factor {} into medians",
            opts.inject
        );
        for b in &mut run.benches {
            b.stats.median *= opts.inject;
        }
    }

    if opts.gate_only.is_none() {
        std::fs::write(&opts.out, run.to_json()).expect("write BENCH.json");
        println!("cl-bench: run written to {}", opts.out.display());
        if let Some(path) = &opts.record_baseline {
            std::fs::write(path, run.to_json()).expect("write baseline");
            println!(
                "cl-bench: baseline recorded to {} (no gate)",
                path.display()
            );
            return;
        }
    }

    // Gate against the baseline.
    if !opts.baseline.exists() {
        eprintln!(
            "cl-bench: no baseline at {} — nothing to gate against (run with \
             --record-baseline to create one)",
            opts.baseline.display()
        );
        return;
    }
    let base = load_report(&opts.baseline);
    let verdicts = compare(&base, &run, &opts.gate);
    let mut regressions = 0usize;
    println!(
        "\n| benchmark | unit | baseline | current | delta | allowed | verdict |\n\
         |---|---|---:|---:|---:|---:|---|"
    );
    for v in &verdicts {
        if v.regressed {
            regressions += 1;
        }
        println!(
            "| {} | {} | {:.0} | {:.0} | {:+.0} | {:.0} | {} |",
            v.name,
            v.unit,
            v.base_median,
            v.cur_median,
            v.delta,
            v.allowed,
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let gated = verdicts.len();
    let missing: Vec<&str> = base
        .benches
        .iter()
        .filter(|b| run.find(&b.name).is_none())
        .map(|b| b.name.as_str())
        .collect();
    if !missing.is_empty() {
        println!("\nbaseline benches absent from this run (not gated): {missing:?}");
    }
    if regressions > 0 {
        eprintln!("\ncl-bench: {regressions}/{gated} benchmarks REGRESSED beyond tolerance");
        // Name the machine the thresholds came from: a "regression" against
        // a baseline recorded on different hardware is a provenance bug,
        // not a performance bug.
        match &base.provenance {
            Some(p) => eprintln!("cl-bench: baseline provenance: {p}"),
            None => eprintln!(
                "cl-bench: baseline {} has no provenance header (refresh with \
                 --refresh-baseline)",
                opts.baseline.display()
            ),
        }
        std::process::exit(1);
    }
    println!("\ncl-bench: gate passed ({gated} benchmarks within tolerance)");
}

/// Run the curated hot-path suite and collect a [`Report`].
fn run_suite(opts: &Opts) -> Report {
    let (warm, samples) = if opts.fast { (2, 6) } else { (5, 20) };
    let ctx = Context::new(ocl_rt::Device::native_cpu(opts.workers).expect("bench device"));
    let q = ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)));
    let mut benches = Vec::new();
    let mut push = |name: &str, unit: &str, stats: BenchStats| {
        eprintln!(
            "  {name}: median {:.0} {unit}, mad {:.0}, min {:.0} ({} samples)",
            stats.median, stats.mad, stats.min, stats.samples
        );
        benches.push(BenchRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            stats,
        });
    };
    eprintln!(
        "cl-bench: native CPU, {} workers, {}{} samples/bench",
        opts.workers,
        if opts.fast { "fast profile, " } else { "" },
        samples
    );

    // --- Enqueue→completion latency of an empty kernel -------------------
    // One group: the floor of a blocking enqueue (resolve + dispatch of a
    // single chunk + event). 64 groups: adds the per-chunk fan-out.
    let empty: Arc<dyn Kernel> = Arc::new(EmptyKernel);
    const BATCH: u64 = 8;
    for (label, groups) in [("enqueue/empty-1g", 1usize), ("enqueue/empty-64g", 64)] {
        let range = NDRange::d1(64 * groups).local1(64);
        let stats = sample(warm, samples, BATCH, || {
            for _ in 0..BATCH {
                q.enqueue_kernel(&empty, range).expect("empty enqueue");
            }
            groups as u64
        });
        push(label, "ns/enqueue", stats);
    }

    // --- Dispatch cost per group across workgroup sizes (Table II sweep) -
    // Same kernel object and NDRange reused across enqueues, so repeated
    // launches of an unchanged (kernel, range) pair — the case the
    // enqueue-plan cache serves — are what's being timed.
    const SWEEP_N: usize = 65_536;
    for wg in [64usize, 256, 1024] {
        let built = cl_kernels::apps::square::build(&ctx, SWEEP_N, 1, Some(wg), 7);
        let groups = (SWEEP_N / wg) as u64;
        let stats = sample(warm, samples, groups, || {
            q.enqueue_kernel(&built.kernel, built.range)
                .expect("sweep enqueue");
            groups
        });
        built.verify(&q).expect("sweep results");
        push(&format!("dispatch/wg{wg}"), "ns/group", stats);
    }

    // --- Thread coarsening: fused vs serial dispatch ---------------------
    // The same Proven kernel and geometry on two queues. The default
    // (Auto) queue fuses K workgroups per chunk under the `cl_analyze`
    // coarsening certificate; the Off queue runs the historical one chunk
    // per group. Both gated — the committed baseline ratio between them IS
    // the documented fused-dispatch speedup.
    let built = cl_kernels::apps::square::build(&ctx, SWEEP_N, 1, Some(64), 7);
    let groups = (SWEEP_N / 64) as u64;
    let q_off = ctx.queue_with(
        QueueConfig::default()
            .launch_timeout(Duration::from_secs(60))
            .coarsen(ocl_rt::CoarsenMode::Off),
    );
    let stats = sample(warm, samples, groups, || {
        q.enqueue_kernel(&built.kernel, built.range)
            .expect("fused enqueue");
        groups
    });
    built.verify(&q).expect("fused results");
    push("coarsen/fused-vs-serial", "ns/group", stats);
    let stats = sample(warm, samples, groups, || {
        q_off
            .enqueue_kernel(&built.kernel, built.range)
            .expect("serial enqueue");
        groups
    });
    built.verify(&q_off).expect("serial results");
    push("overhead/coarsen-off", "ns/group", stats);

    // --- Deque steal throughput ------------------------------------------
    // Push N unit tasks into a worker deque, drain them through a stealer's
    // steal_batch_and_pop into a second local queue — the pool's sibling
    // steal path, minus the threads.
    const STEAL_N: usize = 10_000;
    let stats = sample(warm, samples, STEAL_N as u64, || {
        let owner = Worker::new_fifo();
        for i in 0..STEAL_N {
            owner.push(i);
        }
        let stealer = owner.stealer();
        let local = Worker::new_fifo();
        let mut drained = 0u64;
        loop {
            match stealer.steal_batch_and_pop(&local) {
                Steal::Success(_) => drained += 1,
                Steal::Empty => break,
                Steal::Retry => continue,
            }
            while local.pop().is_some() {
                drained += 1;
            }
        }
        assert_eq!(drained, STEAL_N as u64);
        drained
    });
    push("pool/steal", "ns/task", stats);

    // --- Transfer: explicit copy vs zero-copy map (Figure 7 path) --------
    const TX_BYTES: usize = 4 << 20;
    let host: Vec<u8> = (0..TX_BYTES).map(|b| b as u8).collect();
    let buf = ctx
        .buffer::<u8>(MemFlags::default(), TX_BYTES)
        .expect("buf");
    let mut back = vec![0u8; TX_BYTES];
    let stats = sample(warm, samples, 2, || {
        q.write_buffer(&buf, 0, &host).expect("write");
        q.read_buffer(&buf, 0, &mut back).expect("read");
        back[0] as u64
    });
    push("transfer/copy-4MiB", "ns/xfer", stats);
    let stats = sample(warm, samples, 2, || {
        {
            let (mut m, _ev) = q.map_buffer_mut(&buf).expect("map mut");
            m[0] = m[0].wrapping_add(1);
        }
        let (m, _ev) = q.map_buffer(&buf).expect("map");
        let x = m[0] as u64;
        drop(m);
        x
    });
    push("transfer/map-4MiB", "ns/xfer", stats);

    // --- Disabled-path instrumentation overheads -------------------------
    // The PR 3 tracer and PR 4 flow recorder must cost one skipped Option
    // branch when off. trace-off: empty kernel (no buffers — isolates the
    // span-record sites). flow-off: square (has buffer bindings, so a
    // release-mode regression that starts lowering flow uses eagerly would
    // surface here).
    let stats = sample(warm, samples, BATCH, || {
        let range = NDRange::d1(256).local1(64);
        for _ in 0..BATCH {
            q.enqueue_kernel(&empty, range).expect("trace-off enqueue");
        }
        BATCH
    });
    push("overhead/trace-off", "ns/enqueue", stats);
    let built = cl_kernels::apps::square::build(&ctx, 4096, 1, Some(64), 7);
    let stats = sample(warm, samples, BATCH, || {
        for _ in 0..BATCH {
            q.enqueue_kernel(&built.kernel, built.range)
                .expect("flow-off enqueue");
        }
        BATCH
    });
    built.verify(&q).expect("flow-off results");
    push("overhead/flow-off", "ns/enqueue", stats);

    // race-off: two queues of one recording-DISABLED context alternating
    // enqueues of the same built kernel — the multi-queue path the PR 6
    // race recorder hooks. With recording off the context holds no
    // `RaceLog` and each record site is one skipped Option branch; a
    // regression that starts building HbRecords eagerly would surface here.
    let race_ctx = Context::new_with(
        ocl_rt::Device::native_cpu(opts.workers).expect("race-off device"),
        ocl_rt::ContextConfig::default().race_recording(false),
    );
    let qa = race_ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)));
    let qb = race_ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)));
    let built = cl_kernels::apps::square::build(&race_ctx, 4096, 1, Some(64), 7);
    let stats = sample(warm, samples, BATCH, || {
        for i in 0..BATCH {
            let q = if i % 2 == 0 { &qa } else { &qb };
            q.enqueue_kernel(&built.kernel, built.range)
                .expect("race-off enqueue");
        }
        BATCH
    });
    built.verify(&qa).expect("race-off results");
    push("overhead/race-off", "ns/enqueue", stats);

    // --- Autotuner: disabled-path and converged-path enqueue cost --------
    // tune-off: a NULL-local square enqueue on a tuner-less queue — the
    // resolve heuristic plus the enqueue-plan cache, with no tuner branch
    // taken. converged-enqueue: the same launch through a queue whose
    // injected tuner has already converged — steady state must ride the
    // plan cache, so a regression here means the tuner leaked into the
    // hot path (ISSUE 10's "one branch when converged" contract).
    let built = cl_kernels::apps::square::build(&ctx, SWEEP_N, 1, None, 7);
    let stats = sample(warm, samples, BATCH, || {
        for _ in 0..BATCH {
            q.enqueue_kernel(&built.kernel, built.range)
                .expect("tune-off enqueue");
        }
        BATCH
    });
    built.verify(&q).expect("tune-off results");
    push("overhead/tune-off", "ns/enqueue", stats);

    let tuner = Arc::new(ocl_rt::cl_tune::Tuner::new(Some(
        std::env::temp_dir().join(format!("cl-bench-tune-{}.json", std::process::id())),
    )));
    let qt = ctx.queue_with(
        QueueConfig::default()
            .launch_timeout(Duration::from_secs(60))
            .tuner(Arc::clone(&tuner)),
    );
    let key = ocl_rt::cl_tune::TuneKey {
        kernel: built.kernel.name().to_string(),
        global: built.range.global(),
        dims: built.range.dims(),
        device: ctx.device().name().to_string(),
        workers: ctx.device().pool().workers(),
    };
    let mut spins = 0usize;
    while tuner.converged(&key).is_none() {
        qt.enqueue_kernel(&built.kernel, built.range)
            .expect("tune warmup enqueue");
        spins += 1;
        assert!(spins < 512, "tuner failed to converge during bench warmup");
    }
    let stats = sample(warm, samples, BATCH, || {
        for _ in 0..BATCH {
            qt.enqueue_kernel(&built.kernel, built.range)
                .expect("converged enqueue");
        }
        BATCH
    });
    built.verify(&qt).expect("converged results");
    push("tune/converged-enqueue", "ns/enqueue", stats);
    // The pinned successive-halving schedule makes the trial count a
    // deterministic property of the shortlist — record it so a prior or
    // schedule change shows up as a baseline diff.
    push(
        "tune/convergence-trials",
        "trials",
        BenchStats::from_samples(&[tuner.trials(&key) as f64]),
    );

    // --- Serving layer: tenant-path enqueue overhead ---------------------
    // One uncontended tenant launching the empty kernel through the full
    // PR 7 admission path (quota CAS + fairness-gate fast path + enqueue).
    // Gated against enqueue/empty-1g's sibling baseline: the serving layer
    // must stay a thin veneer, not a second dispatcher.
    let srv =
        Server::new(opts.workers, ServeConfig::default().max_waiting(256)).expect("serve server");
    let tenant = srv.tenant(TenantConfig::default());
    let range = NDRange::d1(64).local1(64);
    let stats = sample(warm, samples, BATCH, || {
        for _ in 0..BATCH {
            tenant.launch(&empty, range).expect("serve enqueue");
        }
        BATCH
    });
    drop(tenant);
    push("serve/enqueue-overhead", "ns/enqueue", stats);

    // --- Serving layer: p99 launch latency under a 64-tenant burst -------
    // Each sample is one burst: 64 tenants launch concurrently through the
    // shared gate and the burst's p99 enqueue→completion latency is the
    // sample value. Catches fairness-gate regressions (a broken WRR or a
    // lost notify shows up as a tail blow-up long before it deadlocks).
    const BURST_TENANTS: usize = 64;
    const BURST_LAUNCHES: usize = 4;
    let mut p99s = Vec::with_capacity(samples);
    for round in 0..(warm + samples) {
        let tenants: Vec<_> = (0..BURST_TENANTS)
            .map(|_| srv.tenant(TenantConfig::default()))
            .collect();
        let mut lat: Vec<u64> = std::thread::scope(|s| {
            let empty = &empty;
            let handles: Vec<_> = tenants
                .iter()
                .map(|t| {
                    s.spawn(move || {
                        let mut v = Vec::with_capacity(BURST_LAUNCHES);
                        for _ in 0..BURST_LAUNCHES {
                            let ev = t.launch(empty, range).expect("burst launch");
                            let p = ev.profiling();
                            v.push(if p.completed_ns > p.queued_ns && p.queued_ns > 0 {
                                p.completed_ns - p.queued_ns
                            } else {
                                (ev.duration_s() * 1e9) as u64
                            });
                        }
                        v
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("burst tenant thread"))
                .collect()
        });
        lat.sort_unstable();
        let p99 = lat[((lat.len() - 1) as f64 * 0.99).round() as usize] as f64;
        if round >= warm {
            p99s.push(p99);
        }
    }
    push(
        "serve/p99-64t",
        "ns/launch",
        BenchStats::from_samples(&p99s),
    );

    // --- OOO scheduler: ready-dispatch overhead per command -------------
    // 64 tiny MulAdd launches round-robined over 8 disjoint buffers on an
    // out-of-order queue: mostly-ready commands whose cost is the pending-
    // DAG bookkeeping (hazard scan + node + dispatch + completion), not
    // compute. Catches regressions in the submit hot path — an accidental
    // O(history) scan or a lost-wakeup stall shows up directly.
    let qo = ctx.queue_with(QueueConfig::default().out_of_order(true));
    const SCHED_BUFS: usize = 8;
    const SCHED_CMDS: u64 = 64;
    let sched_kernels: Vec<Arc<dyn Kernel>> = (0..SCHED_BUFS)
        .map(|_| {
            let buf = ctx
                .buffer::<u32>(MemFlags::default(), 64)
                .expect("sched bench buffer");
            Arc::new(cl_kernels::sched::MulAdd {
                data: buf,
                mul: 3,
                add: 7,
                iters: 1,
                label: "mul_add".into(),
            }) as Arc<dyn Kernel>
        })
        .collect();
    let sched_range = NDRange::d1(64).local1(64);
    let stats = sample(warm, samples, SCHED_CMDS, || {
        for i in 0..SCHED_CMDS as usize {
            qo.submit_kernel(&sched_kernels[i % SCHED_BUFS], sched_range, &[])
                .expect("sched submit");
        }
        qo.finish().expect("sched drain");
        SCHED_CMDS
    });
    push("sched/ready-dispatch-ns", "ns/cmd", stats);

    // --- OOO scheduler: independent-DAG throughput -----------------------
    // A fan of 8 independent fixed-latency (5 ms) commands on disjoint
    // buffers, drained through a 4-worker device: the out-of-order
    // scheduler must overlap them (two waves ≈ 10 ms), where an in-order
    // stream would serialize all 40 ms. Latency-bound on purpose so the
    // overlap survives single-core CI hosts; a scheduler that stops
    // overlapping quadruples this number and trips the gate.
    const FAN: usize = 8;
    const FAN_WORKERS: usize = 4;
    const NAP_MS: u64 = 5;
    let fan_ctx = Context::new(ocl_rt::Device::native_cpu(FAN_WORKERS).expect("fan device"));
    let qf = fan_ctx.queue_with(QueueConfig::default().out_of_order(true));
    let fan_kernels: Vec<Arc<dyn Kernel>> = (0..FAN)
        .map(|i| {
            let buf = fan_ctx
                .buffer::<u32>(MemFlags::default(), 16)
                .expect("fan buffer");
            Arc::new(cl_kernels::sched::Nap {
                data: buf,
                millis: NAP_MS,
                label: format!("nap{i}"),
            }) as Arc<dyn Kernel>
        })
        .collect();
    let fan_range = NDRange::d1(16).local1(16);
    let stats = sample(warm, samples, FAN as u64, || {
        for k in &fan_kernels {
            qf.submit_kernel(k, fan_range, &[]).expect("fan submit");
        }
        qf.finish().expect("fan drain");
        FAN as u64
    });
    push("sched/dag-throughput", "ns/cmd", stats);

    Report::new(opts.workers, benches)
}

/// Best-effort provenance for a refreshed baseline: every field degrades
/// to "unknown" rather than failing, so the refresh works in containers
/// without a hostname or outside a git checkout.
fn collect_provenance(workers: usize) -> Provenance {
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| {
            let (y, m, day) = civil_from_days((d.as_secs() / 86_400) as i64);
            format!("{y:04}-{m:02}-{day:02}")
        })
        .unwrap_or_else(|_| "unknown".to_string());
    Provenance {
        host,
        workers,
        git_rev,
        date,
    }
}

/// Days-since-epoch to proleptic-Gregorian (year, month, day).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + i64::from(m <= 2), m, d)
}

fn load_report(path: &PathBuf) -> Report {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{}: unreadable: {e}", path.display())));
    Report::from_json(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())))
}

fn fail(msg: &str) -> ! {
    eprintln!("cl-bench: {msg}");
    std::process::exit(1);
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        workers: usize::min(4, cl_pool::available_cores().max(1)),
        fast: false,
        out: PathBuf::from("BENCH.json"),
        baseline: PathBuf::from("BENCH_BASELINE.json"),
        refresh_baseline: false,
        record_baseline: None,
        make_baseline: Vec::new(),
        gate_only: None,
        check_json: None,
        inject: 1.0,
        gate: GateConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                o.workers = parse_flag(&args, i, "--workers");
            }
            "--fast" => o.fast = true,
            "--out" => {
                i += 1;
                o.out = path(&args, i, "--out");
            }
            "--baseline" => {
                i += 1;
                o.baseline = path(&args, i, "--baseline");
            }
            "--refresh-baseline" => o.refresh_baseline = true,
            "--record-baseline" => {
                i += 1;
                o.record_baseline = Some(path(&args, i, "--record-baseline"));
            }
            "--make-baseline" => {
                // Consume every following FILE=LABEL operand.
                while let Some(spec) = args.get(i + 1).filter(|s| !s.starts_with("--")) {
                    i += 1;
                    let (file, label) = spec
                        .split_once('=')
                        .unwrap_or_else(|| panic!("--make-baseline wants FILE=LABEL: {spec}"));
                    o.make_baseline
                        .push((PathBuf::from(file), label.to_string()));
                }
                if o.make_baseline.is_empty() {
                    fail("--make-baseline needs at least one FILE=LABEL");
                }
            }
            "--gate-only" => {
                i += 1;
                o.gate_only = Some(path(&args, i, "--gate-only"));
            }
            "--check-json" => {
                i += 1;
                o.check_json = Some(path(&args, i, "--check-json"));
            }
            "--inject-regression" => {
                i += 1;
                o.inject = parse_flag(&args, i, "--inject-regression");
            }
            "--abs-floor-ns" => {
                i += 1;
                o.gate.abs_floor_ns = parse_flag(&args, i, "--abs-floor-ns");
            }
            "--rel-floor" => {
                i += 1;
                o.gate.rel_floor = parse_flag(&args, i, "--rel-floor");
            }
            "--mad-k" => {
                i += 1;
                o.gate.mad_k = parse_flag(&args, i, "--mad-k");
            }
            "--help" | "-h" => {
                println!(
                    "usage: cl-bench [--workers W] [--fast] [--out FILE] [--baseline FILE]\n\
                     \x20               [--refresh-baseline] [--record-baseline FILE]\n\
                     \x20               [--make-baseline FILE=LABEL ...]\n\
                     \x20               [--gate-only RUN.json] [--check-json FILE]\n\
                     \x20               [--inject-regression F] [--abs-floor-ns N] \
                     [--rel-floor F] [--mad-k K]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    o.workers = o.workers.max(1);
    o
}

fn path(args: &[String], i: usize, flag: &str) -> PathBuf {
    PathBuf::from(
        args.get(i)
            .unwrap_or_else(|| panic!("{flag} needs a value")),
    )
}
