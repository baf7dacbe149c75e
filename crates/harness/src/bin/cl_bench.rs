//! `cl-bench` — the paired performance gate (DESIGN.md §12).
//!
//! ```text
//! cl-bench [--workers W] [--fast] [--out FILE] [--inject-regression F]
//! cl-bench --pair DIR
//! cl-bench --check-json FILE
//! ```
//!
//! A plain run measures the curated hot-path suite (dispatch cost across
//! workgroup sizes, the unarmed host's completion wait, 2-D lane steps of
//! the implicit vectorizer, MRI-Q's `sin`/`cos` lanes, VectorAdd's
//! load/store lanes, BlackScholes' `exp`/`ln` lanes, fused vs serial
//! dispatch, disabled-path instrumentation overheads, autotuner steady
//! state, serving-layer tail latency, out-of-order scheduler overhead) and
//! writes it to `BENCH.json` (or `--out FILE`). The fixed costs perfbench
//! already names — empty enqueues, transfers, the pool's steal path, the
//! serving layer's enqueue veneer — live only there.
//!
//! * `--pair DIR` — the gate. Reads `DIR/parent-NN.json` and
//!   `DIR/change-NN.json`, the `--out` files of alternating runs of two
//!   revisions on one host (`ci.sh pair REV` makes them), and prints one
//!   row per entry: median and min–max change/parent ratio, pairs past
//!   the bound, verdict. Exits 1 when a time entry is more than 25% slower
//!   in nine tenths of the pairs or a count is higher in any pair
//!   (`cl_harness::bench::compare_pairs`).
//! * `--inject-regression F` — multiply every measured time median by `F`
//!   before writing the run, to prove the gate trips (used by CI and the
//!   gate's tests). Counts are left alone.
//! * `--check-json FILE` — parse-validate any JSON artifact and exit
//!   (used by CI on the traced-chaos export).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cl_harness::bench::{compare_pairs, median, sample, BenchRecord, BenchStats, Report};
use cl_harness::cli::{host_workers, Cli};
use cl_serve::{ServeConfig, Server, TenantConfig};
use ocl_rt::{CommandQueue, Context, GroupCtx, Kernel, MemFlags, NDRange, QueueConfig};

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

const USAGE: &str = "usage: cl-bench [--workers W] [--fast] [--out FILE] [--inject-regression F]
       cl-bench --pair DIR
       cl-bench --check-json FILE";

fn main() {
    let mut cli = Cli::parse("cl-bench", USAGE);
    let workers = cli.workers(host_workers());
    let fast = cli.on("--fast");
    let out: PathBuf = cli.get("--out", PathBuf::from("BENCH.json"));
    let inject: f64 = cli.get("--inject-regression", 1.0);

    if let Some(path) = cli.value::<PathBuf>("--check-json") {
        match check_json(&path) {
            Ok(bytes) => println!("cl-bench: {} is valid JSON ({bytes} bytes)", path.display()),
            Err(e) => cli.fail(format!("{}: {e}", path.display())),
        }
    } else if let Some(dir) = cli.value::<PathBuf>("--pair") {
        match load_pairs(&dir) {
            Ok(pairs) => gate_pairs(&mut cli, &dir, &pairs),
            Err(e) => cli.fail(e),
        }
    } else {
        let mut run = run_suite(workers, fast);
        if inject != 1.0 {
            eprintln!("cl-bench: injecting synthetic regression factor {inject} into time medians");
            for b in run.benches.iter_mut().filter(|b| !b.is_count()) {
                b.stats.median *= inject;
            }
        }
        std::fs::write(&out, run.to_json()).expect("write BENCH.json");
        println!("cl-bench: run written to {}", out.display());
    }
    cli.finish();
}

/// `--check-json FILE`: the file's size if it holds valid JSON.
fn check_json(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if text.trim().is_empty() {
        return Err("empty file".into());
    }
    cl_util::json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    Ok(text.len())
}

/// `--pair DIR`: gate the change runs against the parent runs; a
/// regression fails the run.
fn gate_pairs(cli: &mut Cli, dir: &Path, pairs: &[(Report, Report)]) {
    let verdicts = compare_pairs(pairs);
    println!(
        "cl-bench: {} pairs from {}\n\n\
         | entry | unit | median ratio | min–max ratio | pairs past bound | verdict |\n\
         |---|---|---:|---:|---:|---|",
        pairs.len(),
        dir.display()
    );
    for v in &verdicts {
        if v.ratios.is_empty() {
            println!("| {} | {} | — | — | — | one side only |", v.name, v.unit);
            continue;
        }
        let lo = v.ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "| {} | {} | {:.2} | {lo:.2}–{hi:.2} | {}/{} | {} |",
            v.name,
            v.unit,
            median(&v.ratios),
            v.past,
            v.ratios.len(),
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    let regressed = verdicts.iter().filter(|v| v.regressed).count();
    let gated = verdicts.iter().filter(|v| !v.ratios.is_empty()).count();
    if regressed > 0 {
        cli.fail(format!(
            "{regressed}/{gated} entries REGRESSED against the parent"
        ));
    } else {
        println!("\ncl-bench: pair gate passed ({gated} entries gated)");
    }
}

/// The `(parent, change)` runs in `dir`: `parent-01.json` with
/// `change-01.json`, and so on up to the first missing `parent-NN.json`.
fn load_pairs(dir: &Path) -> Result<Vec<(Report, Report)>, String> {
    let mut pairs = Vec::new();
    for nn in 1.. {
        let parent = dir.join(format!("parent-{nn:02}.json"));
        if !parent.exists() {
            break;
        }
        let change = dir.join(format!("change-{nn:02}.json"));
        pairs.push((load_report(&parent)?, load_report(&change)?));
    }
    if pairs.is_empty() {
        return Err(format!("{}: no parent-01.json", dir.display()));
    }
    Ok(pairs)
}

/// Run the curated hot-path suite and collect a [`Report`].
fn run_suite(workers: usize, fast: bool) -> Report {
    let (warm, samples) = if fast { (2, 6) } else { (5, 20) };
    let ctx = Context::new(ocl_rt::Device::native_cpu(workers).expect("bench device"));
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
        workers,
        if fast { "fast profile, " } else { "" },
        samples
    );

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

    // --- The unarmed host's completion wait ------------------------------
    // Square at 100 000 items, local 500, fused 25 groups per chunk: 8
    // chunks of a few µs each, on a queue with no launch deadline — the
    // host claims chunks, then waits on the launch latch for the one its
    // worker still holds. A host that sleeps on a timer instead of being
    // woken by the last chunk oversleeps about half the launches and fails
    // the entry. The device has one worker so that host and worker each
    // get a CPU on a 2-CPU host; with more threads than CPUs the
    // scheduler's noise hides the wait. The device is dropped, and its
    // worker joined, before the next entry runs.
    let stats = {
        let wait_ctx = Context::new(ocl_rt::Device::native_cpu(1).expect("host-wait device"));
        let built = cl_kernels::apps::square::build(&wait_ctx, 100_000, 1, Some(500), 7);
        let q_wait =
            wait_ctx.queue_with(QueueConfig::default().coarsen(ocl_rt::CoarsenMode::Force(25)));
        let stats = sample(warm, samples, BATCH, || {
            for _ in 0..BATCH {
                q_wait
                    .enqueue_kernel(&built.kernel, built.range)
                    .expect("host-wait enqueue");
            }
            BATCH
        });
        built.verify(&q_wait).expect("host-wait results");
        stats
    };
    push("dispatch/host-wait", "ns/launch", stats);

    // --- Implicit vectorization of 2-D groups ---------------------------
    // Tiled MatrixMul at 96², local 16×16, on its own vectorizing 2-worker
    // device: lane steps walk every row of a 2-D group, so an engine that
    // offers lanes to 1-D groups only runs this scalar and fails the entry.
    let lanes_ctx = Context::new(ocl_rt::Device::native_cpu(2).expect("lanes device"));
    let lanes_q =
        lanes_ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)));
    let built = cl_kernels::apps::matrixmul::build_tiled(&lanes_ctx, 96, 96, 96, 16, 7);
    let groups = BATCH * (96 / 16) * (96 / 16);
    let stats = sample(warm, samples, groups, || {
        for _ in 0..BATCH {
            lanes_q
                .enqueue_kernel(&built.kernel, built.range)
                .expect("lanes enqueue");
        }
        groups
    });
    built.verify(&lanes_q).expect("lanes results");
    push("simd/lanes-2d", "ns/group", stats);

    // MRI-Q computeQ, 4096 voxels × 64 k-samples, local 256, on the same
    // device: 16 voxels per block on `cl_vec::sin_cos` (rows of 256 run no
    // step). A scalar body, or a libm call per lane, is about 4× slower
    // and fails the entry.
    let built = cl_kernels::parboil::mriq::build_q(&lanes_ctx, 4096, 64, 1, Some(256), 7);
    let groups = BATCH * 4096 / 256;
    let stats = sample(warm, samples, groups, || {
        for _ in 0..BATCH {
            lanes_q
                .enqueue_kernel(&built.kernel, built.range)
                .expect("computeq enqueue");
        }
        groups
    });
    built.verify(&lanes_q).expect("computeq results");
    push("simd/computeq", "ns/group", stats);

    // VectorAdd, 64 000 elements in 1-D groups of 1 000, on the same
    // device: a memory-light body whose blocks and steps are plain loads
    // and stores, so the walk's own code sets its time. Lanes lowered to
    // scalar loads and stores (the body's `at` run as `L::WIDTH` `f32`
    // items) read 1.97× slower and fail the entry in 10 of 10 pairs. Two
    // smaller changes pass it: the body at 4 wide only (1.18×, 5/10; the
    // `lint` stage's `blocks_only_for_probes` catches that one) and counted
    // block and step loops in the walk (1.00).
    let built = cl_kernels::apps::vectoradd::build(&lanes_ctx, 64_000, 1, Some(1000), 7);
    let groups = BATCH * 64;
    let stats = sample(warm, samples, groups, || {
        for _ in 0..BATCH {
            lanes_q
                .enqueue_kernel(&built.kernel, built.range)
                .expect("vectoradd enqueue");
        }
        groups
    });
    built.verify(&lanes_q).expect("vectoradd results");
    push("simd/vectoradd", "ns/group", stats);

    // The same computeQ coalesced: 4 voxels per workitem, local 64 (1024
    // workitems). A workitem's voxels are contiguous, so lane steps walk
    // them; an engine that runs coalesced launches scalar is about 4×
    // slower and fails the entry.
    let built = cl_kernels::parboil::mriq::build_q(&lanes_ctx, 4096, 64, 4, Some(64), 7);
    let groups = BATCH * 4096 / 4 / 64;
    let stats = sample(warm, samples, groups, || {
        for _ in 0..BATCH {
            lanes_q
                .enqueue_kernel(&built.kernel, built.range)
                .expect("coalesced enqueue");
        }
        groups
    });
    built.verify(&lanes_q).expect("coalesced results");
    push("simd/coalesced", "ns/group", stats);

    // BlackScholes, 64×64 items pricing 16 options each, local 16×16, on
    // the same device: 16 options per block (rows of 16 run no step) on
    // the branch-free `cl_vec::exp`/`ln`. A libm call per lane is about
    // 1.8× slower and fails the entry (10 of 10 pairs); 16 options per
    // item keep the launch cost out of that ratio.
    let built =
        cl_kernels::apps::blackscholes::build(&lanes_ctx, (64, 64), 65_536, Some((16, 16)), 7);
    let groups = BATCH * (64 / 16) * (64 / 16);
    let stats = sample(warm, samples, groups, || {
        for _ in 0..BATCH {
            lanes_q
                .enqueue_kernel(&built.kernel, built.range)
                .expect("blackscholes enqueue");
        }
        groups
    });
    built.verify(&lanes_q).expect("blackscholes results");
    push("simd/blackscholes", "ns/group", stats);

    // --- Thread coarsening: fused vs serial dispatch ---------------------
    // The same Proven kernel and geometry on two queues. The default
    // (Auto) queue fuses K workgroups per chunk under the `cl_analyze`
    // coarsening certificate; the Off queue runs the historical one chunk
    // per group. Both gated; the ratio between them is the fused-dispatch
    // speedup.
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

    // --- Disabled-path instrumentation overheads -------------------------
    // The tracer and the command recorder must cost one skipped Option
    // branch when off. trace-off: empty kernel (no buffers — isolates the
    // span-record sites). race-off, below, enqueues square (has buffer
    // bindings, so a release-mode regression that starts lowering flow uses
    // eagerly would surface there).
    let empty: Arc<dyn Kernel> = Arc::new(EmptyKernel);
    const BATCH: u64 = 8;
    let stats = sample(warm, samples, BATCH, || {
        let range = NDRange::d1(256).local1(64);
        for _ in 0..BATCH {
            q.enqueue_kernel(&empty, range).expect("trace-off enqueue");
        }
        BATCH
    });
    push("overhead/trace-off", "ns/enqueue", stats);

    // race-off: two queues of one recording-DISABLED context alternating
    // enqueues of the same built kernel — the path the command recorder
    // hooks. With recording off the context holds no `RaceLog` and each
    // record site is one skipped Option branch; a regression that starts
    // building HbRecords eagerly would surface here.
    let race_ctx = Context::new_with(
        ocl_rt::Device::native_cpu(workers).expect("race-off device"),
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
    // schedule change that costs more trials fails the pair gate.
    push(
        "tune/convergence-trials",
        "trials",
        BenchStats::from_samples(&[tuner.trials(&key) as f64]),
    );

    // --- Serving layer: p99 launch latency under a 64-tenant burst -------
    // Each sample is one burst: 64 tenants launch concurrently through the
    // shared gate and the burst's p99 enqueue→completion latency is the
    // sample value. Catches fairness-gate regressions (a broken WRR or a
    // lost notify shows up as a tail blow-up long before it deadlocks).
    let srv = Server::new(workers, ServeConfig::default().max_waiting(256)).expect("serve server");
    let range = NDRange::d1(64).local1(64);
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
    // out-of-order queue, all submitted behind one user-event gate that is
    // signalled once the last is in: every sample schedules the same DAG,
    // 8 independent chains of 8 (hazards order each buffer's commands),
    // however fast the host submits. The cost is the pending-DAG
    // bookkeeping (hazard scan + node + dispatch + completion), not
    // compute. Catches regressions in the submit hot path — an accidental
    // O(history) scan or a lost-wakeup stall shows up directly.
    let qo = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let kernels = muladd_kernels(&ctx);
    let stats = sample(warm, samples, SCHED_CMDS, || gated_dag(&qo, &kernels));
    push("sched/ready-dispatch-ns", "ns/cmd", stats);

    // --- OOO scheduler: the same DAG behind a recorded history -----------
    // The ready-dispatch DAG on a race-recording context whose out-of-order
    // queue has already run 4 096 commands. The scheduler holds pending
    // commands only and the race log derives completion-before-submission
    // edges when it is read, so the per-command cost must not grow with the
    // history: a per-submit history scan that comes back fails the gate.
    const HISTORY: usize = 4096;
    let rec_ctx = Context::new_with(
        ctx.device().clone(),
        ocl_rt::ContextConfig::default().race_recording(true),
    );
    let qr = rec_ctx.queue_with(QueueConfig::default().out_of_order(true));
    let kernels = muladd_kernels(&rec_ctx);
    for k in kernels.iter().cycle().take(HISTORY) {
        qr.submit_kernel(k, NDRange::d1(64).local1(64), &[])
            .expect("history submit");
    }
    qr.finish().expect("history drain");
    let stats = sample(warm, samples, SCHED_CMDS, || gated_dag(&qr, &kernels));
    push("sched/recorded-history-ns", "ns/cmd", stats);

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

    Report::new(workers, benches)
}

/// Commands per sample of the gated out-of-order DAG ([`gated_dag`]).
const SCHED_CMDS: u64 = 64;

/// One tiny `MulAdd` kernel per buffer of the gated DAG, over 8 disjoint
/// buffers of `ctx`.
fn muladd_kernels(ctx: &Context) -> Vec<Arc<dyn Kernel>> {
    (0..8)
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
        .collect()
}

/// Submit [`SCHED_CMDS`] launches round-robin over `kernels` to the
/// out-of-order queue `q`, all behind one user-event gate, then signal it
/// and drain: 8 independent chains of 8, whatever the host's submit pace.
fn gated_dag(q: &CommandQueue, kernels: &[Arc<dyn Kernel>]) -> u64 {
    let gate = ocl_rt::user_event();
    let wait = [gate.event()];
    for k in kernels.iter().cycle().take(SCHED_CMDS as usize) {
        q.submit_kernel(k, NDRange::d1(64).local1(64), &wait)
            .expect("sched submit");
    }
    gate.signal();
    q.finish().expect("sched drain");
    SCHED_CMDS
}

fn load_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: unreadable: {e}", path.display()))?;
    Report::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}
