//! `cl-trace` — replay figure workloads under the tracing subsystem and
//! report where the time goes.
//!
//! ```text
//! cl-trace [--workers W] [--seed S] [--out DIR] [--stable]
//!
//!   --workers W  pool workers of the device under test (default: min(4, cores))
//!   --seed S     input seed for the replayed kernels (default: 7)
//!   --out DIR    output directory for trace.md / trace.json (default: results)
//!   --stable     deterministic trace.md: volatile cells (timings, steal
//!                counts, span totals) render as "·" so the committed report
//!                is byte-identical across machines and runs — the CI
//!                results-drift gate regenerates it and diffs. Structural
//!                data (groups, chunks, barriers) and the partition checks
//!                run in full.
//! ```
//!
//! Replays two figure workloads on a traced native-CPU queue — the
//! Table II square coalescing sweep and the Figure 6 ILP ladder — plus a
//! write-vs-map transfer phase, then:
//!
//! 1. verifies every launch's chunk spans exactly partition its NDRange
//!    (nonzero exit otherwise — this is the CI smoke gate),
//! 2. writes `trace.json`, the chrome://tracing export of the full log
//!    (load via `chrome://tracing` or <https://ui.perfetto.dev>),
//! 3. writes `trace.md` with per-launch profiling breakdowns (submit /
//!    dispatch / compute / scheduler-idle) and per-phase aggregates
//!    (schedule vs compute vs barrier vs transfer) for both workloads.
//!
//! `cl-bench`'s `overhead/trace-off` prices the tracing-disabled path.

use std::fmt::Write as _;
use std::time::Duration;

use cl_harness::cli::{host_workers, Cli};
use ocl_rt::{Context, Device, MemFlags, QueueConfig, Span, SpanKind, TraceLog};

/// Profiling breakdown of one traced launch, derived from its launch span
/// and chunk spans.
struct LaunchRow {
    kernel: String,
    config: String,
    /// `q{id}#{seq}` from the event's queue attribution — the same ids
    /// that tag the command in `cl-race`'s happens-before stream.
    queue_cmd: String,
    groups: usize,
    chunks: usize,
    steals: usize,
    barriers: u64,
    /// queued → completed.
    wall_ns: u64,
    /// queued → submitted (queue admission: recovery probe, sink install).
    submit_ns: u64,
    /// submitted → first chunk started (dispatch latency).
    dispatch_ns: u64,
    /// Σ chunk durations across workers (busy time).
    compute_ns: u64,
    /// Worker-seconds not spent in chunks during the execution window.
    idle_ns: u64,
    /// compute / (window × workers).
    util: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Build the row for the launch recorded last in `log`, attributing the
/// `Steal` spans recorded since `mark` to it.
fn row_for_last_launch(
    log: &TraceLog,
    ev: &ocl_rt::Event,
    mark: usize,
    workers: usize,
    config: &str,
) -> LaunchRow {
    let spans = log.spans();
    let launch = log.last_launch().expect("a launch span");
    let chunks = log.chunks_of(launch.launch);
    let steals = spans[mark..]
        .iter()
        .filter(|s| s.kind == SpanKind::Steal)
        .count();
    let p = launch.profiling;
    let window_ns = p.completed_ns.saturating_sub(p.started_ns);
    let compute_ns: u64 = chunks.iter().map(|c| c.dur_ns).sum();
    let budget_ns = window_ns * workers as u64;
    LaunchRow {
        kernel: launch.label.clone(),
        config: config.to_string(),
        queue_cmd: format!("q{}#{}", ev.queue_id(), ev.seq()),
        groups: launch.group_end,
        chunks: chunks.len(),
        steals,
        barriers: launch.barriers,
        wall_ns: p.completed_ns.saturating_sub(p.queued_ns),
        submit_ns: p.submitted_ns.saturating_sub(p.queued_ns),
        dispatch_ns: p.started_ns.saturating_sub(p.submitted_ns),
        compute_ns,
        idle_ns: budget_ns.saturating_sub(compute_ns),
        util: if budget_ns > 0 {
            compute_ns as f64 / budget_ns as f64
        } else {
            0.0
        },
    }
}

/// Per-phase aggregate of one workload's slice of the span log.
struct PhaseBreakdown {
    name: &'static str,
    launches: usize,
    /// Σ launch walls (queued → completed).
    wall_ns: u64,
    /// Σ chunk durations (worker busy time).
    compute_ns: u64,
    /// Σ (window × workers) − compute: scheduler idle + imbalance.
    schedule_ns: u64,
    /// Barrier phase boundaries recorded.
    barrier_events: usize,
    /// Σ transfer span durations (verify read-backs included).
    transfer_ns: u64,
    transfer_bytes: u64,
}

fn breakdown(name: &'static str, spans: &[Span], workers: usize) -> PhaseBreakdown {
    let mut b = PhaseBreakdown {
        name,
        launches: 0,
        wall_ns: 0,
        compute_ns: 0,
        schedule_ns: 0,
        barrier_events: 0,
        transfer_ns: 0,
        transfer_bytes: 0,
    };
    for s in spans {
        match s.kind {
            SpanKind::Launch => {
                b.launches += 1;
                let p = s.profiling;
                b.wall_ns += p.completed_ns.saturating_sub(p.queued_ns);
                b.schedule_ns += p.completed_ns.saturating_sub(p.started_ns) * workers as u64;
            }
            SpanKind::Chunk => b.compute_ns += s.dur_ns,
            SpanKind::Barrier => b.barrier_events += 1,
            SpanKind::Transfer => {
                b.transfer_ns += s.dur_ns;
                b.transfer_bytes += s.items;
            }
            _ => {}
        }
    }
    b.schedule_ns = b.schedule_ns.saturating_sub(b.compute_ns);
    b
}

const USAGE: &str = "usage: cl-trace [--workers W] [--seed S] [--out DIR] [--stable]";

fn main() {
    let mut cli = Cli::parse("cl-trace", USAGE);
    let workers = cli.workers(host_workers());
    let seed: u64 = cli.get("--seed", 7);

    let ctx = Context::new(Device::native_cpu(workers).expect("trace device"));
    // Armed watchdog: the host monitors instead of helping execute chunks,
    // so every chunk span carries pool-worker attribution.
    let q = ctx.queue_with(
        QueueConfig::default()
            .tracing(true)
            .launch_timeout(Duration::from_secs(60)),
    );
    let log = q.trace().expect("tracing queue").clone();

    let mut rows: Vec<LaunchRow> = Vec::new();
    let mut verify_launch = |log: &TraceLog| {
        let launch = log.last_launch().expect("a launch span");
        if let Err(e) = log.verify_chunk_partition(launch.launch, launch.group_end) {
            cli.fail(format!(
                "chunk partition violated for {}: {e}",
                launch.label
            ));
        }
    };

    // ------ Workload 1: Table II — square, coalescing 1/10/100/1000 ------
    // n = 100_000 workitems of `x*x`, NULL local_work_size, like the
    // paper's Table II row for Square on CPU.
    let w1_start = log.len();
    const TABLE2_N: usize = 100_000;
    for factor in [1usize, 10, 100, 1000] {
        let mark = log.len();
        let built = cl_kernels::apps::square::build(&ctx, TABLE2_N, factor, None, seed);
        let ev = q
            .enqueue_kernel(&built.kernel, built.range)
            .expect("square enqueue");
        verify_launch(&log);
        rows.push(row_for_last_launch(
            &log,
            &ev,
            mark,
            workers,
            &format!("coalesce x{factor}"),
        ));
        built.verify(&q).expect("square results");
    }
    let w1_spans = log.spans()[w1_start..].to_vec();

    // ------ Workload 2: Figure 6 — ILP ladder 1..4 on the native CPU ------
    let w2_start = log.len();
    const ILP_N: usize = 1 << 14;
    const ILP_ITERS: usize = 64;
    for ilp in 1..=4usize {
        let mark = log.len();
        let built = cl_kernels::ilp::build(&ctx, ILP_N, ilp, ILP_ITERS, 256, seed);
        let ev = q
            .enqueue_kernel(&built.kernel, built.range)
            .expect("ilp enqueue");
        verify_launch(&log);
        rows.push(row_for_last_launch(
            &log,
            &ev,
            mark,
            workers,
            &format!("ilp={ilp}"),
        ));
        built.verify(&q).expect("ilp results");
    }
    let w2_spans = log.spans()[w2_start..].to_vec();

    // ------ Transfer phase: explicit write/read vs mapping (Figure 7) ------
    let tx_start = log.len();
    const TX_BYTES: usize = 4 << 20;
    let host: Vec<u8> = (0..TX_BYTES).map(|b| b as u8).collect();
    let buf = ctx
        .buffer::<u8>(MemFlags::default(), TX_BYTES)
        .expect("buffer");
    q.write_buffer(&buf, 0, &host).expect("write");
    let mut back = vec![0u8; TX_BYTES];
    q.read_buffer(&buf, 0, &mut back).expect("read");
    assert_eq!(back, host, "explicit transfer roundtrip");
    {
        let (mut m, _ev) = q.map_buffer_mut(&buf).expect("map");
        m[0] = 0xA5;
    }
    let (m, _ev) = q.map_buffer(&buf).expect("map read");
    assert_eq!(m[0], 0xA5, "mapped mutation visible");
    drop(m);
    let tx_spans = log.spans()[tx_start..].to_vec();

    // ------ Reports ------
    cli.write("trace.json", log.to_chrome_json());

    let phases = [
        breakdown("Table II square sweep", &w1_spans, workers),
        breakdown("Figure 6 ILP ladder", &w2_spans, workers),
        breakdown("Transfer write vs map", &tx_spans, workers),
    ];
    let md = render_md(&cli, &rows, &phases, workers, log.len());
    let md_path = cli.write("trace.md", md);

    println!(
        "cl-trace: {} spans across {} launches; partition checks {} → {}",
        log.len(),
        rows.len(),
        if cli.failed() { "FAILED" } else { "passed" },
        md_path.display(),
    );
    cli.finish();
}

fn render_md(
    cli: &Cli,
    rows: &[LaunchRow],
    phases: &[PhaseBreakdown],
    workers: usize,
    spans: usize,
) -> String {
    // In --stable mode every wall-clock-derived cell is masked: the
    // committed report must be byte-identical run to run, and only the
    // structure (launches, groups, chunks, barriers, partition proofs) is
    // deterministic. Counts that depend on scheduling (steals, span totals)
    // are volatile too.
    let mut md = String::new();
    md.push_str("# Trace report (`cl-trace`)\n\n");
    let _ = writeln!(
        md,
        "Native-CPU device, {workers} workers, armed launch watchdog (the host \
         monitors rather than executes, so chunk spans carry worker/core \
         attribution). {} spans total; the full log is exported to \
         [`trace.json`](trace.json) — load it in `chrome://tracing` or \
         <https://ui.perfetto.dev>.\n",
        cli.mask(spans.to_string())
    );
    if cli.stable() {
        md.push_str(
            "*Stable mode (`--stable`): wall-clock cells and scheduling-dependent \
             counts render as `·` so this report can be committed and \
             drift-checked; run `cl-trace` without the flag for live numbers.*\n\n",
        );
    }

    md.push_str("## Per-launch profiling breakdown\n\n");
    md.push_str(
        "Timestamps from the events' OpenCL-style profiling info \
         (`queued ≤ submitted ≤ started ≤ completed`): *submit* = queue \
         admission, *dispatch* = submit → first chunk starts, *compute* = Σ \
         chunk durations across workers, *idle* = worker-time in the \
         execution window not spent in chunks, *util* = compute / (window × \
         workers).\n\n",
    );
    md.push_str(
        "| Kernel | Config | Cmd | Groups | Chunks | Steals | Barriers | Wall µs | \
         Submit µs | Dispatch µs | Compute µs | Idle µs | Util |\n",
    );
    md.push_str("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for r in rows {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.kernel,
            r.config,
            r.queue_cmd,
            r.groups,
            r.chunks,
            cli.mask(r.steals.to_string()),
            r.barriers,
            cli.mask(format!("{:.1}", us(r.wall_ns))),
            cli.mask(format!("{:.1}", us(r.submit_ns))),
            cli.mask(format!("{:.1}", us(r.dispatch_ns))),
            cli.mask(format!("{:.1}", us(r.compute_ns))),
            cli.mask(format!("{:.1}", us(r.idle_ns))),
            cli.mask(format!("{:.0}%", r.util * 100.0)),
        );
    }

    md.push_str("\n## Per-phase breakdown\n\n");
    md.push_str(
        "Where each workload's time goes: *compute* is worker busy time in \
         chunks, *schedule* is the rest of the workers' execution-window \
         budget (dispatch latency, deque contention, imbalance), *transfer* \
         covers the blocking buffer commands (including result read-backs).\n\n",
    );
    md.push_str(
        "| Workload | Launches | Wall µs | Compute µs | Schedule µs | \
         Barrier events | Transfer µs | Transfer bytes |\n",
    );
    md.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for p in phases {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            p.name,
            p.launches,
            cli.mask(format!("{:.1}", us(p.wall_ns))),
            cli.mask(format!("{:.1}", us(p.compute_ns))),
            cli.mask(format!("{:.1}", us(p.schedule_ns))),
            p.barrier_events,
            cli.mask(format!("{:.1}", us(p.transfer_ns))),
            p.transfer_bytes,
        );
    }

    md
}
