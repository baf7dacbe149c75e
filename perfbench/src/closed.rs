//! The closed-loop driver shared by `launch-bound`, `compute-bound` and
//! `transfer-bound`, and the instrumented calls into the runtime they make.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_mem::TransferStatsSnapshot;
use cl_pool::{MetricsSnapshot, ThreadPool};
use ocl_rt::{now_ns, Buffer, ClError, CommandQueue, Event};

use crate::fixtures::DevKernel;
use crate::metrics::Samples;
use crate::outcome::{JobRecord, Outcome};
use crate::trace::{Layer, Tracer, JOB};

/// One closed-loop workload: a job through the runtime and its `par-for`
/// twin, each with untimed preparation and checking around it.
pub trait Closed {
    /// Build a fresh runtime (device, pool, context, queue, buffers, first
    /// enqueues), replacing and dropping the previous one; timed into
    /// `setup_s`. `false` when set-up failed (already counted).
    fn setup(&mut self, out: &mut Outcome) -> bool;
    /// Traced runs only: the ladder and the coarsening analysis on the
    /// current runtime.
    fn probe(&mut self, out: &mut Outcome);
    /// Untimed, before a runtime job: poison outputs, restore inputs.
    fn prepare(&mut self) -> Result<(), String>;
    /// One runtime job; returns its timed work in ns and the host-visible
    /// bytes it moved.
    fn job(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<(u64, u64), String>;
    /// Untimed: check the last runtime job's outputs.
    fn check(&mut self) -> Result<(), String>;
    /// One `par-for` twin job, checked; returns its time in ns.
    fn twin(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<u64, String>;
    fn pool(&self) -> &Arc<ThreadPool>;
    /// Transfer counters of the job's context.
    fn transfer(&self) -> TransferStatsSnapshot;
}

/// The load shape of every closed loop, for the workload provenance.
pub const LOAD: &str = "closed loop, 1 driver thread: no offered rate, no latency limit";

/// Busy-wait: host think time that keeps the driver core busy while the
/// pool's workers run out of spins and park.
pub fn spin(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Run `w` for `seconds` in `segments` segments, each on a freshly set up
/// runtime: per-instance effects (thread placement, buffer addresses)
/// average out within a run instead of differing between runs.
pub fn run(
    w: &mut dyn Closed,
    out: &mut Outcome,
    seconds: f64,
    segments: usize,
    think: Duration,
    traced: bool,
) {
    for seg in 0..segments {
        out.segment = seg as u32;
        if !w.setup(out) {
            return;
        }
        if traced && seg == 0 {
            w.probe(out);
        }
        drive(w, out, seconds / segments as f64, think, traced);
    }
}

/// Drive `w` for `seconds`, alternating a runtime job and its twin, each
/// after `think`. In a traced run, runtime jobs alternate between traced
/// and untraced so tracing prices itself; only untraced jobs feed the
/// end-to-end metrics.
fn drive(w: &mut dyn Closed, out: &mut Outcome, seconds: f64, think: Duration, traced: bool) {
    let mut tr = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let pool0 = w.pool().metrics().snapshot();
    let mut job = 0u64;
    // At least two jobs, so every segment has one that follows another on
    // the same runtime (what the `--inject-skip` self-tests rely on).
    while job < 2 || Instant::now() < deadline {
        let trace_this = traced && job.is_multiple_of(2);
        tr.set_on(trace_this);
        if let Err(e) = w.prepare() {
            out.op(Err(format!("prepare: {e}")));
            job += 1;
            continue;
        }
        spin(think);
        let (p0, m0) = (w.pool().metrics().snapshot(), w.transfer());
        let root = tr.begin(JOB, Layer::Host, job);
        let res = w.job(job, &mut tr, &mut out.samples);
        tr.end(root);
        let (p1, m1) = (w.pool().metrics().snapshot(), w.transfer());
        let res = res.and_then(|r| w.check().map(|()| r));
        let ((ns, bytes), ok) = match res {
            Ok(r) => (r, out.op(Ok(()))),
            Err(e) => ((0, 0), out.op(Err(e))),
        };
        if !trace_this {
            let segment = out.segment;
            out.jobs.push(JobRecord {
                ns,
                bytes,
                ok,
                segment,
            });
        } else if ok {
            out.traced_job_ns.push(ns as f64);
            record_counters(&mut out.samples, &p1.delta_since(&p0), &m1.delta_since(&m0));
        }
        spin(think);
        match w.twin(job, &mut tr, &mut out.samples) {
            Ok(ns) => {
                out.op(Ok(()));
                out.twin(ns);
            }
            Err(e) => {
                out.op(Err(format!("par-for twin: {e}")));
            }
        }
        job += 1;
    }
    tr.set_on(false);
    pool_faults(out, &w.pool().metrics().snapshot().delta_since(&pool0));
    out.tracers.push(tr);
}

/// Per-job pool and transfer counter deltas.
fn record_counters(s: &mut Samples, p: &MetricsSnapshot, m: &TransferStatsSnapshot) {
    s.push("pool.tasks_per_job", p.tasks_executed as f64);
    s.push("pool.steals_per_job", p.tasks_stolen as f64);
    s.push("pool.injector_per_job", p.tasks_from_injector as f64);
    s.push("pool.parks_per_job", p.parks as f64);
    s.push("pool.unparks_per_job", p.unparks as f64);
    if p.tasks_executed > 0 {
        s.push(
            "pool.steal_ratio",
            p.tasks_stolen as f64 / p.tasks_executed as f64,
        );
    }
    s.push("mem.bytes_copied_per_job", m.bytes_copied as f64);
    s.push("mem.staging_allocs_per_job", m.staging_allocs as f64);
}

/// Worker panics and lost workers, summed over the run, are failures.
pub fn pool_faults(out: &mut Outcome, d: &MetricsSnapshot) {
    if d.panics > 0 || d.workers_lost > 0 {
        out.op(Err(format!(
            "pool: {} worker panics, {} workers lost",
            d.panics, d.workers_lost
        )));
    }
}

/// `enqueue_kernel` with its span, profiling children, and queue samples.
pub fn enqueue(
    q: &CommandQueue,
    dk: &DevKernel,
    tr: &mut Tracer,
    s: &mut Samples,
    job: u64,
) -> Result<Event, ClError> {
    let t0 = now_ns();
    let span = tr.begin_at("queue.enqueue_kernel", Layer::Queue, job, t0);
    let res = q.enqueue_kernel(&dk.kernel, dk.range);
    let t1 = now_ns();
    if let Ok(ev) = &res {
        tr.event_children(span, ev);
        if tr.is_on() {
            kernel_samples(s, dk.key.name(), t0, t1, ev);
        }
    }
    tr.end_at(span, t1);
    res
}

/// Queue and kernel samples of one launch that took `[t0, t1]` on the host.
fn kernel_samples(s: &mut Samples, key: &str, t0: u64, t1: u64, ev: &Event) {
    let p = ev.profiling();
    let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
    s.push("queue.enqueue_us", us(t0, t1));
    s.push("queue.plan_us", us(p.queued_ns, p.submitted_ns));
    s.push("queue.dispatch_us", us(p.submitted_ns, p.started_ns));
    s.push("queue.exec_us", us(p.started_ns, p.completed_ns));
    s.push("queue.return_us", us(p.completed_ns, t1));
    s.push(
        "queue.host_overhead_us",
        us(t0, t1) - us(p.started_ns, p.completed_ns),
    );
    s.push("queue.residual_us", us(t0, p.queued_ns));
    exec_samples(s, key, ev);
}

/// Kernel-body samples of one launch.
pub fn exec_samples(s: &mut Samples, key: &str, ev: &Event) {
    let p = ev.profiling();
    s.push(
        &format!("kernels.{key}.exec_ms"),
        p.completed_ns.saturating_sub(p.started_ns) as f64 / 1e6,
    );
    s.push(&format!("kernels.{key}.groups"), ev.groups as f64);
}

/// `read_buffer` with its span and transfer samples.
pub fn read(
    q: &CommandQueue,
    buf: &Buffer<f32>,
    dst: &mut [f32],
    tr: &mut Tracer,
    s: &mut Samples,
    job: u64,
) -> Result<Event, ClError> {
    let span = tr.begin("queue.read_buffer", Layer::Queue, job);
    let res = q.read_buffer(buf, 0, dst);
    transfer_done(tr, s, span, &res, "mem.read_gbps");
    tr.end(span);
    res
}

/// `write_buffer` with its span and transfer samples.
pub fn write(
    q: &CommandQueue,
    buf: &Buffer<f32>,
    src: &[f32],
    tr: &mut Tracer,
    s: &mut Samples,
    job: u64,
) -> Result<Event, ClError> {
    let span = tr.begin("queue.write_buffer", Layer::Queue, job);
    let res = q.write_buffer(buf, 0, src);
    transfer_done(tr, s, span, &res, "mem.write_gbps");
    tr.end(span);
    res
}

fn transfer_done(
    tr: &mut Tracer,
    s: &mut Samples,
    span: Option<usize>,
    res: &Result<Event, ClError>,
    metric: &str,
) {
    if let Ok(ev) = res {
        tr.event_children(span, ev);
        if tr.is_on() {
            let p = ev.profiling();
            let ns = p.completed_ns.saturating_sub(p.started_ns).max(1);
            s.push(metric, ev.bytes as f64 / ns as f64);
        }
    }
}

/// Time `f` in ns on the runtime's clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = now_ns();
    let r = f();
    (r, now_ns() - t0)
}

/// Median over repeated calls of `f` until `budget` or `max` calls,
/// in ns (the serial references and the coarsen analysis).
pub fn repeat_median(max: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut v = Vec::new();
    while v.len() < max && (v.is_empty() || start.elapsed() < budget) {
        let ((), ns) = timed(&mut f);
        v.push(ns as f64);
    }
    crate::stats::median(&v)
}
