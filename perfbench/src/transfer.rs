//! `transfer-bound`: a copy round trip and a map round trip of VectorAdd at
//! the Table II maximum size, READ_ONLY inputs and a WRITE_ONLY output.

use std::sync::Arc;
use std::time::Duration;

use cl_mem::TransferStatsSnapshot;
use cl_pool::ThreadPool;
use ocl_rt::{now_ns, CommandQueue, Context, Device};
use par_for::{Schedule, Team};

use crate::closed::{self, enqueue, read, timed, write, Closed};
use crate::fixtures::{size, DevKernel, HostKernel, Inputs, Key};
use crate::json::Json;
use crate::kernel_loop::{
    coarsen_analysis, efficiencies, first_enqueues, references, runtime, timed_setups,
};
use crate::metrics::Samples;
use crate::outcome::Outcome;
use crate::trace::{Layer, Tracer};
use crate::{host, Args, Skip};

/// Input sets: each job's map round trip uses the other set than its copy
/// round trip, so a map trip that leaves `a` and `b` as the copy trip wrote
/// them computes the wrong `c`.
const SETS: usize = 2;

const VADD: Key = Key::VectorAdd;

/// Segments of a run: about 170 ms of set-up each, against 160 ms jobs.
const SEGMENTS: usize = 4;

/// One runtime instance: device, context, queue, the VectorAdd buffers.
struct Rt {
    device: Device,
    ctx: Context,
    q: CommandQueue,
    team: Team,
    dev: DevKernel,
}

struct TransferLoop {
    rt: Option<Rt>,
    workers: usize,
    /// Input set 0 as a kernel's host side: what each set-up uploads.
    host: HostKernel,
    /// Input set 1.
    other: HostKernel,
    /// `a + b` of each set.
    wants: Vec<Vec<f32>>,
    /// The copy trip's read-back, and the twin's output.
    got: Vec<f32>,
    /// Which set the last copy trip used.
    copy_set: usize,
    jobs: usize,
    skip: Option<Skip>,
}

/// Host inputs `(a, b)` of input set `i`.
fn inputs<'a>(host: &'a HostKernel, other: &'a HostKernel, i: usize) -> (&'a [f32], &'a [f32]) {
    match &[host, other][i % SETS].inputs {
        Inputs::VectorAdd { a, b } => (a, b),
        _ => unreachable!("transfer-bound runs VectorAdd"),
    }
}

impl Closed for TransferLoop {
    fn setup(&mut self, out: &mut Outcome) -> bool {
        self.rt = None;
        let mut first = Samples::default();
        let (workers, host) = (self.workers, &self.host);
        self.rt = timed_setups(out, || {
            let (device, ctx, q) = runtime(workers).map_err(|e| e.to_string())?;
            let dev = host.upload(&ctx).map_err(|e| e.to_string())?;
            first_enqueues(&q, std::slice::from_ref(&dev), &mut first)?;
            Ok(Rt {
                team: Team::with_pool(Arc::clone(device.pool())),
                device,
                ctx,
                q,
                dev,
            })
        });
        out.samples.merge(first);
        self.rt.is_some()
    }

    fn probe(&mut self, out: &mut Outcome) {
        let rt = self.rt.as_ref().expect("set up before use");
        crate::ladder::run(&rt.device, out);
        coarsen_analysis(&rt.device, std::slice::from_ref(&rt.dev), out);
    }

    /// Poison `a`, `b` and `c` on the device and the copy trip's host
    /// destination: a write, launch or read that does nothing then fails
    /// the check instead of finding the previous job's values (the copy
    /// trip's set is the one the previous map trip left in `a` and `b`).
    /// Through mappings: `fill_buffer` stages a full-size pattern first,
    /// which would add the benchmark's own 45.8 MB to `peak_rss_mb`.
    fn prepare(&mut self) -> Result<(), String> {
        let rt = self.rt.as_ref().expect("set up before use");
        for buf in rt.dev.inputs.iter().chain(&rt.dev.outputs) {
            let (mut m, _) = rt.q.map_buffer_mut(buf).map_err(|e| e.to_string())?;
            m.fill(f32::NAN);
        }
        self.got.fill(f32::NAN);
        Ok(())
    }

    fn job(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<(u64, u64), String> {
        let e = |e: ocl_rt::ClError| e.to_string();
        let copy = self.jobs % SETS;
        let map = (copy + 1) % SETS;
        self.jobs += 1;
        self.copy_set = copy;
        let skip = self.skip.filter(|_| job > 0);
        let rt = self.rt.as_ref().expect("set up before use");
        let (q, dev) = (&rt.q, &rt.dev);
        let c = dev.outputs[0].clone();
        let (a, b) = (dev.inputs[0].clone(), dev.inputs[1].clone());
        let mut timed_ns = 0u64;
        let mut t0 = now_ns();
        // Copy round trip.
        let (copy_a, copy_b) = inputs(&self.host, &self.other, copy);
        if skip != Some(Skip::Write) {
            write(q, &a, copy_a, tr, s, job).map_err(e)?;
            write(q, &b, copy_b, tr, s, job).map_err(e)?;
        }
        enqueue(q, dev, tr, s, job).map_err(e)?;
        if skip != Some(Skip::Read) {
            read(q, &c, &mut self.got, tr, s, job).map_err(e)?;
        }
        // Map round trip on the same buffers.
        let (map_a, map_b) = inputs(&self.host, &self.other, map);
        for (buf, src) in [(&a, map_a), (&b, map_b)] {
            let span = tr.begin("queue.map_buffer_mut", Layer::Mem, job);
            let t = now_ns();
            let (mut m, ev) = q.map_buffer_mut(buf).map_err(e)?;
            tr.event_children(span, &ev);
            let fill = tr.begin("map.fill", Layer::Host, job);
            m.copy_from_slice(src);
            tr.end(fill);
            let u = now_ns();
            let unmap = tr.begin("mem.unmap", Layer::Mem, job);
            drop(m);
            tr.end(unmap);
            tr.end(span);
            if tr.is_on() {
                s.push("mem.map_us", (ev.profiling().completed_ns - t) as f64 / 1e3);
                s.push("mem.unmap_us", (now_ns() - u) as f64 / 1e3);
            }
        }
        enqueue(q, dev, tr, s, job).map_err(e)?;
        let span = tr.begin("queue.map_buffer", Layer::Mem, job);
        let t = now_ns();
        let (m, ev) = q.map_buffer(&c).map_err(e)?;
        tr.event_children(span, &ev);
        if tr.is_on() {
            s.push("mem.map_us", (ev.profiling().completed_ns - t) as f64 / 1e3);
        }
        // The check of the mapped result is not job time.
        let paused = now_ns();
        timed_ns += paused - t0;
        let checked = VADD.check(0, &m, &self.wants[map]);
        t0 = now_ns();
        let u = now_ns();
        drop(m);
        tr.end(span);
        if tr.is_on() {
            s.push("mem.unmap_us", (now_ns() - u) as f64 / 1e3);
        }
        timed_ns += now_ns() - t0;
        checked.map_err(|e| format!("map round trip: {e}"))?;
        let bytes = 6 * self.got.len() as u64 * 4;
        Ok((timed_ns, bytes))
    }

    fn check(&mut self) -> Result<(), String> {
        VADD.check(0, &self.got, &self.wants[self.copy_set])
            .map_err(|e| format!("copy round trip: {e}"))
    }

    /// The job as OpenMP computes it: one pass per round trip, straight
    /// from the host arrays, each checked.
    fn twin(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<u64, String> {
        let set = job as usize % SETS;
        let team = &self.rt.as_ref().expect("set up before use").team;
        if tr.is_on() {
            // The floor under the runtime's staging copies: one plain copy
            // of an array.
            let (a, _) = inputs(&self.host, &self.other, set);
            let ((), ns) = timed(|| self.got.copy_from_slice(a));
            std::hint::black_box(&self.got);
            s.push("mem.memcpy_gbps", (a.len() * 4) as f64 / ns.max(1) as f64);
        }
        let sched = Schedule::Static { chunk: None };
        let compute = job == 0 || self.skip != Some(Skip::Twin);
        let mut ns = 0;
        for i in [set, (set + 1) % SETS] {
            let (a, b) = inputs(&self.host, &self.other, i);
            self.got.fill(f32::NAN);
            let span = tr.begin("vectoradd", Layer::ParFor, job);
            let ((), pass_ns) = timed(|| {
                if compute {
                    cl_kernels::apps::vectoradd::openmp(team, a, b, &mut self.got, sched)
                }
            });
            tr.end(span);
            ns += pass_ns;
            VADD.check(0, &self.got, &self.wants[i])?;
        }
        if tr.is_on() {
            s.push("parfor.vectoradd_ms", ns as f64 / 1e6);
        }
        Ok(ns)
    }

    fn pool(&self) -> &Arc<ThreadPool> {
        self.rt.as_ref().expect("set up before use").device.pool()
    }

    fn transfer(&self) -> TransferStatsSnapshot {
        self.rt
            .as_ref()
            .expect("set up before use")
            .ctx
            .transfer()
            .stats()
            .snapshot()
    }
}

pub fn transfer_bound(args: &Args, out: &mut Outcome) {
    let workers = host::nproc();
    let hosts: Vec<HostKernel> = (0..SETS as u64)
        .map(|i| HostKernel::generate(VADD, args.seed.wrapping_add(i * 0x1000)))
        .collect();
    let mut wants: Vec<Vec<f32>> = references(&hosts[..1], out, args.trace)
        .into_iter()
        .chain(hosts[1..].iter().map(|h| h.reference()))
        .map(|mut v| v.remove(0))
        .collect();
    if args.inject_wrong_output {
        wants[0][0] += 1000.0;
    }
    let n = size::VADD_N;
    let array = (n * 4) as u64;
    out.info("elements", Json::Int(n as u64));
    out.info("array_bytes", Json::Int(array));
    out.info(
        "llc_bytes",
        host::cache_bytes(3).map_or(Json::str("unknown"), Json::Int),
    );
    out.info("bytes_per_job", Json::Int(6 * array));
    out.info(
        "bandwidth",
        Json::str("computed bytes: 3 arrays x 2 round trips per job, over job time"),
    );
    out.info("load", Json::str(closed::LOAD));
    let mut hosts = hosts.into_iter();
    let (host, other) = (hosts.next().expect("set 0"), hosts.next().expect("set 1"));
    let mut w = TransferLoop {
        rt: None,
        workers,
        host,
        other,
        wants,
        got: vec![0.0; n],
        copy_set: 0,
        jobs: 0,
        skip: args.inject_skip,
    };
    // What `peak_rss_mb` holds besides the runtime: the benchmark's host
    // arrays (two input sets, two references, the read-back), all touched.
    out.info("host_arrays_bytes", Json::Int(7 * array));
    out.info("rss_before_setup_mb", Json::Num(host::rss_mb()));
    closed::run(
        &mut w,
        out,
        args.seconds,
        SEGMENTS,
        Duration::ZERO,
        args.trace,
    );
    // The last runtime is dropped here, on the main thread.
    drop(w);
    efficiencies(out, &[VADD], workers);
}
