//! `launch-bound` and `compute-bound`: closed loops of four launches each.

use std::sync::Arc;
use std::time::Duration;

use cl_mem::TransferStatsSnapshot;
use cl_pool::ThreadPool;
use ocl_rt::{now_ns, ClError, CommandQueue, Context, ContextConfig, Device, QueueConfig};
use par_for::Team;

use crate::closed::{self, enqueue, read, repeat_median, timed, Closed};
use crate::fixtures::{DevKernel, HostKernel, Key};
use crate::json::Json;
use crate::metrics::Samples;
use crate::outcome::Outcome;
use crate::trace::{Layer, Tracer};
use crate::{host, Args, Skip};

/// Full set-ups timed per segment, `setup_s` being the median over the
/// run: at least `SETUPS.0`, and more while they have taken under
/// `SETUP_BUDGET`, up to `SETUPS.1` (cheap set-ups need more samples for a
/// steady median). Only the last one of a segment is kept.
const SETUPS: (usize, usize) = (1, 12);
const SETUP_BUDGET: Duration = Duration::from_millis(150);

/// A device with its own pool, a context and an in-order queue, all from
/// explicit configs (the `from_env` paths read `CL_*`).
pub fn runtime(workers: usize) -> Result<(Device, Context, CommandQueue), ClError> {
    let device = Device::native_cpu(workers)?;
    let ctx = Context::new_with(device.clone(), ContextConfig::default());
    let q = ctx.queue_with(QueueConfig::default());
    Ok((device, ctx, q))
}

/// Run `build` as [`SETUPS`] says, recording each wall time, and keep the
/// last result (earlier ones are dropped on this thread).
pub fn timed_setups<S>(
    out: &mut Outcome,
    mut build: impl FnMut() -> Result<S, String>,
) -> Option<S> {
    let mut kept = None;
    let start = std::time::Instant::now();
    for i in 0..SETUPS.1 {
        if i >= SETUPS.0 && start.elapsed() >= SETUP_BUDGET {
            break;
        }
        drop(kept.take());
        let (r, ns) = timed(&mut build);
        match r {
            Ok(s) => {
                out.op(Ok(()));
                out.setup_s.push(ns as f64 / 1e9);
                kept = Some(s);
            }
            Err(e) => {
                out.op(Err(format!("setup: {e}")));
                return None;
            }
        }
    }
    kept
}

/// The first enqueue of each kernel: a plan-cache miss, including the
/// coarsening proof. Part of set-up.
pub fn first_enqueues(q: &CommandQueue, devs: &[DevKernel], s: &mut Samples) -> Result<(), String> {
    for dk in devs {
        let t0 = now_ns();
        let ev = q
            .enqueue_kernel(&dk.kernel, dk.range)
            .map_err(|e| e.to_string())?;
        let wall = (now_ns() - t0) as f64 / 1e3;
        let exec = ev.profiling().execution_s() * 1e6;
        s.push("queue.first_enqueue_us", wall - exec);
    }
    Ok(())
}

/// Serial references of every kernel: the oracles, timed as the
/// single-thread baseline when `traced`.
pub fn references(hosts: &[HostKernel], out: &mut Outcome, traced: bool) -> Vec<Vec<Vec<f32>>> {
    hosts
        .iter()
        .map(|h| {
            if traced {
                let ns = repeat_median(5, Duration::from_millis(300), || {
                    std::hint::black_box(h.reference());
                });
                out.values
                    .insert(format!("kernels.{}.serial_ms", h.key.name()), ns / 1e6);
            }
            h.reference()
        })
        .collect()
}

/// `analyze_coarsen` + `choose_factor` on each kernel's access spec, as the
/// runtime's plan builder runs them: the factor per kernel and the time of
/// one pass over the workload's kernels.
pub fn coarsen_analysis(device: &Device, devs: &[DevKernel], out: &mut Outcome) {
    use ocl_rt::cl_analyze::{analyze_coarsen, choose_factor, features};
    let workers = device.pool().workers();
    let plans: Vec<_> = devs
        .iter()
        .filter_map(|dk| {
            let resolved = dk
                .range
                .resolve_with(device.default_wg(), device.null_target_groups())
                .ok()?;
            Some((dk, resolved))
        })
        .collect();
    let pass = || {
        plans
            .iter()
            .map(|(dk, resolved)| {
                let Some(spec) = dk.kernel.access_spec(resolved) else {
                    return (dk.key, 1);
                };
                let analysis = analyze_coarsen(&spec);
                let profile = dk.kernel.profile();
                let ratio = profile.flops / (profile.mem_bytes / 4.0).max(1.0);
                let feats = features(&spec, ratio);
                (dk.key, choose_factor(&analysis, &feats, workers).factor)
            })
            .collect::<Vec<_>>()
    };
    let ns = repeat_median(20, Duration::from_millis(200), || {
        std::hint::black_box(pass());
    });
    out.values.insert("analyze.coarsen_us".into(), ns / 1e3);
    for (key, factor) in pass() {
        out.values.insert(
            format!("analyze.coarsen_factor.{}", key.name()),
            factor as f64,
        );
    }
}

/// `kernels.<k>.efficiency`: serial time over parallel time × workers.
pub fn efficiencies(out: &mut Outcome, keys: &[Key], workers: usize) {
    for k in keys {
        let k = k.name();
        let serial = out.values.get(&format!("kernels.{k}.serial_ms")).copied();
        let exec = out.samples.median(&format!("kernels.{k}.exec_ms"));
        if let (Some(serial), Some(exec)) = (serial, exec) {
            out.values.insert(
                format!("kernels.{k}.efficiency"),
                serial / (exec * workers as f64),
            );
        }
    }
}

/// One runtime instance of a kernel workload.
struct Rt {
    device: Device,
    ctx: Context,
    q: CommandQueue,
    team: Team,
    devs: Vec<DevKernel>,
}

impl Rt {
    /// Device, context, queue, buffers uploaded, and each kernel's first
    /// enqueue: everything `setup_s` prices.
    fn build(workers: usize, hosts: &[HostKernel], first: &mut Samples) -> Result<Rt, String> {
        let (device, ctx, q) = runtime(workers).map_err(|e| e.to_string())?;
        let devs = hosts
            .iter()
            .map(|h| h.upload(&ctx))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        first_enqueues(&q, &devs, first)?;
        Ok(Rt {
            team: Team::with_pool(Arc::clone(device.pool())),
            device,
            ctx,
            q,
            devs,
        })
    }
}

/// Four launches per job; `in_job` outputs are read back inside the job,
/// the rest are read and checked after it.
struct KernelLoop {
    rt: Option<Rt>,
    workers: usize,
    hosts: Vec<HostKernel>,
    wants: Vec<Vec<Vec<f32>>>,
    in_job: Vec<(usize, usize)>,
    got: Vec<Vec<Vec<f32>>>,
    twin_outs: Vec<Vec<Vec<f32>>>,
    twin_got: Vec<Vec<f32>>,
    skip: Option<Skip>,
}

/// Overwrite host arrays with NaN, so a read or a twin that leaves them
/// untouched fails the next check instead of passing on old values.
pub fn poison<'a>(arrays: impl IntoIterator<Item = &'a mut Vec<f32>>) {
    for a in arrays {
        a.fill(f32::NAN);
    }
}

impl KernelLoop {
    fn rt(&self) -> &Rt {
        self.rt.as_ref().expect("set up before use")
    }
}

impl Closed for KernelLoop {
    fn setup(&mut self, out: &mut Outcome) -> bool {
        self.rt = None;
        let mut first = Samples::default();
        let (workers, hosts) = (self.workers, &self.hosts);
        self.rt = timed_setups(out, || Rt::build(workers, hosts, &mut first));
        out.samples.merge(first);
        self.rt.is_some()
    }

    fn probe(&mut self, out: &mut Outcome) {
        let rt = self.rt();
        crate::ladder::run(&rt.device, out);
        coarsen_analysis(&rt.device, &rt.devs, out);
    }

    fn prepare(&mut self) -> Result<(), String> {
        let rt = self.rt.as_ref().expect("set up before use");
        for (dk, h) in rt.devs.iter().zip(&self.hosts) {
            dk.reset(&rt.q, h).map_err(|e| e.to_string())?;
        }
        poison(self.got.iter_mut().flatten());
        Ok(())
    }

    fn job(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<(u64, u64), String> {
        let rt = self.rt.as_ref().expect("set up before use");
        let t0 = now_ns();
        for dk in &rt.devs {
            enqueue(&rt.q, dk, tr, s, job).map_err(|e| format!("{}: {e}", dk.key.name()))?;
        }
        let mut bytes = 0u64;
        let reads = if job > 0 && self.skip == Some(Skip::Read) {
            &[][..]
        } else {
            &self.in_job[..]
        };
        for &(k, o) in reads {
            let ev = read(
                &rt.q,
                &rt.devs[k].outputs[o],
                &mut self.got[k][o],
                tr,
                s,
                job,
            )
            .map_err(|e| e.to_string())?;
            bytes += ev.bytes;
        }
        Ok((now_ns() - t0, bytes))
    }

    fn check(&mut self) -> Result<(), String> {
        let rt = self.rt.as_ref().expect("set up before use");
        for (k, dk) in rt.devs.iter().enumerate() {
            for o in 0..dk.outputs.len() {
                if !self.in_job.contains(&(k, o)) {
                    rt.q.read_buffer(&dk.outputs[o], 0, &mut self.got[k][o])
                        .map_err(|e| e.to_string())?;
                }
                self.hosts[k]
                    .key
                    .check(o, &self.got[k][o], &self.wants[k][o])?;
            }
        }
        Ok(())
    }

    fn twin(&mut self, job: u64, tr: &mut Tracer, s: &mut Samples) -> Result<u64, String> {
        let team = &self.rt.as_ref().expect("set up before use").team;
        poison(self.twin_outs.iter_mut().flatten());
        poison(&mut self.twin_got);
        let compute = job == 0 || self.skip != Some(Skip::Twin);
        let t0 = now_ns();
        for (h, outs) in self.hosts.iter().zip(self.twin_outs.iter_mut()) {
            let span = tr.begin(h.key.name(), Layer::ParFor, job);
            let ((), ns) = timed(|| {
                if compute {
                    h.twin(team, outs)
                }
            });
            tr.end(span);
            if tr.is_on() {
                s.push(&format!("parfor.{}_ms", h.key.name()), ns as f64 / 1e6);
            }
        }
        // The twin of the in-job read-back: the same bytes copied out.
        for (i, &(k, o)) in self.in_job.iter().enumerate() {
            self.twin_got[i].copy_from_slice(&self.twin_outs[k][o]);
        }
        let ns = now_ns() - t0;
        for (k, h) in self.hosts.iter().enumerate() {
            for (o, want) in self.wants[k].iter().enumerate() {
                h.key.check(o, &self.twin_outs[k][o], want)?;
            }
        }
        for (i, &(k, o)) in self.in_job.iter().enumerate() {
            self.hosts[k]
                .key
                .check(o, &self.twin_got[i], &self.wants[k][o])?;
        }
        Ok(ns)
    }

    fn pool(&self) -> &Arc<ThreadPool> {
        self.rt().device.pool()
    }

    fn transfer(&self) -> TransferStatsSnapshot {
        self.rt().ctx.transfer().stats().snapshot()
    }
}

/// Host think time before each `launch-bound` job.
pub const THINK: Duration = Duration::from_millis(1);

/// Segments of a `launch-bound` run. Its job time is bimodal by runtime
/// instance: on the reference host some set-ups give about 40 µs jobs and
/// others about 60 µs for the life of the instance, so four segments let a
/// run's median follow how many fast instances it drew. Set-up is cheap
/// here (about 0.2 ms), and 32 one-second segments average the draw out.
/// Each segment has about 400 jobs, enough for its own p95 with 20 beyond
/// it, so latency and throughput are taken per segment and the
/// interquartile mean over segments reported: a burst of host noise then
/// moves a few segments, not the result (a whole-run p99 and mean moved by
/// 15 % between runs).
const LAUNCH_SEGMENTS: usize = 32;

/// Segments of a `compute-bound` run: about 85 ms of set-up each, against
/// 80 ms jobs.
const COMPUTE_SEGMENTS: usize = 8;

/// `launch-bound`: Square 10 000 (NULL local), Prefixsum 1024/1024,
/// MRI-Q computePhiMag 3072/512, MRI-FHD RhoPhi 3072/512, then the 40 KB
/// Square read-back; 1 ms of think time before every job.
pub fn launch_bound(args: &Args, out: &mut Outcome) {
    out.per_segment = true;
    kernel_workload(args, out, &Key::LAUNCH, LAUNCH_SEGMENTS, THINK, false);
}

/// `compute-bound`: MatrixMul tiled 16×16, BlackScholes 16×16, CP
/// `cenergy` 16×8 and MRI-Q `computeQ` 256, every output read back.
pub fn compute_bound(args: &Args, out: &mut Outcome) {
    kernel_workload(
        args,
        out,
        &Key::COMPUTE,
        COMPUTE_SEGMENTS,
        Duration::ZERO,
        true,
    );
}

fn kernel_workload(
    args: &Args,
    out: &mut Outcome,
    keys: &[Key],
    segments: usize,
    think: Duration,
    read_all: bool,
) {
    let workers = host::nproc();
    let hosts: Vec<HostKernel> = keys
        .iter()
        .map(|&k| HostKernel::generate(k, args.seed))
        .collect();
    let mut wants = references(&hosts, out, args.trace);
    if args.inject_wrong_output {
        wants[0][0][0] += 1000.0;
    }
    let in_job: Vec<(usize, usize)> = if read_all {
        wants
            .iter()
            .enumerate()
            .flat_map(|(k, outs)| (0..outs.len()).map(move |o| (k, o)))
            .collect()
    } else {
        vec![(0, 0)]
    };
    info(out, &hosts, think);
    let got: Vec<Vec<Vec<f32>>> = hosts.iter().map(|h| h.output_shapes()).collect();
    let mut w = KernelLoop {
        rt: None,
        workers,
        twin_got: in_job.iter().map(|&(k, o)| got[k][o].clone()).collect(),
        twin_outs: got.clone(),
        got,
        hosts,
        wants,
        in_job,
        skip: args.inject_skip,
    };
    closed::run(&mut w, out, args.seconds, segments, think, args.trace);
    // The last runtime is dropped here, on the main thread.
    drop(w);
    efficiencies(out, keys, workers);
}

fn input_len(h: &HostKernel) -> usize {
    use crate::fixtures::Inputs::*;
    match &h.inputs {
        Square(v) | PrefixSum(v) | Cp(v) => v.len(),
        PhiMag { r, i } => r.len() + i.len(),
        RhoPhi { phi_r, .. } => 4 * phi_r.len(),
        MatMul { a, b } | VectorAdd { a, b } => a.len() + b.len(),
        BlackScholes { s, .. } => 3 * s.len(),
        ComputeQ { x, kx, .. } => 3 * x.len() + 4 * kx.len(),
    }
}

fn info(out: &mut Outcome, hosts: &[HostKernel], think: Duration) {
    let input_bytes: usize = hosts.iter().map(|h| input_len(h) * 4).sum();
    let kernels = hosts
        .iter()
        .map(|h| {
            let outs: usize = h.output_shapes().iter().map(|o| o.len()).sum();
            Json::obj([
                ("kernel", Json::str(h.key.name())),
                ("input_elems", Json::Int(input_len(h) as u64)),
                ("output_elems", Json::Int(outs as u64)),
            ])
        })
        .collect();
    out.info("kernels", Json::Arr(kernels));
    out.info("input_bytes", Json::Int(input_bytes as u64));
    out.info(
        "llc_bytes",
        host::cache_bytes(3).map_or(Json::str("unknown"), Json::Int),
    );
    out.info("think_ms", Json::Num(think.as_secs_f64() * 1e3));
    out.info("load", Json::str(closed::LOAD));
}
