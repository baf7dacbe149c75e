//! `tenant-mix`: an open loop with two driver threads, each one tenant of a
//! single `Server` — one in-order, one out-of-order — following a seeded
//! Poisson schedule at a fixed offered rate.

use std::sync::Arc;
use std::time::Duration;

use cl_kernels::sched::{muladd_ref, MulAdd};
use cl_serve::{ServeConfig, Server, StatsSnapshot, Tenant, TenantConfig};
use ocl_rt::{now_ns, Buffer, ClError, Device, EventRef, Kernel, MemFlags, NDRange};
use par_for::{Schedule, Team};

use crate::closed::{exec_samples, pool_faults};
use crate::fixtures::{DevKernel, HostKernel, Key};
use crate::json::Json;
use crate::kernel_loop::{coarsen_analysis, poison, references, timed_setups};
use crate::loadgen::{self, Arrival, Record, Rng};
use crate::metrics::Samples;
use crate::outcome::{JobRecord, Outcome};
use crate::trace::{Layer, Tracer, JOB};
use crate::{host, stats, Args};

/// The workload's name.
pub const NAME: &str = "tenant-mix";

/// Offered rate per tenant, arrivals per second, fixed once. At this rate
/// the generator's own lateness (p99 about 1 ms on a 2-core host) is small
/// next to [`LIMIT_MS`], and each one-second segment of a 20 s run offers
/// about 500 arrivals, so the per-segment tail is p95. A whole-run p99 sat
/// on the millisecond scheduling hiccups of a shared host and moved by
/// more than 100% between runs.
pub const RATE_PER_TENANT: f64 = 250.0;

/// Latency limit of `slo_frac`, from each arrival's due time.
pub const LIMIT_MS: f64 = 5.0;

/// Tail percentile of a segment (about 500 arrivals: 25 beyond p95).
pub const TAIL_PERCENTILE: f64 = 95.0;

/// Share of `--seconds` the open loop runs; the rest replays the schedule
/// through the `par-for` twins.
const OPEN_SHARE: f64 = 0.8;

/// Segments of a run, each on a fresh server. Latency statistics are taken
/// per segment and their interquartile mean reported, so a burst of host
/// noise moves a few segments rather than the result; each segment offers
/// enough arrivals for its own p95 with 10 samples beyond it.
const SEGMENTS: usize = 16;

/// Elements of the write/read payload and of the chain buffer (40 KB).
const IO_N: usize = 10_000;

/// Arrival kinds: 0..4 launch `Key::LAUNCH[kind]`, 4 is a write/read
/// round trip, 5 an out-of-order chain.
const WRITE_READ: usize = 4;

/// Kind weights of the in-order tenant (no chains) and the OOO tenant.
const WEIGHTS_IN_ORDER: [u32; 6] = [15, 15, 15, 15, 40, 0];
const WEIGHTS_OOO: [u32; 6] = [10, 10, 10, 10, 30, 30];

/// One `par-for` twin job: the OOO tenant's mix in lowest terms.
const TWIN_DECK: [usize; 10] = [0, 1, 2, 3, 4, 4, 4, 5, 5, 5];

/// `(mul, add)` of the three chain commands: non-commutative, so a
/// reordered chain produces different bytes.
const CHAIN_COEFS: [(u32, u32); 3] = [(3, 1), (5, 7), (0x9E37_79B9, 11)];

const WAIT: Option<Duration> = Some(Duration::from_secs(10));

/// The producer → consumer chain of the out-of-order tenant.
struct Chain {
    buf: Buffer<u32>,
    kernels: Vec<Arc<dyn Kernel>>,
    /// Expected buffer contents after every chain so far.
    mirror: Vec<u32>,
    got: Vec<u32>,
}

/// One tenant and everything its driver thread touches.
struct Side {
    tenant: Tenant,
    hosts: Vec<HostKernel>,
    devs: Vec<DevKernel>,
    wants: Vec<Vec<Vec<f32>>>,
    scratch: Vec<Vec<Vec<f32>>>,
    io: Buffer<f32>,
    payload: Vec<f32>,
    back: Vec<f32>,
    chain: Option<Chain>,
    seed: u64,
}

fn chain_range() -> NDRange {
    NDRange::d1(IO_N)
}

impl Side {
    /// Set up one tenant: its buffers, first launches, and (out-of-order)
    /// the first chain. Host inputs and oracles are attached afterwards so
    /// their generation stays out of `setup_s`.
    fn build(
        server: &Server,
        cfg: TenantConfig,
        hosts: &[HostKernel],
        seed: u64,
        ooo: bool,
        first: &mut Samples,
    ) -> Result<Side, String> {
        let e = |e: ClError| e.to_string();
        let tenant = server.tenant(cfg);
        let devs = hosts
            .iter()
            .map(|h| h.upload(tenant.context()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(e)?;
        // First launches go through the tenant: admission, gate, plan miss.
        for dk in &devs {
            let t0 = now_ns();
            let ev = tenant.launch(&dk.kernel, dk.range).map_err(e)?;
            let wall = (now_ns() - t0) as f64 / 1e3;
            first.push(
                "queue.first_enqueue_us",
                wall - ev.profiling().execution_s() * 1e6,
            );
        }
        let io = tenant
            .buffer::<f32>(MemFlags::READ_WRITE, IO_N)
            .map_err(e)?;
        let mut side = Side {
            tenant,
            hosts: Vec::new(),
            devs,
            wants: Vec::new(),
            scratch: Vec::new(),
            io,
            payload: vec![0.0; IO_N],
            back: vec![0.0; IO_N],
            chain: None,
            seed,
        };
        if ooo {
            let init: Vec<u32> = {
                let mut rng = Rng::new(seed ^ 0xC4A1);
                (0..IO_N).map(|_| rng.next_u64() as u32).collect()
            };
            let buf = side
                .tenant
                .buffer_from(MemFlags::READ_WRITE, &init)
                .map_err(e)?;
            let kernels = CHAIN_COEFS
                .iter()
                .enumerate()
                .map(|(i, &(mul, add))| {
                    Arc::new(MulAdd {
                        data: buf.clone(),
                        mul,
                        add,
                        iters: 1,
                        label: format!("chain{i}"),
                    }) as Arc<dyn Kernel>
                })
                .collect();
            side.chain = Some(Chain {
                buf,
                kernels,
                mirror: init,
                got: vec![0; IO_N],
            });
            // First submission of each chain kernel.
            side.chain_once(&mut Tracer::new(false), &mut Samples::default(), 0)?;
        }
        Ok(side)
    }

    /// Untimed work before arrival `i`: poison a launch's outputs and its
    /// read-back destination, or draw the payload of a write/read.
    fn prepare(&mut self, i: usize, a: &Arrival) -> Result<(), String> {
        match a.kind {
            k if k < WRITE_READ => {
                poison(&mut self.scratch[k]);
                self.devs[k]
                    .reset(self.tenant.queue(), &self.hosts[k])
                    .map_err(|e| e.to_string())
            }
            WRITE_READ => {
                let mut rng = Rng::new(self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                for x in &mut self.payload {
                    *x = (rng.unit() * 2.0 - 1.0) as f32;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Arrival `a`: the timed work, then its checks. Returns the end stamp,
    /// the bytes moved, and the result.
    fn arrive(
        &mut self,
        a: &Arrival,
        tr: &mut Tracer,
        s: &mut Samples,
        job: u64,
    ) -> (u64, u64, Result<(), String>) {
        let e = |e: ClError| e.to_string();
        match a.kind {
            k if k < WRITE_READ => {
                let dk = &self.devs[k];
                let t0 = now_ns();
                let span = tr.begin_at("serve.launch", Layer::Serve, job, t0);
                let res = self.tenant.launch(&dk.kernel, dk.range);
                let t1 = now_ns();
                tr.end_at(span, t1);
                let res = res.map_err(e).and_then(|ev| {
                    tr.event_children(span, &ev);
                    if tr.is_on() {
                        let p = ev.profiling();
                        let wall = (t1 - t0) as f64 / 1e3;
                        s.push("serve.launch_us", wall);
                        s.push(
                            "serve.gate_overhead_us",
                            wall - (p.completed_ns - p.queued_ns) as f64 / 1e3,
                        );
                        exec_samples(s, dk.key.name(), &ev);
                    }
                    dk.verify(
                        self.tenant.queue(),
                        &self.hosts[k],
                        &self.wants[k],
                        &mut self.scratch[k],
                    )
                });
                (t1, 0, res)
            }
            WRITE_READ => {
                let span = tr.begin("serve.write", Layer::Serve, job);
                let w = self.tenant.write(&self.io, 0, &self.payload);
                if let Ok(ev) = &w {
                    tr.event_children(span, ev);
                }
                tr.end(span);
                let span = tr.begin("serve.read", Layer::Serve, job);
                let r = w.and_then(|_| self.tenant.read(&self.io, 0, &mut self.back));
                if let Ok(ev) = &r {
                    tr.event_children(span, ev);
                }
                tr.end(span);
                let t1 = now_ns();
                let res = r.map_err(e).and_then(|_| {
                    let same = self
                        .back
                        .iter()
                        .zip(&self.payload)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    same.then_some(())
                        .ok_or_else(|| "write/read round trip changed the bytes".to_string())
                });
                (t1, 2 * (IO_N * 4) as u64, res)
            }
            _ => {
                let res = self.chain_once(tr, s, job);
                (now_ns(), 0, res)
            }
        }
    }

    /// Three MulAdd commands on one buffer, each waiting on the previous
    /// one through `submit_kernel` wait lists, then `EventRef::wait`; the
    /// buffer is read back and checked bit-exactly afterwards (untimed).
    fn chain_once(&mut self, tr: &mut Tracer, s: &mut Samples, job: u64) -> Result<(), String> {
        let e = |e: ClError| e.to_string();
        let chain = self.chain.as_mut().ok_or("chain on an in-order tenant")?;
        let q = self.tenant.queue();
        let t0 = now_ns();
        let root = tr.begin_at("sched.chain", Layer::Sched, job, t0);
        let mut events: Vec<EventRef> = Vec::with_capacity(3);
        for k in &chain.kernels {
            let span = tr.begin("sched.submit", Layer::Sched, job);
            let wait: Vec<EventRef> = events.last().cloned().into_iter().collect();
            let t = now_ns();
            let ev = q.submit_kernel(k, chain_range(), &wait).map_err(e);
            let dt = now_ns() - t;
            tr.end(span);
            if tr.is_on() {
                s.push("sched.submit_us", dt as f64 / 1e3);
            }
            events.push(ev?);
        }
        let span = tr.begin("sched.wait", Layer::Sched, job);
        let last = events[2].wait(WAIT).map_err(e);
        let t1 = now_ns();
        let done: Vec<_> = events
            .iter()
            .map(|ev| ev.wait(WAIT))
            .collect::<Result<_, _>>()
            .map_err(e)?;
        for ev in &done {
            tr.event_children(span, ev);
        }
        tr.end_at(span, t1);
        tr.end_at(root, t1);
        last?;
        if tr.is_on() {
            for pair in done.windows(2) {
                let gap = pair[1]
                    .profiling()
                    .started_ns
                    .saturating_sub(pair[0].profiling().completed_ns);
                s.push("sched.dep_gap_us", gap as f64 / 1e3);
            }
            s.push("sched.chain_ms", (t1 - t0) as f64 / 1e6);
        }
        for &(mul, add) in &CHAIN_COEFS {
            muladd_ref(&mut chain.mirror, mul, add);
        }
        q.read_buffer(&chain.buf, 0, &mut chain.got).map_err(e)?;
        if chain.got != chain.mirror {
            return Err("out-of-order chain result differs from its serial order".into());
        }
        Ok(())
    }
}

/// What one driver thread brings back.
struct Driven {
    records: Vec<Record>,
    bytes: Vec<u64>,
    traced: Vec<bool>,
    failures: Vec<String>,
    tracer: Tracer,
    samples: Samples,
}

fn drive_side(side: &mut Side, schedule: &[Arrival], origin: u64, traced: bool) -> Driven {
    let mut tr = Tracer::new(false);
    let mut samples = Samples::default();
    let mut failures = Vec::new();
    let mut bytes = vec![0u64; schedule.len()];
    let side = std::cell::RefCell::new(side);
    let records = loadgen::drive(
        schedule,
        origin,
        |i, a| side.borrow_mut().prepare(i, a),
        |i, a, due, start, prepared| {
            tr.set_on(traced && i % 2 == 1);
            let root = tr.begin_at(JOB, Layer::Host, i as u64, due);
            tr.child(root, "loadgen.wait", Layer::Loadgen, due, start);
            let (end, b, res) = match prepared {
                Err(e) => (now_ns(), 0, Err(format!("prepare: {e}"))),
                Ok(()) => side.borrow_mut().arrive(a, &mut tr, &mut samples, i as u64),
            };
            tr.end_at(root, end);
            bytes[i] = b;
            let ok = match res {
                Ok(()) => true,
                Err(e) => {
                    failures.push(e);
                    false
                }
            };
            (end, ok)
        },
    );
    tr.set_on(false);
    Driven {
        traced: (0..records.len()).map(|i| traced && i % 2 == 1).collect(),
        records,
        bytes,
        failures,
        tracer: tr,
        samples,
    }
}

fn stats_delta(a: &StatsSnapshot, b: &StatsSnapshot) -> [u64; 3] {
    [
        b.backpressure - a.backpressure,
        b.shed - a.shed,
        b.retries - a.retries,
    ]
}

/// Totals over a run's segments.
#[derive(Default)]
struct Totals {
    late: Vec<f64>,
    by_kind: Vec<Vec<f64>>,
    /// Seconds from each segment's opening to its last completion.
    window_s: f64,
    /// Latencies of each segment's arrivals.
    segments: Vec<Vec<f64>>,
    arrivals: u64,
    offered_s: f64,
    /// Pool tasks, steals, injector pops, parks, unparks.
    pool: [u64; 5],
    /// Bytes copied and staging buffers allocated by the tenants' contexts.
    mem: [u64; 2],
    /// Backpressure, shed, retries.
    refusals: [u64; 3],
}

/// The latency-by-kind labels, in arrival-kind order.
const KINDS: [&str; 6] = [
    "square",
    "prefixsum",
    "phimag",
    "rhophi",
    "write_read",
    "chain",
];

pub fn tenant_mix(args: &Args, out: &mut Outcome) {
    let workers = host::nproc();
    let gen = |t: u64| -> Vec<HostKernel> {
        Key::LAUNCH
            .iter()
            .map(|&k| HostKernel::generate(k, args.seed ^ (t << 32)))
            .collect()
    };
    let (mut hosts_a, mut hosts_b) = (gen(1), gen(2));
    let mut wants_a = references(&hosts_a, out, args.trace);
    let mut wants_b = references(&hosts_b, out, false);
    if args.inject_wrong_output {
        wants_a[0][0][0] += 1000.0;
    }
    let segments = SEGMENTS;
    out.per_segment = true;
    let open_s = args.seconds * OPEN_SHARE / segments as f64;
    let twin_s = args.seconds * (1.0 - OPEN_SHARE) / segments as f64;
    out.info(
        "tenants",
        Json::str("in-order + out-of-order, one Server, default ServeConfig"),
    );
    out.info("offered_rate_per_tenant_per_s", Json::Num(RATE_PER_TENANT));
    out.info("latency_limit_ms", Json::Num(LIMIT_MS));
    out.info("open_window_s", Json::Num(open_s * segments as f64));
    out.info("io_bytes", Json::Int((IO_N * 4) as u64));
    out.info("load", Json::str("open loop, Poisson, 2 driver threads"));
    let mut totals = Totals {
        by_kind: vec![Vec::new(); KINDS.len()],
        ..Totals::default()
    };
    for seg in 0..segments as u64 {
        out.segment = seg as u32;
        let mut first = Samples::default();
        let built = timed_setups(out, || {
            let device = Device::native_cpu(workers).map_err(|e| e.to_string())?;
            let server = Server::with_device(device, ServeConfig::default());
            let a = Side::build(
                &server,
                TenantConfig::default().name("in-order"),
                &hosts_a,
                args.seed ^ 1,
                false,
                &mut first,
            )?;
            let ooo = TenantConfig::default()
                .name("out-of-order")
                .out_of_order(true);
            let b = Side::build(&server, ooo, &hosts_b, args.seed ^ 2, true, &mut first)?;
            Ok((server, a, b))
        });
        out.samples.merge(first);
        let Some((server, mut a, mut b)) = built else {
            return;
        };
        for (side, hosts, wants) in [
            (&mut a, &mut hosts_a, &mut wants_a),
            (&mut b, &mut hosts_b, &mut wants_b),
        ] {
            side.scratch = hosts.iter().map(|h| h.output_shapes()).collect();
            side.hosts = std::mem::take(hosts);
            side.wants = std::mem::take(wants);
        }
        if args.trace && seg == 0 {
            crate::ladder::run(server.device(), out);
            coarsen_analysis(server.device(), &a.devs, out);
        }
        let window = Duration::from_secs_f64(open_s);
        let seed = args.seed ^ (seg << 48);
        let sched_a = loadgen::poisson(seed ^ 0xA, RATE_PER_TENANT, window, &WEIGHTS_IN_ORDER);
        let sched_b = loadgen::poisson(seed ^ 0xB, RATE_PER_TENANT, window, &WEIGHTS_OOO);
        open_loop(
            &server,
            &mut a,
            &mut b,
            [&sched_a, &sched_b],
            args.trace,
            out,
            &mut totals,
        );
        totals.offered_s += open_s;
        // The par-for twins replay the out-of-order tenant's arrivals.
        let team = Team::with_pool(Arc::clone(server.device().pool()));
        replay_twins(&mut b, &team, twin_s, out);
        if let Err(e) = b.tenant.queue().finish() {
            out.op(Err(format!("finish: {e}")));
        }
        hosts_a = std::mem::take(&mut a.hosts);
        hosts_b = std::mem::take(&mut b.hosts);
        wants_a = std::mem::take(&mut a.wants);
        wants_b = std::mem::take(&mut b.wants);
        // Tenants, then the server and its pool, dropped on this thread.
        drop((a, b, team));
        drop(server);
    }
    finish(out, totals);
}

/// One segment's open loop: both tenants' schedules from one origin.
fn open_loop(
    server: &Server,
    a: &mut Side,
    b: &mut Side,
    scheds: [&[Arrival]; 2],
    traced: bool,
    out: &mut Outcome,
    t: &mut Totals,
) {
    let pool = server.device().pool();
    let p0 = pool.metrics().snapshot();
    let m0 = [a.tenant.context(), b.tenant.context()].map(|c| c.transfer().stats().snapshot());
    let s0 = [a.tenant.stats(), b.tenant.stats()];
    // Both threads share one origin a little ahead, so neither starts late.
    let origin = now_ns() + 2_000_000;
    let (da, db) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| drive_side(a, scheds[0], origin, traced));
        let tb = scope.spawn(|| drive_side(b, scheds[1], origin, traced));
        (ta.join(), tb.join())
    });
    let pd = pool.metrics().snapshot().delta_since(&p0);
    let m1 = [a.tenant.context(), b.tenant.context()].map(|c| c.transfer().stats().snapshot());
    let s1 = [a.tenant.stats(), b.tenant.stats()];
    let mut last_end = origin;
    t.segments.push(Vec::new());
    for (d, sched) in [(da, scheds[0]), (db, scheds[1])] {
        let Ok(d) = d else {
            out.op(Err("tenant driver thread panicked".into()));
            continue;
        };
        for (i, r) in d.records.iter().enumerate() {
            out.attempted += 1;
            t.arrivals += 1;
            t.late.push(r.late_ns() as f64);
            t.by_kind[sched[i].kind].push(r.latency_ns() as f64);
            last_end = last_end.max(r.end);
            if let Some(seg) = t.segments.last_mut() {
                seg.push(r.latency_ns() as f64);
            }
            if d.traced[i] {
                if r.ok {
                    out.traced_job_ns.push(r.latency_ns() as f64);
                }
            } else {
                out.jobs.push(JobRecord {
                    ns: r.latency_ns(),
                    bytes: d.bytes[i],
                    ok: r.ok,
                    segment: out.segment,
                });
            }
        }
        for f in d.failures {
            out.fail(f);
        }
        out.samples.merge(d.samples);
        out.tracers.push(d.tracer);
    }
    t.window_s += (last_end - origin) as f64 / 1e9;
    let pool_counts = [
        pd.tasks_executed,
        pd.tasks_stolen,
        pd.tasks_from_injector,
        pd.parks,
        pd.unparks,
    ];
    for (acc, v) in t.pool.iter_mut().zip(pool_counts) {
        *acc += v;
    }
    for i in 0..2 {
        let d = m1[i].delta_since(&m0[i]);
        t.mem[0] += d.bytes_copied;
        t.mem[1] += d.staging_allocs;
        for (acc, v) in t.refusals.iter_mut().zip(stats_delta(&s0[i], &s1[i])) {
            *acc += v;
        }
    }
    pool_faults(out, &pd);
}

/// Reduce the segments' totals to metrics and provenance.
fn finish(out: &mut Outcome, t: Totals) {
    out.throughput = crate::outcome::Throughput::Window(t.window_s);
    let per_kind = t
        .by_kind
        .iter()
        .zip(KINDS)
        .map(|(v, name)| {
            let s = stats::sorted(v);
            let us = |q| stats::quantile_sorted(&s, q) / 1e3;
            Json::obj([
                ("kind", Json::str(name)),
                ("arrivals", Json::Int(v.len() as u64)),
                ("p50_us", Json::Num(us(0.5))),
                ("p99_us", Json::Num(us(0.99))),
            ])
        })
        .collect();
    out.info("arrivals", Json::Int(t.arrivals));
    let seg_tails: Vec<f64> = t
        .segments
        .iter()
        .map(|v| stats::tail(v, TAIL_PERCENTILE).value / 1e6)
        .collect();
    out.info(
        "segment_tail_ms",
        Json::Arr(seg_tails.into_iter().map(Json::Num).collect()),
    );
    out.info("latency_by_kind", Json::Arr(per_kind));
    let arrivals = t.arrivals.max(1) as f64;
    let late = stats::sorted(&t.late);
    out.values.insert(
        "loadgen.late_p99_ms".into(),
        stats::quantile_sorted(&late, 0.99) / 1e6,
    );
    out.values.insert(
        "loadgen.offered_per_s".into(),
        t.arrivals as f64 / t.offered_s.max(1e-9),
    );
    let names = [
        "pool.tasks_per_job",
        "pool.steals_per_job",
        "pool.injector_per_job",
        "pool.parks_per_job",
        "pool.unparks_per_job",
    ];
    for (name, v) in names.iter().zip(t.pool) {
        out.values.insert((*name).into(), v as f64 / arrivals);
    }
    if t.pool[0] > 0 {
        out.values.insert(
            "pool.steal_ratio".into(),
            t.pool[1] as f64 / t.pool[0] as f64,
        );
    }
    out.values.insert(
        "mem.bytes_copied_per_job".into(),
        t.mem[0] as f64 / arrivals,
    );
    out.values.insert(
        "mem.staging_allocs_per_job".into(),
        t.mem[1] as f64 / arrivals,
    );
    for (name, v) in ["serve.backpressure", "serve.shed", "serve.retries"]
        .iter()
        .zip(t.refusals)
    {
        out.values.insert((*name).into(), v as f64);
    }
}

/// Each arrival kind through its `par-for` twin, closed-loop on the
/// driver thread: a launch's `openmp*` port, the 40 KB round trip as two
/// host copies, the chain as three `Team` loops. One twin job is one pass
/// over [`TWIN_DECK`], run back to back and checked after the pass, so
/// every twin job does the same work and its median is not the boundary
/// between two kinds.
fn replay_twins(side: &mut Side, team: &Team, seconds: f64, out: &mut Outcome) {
    let deadline = now_ns() + (seconds.max(0.1) * 1e9) as u64;
    let deck = TWIN_DECK;
    let chains = deck.iter().filter(|&&k| k > WRITE_READ).count();
    let mut outs: Vec<Vec<Vec<f32>>> = side.hosts.iter().map(|h| h.output_shapes()).collect();
    let mut staged = vec![0.0f32; IO_N];
    let mut mirror: Vec<u32> = side
        .chain
        .as_ref()
        .map_or_else(Vec::new, |c| c.mirror.clone());
    let mut data = mirror.clone();
    let mut pass = 0usize;
    while now_ns() < deadline {
        pass += 1;
        let _ = side.prepare(
            pass,
            &Arrival {
                due_ns: 0,
                kind: WRITE_READ,
            },
        );
        poison(outs.iter_mut().flatten());
        let t0 = now_ns();
        for &kind in &deck {
            let t = now_ns();
            match kind {
                k if k < WRITE_READ => {
                    let h = &side.hosts[k];
                    h.twin(team, &mut outs[k]);
                    out.samples.push(
                        &format!("parfor.{}_ms", h.key.name()),
                        (now_ns() - t) as f64 / 1e6,
                    );
                }
                WRITE_READ => {
                    staged.copy_from_slice(&side.payload);
                    side.back.copy_from_slice(&staged);
                }
                _ => {
                    for &(mul, add) in &CHAIN_COEFS {
                        team.parallel_for_mut(
                            &mut data,
                            Schedule::Static { chunk: None },
                            |_, x| {
                                *x = x.wrapping_mul(mul).wrapping_add(add);
                            },
                        );
                    }
                }
            }
        }
        let ns = now_ns() - t0;
        for _ in 0..chains {
            for &(mul, add) in &CHAIN_COEFS {
                muladd_ref(&mut mirror, mul, add);
            }
        }
        let res = (0..WRITE_READ)
            .filter(|k| deck.contains(k))
            .try_for_each(|k| {
                let h = &side.hosts[k];
                (0..outs[k].len()).try_for_each(|o| h.key.check(o, &outs[k][o], &side.wants[k][o]))
            })
            .and_then(|()| {
                let same = side
                    .back
                    .iter()
                    .zip(&side.payload)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                same.then_some(())
                    .ok_or_else(|| "twin round trip changed the bytes".to_string())
            })
            .and_then(|()| {
                (data == mirror)
                    .then_some(())
                    .ok_or_else(|| "twin chain differs".to_string())
            });
        match res {
            Ok(()) => {
                out.op(Ok(()));
                out.twin(ns);
            }
            Err(e) => {
                out.op(Err(format!("par-for twin: {e}")));
            }
        }
    }
}
