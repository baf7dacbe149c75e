//! Property tests for the out-of-order scheduler: random command DAGs
//! (user events, markers, barriers, explicit wait lists) replayed across
//! shuffled seeds and all three device kinds must complete **bit-exactly**
//! vs the in-order reference and in an order that **linearizes** the event
//! graph (completion ticks strictly increase along every edge, every event
//! completes exactly once). Plus the deadlock/misuse surface: cyclic wait
//! lists, abandoned user events, `finish()` against a command stuck on an
//! unsignalled gate, and a queue whose last handle dies on a pool worker.

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cl_kernels::sched::{muladd_ref, MulAdd};
use cl_pool::{PoolConfig, ThreadPool};
use cl_util::XorShift;
use ocl_rt::{
    check_linearization, user_event, ClError, Context, Device, EventRef, GroupCtx, Kernel,
    MemFlags, NDRange, QueueConfig,
};
use perf_model::{CpuSpec, GpuSpec};

const LEN: usize = 128;

fn devices() -> Vec<(&'static str, Device)> {
    vec![
        ("native-cpu", Device::native_cpu(2).unwrap()),
        ("modeled-cpu", Device::modeled_cpu(CpuSpec::xeon_e5645())),
        ("modeled-gpu", Device::modeled_gpu(GpuSpec::gtx580())),
    ]
}

fn muladd(buf: &ocl_rt::Buffer<u32>, mul: u32, add: u32, label: String) -> Arc<dyn Kernel> {
    Arc::new(MulAdd {
        data: buf.clone(),
        mul,
        add,
        iters: 1,
        label,
    })
}

/// One random DAG on one device: kernels over a few buffers with random
/// explicit wait edges, an occasional marker/barrier, and an occasional
/// user-event gate. Returns violations (empty = clean).
fn random_dag_round(ctx: &Context, seed: u64) -> Vec<String> {
    let mut rng = XorShift::seed_from_u64(seed);
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let n_bufs = rng.range_usize(1, 4);
    let bufs: Vec<_> = (0..n_bufs)
        .map(|_| ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap())
        .collect();
    let init: Vec<u32> = (0..LEN as u32).collect();
    let mut reference = vec![init.clone(); n_bufs];
    for b in &bufs {
        q.write_buffer(b, 0, &init).unwrap();
    }

    let n_nodes = rng.range_usize(5, 11);
    let mut events: Vec<EventRef> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut gates = Vec::new();
    let mut last_on_buf: Vec<Option<usize>> = vec![None; n_bufs];
    for i in 0..n_nodes {
        let roll = rng.next_f64();
        if i > 0 && roll < 0.1 {
            edges.extend((0..i).map(|p| (p, i)));
            events.push(q.submit_marker(&[]).unwrap());
            continue;
        }
        if i > 0 && roll < 0.18 {
            edges.extend((0..i).map(|p| (p, i)));
            edges.extend((i + 1..n_nodes).map(|l| (i, l)));
            events.push(q.submit_barrier(&[]).unwrap());
            continue;
        }
        let buf = rng.range_usize(0, n_bufs);
        let (mul, add) = (3 + 2 * rng.range_u32(100), 1 + rng.range_u32(100));
        let mut wait = Vec::new();
        if i > 0 && rng.chance(0.35) {
            let from = rng.range_usize(0, i);
            wait.push(events[from].clone());
            edges.push((from, i));
        }
        if rng.chance(0.15) {
            let ue = user_event();
            wait.push(ue.event());
            gates.push((ue, i));
        }
        if let Some(prev) = last_on_buf[buf] {
            edges.push((prev, i));
        }
        last_on_buf[buf] = Some(i);
        muladd_ref(&mut reference[buf], mul, add);
        let k = muladd(&bufs[buf], mul, add, format!("n{i:02}"));
        events.push(q.submit_kernel(&k, NDRange::d1(LEN), &wait).unwrap());
    }
    for (ue, gated) in gates {
        edges.push((events.len(), gated));
        events.push(ue.event());
        ue.signal();
    }

    let mut violations = Vec::new();
    if let Err(e) = q.finish() {
        violations.push(format!("finish failed: {e}"));
    }
    for (bi, b) in bufs.iter().enumerate() {
        let mut got = vec![0u32; LEN];
        q.read_buffer(b, 0, &mut got).unwrap();
        if got != reference[bi] {
            violations.push(format!("buffer {bi} not bit-exact vs in-order reference"));
        }
    }
    violations.extend(check_linearization(&events, &edges));
    violations
}

#[test]
fn random_dags_linearize_on_every_device_kind() {
    for (name, device) in devices() {
        let ctx = Context::new(device);
        for seed in 0..12u64 {
            let violations = random_dag_round(&ctx, 0xD46 ^ (seed * 977));
            assert!(
                violations.is_empty(),
                "[{name}] seed {seed}: {violations:#?}"
            );
        }
    }
}

#[test]
fn deep_chain_runs_in_submit_order() {
    // A 20-deep same-buffer chain: every edge auto-inferred, result equal
    // to the in-order composition (MulAdd applications do not commute).
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    let init: Vec<u32> = (0..LEN as u32).collect();
    q.write_buffer(&buf, 0, &init).unwrap();
    let mut want = init;
    let mut events = Vec::new();
    for i in 0..20u32 {
        let (mul, add) = (3 + 2 * i, 1 + i);
        muladd_ref(&mut want, mul, add);
        let k = muladd(&buf, mul, add, format!("c{i:02}"));
        events.push(q.submit_kernel(&k, NDRange::d1(LEN), &[]).unwrap());
    }
    q.finish().unwrap();
    let mut got = vec![0u32; LEN];
    q.read_buffer(&buf, 0, &mut got).unwrap();
    assert_eq!(got, want);
    let edges: Vec<_> = (0..19).map(|i| (i, i + 1)).collect();
    assert!(check_linearization(&events, &edges).is_empty());
}

#[test]
fn cyclic_wait_list_is_rejected_at_enqueue() {
    // queue command gated on user event; arming the user event to signal
    // after that command would close the cycle.
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    q.write_buffer(&buf, 0, &vec![1u32; LEN]).unwrap();
    let gate = user_event();
    let k = muladd(&buf, 3, 7, "gated".into());
    let ev = q
        .submit_kernel(&k, NDRange::d1(LEN), &[gate.event()])
        .unwrap();
    let err = gate
        .signal_after(std::slice::from_ref(&ev))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, ClError::CircularWait { .. }), "{err:?}");
    // The rejected arm drops the handle; the abandoned-event guard fails
    // the gate so the queued command errors out instead of deadlocking.
    assert!(matches!(
        ev.wait(Some(Duration::from_secs(10))),
        Err(ClError::DependencyFailed { .. })
    ));
    let _ = q.finish();
}

#[test]
fn abandoned_user_event_fails_dependents_not_hangs() {
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    q.write_buffer(&buf, 0, &vec![1u32; LEN]).unwrap();
    let gate = user_event();
    let k = muladd(&buf, 3, 7, "gated".into());
    let ev = q
        .submit_kernel(&k, NDRange::d1(LEN), &[gate.event()])
        .unwrap();
    drop(gate); // never signalled
    match ev.wait(Some(Duration::from_secs(10))) {
        Err(ClError::DependencyFailed { source, .. }) => {
            assert!(matches!(*source, ClError::UserEventAbandoned { .. }));
        }
        other => panic!("expected DependencyFailed(UserEventAbandoned), got {other:?}"),
    }
    q.finish().unwrap();
}

#[test]
fn gated_command_outlives_its_dropped_queue() {
    // `clReleaseCommandQueue` does not cancel enqueued commands: a command
    // still waiting on its gate runs once the gate opens, even though the
    // host has released every handle to the queue that took it.
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    let mut want: Vec<u32> = (0..LEN as u32).collect();
    q.write_buffer(&buf, 0, &want).unwrap();
    let gate = user_event();
    let ev = q
        .submit_kernel(
            &muladd(&buf, 3, 7, "gated".into()),
            NDRange::d1(LEN),
            &[gate.event()],
        )
        .unwrap();
    drop(q);
    gate.signal();
    assert!(
        ev.wait(Some(Duration::from_secs(10))).is_ok(),
        "the gated command was abandoned with its queue"
    );
    muladd_ref(&mut want, 3, 7);
    let mut got = vec![0u32; LEN];
    ctx.queue().read_buffer(&buf, 0, &mut got).unwrap();
    assert_eq!(got, want);
}

#[test]
fn finish_watchdog_drains_queue_stuck_on_user_event() {
    // PR 2 watchdog story extended to the DAG: finish() must not hang on a
    // command gated on a user event nobody signals — it fails the stuck
    // subgraph and reports FinishTimedOut.
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(
        QueueConfig::default()
            .out_of_order(true)
            .launch_timeout(Duration::from_millis(200)),
    );
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    q.write_buffer(&buf, 0, &vec![1u32; LEN]).unwrap();
    let gate = user_event();
    let stuck = q
        .submit_kernel(
            &muladd(&buf, 3, 7, "stuck".into()),
            NDRange::d1(LEN),
            &[gate.event()],
        )
        .unwrap();
    let dependent = q
        .submit_kernel(
            &muladd(&buf, 5, 11, "dependent".into()),
            NDRange::d1(LEN),
            &[],
        )
        .unwrap();
    let err = q.finish().unwrap_err();
    assert!(matches!(err, ClError::FinishTimedOut { .. }), "{err:?}");
    for ev in [&stuck, &dependent] {
        assert!(matches!(
            ev.wait(Some(Duration::from_secs(10))),
            Err(ClError::DependencyFailed { .. })
        ));
    }
    // The queue drained: later work proceeds normally.
    gate.signal();
    let mut got = vec![0u32; LEN];
    q.read_buffer(&buf, 0, &mut got).unwrap();
    assert!(got.iter().all(|&x| x == 1));
    q.finish().unwrap();
}

#[test]
fn in_order_queue_accepts_wait_lists_and_sync_points() {
    // The submit_* surface degenerates gracefully on an in-order queue:
    // wait lists are awaited, markers/barriers are recorded sync points,
    // events come back complete.
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue(); // in-order
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    q.write_buffer(&buf, 0, &vec![1u32; LEN]).unwrap();
    let a = q
        .submit_kernel(&muladd(&buf, 3, 7, "a".into()), NDRange::d1(LEN), &[])
        .unwrap();
    let m = q.submit_marker(std::slice::from_ref(&a)).unwrap();
    let b = q
        .submit_kernel(
            &muladd(&buf, 5, 11, "b".into()),
            NDRange::d1(LEN),
            std::slice::from_ref(&m),
        )
        .unwrap();
    let bar = q.submit_barrier(&[]).unwrap();
    for ev in [&a, &m, &b, &bar] {
        assert!(ev.completion_tick().is_some());
        assert_eq!(ev.completions(), 1);
    }
    assert!(check_linearization(&[a, m, b], &[(0, 1), (1, 2)]).is_empty());
    let mut got = vec![0u32; LEN];
    q.read_buffer(&buf, 0, &mut got).unwrap();
    assert!(got.iter().all(|&x| x == (3 + 7) * 5 + 11));
    q.finish().unwrap();
}

#[test]
fn failed_dependency_fails_only_the_dependent_subgraph() {
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let b1 = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    let b2 = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    q.write_buffer(&b1, 0, &vec![1u32; LEN]).unwrap();
    q.write_buffer(&b2, 0, &vec![1u32; LEN]).unwrap();
    let gate = user_event();
    // Chain of two on b1 behind the gate; independent command on b2.
    let c1 = q
        .submit_kernel(
            &muladd(&b1, 3, 7, "c1".into()),
            NDRange::d1(LEN),
            &[gate.event()],
        )
        .unwrap();
    let c2 = q
        .submit_kernel(&muladd(&b1, 5, 11, "c2".into()), NDRange::d1(LEN), &[])
        .unwrap();
    let free = q
        .submit_kernel(&muladd(&b2, 7, 13, "free".into()), NDRange::d1(LEN), &[])
        .unwrap();
    gate.fail(ClError::DeviceUnavailable("host gave up".into()));
    // The whole gated subgraph fails with DependencyFailed...
    for ev in [&c1, &c2] {
        assert!(matches!(
            ev.wait(Some(Duration::from_secs(10))),
            Err(ClError::DependencyFailed { .. })
        ));
    }
    // ...while the independent command completes and its bytes land.
    assert!(free.wait(Some(Duration::from_secs(10))).is_ok());
    let _ = q.finish();
    let mut got = vec![0u32; LEN];
    q.read_buffer(&b2, 0, &mut got).unwrap();
    assert!(got.iter().all(|&x| x == 7 + 13));
}

#[test]
fn writable_map_drains_a_pending_writer() {
    // The host may read and write a writable mapping from the moment it
    // returns, so on an out-of-order queue `map_buffer_mut` must wait for a
    // pending kernel that writes the mapped bytes, as `map_buffer` does.
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let buf = ctx.buffer::<u32>(MemFlags::default(), LEN).unwrap();
    let mut want = vec![1u32; LEN];
    q.write_buffer(&buf, 0, &want).unwrap();
    let gate = user_event();
    let ev = q
        .submit_kernel(
            &muladd(&buf, 3, 7, "gated".into()),
            NDRange::d1(LEN),
            &[gate.event()],
        )
        .unwrap();
    let signaller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        gate.signal();
    });
    {
        let (m, _) = q.map_buffer_mut(&buf).unwrap();
        assert!(
            ev.completion_tick().is_some(),
            "map_buffer_mut returned while the kernel writing its bytes was pending"
        );
        muladd_ref(&mut want, 3, 7);
        assert_eq!(&m[..], &want[..]);
    }
    signaller.join().unwrap();
    q.finish().unwrap();
}

struct NoSink;

impl cl_pool::PoolEventSink for NoSink {
    fn on_steal(&self, _: Option<cl_pool::WorkerId>) {}
    fn on_worker_lost(&self, _: cl_pool::WorkerId) {}
    fn on_worker_respawned(&self, _: cl_pool::WorkerId) {}
}

/// Blocks its workgroup until the host sends (or hangs up).
struct Hold(Mutex<mpsc::Receiver<()>>);

impl Kernel for Hold {
    fn name(&self) -> &str {
        "hold"
    }
    fn run_group(&self, _g: &mut GroupCtx) {
        let _ = self.0.lock().unwrap().recv();
    }
}

#[test]
fn last_queue_handle_released_on_a_pool_worker_does_not_self_join() {
    // Regression: once the host has dropped the queue, the context and
    // every device handle, the pool task running an out-of-order command
    // holds the last `Arc<Scheduler>`, and through it the last
    // `Arc<ThreadPool>`. Dropping it shuts the pool down from one of its
    // own workers, which must not join itself.
    const PREFIX: &str = "cl-pool-teardown";
    let panics = Arc::new(Mutex::new(Vec::<String>::new()));
    let seen = Arc::clone(&panics);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        if let Some(name) = thread.name().filter(|n| n.starts_with(PREFIX)) {
            seen.lock().unwrap().push(format!("{name}: {info}"));
        }
        prev(info);
    }));

    let cfg = PoolConfig {
        name_prefix: PREFIX.into(),
        ..PoolConfig::default().workers(2)
    };
    let device = Device::native_with_pool(Arc::new(ThreadPool::new(cfg).unwrap()));
    let pool = Arc::downgrade(device.pool());
    // The pool's shared state drops the sink only after its last worker
    // has exited, so this Weak dying means shutdown has run to the end.
    let sink = {
        let sink: Arc<dyn cl_pool::PoolEventSink> = Arc::new(NoSink);
        device.pool().set_event_sink(Arc::clone(&sink));
        Arc::downgrade(&sink)
    };

    let ctx = Context::new(device);
    let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let (open, held) = mpsc::channel();
    let hold: Arc<dyn Kernel> = Arc::new(Hold(Mutex::new(held)));
    let gate = user_event();
    let ev = q
        .submit_kernel(&hold, NDRange::d1(1), &[gate.event()])
        .unwrap();
    // Signalling dispatches the command onto the pool, where it blocks
    // until every host handle is gone.
    gate.signal();
    drop((hold, q, ctx));
    open.send(()).unwrap();

    assert!(ev.wait(Some(Duration::from_secs(10))).is_ok());
    let t0 = Instant::now();
    while pool.strong_count() > 0 || sink.strong_count() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the pool outlived its last queue handle"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let panics = panics.lock().unwrap();
    assert!(panics.is_empty(), "pool workers panicked: {panics:?}");
}
