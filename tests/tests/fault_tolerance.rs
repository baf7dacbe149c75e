//! Fault-tolerant execution end to end: panic containment, barrier abort,
//! the launch watchdog, and worker self-healing (DESIGN.md §9), driven
//! through the public API with the `cl_kernels::chaos` fault injectors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_kernels::chaos::{reference, ChaosKernel, ChaosMode};
use integration_tests::{native_ctx, reported_gid};
use ocl_rt::{Buffer, ClError, Context, Kernel, MemFlags, NDRange, QueueConfig};

fn chaos(
    ctx: &Context,
    n: usize,
    mode: ChaosMode,
    groups: usize,
) -> (Buffer<u32>, Arc<dyn Kernel>) {
    let out = ctx.buffer::<u32>(MemFlags::default(), n).unwrap();
    let k: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(out.clone(), mode, groups));
    (out, k)
}

fn read_all(q: &ocl_rt::CommandQueue, buf: &Buffer<u32>, n: usize) -> Vec<u32> {
    let mut host = vec![0u32; n];
    q.read_buffer(buf, 0, &mut host).unwrap();
    host
}

#[test]
fn panic_is_contained_and_names_the_exact_workitem() {
    const N: usize = 1024;
    let ctx = native_ctx();
    let q = ctx.queue();
    let (_out, k) = chaos(&ctx, N, ChaosMode::PanicAt { gid: 517 }, N / 64);
    let err = q.enqueue_kernel(&k, NDRange::d1(N).local1(64)).unwrap_err();
    match err {
        ClError::KernelPanicked {
            kernel,
            gid,
            message,
        } => {
            assert_eq!(kernel, "chaos");
            assert_eq!(gid, reported_gid(ctx.device(), 517, 64));
            assert!(message.contains("injected panic at gid 517"), "{message}");
            assert!(message.contains("workgroup 8"), "{message}");
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
    // The same queue keeps working, bit-exactly.
    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, N / 64);
    q.enqueue_kernel(&clean, NDRange::d1(N).local1(64)).unwrap();
    assert_eq!(read_all(&q, &out, N), reference(N));
}

#[test]
fn exploding_panic_payload_is_contained() {
    const N: usize = 256;
    let ctx = native_ctx();
    let q = ctx.queue();
    let (_out, k) = chaos(&ctx, N, ChaosMode::PayloadBomb { gid: 33 }, N / 32);
    let err = q.enqueue_kernel(&k, NDRange::d1(N).local1(32)).unwrap_err();
    match err {
        ClError::KernelPanicked { gid, message, .. } => {
            assert_eq!(gid, reported_gid(ctx.device(), 33, 32));
            assert!(message.contains("contained"), "{message}");
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, N / 32);
    q.enqueue_kernel(&clean, NDRange::d1(N).local1(32)).unwrap();
    assert_eq!(read_all(&q, &out, N), reference(N));
}

#[test]
fn barrier_desync_releases_parked_groups_and_queue_recovers() {
    // Four workgroups rendezvous on a cross-group barrier; group 0 panics
    // instead of arriving. The abort protocol must release the parked
    // peers promptly — not leave them (and the enqueue) wedged.
    const N: usize = 4 * 32;
    let ctx = native_ctx();
    let q = ctx.queue();
    let (_out, k) = chaos(&ctx, N, ChaosMode::BarrierDesync { panic_group: 0 }, 4);
    let t0 = Instant::now();
    let err = q.enqueue_kernel(&k, NDRange::d1(N).local1(32)).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "parked groups not released: {elapsed:?}"
    );
    match err {
        ClError::KernelPanicked {
            kernel, message, ..
        } => {
            assert_eq!(kernel, "chaos");
            assert!(message.contains("deserted"), "{message}");
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
    // Re-enqueue a healthy kernel on the SAME queue: bit-exact against a
    // fresh queue on a fresh context.
    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, 4);
    q.enqueue_kernel(&clean, NDRange::d1(N).local1(32)).unwrap();
    let survivors = read_all(&q, &out, N);

    let fresh_ctx = native_ctx();
    let fresh_q = fresh_ctx.queue();
    let (fresh_out, fresh_clean) = chaos(&fresh_ctx, N, ChaosMode::Clean, 4);
    fresh_q
        .enqueue_kernel(&fresh_clean, NDRange::d1(N).local1(32))
        .unwrap();
    assert_eq!(survivors, read_all(&fresh_q, &fresh_out, N));
    assert_eq!(survivors, reference(N));
}

#[test]
fn watchdog_kills_a_stalled_launch_and_queue_survives() {
    const N: usize = 512;
    let ctx = native_ctx();
    let timeout = Duration::from_millis(100);
    let q = ctx.queue_with(QueueConfig::default().launch_timeout(timeout));
    let (_out, k) = chaos(&ctx, N, ChaosMode::StallUntilAbort { group: 1 }, N / 64);
    let t0 = Instant::now();
    let err = q.enqueue_kernel(&k, NDRange::d1(N).local1(64)).unwrap_err();
    let elapsed = t0.elapsed();
    match err {
        ClError::LaunchTimedOut {
            kernel,
            timeout: reported,
        } => {
            assert_eq!(kernel, "chaos");
            assert_eq!(reported, timeout);
        }
        other => panic!("expected LaunchTimedOut, got {other:?}"),
    }
    assert!(
        elapsed >= timeout,
        "watchdog fired before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "stalled launch not abandoned: {elapsed:?}"
    );
    // The stalled group observed the abort signal and unwedged; the queue
    // (timeout still armed) keeps executing healthy launches.
    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, N / 64);
    q.enqueue_kernel(&clean, NDRange::d1(N).local1(64)).unwrap();
    assert_eq!(read_all(&q, &out, N), reference(N));
}

#[test]
fn fatal_fault_retires_a_worker_and_the_next_enqueue_heals_it() {
    const N: usize = 512;
    let ctx = native_ctx();
    let pool = Arc::clone(ctx.device().pool());
    let q = ctx.queue();
    let (_out, k) = chaos(&ctx, N, ChaosMode::FatalAt { gid: 100 }, N / 64);
    let err = q.enqueue_kernel(&k, NDRange::d1(N).local1(64)).unwrap_err();
    match err {
        ClError::KernelPanicked { gid, message, .. } => {
            assert_eq!(gid, reported_gid(ctx.device(), 100, 64));
            assert!(message.contains("fatal"), "{message}");
        }
        other => panic!("expected KernelPanicked, got {other:?}"),
    }
    // Worker retirement is asynchronous (the worker unwinds after the
    // launch latch releases the host); wait for it to land. The fault may
    // also have been contained on the helping host thread, in which case
    // no worker retires — both are valid outcomes of the device-lost model.
    let deadline = Instant::now() + Duration::from_secs(2);
    while pool.lost_workers() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    let lost = pool.lost_workers();

    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, N / 64);
    let ev = q.enqueue_kernel(&clean, NDRange::d1(N).local1(64)).unwrap();
    if lost > 0 {
        assert!(
            ev.workers_respawned >= 1,
            "dead worker not respawned by the next enqueue"
        );
    }
    assert_eq!(pool.lost_workers(), 0, "no worker stays lost");
    assert_eq!(read_all(&q, &out, N), reference(N));
    assert_eq!(
        pool.metrics().snapshot().workers_respawned,
        pool.metrics().snapshot().workers_lost,
        "every lost worker was replaced"
    );
}

#[test]
fn launch_timeout_comes_from_the_environment() {
    let timeout = |value: Option<&str>| {
        QueueConfig::from_vars(|name| {
            value
                .filter(|_| name == "CL_LAUNCH_TIMEOUT_MS")
                .map(String::from)
        })
        .launch_timeout
    };
    assert_eq!(timeout(Some("60000")), Some(Duration::from_secs(60)));
    assert_eq!(timeout(Some("0")), None);
    assert_eq!(timeout(None), None);

    // And the armed queue still runs healthy kernels to completion.
    const N: usize = 256;
    let ctx = native_ctx();
    let q = ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)));
    let (out, clean) = chaos(&ctx, N, ChaosMode::Clean, N / 32);
    let ev = q.enqueue_kernel(&clean, NDRange::d1(N).local1(32)).unwrap();
    assert_eq!(ev.panics, 0);
    assert_eq!(read_all(&q, &out, N), reference(N));
}

/// The enqueuing thread is its own launch's watchdog: an armed launch,
/// stalled until its deadline, runs without any extra thread.
#[cfg(target_os = "linux")]
#[test]
fn an_armed_launch_starts_no_thread() {
    const N: usize = 512;
    let ctx = native_ctx();
    let q = ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_millis(300)));
    let (_out, k) = chaos(&ctx, N, ChaosMode::StallUntilAbort { group: 1 }, N / 64);
    let launch = std::thread::spawn(move || q.enqueue_kernel(&k, NDRange::d1(N).local1(64)));
    std::thread::sleep(Duration::from_millis(100));
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect();
    assert!(
        !names.iter().any(|name| name == "cl-watchdog"),
        "threads during an armed launch: {names:?}"
    );
    assert!(matches!(
        launch.join().unwrap(),
        Err(ClError::LaunchTimedOut { .. })
    ));
}
