//! Trace-driven execution invariants (DESIGN.md §10): the structured spans
//! a traced queue records must prove the scheduler's contract — every
//! workgroup chunk scheduled exactly once (a partition of the NDRange),
//! every global id executed exactly once (under stealing and after worker
//! respawn), core placement as pinned, profiling timestamps monotonic on
//! success *and* error paths, and zero spans when tracing is off.
//!
//! Every test uses `queue_with` + an explicit `QueueConfig` (never the
//! environment), so the `CL_TRACE` env test cannot race the others.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cl_kernels::chaos::{reference, ChaosKernel, ChaosMode};
use cl_pool::PinPolicy;
use integration_tests::native_ctx;
use ocl_rt::{
    ClError, Context, Device, GroupCtx, Kernel, MemFlags, NDRange, QueueConfig, SpanKind,
};

fn traced(ctx: &Context) -> ocl_rt::CommandQueue {
    ctx.queue_with(QueueConfig::default().tracing(true))
}

/// Counts executions per flattened global id.
struct CountHits {
    hits: Arc<Vec<AtomicU32>>,
}

impl Kernel for CountHits {
    fn name(&self) -> &str {
        "count_hits"
    }
    fn run_group(&self, g: &mut GroupCtx) {
        g.for_each(|wi| {
            self.hits[wi.global_linear()].fetch_add(1, Ordering::Relaxed);
        });
    }
}

fn count_kernel(n: usize) -> (Arc<Vec<AtomicU32>>, Arc<dyn Kernel>) {
    let hits = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect::<Vec<_>>());
    let k: Arc<dyn Kernel> = Arc::new(CountHits {
        hits: Arc::clone(&hits),
    });
    (hits, k)
}

#[test]
fn chunk_spans_partition_the_ndrange() {
    const N: usize = 4096;
    const WG: usize = 64;
    let ctx = native_ctx();
    let q = traced(&ctx);
    let (hits, k) = count_kernel(N);
    let ev = q.enqueue_kernel(&k, NDRange::d1(N).local1(WG)).unwrap();
    let log = q.trace().expect("tracing enabled");

    let launch = log.last_launch().expect("launch span recorded");
    assert!(launch.ok);
    assert_eq!(launch.label, "count_hits");
    log.verify_chunk_partition(launch.launch, N / WG).unwrap();

    // Native devices schedule one chunk per workgroup, so the chunk count
    // IS the group count, and per-chunk items sum to the launch total.
    let chunks = log.chunks_of(launch.launch);
    assert_eq!(chunks.len(), N / WG);
    assert_eq!(chunks.iter().map(|c| c.items).sum::<u64>(), ev.items);
    assert_eq!(ev.items, N as u64);
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn chunk_count_matches_geometry_in_2d_and_3d() {
    let ctx = native_ctx();
    let q = traced(&ctx);
    let log = q.trace().unwrap();

    let (hits2, k2) = count_kernel(24 * 18);
    q.enqueue_kernel(&k2, NDRange::d2(24, 18).local2(6, 3))
        .unwrap();
    let l2 = log.last_launch().unwrap();
    let groups_2d = (24 / 6) * (18 / 3);
    log.verify_chunk_partition(l2.launch, groups_2d).unwrap();
    assert_eq!(log.chunks_of(l2.launch).len(), groups_2d);
    assert!(hits2.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    let (hits3, k3) = count_kernel(8 * 6 * 4);
    q.enqueue_kernel(&k3, NDRange::d3(8, 6, 4).local3(4, 3, 2))
        .unwrap();
    let l3 = log.last_launch().unwrap();
    let groups_3d = (8 / 4) * (6 / 3) * (4 / 2);
    log.verify_chunk_partition(l3.launch, groups_3d).unwrap();
    assert_eq!(log.chunks_of(l3.launch).len(), groups_3d);
    assert!(hits3.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    // Launch ids are distinct and both partitions coexist in one log.
    assert_ne!(l2.launch, l3.launch);
}

#[test]
fn every_global_id_exactly_once_under_stealing() {
    // Many more single-group chunks than workers forces deque traffic; the
    // exactly-once guarantee must hold regardless of who ran what where.
    const N: usize = 512 * 16;
    const WG: usize = 16;
    let ctx = native_ctx();
    let q = traced(&ctx);
    let log = q.trace().unwrap();
    for round in 0..4 {
        let (hits, k) = count_kernel(N);
        q.enqueue_kernel(&k, NDRange::d1(N).local1(WG)).unwrap();
        let launch = log.last_launch().unwrap();
        log.verify_chunk_partition(launch.launch, N / WG).unwrap();
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "round {round}: a global id ran zero or twice"
        );
    }
    // Steal spans, when present, name a valid worker.
    let workers = ctx.device().pool().workers();
    for s in log.of_kind(SpanKind::Steal) {
        if let Some(w) = s.worker {
            assert!(w < workers, "steal by out-of-range worker {w}");
        }
    }
}

#[test]
fn exactly_once_still_holds_after_fatal_fault_and_respawn() {
    const N: usize = 512;
    const WG: usize = 64;
    let ctx = native_ctx();
    let q = traced(&ctx);
    let log = q.trace().unwrap();

    // Launch 1: a fatal fault retires a worker mid-launch.
    let out = ctx.buffer::<u32>(MemFlags::default(), N).unwrap();
    let bad: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
        out.clone(),
        ChaosMode::FatalAt { gid: 100 },
        N / WG,
    ));
    let err = q
        .enqueue_kernel(&bad, NDRange::d1(N).local1(WG))
        .unwrap_err();
    assert!(matches!(err, ClError::KernelPanicked { .. }));
    let faulted = log.last_launch().unwrap();
    assert!(!faulted.ok, "faulted launch span must carry ok=false");
    // Even the aborted launch's chunk spans partition the range: drained
    // chunks record zero items but still account for their groups.
    log.verify_chunk_partition(faulted.launch, N / WG).unwrap();
    assert!(!log.of_kind(SpanKind::Abort).is_empty());

    // Launch 2 on the same queue: the self-healing enqueue respawns the
    // retired worker (when one actually retired — the fault can also be
    // contained on the helping host thread) and the invariant holds again.
    let (hits, k) = count_kernel(N);
    let ev = q.enqueue_kernel(&k, NDRange::d1(N).local1(WG)).unwrap();
    let healed = log.last_launch().unwrap();
    assert!(healed.ok);
    log.verify_chunk_partition(healed.launch, N / WG).unwrap();
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    if ev.workers_respawned > 0 {
        assert!(
            !log.of_kind(SpanKind::WorkerRespawn).is_empty(),
            "respawn happened but no WorkerRespawn span recorded"
        );
    }

    // And the clean reference workload still computes bit-exactly.
    let clean_out = ctx.buffer::<u32>(MemFlags::default(), N).unwrap();
    let clean: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
        clean_out.clone(),
        ChaosMode::Clean,
        N / WG,
    ));
    q.enqueue_kernel(&clean, NDRange::d1(N).local1(WG)).unwrap();
    let mut host = vec![0u32; N];
    q.read_buffer(&clean_out, 0, &mut host).unwrap();
    assert_eq!(host, reference(N));
}

#[test]
fn pinned_launch_records_expected_core_ids() {
    // A Compact-pinned pool assigns worker i to core i. With the watchdog
    // armed the host never helps execute chunks, so every chunk span comes
    // from a pool worker and must carry that worker's pinned core.
    const WORKERS: usize = 2;
    const N: usize = 2048;
    let dev = Device::native_cpu_pinned(WORKERS, PinPolicy::Compact).unwrap();
    let ctx = Context::new(dev);
    let q = ctx.queue_with(
        QueueConfig::default()
            .tracing(true)
            .launch_timeout(Duration::from_secs(60)),
    );
    let (hits, k) = count_kernel(N);
    q.enqueue_kernel(&k, NDRange::d1(N).local1(64)).unwrap();
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

    let log = q.trace().unwrap();
    let launch = log.last_launch().unwrap();
    let chunks = log.chunks_of(launch.launch);
    log.verify_chunk_partition(launch.launch, N / 64).unwrap();
    let n_cores = cl_pool::available_cores();
    for c in &chunks {
        let w = c
            .worker
            .expect("armed watchdog: chunks only run on workers");
        assert!(w < WORKERS);
        assert_eq!(
            c.core,
            Some(w % n_cores),
            "Compact pins worker {w} to core {}, chunk says {:?}",
            w % n_cores,
            c.core
        );
    }
}

#[test]
fn disabled_tracing_records_no_spans_anywhere() {
    const N: usize = 1024;
    let ctx = native_ctx();

    // An untraced queue has no log at all.
    let plain = ctx.queue_with(QueueConfig::default());
    assert!(plain.trace().is_none());
    let (_, k) = count_kernel(N);
    let ev = plain.enqueue_kernel(&k, NDRange::d1(N).local1(64)).unwrap();
    // Profiling timestamps are populated regardless of tracing.
    assert!(ev.profiling().is_monotonic());
    assert!(ev.profiling().completed_ns > 0);

    // A traced queue sharing the context does not absorb the untraced
    // queue's activity: the pool sink is installed only while the traced
    // queue's own launches are in flight.
    let q = traced(&ctx);
    let log = q.trace().unwrap();
    let (_, k2) = count_kernel(N);
    plain
        .enqueue_kernel(&k2, NDRange::d1(N).local1(64))
        .unwrap();
    let mut sink = vec![0u32; 4];
    let buf = ctx.buffer::<u32>(MemFlags::default(), 4).unwrap();
    plain.read_buffer(&buf, 0, &mut sink).unwrap();
    assert!(
        log.is_empty(),
        "untraced queue leaked {} spans into a traced queue's log",
        log.len()
    );
}

#[test]
fn cl_trace_env_enables_tracing() {
    let tracing = |value: Option<&str>| {
        QueueConfig::from_vars(|name| value.filter(|_| name == "CL_TRACE").map(String::from))
            .tracing
    };
    assert!(tracing(Some("1")));
    assert!(tracing(Some("true")));
    assert!(!tracing(Some("0")));
    assert!(!tracing(None));
}

#[test]
fn profiling_is_monotonic_on_success_and_both_error_paths() {
    const N: usize = 512;
    const WG: usize = 64;
    let ctx = native_ctx();

    // Success path: the event's own timestamps.
    let q = traced(&ctx);
    let log = q.trace().unwrap();
    let (_, k) = count_kernel(N);
    let ev = q.enqueue_kernel(&k, NDRange::d1(N).local1(WG)).unwrap();
    let p = ev.profiling();
    assert!(p.is_monotonic(), "{p:?}");
    assert!(p.started_ns > 0 && p.execution_s() >= 0.0 && p.overhead_s() >= 0.0);
    assert_eq!(log.last_launch().unwrap().profiling, p);

    // KernelPanicked path: no event comes back, so the launch span carries
    // the timestamps — still monotonic.
    let out = ctx.buffer::<u32>(MemFlags::default(), N).unwrap();
    let panicky: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
        out.clone(),
        ChaosMode::PanicAt { gid: 65 },
        N / WG,
    ));
    let err = q
        .enqueue_kernel(&panicky, NDRange::d1(N).local1(WG))
        .unwrap_err();
    assert!(matches!(err, ClError::KernelPanicked { .. }));
    let span = log.last_launch().unwrap();
    assert!(!span.ok);
    assert!(span.profiling.is_monotonic(), "{:?}", span.profiling);

    // LaunchTimedOut path: the watchdog aborts a stalled launch; the
    // timestamps must still satisfy queued ≤ submitted ≤ started ≤
    // completed (a launch abandoned before any chunk started clamps).
    let wq = ctx.queue_with(
        QueueConfig::default()
            .tracing(true)
            .launch_timeout(Duration::from_millis(100)),
    );
    let wlog = wq.trace().unwrap();
    let stall: Arc<dyn Kernel> = Arc::new(ChaosKernel::new(
        out.clone(),
        ChaosMode::StallUntilAbort { group: 1 },
        N / WG,
    ));
    let err = wq
        .enqueue_kernel(&stall, NDRange::d1(N).local1(WG))
        .unwrap_err();
    assert!(matches!(err, ClError::LaunchTimedOut { .. }));
    let span = wlog.last_launch().unwrap();
    assert!(!span.ok);
    assert!(span.profiling.is_monotonic(), "{:?}", span.profiling);
    assert!(
        wlog.of_kind(SpanKind::Abort)
            .iter()
            .any(|s| s.label == "timeout"),
        "watchdog abort span missing"
    );
}

#[test]
fn barrier_and_transfer_spans_land_in_the_log() {
    let ctx = native_ctx();
    let q = traced(&ctx);
    let log = q.trace().unwrap();

    // A barrier-using kernel: one Barrier span per phase per group, and the
    // span count equals the event's aggregate barrier count.
    let built = cl_kernels::apps::reduction::build(&ctx, 4096, 64, 0xB0);
    let ev = q.enqueue_kernel(&built.kernel, built.range).unwrap();
    assert!(ev.barriers > 0);
    let launch = log.last_launch().unwrap();
    let barrier_spans = log
        .of_kind(SpanKind::Barrier)
        .into_iter()
        .filter(|s| s.launch == launch.launch)
        .count() as u64;
    assert_eq!(barrier_spans, ev.barriers);
    built.verify(&q).unwrap();

    // Transfers: write, read and map each record a Transfer span labelled
    // with the command and carrying the byte count.
    let buf = ctx.buffer::<f32>(MemFlags::default(), 256).unwrap();
    let wev = q.write_buffer(&buf, 0, &vec![1.0f32; 256]).unwrap();
    assert!(wev.profiling().is_monotonic());
    let mut host = vec![0.0f32; 256];
    q.read_buffer(&buf, 0, &mut host).unwrap();
    let (m, mev) = q.map_buffer(&buf).unwrap();
    assert_eq!(m[0], 1.0);
    drop(m);
    assert!(mev.profiling().is_monotonic());

    let transfers = log.of_kind(SpanKind::Transfer);
    let labels: Vec<&str> = transfers.iter().map(|s| s.label.as_str()).collect();
    assert!(labels.contains(&"write-buffer"), "{labels:?}");
    assert!(labels.contains(&"read-buffer"), "{labels:?}");
    assert!(labels.contains(&"map-buffer"), "{labels:?}");
    assert!(transfers
        .iter()
        .all(|s| s.items > 0 && s.launch == 0 && s.ok));
}

#[test]
fn chrome_export_covers_the_whole_log() {
    let ctx = native_ctx();
    let q = traced(&ctx);
    let log = q.trace().unwrap();
    let (_, k) = count_kernel(1024);
    q.enqueue_kernel(&k, NDRange::d1(1024).local1(64)).unwrap();
    let buf = ctx.buffer::<u32>(MemFlags::default(), 64).unwrap();
    q.fill_buffer(&buf, 7).unwrap();

    let json = log.to_chrome_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    // One object per span, braces balanced.
    assert_eq!(json.matches("\"ph\":").count(), log.len());
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"name\":\"launch:count_hits\""));
    assert!(json.contains("\"cat\":\"chunk\""));
    assert!(json.contains("\"name\":\"transfer:write-buffer\""));
}
