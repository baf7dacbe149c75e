//! The NDRange execution engine, with fault containment.
//!
//! Native devices: one dispatch *chunk* per workgroup — real per-workgroup
//! scheduling overhead, the quantity Figures 1/3 measure. Modeled devices:
//! the kernel still executes (so outputs are correct and testable), but in
//! coarse chunks for speed, and the event reports the analytic model's
//! time for the *device being modeled*.
//!
//! ## Claim-based dispatch
//!
//! A launch does not enqueue one boxed pool task per chunk (that costs an
//! allocation plus an injector lock round-trip *per workgroup* — it was
//! the dominant term in `cl-bench dispatch/*`). Instead the chunks live in
//! an atomic [`cl_pool::ChunkSource`] inside the launch state, and the
//! launch fans out at most `workers` claim-loop tasks (one batched
//! submit). Every executor — pool worker or helping host — claims chunks
//! with one `fetch_add` each until the source is dry. Chunk identity,
//! per-chunk trace spans, and the completion latch are untouched: each
//! claimed chunk still runs and is accounted exactly once.
//!
//! ## Fault containment (DESIGN.md §9)
//!
//! Every workgroup chunk runs inside `catch_unwind`. A panic is captured
//! into the launch's [`LaunchFault`] (first fault wins) together with the
//! faulting global id and worker, the per-launch [`AbortSignal`] trips, and
//! the enqueue call returns [`ClError::KernelPanicked`] instead of
//! unwinding. Chunks observe the signal at their boundaries and drain as
//! no-ops; barrier-parked peers are released through
//! `CentralBarrier::wait_abortable`. A [`FatalFault`] payload additionally
//! retires the worker (device-lost model) — the queue respawns it on the
//! next enqueue. An optional deadline trips the same abort path for stalls
//! the panic path cannot see and returns [`ClError::LaunchTimedOut`]; the
//! enqueuing thread itself is the watchdog, so no launch starts a thread.
//!
//! The launch state is `Arc`-owned (not borrowed from the enqueue frame)
//! precisely so a timed-out launch can be *abandoned*: the host returns
//! while a stuck chunk still holds its reference. The same state and chunk
//! body run affinity-bound launches ([`crate::AffinityExecutor`]), one
//! workgroup per lane task.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_pool::FatalFault;

use crate::device::{Device, DeviceKind};
use crate::error::ClError;
use crate::event::{CommandKind, Event, ProfilingInfo};
use crate::fault::{
    panic_message, FaultKind, FaultRecord, GidTrace, Latch, LatchGuard, LaunchFault,
};
use crate::kernel::{BarrierTrace, GroupCtx, Kernel};
use crate::ndrange::ResolvedRange;
use crate::trace::{self, Span, TraceLog};

/// After a timeout is reported, how long the host waits for in-flight
/// chunks to notice the abort signal and park the launch state before the
/// enqueue call returns anyway. Only a stuck chunk (which the deadline
/// exists for) outlives this.
const ABANDON_GRACE: Duration = Duration::from_millis(50);

pub(crate) struct LaunchState {
    kernel: Arc<dyn Kernel>,
    range: ResolvedRange,
    /// The launch's undispatched chunks; workers and the helping host claim
    /// from it until dry.
    source: cl_pool::ChunkSource,
    pub(crate) fault: LaunchFault,
    pub(crate) latch: Latch,
    barriers: AtomicU64,
    items: AtomicU64,
    panics: AtomicU64,
    /// SIMD width for `run_group_simd`; `None` runs scalar `run_group`.
    simd_width: Option<usize>,
    /// Whether workitem loops stamp each item's gid ([`Device::exact_gid`]).
    exact_gid: bool,
    /// The queue's trace log when tracing is enabled; `None` costs the hot
    /// path only `Option` checks.
    trace: Option<Arc<TraceLog>>,
    launch_id: u64,
    /// `CL_PROFILING_COMMAND_START`: stamped once by the first chunk to
    /// begin executing (0 = no chunk started yet).
    started_ns: AtomicU64,
}

impl LaunchState {
    /// A launch of `kernel` over `range`, cut into chunks of
    /// `groups_per_chunk` consecutive workgroups. With `trace`, the launch
    /// takes a fresh id in that log and records its chunk spans there.
    pub(crate) fn new(
        kernel: &Arc<dyn Kernel>,
        range: &ResolvedRange,
        groups_per_chunk: usize,
        simd_width: Option<usize>,
        exact_gid: bool,
        trace: Option<&Arc<TraceLog>>,
    ) -> Arc<Self> {
        let n_groups = range.n_groups();
        let n_chunks = n_groups.div_ceil(groups_per_chunk);
        let launch_id = trace.map_or(0, |log| {
            // One reallocation up front instead of amortized growth while
            // chunks are recording.
            log.reserve(n_chunks + 2);
            log.begin_launch()
        });
        Arc::new(LaunchState {
            kernel: Arc::clone(kernel),
            range: *range,
            source: cl_pool::ChunkSource::new(n_groups, groups_per_chunk),
            fault: LaunchFault::new(),
            latch: Latch::new(n_chunks as u64),
            barriers: AtomicU64::new(0),
            items: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            simd_width,
            exact_gid,
            trace: trace.cloned(),
            launch_id,
            started_ns: AtomicU64::new(0),
        })
    }

    /// Stamp the launch's COMMAND_START timestamp, first chunk wins. One
    /// relaxed load per chunk after that.
    fn mark_started(&self) {
        if self.started_ns.load(Ordering::Relaxed) == 0 {
            let _ = self.started_ns.compare_exchange(
                0,
                trace::now_ns().max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Execute workgroups `chunk` (linear ids), containing any panic.
    pub(crate) fn run_chunk(&self, chunk: std::ops::Range<usize>) {
        // Count the chunk down even if a FatalFault re-raise unwinds out.
        let _done = LatchGuard(&self.latch);
        self.mark_started();
        let span_t0 = self.trace.as_ref().map(|_| trace::now_ns());
        let mut chunk_items = 0u64;
        let mut chunk_barriers = 0u64;
        for linear in chunk.clone() {
            if self.fault.abort.is_tripped() {
                // Drain the rest of the launch as no-ops.
                continue;
            }
            let group = self.range.group_coords(linear);
            let base = [
                group[0] * self.range.local[0],
                group[1] * self.range.local[1],
                group[2] * self.range.local[2],
            ];
            let trace = GidTrace::new(base, self.exact_gid);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut g = GroupCtx::with_fault(&self.range, group, &trace, &self.fault.abort);
                g.btrace = self.trace.as_deref().map(|log| BarrierTrace {
                    log,
                    launch: self.launch_id,
                    group: linear,
                });
                let used_simd = self
                    .simd_width
                    .is_some_and(|width| self.kernel.run_group_simd(&mut g, width));
                if !used_simd {
                    self.kernel.run_group(&mut g);
                }
                g.stats
            }));
            match result {
                Ok(stats) => {
                    self.barriers.fetch_add(stats.barriers, Ordering::Relaxed);
                    self.items.fetch_add(stats.items_run, Ordering::Relaxed);
                    chunk_items += stats.items_run;
                    chunk_barriers += stats.barriers;
                }
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    let fatal = payload.is::<FatalFault>();
                    let message = panic_message(payload);
                    if let Some(log) = &self.trace {
                        log.record(Span::abort(
                            self.launch_id,
                            if fatal { "fatal-panic" } else { "panic" },
                        ));
                    }
                    self.fault.trip(FaultRecord {
                        kind: if fatal {
                            FaultKind::FatalPanic
                        } else {
                            FaultKind::Panic
                        },
                        kernel: self.kernel.name().to_string(),
                        gid: trace.get(),
                        group: linear,
                        worker: cl_pool::current_worker(),
                        message: message.clone(),
                    });
                    if fatal {
                        // Close this chunk's span before the re-raise
                        // unwinds, so the trace still accounts for every
                        // scheduled chunk.
                        if let (Some(log), Some(t0)) = (&self.trace, span_t0) {
                            log.record(Span::chunk(
                                self.launch_id,
                                chunk.clone(),
                                chunk_items,
                                chunk_barriers,
                                t0,
                            ));
                        }
                        // Re-raise so the pool retires this worker; the latch
                        // guard has the count-down covered.
                        FatalFault::raise(message);
                    }
                }
            }
        }
        if let (Some(log), Some(t0)) = (&self.trace, span_t0) {
            log.record(Span::chunk(
                self.launch_id,
                chunk,
                chunk_items,
                chunk_barriers,
                t0,
            ));
        }
    }

    /// The completed launch's event: its workgroup count, the counters its
    /// chunks summed, and the given timing.
    pub(crate) fn event(&self, duration_s: f64, modeled: bool, profiling: ProfilingInfo) -> Event {
        let mut ev = Event::new(CommandKind::NdRangeKernel, duration_s, modeled);
        ev.groups = self.range.n_groups() as u64;
        ev.barriers = self.barriers.load(Ordering::Relaxed);
        ev.items = self.items.load(Ordering::Relaxed);
        ev.panics = self.panics.load(Ordering::Relaxed);
        ev.profiling = profiling;
        ev
    }

    /// Record the launch's span (`ok`: it completed without a fault), when
    /// traced.
    fn record_launch(&self, profiling: ProfilingInfo, ok: bool) {
        if let Some(log) = &self.trace {
            log.record(Span::launch(
                self.launch_id,
                self.kernel.name(),
                self.range.n_groups(),
                self.items.load(Ordering::Relaxed),
                self.barriers.load(Ordering::Relaxed),
                profiling,
                ok,
            ));
        }
    }

    /// Claim and run chunks until the source is dry. A `FatalFault`
    /// re-raised by [`Self::run_chunk`] unwinds out of the loop — on a pool
    /// worker that retires the worker; remaining chunks stay claimable by
    /// its peers and the host.
    fn run_claim_loop(&self) {
        while let Some(chunk) = self.source.claim() {
            self.run_chunk(chunk);
        }
    }
}

pub(crate) fn execute_kernel(
    device: &Device,
    kernel: &Arc<dyn Kernel>,
    range: &ResolvedRange,
    launch_timeout: Option<Duration>,
    trace_log: Option<&Arc<TraceLog>>,
    queued_ns: u64,
    coarsen: usize,
) -> Result<Event, ClError> {
    let n_groups = range.n_groups();
    let pool = device.pool();

    // Native devices: one chunk per workgroup (the paper's per-workgroup
    // scheduling overhead stays real), unless the queue attached a proven
    // coarsening factor — then each chunk fuses `coarsen` consecutive
    // groups, run back-to-back with their own local memory and barrier
    // scope. Modeled devices: coarse chunks for speed, as before.
    let groups_per_chunk = match device.kind() {
        DeviceKind::NativeCpu => coarsen.clamp(1, n_groups.max(1)),
        DeviceKind::ModeledCpu(_) | DeviceKind::ModeledGpu(_) => {
            n_groups.div_ceil(usize::max(1, pool.workers() * 8))
        }
    };
    let n_chunks = n_groups.div_ceil(groups_per_chunk);
    // Every launch on a vectorizing device is offered to the kernel's lane
    // body, whatever its group shape; a body without lanes for this shape
    // or width declines and the group runs scalar.
    let state = LaunchState::new(
        kernel,
        range,
        groups_per_chunk,
        device.vectorizes().then(|| device.simd_width()),
        device.exact_gid(),
        trace_log,
    );

    // CL_PROFILING_COMMAND_SUBMIT: validation is done, the launch's claim
    // tasks go to the pool now. At most one claim loop per worker — each
    // chunk is claimed from the shared source with a `fetch_add`, not
    // carried by its own boxed task.
    let submitted_ns = trace::now_ns();
    let t0 = Instant::now();
    let n_tasks = usize::min(pool.workers(), n_chunks);
    pool.spawn_batch((0..n_tasks).map(|_| {
        let state = Arc::clone(&state);
        move || state.run_claim_loop()
    }));

    let completed = match launch_timeout {
        None => {
            // No deadline: the host claims chunks alongside the workers,
            // exactly the pre-fault-tolerance behaviour (and the measured
            // overhead). A FatalFault raised by a host-run chunk is caught
            // here — the fault record is already tripped inside run_chunk,
            // and retirement applies to pool workers, not the host — and
            // the loop keeps draining so the latch completes.
            while let Some(chunk) = state.source.claim() {
                let state = &state;
                let _ = catch_unwind(AssertUnwindSafe(move || state.run_chunk(chunk)));
            }
            // Chunks claimed by workers may still be in flight; help with
            // any other queued pool work while they finish.
            pool.help_until(|| state.latch.is_done());
            true
        }
        Some(timeout) => {
            // With a deadline armed the host must NOT help: it could pick up
            // the stuck chunk itself and never observe the deadline. It is
            // the watchdog instead: it waits for the latch until the
            // deadline, then trips the abort path and grants in-flight
            // chunks a short grace window.
            let done = state.latch.wait_deadline(t0 + timeout);
            if !done {
                if let Some(log) = &state.trace {
                    log.record(Span::abort(state.launch_id, "timeout"));
                }
                state.fault.trip(FaultRecord {
                    kind: FaultKind::Timeout(timeout),
                    kernel: kernel.name().to_string(),
                    gid: [0, 0, 0],
                    group: 0,
                    worker: None,
                    message: format!("launch exceeded {timeout:?}"),
                });
                state.latch.wait_deadline(Instant::now() + ABANDON_GRACE);
            }
            done
        }
    };
    let elapsed = t0.elapsed();
    let end_ns = trace::now_ns();

    // CL_PROFILING_COMMAND_START, with the error-path fix: a launch
    // abandoned (or timed out) before any chunk began executing has no
    // stamp — fall back to `end_ns`, and clamp a racing stamp into
    // [submitted, end], so `queued ≤ submitted ≤ started ≤ completed`
    // holds on KernelPanicked and LaunchTimedOut paths too.
    let first_chunk_ns = state.started_ns.load(Ordering::Relaxed);
    let started_ns = if first_chunk_ns == 0 {
        end_ns
    } else {
        first_chunk_ns.clamp(submitted_ns, end_ns)
    };

    let mut profiling = ProfilingInfo {
        queued_ns,
        submitted_ns,
        started_ns,
        completed_ns: end_ns,
    };
    if let Some(rec) = state.fault.take() {
        state.record_launch(profiling, false);
        return Err(rec.into_error());
    }
    debug_assert!(completed, "no fault recorded but latch not done");

    let (duration_s, modeled) = match device.kind() {
        DeviceKind::NativeCpu => (elapsed.as_secs_f64(), false),
        DeviceKind::ModeledCpu(model) => {
            (model.kernel_time(&kernel.profile(), range.launch()), true)
        }
        DeviceKind::ModeledGpu(model) => {
            (model.kernel_time(&kernel.profile(), range.launch()), true)
        }
    };

    // Modeled devices report the modeled execution window (the device
    // under study), native devices the measured one — mirroring how
    // profiling-enabled OpenCL queues report device time.
    if modeled {
        profiling.completed_ns = started_ns + (duration_s * 1e9) as u64;
    }
    state.record_launch(profiling, true);
    Ok(state.event(duration_s, modeled, profiling))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::{Context, Device, GroupCtx, Kernel, NDRange};

    /// Counts how the engine runs each group, and how often each item is
    /// visited, through lane steps, tail items or the scalar loop.
    #[derive(Default)]
    struct Spy {
        simd_groups: AtomicU64,
        scalar_groups: AtomicU64,
        steps: AtomicU64,
        tails: AtomicU64,
        visits: Vec<AtomicU32>,
    }

    impl Spy {
        fn new(items: usize) -> Self {
            Spy {
                visits: (0..items).map(|_| AtomicU32::new(0)).collect(),
                ..Spy::default()
            }
        }

        fn visit(&self, first: usize, n: usize) {
            for v in &self.visits[first..first + n] {
                v.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    impl Kernel for Spy {
        fn name(&self) -> &str {
            "spy"
        }

        fn run_group(&self, g: &mut GroupCtx) {
            self.scalar_groups.fetch_add(1, Ordering::Relaxed);
            g.for_each(|wi| self.visit(wi.global_linear(), 1));
        }

        fn run_group_simd(&self, g: &mut GroupCtx, width: usize) -> bool {
            self.simd_groups.fetch_add(1, Ordering::Relaxed);
            g.for_each_simd(
                width,
                |wi| {
                    self.steps.fetch_add(1, Ordering::Relaxed);
                    self.visit(wi.global_linear(), width);
                },
                |wi| {
                    self.tails.fetch_add(1, Ordering::Relaxed);
                    self.visit(wi.global_linear(), 1);
                },
            );
            true
        }
    }

    #[test]
    fn two_d_groups_run_lane_steps_along_every_row() {
        // 2×2 groups of 6×4 items: each row is one 4-wide step plus two
        // tail items.
        let range = NDRange::d2(12, 8).local2(6, 4);
        let run = |vectorize: bool| {
            let mut device = Device::native_cpu(2).unwrap();
            device.set_vectorize(vectorize);
            assert_eq!(device.simd_width(), 4);
            let spy = Arc::new(Spy::new(96));
            let kernel: Arc<dyn Kernel> = spy.clone();
            let ev = Context::new(device)
                .queue()
                .enqueue_kernel(&kernel, range)
                .unwrap();
            let visits: Vec<u32> = spy
                .visits
                .iter()
                .map(|v| v.load(Ordering::Relaxed))
                .collect();
            assert_eq!(visits, vec![1; 96], "vectorize={vectorize}");
            (ev.items, spy)
        };
        let (lane_items, lanes) = run(true);
        assert_eq!(lanes.simd_groups.load(Ordering::Relaxed), 4);
        assert_eq!(lanes.scalar_groups.load(Ordering::Relaxed), 0);
        assert_eq!(lanes.steps.load(Ordering::Relaxed), 4 * 4);
        assert_eq!(lanes.tails.load(Ordering::Relaxed), 4 * 4 * 2);
        let (scalar_items, scalar) = run(false);
        assert_eq!(scalar.simd_groups.load(Ordering::Relaxed), 0);
        assert_eq!(scalar.scalar_groups.load(Ordering::Relaxed), 4);
        assert_eq!(lane_items, scalar_items);
        assert_eq!(lane_items, 96);
    }
}
