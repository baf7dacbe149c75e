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
//! submit). Every executor — pool worker or enqueuing host — claims
//! chunks with one `fetch_add` each until the source is dry; the host then
//! waits on the launch's [`cl_pool::Latch`] without helping. Chunk identity,
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

use cl_pool::{FatalFault, Latch};

use crate::device::{Device, DeviceKind};
use crate::error::ClError;
use crate::event::{CommandKind, Event, ProfilingInfo};
use crate::fault::{panic_message, FaultKind, FaultRecord, GidTrace, LatchGuard, LaunchFault};
use crate::kernel::{BarrierTrace, GroupCtx, GroupStats, Kernel};
use crate::ndrange::ResolvedRange;
use crate::trace::{self, Span, TraceLog};

/// After a timeout is reported, how long the host waits for in-flight
/// chunks to notice the abort signal and park the launch state before the
/// enqueue call returns anyway. Only a stuck chunk (which the deadline
/// exists for) outlives this.
const ABANDON_GRACE: Duration = Duration::from_millis(50);

/// Bytes kept free on each side of a launch's [`Counters`]: two 64-byte
/// lines, the span x86's adjacent-line prefetcher pulls in together.
const GAP: usize = 128;

/// One launch's shared state. Laid out in declaration order: the fields
/// every workgroup reads, then the counters every chunk writes, with a
/// [`GAP`] on each side so that a chunk's writes do not evict the other
/// workers' copies of the read fields. Plain gaps rather than an aligned
/// field: `#[repr(align(128))]` makes each launch's allocation an aligned
/// one, which measured ~5 % slower on the serving layer's launches.
#[repr(C)]
pub(crate) struct LaunchState {
    kernel: Arc<dyn Kernel>,
    range: ResolvedRange,
    pub(crate) fault: LaunchFault,
    /// Whether groups run lane steps ([`GroupCtx::for_each_lane`]).
    lanes: bool,
    /// Whether workitem loops stamp each item's gid ([`Device::exact_gid`]).
    exact_gid: bool,
    /// The queue's trace log when tracing is enabled; `None` costs the hot
    /// path only `Option` checks.
    trace: Option<Arc<TraceLog>>,
    launch_id: u64,
    _gap: [u8; GAP],
    pub(crate) counters: Counters,
    _gap_after: [u8; GAP],
}

/// The launch state every chunk writes. Kept together: one thread claims a
/// chunk, adds its counts and counts it down in sequence, so one line
/// moves between cores per chunk. (The claim counter and the latch each on
/// a line of its own measured ~14 % slower per group on a
/// one-group-per-chunk launch, 2 vCPUs.)
pub(crate) struct Counters {
    /// The launch's undispatched chunks; workers and the host claim from
    /// it until dry.
    source: cl_pool::ChunkSource,
    pub(crate) latch: Latch,
    barriers: AtomicU64,
    items: AtomicU64,
    lane_items: AtomicU64,
    panics: AtomicU64,
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
        lanes: bool,
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
            fault: LaunchFault::new(),
            lanes,
            exact_gid,
            trace: trace.cloned(),
            launch_id,
            _gap: [0; GAP],
            _gap_after: [0; GAP],
            counters: Counters {
                source: cl_pool::ChunkSource::new(n_groups, groups_per_chunk),
                latch: Latch::new(n_chunks as u64),
                barriers: AtomicU64::new(0),
                items: AtomicU64::new(0),
                lane_items: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                started_ns: AtomicU64::new(0),
            },
        })
    }

    /// Stamp the launch's COMMAND_START timestamp, first chunk wins. One
    /// relaxed load per chunk after that.
    fn mark_started(&self) {
        if self.counters.started_ns.load(Ordering::Relaxed) == 0 {
            let _ = self.counters.started_ns.compare_exchange(
                0,
                trace::now_ns().max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Add a chunk's counts to the launch's: once per chunk, so groups
    /// write no shared counter.
    fn add_counts(&self, sum: &GroupStats) {
        let c = &self.counters;
        c.items.fetch_add(sum.items_run, Ordering::Relaxed);
        c.lane_items.fetch_add(sum.lane_items, Ordering::Relaxed);
        c.barriers.fetch_add(sum.barriers, Ordering::Relaxed);
    }

    /// Execute workgroups `chunk` (linear ids), containing any panic.
    pub(crate) fn run_chunk(&self, chunk: std::ops::Range<usize>) {
        // Count the chunk down even if a FatalFault re-raise unwinds out.
        let _done = LatchGuard(&self.counters.latch);
        self.mark_started();
        let span_t0 = self.trace.as_ref().map(|_| trace::now_ns());
        let mut sum = GroupStats::default();
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
                let mut g =
                    GroupCtx::with_fault(&self.range, group, &trace, &self.fault.abort, self.lanes);
                g.btrace = self.trace.as_deref().map(|log| BarrierTrace {
                    log,
                    launch: self.launch_id,
                    group: linear,
                });
                self.kernel.run_group(&mut g);
                g.stats
            }));
            match result {
                Ok(stats) => {
                    sum.items_run += stats.items_run;
                    sum.lane_items += stats.lane_items;
                    sum.barriers += stats.barriers;
                }
                Err(payload) => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
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
                        // Count this chunk's groups and close its span
                        // before the re-raise unwinds, so the launch totals
                        // and the trace still account for every scheduled
                        // chunk.
                        self.add_counts(&sum);
                        if let (Some(log), Some(t0)) = (&self.trace, span_t0) {
                            log.record(Span::chunk(
                                self.launch_id,
                                chunk.clone(),
                                sum.items_run,
                                sum.barriers,
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
        self.add_counts(&sum);
        if let (Some(log), Some(t0)) = (&self.trace, span_t0) {
            log.record(Span::chunk(
                self.launch_id,
                chunk,
                sum.items_run,
                sum.barriers,
                t0,
            ));
        }
    }

    /// The completed launch's event: its workgroup count, the counters its
    /// chunks summed, and the given timing.
    pub(crate) fn event(&self, duration_s: f64, modeled: bool, profiling: ProfilingInfo) -> Event {
        let mut ev = Event::new(CommandKind::NdRangeKernel, duration_s, modeled);
        ev.groups = self.range.n_groups() as u64;
        ev.barriers = self.counters.barriers.load(Ordering::Relaxed);
        ev.items = self.counters.items.load(Ordering::Relaxed);
        ev.lane_items = self.counters.lane_items.load(Ordering::Relaxed);
        ev.panics = self.counters.panics.load(Ordering::Relaxed);
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
                self.counters.items.load(Ordering::Relaxed),
                self.counters.barriers.load(Ordering::Relaxed),
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
        while let Some(chunk) = self.counters.source.claim() {
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
    // Lane walks run 4-wide steps on a vectorizing device whose lanes are
    // 4 wide (`VecF32<4>`, SSE), whatever the group's shape.
    let state = LaunchState::new(
        kernel,
        range,
        groups_per_chunk,
        device.vectorizes() && device.simd_width() == 4,
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
            while let Some(chunk) = state.counters.source.claim() {
                let state = &state;
                let _ = catch_unwind(AssertUnwindSafe(move || state.run_chunk(chunk)));
            }
            // The source is dry, so every chunk not yet counted down is
            // held by a running thread and no progress depends on the host:
            // it waits on the latch (a bounded spin, then the last chunk's
            // wake) without helping. That also keeps the wait short and
            // bounded when the host is a pool worker (`Dispatch::Pool`).
            state.counters.latch.wait();
            true
        }
        Some(timeout) => {
            // With a deadline armed the host must NOT help: it could pick up
            // the stuck chunk itself and never observe the deadline. It is
            // the watchdog instead: it blocks on the latch (no spin: its CPU
            // belongs to the workers) until the last chunk wakes it or the
            // deadline passes, then trips the abort path and grants in-flight
            // chunks a short grace window.
            let done = state.counters.latch.wait_deadline(t0 + timeout);
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
                state
                    .counters
                    .latch
                    .wait_deadline(Instant::now() + ABANDON_GRACE);
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
    let first_chunk_ns = state.counters.started_ns.load(Ordering::Relaxed);
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
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    use cl_vec::Lane;

    use crate::{Context, Device, GroupCtx, Kernel, LaneBody, NDRange, WorkItem};

    /// Counts how often each item is visited.
    struct Spy {
        visits: Vec<AtomicU32>,
    }

    /// One walk of a [`Spy`]: marks each element it runs.
    struct Visit<'a>(&'a [AtomicU32]);

    impl LaneBody for Visit<'_> {
        fn at<L: Lane>(&mut self, _x: usize, wi: &WorkItem) {
            for v in &self.0[wi.global_linear()..][..L::WIDTH] {
                v.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    impl Kernel for Spy {
        fn name(&self) -> &str {
            "spy"
        }

        fn run_group(&self, g: &mut GroupCtx) {
            g.for_each_lane(1, g.global_size(0), &mut Visit(&self.visits));
        }
    }

    #[test]
    fn two_d_groups_run_lane_steps_along_every_row() {
        // 2×2 groups of 6×4 items: each row is one 4-wide step plus two
        // edge items.
        let range = NDRange::d2(12, 8).local2(6, 4);
        let run = |vectorize: bool| {
            let mut device = Device::native_cpu(2).unwrap();
            device.set_vectorize(vectorize);
            assert_eq!(device.simd_width(), 4);
            let spy = Arc::new(Spy {
                visits: (0..96).map(|_| AtomicU32::new(0)).collect(),
            });
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
            (ev.items, ev.lane_items)
        };
        // 4 groups × 4 rows × one 4-wide step.
        assert_eq!(run(true), (96, 4 * 4 * 4));
        assert_eq!(run(false), (96, 0));
    }
}
