//! Command queues: kernel launches and data transfers.
//!
//! Every call blocks until the command completes, matching the paper's
//! measurement methodology ("we use a blocking call for all kernel execution
//! commands, and memory object commands", Section III-D), and returns an
//! [`Event`] carrying the command's duration.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use cl_mem::{MapGuard, MapMode};

use cl_analyze::flow::{BufUse, FlowCommand, FlowOp};
use cl_analyze::hb::HbRecord;
use cl_util::sync::Mutex;

use crate::buffer::{Buffer, Pod};
use crate::context::Context;
use crate::device::{Device, DeviceKind};
use crate::error::ClError;
use crate::event::{CommandKind, Event, ProfilingInfo};
use crate::exec::execute_kernel;
use crate::flow;
use crate::kernel::Kernel;
use crate::ndrange::{NDRange, ResolvedRange};
use crate::race::RaceLog;
use crate::sched::{Dispatch, EventRef, Order, Scheduler};
use crate::trace::{self, Span, TraceLog};

/// Queue ids are process-global and never reused, so happens-before
/// records, events, and trace spans from different contexts can never
/// alias. Id 0 is reserved for "unattributed".
static NEXT_QUEUE_ID: AtomicU64 = AtomicU64::new(1);

/// Largest pattern row `fill_buffer` stages, the size of cl-mem's copy-path
/// staging window: a fill never allocates in proportion to the buffer.
const FILL_ROW: usize = 256 << 10;

/// Queue construction options (`clCreateCommandQueue` properties analog).
#[derive(Debug, Clone, Default)]
pub struct QueueConfig {
    /// Deadline for a single kernel enqueue. When set, the enqueuing
    /// thread waits for the launch instead of helping run it, trips the
    /// launch's abort protocol at the deadline, and the enqueue returns
    /// [`ClError::LaunchTimedOut`]. `None` (the default) disables the
    /// deadline; [`QueueConfig::from_env`] reads `CL_LAUNCH_TIMEOUT_MS`.
    pub launch_timeout: Option<std::time::Duration>,
    /// Record structured [`Span`]s for every command the queue runs into a
    /// per-queue [`TraceLog`] (the `CL_QUEUE_PROFILING_ENABLE` analog, plus
    /// scheduler-level detail OpenCL does not expose). Off by default —
    /// disabled queues allocate no log and record nothing;
    /// [`QueueConfig::from_env`] reads `CL_TRACE`.
    pub tracing: bool,
    /// `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE` analog: commands land in a pending
    /// event DAG and a scheduler dispatches every ready command concurrently
    /// onto the device pool, completing events in dependency order. Legacy
    /// blocking enqueues keep their semantics — dependencies are
    /// auto-inferred from flow footprints, so proven-independent commands
    /// overlap for free. Off by default; [`QueueConfig::from_env`] reads
    /// `CL_OOO`.
    pub out_of_order: bool,
    /// Seeded scheduler defect for oracle validation. Test infrastructure —
    /// leave `None` outside the `cl-sched` harness.
    pub sched_bug: Option<crate::sched::SchedBug>,
    /// Let launches past the debug-build enqueue gates (static contract,
    /// flag contract, cross-queue race), as release builds do. Test
    /// infrastructure — for harnesses and tests that enqueue a deliberately
    /// broken or racy launch so the offline analyses can judge it.
    pub skip_static_check: bool,
    /// Workgroup-fusion (thread-coarsening) policy for native dispatch; see
    /// [`CoarsenMode`]. [`QueueConfig::from_env`] reads `CL_COARSEN`.
    pub coarsen: CoarsenMode,
    /// Online autotuning of NULL-local launches: consult this
    /// [`cl_tune::Tuner`] for (workgroup size, chunk factor) instead of the
    /// fixed heuristic. Explicit local sizes and [`CoarsenMode::Force`]
    /// bypass the tuner; converged decisions ride the enqueue-plan cache,
    /// so the steady-state hot path is unchanged. `None` by default;
    /// [`QueueConfig::from_env`] maps `CL_TUNE` to the shared
    /// [`cl_tune::Tuner::process`] instance, and tests inject isolated
    /// tuners with private cache files.
    pub tuner: Option<Arc<cl_tune::Tuner>>,
}

/// Workgroup-fusion policy of a queue (see `cl_analyze::coarsen`).
///
/// Native dispatch normally runs one chunk per workgroup. Under coarsening
/// it fuses `K` consecutive groups into each chunk, amortizing per-chunk
/// dispatch overhead — but only when the static prover certifies that no
/// cross-group dependence makes the fusion observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoarsenMode {
    /// Coarsen kernels with a `Proven` legality verdict by the cost model's
    /// chosen factor; run everything else uncoarsened. The default.
    #[default]
    Auto,
    /// Never coarsen (`CL_COARSEN=off`).
    Off,
    /// Coarsen by exactly this factor (`CL_COARSEN=<K>`, clamped to the
    /// proven `k_max`). Refused at enqueue time — with
    /// [`ClError::ContractViolation`] — for any kernel the prover cannot
    /// certify, including kernels without an access spec.
    Force(usize),
}

impl CoarsenMode {
    /// The mode a `CL_COARSEN` value selects: `off` → [`CoarsenMode::Off`],
    /// an integer `K ≥ 1` → [`CoarsenMode::Force`]`(K)`, anything else
    /// (unset, `0`, unparsable) → [`CoarsenMode::Auto`].
    pub fn from_env_value(value: Option<&str>) -> CoarsenMode {
        let Some(v) = value.map(str::trim) else {
            return CoarsenMode::Auto;
        };
        if v.eq_ignore_ascii_case("off") {
            return CoarsenMode::Off;
        }
        v.parse::<usize>()
            .ok()
            .filter(|&k| k >= 1)
            .map_or(CoarsenMode::Auto, CoarsenMode::Force)
    }
}

impl QueueConfig {
    /// Defaults, overridden by the environment: `CL_LAUNCH_TIMEOUT_MS=<ms>`
    /// arms the launch watchdog (0 or unparsable values leave it off);
    /// `CL_TRACE=1` (or `true`) enables span tracing. See
    /// [`QueueConfig::from_vars`] for every variable read.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// The configuration [`QueueConfig::from_env`] builds when `var` gives
    /// each variable's value: `CL_LAUNCH_TIMEOUT_MS`, `CL_TRACE`, `CL_OOO`,
    /// `CL_COARSEN` and `CL_TUNE` (on: the shared
    /// [`cl_tune::Tuner::process`] instance). Flags are on for `1` or
    /// `true`. Tests pass a map here instead of setting process-wide
    /// variables that sibling tests would read mid-run.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let launch_timeout = var("CL_LAUNCH_TIMEOUT_MS")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(std::time::Duration::from_millis);
        let on = |name: &str| {
            var(name).is_some_and(|v| {
                let v = v.trim();
                v == "1" || v.eq_ignore_ascii_case("true")
            })
        };
        QueueConfig {
            launch_timeout,
            tracing: on("CL_TRACE"),
            out_of_order: on("CL_OOO"),
            sched_bug: None,
            skip_static_check: false,
            coarsen: CoarsenMode::from_env_value(var("CL_COARSEN").as_deref()),
            tuner: on("CL_TUNE").then(|| Arc::clone(cl_tune::Tuner::process())),
        }
    }

    /// Set the launch watchdog deadline.
    pub fn launch_timeout(mut self, t: std::time::Duration) -> Self {
        self.launch_timeout = Some(t);
        self
    }

    /// Enable or disable span tracing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable or disable out-of-order execution mode.
    pub fn out_of_order(mut self, on: bool) -> Self {
        self.out_of_order = on;
        self
    }

    /// Seed a scheduler defect (oracle validation; see
    /// [`SchedBug`](crate::sched::SchedBug)).
    pub fn sched_bug(mut self, bug: crate::sched::SchedBug) -> Self {
        self.sched_bug = Some(bug);
        self
    }

    /// Skip the debug-build enqueue gates (see the `skip_static_check`
    /// field).
    pub fn skip_static_check(mut self, skip: bool) -> Self {
        self.skip_static_check = skip;
        self
    }

    /// Set the workgroup-fusion policy.
    pub fn coarsen(mut self, mode: CoarsenMode) -> Self {
        self.coarsen = mode;
        self
    }

    /// Tune NULL-local launches against this [`cl_tune::Tuner`] (pass
    /// [`cl_tune::Tuner::process`] for the shared per-process one).
    pub fn tuner(mut self, tuner: Arc<cl_tune::Tuner>) -> Self {
        self.tuner = Some(tuner);
        self
    }
}

/// Everything `enqueue_kernel` derives from a (kernel, NDRange) pair before
/// execution.
#[derive(Clone)]
struct Plan {
    resolved: ResolvedRange,
    /// The lowered Launch command; present iff lowering was needed when the
    /// plan was built (recording context or out-of-order queue, or any
    /// debug build). Shared, never rebuilt, by every enqueue of the plan.
    cmd: Option<Arc<FlowCommand>>,
    /// Proven workgroup-fusion factor applied by native dispatch (1 = no
    /// coarsening). Computed once per plan — the legality proof and cost
    /// model run on cache misses only.
    coarsen: usize,
}

/// A memoized [`Plan`]. Re-enqueueing an unchanged (kernel, NDRange) pair —
/// the shape of every figure sweep and benchmark loop — skips the range
/// resolution, the debug-mode contract checks, and the lowering of the
/// kernel's arg-binding vector into flow uses.
///
/// The kernel is held [`Weak`] and verified with [`Arc::ptr_eq`] on
/// upgrade, so a cached plan can neither keep a kernel (and its buffers)
/// alive nor be mistaken for a new kernel allocated at a recycled address.
struct EnqueuePlan {
    kernel: Weak<dyn Kernel>,
    range: NDRange,
    plan: Plan,
}

/// A tuner trial: the decision key and the configuration whose launch
/// time the enqueue reports back.
type Trial = (cl_tune::TuneKey, cl_tune::TunedConfig);

/// Entries kept in the per-queue plan cache. Small on purpose: sweeps
/// alternate between a handful of kernels, and a linear scan of eight
/// entries is cheaper than hashing a trait-object pointer.
const PLAN_CACHE_CAP: usize = 8;

/// An in-order command queue (`cl_command_queue` analog).
#[derive(Clone)]
pub struct CommandQueue {
    ctx: Context,
    cfg: QueueConfig,
    /// The queue's span sink; allocated once iff `cfg.tracing`. Clones of
    /// the queue share it (as clones share the underlying `cl_command_queue`).
    trace: Option<Arc<TraceLog>>,
    /// The owning context's command recording, cached here so the
    /// disabled path stays one `Option` branch per record site. `None`
    /// unless the context was created with
    /// [`crate::ContextConfig::race_recording`] / `CL_RACE=1`.
    race: Option<Arc<RaceLog>>,
    /// Stable process-global queue id (see [`NEXT_QUEUE_ID`]); clones share
    /// it, as they share the underlying queue.
    id: u64,
    /// Next command sequence number, shared by clones.
    seq: Arc<AtomicU64>,
    /// Memoized enqueue plans, shared by clones. See [`EnqueuePlan`].
    plans: Arc<Mutex<Vec<EnqueuePlan>>>,
    /// The pending-DAG scheduler; allocated iff `cfg.out_of_order`, shared
    /// by clones like the logs.
    sched: Option<Arc<Scheduler>>,
}

impl CommandQueue {
    pub(crate) fn new(ctx: Context) -> Self {
        CommandQueue::with_config(ctx, QueueConfig::from_env())
    }

    pub(crate) fn with_config(ctx: Context, cfg: QueueConfig) -> Self {
        let trace = cfg.tracing.then(|| Arc::new(TraceLog::new()));
        let race = ctx.inner.race.clone();
        let sched = cfg.out_of_order.then(|| {
            Arc::new(Scheduler::new(
                Arc::clone(ctx.device().pool()),
                cfg.sched_bug,
            ))
        });
        CommandQueue {
            ctx,
            cfg,
            trace,
            race,
            id: NEXT_QUEUE_ID.fetch_add(1, Ordering::Relaxed),
            seq: Arc::new(AtomicU64::new(0)),
            plans: Arc::new(Mutex::new(Vec::new())),
            sched,
        }
    }

    /// The queue's stable process-global id — the id that tags its commands
    /// in events, trace output, and the context's race log.
    pub fn id(&self) -> u64 {
        self.id
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether anything reads command footprints: the out-of-order
    /// scheduler or the race log. When nothing does, the footprint is
    /// never built.
    fn reads_footprints(&self) -> bool {
        self.sched.is_some() || self.race.is_some()
    }

    /// Look up a memoized plan for (`kernel`, `range`) that carries its
    /// Launch command if `need_lowered`. Dead entries (kernel dropped)
    /// found along the way are evicted.
    fn cached_plan(
        &self,
        kernel: &Arc<dyn Kernel>,
        range: NDRange,
        need_lowered: bool,
    ) -> Option<Plan> {
        let mut plans = self.plans.lock();
        let mut hit = None;
        plans.retain(|p| match p.kernel.upgrade() {
            None => false,
            Some(k) => {
                if hit.is_none() && p.range == range && Arc::ptr_eq(&k, kernel) {
                    hit = Some(p.plan.clone());
                }
                true
            }
        });
        hit.filter(|p| !need_lowered || p.cmd.is_some())
    }

    /// Memoize a freshly built plan, evicting the oldest entry at capacity.
    fn remember_plan(&self, plan: EnqueuePlan) {
        let mut plans = self.plans.lock();
        if plans.len() >= PLAN_CACHE_CAP {
            plans.remove(0);
        }
        plans.push(plan);
    }

    /// The owning context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The queue's configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// The queue's trace log, when tracing is enabled
    /// ([`QueueConfig::tracing`] / `CL_TRACE=1`).
    pub fn trace(&self) -> Option<&Arc<TraceLog>> {
        self.trace.as_ref()
    }

    /// The tuner this queue consults for NULL-local launches
    /// ([`QueueConfig::tuner`]; `CL_TUNE=1` sets the process tuner).
    pub fn tuner(&self) -> Option<&Arc<cl_tune::Tuner>> {
        self.cfg.tuner.as_ref()
    }

    fn check_ctx<T: Pod>(&self, buf: &Buffer<T>) -> Result<(), ClError> {
        if buf.inner.ctx_id != self.ctx.inner.id {
            return Err(ClError::WrongContext);
        }
        Ok(())
    }

    /// Resolve (and memoize) the enqueue plan for a (kernel, range) pair:
    /// range resolution, the debug contract gates, the lowering of arg
    /// bindings into the Launch command when `need_lowered`, and the fusion
    /// factor. Shared by the blocking and DAG-submit enqueue paths.
    ///
    /// Tuned in-order queues route NULL-local cache misses through
    /// [`cl_tune::Tuner::decide`]. A converged decision builds a plan that
    /// is remembered under the *original* NULL-local range, so the steady
    /// state is a plain cache hit with no tuner involvement. A trial
    /// decision builds a throwaway plan and returns the [`Trial`] whose
    /// launch time the caller must report back. Explicit local sizes,
    /// [`CoarsenMode::Force`] and out-of-order queues bypass the tuner.
    fn plan(
        &self,
        kernel: &Arc<dyn Kernel>,
        range: NDRange,
        need_lowered: bool,
    ) -> Result<(Plan, Option<Trial>), ClError> {
        if let Some(plan) = self.cached_plan(kernel, range, need_lowered) {
            return Ok((plan, None));
        }
        let device = self.ctx.device();
        let tuner = self.cfg.tuner.as_ref().filter(|_| {
            self.sched.is_none()
                && range.local().is_none()
                && !matches!(self.cfg.coarsen, CoarsenMode::Force(_))
        });
        let (tuned, trial) = match tuner {
            None => (None, None),
            Some(tuner) => {
                let key = cl_tune::TuneKey {
                    kernel: kernel.name().to_string(),
                    global: range.global(),
                    dims: range.dims(),
                    device: device.name().to_string(),
                    workers: device.pool().workers(),
                };
                match tuner.decide(&key, || tune_candidates(kernel, range, device)) {
                    cl_tune::Decision::Fallback => (None, None),
                    cl_tune::Decision::Converged(cfg) => (Some(cfg), None),
                    cl_tune::Decision::Trial(cfg) => (Some(cfg), Some((key, cfg))),
                }
            }
        };
        let resolved = tuned
            .map_or(range, |cfg| range.local1(cfg.wg))
            .resolve_with(device.default_wg(), device.null_target_groups())?;
        #[cfg(debug_assertions)]
        if !self.cfg.skip_static_check {
            check_contract(kernel, &resolved)?;
        }
        // Bindings and the footprint are captured at most once per
        // (kernel, range) — workgroup chunks never re-resolve argument
        // metadata. With lowering not needed (release), this is one branch.
        let cmd = need_lowered.then(|| Arc::new(flow::launch_command(kernel.as_ref(), &resolved)));
        #[cfg(debug_assertions)]
        if let Some(cmd) = &cmd {
            if !self.cfg.skip_static_check {
                check_flag_contract(cmd)?;
            }
        }
        let coarsen = coarsen_factor(
            kernel,
            &resolved,
            self.cfg.coarsen,
            device.pool().workers(),
            tuned.map(|cfg| cfg.chunk),
        )?;
        let plan = Plan {
            resolved,
            cmd,
            coarsen,
        };
        if trial.is_none() {
            self.remember_plan(EnqueuePlan {
                kernel: Arc::downgrade(kernel),
                range,
                plan: plan.clone(),
            });
        }
        Ok((plan, trial))
    }

    /// The execution half of a planned launch, carrying `cmd` into the race
    /// log when the context records one.
    fn launch(
        &self,
        kernel: &Arc<dyn Kernel>,
        plan: &Plan,
        seq: u64,
        queued_ns: u64,
        cmd: Option<Arc<FlowCommand>>,
    ) -> Launch {
        Launch {
            device: self.ctx.device().clone(),
            kernel: Arc::clone(kernel),
            resolved: plan.resolved,
            coarsen: plan.coarsen,
            timeout: self.cfg.launch_timeout,
            trace: self.trace.clone(),
            race: self.race.clone().zip(cmd),
            queue_id: self.id,
            seq,
            queued_ns,
        }
    }

    /// `clEnqueueNDRangeKernel` (blocking). The workgroup size comes from
    /// `range`; passing a range without `local*` reproduces the NULL
    /// `local_work_size` behaviour.
    pub fn enqueue_kernel(
        &self,
        kernel: &Arc<dyn Kernel>,
        range: NDRange,
    ) -> Result<Event, ClError> {
        // Out-of-order queue: the blocking call is submit + wait on this
        // command's own event. Independent commands already in the DAG keep
        // running underneath the wait.
        if self.sched.is_some() {
            return self.submit_kernel(kernel, range, &[])?.wait(None);
        }
        let queued_ns = trace::now_ns();
        // Re-enqueues of an unchanged (kernel, range) pair reuse the
        // memoized plan: resolution, contract checks, and lowering ran — and
        // passed — when the plan was built. Failing launches are never
        // cached, so a rejected kernel is re-checked (and re-rejected)
        // every time.
        let need_lowered = self.race.is_some() || cfg!(debug_assertions);
        let (mut plan, trial) = self.plan(kernel, range, need_lowered)?;
        let cmd = plan.cmd.take().filter(|_| self.race.is_some());
        // Debug-build enqueue gate #3, cross-queue: would this launch race
        // with another queue's recorded commands? Unlike the per-kernel
        // gates it depends on *stream state*, so it runs even on plan-cache
        // hits. Same `skip_static_check` opt-out.
        #[cfg(debug_assertions)]
        if let (Some(rl), Some(cmd)) = (&self.race, &cmd) {
            if !self.cfg.skip_static_check {
                check_cross_queue(rl, self.id, cmd)?;
            }
        }
        let seq = self.next_seq();
        let ev = self.launch(kernel, &plan, seq, queued_ns, cmd).run(None)?;
        // Close the tuning loop: report the trial's execution window (the
        // profiling timestamps; modeled time on modeled devices) back to the
        // bandit. Failed launches return above and are never observed, so a
        // faulting config cannot win on a short bogus time.
        if let (Some((key, tcfg)), Some(tuner)) = (trial, &self.cfg.tuner) {
            let ns = ev
                .profiling
                .completed_ns
                .saturating_sub(ev.profiling.started_ns);
            tuner.observe(&key, tcfg, ns as f64);
        }
        Ok(ev)
    }

    /// Convenience for concrete kernel types.
    pub fn run<K: Kernel + 'static>(&self, kernel: K, range: NDRange) -> Result<Event, ClError> {
        let k: Arc<dyn Kernel> = Arc::new(kernel);
        self.enqueue_kernel(&k, range)
    }

    /// `clEnqueueNDRangeKernel` with an event wait list (non-blocking on an
    /// out-of-order queue). The command runs after every event in `wait`
    /// completes — plus, on an out-of-order queue, after every pending
    /// command whose flow footprint the analyzer cannot prove independent
    /// of this one. Returns the command's event; pass it in later wait
    /// lists or `wait()` it.
    ///
    /// On an in-order queue this degenerates to: wait the list, then run
    /// blocking (program order already serializes the stream).
    pub fn submit_kernel(
        &self,
        kernel: &Arc<dyn Kernel>,
        range: NDRange,
        wait: &[EventRef],
    ) -> Result<EventRef, ClError> {
        let Some(sched) = &self.sched else {
            for w in wait {
                if let Err(e) = w.wait(self.cfg.launch_timeout) {
                    return Err(ClError::DependencyFailed {
                        label: kernel.name().to_string(),
                        source: Box::new(e),
                    });
                }
            }
            return self.enqueue_kernel(kernel, range).map(EventRef::completed);
        };
        let queued_ns = trace::now_ns();
        // The DAG needs footprints for dependency inference, so lowering is
        // unconditional here. All per-kernel debug gates run at submit time;
        // the cross-queue gate is skipped — it assumes in-order program
        // order, and OOO streams are certified offline by `cl-race` instead.
        let (mut plan, _) = self.plan(kernel, range, true)?;
        let seq = self.next_seq();
        let cmd = plan.cmd.take().expect("plan lowered on request");
        let recorded = self.race.as_ref().map(|_| Arc::clone(&cmd));
        let launch = self.launch(kernel, &plan, seq, queued_ns, recorded);
        // Deadline-armed launches hard-block their calling thread in the
        // watchdog wait, so they get a dedicated thread; without a deadline
        // the launch claims chunks until none are left, then waits only on
        // chunks already running — safe on a pool worker.
        let dispatch = if self.cfg.launch_timeout.is_some() {
            Dispatch::Thread
        } else {
            Dispatch::Pool
        };
        Ok(sched.submit(
            self.id,
            seq,
            cmd,
            wait,
            false,
            false,
            dispatch,
            self.race.as_deref(),
            Box::new(move |order| launch.run(Some(order))),
        ))
    }

    /// `clEnqueueMarkerWithWaitList`: completes once every event in `wait`
    /// completes — or, with an empty list, once everything currently
    /// pending on the queue completes. Orders nothing by itself.
    pub fn submit_marker(&self, wait: &[EventRef]) -> Result<EventRef, ClError> {
        self.submit_sync_point(wait, false)
    }

    /// `clEnqueueBarrierWithWaitList`: like a marker, but every command
    /// submitted later also waits on it — a full pipeline fence inside an
    /// out-of-order queue.
    pub fn submit_barrier(&self, wait: &[EventRef]) -> Result<EventRef, ClError> {
        self.submit_sync_point(wait, true)
    }

    fn submit_sync_point(&self, wait: &[EventRef], barrier: bool) -> Result<EventRef, ClError> {
        let label = if barrier { "barrier" } else { "marker" };
        let Some(sched) = &self.sched else {
            // In-order queue: the stream is already serialized; wait the
            // list and record the semantic marker.
            for w in wait {
                let _ = w.wait(self.cfg.launch_timeout);
            }
            self.marker();
            return Ok(EventRef::completed(Event::new(
                CommandKind::Marker,
                0.0,
                false,
            )));
        };
        let seq = self.next_seq();
        let cmd = Arc::new(flow::marker_command(label));
        let record = self.race.clone().map(|rl| (rl, Arc::clone(&cmd)));
        let qid = self.id;
        let work = Box::new(move |order: Order| {
            if let Some((rl, cmd)) = &record {
                rl.push(order.record(HbRecord::command(qid, seq, (**cmd).clone(), false)));
            }
            Ok(Event::new(CommandKind::Marker, 0.0, false))
        });
        Ok(sched.submit(
            self.id,
            seq,
            cmd,
            wait,
            wait.is_empty(),
            barrier,
            Dispatch::Pool,
            self.race.as_deref(),
            work,
        ))
    }

    /// Out-of-order queues: drain the pending commands that conflict with
    /// `footprint` ([`Scheduler::drain`]). Returns the blocking operation's
    /// [`Order`] for happens-before recording.
    fn drain(&self, footprint: &FlowCommand) -> Result<Order, ClError> {
        match &self.sched {
            Some(sched) => sched.drain(footprint, self.race.as_deref(), self.cfg.launch_timeout),
            None => Ok(Order::default()),
        }
    }

    /// Record a completed blocking command into the context's race log:
    /// the command plus its host-sync effect (the enqueuing thread observed
    /// completion, ordering it before everything enqueued later).
    fn race_record(&self, rl: &RaceLog, ev: &Event, cmd: FlowCommand, order: Order) {
        let mut rec = HbRecord::command(self.id, ev.seq, cmd, true)
            .observed(ev.profiling.started_ns, ev.profiling.completed_ns);
        if self.sched.is_some() {
            // On an out-of-order queue program order means nothing; the
            // record carries its drain's order instead (plus its host-sync
            // effect, from `blocking`).
            rec = order.record(rec);
        }
        rl.push(rec);
    }

    /// The one path of the blocking copy transfers. The command's footprint
    /// is built once — and only when the scheduler or the race log reads
    /// it — and serves both: the pending commands it conflicts with drain
    /// before `body` runs, then it is recorded in the race log.
    fn transfer(
        &self,
        kind: CommandKind,
        queued_ns: u64,
        bytes: usize,
        footprint: impl FnOnce() -> FlowCommand,
        body: impl FnOnce() -> Result<(), ClError>,
    ) -> Result<Event, ClError> {
        let cmd = self.reads_footprints().then(footprint);
        let order = match &cmd {
            Some(cmd) => self.drain(cmd)?,
            None => Order::default(),
        };
        let started_ns = trace::now_ns();
        body()?;
        let ev = self.transfer_event(kind, queued_ns, started_ns, bytes);
        if let (Some(rl), Some(cmd)) = (&self.race, cmd) {
            self.race_record(rl, &ev, cmd, order);
        }
        Ok(ev)
    }

    /// `clEnqueueWriteBuffer` (blocking): host → buffer, two copies through a
    /// bounded staging window.
    pub fn write_buffer<T: Pod>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        src: &[T],
    ) -> Result<Event, ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(buf)?;
        let bytes = std::mem::size_of_val(src);
        let byte_off = elem_offset_bytes::<T>(buf.byte_offset(), offset)?;
        let footprint = || {
            let u = flow::transfer_use(buf).writes(byte_off as i128, (byte_off + bytes) as i128);
            FlowCommand::new(FlowOp::WriteBuffer, format!("write {bytes}B"), vec![u])
        };
        self.transfer(
            CommandKind::WriteBuffer,
            queued_ns,
            bytes,
            footprint,
            || {
                // SAFETY: `src` is a live `&[T]` of exactly `bytes` bytes, and any
                // byte pattern is a valid `u8`.
                let raw = unsafe { std::slice::from_raw_parts(src.as_ptr() as *const u8, bytes) };
                Ok(self
                    .ctx
                    .inner
                    .transfer
                    .write_buffer(&buf.inner.region, byte_off, raw)?)
            },
        )
    }

    /// `clEnqueueReadBuffer` (blocking): buffer → host, two copies through a
    /// bounded staging window.
    pub fn read_buffer<T: Pod>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        dst: &mut [T],
    ) -> Result<Event, ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(buf)?;
        let bytes = std::mem::size_of_val(dst);
        let byte_off = elem_offset_bytes::<T>(buf.byte_offset(), offset)?;
        let footprint = || {
            let u = flow::transfer_use(buf).reads(byte_off as i128, (byte_off + bytes) as i128);
            FlowCommand::new(FlowOp::ReadBuffer, format!("read {bytes}B"), vec![u])
        };
        self.transfer(CommandKind::ReadBuffer, queued_ns, bytes, footprint, || {
            // SAFETY: `dst` is a live, uniquely borrowed `&mut [T]` of exactly
            // `bytes` bytes, and `T: Pod` accepts any byte pattern written.
            let raw = unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, bytes) };
            Ok(self
                .ctx
                .inner
                .transfer
                .read_buffer(&buf.inner.region, byte_off, raw)?)
        })
    }

    /// The map command behind [`map_buffer`](Self::map_buffer) and
    /// [`map_buffer_mut`](Self::map_buffer_mut).
    fn map<'q, T: Pod>(
        &'q self,
        buf: &'q Buffer<T>,
        writable: bool,
    ) -> Result<(Mapping<'q>, Event), ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(buf)?;
        let window = self.reads_footprints().then(|| flow::transfer_use(buf));
        let order = match (&self.sched, &window) {
            // The mapping's race-log id is taken once the map succeeds;
            // `conflicts` reads only the window and the map's intent.
            (Some(_), Some(u)) => self.drain(&flow::map_command(0, u, writable))?,
            _ => Order::default(),
        };
        let started_ns = trace::now_ns();
        let mode = if writable {
            MapMode::ReadWrite
        } else {
            MapMode::Read
        };
        let guard = self.ctx.inner.transfer.map(
            &buf.inner.region,
            buf.byte_offset(),
            buf.byte_len(),
            mode,
        )?;
        let ev = self.transfer_event(
            CommandKind::MapBuffer,
            queued_ns,
            started_ns,
            buf.byte_len(),
        );
        let record = self.race.as_ref().zip(window).map(|(rl, u)| {
            let id = rl.next_map_id();
            self.race_record(rl, &ev, flow::map_command(id, &u, writable), order);
            (id, u)
        });
        let mapping = Mapping {
            queue: self,
            record,
            writable,
            map_seq: ev.seq,
            guard,
        };
        Ok((mapping, ev))
    }

    /// `clEnqueueMapBuffer` with `CL_MAP_READ` (blocking): zero-copy host
    /// access to the buffer's bytes.
    pub fn map_buffer<'q, T: Pod>(
        &'q self,
        buf: &'q Buffer<T>,
    ) -> Result<(TypedMap<'q, T>, Event), ClError> {
        let (map, ev) = self.map(buf, false)?;
        Ok((
            TypedMap {
                map,
                _t: PhantomData,
            },
            ev,
        ))
    }

    /// `clEnqueueMapBuffer` with `CL_MAP_WRITE` (blocking).
    pub fn map_buffer_mut<'q, T: Pod>(
        &'q self,
        buf: &'q Buffer<T>,
    ) -> Result<(TypedMapMut<'q, T>, Event), ClError> {
        let (map, ev) = self.map(buf, true)?;
        Ok((
            TypedMapMut {
                map,
                _t: PhantomData,
            },
            ev,
        ))
    }

    /// `clEnqueueCopyBuffer` (blocking): device-side copy between two
    /// buffers of the same context, no staging and no host round-trip.
    pub fn copy_buffer<T: Pod>(
        &self,
        src: &Buffer<T>,
        src_offset: usize,
        dst: &Buffer<T>,
        dst_offset: usize,
        count: usize,
    ) -> Result<Event, ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(src)?;
        self.check_ctx(dst)?;
        let elem = std::mem::size_of::<T>();
        // Host-API-reachable sizes: a hostile `count`/offset must surface as
        // CL_INVALID_BUFFER_SIZE, not an arithmetic overflow panic.
        let bytes = count.checked_mul(elem).ok_or(ClError::BufferTooLarge)?;
        let src_off = elem_offset_bytes::<T>(src.byte_offset(), src_offset)?;
        let dst_off = elem_offset_bytes::<T>(dst.byte_offset(), dst_offset)?;
        let footprint = || {
            let uses = vec![
                flow::transfer_use(src).reads(src_off as i128, (src_off + bytes) as i128),
                flow::transfer_use(dst).writes(dst_off as i128, (dst_off + bytes) as i128),
            ];
            FlowCommand::new(FlowOp::CopyBuffer, format!("copy {bytes}B"), uses)
        };
        self.transfer(
            CommandKind::WriteBuffer,
            queued_ns,
            bytes,
            footprint,
            || {
                Ok(dst
                    .inner
                    .region
                    .copy_from(dst_off, &src.inner.region, src_off, bytes)?)
            },
        )
    }

    /// `clEnqueueFillBuffer` (blocking): fill the buffer's window with a
    /// repeated element value.
    pub fn fill_buffer<T: Pod>(&self, buf: &Buffer<T>, value: T) -> Result<Event, ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(buf)?;
        let (lo, bytes) = (buf.byte_offset(), buf.byte_len());
        let footprint = || {
            let u = flow::transfer_use(buf).writes(lo as i128, (lo + bytes) as i128);
            FlowCommand::new(FlowOp::FillBuffer, format!("fill {bytes}B"), vec![u])
        };
        self.transfer(
            CommandKind::WriteBuffer,
            queued_ns,
            bytes,
            footprint,
            || {
                let elem = std::mem::size_of::<T>();
                // SAFETY: `value` is a live `T` of `elem` bytes, and any byte
                // pattern is a valid `u8`.
                let raw =
                    unsafe { std::slice::from_raw_parts(&value as *const T as *const u8, elem) };
                // Replicate the element into one row of at most FILL_ROW bytes
                // (whole elements, at least one) and write it piece by piece.
                let row_len = (bytes.min(FILL_ROW) / elem).max(1) * elem;
                let mut row = vec![0u8; row_len];
                for chunk in row.chunks_exact_mut(elem) {
                    chunk.copy_from_slice(raw);
                }
                for start in (0..bytes).step_by(row_len) {
                    let n = row_len.min(bytes - start);
                    buf.inner.region.write_from(lo + start, &row[..n])?;
                }
                Ok(())
            },
        )
    }

    /// `clEnqueueUnmapMemObject` by buffer window: force-release the one
    /// outstanding mapping that covers exactly this handle's byte range.
    ///
    /// Surfaces the unmap-of-unmapped path as a typed error —
    /// `ClError::Mem(MemError::NotMapped)` — instead of a silent no-op or
    /// debug panic. The usual RAII path ([`TypedMap`]/[`TypedMapMut`]
    /// dropping) does not need this; it exists for explicit lifecycle
    /// control (e.g. a guard handed to `std::mem::forget`) and for error
    /// surface parity with OpenCL's `CL_INVALID_VALUE` on bad unmaps.
    pub fn unmap_buffer<T: Pod>(&self, buf: &Buffer<T>) -> Result<Event, ClError> {
        let queued_ns = trace::now_ns();
        self.check_ctx(buf)?;
        let started_ns = trace::now_ns();
        self.ctx.inner.transfer.unmap_range(
            &buf.inner.region,
            buf.byte_offset(),
            buf.byte_len(),
        )?;
        Ok(self.transfer_event(
            CommandKind::UnmapBuffer,
            queued_ns,
            started_ns,
            buf.byte_len(),
        ))
    }

    /// `clFinish`: drain the queue. On an in-order queue all commands block
    /// already, so execution-wise this is a no-op — but it is a *semantic*
    /// sync point, and with race recording on it lands in the context's
    /// stream: everything this queue ran so far happens-before everything
    /// any queue enqueues afterwards.
    ///
    /// On an out-of-order queue this blocks until the pending DAG drains.
    /// With `launch_timeout` set, a DAG that cannot drain (e.g. a command
    /// gated on a user event nobody signals) trips the watchdog instead of
    /// hanging: never-dispatched commands fail with
    /// [`ClError::DependencyFailed`] and this returns
    /// [`ClError::FinishTimedOut`].
    pub fn finish(&self) -> Result<(), ClError> {
        let drained = match &self.sched {
            Some(sched) => sched.finish(self.cfg.launch_timeout),
            None => Ok(()),
        };
        if let Some(rl) = &self.race {
            rl.push(HbRecord::finish(self.id));
        }
        drained
    }

    /// `clEnqueueMarker`: an in-queue synchronization point. On an in-order
    /// queue it orders nothing beyond program order — the hb analysis
    /// records it and reports it in the removable-sync (over-sync) set.
    pub fn marker(&self) {
        if let Some(rl) = &self.race {
            rl.push(HbRecord::marker(self.id));
        }
    }

    /// Build a completed transfer's event: duration (wall for native,
    /// modeled — a map or a copy — for modeled devices), bytes, the four
    /// profiling timestamps, and — when tracing — a
    /// [`SpanKind::Transfer`](crate::SpanKind) span.
    fn transfer_event(
        &self,
        kind: CommandKind,
        queued_ns: u64,
        started_ns: u64,
        bytes: usize,
    ) -> Event {
        let end_ns = trace::now_ns();
        let (duration_s, modeled) = match self.ctx.device().kind() {
            DeviceKind::NativeCpu => (end_ns.saturating_sub(started_ns) as f64 / 1e9, false),
            DeviceKind::ModeledCpu(_) | DeviceKind::ModeledGpu(_) => {
                let model = self.ctx.device().transfer_model();
                let d = match kind {
                    CommandKind::MapBuffer | CommandKind::UnmapBuffer => model.map_time(bytes),
                    _ => model.copy_time(bytes),
                };
                (d, true)
            }
        };
        // As for kernels: modeled devices report the modeled transfer window.
        let completed_ns = if modeled {
            started_ns + (duration_s * 1e9) as u64
        } else {
            end_ns
        };
        let mut ev = Event::new(kind, duration_s, modeled);
        ev.bytes = bytes as u64;
        ev.queue_id = self.id;
        ev.seq = self.next_seq();
        ev.profiling = ProfilingInfo {
            queued_ns,
            submitted_ns: started_ns,
            started_ns,
            completed_ns,
        };
        if let Some(log) = &self.trace {
            log.record(Span::transfer(
                kind,
                bytes,
                started_ns,
                completed_ns.saturating_sub(started_ns),
            ));
        }
        ev
    }
}

/// One planned kernel launch: run in place by an in-order queue, or moved
/// into an out-of-order queue's work closure.
struct Launch {
    device: Device,
    kernel: Arc<dyn Kernel>,
    resolved: ResolvedRange,
    coarsen: usize,
    timeout: Option<std::time::Duration>,
    trace: Option<Arc<TraceLog>>,
    /// The context's race log and the Launch command recorded into it.
    race: Option<(Arc<RaceLog>, Arc<FlowCommand>)>,
    queue_id: u64,
    seq: u64,
    queued_ns: u64,
}

impl Launch {
    /// Execute the launch, record it in the race log, and stamp its event.
    /// An out-of-order command's `order` replaces program order in its race
    /// record.
    fn run(self, order: Option<Order>) -> Result<Event, ClError> {
        let pool = self.device.pool();
        // Scoped sink install: the pool reports steals and worker lifecycle
        // events into this queue's log only while one of its traced launches
        // is in flight, so untraced queues sharing the pool stay silent and
        // a traced queue doesn't collect other queues' scheduling noise.
        let _sink = self.trace.as_ref().map(|log| {
            pool.set_event_sink(Arc::clone(log) as Arc<dyn cl_pool::PoolEventSink>);
            SinkGuard { pool }
        });
        // Self-healing: respawn any worker a previous launch's fatal fault
        // retired, so a faulted queue recovers on its next enqueue. One
        // atomic load when nothing died. (Runs under the sink install so a
        // respawn triggered by this enqueue lands in the trace.)
        let respawned = pool.recover() as u64;
        let res = execute_kernel(
            &self.device,
            &self.kernel,
            &self.resolved,
            self.timeout,
            self.trace.as_ref(),
            self.queued_ns,
            self.coarsen,
        );
        if let Some((rl, cmd)) = self.race {
            // Launches record as *asynchronous* commands — OpenCL
            // semantics, which the hb analysis certifies against — with the
            // observed execution window for the dynamic layer. Faulted
            // launches record unobserved (0, 0). Out-of-order launches
            // record at completion: a dependency's record is always pushed
            // before its dependents', so wait edges point forward.
            let (start_ns, end_ns) = res.as_ref().map_or((0, 0), |ev| {
                (ev.profiling.started_ns, ev.profiling.completed_ns)
            });
            let cmd = Arc::unwrap_or_clone(cmd);
            let mut rec =
                HbRecord::command(self.queue_id, self.seq, cmd, false).observed(start_ns, end_ns);
            if let Some(order) = order {
                rec = order.record(rec);
            }
            rl.push(rec);
        }
        res.map(|mut ev| {
            ev.workers_respawned = respawned;
            ev.queue_id = self.queue_id;
            ev.seq = self.seq;
            ev
        })
    }
}

/// Uninstalls the pool event sink a traced enqueue installed, even on the
/// error paths.
struct SinkGuard<'p> {
    pool: &'p Arc<cl_pool::ThreadPool>,
}

impl Drop for SinkGuard<'_> {
    fn drop(&mut self) {
        self.pool.clear_event_sink();
    }
}

/// Byte offset of element `offset` within a buffer window, with the
/// arithmetic checked: an element offset large enough to overflow `usize`
/// is a host API error (`CL_INVALID_BUFFER_SIZE`), never a panic.
fn elem_offset_bytes<T: Pod>(base: usize, offset: usize) -> Result<usize, ClError> {
    offset
        .checked_mul(std::mem::size_of::<T>())
        .and_then(|o| o.checked_add(base))
        .ok_or(ClError::BufferTooLarge)
}

/// Decide the workgroup-fusion factor for one (kernel, resolved range)
/// plan under the queue's [`CoarsenMode`]. Runs once per plan-cache miss.
///
/// `Auto` coarsens only kernels whose access spec the prover certifies
/// (`Proven`), by the cost model's chosen factor — or, for a tuned plan, by
/// the tuner's `tuned_chunk` clamped to the proven `k_max` (the tuner
/// proposes, the prover disposes); spec-less, `Unknown`, and `Illegal`
/// kernels silently run uncoarsened. `Force(k)` is an assertion of legality
/// the prover must back: any kernel it cannot certify is rejected at
/// enqueue time with [`ClError::ContractViolation`] — in release builds
/// too, unlike the debug-only contract gates.
fn coarsen_factor(
    kernel: &Arc<dyn Kernel>,
    resolved: &ResolvedRange,
    mode: CoarsenMode,
    workers: usize,
    tuned_chunk: Option<usize>,
) -> Result<usize, ClError> {
    let analyzed = |k: &Arc<dyn Kernel>| {
        k.access_spec(resolved)
            .map(|spec| (cl_analyze::analyze_coarsen(&spec), spec))
    };
    match mode {
        CoarsenMode::Off => Ok(1),
        CoarsenMode::Auto => Ok(match (analyzed(kernel), tuned_chunk) {
            (None, _) => 1,
            (Some((analysis, _)), Some(chunk)) => match analysis.verdict {
                cl_analyze::CoarsenVerdict::Proven { k_max } => chunk.min(k_max).max(1),
                _ => 1,
            },
            (Some((analysis, spec)), None) => {
                let profile = kernel.profile();
                // Arithmetic ops per 4-byte element moved — the one feature
                // the access spec cannot carry.
                let ratio = profile.flops / (profile.mem_bytes / 4.0).max(1.0);
                let feats = cl_analyze::features(&spec, ratio);
                cl_analyze::choose_factor(&analysis, &feats, workers).factor
            }
        }),
        CoarsenMode::Force(k) => {
            let k = k.max(1);
            let refuse = |why: String| {
                Err(ClError::ContractViolation {
                    kernel: kernel.name().to_string(),
                    findings: vec![format!("forced coarsening x{k} refused: {why}")],
                })
            };
            match analyzed(kernel) {
                None => refuse("kernel publishes no access spec to prove fusion legality".into()),
                Some((analysis, _)) => match analysis.verdict {
                    cl_analyze::CoarsenVerdict::Proven { k_max } => Ok(k.min(k_max)),
                    v => refuse(format!(
                        "coarsening verdict is {}: {}",
                        v.label(),
                        v.reason()
                    )),
                },
            }
        }
    }
}

/// Build the tuner's candidate shortlist for one NULL-local launch: the
/// untuned heuristic resolution (always a candidate — the tuner can only
/// match or beat it on measured configs), the kernel's static features
/// when it publishes an access spec, and the [`cl_tune::shortlist`] prior
/// over both. Runs once per [`cl_tune::TuneKey`] per process.
fn tune_candidates(
    kernel: &Arc<dyn Kernel>,
    range: NDRange,
    device: &Device,
) -> Vec<cl_tune::TunedConfig> {
    let Ok(default) = range.resolve_with(device.default_wg(), device.null_target_groups()) else {
        return Vec::new();
    };
    let features = kernel.access_spec(&default).map(|spec| {
        let profile = kernel.profile();
        let ratio = profile.flops / (profile.mem_bytes / 4.0).max(1.0);
        cl_analyze::features(&spec, ratio)
    });
    let geom = cl_tune::TuneGeometry {
        global: range.global(),
        dims: range.dims(),
    };
    cl_tune::shortlist(
        &geom,
        features.as_ref(),
        device.default_wg(),
        device.pool().workers(),
        default.local[0],
    )
}

/// Debug-build enqueue gate: kernels that publish an access spec are run
/// through the static lints, and a *proven* contract violation (conflicting
/// writes, local race, divergent barrier, out-of-bounds) rejects the launch
/// before it executes. Unproven properties pass — they are what the dynamic
/// `validate_disjoint_writes` exists for. A queue with
/// `QueueConfig::skip_static_check` set opts out (e.g. to launch a racy
/// fixture on purpose).
#[cfg(debug_assertions)]
fn check_contract(kernel: &Arc<dyn Kernel>, resolved: &ResolvedRange) -> Result<(), ClError> {
    let Some(spec) = kernel.access_spec(resolved) else {
        return Ok(());
    };
    let analysis = cl_analyze::analyze(&spec);
    if analysis.has_errors() {
        return Err(ClError::ContractViolation {
            kernel: kernel.name().to_string(),
            findings: analysis
                .findings
                .iter()
                .filter(|f| f.severity == cl_analyze::Severity::Error)
                .map(|f| format!("[{}] {}", f.kind.as_str(), f.message))
                .collect(),
        });
    }
    Ok(())
}

/// Debug-build enqueue gate #2, the flow layer's flag-contract check:
/// kernels that publish arg bindings are checked against their buffers'
/// allocation flags — a *definite* write into a `READ_ONLY` allocation (or
/// read of a `WRITE_ONLY` one) rejects the launch with a typed
/// [`ClError::ContractViolation`] instead of the kernel-side view panic it
/// would otherwise hit mid-launch. May-only overlaps pass (they surface as
/// warnings in offline `cl-flow` analysis). Same opt-out as
/// [`check_contract`].
#[cfg(debug_assertions)]
fn check_flag_contract(launch: &FlowCommand) -> Result<(), ClError> {
    if launch.uses.is_empty() {
        return Ok(());
    }
    let analysis = cl_analyze::analyze_flow(std::slice::from_ref(launch));
    // Only the flag-contract lint is meaningful on a single-command stream
    // (read-before-write etc. need the full history this gate cannot see).
    let findings: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| {
            f.kind == cl_analyze::FlowLintKind::FlagContract
                && f.severity == cl_analyze::Severity::Error
        })
        .map(|f| format!("[{}] {}", f.kind.as_str(), f.message))
        .collect();
    if !findings.is_empty() {
        return Err(ClError::ContractViolation {
            kernel: launch.label.clone(),
            findings,
        });
    }
    Ok(())
}

/// Debug-build enqueue gate #3, the cross-queue race check: with the
/// context recording its multi-queue stream, a launch whose footprint
/// *provably* races (must-overlap, no happens-before path) with another
/// queue's recorded command is rejected with a typed
/// [`ClError::ContractViolation`] before it executes. Only races involving
/// the new command reject — pre-existing stream races are `cl-race`'s
/// business, not this launch's. Same opt-out as the other gates.
#[cfg(debug_assertions)]
fn check_cross_queue(race: &RaceLog, queue_id: u64, launch: &FlowCommand) -> Result<(), ClError> {
    if launch.uses.is_empty() {
        return Ok(());
    }
    let findings =
        cl_analyze::hb::incremental_race_check(&race.records(), queue_id, u64::MAX, launch);
    if !findings.is_empty() {
        return Err(ClError::ContractViolation {
            kernel: launch.label.clone(),
            findings,
        });
    }
    Ok(())
}

/// A live mapping and its deferred Unmap records — the body behind
/// [`TypedMap`] and [`TypedMapMut`]. When the host view drops, the Unmap
/// command lands in the race log (host writes through a writable mapping
/// become visible at unmap, and the unmap is a blocking sync point), and
/// then the guard releases the mapping.
struct Mapping<'q> {
    queue: &'q CommandQueue,
    /// The mapping's race-log id and the mapped window's base use; present
    /// iff the context records.
    record: Option<(u64, BufUse)>,
    writable: bool,
    /// The Map command's sequence number: on an out-of-order queue the
    /// Unmap record orders after it by an explicit wait edge.
    map_seq: u64,
    guard: MapGuard<'q>,
}

impl Mapping<'_> {
    fn as_slice<T: Pod>(&self) -> &[T] {
        let bytes = self.guard.as_slice();
        // SAFETY: T is Pod; the region is REGION_ALIGN-aligned and the
        // mapping starts at offset 0.
        unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr() as *const T,
                bytes.len() / std::mem::size_of::<T>(),
            )
        }
    }

    fn as_mut_slice<T: Pod>(&mut self) -> &mut [T] {
        let bytes = self.guard.as_mut_slice();
        let len = bytes.len() / std::mem::size_of::<T>();
        // SAFETY: as for `as_slice`, plus unique access through &mut self.
        unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr() as *mut T, len) }
    }
}

impl Drop for Mapping<'_> {
    fn drop(&mut self) {
        let q = self.queue;
        let (Some(rl), Some((id, u))) = (&q.race, &self.record) else {
            return;
        };
        let now = trace::now_ns();
        let cmd = flow::unmap_command(*id, u, self.writable);
        let mut rec = HbRecord::command(q.id, q.next_seq(), cmd, true).observed(now, now);
        if q.sched.is_some() {
            // Program order is meaningless on an out-of-order queue: the
            // unmap orders after its map via an explicit wait edge.
            rec = rec.ooo_waits(vec![(q.id, self.map_seq)]);
        }
        rl.push(rec);
    }
}

/// A read mapping viewed as a `[T]` slice. Unmaps on drop.
pub struct TypedMap<'a, T: Pod> {
    map: Mapping<'a>,
    _t: PhantomData<T>,
}

impl<T: Pod> TypedMap<'_, T> {
    /// The mapping's id in the context's [`RaceLog`], when the context
    /// records (for attributing host accesses via
    /// [`RaceLog::record_host_access`]).
    pub fn map_id(&self) -> Option<u64> {
        self.map.record.as_ref().map(|(id, _)| *id)
    }
}

impl<T: Pod> std::ops::Deref for TypedMap<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.map.as_slice()
    }
}

/// A write mapping viewed as a mutable `[T]` slice. Unmaps on drop; the
/// host's writes are recorded at the unmap, where they become visible.
pub struct TypedMapMut<'a, T: Pod> {
    map: Mapping<'a>,
    _t: PhantomData<T>,
}

impl<T: Pod> TypedMapMut<'_, T> {
    /// The mapping's id in the context's [`RaceLog`], when the context
    /// records.
    pub fn map_id(&self) -> Option<u64> {
        self.map.record.as_ref().map(|(id, _)| *id)
    }
}

impl<T: Pod> std::ops::Deref for TypedMapMut<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.map.as_slice()
    }
}

impl<T: Pod> std::ops::DerefMut for TypedMapMut<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.map.as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::GroupCtx;
    use crate::MemFlags;
    use perf_model::{CpuSpec, GpuSpec, KernelProfile};

    struct AddOne {
        data: Buffer<f32>,
    }

    impl Kernel for AddOne {
        fn name(&self) -> &str {
            "add_one"
        }
        fn run_group(&self, g: &mut GroupCtx) {
            let d = self.data.view_mut();
            g.for_each(|wi| {
                let i = wi.global_id(0);
                d.set(i, d.get(i) + 1.0);
            });
        }
        fn profile(&self) -> KernelProfile {
            KernelProfile::streaming(1.0, 8.0)
        }
        fn buffer_bindings(&self) -> Vec<crate::kernel::ArgBinding> {
            vec![crate::kernel::ArgBinding::of("data", &self.data)]
        }
    }

    fn ctx_native() -> Context {
        Context::new(Device::native_cpu(2).unwrap())
    }

    #[test]
    fn write_kernel_read_roundtrip() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 100).unwrap();
        q.write_buffer(&buf, 0, &vec![1.0f32; 100]).unwrap();
        let ev = q
            .run(AddOne { data: buf.clone() }, NDRange::d1(100))
            .unwrap();
        assert_eq!(ev.items, 100);
        let mut out = vec![0.0f32; 100];
        q.read_buffer(&buf, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn mapping_views_live_bytes() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<u32>(MemFlags::default(), 8).unwrap();
        {
            let (mut m, ev) = q.map_buffer_mut(&buf).unwrap();
            assert_eq!(ev.bytes, 32);
            m[3] = 99;
        }
        let (m, _) = q.map_buffer(&buf).unwrap();
        assert_eq!(m[3], 99);
        // Mapping moved zero bytes through staging.
        assert_eq!(ctx.transfer().stats().snapshot().bytes_copied, 0);
    }

    #[test]
    fn copy_apis_move_double_the_bytes() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 64).unwrap();
        q.write_buffer(&buf, 0, &vec![0.5f32; 64]).unwrap();
        let snap = ctx.transfer().stats().snapshot();
        assert_eq!(snap.bytes_copied, 2 * 64 * 4);
        assert_eq!(snap.staging_allocs, 1);
    }

    #[test]
    fn wrong_context_rejected() {
        let ctx_a = ctx_native();
        let ctx_b = ctx_native();
        let buf = ctx_a.buffer::<f32>(MemFlags::default(), 4).unwrap();
        let q_b = ctx_b.queue();
        assert!(matches!(
            q_b.write_buffer(&buf, 0, &[0.0f32; 4]),
            Err(ClError::WrongContext)
        ));
    }

    #[test]
    fn modeled_devices_report_modeled_times() {
        for dev in [
            Device::modeled_cpu(CpuSpec::xeon_e5645()),
            Device::modeled_gpu(GpuSpec::gtx580()),
        ] {
            let ctx = Context::new(dev);
            let q = ctx.queue();
            let buf = ctx.buffer::<f32>(MemFlags::default(), 1024).unwrap();
            let ev = q
                .run(AddOne { data: buf.clone() }, NDRange::d1(1024).local1(256))
                .unwrap();
            assert!(ev.modeled);
            assert!(ev.duration_s() > 0.0);
            // Correctness is preserved on modeled devices.
            let mut out = vec![0.0f32; 1024];
            q.read_buffer(&buf, 0, &mut out).unwrap();
            assert!(out.iter().all(|&x| x == 1.0));
        }
    }

    #[test]
    fn modeled_map_is_cheaper_than_copy() {
        let ctx = Context::new(Device::modeled_cpu(CpuSpec::xeon_e5645()));
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 1 << 20).unwrap();
        let copy_ev = q.write_buffer(&buf, 0, &vec![0.0f32; 1 << 20]).unwrap();
        let (map, map_ev) = q.map_buffer(&buf).unwrap();
        drop(map);
        assert!(map_ev.duration_s() < copy_ev.duration_s());
    }

    #[test]
    fn kernel_with_null_local_runs() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 1000).unwrap();
        let ev = q.run(AddOne { data: buf }, NDRange::d1(1000)).unwrap();
        // NULL local resolved to some divisor; every item ran once.
        assert_eq!(ev.items, 1000);
        assert!(ev.groups >= 2);
    }

    /// A kernel whose spec the prover can refute: every group's leader
    /// writes element 0.
    struct ProvenRacy {
        data: Buffer<f32>,
    }
    impl Kernel for ProvenRacy {
        fn name(&self) -> &str {
            "proven_racy"
        }
        fn run_group(&self, g: &mut GroupCtx) {
            let d = self.data.view_mut();
            g.for_each(|wi| {
                if wi.local_id(0) == 0 {
                    d.set(0, 1.0);
                }
            });
        }
        fn access_spec(
            &self,
            range: &crate::ndrange::ResolvedRange,
        ) -> Option<cl_analyze::KernelAccessSpec> {
            use cl_analyze::{Affine, Guard, SpecBuilder};
            let mut b = SpecBuilder::new(self.name(), range.lint_geometry());
            let out = b.buffer("data", self.data.len());
            b.write(out, Affine::constant(0), Guard::LocalLeader);
            Some(b.finish())
        }
    }

    /// Debug builds reject a launch whose spec is a proven contract
    /// violation at enqueue time, before any group runs; a queue with
    /// `skip_static_check` lets it run, as release builds do.
    #[test]
    #[cfg(debug_assertions)]
    fn proven_violation_is_rejected_at_enqueue() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 64).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(ProvenRacy { data: buf.clone() });
        let err = q.enqueue_kernel(&k, NDRange::d1(64).local1(8)).unwrap_err();
        match err {
            ClError::ContractViolation { kernel, findings } => {
                assert_eq!(kernel, "proven_racy");
                assert!(!findings.is_empty());
                assert!(findings[0].contains("disjoint-writes"), "{findings:?}");
            }
            other => panic!("expected ContractViolation, got {other:?}"),
        }
        // Nothing ran: the buffer is untouched.
        let mut out = vec![0.0f32; 64];
        q.read_buffer(&buf, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));

        ctx.queue_with(QueueConfig::default().skip_static_check(true))
            .enqueue_kernel(&k, NDRange::d1(64).local1(8))
            .unwrap();
    }

    /// Single-group launches of the same kernel are contract-clean and must
    /// not be rejected (the guard-aware geometry sensitivity of the lints).
    #[test]
    fn single_group_launch_of_leader_writer_is_accepted() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 64).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(ProvenRacy { data: buf.clone() });
        q.enqueue_kernel(&k, NDRange::d1(64).local1(64)).unwrap();
    }

    #[test]
    fn recording_captures_the_command_stream() {
        use cl_analyze::HazardKind;
        let ctx = race_ctx();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 16).unwrap();
        q.write_buffer(&buf, 0, &[1.0f32; 16]).unwrap();
        q.run(AddOne { data: buf.clone() }, NDRange::d1(16))
            .unwrap();
        let mut out = vec![0.0f32; 16];
        q.read_buffer(&buf, 0, &mut out).unwrap();

        let log = ctx.race().expect("recording context has a log");
        let cmds = log.queue_commands(q.id());
        assert_eq!(cmds.len(), 3);
        assert!(matches!(cmds[0].op, FlowOp::WriteBuffer));
        assert!(
            matches!(&cmds[1].op, FlowOp::Launch { kernel, has_spec } if kernel == "add_one" && !has_spec)
        );
        assert!(matches!(cmds[2].op, FlowOp::ReadBuffer));
        // The spec-less kernel gets conservative whole-window may sets from
        // its binding, so the chain is connected but unproven.
        let a = cl_analyze::analyze_flow(&cmds);
        assert!(!a.has_violations(), "{:?}", a.findings);
        assert!(a
            .edges
            .iter()
            .any(|e| e.kind == HazardKind::Raw && e.from == 1 && e.to == 2));
    }

    /// Without recording, maps hand out no ids and nothing is logged.
    #[test]
    fn disabled_recording_has_no_log() {
        let ctx = ctx_native();
        let q = ctx.queue();
        assert!(ctx.race().is_none());
        let buf = ctx.buffer::<f32>(MemFlags::default(), 4).unwrap();
        q.write_buffer(&buf, 0, &[0.0f32; 4]).unwrap();
        assert!(q.map_buffer_mut(&buf).unwrap().0.map_id().is_none());
        assert!(ctx.race().is_none());
    }

    #[test]
    fn map_unmap_pairs_record_with_live_ids() {
        let ctx = race_ctx();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 8).unwrap();
        {
            let (mut m, _) = q.map_buffer_mut(&buf).unwrap();
            assert!(m.map_id().is_some());
            m[0] = 4.0;
        }
        let cmds = ctx.race().unwrap().queue_commands(q.id());
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0].op, FlowOp::Map { writable: true, .. }));
        assert!(matches!(cmds[1].op, FlowOp::Unmap { .. }));
        let a = cl_analyze::analyze_flow(&cmds);
        assert!(!a.has_violations(), "{:?}", a.findings);
    }

    /// The force-unmap queue surface returns a typed error on the
    /// unmap-of-unmapped path instead of panicking or silently succeeding.
    #[test]
    fn unmap_buffer_surfaces_not_mapped() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 8).unwrap();
        assert!(matches!(
            q.unmap_buffer(&buf),
            Err(ClError::Mem(cl_mem::MemError::NotMapped))
        ));
        let (m, _) = q.map_buffer(&buf).unwrap();
        // Leak the guard: the mapping stays live, and the explicit unmap
        // releases it exactly once.
        std::mem::forget(m);
        q.unmap_buffer(&buf).unwrap();
        assert!(matches!(
            q.unmap_buffer(&buf),
            Err(ClError::Mem(cl_mem::MemError::NotMapped))
        ));
    }

    /// A kernel that definitely writes its buffer, with bindings + spec.
    struct FillOnes {
        out: Buffer<f32>,
    }
    impl Kernel for FillOnes {
        fn name(&self) -> &str {
            "fill_ones"
        }
        fn run_group(&self, g: &mut GroupCtx) {
            let d = self.out.view_mut();
            g.for_each(|wi| d.set(wi.global_id(0), 1.0));
        }
        fn access_spec(
            &self,
            range: &crate::ndrange::ResolvedRange,
        ) -> Option<cl_analyze::KernelAccessSpec> {
            use cl_analyze::{Affine, Guard, SpecBuilder, Var};
            let mut b = SpecBuilder::new(self.name(), range.lint_geometry());
            let out = b.buffer("out", self.out.len());
            b.write(out, Affine::of(Var::GlobalLinear), Guard::Always);
            Some(b.finish())
        }
        fn buffer_bindings(&self) -> Vec<crate::kernel::ArgBinding> {
            vec![crate::kernel::ArgBinding::of("out", &self.out)]
        }
    }

    /// Debug builds reject a definite flag-contract violation at enqueue
    /// time, before any workgroup can hit the kernel-side view panic.
    #[test]
    #[cfg(debug_assertions)]
    fn definite_write_to_read_only_buffer_rejected_at_enqueue() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::READ_ONLY, 32).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(FillOnes { out: buf.clone() });
        let err = q.enqueue_kernel(&k, NDRange::d1(32)).unwrap_err();
        match err {
            ClError::ContractViolation { kernel, findings } => {
                assert_eq!(kernel, "fill_ones");
                assert!(findings[0].contains("flag-contract"), "{findings:?}");
            }
            other => panic!("expected ContractViolation, got {other:?}"),
        }
    }

    /// The same kernel on a writable buffer passes both enqueue gates.
    #[test]
    fn flag_clean_kernel_is_accepted() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, 32).unwrap();
        q.run(FillOnes { out: buf }, NDRange::d1(32)).unwrap();
    }

    fn race_ctx() -> Context {
        Context::new_with(
            Device::native_cpu(2).unwrap(),
            crate::context::ContextConfig::default().race_recording(true),
        )
    }

    /// With race recording on, every queue's commands and sync points land
    /// in the context-level stream with queue ids, and a finish-ordered
    /// producer/consumer pair proves clean on both layers.
    #[test]
    fn race_log_aggregates_queues_and_proves_synced_stream() {
        use cl_analyze::hb::HbOp;
        let ctx = race_ctx();
        let (qa, qb) = (ctx.queue(), ctx.queue());
        assert_ne!(qa.id(), qb.id());
        let buf = ctx.buffer::<f32>(MemFlags::default(), 16).unwrap();
        qa.write_buffer(&buf, 0, &[2.0f32; 16]).unwrap();
        qa.run(AddOne { data: buf.clone() }, NDRange::d1(16))
            .unwrap();
        qa.finish().unwrap();
        let mut out = vec![0.0f32; 16];
        qb.read_buffer(&buf, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 3.0));

        let log = ctx.race().expect("race-recording context has a log");
        let records = log.records();
        assert_eq!(records.len(), 4); // write, launch, finish, read
        assert!(matches!(records[2].op, HbOp::Finish));
        assert_eq!(records[0].queue, qa.id());
        assert_eq!(records[3].queue, qb.id());
        let (analysis, vc) = log.check();
        assert!(!analysis.has_races(), "{:?}", analysis.findings);
        assert!(vc.agrees(), "{:?}", vc.disagreements);
        assert!(vc.linearization_failures.is_empty());
    }

    /// Two queues interleave their commands into one recording context;
    /// each queue's view holds only its own, in order, and the shared map
    /// counter still pairs every Map with its Unmap.
    #[test]
    fn queue_commands_split_the_shared_log_by_queue() {
        let ctx = race_ctx();
        let (qa, qb) = (ctx.queue(), ctx.queue());
        let a = ctx.buffer::<f32>(MemFlags::default(), 16).unwrap();
        let b = ctx.buffer::<f32>(MemFlags::default(), 16).unwrap();
        qa.write_buffer(&a, 0, &[1.0f32; 16]).unwrap();
        qb.write_buffer(&b, 0, &[2.0f32; 16]).unwrap();
        qa.run(AddOne { data: a.clone() }, NDRange::d1(16)).unwrap();
        qb.run(AddOne { data: b.clone() }, NDRange::d1(16)).unwrap();
        {
            let (ma, _) = qa.map_buffer(&a).unwrap();
            let (mb, _) = qb.map_buffer(&b).unwrap();
            assert_ne!(ma.map_id(), mb.map_id());
            assert_eq!((ma[0], mb[0]), (2.0, 3.0));
        }
        let log = ctx.race().unwrap();
        assert_eq!(log.len(), 8);
        for (q, buf) in [(&qa, &a), (&qb, &b)] {
            let cmds = log.queue_commands(q.id());
            assert_eq!(cmds.len(), 4);
            assert!(cmds.iter().all(|c| c.uses[0].buffer == buf.id()));
            assert!(matches!(cmds[0].op, FlowOp::WriteBuffer));
            assert!(matches!(&cmds[1].op, FlowOp::Launch { kernel, .. } if kernel == "add_one"));
            let (FlowOp::Map { id: map, .. }, FlowOp::Unmap { id: unmap }) =
                (&cmds[2].op, &cmds[3].op)
            else {
                panic!("expected map, unmap: {:?}", (&cmds[2].op, &cmds[3].op));
            };
            assert_eq!(map, unmap);
            let a = cl_analyze::analyze_flow(&cmds);
            assert!(!a.has_violations(), "{:?}", a.findings);
        }
    }

    /// Events attribute to their owning queue: stable id + per-queue
    /// sequence numbers, for transfers and launches alike.
    #[test]
    fn events_carry_queue_id_and_seq() {
        let ctx = ctx_native();
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 8).unwrap();
        let e0 = q.write_buffer(&buf, 0, &[1.0f32; 8]).unwrap();
        let e1 = q.run(AddOne { data: buf.clone() }, NDRange::d1(8)).unwrap();
        let mut out = vec![0.0f32; 8];
        let e2 = q.read_buffer(&buf, 0, &mut out).unwrap();
        assert_eq!(e0.queue_id(), q.id());
        assert_eq!(e1.queue_id(), q.id());
        assert_eq!((e0.seq(), e1.seq(), e2.seq()), (0, 1, 2));
        // Another queue starts its own sequence.
        let q2 = ctx.queue();
        let e3 = q2.write_buffer(&buf, 0, &[1.0f32; 8]).unwrap();
        assert_eq!(e3.queue_id(), q2.id());
        assert_eq!(e3.seq(), 0);
    }

    /// The disabled path: contexts without race recording hold no log.
    #[test]
    fn disabled_race_recording_has_no_log() {
        let ctx = ctx_native();
        assert!(ctx.race().is_none());
        let q = ctx.queue();
        let buf = ctx.buffer::<f32>(MemFlags::default(), 4).unwrap();
        q.write_buffer(&buf, 0, &[0.0f32; 4]).unwrap();
        assert!(ctx.race().is_none());
    }

    /// Debug builds reject a launch that provably races with another
    /// queue's recorded command, before it executes.
    #[test]
    #[cfg(debug_assertions)]
    fn cross_queue_race_rejected_at_enqueue() {
        let ctx = race_ctx();
        let (qa, qb) = (ctx.queue(), ctx.queue());
        let buf = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        // Async launch on qa writes the buffer...
        qa.run(FillOnes { out: buf.clone() }, NDRange::d1(32))
            .unwrap();
        // ...and an unsynchronized launch on qb that also writes it must
        // be rejected (WAW, no happens-before path).
        let k: Arc<dyn Kernel> = Arc::new(FillOnes { out: buf.clone() });
        let err = qb.enqueue_kernel(&k, NDRange::d1(32)).unwrap_err();
        match err {
            ClError::ContractViolation { kernel, findings } => {
                assert_eq!(kernel, "fill_ones");
                assert!(findings[0].contains("cross-queue-race"), "{findings:?}");
            }
            other => panic!("expected ContractViolation, got {other:?}"),
        }
        // A finish on qa repairs the ordering; the same launch now passes.
        qa.finish().unwrap();
        qb.enqueue_kernel(&k, NDRange::d1(32)).unwrap();
    }

    fn ooo_queue(ctx: &Context) -> CommandQueue {
        ctx.queue_with(QueueConfig::default().out_of_order(true))
    }

    #[test]
    fn ooo_auto_inferred_chain_is_bit_exact_and_linearized() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let buf = ctx.buffer::<f32>(MemFlags::default(), 64).unwrap();
        q.write_buffer(&buf, 0, &vec![0.0f32; 64]).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(AddOne { data: buf.clone() });
        // Three submits on the same buffer: the scheduler must auto-infer
        // the RAW/WAW chain and run them in submit order.
        let evs: Vec<EventRef> = (0..3)
            .map(|_| q.submit_kernel(&k, NDRange::d1(64), &[]).unwrap())
            .collect();
        q.finish().unwrap();
        let mut out = vec![0.0f32; 64];
        q.read_buffer(&buf, 0, &mut out).unwrap();
        assert!(
            out.iter().all(|&x| x == 3.0),
            "chain reordered: {:?}",
            &out[..4]
        );
        let edges = vec![(0, 1), (1, 2)];
        let v = crate::check_linearization(&evs, &edges);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ooo_blocking_read_drains_conflicting_commands() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let buf = ctx.buffer::<f32>(MemFlags::default(), 64).unwrap();
        q.write_buffer(&buf, 0, &vec![0.0f32; 64]).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(AddOne { data: buf.clone() });
        q.submit_kernel(&k, NDRange::d1(64), &[]).unwrap();
        // No finish: the blocking read itself must wait the pending writer.
        let mut out = vec![0.0f32; 64];
        q.read_buffer(&buf, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 1.0));
        q.finish().unwrap();
    }

    #[test]
    fn ooo_explicit_wait_list_orders_independent_buffers() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let b1 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        let b2 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        q.write_buffer(&b1, 0, &[0.0f32; 32]).unwrap();
        q.write_buffer(&b2, 0, &[0.0f32; 32]).unwrap();
        let ka: Arc<dyn Kernel> = Arc::new(AddOne { data: b1 });
        let kb: Arc<dyn Kernel> = Arc::new(AddOne { data: b2 });
        let ea = q.submit_kernel(&ka, NDRange::d1(32), &[]).unwrap();
        // Disjoint footprints: only the explicit wait list orders these.
        let eb = q
            .submit_kernel(&kb, NDRange::d1(32), std::slice::from_ref(&ea))
            .unwrap();
        q.finish().unwrap();
        assert!(ea.completion_tick().unwrap() < eb.completion_tick().unwrap());
    }

    #[test]
    fn ooo_barrier_fences_later_submits() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let b1 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        let b2 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        q.write_buffer(&b1, 0, &[0.0f32; 32]).unwrap();
        q.write_buffer(&b2, 0, &[0.0f32; 32]).unwrap();
        let ka: Arc<dyn Kernel> = Arc::new(AddOne { data: b1 });
        let kb: Arc<dyn Kernel> = Arc::new(AddOne { data: b2 });
        let ea = q.submit_kernel(&ka, NDRange::d1(32), &[]).unwrap();
        let bar = q.submit_barrier(&[]).unwrap();
        // Disjoint from `ka`, but the barrier still orders it after.
        let eb = q.submit_kernel(&kb, NDRange::d1(32), &[]).unwrap();
        q.finish().unwrap();
        let (ta, tbar, tb) = (
            ea.completion_tick().unwrap(),
            bar.completion_tick().unwrap(),
            eb.completion_tick().unwrap(),
        );
        assert!(ta < tbar && tbar < tb, "{ta} {tbar} {tb}");
    }

    #[test]
    fn ooo_user_event_gates_dependents() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let buf = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        q.write_buffer(&buf, 0, &[0.0f32; 32]).unwrap();
        let gate = crate::user_event();
        let k: Arc<dyn Kernel> = Arc::new(AddOne { data: buf.clone() });
        let ev = q
            .submit_kernel(&k, NDRange::d1(32), &[gate.event()])
            .unwrap();
        assert_eq!(ev.status(), crate::EventStatus::Pending);
        gate.signal();
        assert!(ev.wait(Some(std::time::Duration::from_secs(10))).is_ok());
        q.finish().unwrap();
    }

    #[test]
    fn ooo_failed_user_event_fails_only_dependents() {
        let ctx = ctx_native();
        let q = ooo_queue(&ctx);
        let b1 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        let b2 = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        q.write_buffer(&b1, 0, &[0.0f32; 32]).unwrap();
        q.write_buffer(&b2, 0, &[0.0f32; 32]).unwrap();
        let gate = crate::user_event();
        let ka: Arc<dyn Kernel> = Arc::new(AddOne { data: b1 });
        let kb: Arc<dyn Kernel> = Arc::new(AddOne { data: b2.clone() });
        let gated = q
            .submit_kernel(&ka, NDRange::d1(32), &[gate.event()])
            .unwrap();
        let free = q.submit_kernel(&kb, NDRange::d1(32), &[]).unwrap();
        gate.fail(ClError::DeviceUnavailable("host aborted".into()));
        assert!(matches!(
            gated.wait(Some(std::time::Duration::from_secs(10))),
            Err(ClError::DependencyFailed { .. })
        ));
        // The independent command is untouched by the failure.
        assert!(free.wait(Some(std::time::Duration::from_secs(10))).is_ok());
        let _ = q.finish();
        let mut out = vec![0.0f32; 32];
        q.read_buffer(&b2, 0, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn ooo_finish_watchdog_fails_stuck_commands() {
        let ctx = ctx_native();
        let q = ctx.queue_with(
            QueueConfig::default()
                .out_of_order(true)
                .launch_timeout(std::time::Duration::from_millis(100)),
        );
        let buf = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
        q.write_buffer(&buf, 0, &[0.0f32; 32]).unwrap();
        let gate = crate::user_event();
        let k: Arc<dyn Kernel> = Arc::new(AddOne { data: buf });
        let ev = q
            .submit_kernel(&k, NDRange::d1(32), &[gate.event()])
            .unwrap();
        // Never signalled: finish must trip the watchdog, fail the stuck
        // command, and drain the queue rather than hang.
        let err = q.finish().unwrap_err();
        assert!(
            matches!(err, ClError::FinishTimedOut { pending: 1, .. }),
            "{err:?}"
        );
        assert!(matches!(
            ev.wait(Some(std::time::Duration::from_secs(10))),
            Err(ClError::DependencyFailed { .. })
        ));
        gate.signal(); // release the handle without tripping the drop guard
    }
}
