//! Out-of-order execution: the pending event DAG and its scheduler.
//!
//! An out-of-order queue (`QueueConfig::out_of_order(true)`, the
//! `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE` analog) no longer runs each enqueue
//! eagerly. Commands land as nodes in a pending DAG held by a [`Scheduler`];
//! edges come from three sources:
//!
//! 1. explicit event wait lists (`submit_kernel(..., &[ev])`),
//! 2. auto-inferred hazards between flow footprints — two commands whose
//!    `cl_analyze::flow::classify_pair` hazards are empty are proven
//!    independent and free to reorder; any hazard (must *or* may) adds a
//!    conservative edge, so legacy in-order streams keep their semantics
//!    while provably independent commands overlap,
//! 3. barriers (`submit_barrier`), which order against everything pending
//!    and everything submitted later.
//!
//! A node with zero unresolved dependencies is dispatched onto the device's
//! `cl-pool` immediately; completion decrements dependents and cascades. A
//! failed node fails only its dependent subgraph
//! ([`ClError::DependencyFailed`]) — independent commands still complete,
//! preserving the fault-containment story.
//!
//! # The linearization oracle
//!
//! Every event records, at its completion instant, a ticket from a
//! process-global monotone counter (the *completion tick*), plus how many
//! times completion was attempted. [`check_linearization`] asserts that for
//! every edge `a → b` in the wait graph, `tick(a) < tick(b)` — i.e. the
//! observed completion order linearizes the event graph — and that every
//! event completed exactly once. The tick is stamped before any dependent is
//! notified, so a correct scheduler can never violate it; the seeded
//! [`SchedBug`]s exist to prove the oracle catches a scheduler that can.

use std::collections::HashSet;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use cl_analyze::flow::{classify_pair, FlowCommand};
use cl_pool::ThreadPool;
use cl_util::sync::{Condvar, Mutex};

use crate::error::ClError;
use crate::event::{CommandKind, Event};

/// Process-global completion counter backing the linearization oracle.
/// Starts at 1 so tick 0 can mean "never completed".
static NEXT_TICK: AtomicU64 = AtomicU64::new(1);

/// Process-global event ids (shared by queue events and user events).
static NEXT_EVENT_ID: AtomicU64 = AtomicU64::new(1);

/// Observable lifecycle of an [`EventRef`] (`CL_QUEUED..CL_COMPLETE` /
/// negative-status analog, collapsed to what the host can act on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStatus {
    /// Not yet complete: queued, blocked on dependencies, or running.
    Pending,
    /// Completed successfully; `wait()` returns the profiling event.
    Complete,
    /// Completed unsuccessfully; `wait()` returns the error.
    Failed,
}

enum Waiter {
    /// A scheduler node (`node index` in that scheduler) waiting on this
    /// event. Fired once at completion with the outcome. The strong handle
    /// keeps the scheduler alive while the node waits, so releasing every
    /// handle to its queue does not abandon the command (as OpenCL keeps
    /// enqueued commands alive past `clReleaseCommandQueue`); the waiter
    /// list is taken at completion, which drops it.
    Node(Arc<Scheduler>, usize),
    /// A user-event auto-signal countdown (`UserEvent::signal_after`).
    Auto(Arc<AutoSignal>),
}

struct EventState {
    result: Option<Result<Event, ClError>>,
    waiters: Vec<Waiter>,
    /// Wait-list dependencies, kept as weak links for cycle detection
    /// (`UserEvent::signal_after` walks these to reject circular waits).
    deps: Vec<Weak<EventCore>>,
}

pub(crate) struct EventCore {
    id: u64,
    label: String,
    /// Owning queue id, or 0 for user events.
    queue: u64,
    seq: u64,
    state: Mutex<EventState>,
    cv: Condvar,
    /// How many times completion was attempted (the oracle asserts exactly
    /// one; the first attempt wins, later ones only bump this counter).
    completions: AtomicU64,
    /// Global completion tick, 0 while pending.
    tick: AtomicU64,
}

impl EventCore {
    fn new(label: impl Into<String>, queue: u64, seq: u64) -> Arc<EventCore> {
        Arc::new(EventCore {
            id: NEXT_EVENT_ID.fetch_add(1, Ordering::Relaxed),
            label: label.into(),
            queue,
            seq,
            state: Mutex::new(EventState {
                result: None,
                waiters: Vec::new(),
                deps: Vec::new(),
            }),
            cv: Condvar::new(),
            completions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        })
    }

    /// Complete the event. The first completion stamps the tick and stores
    /// the result; every attempt bumps `completions` so a double-completing
    /// scheduler is observable. When `notify` is false the direct `wait()`
    /// condvar still fires but registered waiters (dependent nodes,
    /// auto-signals) are silently dropped — the seeded lost-wakeup bug.
    fn complete(self: &Arc<Self>, result: Result<Event, ClError>, notify: bool) {
        self.completions.fetch_add(1, Ordering::AcqRel);
        let (waiters, err) = {
            let mut st = self.state.lock();
            if st.result.is_some() {
                return; // first completion won; counter already recorded us
            }
            self.tick
                .store(NEXT_TICK.fetch_add(1, Ordering::Relaxed), Ordering::Release);
            let err = result.as_ref().err().cloned();
            st.result = Some(result);
            (mem::take(&mut st.waiters), err)
        };
        self.cv.notify_all();
        if notify {
            for w in waiters {
                match w {
                    Waiter::Node(sched, idx) => sched.dep_done(idx, err.clone()),
                    Waiter::Auto(auto) => auto.dep_done(err.clone()),
                }
            }
        }
    }

    /// Register a waiter, or report the already-known outcome.
    fn add_waiter(self: &Arc<Self>, w: Waiter) -> Option<Option<ClError>> {
        let mut st = self.state.lock();
        match &st.result {
            Some(res) => Some(res.as_ref().err().cloned()),
            None => {
                st.waiters.push(w);
                None
            }
        }
    }

    /// Depth-first search over stored dependency links: does this event
    /// (transitively) wait on `target`? Locks one state at a time — the
    /// links are cloned out before recursing, so there is no nested locking.
    fn depends_on(self: &Arc<Self>, target: u64, seen: &mut HashSet<u64>) -> bool {
        if self.id == target {
            return true;
        }
        if !seen.insert(self.id) {
            return false;
        }
        let deps: Vec<Weak<EventCore>> = self.state.lock().deps.clone();
        deps.iter()
            .filter_map(Weak::upgrade)
            .any(|d| d.depends_on(target, seen))
    }
}

/// A shareable handle to a pending or completed command (`cl_event` analog).
///
/// Returned by the `submit_*` enqueue variants and by
/// [`UserEvent::event`]; pass clones in wait lists to order later commands
/// after this one, across queues and devices.
#[derive(Clone)]
pub struct EventRef {
    core: Arc<EventCore>,
}

impl EventRef {
    fn pending(label: impl Into<String>, queue: u64, seq: u64) -> EventRef {
        EventRef {
            core: EventCore::new(label, queue, seq),
        }
    }

    /// Wrap an already-completed in-order enqueue (its tick is stamped at
    /// construction, so in-order and out-of-order events share the oracle).
    pub(crate) fn completed(event: Event) -> EventRef {
        let core = EventCore::new(event.kind().label(), event.queue_id(), event.seq());
        core.complete(Ok(event), true);
        EventRef { core }
    }

    /// Unique event id (process-global, never reused).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// Owning queue id, or 0 for user events.
    pub fn queue_id(&self) -> u64 {
        self.core.queue
    }

    /// Enqueue sequence number within the owning queue (0 for user events).
    pub fn seq(&self) -> u64 {
        self.core.seq
    }

    /// The label the event was submitted under (kernel name, "marker", …).
    pub fn label(&self) -> &str {
        &self.core.label
    }

    /// Current lifecycle status (non-blocking).
    pub fn status(&self) -> EventStatus {
        match &self.core.state.lock().result {
            None => EventStatus::Pending,
            Some(Ok(_)) => EventStatus::Complete,
            Some(Err(_)) => EventStatus::Failed,
        }
    }

    /// Block until the event completes (`clWaitForEvents` analog) and return
    /// its profiling event or failure. With a timeout, a still-pending event
    /// at the deadline returns [`ClError::LaunchTimedOut`].
    pub fn wait(&self, timeout: Option<Duration>) -> Result<Event, ClError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.core.state.lock();
        loop {
            if let Some(res) = &st.result {
                return res.clone();
            }
            match deadline {
                None => self.core.cv.wait(&mut st),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(ClError::LaunchTimedOut {
                            kernel: self.core.label.clone(),
                            timeout: timeout.unwrap(),
                        });
                    }
                    self.core.cv.wait_for(&mut st, d - now);
                }
            }
        }
    }

    /// The event's global completion tick, or `None` while pending. For any
    /// wait-graph edge `a → b`, a correct scheduler guarantees
    /// `a.completion_tick() < b.completion_tick()`.
    pub fn completion_tick(&self) -> Option<u64> {
        match self.core.tick.load(Ordering::Acquire) {
            0 => None,
            t => Some(t),
        }
    }

    /// How many times completion was attempted (exactly 1 on a correct
    /// scheduler; 2 under e.g. the seeded double-dispatch bug).
    pub fn completions(&self) -> u64 {
        self.core.completions.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for EventRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRef")
            .field("id", &self.core.id)
            .field("label", &self.core.label)
            .field("status", &self.status())
            .finish()
    }
}

/// Check the linearization oracle over a set of events and the wait-graph
/// edges between them: every event completed exactly once, and every edge's
/// source tick is strictly below its target tick. Returns the violations
/// (empty = linearizable). Shared by `cl-sched` and the property tests.
pub fn check_linearization(events: &[EventRef], edges: &[(usize, usize)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match e.completions() {
            1 => {}
            n => violations.push(format!(
                "event #{i} `{}` completed {n} times (want exactly 1)",
                e.label()
            )),
        }
        if e.completion_tick().is_none() {
            violations.push(format!("event #{i} `{}` never completed", e.label()));
        }
    }
    for &(a, b) in edges {
        if let (Some(ta), Some(tb)) = (events[a].completion_tick(), events[b].completion_tick()) {
            if ta >= tb {
                violations.push(format!(
                    "edge {a} -> {b} (`{}` -> `{}`) not linearized: tick {ta} >= {tb}",
                    events[a].label(),
                    events[b].label()
                ));
            }
        }
    }
    violations
}

/// Countdown behind [`UserEvent::signal_after`]: when the last dependency
/// completes, the user event auto-signals (or auto-fails if any dep failed).
struct AutoSignal {
    remaining: AtomicU64,
    failed: Mutex<Option<ClError>>,
    target: Arc<EventCore>,
}

impl AutoSignal {
    fn dep_done(&self, err: Option<ClError>) {
        if let Some(e) = err {
            self.failed.lock().get_or_insert(e);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let failed = self.failed.lock().take();
            match failed {
                Some(e) => self.target.complete(
                    Err(ClError::DependencyFailed {
                        label: self.target.label.clone(),
                        source: Box::new(e),
                    }),
                    true,
                ),
                None => self
                    .target
                    .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true),
            }
        }
    }
}

/// A host-controlled event (`clCreateUserEvent` analog). The handle is the
/// unique signalling capability: call [`signal`](UserEvent::signal) or
/// [`fail`](UserEvent::fail) to complete it, and share
/// [`event`](UserEvent::event) clones in wait lists. Dropping the handle
/// without signalling fails the event with [`ClError::UserEventAbandoned`]
/// so dependents error out instead of hanging forever.
pub struct UserEvent {
    ev: EventRef,
    disarmed: bool,
}

impl UserEvent {
    pub(crate) fn new() -> UserEvent {
        UserEvent {
            ev: EventRef::pending("user-event", 0, 0),
            disarmed: false,
        }
    }

    /// A shareable wait-list handle for this user event.
    pub fn event(&self) -> EventRef {
        self.ev.clone()
    }

    /// Complete the event successfully (`clSetUserEventStatus(CL_COMPLETE)`),
    /// releasing every command gated on it.
    pub fn signal(mut self) {
        self.disarmed = true;
        self.ev
            .core
            .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true);
    }

    /// Complete the event unsuccessfully (negative execution status analog).
    /// Commands gated on it fail with [`ClError::DependencyFailed`].
    pub fn fail(mut self, err: ClError) {
        self.disarmed = true;
        self.ev.core.complete(Err(err), true);
    }

    /// Arrange for the event to signal automatically once every event in
    /// `deps` completes (fail if any fails). Rejects wait lists that would
    /// close a cycle through this event with [`ClError::CircularWait`] —
    /// the misuse that would otherwise deadlock the DAG.
    pub fn signal_after(mut self, deps: &[EventRef]) -> Result<EventRef, ClError> {
        let mut seen = HashSet::new();
        for d in deps {
            if d.core.depends_on(self.ev.id(), &mut seen) {
                return Err(ClError::CircularWait {
                    label: self.ev.core.label.clone(),
                });
            }
        }
        self.disarmed = true;
        let handle = self.ev.clone();
        if deps.is_empty() {
            self.ev
                .core
                .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true);
            return Ok(handle);
        }
        {
            let mut st = self.ev.core.state.lock();
            st.deps = deps.iter().map(|d| Arc::downgrade(&d.core)).collect();
        }
        let auto = Arc::new(AutoSignal {
            remaining: AtomicU64::new(deps.len() as u64),
            failed: Mutex::new(None),
            target: Arc::clone(&self.ev.core),
        });
        for d in deps {
            if let Some(err) = d.core.add_waiter(Waiter::Auto(Arc::clone(&auto))) {
                auto.dep_done(err);
            }
        }
        Ok(handle)
    }
}

impl Drop for UserEvent {
    fn drop(&mut self) {
        if !self.disarmed {
            self.ev.core.complete(
                Err(ClError::UserEventAbandoned {
                    event: self.ev.id(),
                }),
                true,
            );
        }
    }
}

/// Seeded scheduler defects for oracle validation
/// (`QueueConfig::sched_bug`). Each fires once per queue; a correct oracle
/// (`check_linearization` + bit-exactness + the finish watchdog) must catch
/// every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedBug {
    /// Silently drop one inferred/explicit dependency edge at submit.
    DropEdge,
    /// Dispatch a node even though dependencies are still unresolved.
    PrematureReady,
    /// Complete an event without notifying dependent nodes (they stay
    /// pending forever; the finish watchdog must trip).
    LostWakeup,
    /// Complete the same node twice.
    DoubleDispatch,
    /// Mark a node complete without ever running its work.
    SkipCommand,
}

impl SchedBug {
    /// All seeded bugs, for harness sweeps.
    pub const ALL: [SchedBug; 5] = [
        SchedBug::DropEdge,
        SchedBug::PrematureReady,
        SchedBug::LostWakeup,
        SchedBug::DoubleDispatch,
        SchedBug::SkipCommand,
    ];

    /// The bug's name, the key of its row in `cl-sched`'s report.
    pub fn name(&self) -> &'static str {
        match self {
            SchedBug::DropEdge => "drop-edge",
            SchedBug::PrematureReady => "premature-ready",
            SchedBug::LostWakeup => "lost-wakeup",
            SchedBug::DoubleDispatch => "double-dispatch",
            SchedBug::SkipCommand => "skip-command",
        }
    }
}

type Work = Box<dyn FnOnce() -> Result<Event, ClError> + Send + 'static>;

/// Where a node's work runs once ready.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// On the device's `cl-pool` — for work that never hard-blocks (it may
    /// claim chunks and help, both of which make progress on a worker).
    Pool,
    /// On a dedicated thread — for deadline-armed launches, whose host side
    /// blocks in `wait_deadline` without helping and must not pin a worker.
    Thread,
}

struct Node {
    event: EventRef,
    /// Flow footprint used to auto-infer hazards against later submits
    /// (`None` for markers/barriers — they order via wait lists only).
    cmd: Option<FlowCommand>,
    /// No usable footprint (kernel publishes no bindings): conservatively
    /// conflicts with every other command.
    conservative: bool,
    deps_remaining: usize,
    failed_dep: Option<ClError>,
    work: Option<Work>,
    dispatch: Dispatch,
    dispatched: bool,
}

impl Node {
    /// Whether a command with footprint `cmd` (`None`: a marker or barrier)
    /// must order after this node: either side has no usable footprint
    /// (`conservative`), or `classify_pair` finds a hazard between them.
    fn conflicts_with(&self, cmd: Option<&FlowCommand>, conservative: bool) -> bool {
        if conservative || self.conservative {
            return true;
        }
        match (cmd, &self.cmd) {
            (Some(c), Some(nc)) => !classify_pair(nc, c).0.is_empty(),
            _ => false,
        }
    }
}

struct SchedState {
    nodes: Vec<Node>,
    /// Indices of not-yet-completed nodes (the auto-inference window).
    live: Vec<usize>,
    pending: usize,
    /// Index of the most recent barrier; later submits depend on it.
    barrier: Option<usize>,
}

/// Per-queue scheduler: owns the pending DAG and dispatches ready nodes
/// onto the device's thread pool.
pub(crate) struct Scheduler {
    pool: Arc<ThreadPool>,
    state: Mutex<SchedState>,
    cv: Condvar,
    bug: Option<SchedBug>,
    bug_used: AtomicU64,
    /// With race recording on, `submit` also scans *retired* nodes for
    /// conflicts so the happens-before log sees completion-before-submit
    /// orderings the live window cannot express. Off by default: the scan
    /// is O(history) per submit and only the race layer consumes it.
    hb_retired: bool,
}

impl Scheduler {
    pub(crate) fn new(pool: Arc<ThreadPool>, bug: Option<SchedBug>, hb_retired: bool) -> Scheduler {
        Scheduler {
            pool,
            state: Mutex::new(SchedState {
                nodes: Vec::new(),
                live: Vec::new(),
                pending: 0,
                barrier: None,
            }),
            cv: Condvar::new(),
            bug,
            bug_used: AtomicU64::new(0),
            hb_retired,
        }
    }

    /// Fire the seeded bug at most once per queue.
    fn arm(&self, bug: SchedBug) -> bool {
        self.bug == Some(bug)
            && self
                .bug_used
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Submit a command into the DAG. The `(queue, seq)` pairs of the
    /// same-context dependencies actually used are written into `waits_out`
    /// (for happens-before recording) *before* the node can dispatch, so
    /// the work closure always observes them. `wait_all_pending` orders
    /// against every live node (markers/barriers with an empty wait list);
    /// `is_barrier` additionally makes this node an implicit dependency of
    /// every later submit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        self: &Arc<Self>,
        label: &str,
        queue: u64,
        seq: u64,
        cmd: Option<FlowCommand>,
        conservative: bool,
        explicit: &[EventRef],
        wait_all_pending: bool,
        is_barrier: bool,
        dispatch: Dispatch,
        work: Work,
        waits_out: &Mutex<Vec<(u64, u64)>>,
    ) -> Result<EventRef, ClError> {
        let event = EventRef::pending(label, queue, seq);
        // Reject wait lists that already (transitively) depend on... nothing
        // yet — this event is fresh — but record links so user-event cycle
        // detection can see through queue events.
        let mut deps: Vec<EventRef> = Vec::new();
        let mut seen = HashSet::new();
        for e in explicit {
            if seen.insert(e.id()) {
                deps.push(e.clone());
            }
        }
        let idx;
        let mut retired_waits: Vec<(u64, u64)> = Vec::new();
        {
            let mut st = self.state.lock();
            idx = st.nodes.len();
            if wait_all_pending {
                for &li in &st.live {
                    let e = &st.nodes[li].event;
                    if seen.insert(e.id()) {
                        deps.push(e.clone());
                    }
                }
            } else {
                // Auto-infer hazards against the pending window.
                for &li in &st.live {
                    let n = &st.nodes[li];
                    if n.conflicts_with(cmd.as_ref(), conservative) && seen.insert(n.event.id()) {
                        deps.push(n.event.clone());
                    }
                }
                if let Some(b) = st.barrier {
                    let e = &st.nodes[b].event;
                    if seen.insert(e.id()) {
                        deps.push(e.clone());
                    }
                }
                if self.hb_retired {
                    // A conflicting command that completed before this
                    // submit has already left the live window — no dispatch
                    // dependency is needed, but the ordering is real
                    // (completion-before-submission) and the race log's
                    // out-of-order records carry no program order, so it
                    // must be spelled out as a wait edge. The retired
                    // node's HbRecord is pushed before it leaves `live`,
                    // so the edge always points forward in the log.
                    let live: HashSet<usize> = st.live.iter().copied().collect();
                    for (ni, n) in st.nodes.iter().enumerate() {
                        if live.contains(&ni) || n.event.queue_id() == 0 {
                            continue;
                        }
                        if n.conflicts_with(cmd.as_ref(), conservative) {
                            retired_waits.push((n.event.queue_id(), n.event.seq()));
                        }
                    }
                }
            }
            if is_barrier {
                st.barrier = Some(idx);
            }
            if !deps.is_empty() && self.arm(SchedBug::DropEdge) {
                deps.pop();
            }
            st.nodes.push(Node {
                event: event.clone(),
                cmd,
                conservative,
                deps_remaining: deps.len(),
                failed_dep: None,
                work: Some(work),
                dispatch,
                dispatched: false,
            });
            st.live.push(idx);
            st.pending += 1;
        }
        // Record dependency links on the fresh event (cycle detection for
        // user events routed through queue commands).
        {
            let mut st = event.core.state.lock();
            st.deps = deps.iter().map(|d| Arc::downgrade(&d.core)).collect();
        }
        *waits_out.lock() = deps
            .iter()
            .filter(|d| d.queue_id() != 0)
            .map(|d| (d.queue_id(), d.seq()))
            .chain(retired_waits)
            .collect();
        // Register as a waiter on every dependency — outside the scheduler
        // lock (completion callbacks take event lock, then scheduler lock;
        // registering under the scheduler lock would invert that order).
        let mut resolved = 0;
        let mut resolved_err = None;
        for d in &deps {
            if let Some(err) = d.core.add_waiter(Waiter::Node(Arc::clone(self), idx)) {
                resolved += 1;
                if let Some(e) = err {
                    resolved_err.get_or_insert(e);
                }
            }
        }
        if self.arm(SchedBug::PrematureReady) && resolved < deps.len() {
            self.dispatch(idx);
        }
        for _ in 0..resolved {
            self.dep_done(idx, resolved_err.take());
        }
        if deps.is_empty() {
            self.dispatch(idx);
        }
        Ok(event)
    }

    /// A dependency of node `idx` completed (with `err` if it failed).
    fn dep_done(self: &Arc<Self>, idx: usize, err: Option<ClError>) {
        let ready = {
            let mut st = self.state.lock();
            let n = &mut st.nodes[idx];
            if let Some(e) = err {
                n.failed_dep.get_or_insert(e);
            }
            n.deps_remaining -= 1;
            n.deps_remaining == 0 && !n.dispatched
        };
        if !ready {
            return;
        }
        let failed = self.state.lock().nodes[idx].failed_dep.clone();
        match failed {
            Some(e) => self.fail_undispatched(idx, e),
            None => self.dispatch(idx),
        }
    }

    /// Fail a not-yet-dispatched node without running its work (dependency
    /// failure or finish-watchdog). No-op if it was already dispatched.
    fn fail_undispatched(self: &Arc<Self>, idx: usize, source: ClError) {
        let label = {
            let mut st = self.state.lock();
            let n = &mut st.nodes[idx];
            if n.dispatched {
                return;
            }
            n.dispatched = true;
            n.work = None;
            n.event.label().to_string()
        };
        self.finish_node(
            idx,
            Err(ClError::DependencyFailed {
                label,
                source: Box::new(source),
            }),
        );
    }

    /// Run a ready node's work: on the pool, or on a dedicated thread for
    /// deadline-armed launches (see [`Dispatch`]).
    fn dispatch(self: &Arc<Self>, idx: usize) {
        let (work, how) = {
            let mut st = self.state.lock();
            let n = &mut st.nodes[idx];
            if n.dispatched {
                return;
            }
            n.dispatched = true;
            (n.work.take(), n.dispatch)
        };
        let Some(work) = work else { return };
        if self.arm(SchedBug::SkipCommand) {
            // Complete without running the command — bit-exactness catches it.
            drop(work);
            self.finish_node(idx, Ok(Event::new(CommandKind::NdRangeKernel, 0.0, false)));
            return;
        }
        let sched = Arc::clone(self);
        let run = move || {
            let res = work();
            sched.finish_node(idx, res);
        };
        match how {
            Dispatch::Pool => self.pool.spawn(run),
            Dispatch::Thread => {
                if std::thread::Builder::new()
                    .name("cl-sched".into())
                    .spawn(run)
                    .is_err()
                {
                    // No thread available: the closure was consumed by the
                    // failed spawn. Complete the node as a device failure so
                    // the DAG still drains deterministically.
                    self.finish_node(
                        idx,
                        Err(ClError::DeviceUnavailable(
                            "scheduler could not spawn a launch thread".into(),
                        )),
                    );
                }
            }
        }
    }

    /// Complete node `idx`: stamp the event (which cascades to dependents)
    /// and retire it from the pending window.
    fn finish_node(self: &Arc<Self>, idx: usize, res: Result<Event, ClError>) {
        let event = self.state.lock().nodes[idx].event.clone();
        let notify = !self.arm(SchedBug::LostWakeup);
        if self.arm(SchedBug::DoubleDispatch) {
            event.core.complete(res.clone(), notify);
        }
        // Never complete while holding the scheduler lock: waiters re-enter
        // dep_done on this (or another) scheduler.
        event.core.complete(res, notify);
        {
            let mut st = self.state.lock();
            st.pending -= 1;
            st.live.retain(|&i| i != idx);
        }
        self.cv.notify_all();
    }

    /// Events of pending nodes whose footprints conflict with `cmd` — the
    /// set a blocking (in-order) operation on the queue must drain before it
    /// can touch the buffers. Independent pending commands keep running.
    pub(crate) fn conflicting_events(&self, cmd: &FlowCommand) -> Vec<EventRef> {
        let st = self.state.lock();
        st.live
            .iter()
            .map(|&li| &st.nodes[li])
            .filter(|n| n.conflicts_with(Some(cmd), false))
            .map(|n| n.event.clone())
            .collect()
    }

    /// Drain the DAG (`clFinish` analog). With a timeout, still-pending
    /// commands at the deadline are handled by the watchdog: every
    /// never-dispatched node is failed (cascading
    /// [`ClError::DependencyFailed`] through its subgraph) so the queue
    /// drains, and [`ClError::FinishTimedOut`] is returned. Nodes already
    /// running are covered by the per-launch watchdog.
    pub(crate) fn finish(self: &Arc<Self>, timeout: Option<Duration>) -> Result<(), ClError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let stuck = {
                let mut st = self.state.lock();
                if st.pending == 0 {
                    return Ok(());
                }
                match deadline {
                    None => {
                        self.cv.wait(&mut st);
                        continue;
                    }
                    Some(d) => {
                        let now = Instant::now();
                        if now < d {
                            self.cv.wait_for(&mut st, d - now);
                            continue;
                        }
                        (
                            st.pending,
                            st.live
                                .iter()
                                .copied()
                                .filter(|&i| !st.nodes[i].dispatched)
                                .collect::<Vec<_>>(),
                        )
                    }
                }
            };
            let (pending, stalled) = stuck;
            let timeout = timeout.unwrap();
            for idx in stalled {
                self.fail_undispatched(idx, ClError::FinishTimedOut { pending, timeout });
            }
            return Err(ClError::FinishTimedOut { pending, timeout });
        }
    }
}

/// Create a standalone user event (`clCreateUserEvent` analog, but not tied
/// to a context — events order commands across contexts and devices).
pub fn user_event() -> UserEvent {
    UserEvent::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_event_signals_and_completes_once() {
        let ue = user_event();
        let ev = ue.event();
        assert_eq!(ev.status(), EventStatus::Pending);
        assert_eq!(ev.completion_tick(), None);
        ue.signal();
        assert_eq!(ev.status(), EventStatus::Complete);
        assert_eq!(ev.completions(), 1);
        assert!(ev.completion_tick().is_some());
        assert!(ev.wait(None).is_ok());
    }

    #[test]
    fn user_event_failure_reaches_waiters() {
        let ue = user_event();
        let ev = ue.event();
        ue.fail(ClError::DeviceUnavailable("test".into()));
        assert_eq!(ev.status(), EventStatus::Failed);
        assert!(matches!(ev.wait(None), Err(ClError::DeviceUnavailable(_))));
    }

    #[test]
    fn abandoned_user_event_fails_instead_of_hanging() {
        let ue = user_event();
        let ev = ue.event();
        drop(ue);
        assert!(matches!(
            ev.wait(None),
            Err(ClError::UserEventAbandoned { .. })
        ));
    }

    #[test]
    fn signal_after_chains_in_tick_order() {
        let a = user_event();
        let ea = a.event();
        let eb = user_event()
            .signal_after(std::slice::from_ref(&ea))
            .unwrap();
        assert_eq!(eb.status(), EventStatus::Pending);
        a.signal();
        assert!(eb.wait(Some(Duration::from_secs(5))).is_ok());
        // Oracle: the dependency completed strictly before the dependent.
        let (ta, tb) = (ea.completion_tick().unwrap(), eb.completion_tick().unwrap());
        assert!(ta < tb);
        assert!(check_linearization(&[ea, eb], &[(0, 1)]).is_empty());
    }

    #[test]
    fn signal_after_rejects_cycles() {
        let a = user_event();
        let ea = a.event();
        let eb = user_event().signal_after(&[ea]).unwrap();
        // Closing the loop a -> b -> a must be rejected at arm time. The
        // rejection consumes (drops) `a`, so the abandoned-event guard then
        // unblocks `eb` with a failure instead of deadlocking the chain.
        let err = a
            .signal_after(std::slice::from_ref(&eb))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ClError::CircularWait { .. }));
        assert!(matches!(
            eb.wait(Some(Duration::from_secs(5))),
            Err(ClError::DependencyFailed { .. })
        ));
    }

    #[test]
    fn signal_after_propagates_dependency_failure() {
        let a = user_event();
        let ea = a.event();
        let eb = user_event().signal_after(&[ea]).unwrap();
        a.fail(ClError::DeviceUnavailable("test".into()));
        assert!(matches!(
            eb.wait(Some(Duration::from_secs(5))),
            Err(ClError::DependencyFailed { .. })
        ));
    }

    #[test]
    fn wait_timeout_reports_launch_timed_out() {
        let ue = user_event();
        let ev = ue.event();
        let err = ev.wait(Some(Duration::from_millis(10))).unwrap_err();
        assert!(matches!(err, ClError::LaunchTimedOut { .. }));
        ue.signal(); // disarm so the drop guard doesn't fire spuriously
    }

    #[test]
    fn oracle_flags_inverted_and_double_completions() {
        // Complete b before a, then claim the edge a -> b held.
        let a = EventRef::pending("a", 0, 0);
        let b = EventRef::pending("b", 0, 0);
        b.core
            .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true);
        a.core
            .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true);
        let v = check_linearization(&[a.clone(), b.clone()], &[(0, 1)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not linearized"));
        // A second completion attempt is observable even though the first won.
        a.core
            .complete(Ok(Event::new(CommandKind::UserEvent, 0.0, false)), true);
        let v = check_linearization(&[a], &[]);
        assert!(v.iter().any(|m| m.contains("completed 2 times")), "{v:?}");
    }

    /// `cl-sched` keys its report rows by bug name.
    #[test]
    fn sched_bug_names_are_distinct() {
        let names: HashSet<&str> = SchedBug::ALL.iter().map(SchedBug::name).collect();
        assert_eq!(names.len(), SchedBug::ALL.len());
    }
}
