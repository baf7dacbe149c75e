//! Out-of-order execution: the pending event DAG and its scheduler.
//!
//! An out-of-order queue (`QueueConfig::out_of_order(true)`, the
//! `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE` analog) no longer runs each enqueue
//! eagerly. Commands land as nodes in a pending DAG held by a [`Scheduler`];
//! edges come from three sources:
//!
//! 1. explicit event wait lists (`submit_kernel(..., &[ev])`),
//! 2. auto-inferred hazards between flow footprints — two commands that
//!    `cl_analyze::flow::conflicts` clears are proven independent and free
//!    to reorder; any hazard (must *or* may), or a command without a
//!    footprint, adds a conservative edge, so legacy in-order streams keep
//!    their semantics while provably independent commands overlap,
//! 3. barriers (`submit_barrier`), which order against everything pending
//!    and everything submitted later.
//!
//! A node with zero unresolved dependencies is dispatched onto the device's
//! `cl-pool` immediately; completion decrements dependents and cascades. A
//! failed node fails only its dependent subgraph
//! ([`ClError::DependencyFailed`]) — independent commands still complete,
//! preserving the fault-containment story.
//!
//! The scheduler keeps no history: a completed node leaves the table at the
//! next sweep. What completed before a command was submitted is the race
//! log's to say (see [`crate::race`]) — the scheduler only hands each
//! command's work its [`Order`].
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

use cl_analyze::flow::{conflicts, FlowCommand};
use cl_analyze::hb::HbRecord;
use cl_pool::ThreadPool;
use cl_util::sync::{Condvar, Mutex};

use crate::error::ClError;
use crate::event::{CommandKind, Event};
use crate::race::RaceLog;

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
    /// A scheduler node (`node id` in that scheduler) waiting on this
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

/// How the scheduler ordered one command, handed to the command's work at
/// dispatch for its race record.
#[derive(Default)]
pub(crate) struct Order {
    /// `(queue, seq)` of the same-context commands it waited on.
    waits: Vec<(u64, u64)>,
    /// The race log's push count where the dependencies were decided
    /// ([`RaceLog::stamp`]); `None` without a log.
    stamp: Option<u64>,
}

impl Order {
    /// The order of a command that waits on `deps`, stamped from `log`.
    fn new(deps: &[EventRef], log: Option<&RaceLog>) -> Order {
        Order {
            waits: deps
                .iter()
                .filter(|d| d.queue_id() != 0)
                .map(|d| (d.queue_id(), d.seq()))
                .collect(),
            stamp: log.map(RaceLog::stamp),
        }
    }

    /// `rec` as an out-of-order record: its wait edges replace program
    /// order, and the stamp lets the log's reader add the commands that had
    /// completed before these dependencies were decided.
    pub(crate) fn record(self, rec: HbRecord) -> HbRecord {
        rec.ooo_waits(self.waits).stamped(self.stamp)
    }
}

type Work = Box<dyn FnOnce(Order) -> Result<Event, ClError> + Send + 'static>;

/// Where a node's work runs once ready.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// On the device's `cl-pool` — for work that never hard-blocks. An
    /// unarmed launch claims chunks until its source is dry, then waits on
    /// its latch: every chunk still outstanding is then held by a running
    /// thread, so the wait is bounded by their run time and needs nothing
    /// from the worker it blocks.
    Pool,
    /// On a dedicated thread — for deadline-armed launches, whose host side
    /// blocks in `wait_deadline` without helping and must not pin a worker.
    Thread,
}

struct Node {
    /// Scheduler-local id, the key [`Waiter::Node`] carries.
    id: usize,
    event: EventRef,
    /// The command's flow footprint, which later submits and drains are
    /// classified against ([`conflicts`]).
    cmd: Arc<FlowCommand>,
    deps_remaining: usize,
    failed_dep: Option<ClError>,
    work: Option<Work>,
    /// Handed to `work` at dispatch.
    order: Order,
    dispatch: Dispatch,
    dispatched: bool,
    /// Completed; the next [`SchedState::sweep`] removes the node.
    finished: bool,
}

struct SchedState {
    /// Nodes by id, in submission order: the auto-inference window. The
    /// pool worker that completes a node only marks it `finished`; the
    /// next `submit`, `finish` or `drain` on the host sweeps
    /// it out and frees it after releasing the lock. The table never
    /// outgrows the pending window, and no worker frees a node under the
    /// lock the submit path waits on.
    nodes: Vec<Node>,
    /// Id the next submitted node gets.
    next_id: usize,
    /// The most recent barrier; later submits depend on it.
    barrier: Option<EventRef>,
}

impl SchedState {
    /// Node `id`, or `None` once it has been swept. `nodes` is sorted by
    /// id: ids are handed out in submission order.
    fn node_mut(&mut self, id: usize) -> Option<&mut Node> {
        let i = self.nodes.binary_search_by_key(&id, |n| n.id).ok()?;
        Some(&mut self.nodes[i])
    }

    /// Remove the finished nodes and return them, for the caller to drop
    /// after releasing the lock.
    #[must_use]
    fn sweep(&mut self) -> Vec<Node> {
        self.nodes.extract_if(.., |n| n.finished).collect()
    }
}

/// Per-queue scheduler: owns the pending DAG and dispatches ready nodes
/// onto the device's thread pool.
pub(crate) struct Scheduler {
    pool: Arc<ThreadPool>,
    state: Mutex<SchedState>,
    cv: Condvar,
    bug: Option<SchedBug>,
    bug_used: AtomicU64,
}

impl Scheduler {
    pub(crate) fn new(pool: Arc<ThreadPool>, bug: Option<SchedBug>) -> Scheduler {
        Scheduler {
            pool,
            state: Mutex::new(SchedState {
                nodes: Vec::new(),
                next_id: 0,
                barrier: None,
            }),
            cv: Condvar::new(),
            bug,
            bug_used: AtomicU64::new(0),
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

    /// Submit command `cmd` (labelled by `cmd.label`) into the DAG.
    /// `wait_all_pending` orders it against every live node
    /// (markers/barriers with an empty wait list); `is_barrier`
    /// additionally makes it an implicit dependency of every later submit.
    /// The dependencies actually used, stamped from `log`, reach `work` as
    /// its [`Order`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn submit(
        self: &Arc<Self>,
        queue: u64,
        seq: u64,
        cmd: Arc<FlowCommand>,
        explicit: &[EventRef],
        wait_all_pending: bool,
        is_barrier: bool,
        dispatch: Dispatch,
        log: Option<&RaceLog>,
        work: Work,
    ) -> EventRef {
        let event = EventRef::pending(cmd.label.as_str(), queue, seq);
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
        let swept;
        {
            let mut st = self.state.lock();
            swept = st.sweep();
            idx = st.next_id;
            st.next_id += 1;
            if wait_all_pending {
                for n in &st.nodes {
                    if seen.insert(n.event.id()) {
                        deps.push(n.event.clone());
                    }
                }
            } else {
                // Auto-infer hazards against the pending window.
                for n in &st.nodes {
                    if conflicts(&n.cmd, &cmd) && seen.insert(n.event.id()) {
                        deps.push(n.event.clone());
                    }
                }
                if let Some(b) = &st.barrier {
                    if seen.insert(b.id()) {
                        deps.push(b.clone());
                    }
                }
            }
            if is_barrier {
                st.barrier = Some(event.clone());
            }
            if !deps.is_empty() && self.arm(SchedBug::DropEdge) {
                deps.pop();
            }
            // Stamped after the sweep, under the lock: every command that
            // left the window has recorded, so the log holds each
            // conflicting command that completed before this submit.
            let order = Order::new(&deps, log);
            st.nodes.push(Node {
                id: idx,
                event: event.clone(),
                cmd,
                deps_remaining: deps.len(),
                failed_dep: None,
                work: Some(work),
                order,
                dispatch,
                dispatched: false,
                finished: false,
            });
        }
        drop(swept);
        // Record dependency links on the fresh event (cycle detection for
        // user events routed through queue commands).
        {
            let mut st = event.core.state.lock();
            st.deps = deps.iter().map(|d| Arc::downgrade(&d.core)).collect();
        }
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
        event
    }

    /// A dependency of node `idx` completed (with `err` if it failed).
    /// No-op once the node itself has completed (a seeded premature
    /// dispatch can finish it before its dependencies do).
    fn dep_done(self: &Arc<Self>, idx: usize, err: Option<ClError>) {
        let failed = {
            let mut st = self.state.lock();
            let Some(n) = st.node_mut(idx) else {
                return;
            };
            if let Some(e) = err {
                n.failed_dep.get_or_insert(e);
            }
            n.deps_remaining -= 1;
            if n.deps_remaining > 0 || n.dispatched {
                return;
            }
            n.failed_dep.clone()
        };
        match failed {
            Some(e) => self.fail_undispatched(idx, e),
            None => self.dispatch(idx),
        }
    }

    /// Fail a not-yet-dispatched node without running its work (dependency
    /// failure or finish-watchdog). No-op if it was already dispatched or
    /// has completed.
    fn fail_undispatched(self: &Arc<Self>, idx: usize, source: ClError) {
        let label = {
            let mut st = self.state.lock();
            let Some(n) = st.node_mut(idx) else {
                return;
            };
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
    /// deadline-armed launches (see [`Dispatch`]). No-op if it was already
    /// dispatched or has completed.
    fn dispatch(self: &Arc<Self>, idx: usize) {
        let (work, how) = {
            let mut st = self.state.lock();
            let Some(n) = st.node_mut(idx) else {
                return;
            };
            if n.dispatched {
                return;
            }
            n.dispatched = true;
            (
                n.work.take().map(|w| (w, mem::take(&mut n.order))),
                n.dispatch,
            )
        };
        let Some((work, order)) = work else { return };
        if self.arm(SchedBug::SkipCommand) {
            // Complete without running the command — bit-exactness catches it.
            drop(work);
            self.finish_node(idx, Ok(Event::new(CommandKind::NdRangeKernel, 0.0, false)));
            return;
        }
        let sched = Arc::clone(self);
        let run = move || {
            let res = work(order);
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
    /// and mark the node finished, retiring it from the pending window.
    fn finish_node(self: &Arc<Self>, idx: usize, res: Result<Event, ClError>) {
        let Some(event) = self.state.lock().node_mut(idx).map(|n| n.event.clone()) else {
            return;
        };
        let notify = !self.arm(SchedBug::LostWakeup);
        if self.arm(SchedBug::DoubleDispatch) {
            event.core.complete(res.clone(), notify);
        }
        // Never complete while holding the scheduler lock: waiters re-enter
        // dep_done on this (or another) scheduler.
        event.core.complete(res, notify);
        {
            let mut st = self.state.lock();
            if let Some(n) = st.node_mut(idx) {
                n.finished = true;
            }
        }
        self.cv.notify_all();
    }

    /// Block until every pending node whose footprint conflicts with `cmd`
    /// has completed, so a blocking (in-order) host operation can safely
    /// touch the buffers, and return the operation's [`Order`]: those
    /// nodes, stamped from `log` as in [`Scheduler::submit`]. Independent
    /// pending commands keep running.
    pub(crate) fn drain(
        &self,
        cmd: &FlowCommand,
        log: Option<&RaceLog>,
        timeout: Option<Duration>,
    ) -> Result<Order, ClError> {
        let mut st = self.state.lock();
        let swept = st.sweep();
        let events: Vec<EventRef> = st
            .nodes
            .iter()
            .filter(|n| conflicts(&n.cmd, cmd))
            .map(|n| n.event.clone())
            .collect();
        let order = Order::new(&events, log);
        drop(st);
        drop(swept);
        for e in events {
            if let Err(err) = e.wait(timeout) {
                if e.completion_tick().is_none() {
                    // Still pending at the deadline: the wait itself timed
                    // out — unsafe to touch the buffers.
                    return Err(err);
                }
                // The dependency completed unsuccessfully: contents are
                // undefined (as after any failed enqueue) but ordering is
                // established, so the host operation proceeds.
            }
        }
        Ok(order)
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
                let swept = st.sweep();
                if st.nodes.is_empty() {
                    drop(st);
                    drop(swept);
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
                            st.nodes.len(),
                            st.nodes
                                .iter()
                                .filter(|n| !n.dispatched)
                                .map(|n| n.id)
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

    /// A completed node leaves the table: after 1 000 independent submits
    /// drain, the scheduler holds nothing — on a recording context too,
    /// whose log alone keeps the history — so neither memory nor the
    /// per-submit scans grow with the queue's history.
    #[test]
    fn finished_nodes_leave_the_table() {
        let pool = Arc::new(ThreadPool::new(cl_pool::PoolConfig::default().workers(2)).unwrap());
        let marker = Arc::new(crate::flow::marker_command("marker"));
        for log in [None, Some(Arc::new(RaceLog::new()))] {
            let sched = Arc::new(Scheduler::new(Arc::clone(&pool), None));
            for seq in 0..1000 {
                let (rl, cmd) = (log.clone(), Arc::clone(&marker));
                let work: Work = Box::new(move |order| {
                    if let Some(rl) = &rl {
                        rl.push(order.record(HbRecord::command(1, seq, (*cmd).clone(), false)));
                    }
                    Ok(Event::new(CommandKind::Marker, 0.0, false))
                });
                let cmd = Arc::clone(&marker);
                sched.submit(
                    1,
                    seq,
                    cmd,
                    &[],
                    false,
                    false,
                    Dispatch::Pool,
                    log.as_deref(),
                    work,
                );
            }
            sched.finish(None).unwrap();
            assert_eq!(sched.state.lock().nodes.len(), 0);
            assert_eq!(log.map_or(1000, |rl| rl.len()), 1000);
        }
    }

    /// `cl-sched` keys its report rows by bug name.
    #[test]
    fn sched_bug_names_are_distinct() {
        let names: HashSet<&str> = SchedBug::ALL.iter().map(SchedBug::name).collect();
        assert_eq!(names.len(), SchedBug::ALL.len());
    }
}
