//! Events with profiling information (`cl_event` +
//! `clGetEventProfilingInfo` analog).

/// The command class an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    NdRangeKernel,
    ReadBuffer,
    WriteBuffer,
    MapBuffer,
    UnmapBuffer,
    /// A marker or barrier submitted into an out-of-order queue's DAG.
    Marker,
    /// A host-controlled user event (`clCreateUserEvent` analog).
    UserEvent,
}

impl CommandKind {
    /// Stable lowercase label, used by trace exports and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CommandKind::NdRangeKernel => "ndrange-kernel",
            CommandKind::ReadBuffer => "read-buffer",
            CommandKind::WriteBuffer => "write-buffer",
            CommandKind::MapBuffer => "map-buffer",
            CommandKind::UnmapBuffer => "unmap-buffer",
            CommandKind::Marker => "marker",
            CommandKind::UserEvent => "user-event",
        }
    }
}

/// The four command-lifetime timestamps of `clGetEventProfilingInfo`
/// (`CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}`), in nanoseconds since
/// the process trace epoch ([`crate::trace::now_ns`]).
///
/// Invariant: `queued ≤ submitted ≤ started ≤ completed`, on success *and*
/// on the fault paths (a launch abandoned before any chunk started clamps
/// `started` into the window instead of reporting 0). On modeled devices
/// `completed − started` is the *modeled* execution time of the device
/// under study, while `queued`/`submitted` remain host wall-clock — the
/// same split a profiling-enabled OpenCL queue reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfilingInfo {
    /// `CL_PROFILING_COMMAND_QUEUED`: the enqueue call was entered.
    pub queued_ns: u64,
    /// `CL_PROFILING_COMMAND_SUBMIT`: validation passed and the command was
    /// handed to the execution engine (chunks pushed to the pool).
    pub submitted_ns: u64,
    /// `CL_PROFILING_COMMAND_START`: the first workgroup chunk began
    /// executing (transfers: the copy/map began).
    pub started_ns: u64,
    /// `CL_PROFILING_COMMAND_END`: the command finished.
    pub completed_ns: u64,
}

impl ProfilingInfo {
    /// The OpenCL ordering invariant the runtime guarantees.
    pub fn is_monotonic(&self) -> bool {
        self.queued_ns <= self.submitted_ns
            && self.submitted_ns <= self.started_ns
            && self.started_ns <= self.completed_ns
    }

    /// `COMMAND_END − COMMAND_START` in seconds: the execution time.
    pub fn execution_s(&self) -> f64 {
        (self.completed_ns - self.started_ns) as f64 / 1e9
    }

    /// `COMMAND_START − COMMAND_QUEUED` in seconds: queue + dispatch
    /// overhead before the command ran.
    pub fn overhead_s(&self) -> f64 {
        (self.started_ns - self.queued_ns) as f64 / 1e9
    }
}

/// A completed command's record. All enqueue calls in this runtime are
/// blocking (the paper's measurement methodology, Section III-A), so events
/// are always in the `CL_COMPLETE` state and exist to carry timing.
#[derive(Debug, Clone)]
pub struct Event {
    kind: CommandKind,
    /// Command duration in seconds — wall-clock for native devices, modeled
    /// for modeled devices.
    duration_s: f64,
    /// Workgroups executed (kernel commands).
    pub groups: u64,
    /// Barrier phases executed across all groups.
    pub barriers: u64,
    /// Total workitems executed.
    pub items: u64,
    /// Elements run in lane steps (`VecF32` lanes) rather than one at a
    /// time: 0 unless the device vectorizes and the kernel walks its
    /// elements with [`crate::GroupCtx::for_each_lane`].
    pub lane_items: u64,
    /// Bytes moved (transfer commands).
    pub bytes: u64,
    /// Workitem panics contained during this launch. A successful launch
    /// reports 0 — a launch with a fault returns `Err(KernelPanicked)`, and
    /// the error itself carries the faulting kernel/gid/message — but the
    /// field keeps fault statistics on the event stream (harness reports)
    /// rather than a side channel.
    pub panics: u64,
    /// Watchdog timeouts observed for this launch (0 or, on the abandoned
    /// launch's record, 1).
    pub timeouts: u64,
    /// Workers the queue's self-healing enqueue respawned before running
    /// this command — nonzero on the first launch after a fatal fault.
    pub workers_respawned: u64,
    /// True when `duration` is modeled rather than measured.
    pub modeled: bool,
    /// The `clGetEventProfilingInfo` timestamps, populated on every
    /// enqueue (tracing enabled or not).
    pub(crate) profiling: ProfilingInfo,
    /// Stable id of the queue that ran the command (`0` = unattributed:
    /// events constructed outside a queue).
    pub(crate) queue_id: u64,
    /// The command's sequence number within its queue.
    pub(crate) seq: u64,
}

impl Event {
    pub(crate) fn new(kind: CommandKind, duration_s: f64, modeled: bool) -> Self {
        Event {
            kind,
            duration_s,
            groups: 0,
            barriers: 0,
            items: 0,
            lane_items: 0,
            bytes: 0,
            panics: 0,
            timeouts: 0,
            workers_respawned: 0,
            modeled,
            profiling: ProfilingInfo::default(),
            queue_id: 0,
            seq: 0,
        }
    }

    /// Stable id of the queue that ran this command — the same id that
    /// tags the command in the context's [`crate::RaceLog`] stream, so
    /// trace spans and happens-before edges attribute to the same queue.
    /// `0` means unattributed (the event was built outside a queue).
    pub fn queue_id(&self) -> u64 {
        self.queue_id
    }

    /// The command's sequence number within its queue (in-order queues:
    /// enqueue order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Command class.
    pub fn kind(&self) -> CommandKind {
        self.kind
    }

    /// `COMMAND_END − COMMAND_START`, in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Duration as a [`std::time::Duration`].
    pub fn duration(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.duration_s.max(0.0))
    }

    /// `clGetEventProfilingInfo`: the queued/submitted/started/completed
    /// timestamps of this command.
    pub fn profiling(&self) -> ProfilingInfo {
        self.profiling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_carries_duration() {
        let e = Event::new(CommandKind::NdRangeKernel, 0.5, true);
        assert_eq!(e.duration_s(), 0.5);
        assert_eq!(e.duration(), std::time::Duration::from_millis(500));
        assert!(e.modeled);
        assert_eq!(e.kind(), CommandKind::NdRangeKernel);
    }
}
