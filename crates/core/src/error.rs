//! Runtime error codes, mirroring OpenCL's `CL_*` error family.

use cl_mem::{FlagError, MemError};

/// Errors surfaced by the runtime's host API.
#[derive(Debug, Clone, PartialEq)]
pub enum ClError {
    /// `CL_INVALID_WORK_GROUP_SIZE`: local size does not divide global size
    /// (an OpenCL 1.x requirement), or is zero.
    InvalidWorkGroupSize {
        global: [usize; 3],
        local: [usize; 3],
    },
    /// `CL_INVALID_GLOBAL_WORK_SIZE`: a zero global dimension.
    InvalidGlobalWorkSize,
    /// `CL_INVALID_VALUE`: bad flags at buffer creation.
    InvalidFlags(FlagError),
    /// `CL_MEM_OBJECT_*` family: buffer subsystem failure.
    Mem(MemError),
    /// `CL_INVALID_BUFFER_SIZE`: size in elements would overflow bytes.
    BufferTooLarge,
    /// The device failed to start (e.g. thread pool).
    DeviceUnavailable(String),
    /// Buffer belongs to a different context than the queue.
    WrongContext,
    /// The static analyzer proved this launch violates the OpenCL memory
    /// contract (conflicting writes, a local-memory race, a divergent
    /// barrier, or an out-of-bounds access). Raised by debug builds at
    /// enqueue time for kernels that publish an access spec.
    ContractViolation {
        kernel: String,
        findings: Vec<String>,
    },
    /// A workitem panicked during the launch. The panic was contained (the
    /// device-lost analog of `CL_OUT_OF_RESOURCES`): peers parked at
    /// barriers were released, remaining workgroups were drained, and the
    /// queue stays usable — the next enqueue self-heals any worker the
    /// fault retired. Buffer contents touched by the launch are undefined,
    /// as after any failed OpenCL enqueue.
    KernelPanicked {
        kernel: String,
        /// Global id of the workitem that panicked.
        gid: [usize; 3],
        /// The panic payload, rendered.
        message: String,
    },
    /// The launch exceeded `QueueConfig::launch_timeout`
    /// (`CL_LAUNCH_TIMEOUT_MS`): the enqueuing thread tripped the abort
    /// protocol at the deadline and the launch was abandoned. Covers livelocked/stalled kernels the
    /// panic path cannot catch.
    LaunchTimedOut {
        kernel: String,
        timeout: std::time::Duration,
    },
    /// `CL_INVALID_KERNEL_NAME`: `Program::create_kernel` was asked for a
    /// name the program does not define.
    InvalidKernelName {
        name: String,
        /// The kernel names the program does define, for the error message.
        available: Vec<String>,
    },
    /// `CL_INVALID_BUILD_OPTIONS`: `clBuildProgram` options string did not
    /// parse.
    InvalidBuildOptions(String),
    /// The serving layer refused to admit the command: the tenant is at its
    /// in-flight or pending-byte quota, or its queued work was shed under
    /// overload. Transient — retry after `retry_after` (the serving layer's
    /// bounded-backoff wrappers do this automatically).
    Backpressure {
        /// Serving-layer tenant id.
        tenant: u64,
        /// Suggested wait before retrying, derived from the tenant's
        /// configured backoff base and current load.
        retry_after: std::time::Duration,
    },
    /// The tenant was evicted from the serving layer (explicitly, or after
    /// exhausting its fault budget); every subsequent command on its handle
    /// fails with this error. Not transient — the client must reconnect.
    TenantEvicted {
        /// Serving-layer tenant id.
        tenant: u64,
    },
    /// The event wait list passed at enqueue would create a cycle in the
    /// event graph (e.g. a user event auto-signalled after an event that
    /// transitively waits on it). Rejected at enqueue — the command never
    /// enters the pending DAG, so the queue cannot deadlock on it.
    CircularWait {
        /// Label of the command or event whose wait list closed the cycle.
        label: String,
    },
    /// A command in this command's wait list (explicit or auto-inferred)
    /// completed unsuccessfully, so the command was skipped rather than run
    /// on inputs in an undefined state — the OpenCL analog of an event
    /// landing in a negative execution status. Only the dependent subgraph
    /// fails; independent commands in the same queue still complete.
    DependencyFailed {
        /// Label of the skipped command.
        label: String,
        /// The error that failed the dependency.
        source: Box<ClError>,
    },
    /// A user event was dropped without ever being signalled, so no signaler
    /// is reachable any more. Commands waiting on it fail with
    /// [`ClError::DependencyFailed`] instead of hanging forever.
    UserEventAbandoned {
        /// The abandoned event's id.
        event: u64,
    },
    /// `finish()` on an out-of-order queue exceeded
    /// `QueueConfig::launch_timeout` with commands still pending — typically
    /// a wait list gated on a user event nobody signals. The watchdog fails
    /// every never-dispatched command (with [`ClError::FinishTimedOut`] as
    /// the dependency error) so the queue drains instead of hanging;
    /// dispatched-but-stuck launches are covered by the per-launch watchdog.
    FinishTimedOut {
        /// Commands still pending when the watchdog tripped.
        pending: usize,
        timeout: std::time::Duration,
    },
}

impl std::fmt::Display for ClError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClError::InvalidWorkGroupSize { global, local } => write!(
                f,
                "invalid workgroup size: local {local:?} must divide global {global:?}"
            ),
            ClError::InvalidGlobalWorkSize => write!(f, "global work size must be nonzero"),
            ClError::InvalidFlags(e) => write!(f, "invalid buffer flags: {e}"),
            ClError::Mem(e) => write!(f, "memory error: {e}"),
            ClError::BufferTooLarge => write!(f, "buffer size overflows"),
            ClError::DeviceUnavailable(s) => write!(f, "device unavailable: {s}"),
            ClError::WrongContext => write!(f, "object used with the wrong context"),
            ClError::ContractViolation { kernel, findings } => write!(
                f,
                "kernel `{kernel}` proven to violate the memory contract: {}",
                findings.join("; ")
            ),
            ClError::KernelPanicked {
                kernel,
                gid,
                message,
            } => write!(
                f,
                "kernel `{kernel}` panicked at global id {gid:?}: {message}"
            ),
            ClError::LaunchTimedOut { kernel, timeout } => write!(
                f,
                "kernel `{kernel}` exceeded the launch timeout of {timeout:?} and was aborted"
            ),
            ClError::InvalidKernelName { name, available } => write!(
                f,
                "no kernel named `{name}` (program defines: {})",
                available.join(", ")
            ),
            ClError::InvalidBuildOptions(s) => write!(f, "invalid build options: {s}"),
            ClError::Backpressure {
                tenant,
                retry_after,
            } => write!(
                f,
                "tenant {tenant} over quota, command not admitted (retry after {retry_after:?})"
            ),
            ClError::TenantEvicted { tenant } => {
                write!(f, "tenant {tenant} was evicted from the serving layer")
            }
            ClError::CircularWait { label } => {
                write!(f, "event wait list for `{label}` would form a cycle")
            }
            ClError::DependencyFailed { label, source } => {
                write!(
                    f,
                    "command `{label}` skipped: a wait-list dependency failed: {source}"
                )
            }
            ClError::UserEventAbandoned { event } => {
                write!(f, "user event #{event} was dropped without being signalled")
            }
            ClError::FinishTimedOut { pending, timeout } => write!(
                f,
                "finish() timed out after {timeout:?} with {pending} command(s) still pending"
            ),
        }
    }
}

impl std::error::Error for ClError {}

impl From<MemError> for ClError {
    fn from(e: MemError) -> Self {
        ClError::Mem(e)
    }
}

impl From<FlagError> for ClError {
    fn from(e: FlagError) -> Self {
        ClError::InvalidFlags(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClError::InvalidWorkGroupSize {
            global: [100, 1, 1],
            local: [7, 1, 1],
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains('7'));
    }

    #[test]
    fn conversions_wrap() {
        let e: ClError = MemError::ZeroSize.into();
        assert!(matches!(e, ClError::Mem(MemError::ZeroSize)));
        let e: ClError = FlagError::ConflictingAccess.into();
        assert!(matches!(e, ClError::InvalidFlags(_)));
    }

    #[test]
    fn serve_errors_render_their_ids() {
        let e = ClError::Backpressure {
            tenant: 42,
            retry_after: std::time::Duration::from_millis(5),
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("5ms"), "{s}");
        let e = ClError::TenantEvicted { tenant: 7 };
        assert!(e.to_string().contains("tenant 7"));
    }

    /// Exhaustive-match coverage: every variant renders a nonempty,
    /// variant-specific `Display`. The `match` has no wildcard arm on
    /// purpose — adding a `ClError` variant without extending this list (and
    /// its Display text) is a compile error here.
    #[test]
    fn every_variant_displays() {
        use std::time::Duration;
        let all = vec![
            ClError::InvalidWorkGroupSize {
                global: [8, 1, 1],
                local: [3, 1, 1],
            },
            ClError::InvalidGlobalWorkSize,
            ClError::InvalidFlags(FlagError::ConflictingAccess),
            ClError::Mem(MemError::ZeroSize),
            ClError::BufferTooLarge,
            ClError::DeviceUnavailable("pool".into()),
            ClError::WrongContext,
            ClError::ContractViolation {
                kernel: "k".into(),
                findings: vec!["f".into()],
            },
            ClError::KernelPanicked {
                kernel: "k".into(),
                gid: [1, 0, 0],
                message: "boom".into(),
            },
            ClError::LaunchTimedOut {
                kernel: "k".into(),
                timeout: Duration::from_millis(1),
            },
            ClError::InvalidKernelName {
                name: "n".into(),
                available: vec!["a".into()],
            },
            ClError::InvalidBuildOptions("-bad".into()),
            ClError::Backpressure {
                tenant: 1,
                retry_after: Duration::from_micros(50),
            },
            ClError::TenantEvicted { tenant: 1 },
            ClError::CircularWait { label: "k".into() },
            ClError::DependencyFailed {
                label: "k".into(),
                source: Box::new(ClError::BufferTooLarge),
            },
            ClError::UserEventAbandoned { event: 3 },
            ClError::FinishTimedOut {
                pending: 2,
                timeout: Duration::from_millis(1),
            },
        ];
        for e in &all {
            // The no-wildcard match is the coverage check.
            let tag = match e {
                ClError::InvalidWorkGroupSize { .. } => "wgs",
                ClError::InvalidGlobalWorkSize => "gws",
                ClError::InvalidFlags(_) => "flags",
                ClError::Mem(_) => "mem",
                ClError::BufferTooLarge => "size",
                ClError::DeviceUnavailable(_) => "device",
                ClError::WrongContext => "ctx",
                ClError::ContractViolation { .. } => "contract",
                ClError::KernelPanicked { .. } => "panic",
                ClError::LaunchTimedOut { .. } => "timeout",
                ClError::InvalidKernelName { .. } => "name",
                ClError::InvalidBuildOptions(_) => "build",
                ClError::Backpressure { .. } => "backpressure",
                ClError::TenantEvicted { .. } => "evicted",
                ClError::CircularWait { .. } => "cycle",
                ClError::DependencyFailed { .. } => "dep",
                ClError::UserEventAbandoned { .. } => "abandoned",
                ClError::FinishTimedOut { .. } => "finish",
            };
            assert!(!tag.is_empty());
            assert!(!e.to_string().is_empty(), "{tag} renders");
        }
        // All Display texts are pairwise distinct — no copy-paste variant.
        let texts: Vec<String> = all.iter().map(|e| e.to_string()).collect();
        for (i, a) in texts.iter().enumerate() {
            for b in &texts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
