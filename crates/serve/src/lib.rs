//! # cl-serve — multi-tenant serving layer over the runtime
//!
//! The paper measures OpenCL one benchmark at a time; a production runtime
//! serves many independent clients over one machine. This crate is the
//! in-process front-end for that: N clients each own a [`Tenant`] handle
//! (its own `Context` + `CommandQueue` + quotas) over one shared
//! [`ocl_rt::Device`] and its `cl_pool::ThreadPool`.
//!
//! Guarantees, in order of the overload story:
//!
//! 1. **Admission control** — every tenant command first passes per-tenant
//!    in-flight and pending-byte quotas. Over quota, the command is refused
//!    with [`ClError::Backpressure`] carrying a `retry_after` hint; nothing
//!    queues unboundedly.
//! 2. **Weighted fairness** — kernel launches (the only commands that
//!    occupy pool workers) pass a [`WeightedGate`]: a fixed number of
//!    execution slots handed out by deficit weighted round-robin across
//!    tenants, so a flooding tenant cannot monopolize workers.
//! 3. **Graceful degradation** — when the gate's waiting room is full, load
//!    is shed deterministically: the newest waiter of the lowest-weight
//!    lane goes first, and an arrival that *is* the newest lowest-weight
//!    work is rejected outright. Shed work fails with `Backpressure`,
//!    everyone else's p99 stays bounded.
//! 4. **Fault isolation** — panic/timeout containment (PR 2) is scoped per
//!    tenant: a tenant whose kernel panics or stalls gets the error on its
//!    own handle; the pool self-heals and other tenants' enqueues proceed.
//!    A configurable consecutive-fault budget auto-evicts abusive tenants
//!    ([`ClError::TenantEvicted`]).
//! 5. **Retry/backoff** — [`Tenant::launch_with_retry`] retries transient
//!    failures (backpressure, device-unavailable) a bounded number of times
//!    with jittered exponential backoff ([`RetryPolicy`]), deterministic
//!    under the tenant's seeded RNG.
//!
//! Knobs come from [`TenantConfig`] / [`ServeConfig`], each set through a
//! builder (listed in the README).

mod backoff;
mod config;
mod fair;
mod metrics;
mod server;
mod tenant;

pub use backoff::{Backoff, RetryPolicy};
pub use config::{ServeConfig, TenantConfig};
pub use fair::{AcquireError, SlotGuard, WeightedGate};
pub use metrics::{StatsSnapshot, TenantStats};
pub use server::Server;
pub use tenant::{is_transient, Tenant};

// Re-export the error type tenants surface, so harnesses can match on
// `cl_serve::ClError` without naming the runtime crate.
pub use ocl_rt::ClError;
