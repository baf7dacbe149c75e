//! Serving-layer configuration: per-tenant and per-server knobs, each set
//! through a builder on its config struct (listed in the README).

use std::sync::Arc;
use std::time::Duration;

use ocl_rt::cl_tune::Tuner;

use crate::backoff::RetryPolicy;

/// Per-tenant quotas, weight, and retry policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Label used in reports; defaults to `tenant-<id>`.
    pub name: Option<String>,
    /// Fairness weight (≥ 1): slots granted per WRR round.
    pub weight: u32,
    /// Admission quota: concurrent commands in flight on this handle.
    pub max_inflight: usize,
    /// Admission quota: bytes of transfer/map payload in flight.
    pub max_pending_bytes: usize,
    /// Bounded-retry policy for [`crate::Tenant::launch_with_retry`].
    pub retry: RetryPolicy,
    /// Auto-evict after this many *consecutive* kernel faults
    /// (panic/timeout). `None` disables auto-eviction.
    pub fault_budget: Option<u32>,
    /// Launch watchdog for the tenant's queue; `None` falls back to
    /// [`ServeConfig::launch_timeout`].
    pub launch_timeout: Option<Duration>,
    /// Opt the tenant's queue into `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE`:
    /// commands land in the per-queue pending DAG and run as soon as their
    /// auto-inferred or explicit dependencies complete. Per tenant, so one
    /// tenant's reordering never changes a neighbour's stream semantics.
    pub out_of_order: bool,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            name: None,
            weight: 1,
            max_inflight: 32,
            max_pending_bytes: 64 << 20,
            retry: RetryPolicy::default(),
            fault_budget: None,
            launch_timeout: None,
            out_of_order: false,
        }
    }
}

impl TenantConfig {
    /// Set the report label.
    pub fn name(mut self, n: impl Into<String>) -> Self {
        self.name = Some(n.into());
        self
    }

    /// Set the fairness weight (clamped to ≥ 1).
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w.max(1);
        self
    }

    /// Set the in-flight command quota.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Set the pending-byte quota.
    pub fn max_pending_bytes(mut self, b: usize) -> Self {
        self.max_pending_bytes = b;
        self
    }

    /// Set the retry policy.
    pub fn retry(mut self, r: RetryPolicy) -> Self {
        self.retry = r;
        self
    }

    /// Set the consecutive-fault auto-evict budget.
    pub fn fault_budget(mut self, n: u32) -> Self {
        self.fault_budget = (n > 0).then_some(n);
        self
    }

    /// Set the tenant's launch watchdog.
    pub fn launch_timeout(mut self, t: Duration) -> Self {
        self.launch_timeout = Some(t);
        self
    }

    /// Opt the tenant's queue into out-of-order execution.
    pub fn out_of_order(mut self, on: bool) -> Self {
        self.out_of_order = on;
        self
    }
}

/// Server-wide knobs: gate capacity and shed thresholds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Execution slots the gate hands out; `None` → one per pool worker.
    pub slots: Option<usize>,
    /// Gate waiting-room capacity; arrivals beyond it shed load.
    pub max_waiting: usize,
    /// Default launch watchdog for tenant queues (per-tenant
    /// [`TenantConfig::launch_timeout`] overrides). The serving layer arms
    /// one by default so a stalled kernel can never pin a gate slot
    /// forever.
    pub launch_timeout: Option<Duration>,
    /// Opt every tenant queue into online autotuning of NULL-local
    /// launches against this tuner. Tenants share it, so repeated traffic
    /// from many clients compounds into one learning curve and converged
    /// decisions are reused across tenants. Pass [`Tuner::process`] for the
    /// per-process tuner; tests inject isolated tuners with private cache
    /// files. `None` (the default) leaves tenants on the fixed heuristic.
    pub tuner: Option<Arc<Tuner>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slots: None,
            max_waiting: 64,
            launch_timeout: Some(Duration::from_secs(30)),
            tuner: None,
        }
    }
}

impl ServeConfig {
    /// Set the gate slot count.
    pub fn slots(mut self, n: usize) -> Self {
        self.slots = Some(n.max(1));
        self
    }

    /// Set the waiting-room capacity.
    pub fn max_waiting(mut self, n: usize) -> Self {
        self.max_waiting = n;
        self
    }

    /// Set the default launch watchdog for tenant queues.
    pub fn launch_timeout(mut self, t: Duration) -> Self {
        self.launch_timeout = Some(t);
        self
    }

    /// Tune tenant queues' NULL-local launches against this tuner.
    pub fn tuner(mut self, tuner: Arc<Tuner>) -> Self {
        self.tuner = Some(tuner);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let t = TenantConfig::default();
        assert_eq!(t.weight, 1);
        assert!(t.max_inflight > 0);
        assert!(t.max_pending_bytes > 0);
        let s = ServeConfig::default();
        assert!(s.slots.is_none());
        assert!(s.max_waiting > 0);
        assert!(s.launch_timeout.is_some());
    }

    #[test]
    fn builders_clamp() {
        let t = TenantConfig::default().weight(0).max_inflight(0);
        assert_eq!(t.weight, 1);
        assert_eq!(t.max_inflight, 1);
        assert_eq!(TenantConfig::default().fault_budget(0).fault_budget, None);
    }

    #[test]
    fn ooo_defaults_off_and_builder_opts_in() {
        assert!(!TenantConfig::default().out_of_order);
        assert!(TenantConfig::default().out_of_order(true).out_of_order);
    }
}
