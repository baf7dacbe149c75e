//! The server: one shared device + fairness gate, handing out [`Tenant`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use cl_util::sync::Mutex;
use ocl_rt::{ClError, Context, ContextConfig, Device, QueueConfig};

use crate::config::{ServeConfig, TenantConfig};
use crate::fair::WeightedGate;
use crate::tenant::{Tenant, TenantShared};

/// The in-process serving front-end: owns the shared [`Device`] and the
/// [`WeightedGate`], and mints per-client [`Tenant`] handles.
pub struct Server {
    device: Device,
    cfg: ServeConfig,
    gate: Arc<WeightedGate>,
    tenants: Mutex<Vec<(u64, Weak<TenantShared>)>>,
    next_id: AtomicU64,
}

impl Server {
    /// A server over a fresh native-CPU device with `workers` pool workers.
    pub fn new(workers: usize, cfg: ServeConfig) -> Result<Self, ClError> {
        Ok(Self::with_device(Device::native_cpu(workers)?, cfg))
    }

    /// A server over an existing device (shared pool, modeled device, …).
    pub fn with_device(device: Device, cfg: ServeConfig) -> Self {
        let slots = cfg.slots.unwrap_or_else(|| device.pool().workers()).max(1);
        let gate = WeightedGate::new(slots, cfg.max_waiting);
        Server {
            device,
            cfg,
            gate,
            tenants: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Mint a tenant handle: its own context and queue over the shared
    /// device, a WRR lane at `cfg.weight`, and fresh quota counters.
    pub fn tenant(&self, cfg: TenantConfig) -> Tenant {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = cfg.name.clone().unwrap_or_else(|| format!("tenant-{id}"));
        self.gate.register(id, cfg.weight);
        // Per-tenant context: buffers and race logs never alias across
        // tenants (the runtime's WrongContext check enforces it).
        let ctx = Context::new_with(self.device.clone(), ContextConfig::default());
        // Tenants share one tuner: every client's NULL-local traffic feeds
        // the same bandit, and one tenant's converged decision is every
        // tenant's hot path.
        let qcfg = QueueConfig {
            launch_timeout: cfg.launch_timeout.or(self.cfg.launch_timeout),
            out_of_order: cfg.out_of_order,
            tuner: self.cfg.tuner.clone(),
            ..QueueConfig::default()
        };
        let queue = ctx.queue_with(qcfg);
        let shared = Arc::new(TenantShared {
            id,
            name,
            cfg,
            inflight: Default::default(),
            pending_bytes: Default::default(),
            evicted: Default::default(),
            consecutive_faults: Default::default(),
            stats: Default::default(),
        });
        let mut reg = self.tenants.lock();
        reg.retain(|(_, w)| w.strong_count() > 0);
        reg.push((id, Arc::downgrade(&shared)));
        drop(reg);
        Tenant::new(shared, Arc::clone(&self.gate), ctx, queue)
    }

    /// Administratively evict tenant `id`: parked launches fail, later
    /// commands on the handle return [`ClError::TenantEvicted`]. Returns
    /// false when no live tenant has that id.
    pub fn evict(&self, id: u64) -> bool {
        let reg = self.tenants.lock();
        let Some(shared) = reg
            .iter()
            .find(|(tid, _)| *tid == id)
            .and_then(|(_, w)| w.upgrade())
        else {
            return false;
        };
        drop(reg);
        if !shared.evicted.swap(true, Ordering::AcqRel) {
            self.gate.evict(id);
        }
        true
    }

    /// The shared device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The fairness gate (shared by every tenant).
    pub fn gate(&self) -> &Arc<WeightedGate> {
        &self.gate
    }

    /// The server-wide configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Live (not dropped) tenant handles.
    pub fn alive(&self) -> usize {
        self.tenants
            .lock()
            .iter()
            .filter(|(_, w)| w.strong_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_mints_distinct_tenants() {
        let srv = Server::new(2, ServeConfig::default()).unwrap();
        let a = srv.tenant(TenantConfig::default());
        let b = srv.tenant(TenantConfig::default().name("bee").weight(3));
        assert_ne!(a.id(), b.id());
        assert_eq!(b.name(), "bee");
        assert_eq!(srv.alive(), 2);
        drop(a);
        assert_eq!(srv.alive(), 1);
    }

    #[test]
    fn gate_defaults_to_one_slot_per_worker() {
        let srv = Server::new(3, ServeConfig::default()).unwrap();
        assert_eq!(srv.gate().capacity(), 3);
        let srv = Server::new(2, ServeConfig::default().slots(5)).unwrap();
        assert_eq!(srv.gate().capacity(), 5);
    }

    #[test]
    fn evict_unknown_id_is_false() {
        let srv = Server::new(1, ServeConfig::default()).unwrap();
        assert!(!srv.evict(99));
        let t = srv.tenant(TenantConfig::default());
        assert!(srv.evict(t.id()));
        assert!(t.is_evicted());
    }
}
