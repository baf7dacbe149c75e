//! Shared helpers for the cross-crate integration tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ocl_rt::{ArgBinding, Context, Device, GroupCtx, Kernel, KernelProfile, ResolvedRange};
use perf_model::{CpuSpec, GpuSpec};

/// A native CPU context sized to the host.
pub fn native_ctx() -> Context {
    Context::new(Device::native_cpu(cl_pool::available_cores().max(2)).unwrap())
}

/// Contexts for all three device kinds (native, modeled CPU, modeled GPU).
pub fn all_ctxs() -> Vec<(&'static str, Context)> {
    vec![
        ("native", native_ctx()),
        (
            "modeled-cpu",
            Context::new(Device::modeled_cpu(CpuSpec::xeon_e5645())),
        ),
        (
            "modeled-gpu",
            Context::new(Device::modeled_gpu(GpuSpec::gtx580())),
        ),
    ]
}

/// The global id a contained panic at item `gid` of a 1-D launch with
/// `local`-wide groups reports on `device`: the exact item when the device
/// stamps exact gids ([`Device::exact_gid`], the debug-build default), its
/// group's base item otherwise (the release-build default).
pub fn reported_gid(device: &Device, gid: usize, local: usize) -> [usize; 3] {
    [
        if device.exact_gid() {
            gid
        } else {
            gid - gid % local
        },
        0,
        0,
    ]
}

/// Wraps a kernel and counts its groups by how they ran: through the lane
/// body (`run_group_simd` returned `true`) or the scalar body. Everything
/// else delegates, so queue planning treats it as the wrapped kernel.
pub struct LaneSpy {
    inner: Arc<dyn Kernel>,
    lanes: AtomicU64,
    scalar: AtomicU64,
}

impl LaneSpy {
    pub fn new(inner: Arc<dyn Kernel>) -> Arc<Self> {
        Arc::new(LaneSpy {
            inner,
            lanes: AtomicU64::new(0),
            scalar: AtomicU64::new(0),
        })
    }

    /// Groups the lane body ran.
    pub fn lane_groups(&self) -> u64 {
        self.lanes.load(Ordering::Relaxed)
    }

    /// Groups the scalar body ran.
    pub fn scalar_groups(&self) -> u64 {
        self.scalar.load(Ordering::Relaxed)
    }
}

impl Kernel for LaneSpy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run_group(&self, g: &mut GroupCtx) {
        self.scalar.fetch_add(1, Ordering::Relaxed);
        self.inner.run_group(g);
    }

    fn run_group_simd(&self, g: &mut GroupCtx, width: usize) -> bool {
        let ran = self.inner.run_group_simd(g, width);
        if ran {
            self.lanes.fetch_add(1, Ordering::Relaxed);
        }
        ran
    }

    fn profile(&self) -> KernelProfile {
        self.inner.profile()
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        self.inner.access_spec(range)
    }

    fn buffer_bindings(&self) -> Vec<ArgBinding> {
        self.inner.buffer_bindings()
    }
}
