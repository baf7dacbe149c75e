//! Compute devices: the native host CPU, and modeled CPU/GPU devices.

use std::sync::Arc;

use cl_pool::{PinPolicy, PoolConfig, ThreadPool};
use perf_model::{CpuModel, CpuSpec, GpuModel, GpuSpec, TransferModel};

use crate::error::ClError;

/// What executes kernels and how time is attributed.
pub enum DeviceKind {
    /// Kernels execute on host threads; events carry wall-clock times.
    NativeCpu,
    /// Kernels execute on host threads for correctness, but events carry
    /// times from the analytic CPU model (deterministic plane).
    ModeledCpu(CpuModel),
    /// Kernels execute on host threads for correctness, but events carry
    /// times from the analytic GPU model — the GTX 580 substitute.
    ModeledGpu(GpuModel),
}

pub(crate) struct DeviceInner {
    pub(crate) kind: DeviceKind,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) name: String,
    pub(crate) default_wg: usize,
    /// Group-count target of the NULL local-size heuristic.
    pub(crate) null_target_groups: usize,
    pub(crate) simd_width: usize,
    pub(crate) vectorize: bool,
    /// Whether workitem loops stamp a contained panic's gid per item.
    pub(crate) exact_gid: bool,
    pub(crate) transfer_model: TransferModel,
}

/// A compute device (`cl_device_id` analog).
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// A native CPU device with `workers` worker threads.
    pub fn native_cpu(workers: usize) -> Result<Self, ClError> {
        Self::native_cpu_pinned(workers, PinPolicy::None)
    }

    /// A native CPU device whose workers are pinned to cores — the affinity
    /// extension the paper argues OpenCL should have (Section III-E).
    pub fn native_cpu_pinned(workers: usize, pin: PinPolicy) -> Result<Self, ClError> {
        let pool = ThreadPool::new(PoolConfig::default().workers(workers).pin(pin))
            .map_err(|e| ClError::DeviceUnavailable(e.to_string()))?;
        Ok(Self::native_with_pool(Arc::new(pool)))
    }

    /// A native CPU device on an existing shared pool.
    pub fn native_with_pool(pool: Arc<ThreadPool>) -> Self {
        let spec = CpuSpec::xeon_e5645();
        Device {
            inner: Arc::new(DeviceInner {
                kind: DeviceKind::NativeCpu,
                name: format!("Native CPU ({} workers)", pool.workers()),
                default_wg: 512,
                null_target_groups: pool.workers() * 4,
                simd_width: 4,
                vectorize: true,
                exact_gid: cfg!(debug_assertions),
                transfer_model: TransferModel::cpu(&spec),
                pool,
            }),
        }
    }

    /// A modeled CPU device (deterministic timing from [`CpuSpec`]).
    pub fn modeled_cpu(spec: CpuSpec) -> Self {
        Self::modeled_cpu_on(spec, shared_exec_pool())
    }

    /// A modeled CPU device on a caller-provided execution pool.
    pub fn modeled_cpu_on(spec: CpuSpec, pool: Arc<ThreadPool>) -> Self {
        let default_wg = spec.default_wg;
        let null_target_groups = spec.cores * 4;
        let simd_width = spec.simd_width_f32;
        let transfer_model = TransferModel::cpu(&spec);
        let name = format!("Modeled CPU: {}", spec.name);
        Device {
            inner: Arc::new(DeviceInner {
                kind: DeviceKind::ModeledCpu(CpuModel::new(spec)),
                name,
                default_wg,
                null_target_groups,
                simd_width,
                vectorize: true,
                exact_gid: cfg!(debug_assertions),
                transfer_model,
                pool,
            }),
        }
    }

    /// A modeled GPU device (deterministic timing from [`GpuSpec`]).
    pub fn modeled_gpu(spec: GpuSpec) -> Self {
        Self::modeled_gpu_on(spec, shared_exec_pool())
    }

    /// A modeled GPU device on a caller-provided execution pool.
    pub fn modeled_gpu_on(spec: GpuSpec, pool: Arc<ThreadPool>) -> Self {
        let transfer_model = TransferModel::gpu(&spec);
        let name = format!("Modeled GPU: {}", spec.name);
        Device {
            inner: Arc::new(DeviceInner {
                kind: DeviceKind::ModeledGpu(GpuModel::new(spec)),
                name,
                // GPU runtimes pick warp-multiple defaults and do not
                // shrink groups to manufacture occupancy.
                default_wg: 256,
                null_target_groups: usize::MAX,
                simd_width: 1,
                vectorize: false,
                exact_gid: cfg!(debug_assertions),
                transfer_model,
                pool,
            }),
        }
    }

    /// Human-readable device name (`CL_DEVICE_NAME`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Workgroup size used when the program passes NULL.
    pub fn default_wg(&self) -> usize {
        self.inner.default_wg
    }

    /// Group-count target of the NULL local-size heuristic.
    pub fn null_target_groups(&self) -> usize {
        self.inner.null_target_groups
    }

    /// The device's f32 SIMD width (`CL_DEVICE_PREFERRED_VECTOR_WIDTH_FLOAT`).
    pub fn simd_width(&self) -> usize {
        self.inner.simd_width
    }

    /// Whether the kernel compiler's implicit vectorizer is enabled.
    pub fn vectorizes(&self) -> bool {
        self.inner.vectorize
    }

    /// Disable/enable the implicit vectorizer (ablation knob).
    ///
    /// The `expect` is a deliberate invariant, not a recoverable condition:
    /// flipping the knob after the device has been shared (contexts/queues
    /// hold clones) would change vectorization under a live launch. Callers
    /// configure the device before building a context.
    pub fn set_vectorize(&mut self, on: bool) {
        Arc::get_mut(&mut self.inner)
            .map(|i| i.vectorize = on)
            .expect("set_vectorize requires a uniquely owned Device");
    }

    /// Whether a contained panic names its exact workitem (see
    /// [`Device::set_exact_gid`]).
    pub fn exact_gid(&self) -> bool {
        self.inner.exact_gid
    }

    /// Stamp the faulting-gid trace per workitem (`true`) or leave it at
    /// the group's base item (`false`). Exact stamping costs a store on
    /// every workitem of every launch to make a rare panic report
    /// item-precise, so release builds default to coarse: a contained panic
    /// still names the kernel, the workgroup and the group's base global
    /// id. Debug builds default to exact. Harnesses that judge exact gids
    /// turn it on. Like [`Device::set_vectorize`], configure the device
    /// before building a context.
    pub fn set_exact_gid(&mut self, on: bool) {
        Arc::get_mut(&mut self.inner)
            .map(|i| i.exact_gid = on)
            .expect("set_exact_gid requires a uniquely owned Device");
    }

    /// The execution pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.inner.pool
    }

    /// Device kind.
    pub fn kind(&self) -> &DeviceKind {
        &self.inner.kind
    }

    /// The transfer-time model for this device's bus.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.inner.transfer_model
    }

    /// True for devices whose event times are modeled rather than measured.
    pub fn is_modeled(&self) -> bool {
        !matches!(self.inner.kind, DeviceKind::NativeCpu)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({})", self.name())
    }
}

/// Shared low-overhead pool for modeled devices (they execute kernels only
/// for output correctness; their *reported* time comes from the model).
fn shared_exec_pool() -> Arc<ThreadPool> {
    use std::sync::OnceLock;
    static POOL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    POOL.get_or_init(|| {
        // Construction-time expect: pool creation fails only if the OS
        // cannot spawn threads at all, in which case no device can work and
        // there is nothing for the caller to recover.
        Arc::new(ThreadPool::new(PoolConfig::default()).expect("modeled-device exec pool"))
    })
    .clone()
}

/// A platform enumerating available devices (`clGetPlatformIDs` analog).
pub struct Platform;

impl Platform {
    /// The devices this reproduction exposes: a native CPU sized to the
    /// host, plus modeled replicas of the paper's Table I machines.
    pub fn devices() -> Vec<Device> {
        let native = Device::native_cpu(cl_pool::available_cores()).expect("host CPU device");
        vec![
            native,
            Device::modeled_cpu(CpuSpec::xeon_e5645()),
            Device::modeled_gpu(GpuSpec::gtx580()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_device_reports_shape() {
        let d = Device::native_cpu(2).unwrap();
        assert!(d.name().contains("2 workers"));
        assert!(!d.is_modeled());
        assert_eq!(d.simd_width(), 4);
    }

    #[test]
    fn modeled_devices_are_modeled() {
        assert!(Device::modeled_cpu(CpuSpec::xeon_e5645()).is_modeled());
        assert!(Device::modeled_gpu(GpuSpec::gtx580()).is_modeled());
    }

    #[test]
    fn platform_lists_three_devices() {
        let ds = Platform::devices();
        assert_eq!(ds.len(), 3);
        assert!(ds[1].name().contains("E5645"));
        assert!(ds[2].name().contains("580"));
    }

    #[test]
    fn zero_worker_native_cpu_fails() {
        assert!(matches!(
            Device::native_cpu(0),
            Err(ClError::DeviceUnavailable(_))
        ));
    }

    #[test]
    fn vectorize_toggle() {
        let mut d = Device::native_cpu(1).unwrap();
        assert!(d.vectorizes());
        d.set_vectorize(false);
        assert!(!d.vectorizes());
    }

    #[test]
    fn exact_gid_defaults_to_the_build_profile() {
        let mut d = Device::native_cpu(1).unwrap();
        assert_eq!(d.exact_gid(), cfg!(debug_assertions));
        d.set_exact_gid(true);
        assert!(d.exact_gid());
    }
}
