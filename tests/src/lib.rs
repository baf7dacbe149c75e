//! Shared helpers for the cross-crate integration tests.

use ocl_rt::{Context, Device};
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
