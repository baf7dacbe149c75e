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
/// `local`-wide groups reports, per the build profile's contract: the exact
/// item in debug builds, its group's base item in release builds
/// (`CL_EXACT_GID=1`/`0` overrides either way).
pub fn reported_gid(gid: usize, local: usize) -> [usize; 3] {
    let exact = match std::env::var("CL_EXACT_GID") {
        Ok(v) => v == "1",
        Err(_) => cfg!(debug_assertions),
    };
    [if exact { gid } else { gid - gid % local }, 0, 0]
}
