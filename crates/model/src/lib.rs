//! # perf-model — analytic CPU and GPU timing models
//!
//! The paper measures OpenCL workloads on two machines (Table I): an Intel
//! Xeon E5645 CPU and an NVIDIA GTX 580 GPU. We have neither in this
//! reproduction, so the GPU-side series of every figure — and the
//! deterministic plane of the CPU-side series — come from analytic models:
//!
//! * [`CpuModel`]: an out-of-order multicore model. Per-workitem time is the
//!   maximum of a *dependency-chain term* (`chain_ops × latency / ILP`, which
//!   produces the paper's Figure 6 CPU behaviour), a *throughput term*, and
//!   a *memory term*; workgroups pay a dispatch overhead and workitems pay an
//!   SPMD-emulation overhead (which together produce Figures 1/3).
//! * [`GpuModel`]: an occupancy/latency-hiding model in the spirit of
//!   Hong & Kim's analytical GPU model (the paper's reference \[18\]). Active
//!   warps per SM follow from workgroup size and Fermi limits; when there
//!   are enough warps, latency is hidden and ILP is irrelevant (Figure 6
//!   GPU); when workgroups are tiny or workitems few, latency and lane
//!   waste are exposed (Figures 1, 3, 4).
//! * [`TransferModel`]: staging-copy vs map costs on a CPU device and PCIe
//!   costs on a discrete GPU (Figures 7, 8).
//!
//! Absolute constants are order-of-magnitude calibrations for the paper's
//! 2010-era hardware; what the reproduction must match is the *shape* of
//! each figure, and every constant is a plain struct field an experiment can
//! sweep (see `repro --only extra-scheduling`).

mod cpu;
mod gpu;
mod hongkim;
mod launch;
mod machine;
mod occupancy_table;
mod profile;
mod transfer;
pub mod warpsim;

pub use cpu::CpuModel;
pub use gpu::{GpuModel, Occupancy};
pub use hongkim::{HongKimBreakdown, HongKimModel, Regime};
pub use launch::Launch;
pub use machine::{CpuSpec, GpuSpec};
pub use occupancy_table::{occupancy_table, render_occupancy_table, OccupancyLimit, OccupancyRow};
pub use profile::KernelProfile;
pub use transfer::{TransferModel, TransferPath};
pub use warpsim::{SmRun, WarpSimConfig};
