//! # ocl-rt — an OpenCL-1.1-style runtime for CPUs
//!
//! The core library of this reproduction: an execution model with the same
//! moving parts as the OpenCL implementations the paper measures (Intel
//! OpenCL SDK on a Xeon E5645, NVIDIA OpenCL on a GTX 580), built from
//! scratch in Rust so every overhead the paper talks about is visible and
//! instrumented instead of hidden in a vendor driver.
//!
//! ## Object model (mirrors the OpenCL host API)
//!
//! | OpenCL                        | here                                  |
//! |-------------------------------|---------------------------------------|
//! | `cl_platform_id`              | [`Platform`]                          |
//! | `cl_device_id`                | [`Device`] (native CPU, modeled CPU, modeled GPU) |
//! | `cl_context`                  | [`Context`]                           |
//! | `cl_command_queue`            | [`CommandQueue`]                      |
//! | `cl_mem` (`clCreateBuffer`)   | [`Buffer<T>`] with [`MemFlags`]       |
//! | `cl_kernel`                   | [`Kernel`] trait objects              |
//! | `clEnqueueNDRangeKernel`      | [`CommandQueue::enqueue_kernel`]      |
//! | `clEnqueueRead/WriteBuffer`   | [`CommandQueue::read_buffer`] / [`CommandQueue::write_buffer`] |
//! | `clEnqueueMapBuffer`          | [`CommandQueue::map_buffer`] / [`CommandQueue::map_buffer_mut`] |
//! | `cl_event` + profiling        | [`Event`]                             |
//!
//! ## Execution model
//!
//! A kernel launch is decomposed into **workgroups**; each workgroup is one
//! task on the shared [`cl_pool::ThreadPool`] (the paper: "a workgroup is
//! handled by a logical core of the CPU"). Inside a group, workitems run
//! **serialized** — the loop-fission form CPU OpenCL compilers lower SPMD
//! kernels to (Stratton et al.) — with [`GroupCtx::barrier`] separating
//! barrier phases, and [`GroupCtx::local`] providing workgroup-local memory.
//! Kernels may provide a SIMD group body ([`Kernel::run_group_simd`])
//! processing `W` x-adjacent workitems per step along every row of the
//! group ([`GroupCtx::for_each_simd`]), whatever the group's shape; a step
//! that would cross the kernel's x bound runs item by item. The runtime
//! prefers it when the device vectorizes — this is the Intel-style implicit
//! vectorization of Section III-F. [`BufView::load`] and
//! [`BufViewMut::store`] move one item or one lane step, so a kernel body
//! written once over `cl_vec::Lane` serves both.
//!
//! Following the paper's methodology (Section III-A), all enqueue calls are
//! **blocking**; [`Event`]s carry wall-clock (native devices) or modeled
//! (modeled devices) durations for profiling.
//!
//! ## Quick example
//!
//! ```
//! use ocl_rt::{Context, Device, Kernel, GroupCtx, MemFlags, NDRange};
//! use std::sync::Arc;
//!
//! struct Square { input: ocl_rt::Buffer<f32>, output: ocl_rt::Buffer<f32> }
//! impl Kernel for Square {
//!     fn name(&self) -> &str { "square" }
//!     fn run_group(&self, g: &mut GroupCtx) {
//!         let inp = self.input.view();
//!         let out = self.output.view_mut();
//!         g.for_each(|wi| {
//!             let i = wi.global_id(0);
//!             let x = inp.get(i);
//!             out.set(i, x * x);
//!         });
//!     }
//! }
//!
//! let device = Device::native_cpu(2).unwrap();
//! let ctx = Context::new(device);
//! let queue = ctx.queue();
//! let input = ctx.buffer_from(MemFlags::READ_ONLY, &[1.0f32, 2.0, 3.0, 4.0]).unwrap();
//! let output = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, 4).unwrap();
//! let kernel: Arc<dyn Kernel> = Arc::new(Square { input: input.clone(), output: output.clone() });
//! queue.enqueue_kernel(&kernel, NDRange::d1(4)).unwrap();
//! let mut result = vec![0.0f32; 4];
//! queue.read_buffer(&output, 0, &mut result).unwrap();
//! assert_eq!(result, vec![1.0, 4.0, 9.0, 16.0]);
//! ```

mod affinity_exec;
mod buffer;
mod context;
mod device;
mod error;
mod event;
mod exec;
mod fault;
mod flow;
mod kernel;
mod ndrange;
mod program;
mod queue;
mod race;
mod sched;
mod trace;
mod validate;

/// Re-export so consumers can implement [`Kernel::access_spec`] (whose
/// signature names `cl_analyze` types) without adding the crate themselves.
pub use cl_analyze;
pub use cl_tune;

pub use affinity_exec::AffinityExecutor;
pub use buffer::{BufView, BufViewMut, Buffer, Pod};
pub use context::{Context, ContextConfig};
pub use device::{Device, DeviceKind, Platform};
pub use error::ClError;
pub use event::{CommandKind, Event, ProfilingInfo};
pub use kernel::{ArgBinding, GroupCtx, Kernel, LocalBuf, WorkItem};
pub use ndrange::{NDRange, ResolvedRange};
pub use program::{BuildOptions, Program};
pub use queue::{CoarsenMode, CommandQueue, QueueConfig, TypedMap, TypedMapMut};
pub use race::RaceLog;
pub use sched::{check_linearization, user_event, EventRef, EventStatus, SchedBug, UserEvent};
pub use trace::{now_ns, Span, SpanKind, TraceLog};
pub use validate::{validate_disjoint_writes, WriteConflict};

/// Fault-containment vocabulary, re-exported from the pool so kernels can
/// raise worker-killing faults and park on abortable barriers without
/// depending on `cl-pool` directly.
pub use cl_pool::{AbortSignal, BarrierAborted, FatalFault};

// Re-exported so downstream crates name flags and profiles through the
// runtime, as OpenCL programs name `cl_mem_flags` through the CL headers.
pub use cl_mem::{MapMode, MemFlags};
pub use perf_model::{KernelProfile, Launch};
