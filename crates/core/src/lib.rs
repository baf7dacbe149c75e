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
//! A phase written once as a [`LaneBody`] (one method generic over
//! `cl_vec::Lane`) runs through [`GroupCtx::for_each_lane`], which walks
//! the group's elements along every row when the device vectorizes —
//! the Intel-style implicit vectorization of Section III-F — in
//! 16-element register blocks, then `W`-element steps, then the row's
//! edge one element at a time, and every element at `f32` otherwise.
//! Only the ILP and MBench probes turn the blocks off
//! ([`LaneBody::BLOCKS_OF_16`]): Figs 6 and 10 measure 4-wide steps.
//! Coalesced workitems (`items_per_wi > 1`) own contiguous elements, so
//! they get lanes too. [`BufView::load`] and [`BufViewMut::store`] move
//! one element or one lane step.
//!
//! Following the paper's methodology (Section III-A), all enqueue calls are
//! **blocking**; [`Event`]s carry wall-clock (native devices) or modeled
//! (modeled devices) durations for profiling.
//!
//! ## Quick example
//!
//! ```
//! use cl_vec::Lane;
//! use ocl_rt::{BufView, BufViewMut, Buffer, Context, Device, GroupCtx, Kernel, LaneBody};
//! use ocl_rt::{MemFlags, NDRange, WorkItem};
//! use std::sync::Arc;
//!
//! struct Square { input: Buffer<f32>, output: Buffer<f32> }
//!
//! /// `out[i] = in[i]²` for the `L::WIDTH` elements from `i`.
//! struct Body<'a> { inp: BufView<'a, f32>, out: BufViewMut<'a, f32> }
//! impl LaneBody for Body<'_> {
//!     #[inline(always)]
//!     fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
//!         let x: L = self.inp.load(i);
//!         self.out.store(i, x * x);
//!     }
//! }
//!
//! impl Kernel for Square {
//!     fn name(&self) -> &str { "square" }
//!     fn run_group(&self, g: &mut GroupCtx) {
//!         let mut body = Body { inp: self.input.view(), out: self.output.view_mut() };
//!         g.for_each_lane(1, self.input.len(), &mut body);
//!     }
//! }
//!
//! let device = Device::native_cpu(2).unwrap();
//! let ctx = Context::new(device);
//! let queue = ctx.queue();
//! let input = ctx.buffer_from(MemFlags::READ_ONLY, &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
//! let output = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, 6).unwrap();
//! let kernel: Arc<dyn Kernel> = Arc::new(Square { input: input.clone(), output: output.clone() });
//! // One group of six: a lane step over elements 0..4, then 4 and 5 alone.
//! let ev = queue.enqueue_kernel(&kernel, NDRange::d1(6).local1(6)).unwrap();
//! assert_eq!(ev.lane_items, 4);
//! let mut result = vec![0.0f32; 6];
//! queue.read_buffer(&output, 0, &mut result).unwrap();
//! assert_eq!(result, vec![1.0, 4.0, 9.0, 16.0, 25.0, 36.0]);
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
pub use kernel::{ArgBinding, GroupCtx, Kernel, LaneBody, LocalBuf, WorkItem};
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
