//! Workgroup→core affinity — the OpenCL extension the paper proposes.
//!
//! Section III-E: *"coupling logical threads with physical threads is
//! needed on OpenCL, especially for CPUs. The granularity for the
//! assignment could be workgroup; in other words, the programmer can
//! specify the core where specific workgroup would be executed, so that
//! data on different kernels can be shared without a memory request."*
//!
//! [`AffinityExecutor`] implements exactly that: one pinned, single-worker
//! execution lane per core, and an enqueue entry point that takes a
//! `workgroup → core` mapping. Launching a producer kernel and then its
//! consumer with the *same* mapping keeps each workgroup's data in the
//! private caches of the core that produced it (the aligned case of
//! Figure 9); changing the mapping reproduces the misaligned case.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_pool::{PinPolicy, PoolConfig, ThreadPool};

use crate::error::ClError;
use crate::event::{Event, ProfilingInfo};
use crate::exec::LaunchState;
use crate::kernel::Kernel;
use crate::ndrange::NDRange;

/// A set of pinned execution lanes, one per core, for affinity-bound
/// kernel launches.
pub struct AffinityExecutor {
    lanes: Vec<ThreadPool>,
}

impl AffinityExecutor {
    /// One single-worker lane per core, worker `i` pinned to core
    /// `i % available_cores()`.
    pub fn new(cores: usize) -> Result<Self, ClError> {
        if cores == 0 {
            return Err(ClError::DeviceUnavailable(
                "affinity executor needs at least one core".into(),
            ));
        }
        let mut lanes = Vec::with_capacity(cores);
        for core in 0..cores {
            let mut cfg = PoolConfig::default()
                .workers(1)
                .pin(PinPolicy::Explicit(vec![core]));
            cfg.name_prefix = format!("affinity-lane-{core}");
            lanes
                .push(ThreadPool::new(cfg).map_err(|e| ClError::DeviceUnavailable(e.to_string()))?);
        }
        Ok(AffinityExecutor { lanes })
    }

    /// Number of execution lanes (cores).
    pub fn cores(&self) -> usize {
        self.lanes.len()
    }

    /// Launch `kernel` with every workgroup executed on the lane chosen by
    /// `placement(linear_group_id) % cores`. Blocking, like every command
    /// in this runtime.
    pub fn enqueue_kernel_bound(
        &self,
        kernel: &Arc<dyn Kernel>,
        range: NDRange,
        placement: impl Fn(usize) -> usize,
    ) -> Result<Event, ClError> {
        let queued_ns = crate::trace::now_ns();
        // Self-heal lanes whose single worker was retired by a fatal fault
        // in an earlier launch (one atomic load per healthy lane).
        let mut respawned = 0u64;
        for lane in &self.lanes {
            respawned += lane.recover() as u64;
        }
        // Affinity launches default to one group per lane-step worth of
        // items; an explicit local size is honoured as usual.
        let resolved = range.resolve_with(512, self.cores() * 4)?;
        let n_groups = resolved.n_groups();
        // One workgroup per lane task, run by the engine's chunk body:
        // scalar `run_group`, the build profile's gid stamping, no trace.
        let state = LaunchState::new(kernel, &resolved, 1, false, cfg!(debug_assertions), None);

        let t0 = Instant::now();
        let submitted_ns = crate::trace::now_ns();
        for linear in 0..n_groups {
            let lane = placement(linear) % self.lanes.len();
            let state = Arc::clone(&state);
            self.lanes[lane].spawn(move || state.run_chunk(linear..linear + 1));
        }
        // Lanes are single-worker pools, so a fatal fault mid-launch leaves
        // that lane's queued groups unexecuted until the lane is respawned.
        // Block on the latch until the last group's wake, in 5 ms slices so
        // that lanes are recovered once a fault trips — respawned workers
        // then drain the remaining (aborted) groups as no-ops.
        while !state.counters.latch.wait_poll(Duration::from_millis(5)) {
            if state.fault.abort.is_tripped() {
                for lane in &self.lanes {
                    lane.recover();
                }
            }
        }

        if let Some(rec) = state.fault.take() {
            return Err(rec.into_error());
        }

        // An affinity launch reports its dispatch loop as the submit/start
        // boundary, so both share a stamp (the monotonic invariant still
        // holds).
        let mut ev = state.event(
            t0.elapsed().as_secs_f64(),
            false,
            ProfilingInfo {
                queued_ns,
                submitted_ns,
                started_ns: submitted_ns,
                completed_ns: crate::trace::now_ns(),
            },
        );
        ev.workers_respawned = respawned;
        Ok(ev)
    }

    /// The aligned placement of Figure 9: workgroup `g` on core `g % cores`.
    pub fn aligned(&self) -> impl Fn(usize) -> usize + '_ {
        let n = self.cores();
        move |g| g % n
    }

    /// The misaligned placement of Figure 9: rotated by `shift` cores.
    pub fn rotated(&self, shift: usize) -> impl Fn(usize) -> usize + '_ {
        let n = self.cores();
        move |g| (g + shift) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::context::Context;
    use crate::device::Device;
    use crate::kernel::GroupCtx;
    use crate::MemFlags;
    use cl_pool::FatalFault;
    use cl_util::sync::Mutex as PMutex;

    struct RecordLane {
        out: Buffer<u32>,
        names: Arc<PMutex<Vec<(usize, String)>>>,
    }

    impl Kernel for RecordLane {
        fn name(&self) -> &str {
            "record_lane"
        }
        fn run_group(&self, g: &mut GroupCtx) {
            let group = g.group_id(0);
            let name = std::thread::current().name().unwrap_or("?").to_string();
            self.names.lock().push((group, name));
            let out = self.out.view_mut();
            g.for_each(|wi| {
                let i = wi.global_id(0);
                out.set(i, (i * 3) as u32);
            });
        }
    }

    #[test]
    fn groups_run_on_their_designated_lanes() {
        let ctx = Context::new(Device::native_cpu(1).unwrap());
        let exec = AffinityExecutor::new(3).unwrap();
        let out = ctx.buffer::<u32>(MemFlags::default(), 64).unwrap();
        let names = Arc::new(PMutex::new(Vec::new()));
        let kernel: Arc<dyn Kernel> = Arc::new(RecordLane {
            out: out.clone(),
            names: Arc::clone(&names),
        });
        let ev = exec
            .enqueue_kernel_bound(&kernel, NDRange::d1(64).local1(8), exec.aligned())
            .unwrap();
        assert_eq!(ev.groups, 8);
        assert_eq!(ev.items, 64);
        // Every group executed on the lane its id selects.
        for (group, thread_name) in names.lock().iter() {
            let expected = format!("affinity-lane-{}", group % 3);
            assert!(
                thread_name.starts_with(&expected),
                "group {group} ran on {thread_name}, expected {expected}*"
            );
        }
        // And the kernel's work happened.
        assert_eq!(out.view().get(21), 63);
    }

    /// Raises `fault` at global id 70 (group 2 of a 32-wide launch);
    /// `None` runs clean.
    struct Boom {
        fault: Option<bool>,
    }

    impl Kernel for Boom {
        fn name(&self) -> &str {
            "boom"
        }
        fn run_group(&self, g: &mut GroupCtx) {
            let fault = self.fault;
            g.for_each(|wi| match (fault, wi.global_id(0)) {
                (Some(false), 70) => panic!("boom at 70"),
                (Some(true), 70) => FatalFault::raise("boom at 70"),
                _ => {}
            });
        }
    }

    #[test]
    fn bound_launch_faults_are_contained_and_lanes_heal() {
        let exec = AffinityExecutor::new(2).unwrap();
        let range = NDRange::d1(256).local1(32);
        // The profile's gid contract: exact item in debug, group base in
        // release.
        let gid = if cfg!(debug_assertions) { 70 } else { 64 };
        for fatal in [false, true] {
            let kernel: Arc<dyn Kernel> = Arc::new(Boom { fault: Some(fatal) });
            match exec.enqueue_kernel_bound(&kernel, range, exec.aligned()) {
                Err(ClError::KernelPanicked {
                    kernel, gid: got, ..
                }) => {
                    assert_eq!(kernel, "boom");
                    assert_eq!(got, [gid, 0, 0], "fatal={fatal}");
                }
                other => panic!("fatal={fatal}: expected KernelPanicked, got {other:?}"),
            }
        }
        // The lane the fatal fault retired is respawned; the next launch
        // runs every group.
        let clean: Arc<dyn Kernel> = Arc::new(Boom { fault: None });
        let ev = exec
            .enqueue_kernel_bound(&clean, range, exec.aligned())
            .unwrap();
        assert_eq!((ev.groups, ev.items, ev.panics), (8, 256, 0));
        assert!(exec.lanes.iter().all(|lane| lane.lost_workers() == 0));
    }

    #[test]
    fn rotated_placement_shifts_lanes() {
        let exec = AffinityExecutor::new(4).unwrap();
        let rot = exec.rotated(1);
        assert_eq!(rot(0), 1);
        assert_eq!(rot(3), 0);
        let al = exec.aligned();
        assert_eq!(al(5), 1);
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(AffinityExecutor::new(0).is_err());
    }

    #[test]
    fn producer_consumer_alignment_end_to_end() {
        // The Figure 9 pattern through the extension API: produce on
        // aligned lanes, consume aligned vs rotated; results identical
        // either way (placement is a performance knob, not a semantic one).
        struct Fill {
            buf: Buffer<f32>,
        }
        impl Kernel for Fill {
            fn name(&self) -> &str {
                "fill"
            }
            fn run_group(&self, g: &mut GroupCtx) {
                let b = self.buf.view_mut();
                g.for_each(|wi| b.set(wi.global_id(0), wi.global_id(0) as f32));
            }
        }
        struct Double {
            src: Buffer<f32>,
            dst: Buffer<f32>,
        }
        impl Kernel for Double {
            fn name(&self) -> &str {
                "double"
            }
            fn run_group(&self, g: &mut GroupCtx) {
                let (s, d) = (self.src.view(), self.dst.view_mut());
                g.for_each(|wi| {
                    let i = wi.global_id(0);
                    d.set(i, 2.0 * s.get(i));
                });
            }
        }

        let ctx = Context::new(Device::native_cpu(1).unwrap());
        let exec = AffinityExecutor::new(2).unwrap();
        let src = ctx.buffer::<f32>(MemFlags::default(), 256).unwrap();
        let dst = ctx.buffer::<f32>(MemFlags::default(), 256).unwrap();
        let fill: Arc<dyn Kernel> = Arc::new(Fill { buf: src.clone() });
        let double: Arc<dyn Kernel> = Arc::new(Double {
            src,
            dst: dst.clone(),
        });
        let range = NDRange::d1(256).local1(32);
        exec.enqueue_kernel_bound(&fill, range, exec.aligned())
            .unwrap();
        for placement in [0usize, 1] {
            exec.enqueue_kernel_bound(&double, range, exec.rotated(placement))
                .unwrap();
            assert_eq!(dst.view().get(100), 200.0);
        }
    }
}
