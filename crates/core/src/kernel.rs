//! The kernel programming model: workgroup bodies, workitems, barriers,
//! local memory.
//!
//! A CPU OpenCL implementation cannot afford one thread per workitem, so it
//! serializes the workitems of a group into loops, splitting the kernel at
//! barriers ("loop fission" / workitem coalescing — Stratton et al., SnuCL).
//! This runtime exposes that lowered form directly: a kernel implements
//! [`Kernel::run_group`], iterating workitems with [`GroupCtx::for_each`]
//! (or their elements with [`GroupCtx::for_each_lane`], which also runs
//! lane steps) and marking barrier phase boundaries with
//! [`GroupCtx::barrier`]. Because each walk completes all workitems of the
//! phase before returning, barrier semantics hold by construction.

use cl_pool::AbortSignal;
use cl_vec::{Lane, VecF32};
use perf_model::KernelProfile;

use crate::buffer::{Buffer, Pod};
use crate::fault::GidTrace;
use crate::ndrange::ResolvedRange;

/// One kernel argument's binding to a buffer, for the command-stream
/// recorder (`clSetKernelArg` metadata). `name` must match the buffer name
/// in the kernel's [`cl_analyze::KernelAccessSpec`] so the recorder can
/// attach the launch footprint to the right allocation; unmatched bindings
/// fall back to whole-window conservative footprints.
#[derive(Debug, Clone)]
pub struct ArgBinding {
    /// Spec buffer name this argument is declared under.
    pub name: String,
    /// Stable allocation id ([`Buffer::id`]).
    pub buffer: u64,
    /// Element size in bytes.
    pub elem_size: usize,
    /// Byte offset of the bound window within the backing region.
    pub byte_offset: usize,
    /// Byte length of the bound window.
    pub byte_len: usize,
    /// Whether kernels may read this allocation (`!WRITE_ONLY`).
    pub readable: bool,
    /// Whether kernels may write this allocation (`!READ_ONLY`).
    pub writable: bool,
    /// Whether the allocation was host-initialized (`COPY_HOST_PTR`).
    pub preinit: bool,
}

impl ArgBinding {
    /// Capture the binding facts of one buffer argument.
    pub fn of<T: Pod>(name: &str, buf: &Buffer<T>) -> Self {
        ArgBinding {
            name: name.to_string(),
            buffer: buf.id(),
            elem_size: std::mem::size_of::<T>(),
            byte_offset: buf.byte_offset(),
            byte_len: buf.byte_len(),
            readable: buf.flags().kernel_can_read(),
            writable: buf.flags().kernel_can_write(),
            preinit: buf.flags().contains(cl_mem::MemFlags::COPY_HOST_PTR),
        }
    }
}

/// One workitem's identity within a launch (`get_global_id` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    pub(crate) global: [usize; 3],
    pub(crate) local: [usize; 3],
    pub(crate) local_size: [usize; 3],
    pub(crate) global_size: [usize; 3],
}

impl WorkItem {
    /// `get_global_id(dim)`.
    #[inline]
    pub fn global_id(&self, dim: usize) -> usize {
        self.global[dim]
    }

    /// `get_local_id(dim)`.
    #[inline]
    pub fn local_id(&self, dim: usize) -> usize {
        self.local[dim]
    }

    /// Flattened global id (x fastest).
    #[inline]
    pub fn global_linear(&self) -> usize {
        self.global[0]
            + self.global_size[0] * (self.global[1] + self.global_size[1] * self.global[2])
    }

    /// Flattened local id (x fastest).
    #[inline]
    pub fn local_linear(&self) -> usize {
        self.local[0] + self.local_size[0] * (self.local[1] + self.local_size[1] * self.local[2])
    }
}

/// Workgroup-local memory (`__local` analog), allocated per group.
pub struct LocalBuf<T: Pod> {
    data: Vec<T>,
}

impl<T: Pod + Default> LocalBuf<T> {
    fn new(len: usize) -> Self {
        LocalBuf {
            data: vec![T::default(); len],
        }
    }
}

impl<T: Pod> std::ops::Index<usize> for LocalBuf<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Pod> std::ops::IndexMut<usize> for LocalBuf<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: Pod> LocalBuf<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The whole local buffer as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole local buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// Per-group execution statistics the runtime aggregates into events.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GroupStats {
    pub(crate) barriers: u64,
    pub(crate) local_bytes: u64,
    pub(crate) items_run: u64,
    /// Elements [`GroupCtx::for_each_lane`] ran in lane steps.
    pub(crate) lane_items: u64,
}

/// A workgroup phase written once over [`Lane`]: [`GroupCtx::for_each_lane`]
/// runs it at `f32` for one element and at `VecF32<W>` for `W` adjacent
/// elements along dimension 0, so the scalar and lane lowerings are one
/// method. Implementations mark `at` `#[inline(always)]`: the walk calls it
/// from one site per width and stamp mode, and each must inline.
pub trait LaneBody {
    /// Whether a lane launch runs each row in 16-element register blocks
    /// (`VecF32<16>`) before its 4-element steps.
    const BLOCKS_OF_16: bool = false;

    /// Run elements `x .. x + L::WIDTH` of the row of `wi`, the workitem
    /// that owns element `x`.
    fn at<L: Lane>(&mut self, x: usize, wi: &WorkItem);
}

/// How a walk names its current workitem for a fault report: not at all
/// (the trace keeps the group's base gid), or stamped per step.
trait Stamp: Copy {
    fn set(self, gid: [usize; 3]);
}

impl Stamp for () {
    #[inline(always)]
    fn set(self, _gid: [usize; 3]) {}
}

impl Stamp for &GidTrace {
    #[inline(always)]
    fn set(self, gid: [usize; 3]) {
        GidTrace::set(self, gid);
    }
}

/// Where a traced group's barrier spans go: the launch's [`TraceLog`]
/// plus the identity (launch id, linear group id) to stamp on each span.
pub(crate) struct BarrierTrace<'r> {
    pub(crate) log: &'r crate::trace::TraceLog,
    pub(crate) launch: u64,
    pub(crate) group: usize,
}

/// The execution context of one workgroup.
pub struct GroupCtx<'r> {
    pub(crate) range: &'r ResolvedRange,
    pub(crate) group: [usize; 3],
    pub(crate) stats: GroupStats,
    /// Scratch cell the workitem loop stamps with the current global id so
    /// a contained panic can name the faulting item. `None` outside the
    /// fault-tolerant launch path (e.g. the dynamic validator).
    pub(crate) trace: Option<&'r GidTrace>,
    /// The launch's abort signal, when running under the contained
    /// execution engine.
    pub(crate) abort: Option<&'r AbortSignal>,
    /// Barrier-wait span sink, when the launch is traced.
    pub(crate) btrace: Option<BarrierTrace<'r>>,
    /// Whether [`GroupCtx::for_each_lane`] runs lane steps: decided once
    /// per launch from the device.
    pub(crate) lanes: bool,
}

impl<'r> GroupCtx<'r> {
    pub(crate) fn new(range: &'r ResolvedRange, group: [usize; 3]) -> Self {
        GroupCtx {
            range,
            group,
            stats: GroupStats::default(),
            trace: None,
            abort: None,
            btrace: None,
            lanes: false,
        }
    }

    pub(crate) fn with_fault(
        range: &'r ResolvedRange,
        group: [usize; 3],
        trace: &'r GidTrace,
        abort: &'r AbortSignal,
        lanes: bool,
    ) -> Self {
        GroupCtx {
            range,
            group,
            stats: GroupStats::default(),
            trace: Some(trace),
            abort: Some(abort),
            btrace: None,
            lanes,
        }
    }

    /// Cooperative cancellation: `true` once the launch has faulted (a peer
    /// panicked, or the watchdog fired) and this group should return early.
    /// Long-running kernel loops are expected to poll this, the way GPU
    /// kernels poll a preemption flag; the runtime also checks it at every
    /// chunk boundary on its own.
    #[inline]
    pub fn aborted(&self) -> bool {
        self.abort.is_some_and(|a| a.is_tripped())
    }

    /// The launch's abort signal, for parking-capable primitives such as
    /// [`cl_pool::CentralBarrier::wait_abortable`]. `None` when the group
    /// runs outside the fault-tolerant engine (e.g. under the dynamic
    /// write validator, which serializes groups).
    pub fn abort_signal(&self) -> Option<AbortSignal> {
        self.abort.cloned()
    }

    /// `get_group_id(dim)`.
    #[inline]
    pub fn group_id(&self, dim: usize) -> usize {
        self.group[dim]
    }

    /// `get_local_size(dim)`.
    #[inline]
    pub fn local_size(&self, dim: usize) -> usize {
        self.range.local[dim]
    }

    /// `get_num_groups(dim)`.
    #[inline]
    pub fn num_groups(&self, dim: usize) -> usize {
        self.range.groups[dim]
    }

    /// `get_global_size(dim)`.
    #[inline]
    pub fn global_size(&self, dim: usize) -> usize {
        self.range.global[dim]
    }

    /// Workitems in this group (flattened).
    #[inline]
    pub fn group_items(&self) -> usize {
        self.range.wg_size()
    }

    /// Run `body` once per workitem of this group, in local-id order
    /// (x fastest). One barrier *phase*.
    pub fn for_each(&mut self, mut body: impl FnMut(&WorkItem)) {
        let local = self.range.local;
        let base = [
            self.group[0] * local[0],
            self.group[1] * local[1],
            self.group[2] * local[2],
        ];
        // Decided once per phase, not per item: in coarse mode (release
        // default) the trace keeps the group's base gid and the loop pays
        // no per-item store.
        let stamp = self.trace.filter(|t| t.exact());
        let mut items = 0u64;
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                for lx in 0..local[0] {
                    let wi = WorkItem {
                        global: [base[0] + lx, base[1] + ly, base[2] + lz],
                        local: [lx, ly, lz],
                        local_size: local,
                        global_size: self.range.global,
                    };
                    if let Some(t) = stamp {
                        t.set(wi.global);
                    }
                    body(&wi);
                    items += 1;
                }
            }
        }
        self.stats.items_run += items;
    }

    /// Run `body` over this group's elements along dimension 0, one row
    /// of the group at a time: the implicit vectorizer's walk, for any
    /// group shape. Workitem `w` owns elements `[w·items_per_wi,
    /// (w+1)·items_per_wi)`, so a row's elements are one contiguous range,
    /// visited in the order its workitems' scalar loops would visit them;
    /// `bound` is the kernel's element bound (its `i < n` guard) and
    /// elements at or past it do nothing. On a lane launch the row runs
    /// `VecF32<4>` steps (after `VecF32<16>` blocks for a body that asks
    /// for them), then `f32` edge items; otherwise every element runs at
    /// `f32`. Every `VecF32` op is its `f32` op per lane, so both lowerings
    /// give bit-identical results.
    pub fn for_each_lane<B: LaneBody>(&mut self, items_per_wi: usize, bound: usize, body: &mut B) {
        // Two monomorphs instead of a per-step branch on the stamp mode:
        // with the branch, 1-D Square groups of 1 024 ran ~2.6× slower and
        // cl-bench `overhead/tune-off` read 1.6× slower.
        match self.trace.filter(|t| t.exact()) {
            Some(trace) => self.walk(items_per_wi, bound, body, trace),
            None => self.walk(items_per_wi, bound, body, ()),
        }
    }

    #[inline(always)]
    fn walk<B: LaneBody, S: Stamp>(&mut self, k: usize, bound: usize, body: &mut B, stamp: S) {
        assert!(k >= 1, "items_per_wi must be at least 1");
        let local = self.range.local;
        let base = [
            self.group[0] * local[0],
            self.group[1] * local[1],
            self.group[2] * local[2],
        ];
        // Every row covers the same x range, so its block, step and edge
        // bounds are computed once, not checked per step.
        let start = base[0] * k;
        let end = ((base[0] + local[0]) * k).min(bound).max(start);
        let (b16, b4) = if self.lanes {
            let b16 = if B::BLOCKS_OF_16 {
                end - (end - start) % 16
            } else {
                start
            };
            (b16, end - (end - b16) % 4)
        } else {
            (start, start)
        };
        let global_size = self.range.global;
        let item = |x: usize, ly: usize, lz: usize| {
            // No division per step at one element per workitem.
            let wx = if k == 1 { x } else { x / k };
            WorkItem {
                global: [wx, base[1] + ly, base[2] + lz],
                local: [wx - base[0], ly, lz],
                local_size: local,
                global_size,
            }
        };
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                let step = |x: usize| {
                    let wi = item(x, ly, lz);
                    stamp.set(wi.global);
                    wi
                };
                let mut x = start;
                while x < b16 {
                    body.at::<VecF32<16>>(x, &step(x));
                    x += 16;
                }
                while x < b4 {
                    body.at::<VecF32<4>>(x, &step(x));
                    x += 4;
                }
                // How the edge loop starts steers LLVM's code for the
                // whole walk, even where it runs no element. cl-bench
                // pairs on 2 vCPUs, each form against this one: the
                // restarted loop for every body made `simd/lanes-2d`
                // (tiled MatrixMul, 16-item rows) 1.28–1.43× slower in
                // 20 of 20 pairs; the carried loop for every body made
                // the Square entries slower (`dispatch/wg1024` 1.41×,
                // `overhead/coarsen-off` 1.94×, in one set of 10 pairs).
                if B::BLOCKS_OF_16 {
                    while x < end {
                        body.at::<f32>(x, &step(x));
                        x += 1;
                    }
                } else {
                    for x in b4..end {
                        body.at::<f32>(x, &step(x));
                    }
                }
            }
        }
        self.stats.items_run += self.range.wg_size() as u64;
        self.stats.lane_items += ((b4 - start) * local[1] * local[2]) as u64;
    }

    /// `barrier(CLK_LOCAL_MEM_FENCE)`: marks a phase boundary. All workitems
    /// of the previous [`GroupCtx::for_each`] have completed, so the barrier
    /// is satisfied by construction; the call records the synchronization
    /// for the runtime's statistics (and for the modeled devices, which
    /// charge it).
    #[inline]
    pub fn barrier(&mut self) {
        self.stats.barriers += 1;
        if let Some(bt) = &self.btrace {
            bt.log.record(crate::trace::Span::barrier(
                bt.launch,
                bt.group,
                self.stats.barriers,
            ));
        }
    }

    /// Allocate zeroed workgroup-local memory (`__local T[len]`).
    pub fn local<T: Pod + Default>(&mut self, len: usize) -> LocalBuf<T> {
        self.stats.local_bytes += (len * std::mem::size_of::<T>()) as u64;
        LocalBuf::new(len)
    }
}

/// A compiled kernel (`cl_kernel` analog). Argument binding happens at
/// construction — kernels are structs holding the buffers they operate on,
/// the moral equivalent of `clSetKernelArg` having been called.
pub trait Kernel: Send + Sync {
    /// Kernel function name.
    fn name(&self) -> &str;

    /// Workgroup body. Phases written with [`GroupCtx::for_each_lane`]
    /// run lane steps on a vectorizing device and item by item elsewhere.
    fn run_group(&self, g: &mut GroupCtx);

    /// Static characteristics for the analytic models and reports.
    fn profile(&self) -> KernelProfile {
        KernelProfile::compute(1.0)
    }

    /// Symbolic access description of this kernel at the given launch
    /// geometry, if the kernel's indexing is expressible in the affine
    /// access IR. When provided, debug builds statically check the OpenCL
    /// memory contract at enqueue time ([`cl_analyze::analyze`]): a proven
    /// violation rejects the launch, a proof lets callers skip the dynamic
    /// `validate_disjoint_writes`, and anything unprovable falls back to the
    /// dynamic path. `None` (the default) opts out of static checking.
    fn access_spec(&self, _range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        None
    }

    /// The buffer arguments this kernel was constructed with, for the
    /// command-stream recorder and the enqueue-time flag-contract check.
    /// Queried **once per enqueue** (never per workgroup chunk). The
    /// default — no bindings — opts the kernel out of flow recording.
    fn buffer_bindings(&self) -> Vec<ArgBinding> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndrange::NDRange;

    fn range_2d() -> ResolvedRange {
        NDRange::d2(8, 4).local2(4, 2).resolve(64).unwrap()
    }

    #[test]
    fn for_each_visits_group_items_in_order() {
        let r = range_2d();
        let mut g = GroupCtx::new(&r, [1, 1, 0]);
        let mut seen = Vec::new();
        g.for_each(|wi| seen.push((wi.global_id(0), wi.global_id(1), wi.local_linear())));
        assert_eq!(seen.len(), 8);
        // Group (1,1) of local (4,2) covers globals x in 4..8, y in 2..4.
        assert_eq!(seen[0], (4, 2, 0));
        assert_eq!(seen[7], (7, 3, 7));
        assert_eq!(g.stats.items_run, 8);
    }

    #[test]
    fn workitem_ids_are_consistent() {
        let r = range_2d();
        let mut g = GroupCtx::new(&r, [0, 0, 0]);
        g.for_each(|wi| {
            assert_eq!(wi.global_id(0), wi.local_id(0));
            assert_eq!(wi.global_id(1), wi.local_id(1));
            let lin = wi.global_linear();
            assert_eq!(lin, wi.global_id(0) + 8 * wi.global_id(1));
        });
    }

    /// One call of a walk: `(width, x, gid, local_linear)`.
    type Call = (usize, usize, [usize; 3], usize);

    /// Records each call of a walk.
    #[derive(Default)]
    struct Record<const BLOCKS: bool>(Vec<Call>);

    impl<const BLOCKS: bool> LaneBody for Record<BLOCKS> {
        const BLOCKS_OF_16: bool = BLOCKS;
        fn at<L: Lane>(&mut self, x: usize, wi: &WorkItem) {
            let gid = [wi.global_id(0), wi.global_id(1), wi.global_id(2)];
            self.0.push((L::WIDTH, x, gid, wi.local_linear()));
        }
    }

    /// Walk group `group` of `r` with lanes on or off and return the calls.
    fn walk(
        r: &ResolvedRange,
        group: [usize; 3],
        lanes: bool,
        k: usize,
        bound: usize,
    ) -> (Vec<Call>, GroupStats) {
        let mut g = GroupCtx::new(r, group);
        g.lanes = lanes;
        let mut rec = Record::<false>::default();
        g.for_each_lane(k, bound, &mut rec);
        (rec.0, g.stats)
    }

    #[test]
    fn simd_path_covers_all_items_with_tail() {
        let r = NDRange::d1(30).local1(10).resolve(64).unwrap();
        let (calls, stats) = walk(&r, [2, 0, 0], true, 1, 30);
        let shape: Vec<_> = calls.iter().map(|c| (c.0, c.1)).collect();
        assert_eq!(shape, vec![(4, 20), (4, 24), (1, 28), (1, 29)]);
        assert_eq!(calls[1].2, [24, 0, 0]);
        assert_eq!(stats.items_run, 10);
        assert_eq!(stats.lane_items, 8);
        // The same group with lanes off: every element at f32, in order.
        let (calls, stats) = walk(&r, [2, 0, 0], false, 1, 30);
        let shape: Vec<_> = calls.iter().map(|c| (c.0, c.1)).collect();
        assert_eq!(shape, (20..30).map(|x| (1, x)).collect::<Vec<_>>());
        assert_eq!((stats.items_run, stats.lane_items), (10, 0));
    }

    #[test]
    fn simd_path_walks_every_row_of_a_2d_group() {
        let r = NDRange::d2(12, 8).local2(6, 4).resolve(64).unwrap();
        let (calls, stats) = walk(&r, [1, 1, 0], true, 1, 12);
        // Group (1,1) covers x in 6..12, y in 4..8: per row, one step at
        // x = 6 and the edge items 10, 11.
        let steps: Vec<_> = calls
            .iter()
            .filter(|c| c.0 == 4)
            .map(|c| (c.2, c.3))
            .collect();
        assert_eq!(
            steps,
            vec![
                ([6, 4, 0], 0),
                ([6, 5, 0], 6),
                ([6, 6, 0], 12),
                ([6, 7, 0], 18)
            ]
        );
        let edges: Vec<_> = calls.iter().filter(|c| c.0 == 1).map(|c| c.2).collect();
        assert_eq!(edges.len(), 8);
        assert_eq!(&edges[..2], &[[10, 4, 0], [11, 4, 0]]);
        assert_eq!(edges[7], [11, 7, 0]);
        assert_eq!((stats.items_run, stats.lane_items), (24, 16));
    }

    #[test]
    fn a_step_crossing_the_bound_runs_item_by_item() {
        // Global 32 padded past a bound of 26, groups of 16: group 1 runs
        // two steps (16, 20), edge items 24 and 25, and nothing past 26.
        let r = NDRange::d2(32, 2).local2(16, 2).resolve(64).unwrap();
        let (calls, stats) = walk(&r, [1, 0, 0], true, 1, 26);
        let shape: Vec<_> = calls.iter().map(|c| (c.0, c.2[0], c.2[1])).collect();
        let row = |y| [(4, 16, y), (4, 20, y), (1, 24, y), (1, 25, y)];
        assert_eq!(shape, [row(0), row(1)].concat());
        assert_eq!((stats.items_run, stats.lane_items), (32, 16));
        // A group wholly past the bound runs nothing.
        let (calls, stats) = walk(&r, [1, 0, 0], true, 1, 10);
        assert!(calls.is_empty());
        assert_eq!((stats.items_run, stats.lane_items), (32, 0));
    }

    #[test]
    fn coalesced_workitems_step_along_their_elements() {
        // Three elements per workitem, groups of 4: group 1 owns elements
        // 12..24, clipped to 22. Steps at 12 and 16 (workitems 4 and 5),
        // then edge items 20 and 21 (workitem 6, local id 2).
        let r = NDRange::d1(8).local1(4).resolve(64).unwrap();
        let (calls, stats) = walk(&r, [1, 0, 0], true, 3, 22);
        let shape: Vec<_> = calls.iter().map(|c| (c.0, c.1, c.2[0], c.3)).collect();
        assert_eq!(
            shape,
            vec![(4, 12, 4, 0), (4, 16, 5, 1), (1, 20, 6, 2), (1, 21, 7, 3)]
        );
        assert_eq!((stats.items_run, stats.lane_items), (4, 8));
        let (calls, _) = walk(&r, [1, 0, 0], false, 3, 22);
        let xs: Vec<_> = calls.iter().map(|c| (c.0, c.1)).collect();
        assert_eq!(xs, (12..22).map(|x| (1, x)).collect::<Vec<_>>());
    }

    #[test]
    fn register_blocks_come_before_steps() {
        // 23 elements: one 16-block, one step, three edge items.
        let r = NDRange::d1(23).local1(23).resolve(64).unwrap();
        let mut g = GroupCtx::new(&r, [0, 0, 0]);
        g.lanes = true;
        let mut rec = Record::<true>::default();
        g.for_each_lane(1, 23, &mut rec);
        let shape: Vec<_> = rec.0.iter().map(|c| (c.0, c.1)).collect();
        assert_eq!(shape, vec![(16, 0), (4, 16), (1, 20), (1, 21), (1, 22)]);
        assert_eq!(g.stats.lane_items, 20);
    }

    #[test]
    fn barrier_and_local_are_recorded() {
        let r = range_2d();
        let mut g = GroupCtx::new(&r, [0, 0, 0]);
        let mut tile: LocalBuf<f32> = g.local(64);
        tile[3] = 7.0;
        assert_eq!(tile[3], 7.0);
        assert_eq!(tile.len(), 64);
        g.barrier();
        g.barrier();
        assert_eq!(g.stats.barriers, 2);
        assert_eq!(g.stats.local_bytes, 256);
    }

    #[test]
    fn geometry_accessors() {
        let r = range_2d();
        let g = GroupCtx::new(&r, [1, 0, 0]);
        assert_eq!(g.local_size(0), 4);
        assert_eq!(g.num_groups(0), 2);
        assert_eq!(g.num_groups(1), 2);
        assert_eq!(g.global_size(1), 4);
        assert_eq!(g.group_items(), 8);
        assert_eq!(g.group_id(0), 1);
    }
}
