//! The kernel programming model: workgroup bodies, workitems, barriers,
//! local memory.
//!
//! A CPU OpenCL implementation cannot afford one thread per workitem, so it
//! serializes the workitems of a group into loops, splitting the kernel at
//! barriers ("loop fission" / workitem coalescing — Stratton et al., SnuCL).
//! This runtime exposes that lowered form directly: a kernel implements
//! [`Kernel::run_group`], iterating workitems with [`GroupCtx::for_each`]
//! and marking barrier phase boundaries with [`GroupCtx::barrier`]. Because
//! `for_each` completes all workitems of the phase before returning, barrier
//! semantics hold by construction.

use cl_pool::AbortSignal;
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
        }
    }

    pub(crate) fn with_fault(
        range: &'r ResolvedRange,
        group: [usize; 3],
        trace: &'r GidTrace,
        abort: &'r AbortSignal,
    ) -> Self {
        GroupCtx {
            range,
            group,
            stats: GroupStats::default(),
            trace: Some(trace),
            abort: Some(abort),
            btrace: None,
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

    /// Run `body` once per *step* of `width` x-adjacent workitems — the
    /// shape the implicit vectorizer produces, for any group shape. Each
    /// `(ly, lz)` row of the group runs its steps along dimension 0; `body`
    /// receives the first item of each step, and the row's last
    /// `local[0] % width` items run `tail` one at a time.
    pub fn for_each_simd(
        &mut self,
        width: usize,
        mut body: impl FnMut(&WorkItem),
        mut tail: impl FnMut(&WorkItem),
    ) {
        assert!(width >= 1);
        let local = self.range.local;
        let base = [
            self.group[0] * local[0],
            self.group[1] * local[1],
            self.group[2] * local[2],
        ];
        let item = |lx: usize, ly: usize, lz: usize| WorkItem {
            global: [base[0] + lx, base[1] + ly, base[2] + lz],
            local: [lx, ly, lz],
            local_size: local,
            global_size: self.range.global,
        };
        let main = local[0] - local[0] % width;
        let stamp = self.trace.filter(|t| t.exact());
        for lz in 0..local[2] {
            for ly in 0..local[1] {
                let mut lx = 0;
                while lx < main {
                    let wi = item(lx, ly, lz);
                    if let Some(t) = stamp {
                        t.set(wi.global);
                    }
                    body(&wi);
                    lx += width;
                }
                // Restart from `main` rather than carry the step loop's
                // counter out: the step loop then keeps one induction
                // variable and compiles to the tight 1-D loop.
                for lx in main..local[0] {
                    let wi = item(lx, ly, lz);
                    if let Some(t) = stamp {
                        t.set(wi.global);
                    }
                    tail(&wi);
                }
            }
        }
        self.stats.items_run += self.range.wg_size() as u64;
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

    /// Scalar workgroup body.
    fn run_group(&self, g: &mut GroupCtx);

    /// Optional SIMD workgroup body, processing `width` workitems per lane
    /// step (the Intel-style implicit vectorization; see
    /// [`GroupCtx::for_each_simd`]). The runtime offers every launch on a
    /// vectorizing device, whatever its group shape. Returns `false` if the
    /// kernel has no SIMD form for `width` or for the group's shape, in
    /// which case the runtime falls back to [`Kernel::run_group`].
    fn run_group_simd(&self, _g: &mut GroupCtx, _width: usize) -> bool {
        false
    }

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

    #[test]
    fn simd_path_covers_all_items_with_tail() {
        let r = NDRange::d1(30).local1(10).resolve(64).unwrap();
        let mut g = GroupCtx::new(&r, [2, 0, 0]);
        let mut vec_starts = Vec::new();
        let mut tail_ids = Vec::new();
        g.for_each_simd(
            4,
            |wi| vec_starts.push(wi.global_id(0)),
            |wi| tail_ids.push(wi.global_id(0)),
        );
        assert_eq!(vec_starts, vec![20, 24]);
        assert_eq!(tail_ids, vec![28, 29]);
        assert_eq!(g.stats.items_run, 10);
    }

    #[test]
    fn simd_path_walks_every_row_of_a_2d_group() {
        let r = NDRange::d2(12, 8).local2(6, 4).resolve(64).unwrap();
        let mut g = GroupCtx::new(&r, [1, 1, 0]);
        let mut steps = Vec::new();
        let mut tails = Vec::new();
        g.for_each_simd(
            4,
            |wi| steps.push((wi.global_id(0), wi.global_id(1), wi.local_linear())),
            |wi| tails.push((wi.global_id(0), wi.global_id(1))),
        );
        // Group (1,1) covers x in 6..12, y in 4..8: per row, one step at
        // x = 6 and the tail items 10, 11.
        assert_eq!(steps, vec![(6, 4, 0), (6, 5, 6), (6, 6, 12), (6, 7, 18)]);
        assert_eq!(tails.len(), 8);
        assert_eq!(&tails[..2], &[(10, 4), (11, 4)]);
        assert_eq!(tails[7], (11, 7));
        assert_eq!(g.stats.items_run, 24);
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
