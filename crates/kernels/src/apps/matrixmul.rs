//! `Matrixmul` (tiled, using `__local` memory and barriers — the NVIDIA SDK
//! sample shape) and `MatrixmulNaive` (Table II: 2-D globals 800×1600 …
//! 4000×8000, local 16×16).
//!
//! The tiled version is the paper's example of a kernel whose optimal
//! workgroup size differs between CPU and GPU because the tile size sets
//! the local-memory (GPU) / cache (CPU) footprint (Section III-B.2).

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// Tiled matrix multiply: `C(h×w) = A(h×k) · B(k×w)`. Requires square
/// workgroups whose side divides `k`.
pub struct MatrixMul {
    pub a: Buffer<f32>,
    pub b: Buffer<f32>,
    pub c: Buffer<f32>,
    pub w: usize,
    pub h: usize,
    pub k: usize,
}

/// Copy one tile of A (rows from `a0`, stride `k`) and of B (rows from
/// `b0`, stride `w`) into the local tiles. The group's columns start at
/// `col0`.
struct Load<'a> {
    a: BufView<'a, f32>,
    b: BufView<'a, f32>,
    a_tile: &'a mut [f32],
    b_tile: &'a mut [f32],
    t: usize,
    k: usize,
    w: usize,
    a0: usize,
    b0: usize,
    col0: usize,
}

impl LaneBody for Load<'_> {
    const BLOCKS_OF_16: bool = true;
    #[inline(always)]
    fn at<L: Lane>(&mut self, x: usize, wi: &WorkItem) {
        let (lx, ly) = (x - self.col0, wi.local_id(1));
        let i = ly * self.t + lx;
        let a = self.a.load::<L>(self.a0 + ly * self.k + lx);
        a.store(self.a_tile, i);
        let b = self.b.load::<L>(self.b0 + ly * self.w + lx);
        b.store(self.b_tile, i);
    }
}

/// Add one tile pair's products to the accumulators, in `e` order. A
/// 16-item register block keeps four SSE accumulators in registers per
/// splat of the A-tile element its items share.
struct Multiply<'a> {
    a_tile: &'a [f32],
    b_tile: &'a [f32],
    acc: &'a mut [f32],
    t: usize,
    col0: usize,
}

impl LaneBody for Multiply<'_> {
    const BLOCKS_OF_16: bool = true;
    #[inline(always)]
    fn at<L: Lane>(&mut self, x: usize, wi: &WorkItem) {
        let (t, lx, row) = (self.t, x - self.col0, wi.local_id(1) * self.t);
        let mut s = L::load(self.acc, row + lx);
        for e in 0..t {
            s = s + L::splat(self.a_tile[row + e]) * L::load(self.b_tile, e * t + lx);
        }
        s.store(self.acc, row + lx);
    }
}

impl Kernel for MatrixMul {
    fn name(&self) -> &str {
        "matrixMul"
    }

    /// Per tile, copy the A and B tiles, barrier, add the tile pair's
    /// products to the per-item accumulators (indexed `ly·t + lx`),
    /// barrier; then store. On a lane launch both tile phases walk each
    /// tile row in 16-item register blocks, then lane steps, then single
    /// items.
    fn run_group(&self, g: &mut GroupCtx) {
        let t = g.local_size(0);
        assert_eq!(
            g.local_size(1),
            t,
            "tiled matrixMul requires square workgroups"
        );
        assert_eq!(self.k % t, 0, "tile side must divide the inner dimension");
        let (w, k) = (self.w, self.k);
        // The group's first row of A and C, and first column of B and C.
        let (row0, col0) = (g.group_id(1) * t, g.group_id(0) * t);

        let mut a_tile = g.local::<f32>(t * t);
        let mut b_tile = g.local::<f32>(t * t);
        // Workitem-private accumulators that survive across barrier phases:
        // the loop-fission lowering keeps them in a per-group array indexed
        // by local id (Stratton et al.'s "thread-private" expansion).
        let mut acc = vec![0.0f32; t * t];
        let bound = g.global_size(0);

        for tile in 0..k / t {
            let mut load = Load {
                a: self.a.view(),
                b: self.b.view(),
                a_tile: a_tile.as_mut_slice(),
                b_tile: b_tile.as_mut_slice(),
                t,
                k,
                w,
                a0: row0 * k + tile * t,
                b0: tile * t * w + col0,
                col0,
            };
            g.for_each_lane(1, bound, &mut load);
            g.barrier();
            let mut multiply = Multiply {
                a_tile: a_tile.as_slice(),
                b_tile: b_tile.as_slice(),
                acc: &mut acc,
                t,
                col0,
            };
            g.for_each_lane(1, bound, &mut multiply);
            g.barrier();
        }
        let c = self.c.view_mut();
        g.for_each(|wi| {
            let (lx, ly) = (wi.local_id(0), wi.local_id(1));
            c.set((row0 + ly) * w + col0 + lx, acc[ly * t + lx]);
        });
    }

    fn profile(&self) -> KernelProfile {
        let k = self.k as f64;
        // 2k flops per element; tiling reduces global traffic by the tile
        // side (use the Table II default of 16 for the static profile).
        KernelProfile {
            flops: 2.0 * k,
            mem_bytes: 2.0 * k * 4.0 / 16.0,
            chain_ops: k, // multiply-add chain through the accumulator
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 2.0 * 16.0 * 16.0 * 4.0,
            dependent_loads: 2.0 * k / 16.0,
            // B-tile column walk: stride 4·16 = one full line per element.
            local_traffic_bytes: k * (64.0 + 4.0),
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        crate::access::matrixmul_tiled(self.w, self.h, self.k, range.lint_geometry())
    }
}

/// Naive matrix multiply: every workitem walks a full row/column pair in
/// global memory.
pub struct MatrixMulNaive {
    pub a: Buffer<f32>,
    pub b: Buffer<f32>,
    pub c: Buffer<f32>,
    pub w: usize,
    pub h: usize,
    pub k: usize,
}

/// `C = A·B` at the `L::WIDTH` columns from `col` of the workitem's row:
/// x-adjacent items share one splat of A and read adjacent B columns.
struct NaiveBody<'a> {
    a: BufView<'a, f32>,
    b: BufView<'a, f32>,
    c: BufViewMut<'a, f32>,
    w: usize,
    k: usize,
}

impl LaneBody for NaiveBody<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, col: usize, wi: &WorkItem) {
        let (row, w, k) = (wi.global_id(1), self.w, self.k);
        let mut s = L::splat(0.0);
        for e in 0..k {
            s = s + L::splat(self.a.get(row * k + e)) * self.b.load::<L>(e * w + col);
        }
        self.c.store(row * w + col, s);
    }
}

impl Kernel for MatrixMulNaive {
    fn name(&self) -> &str {
        "matrixMul(naive)"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let mut body = NaiveBody {
            a: self.a.view(),
            b: self.b.view(),
            c: self.c.view_mut(),
            w: self.w,
            k: self.k,
        };
        g.for_each_lane(1, self.w, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        let k = self.k as f64;
        KernelProfile {
            flops: 2.0 * k,
            mem_bytes: 2.0 * k * 4.0,
            chain_ops: k,
            ilp: 1.0,
            vectorizable: true,
            // Adjacent lanes read adjacent B columns (coalesced on a GPU),
            // but one item's own B walk strides by the row length (bad for
            // a CPU thread's cache).
            coalesced_access: true,
            item_contiguous: false,
            local_mem_per_group: 0.0,
            dependent_loads: 2.0 * k,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::matrixmul_naive(
            self.w,
            self.h,
            self.k,
            range.lint_geometry(),
        ))
    }
}

/// Serial reference.
pub fn reference(a: &[f32], b: &[f32], w: usize, h: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; w * h];
    for row in 0..h {
        for col in 0..w {
            let mut s = 0.0f32;
            for e in 0..k {
                s += a[row * k + e] * b[e * w + col];
            }
            c[row * w + col] = s;
        }
    }
    c
}

/// OpenMP port: rows parallel, inner loops serial (the conventional port).
pub fn openmp(team: &Team, a: &[f32], b: &[f32], c: &mut [f32], w: usize, k: usize) {
    let rows: Vec<(usize, &mut [f32])> = c.chunks_mut(w).enumerate().collect();
    let mut rows = rows;
    team.parallel_for_mut(&mut rows, Schedule::default(), |_, (row, crow)| {
        for col in 0..w {
            let mut s = 0.0f32;
            for e in 0..k {
                s += a[*row * k + e] * b[e * w + col];
            }
            crow[col] = s;
        }
    });
}

fn build_common(
    ctx: &Context,
    w: usize,
    h: usize,
    k: usize,
    seed: u64,
) -> (Buffer<f32>, Buffer<f32>, Buffer<f32>, Vec<f32>) {
    let ha = random_f32(seed, h * k, -1.0, 1.0);
    let hb = random_f32(seed ^ 0x5555, k * w, -1.0, 1.0);
    let a = ctx.buffer_from(MemFlags::READ_ONLY, &ha).unwrap();
    let b = ctx.buffer_from(MemFlags::READ_ONLY, &hb).unwrap();
    let c = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, w * h).unwrap();
    let want = reference(&ha, &hb, w, h, k);
    (a, b, c, want)
}

fn checker(
    c: Buffer<f32>,
    want: Vec<f32>,
    label: &'static str,
) -> impl Fn(&ocl_rt::CommandQueue) -> Result<(), String> + Send + Sync {
    move |q| {
        let mut got = vec![0.0f32; want.len()];
        q.read_buffer(&c, 0, &mut got).map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-3);
        if err < 5e-3 {
            Ok(())
        } else {
            Err(format!("{label}: max rel error {err}"))
        }
    }
}

/// Build the tiled kernel. `local` is the square tile side (Table V:
/// 1, 2, 4, 8, 16); it must divide `w`, `h` and `k`.
pub fn build_tiled(ctx: &Context, w: usize, h: usize, k: usize, tile: usize, seed: u64) -> Built {
    let (a, b, c, want) = build_common(ctx, w, h, k, seed);
    let kernel = Arc::new(MatrixMul {
        a,
        b,
        c: c.clone(),
        w,
        h,
        k,
    });
    let range = NDRange::d2(w, h).local2(tile, tile);
    Built::new(kernel, range, checker(c, want, "matrixMul"))
}

/// Build the naive kernel. `local` is any 2-D workgroup shape dividing the
/// global shape, or `None` for NULL.
pub fn build_naive(
    ctx: &Context,
    w: usize,
    h: usize,
    k: usize,
    local: Option<(usize, usize)>,
    seed: u64,
) -> Built {
    let (a, b, c, want) = build_common(ctx, w, h, k, seed);
    let kernel = Arc::new(MatrixMulNaive {
        a,
        b,
        c: c.clone(),
        w,
        h,
        k,
    });
    let mut range = NDRange::d2(w, h);
    if let Some((lx, ly)) = local {
        range = range.local2(lx, ly);
    }
    Built::new(kernel, range, checker(c, want, "matrixMul(naive)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_rt::Device;

    fn ctx() -> Context {
        Context::new(Device::native_cpu(3).unwrap())
    }

    #[test]
    fn tiled_matches_reference_for_every_paper_tile() {
        let ctx = ctx();
        let q = ctx.queue();
        // Table V workgroup cases: 1×1 … 16×16 (side must divide k).
        for tile in [1, 2, 4, 8, 16] {
            let b = build_tiled(&ctx, 32, 48, 32, tile, 11);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn tile_rows_walk_in_register_blocks_then_lane_steps() {
        // A tile row of t items runs t − t % 4 of them in lanes: 4, 6 and
        // 12 in steps only (6 with two single items), 16 as one block, 22
        // as a block, a step and two single items, 32 as two blocks. Each
        // of the t rows counts in both phases of both tiles of all 4
        // groups.
        let ctx = ctx();
        let q = ctx.queue();
        for t in [4, 6, 12, 16, 22, 32] {
            let b = build_tiled(&ctx, 2 * t, 2 * t, 2 * t, t, 5);
            let ev = q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap_or_else(|e| panic!("t = {t}: {e}"));
            assert_eq!(
                ev.lane_items as usize,
                (t - t % 4) * t * 2 * 2 * 4,
                "t = {t}"
            );
        }
    }

    #[test]
    fn naive_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        for local in [None, Some((1, 1)), Some((4, 4)), Some((16, 16))] {
            let b = build_naive(&ctx, 32, 32, 24, local, 13);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn tiled_and_naive_agree() {
        let ctx = ctx();
        let q = ctx.queue();
        let bt = build_tiled(&ctx, 16, 16, 16, 4, 99);
        let bn = build_naive(&ctx, 16, 16, 16, Some((2, 2)), 99);
        q.enqueue_kernel(&bt.kernel, bt.range).unwrap();
        q.enqueue_kernel(&bn.kernel, bn.range).unwrap();
        bt.verify(&q).unwrap();
        bn.verify(&q).unwrap();
    }

    #[test]
    fn tiled_uses_local_memory_and_barriers() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build_tiled(&ctx, 16, 16, 16, 4, 1);
        let ev = q.enqueue_kernel(&b.kernel, b.range).unwrap();
        // k/t = 4 tiles → 2 barriers per tile per group, 16 groups.
        assert_eq!(ev.barriers, 16 * 8);
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(2).unwrap();
        let a = random_f32(1, 12 * 8, -1.0, 1.0);
        let b = random_f32(2, 8 * 10, -1.0, 1.0);
        let mut c = vec![0.0f32; 12 * 10];
        openmp(&team, &a, &b, &mut c, 10, 8);
        let want = reference(&a, &b, 10, 12, 8);
        crate::util::assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn non_square_tile_is_contained_as_kernel_panic() {
        // The kernel-side assert no longer unwinds out of the enqueue: the
        // fault-tolerant engine contains it and reports `KernelPanicked`.
        let ctx = ctx();
        let q = ctx.queue();
        let (a, b, c, _want) = build_common(&ctx, 16, 16, 16, 1);
        let kernel = Arc::new(MatrixMul {
            a,
            b,
            c,
            w: 16,
            h: 16,
            k: 16,
        });
        let k: Arc<dyn Kernel> = kernel;
        let err = q
            .enqueue_kernel(&k, NDRange::d2(16, 16).local2(4, 2))
            .unwrap_err();
        match err {
            ocl_rt::ClError::KernelPanicked {
                kernel, message, ..
            } => {
                assert_eq!(kernel, "matrixMul");
                assert!(message.contains("square workgroups"), "{message}");
            }
            other => panic!("expected KernelPanicked, got {other:?}"),
        }
    }
}
