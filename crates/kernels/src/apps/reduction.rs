//! `Reduction`: workgroup tree sum in local memory (Table II: global sizes
//! 640 000 … 10 240 000, local 256). Each group writes one partial sum; the
//! host (or a second launch) folds the partials.

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags, NDRange,
    ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::random_f32;

/// The `reduce` kernel: local-memory tree reduction with barriers.
pub struct Reduction {
    pub input: Buffer<f32>,
    pub partials: Buffer<f32>,
    pub n: usize,
}

/// `scratch[i - base] = input[i]` on the `L::WIDTH` items from `i`.
struct Load<'a>(BufView<'a, f32>, &'a mut [f32], usize);

impl LaneBody for Load<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        self.0.load::<L>(i).store(self.1, i - self.2);
    }
}

/// `scratch[l] += scratch[l + span]` on the `L::WIDTH` items from
/// `l = i - base`; `l + L::WIDTH <= span`, so a step reads no lane it
/// writes.
struct Fold<'a>(&'a mut [f32], usize, usize);

impl LaneBody for Fold<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let (l, span) = (i - self.1, self.2);
        let v = L::load(self.0, l) + L::load(self.0, l + span);
        v.store(self.0, l);
    }
}

impl Kernel for Reduction {
    fn name(&self) -> &str {
        "reduce"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let wg = g.local_size(0);
        let base = g.group_id(0) * wg;
        let partials = self.partials.view_mut();
        let mut scratch = g.local::<f32>(wg);

        // Phase 1: one element per workitem; the zeroed scratch holds the
        // items past `n`.
        let mut load = Load(self.input.view(), scratch.as_mut_slice(), base);
        g.for_each_lane(1, self.n, &mut load);
        g.barrier();

        // Phase 2: binary tree, halving the active span each step (the
        // classic pattern requires a power-of-two group size, as the SDK
        // sample does). Items `l < span` are elementwise, so each step is a
        // walk bounded at the group's base + span.
        assert!(
            wg.is_power_of_two(),
            "reduce requires a power-of-two workgroup"
        );
        let mut span = wg / 2;
        while span > 0 {
            let mut fold = Fold(scratch.as_mut_slice(), base, span);
            g.for_each_lane(1, base + span, &mut fold);
            g.barrier();
            span /= 2;
        }

        g.for_each(|wi| {
            if wi.local_id(0) == 0 {
                partials.set(g_index(wi, wg), scratch[0]);
            }
        });
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile {
            flops: 1.0,
            mem_bytes: 4.0,
            chain_ops: 1.0,
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 256.0 * 4.0,
            dependent_loads: 1.0,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        crate::access::reduction(self.n, self.partials.len(), range.lint_geometry())
    }
}

fn g_index(wi: &ocl_rt::WorkItem, wg: usize) -> usize {
    wi.global_id(0) / wg
}

/// Serial reference (f64 accumulation for a stable oracle).
pub fn reference(input: &[f32]) -> f64 {
    input.iter().map(|&x| x as f64).sum()
}

/// OpenMP port: `reduction(+:sum)`.
pub fn openmp(team: &Team, input: &[f32], sched: Schedule) -> f64 {
    team.parallel_sum(0..input.len(), sched, |i| input[i] as f64)
}

/// Build the kernel; `wg` is the workgroup size (Table II default 256).
pub fn build(ctx: &Context, n: usize, wg: usize, seed: u64) -> Built {
    let padded = n.div_ceil(wg) * wg;
    let host = random_f32(seed, n, -1.0, 1.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &host).unwrap();
    let n_groups = padded / wg;
    let partials = ctx.buffer::<f32>(MemFlags::default(), n_groups).unwrap();
    let kernel = Arc::new(Reduction {
        input,
        partials: partials.clone(),
        n,
    });
    let range = NDRange::d1(padded).local1(wg);
    let want = reference(&host);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n_groups];
        q.read_buffer(&partials, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let total: f64 = got.iter().map(|&x| x as f64).sum();
        let tol = 1e-4 * (want.abs() + 1.0);
        if (total - want).abs() < tol.max(1e-2) {
            Ok(())
        } else {
            Err(format!("reduce: got {total}, want {want}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_rt::Device;

    fn ctx() -> Context {
        Context::new(Device::native_cpu(2).unwrap())
    }

    #[test]
    fn sums_match_reference_for_pow2_groups() {
        let ctx = ctx();
        let q = ctx.queue();
        for wg in [1, 2, 64, 256] {
            let b = build(&ctx, 10_000, wg, 21);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn handles_non_multiple_sizes_via_padding() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build(&ctx, 10_007, 256, 3);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(4).unwrap();
        let data = random_f32(9, 100_000, -1.0, 1.0);
        let got = openmp(&team, &data, Schedule::Dynamic { chunk: 1024 });
        let want = reference(&data);
        assert!((got - want).abs() < 1e-6 * data.len() as f64);
    }

    #[test]
    fn barriers_scale_with_tree_depth() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build(&ctx, 1024, 256, 1);
        let ev = q.enqueue_kernel(&b.kernel, b.range).unwrap();
        // 4 groups × (1 load barrier + 8 tree steps).
        assert_eq!(ev.barriers, 4 * 9);
    }
}
