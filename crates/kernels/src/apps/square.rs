//! `Square`: `out[i] = in[i]²` — the paper's minimal streaming kernel
//! (Table II: global sizes 10⁴ … 10⁷, local NULL).

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// The `square` kernel with optional workitem coalescing: each workitem
/// squares `items_per_wi` consecutive elements (the Figure 1 experiment).
pub struct Square {
    pub input: Buffer<f32>,
    pub output: Buffer<f32>,
    pub n: usize,
    pub items_per_wi: usize,
}

impl Square {
    /// `output[i] = input[i]²` over the whole input, one item per workitem.
    pub fn elementwise(input: &Buffer<f32>, output: &Buffer<f32>) -> Square {
        Square {
            input: input.clone(),
            output: output.clone(),
            n: input.len(),
            items_per_wi: 1,
        }
    }
}

/// `out = in²` on the `L::WIDTH` elements from `i`.
struct Body<'a>(BufView<'a, f32>, BufViewMut<'a, f32>);

impl LaneBody for Body<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let x: L = self.0.load(i);
        self.1.store(i, x * x);
    }
}

impl Kernel for Square {
    fn name(&self) -> &str {
        "square"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let mut body = Body(self.input.view(), self.output.view_mut());
        g.for_each_lane(self.items_per_wi, self.n, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        // One multiply, one 4B load + 4B store per element.
        KernelProfile::streaming(1.0, 8.0).coalesced(self.items_per_wi)
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::square(
            self.n,
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }

    fn buffer_bindings(&self) -> Vec<ocl_rt::ArgBinding> {
        // Names match the spec buffers so `cl-flow` can scale the static
        // footprint onto these allocations.
        vec![
            ocl_rt::ArgBinding::of("in", &self.input),
            ocl_rt::ArgBinding::of("out", &self.output),
        ]
    }
}

/// Serial reference.
pub fn reference(input: &[f32]) -> Vec<f32> {
    input.iter().map(|&x| x * x).collect()
}

/// OpenMP port: `#pragma omp parallel for` over elements.
pub fn openmp(team: &Team, input: &[f32], output: &mut [f32], sched: Schedule) {
    team.parallel_for_mut(output, sched, |i, o| {
        let x = input[i];
        *o = x * x;
    });
}

/// Build the kernel with seeded input. `local: None` reproduces the NULL
/// `local_work_size` configuration of Table II.
pub fn build(
    ctx: &Context,
    n: usize,
    items_per_wi: usize,
    local: Option<usize>,
    seed: u64,
) -> Built {
    assert!(
        items_per_wi >= 1 && n.is_multiple_of(items_per_wi),
        "coalescing must divide n"
    );
    let host_in = random_f32(seed, n, -2.0, 2.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &host_in).unwrap();
    let output = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let kernel = Arc::new(Square {
        input,
        output: output.clone(),
        n,
        items_per_wi,
    });
    let mut range = NDRange::d1(n / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let want = reference(&host_in);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n];
        q.read_buffer(&output, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-5);
        if err < 1e-5 {
            Ok(())
        } else {
            Err(format!("square: max rel error {err}"))
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
    fn matches_reference_scalar_and_simd() {
        let ctx = ctx();
        let q = ctx.queue();
        // 1000 with NULL local exercises both SIMD main body and tails.
        let b = build(&ctx, 1000, 1, None, 42);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn coalesced_variants_match_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        for k in [1, 10, 100] {
            let b = build(&ctx, 10_000, k, Some(10), 7);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn explicit_workgroup_sizes_match_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        for wg in [1, 10, 100, 1000] {
            let b = build(&ctx, 10_000, 1, Some(wg), 3);
            let ev = q.enqueue_kernel(&b.kernel, b.range).unwrap();
            assert_eq!(ev.groups as usize, 10_000 / wg);
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn openmp_port_matches_reference() {
        let team = Team::new(3).unwrap();
        let input = random_f32(1, 4097, -1.0, 1.0);
        let mut out = vec![0.0f32; 4097];
        openmp(&team, &input, &mut out, Schedule::default());
        assert_eq!(out, reference(&input));
    }

    #[test]
    fn profile_scales_with_coalescing() {
        let ctx = ctx();
        let b = build(&ctx, 1000, 10, None, 1);
        assert_eq!(b.kernel.profile().flops, 10.0);
        assert_eq!(b.kernel.profile().mem_bytes, 80.0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_coalescing_panics() {
        let ctx = ctx();
        let _ = build(&ctx, 1000, 3, None, 1);
    }
}
