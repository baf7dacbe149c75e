//! The ILP microbenchmark family of Section III-C / Figure 6.
//!
//! Every variant performs the **same** number of FP operations, memory
//! accesses and loop iterations; the only difference is how many
//! *independent* multiply-add chains the operations are divided into
//! (`ilp = 1..=4`). On an out-of-order CPU, more chains → more instructions
//! in flight → higher throughput. On a GPU at full occupancy, warp-level
//! TLP already hides ALU latency, so throughput is flat in `ilp`.

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, WorkItem,
};

use crate::apps::Built;
use crate::util::random_f32;

/// Maximum supported independent-chain count.
pub const MAX_ILP: usize = 4;

/// The ILP kernel: per workitem, `iters` rounds over `ilp` independent FMA
/// chains (total flops identical across `ilp` values: `iters × MAX_ILP × 2`).
pub struct IlpKernel {
    pub input: Buffer<f32>,
    pub output: Buffer<f32>,
    pub ilp: usize,
    pub iters: usize,
}

/// One round of chain updates. `ops_per_round = MAX_ILP` regardless of
/// `ilp`: with fewer chains, each chain receives proportionally more
/// (dependent) updates, keeping total work constant.
#[inline(always)]
fn round<T: Lane>(acc: &mut [T; MAX_ILP], ilp: usize, a: T, b: T) {
    match ilp {
        1 => {
            // 4 dependent updates on one chain.
            acc[0] = acc[0] * a + b;
            acc[0] = acc[0] * a + b;
            acc[0] = acc[0] * a + b;
            acc[0] = acc[0] * a + b;
        }
        2 => {
            acc[0] = acc[0] * a + b;
            acc[1] = acc[1] * a + b;
            acc[0] = acc[0] * a + b;
            acc[1] = acc[1] * a + b;
        }
        3 => {
            acc[0] = acc[0] * a + b;
            acc[1] = acc[1] * a + b;
            acc[2] = acc[2] * a + b;
            acc[0] = acc[0] * a + b;
        }
        _ => {
            acc[0] = acc[0] * a + b;
            acc[1] = acc[1] * a + b;
            acc[2] = acc[2] * a + b;
            acc[3] = acc[3] * a + b;
        }
    }
}

/// One workitem's result from its input `x`: `iters` rounds over the
/// chains seeded from `x`, summed.
#[inline(always)]
fn chains<T: Lane>(x: T, ilp: usize, iters: usize) -> T {
    // Constants chosen to keep the value bounded (|a| < 1).
    let (a, b) = (T::splat(0.999_9), x * T::splat(1e-3));
    let mut acc = [x, x + T::splat(1.0), x + T::splat(2.0), x + T::splat(3.0)];
    for _ in 0..iters {
        round(&mut acc, ilp, a, b);
    }
    acc[0] + acc[1] + acc[2] + acc[3]
}

/// `output = chains(input)` on the `L::WIDTH` items from `i`.
struct Body<'a> {
    input: BufView<'a, f32>,
    output: BufViewMut<'a, f32>,
    ilp: usize,
    iters: usize,
}

impl LaneBody for Body<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let x = chains::<L>(self.input.load(i), self.ilp, self.iters);
        self.output.store(i, x);
    }
}

impl Kernel for IlpKernel {
    fn name(&self) -> &str {
        "ilp_microbench"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let mut body = Body {
            input: self.input.view(),
            output: self.output.view_mut(),
            ilp: self.ilp,
            iters: self.iters,
        };
        g.for_each_lane(1, g.global_size(0), &mut body);
    }

    fn profile(&self) -> KernelProfile {
        let flops = (self.iters * MAX_ILP * 2) as f64;
        KernelProfile::compute(flops).with_ilp(self.ilp as f64)
    }
}

/// Total flops per workitem (identical across ILP variants).
pub fn flops_per_item(iters: usize) -> f64 {
    (iters * MAX_ILP * 2) as f64
}

/// Serial reference.
pub fn reference(input: &[f32], ilp: usize, iters: usize) -> Vec<f32> {
    input.iter().map(|&x| chains(x, ilp, iters)).collect()
}

/// Build the ILP kernel.
pub fn build(ctx: &Context, n: usize, ilp: usize, iters: usize, wg: usize, seed: u64) -> Built {
    assert!((1..=MAX_ILP).contains(&ilp), "ilp must be 1..=4");
    let host = random_f32(seed, n, 0.0, 1.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &host).unwrap();
    let output = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let kernel = Arc::new(IlpKernel {
        input,
        output: output.clone(),
        ilp,
        iters,
    });
    let range = NDRange::d1(n).local1(wg);
    let want = reference(&host, ilp, iters);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n];
        q.read_buffer(&output, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let err = crate::util::max_rel_error(&got, &want, 1e-2);
        if err < 1e-3 {
            Ok(())
        } else {
            Err(format!("ilp{ilp}: max rel error {err}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocl_rt::Device;

    fn ctx() -> Context {
        Context::new(Device::native_cpu(3).unwrap())
    }

    #[test]
    fn all_ilp_variants_match_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        for ilp in 1..=MAX_ILP {
            let b = build(&ctx, 1024, ilp, 50, 256, 3);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn flop_count_is_ilp_invariant() {
        let ctx = ctx();
        let profiles: Vec<_> = (1..=4)
            .map(|ilp| build(&ctx, 64, ilp, 100, 64, 1).kernel.profile())
            .collect();
        for p in &profiles {
            assert_eq!(p.flops, 800.0);
        }
        // But the chains shorten with ILP.
        assert!(profiles[0].chain_ops > profiles[3].chain_ops);
        assert_eq!(profiles[3].ilp, 4.0);
    }

    #[test]
    fn different_ilp_values_produce_different_results() {
        // The work division is different math, so outputs differ — which is
        // fine; GFLOP/s is the metric, and each variant checks against its
        // own reference.
        let r1 = reference(&[0.5], 1, 10);
        let r4 = reference(&[0.5], 4, 10);
        assert_ne!(r1, r4);
    }
}
