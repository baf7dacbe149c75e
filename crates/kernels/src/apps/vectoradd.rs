//! `VectorAddition`: `c[i] = a[i] + b[i]` (Table II: global sizes 110 000 …
//! 11 445 000, local NULL). The paper's canonical example of per-workitem
//! overhead dominating a tiny workload (Section III-B.1).

use std::sync::Arc;

use cl_vec::VecF32;
use ocl_rt::{Buffer, Context, GroupCtx, Kernel, KernelProfile, MemFlags, NDRange, ResolvedRange};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// The `vectoradd` kernel with optional workitem coalescing.
pub struct VectorAdd {
    pub a: Buffer<f32>,
    pub b: Buffer<f32>,
    pub c: Buffer<f32>,
    pub n: usize,
    pub items_per_wi: usize,
}

impl Kernel for VectorAdd {
    fn name(&self) -> &str {
        "vectoadd"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let a = self.a.view();
        let b = self.b.view();
        let c = self.c.view_mut();
        let k = self.items_per_wi;
        let n = self.n;
        g.for_each(|wi| {
            let base = wi.global_id(0) * k;
            for j in 0..k {
                let i = base + j;
                if i < n {
                    c.set(i, a.get(i) + b.get(i));
                }
            }
        });
    }

    fn run_group_simd(&self, g: &mut GroupCtx, width: usize) -> bool {
        if self.items_per_wi != 1 || width != 4 {
            return false;
        }
        let a = self.a.view();
        let b = self.b.view();
        let c = self.c.view_mut();
        g.for_each_simd(
            4,
            |wi| {
                let base = wi.global_id(0);
                let va = VecF32::<4>::load(a.slice(base, 4), 0);
                let vb = VecF32::<4>::load(b.slice(base, 4), 0);
                (va + vb).store(c.slice_mut(base, 4), 0);
            },
            |wi| {
                let i = wi.global_id(0);
                c.set(i, a.get(i) + b.get(i));
            },
        );
        true
    }

    fn profile(&self) -> KernelProfile {
        // One add; two loads and one store of 4 B each.
        KernelProfile::streaming(1.0, 12.0).coalesced(self.items_per_wi)
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::vectoradd(
            self.n,
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }

    fn buffer_bindings(&self) -> Vec<ocl_rt::ArgBinding> {
        vec![
            ocl_rt::ArgBinding::of("a", &self.a),
            ocl_rt::ArgBinding::of("b", &self.b),
            ocl_rt::ArgBinding::of("c", &self.c),
        ]
    }
}

/// Serial reference.
pub fn reference(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// OpenMP port.
pub fn openmp(team: &Team, a: &[f32], b: &[f32], c: &mut [f32], sched: Schedule) {
    team.parallel_for_mut(c, sched, |i, o| *o = a[i] + b[i]);
}

/// Build with seeded inputs.
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
    let ha = random_f32(seed, n, -10.0, 10.0);
    let hb = random_f32(seed ^ 0xABCD, n, -10.0, 10.0);
    let a = ctx.buffer_from(MemFlags::READ_ONLY, &ha).unwrap();
    let b = ctx.buffer_from(MemFlags::READ_ONLY, &hb).unwrap();
    let c = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let kernel = Arc::new(VectorAdd {
        a,
        b,
        c: c.clone(),
        n,
        items_per_wi,
    });
    let mut range = NDRange::d1(n / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let want = reference(&ha, &hb);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n];
        q.read_buffer(&c, 0, &mut got).map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-5);
        if err < 1e-5 {
            Ok(())
        } else {
            Err(format!("vectoradd: max rel error {err}"))
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
    fn matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build(&ctx, 11_000, 1, None, 5);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn paper_coalescing_factors_match() {
        // Table IV's VectorAdd row: 110 000 items at 1×, 10×, 100×, 1000×.
        let ctx = ctx();
        let q = ctx.queue();
        for k in [1, 10, 100, 1000] {
            let b = build(&ctx, 110_000, k, None, 2);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(4).unwrap();
        let a = random_f32(1, 1000, 0.0, 1.0);
        let b = random_f32(2, 1000, 0.0, 1.0);
        let mut c = vec![0.0f32; 1000];
        openmp(&team, &a, &b, &mut c, Schedule::Dynamic { chunk: 64 });
        assert_eq!(c, reference(&a, &b));
    }
}
