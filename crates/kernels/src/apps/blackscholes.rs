//! `Blackscholes`: European option pricing by the Black–Scholes closed form
//! (Table II: 2-D globals 1280×1280 and 2560×2560, local 16×16).
//!
//! As in the SDK sample, each workitem prices a strided window of options,
//! so per-workitem work is long — the property behind the paper's
//! observation that Blackscholes is *insensitive* to workgroup size on CPUs
//! (Figure 4) while remaining highly sensitive on GPUs.

use std::sync::Arc;

use cl_vec::VecF32;
use ocl_rt::{Buffer, Context, GroupCtx, Kernel, KernelProfile, MemFlags, NDRange, ResolvedRange};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// Risk-free rate and volatility used by the SDK sample.
pub const RISK_FREE: f32 = 0.02;
pub const VOLATILITY: f32 = 0.30;

/// Polynomial approximation of the cumulative normal distribution
/// (Abramowitz–Stegun 26.2.17, the one the SDK sample uses).
#[inline]
pub fn cnd(d: f32) -> f32 {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    const RSQRT2PI: f32 = 0.398_942_3;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = RSQRT2PI * (-0.5 * d * d).exp() * poly;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

/// Lane-parallel CND — the same Abramowitz–Stegun polynomial as [`cnd`],
/// evaluated on four options at once (the shape the implicit vectorizer
/// emits for this kernel). Each lane keeps [`cnd`]'s order of operations,
/// so the lanes are bit-identical to it.
#[inline]
pub fn cnd_x4(d: VecF32<4>) -> VecF32<4> {
    let a1 = VecF32::<4>::splat(0.319_381_53);
    let a2 = VecF32::<4>::splat(-0.356_563_78);
    let a3 = VecF32::<4>::splat(1.781_477_9);
    let a4 = VecF32::<4>::splat(-1.821_255_9);
    let a5 = VecF32::<4>::splat(1.330_274_5);
    let rsqrt2pi = VecF32::<4>::splat(0.398_942_3);
    let one = VecF32::<4>::splat(1.0);
    let abs_d = d.max(-d);
    let k = one / (one + VecF32::<4>::splat(0.231_641_9) * abs_d);
    let poly = k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5))));
    let cnd = rsqrt2pi * (VecF32::<4>::splat(-0.5) * d * d).exp() * poly;
    let mask = [d[0] > 0.0, d[1] > 0.0, d[2] > 0.0, d[3] > 0.0];
    VecF32::<4>::select(mask, one - cnd, cnd)
}

/// Lane-parallel pricing of four options: `(calls, puts)`.
#[inline]
pub fn price_x4(
    s: VecF32<4>,
    x: VecF32<4>,
    t: VecF32<4>,
    r: f32,
    v: f32,
) -> (VecF32<4>, VecF32<4>) {
    let vr = VecF32::<4>::splat(r);
    let vv = VecF32::<4>::splat(v);
    let half = VecF32::<4>::splat(0.5);
    let one = VecF32::<4>::splat(1.0);
    let sqrt_t = t.sqrt();
    let d1 = ((s / x).ln() + (vr + half * vv * vv) * t) / (vv * sqrt_t);
    let d2 = d1 - vv * sqrt_t;
    let cnd_d1 = cnd_x4(d1);
    let cnd_d2 = cnd_x4(d2);
    let exp_rt = (-vr * t).exp();
    let call = s * cnd_d1 - x * exp_rt * cnd_d2;
    let put = x * exp_rt * (one - cnd_d2) - s * (one - cnd_d1);
    (call, put)
}

/// Price one option: returns `(call, put)`.
#[inline]
pub fn price(s: f32, x: f32, t: f32, r: f32, v: f32) -> (f32, f32) {
    let sqrt_t = t.sqrt();
    let d1 = ((s / x).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let cnd_d1 = cnd(d1);
    let cnd_d2 = cnd(d2);
    let exp_rt = (-r * t).exp();
    let call = s * cnd_d1 - x * exp_rt * cnd_d2;
    let put = x * exp_rt * (1.0 - cnd_d2) - s * (1.0 - cnd_d1);
    (call, put)
}

/// The `blackScholes` kernel: `opts_per_item` options per workitem, strided
/// by the total number of workitems (grid-stride loop, as in the sample).
pub struct BlackScholes {
    pub stock: Buffer<f32>,
    pub strike: Buffer<f32>,
    pub years: Buffer<f32>,
    pub call: Buffer<f32>,
    pub put: Buffer<f32>,
    pub n_options: usize,
    /// Total workitems of the intended launch (for the static profile).
    pub grid_items: usize,
}

impl Kernel for BlackScholes {
    fn name(&self) -> &str {
        "blackScholes"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let s = self.stock.view();
        let x = self.strike.view();
        let t = self.years.view();
        let call = self.call.view_mut();
        let put = self.put.view_mut();
        let total_items = g.global_size(0) * g.global_size(1);
        let n = self.n_options;
        g.for_each(|wi| {
            let tid = wi.global_linear();
            let mut opt = tid;
            while opt < n {
                let (c, p) = price(s.get(opt), x.get(opt), t.get(opt), RISK_FREE, VOLATILITY);
                call.set(opt, c);
                put.set(opt, p);
                opt += total_items;
            }
        });
    }

    fn run_group_simd(&self, g: &mut GroupCtx, width: usize) -> bool {
        // The grid-stride loop visits contiguous option indices across the
        // x-adjacent workitems of a row (their `global_linear` ids are
        // consecutive), so the implicit vectorizer packs 4 options per lane
        // step, for 1-D and 2-D groups alike.
        if width != 4 {
            return false;
        }
        let s = self.stock.view();
        let x = self.strike.view();
        let t = self.years.view();
        let call = self.call.view_mut();
        let put = self.put.view_mut();
        let total_items = g.global_size(0) * g.global_size(1);
        let n = self.n_options;
        // One item's stride walk from `first`, scalar.
        let strided = |first: usize| {
            let mut opt = first;
            while opt < n {
                let (c, p) = price(s.get(opt), x.get(opt), t.get(opt), RISK_FREE, VOLATILITY);
                call.set(opt, c);
                put.set(opt, p);
                opt += total_items;
            }
        };
        g.for_each_simd(
            4,
            |wi| {
                let mut opt = wi.global_linear();
                while opt + 4 <= n {
                    let vs = VecF32::<4>::load(s.slice(opt, 4), 0);
                    let vx = VecF32::<4>::load(x.slice(opt, 4), 0);
                    let vt = VecF32::<4>::load(t.slice(opt, 4), 0);
                    let (c, p) = price_x4(vs, vx, vt, RISK_FREE, VOLATILITY);
                    c.store(call.slice_mut(opt, 4), 0);
                    p.store(put.slice_mut(opt, 4), 0);
                    opt += total_items;
                }
                // Ragged tail of the stride walk: finish each lane scalar.
                for lane in 0..4 {
                    strided(opt + lane);
                }
            },
            |wi| strided(wi.global_linear()),
        );
        true
    }

    fn profile(&self) -> KernelProfile {
        let opts = (self.n_options as f64 / self.grid_items.max(1) as f64).max(1.0);
        // ~60 flop-equivalents per option (exp/ln/sqrt expanded).
        KernelProfile {
            flops: 60.0 * opts,
            mem_bytes: 20.0 * opts,
            chain_ops: 40.0 * opts,
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: opts,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::blackscholes(
            self.n_options,
            range.lint_geometry(),
        ))
    }
}

/// Serial reference: `(calls, puts)`.
pub fn reference(s: &[f32], x: &[f32], t: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut calls = Vec::with_capacity(s.len());
    let mut puts = Vec::with_capacity(s.len());
    for i in 0..s.len() {
        let (c, p) = price(s[i], x[i], t[i], RISK_FREE, VOLATILITY);
        calls.push(c);
        puts.push(p);
    }
    (calls, puts)
}

/// OpenMP port.
pub fn openmp(team: &Team, s: &[f32], x: &[f32], t: &[f32], call: &mut [f32], put: &mut [f32]) {
    struct Out<'a> {
        call: &'a mut f32,
        put: &'a mut f32,
    }
    let mut outs: Vec<Out> = call
        .iter_mut()
        .zip(put.iter_mut())
        .map(|(c, p)| Out { call: c, put: p })
        .collect();
    team.parallel_for_mut(&mut outs, Schedule::default(), |i, o| {
        let (c, p) = price(s[i], x[i], t[i], RISK_FREE, VOLATILITY);
        *o.call = c;
        *o.put = p;
    });
}

/// Build the kernel. `grid` is the 2-D global size (e.g. 1280×1280);
/// `n_options` defaults to `grid.0 * grid.1 * 4` so every workitem loops.
pub fn build(
    ctx: &Context,
    grid: (usize, usize),
    n_options: usize,
    local: Option<(usize, usize)>,
    seed: u64,
) -> Built {
    let hs = random_f32(seed, n_options, 5.0, 30.0);
    let hx = random_f32(seed ^ 0x11, n_options, 1.0, 100.0);
    let ht = random_f32(seed ^ 0x22, n_options, 0.25, 10.0);
    let stock = ctx.buffer_from(MemFlags::READ_ONLY, &hs).unwrap();
    let strike = ctx.buffer_from(MemFlags::READ_ONLY, &hx).unwrap();
    let years = ctx.buffer_from(MemFlags::READ_ONLY, &ht).unwrap();
    let call = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_options).unwrap();
    let put = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_options).unwrap();
    let kernel = Arc::new(BlackScholes {
        stock,
        strike,
        years,
        call: call.clone(),
        put: put.clone(),
        n_options,
        grid_items: grid.0 * grid.1,
    });
    let mut range = NDRange::d2(grid.0, grid.1);
    if let Some((lx, ly)) = local {
        range = range.local2(lx, ly);
    }
    let (want_c, want_p) = reference(&hs, &hx, &ht);
    Built::new(kernel, range, move |q| {
        let mut got_c = vec![0.0f32; n_options];
        let mut got_p = vec![0.0f32; n_options];
        q.read_buffer(&call, 0, &mut got_c)
            .map_err(|e| e.to_string())?;
        q.read_buffer(&put, 0, &mut got_p)
            .map_err(|e| e.to_string())?;
        let ec = max_rel_error(&got_c, &want_c, 1e-2);
        let ep = max_rel_error(&got_p, &want_p, 1e-2);
        if ec < 1e-3 && ep < 1e-3 {
            Ok(())
        } else {
            Err(format!("blackScholes: call err {ec}, put err {ep}"))
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
    fn put_call_parity_holds() {
        // C - P = S - X·e^{-rT}: an oracle independent of our own formula.
        let (c, p) = price(20.0, 25.0, 2.0, RISK_FREE, VOLATILITY);
        let parity = 20.0 - 25.0 * (-RISK_FREE * 2.0f32).exp();
        assert!((c - p - parity).abs() < 1e-3, "{c} {p} {parity}");
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (c, _) = price(100.0, 1.0, 0.25, RISK_FREE, VOLATILITY);
        assert!(c > 98.9 && c < 100.0);
    }

    #[test]
    fn kernel_matches_reference_with_grid_stride() {
        let ctx = ctx();
        let q = ctx.queue();
        // 16×16 grid, 4 options per item via the stride loop.
        let b = build(&ctx, (16, 16), 1024, Some((4, 4)), 7);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn workgroup_shape_does_not_change_results() {
        let ctx = ctx();
        let q = ctx.queue();
        // Table V cases: 1×1, 1×2, 2×2, 2×4, 16×16.
        for local in [(1, 1), (1, 2), (2, 2), (2, 4), (16, 16)] {
            let b = build(&ctx, (32, 32), 2048, Some(local), 9);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn simd_lanes_match_scalar_pricing() {
        use cl_vec::VecF32;
        let s = VecF32([10.0f32, 20.0, 15.0, 25.0]);
        let x = VecF32([12.0f32, 18.0, 15.0, 40.0]);
        let t = VecF32([0.5f32, 1.0, 2.0, 5.0]);
        let (c, p) = price_x4(s, x, t, RISK_FREE, VOLATILITY);
        for lane in 0..4 {
            let (sc, sp) = price(s[lane], x[lane], t[lane], RISK_FREE, VOLATILITY);
            assert!(
                (c[lane] - sc).abs() < 1e-4,
                "lane {lane} call {} vs {sc}",
                c[lane]
            );
            assert!(
                (p[lane] - sp).abs() < 1e-4,
                "lane {lane} put {} vs {sp}",
                p[lane]
            );
        }
    }

    #[test]
    fn one_dimensional_launch_takes_the_simd_path() {
        // A 1-D range with a lane-multiple workgroup exercises
        // run_group_simd end-to-end.
        let ctx = ctx();
        let q = ctx.queue();
        let n_options = 4096;
        let hs = random_f32(1, n_options, 5.0, 30.0);
        let hx = random_f32(2, n_options, 1.0, 100.0);
        let ht = random_f32(3, n_options, 0.25, 10.0);
        let stock = ctx.buffer_from(MemFlags::READ_ONLY, &hs).unwrap();
        let strike = ctx.buffer_from(MemFlags::READ_ONLY, &hx).unwrap();
        let years = ctx.buffer_from(MemFlags::READ_ONLY, &ht).unwrap();
        let call = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_options).unwrap();
        let put = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_options).unwrap();
        let kernel: Arc<dyn Kernel> = Arc::new(BlackScholes {
            stock,
            strike,
            years,
            call: call.clone(),
            put: put.clone(),
            n_options,
            grid_items: 1024,
        });
        q.enqueue_kernel(&kernel, NDRange::d1(1024).local1(128))
            .unwrap();
        let (want_c, want_p) = reference(&hs, &hx, &ht);
        let mut got_c = vec![0.0f32; n_options];
        let mut got_p = vec![0.0f32; n_options];
        q.read_buffer(&call, 0, &mut got_c).unwrap();
        q.read_buffer(&put, 0, &mut got_p).unwrap();
        crate::util::assert_close(&got_c, &want_c, 1e-3);
        crate::util::assert_close(&got_p, &want_p, 1e-3);
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(2).unwrap();
        let s = random_f32(1, 500, 5.0, 30.0);
        let x = random_f32(2, 500, 1.0, 100.0);
        let t = random_f32(3, 500, 0.25, 10.0);
        let mut c = vec![0.0f32; 500];
        let mut p = vec![0.0f32; 500];
        openmp(&team, &s, &x, &t, &mut c, &mut p);
        let (wc, wp) = reference(&s, &x, &t);
        crate::util::assert_close(&c, &wc, 1e-5);
        crate::util::assert_close(&p, &wp, 1e-5);
    }
}
