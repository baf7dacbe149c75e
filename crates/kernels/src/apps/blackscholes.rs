//! `Blackscholes`: European option pricing by the Black–Scholes closed form
//! (Table II: 2-D globals 1280×1280 and 2560×2560, local 16×16).
//!
//! As in the SDK sample, each workitem prices a strided window of options,
//! so per-workitem work is long — the property behind the paper's
//! observation that Blackscholes is *insensitive* to workgroup size on CPUs
//! (Figure 4) while remaining highly sensitive on GPUs.

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// Risk-free rate and volatility used by the SDK sample.
pub const RISK_FREE: f32 = 0.02;
pub const VOLATILITY: f32 = 0.30;

/// The `exp` and `ln` a pricing runs on.
pub trait Math<T> {
    fn exp(x: T) -> T;
    fn ln(x: T) -> T;
}

/// The kernel's `exp` and `ln`: `Lane::exp`/`Lane::ln`, the branch-free
/// [`cl_vec::exp`] and [`cl_vec::ln`], so lane steps run as SIMD and match
/// scalar items bit for bit.
pub struct Poly;

impl<T: Lane> Math<T> for Poly {
    #[inline(always)]
    fn exp(x: T) -> T {
        x.exp()
    }
    #[inline(always)]
    fn ln(x: T) -> T {
        x.ln()
    }
}

/// std's `f32::exp` and `f32::ln`, for the serial oracle and the par-for
/// twin.
pub struct Libm;

impl Math<f32> for Libm {
    #[inline(always)]
    fn exp(x: f32) -> f32 {
        f32::exp(x)
    }
    #[inline(always)]
    fn ln(x: f32) -> f32 {
        f32::ln(x)
    }
}

/// Polynomial approximation of the cumulative normal distribution
/// (Abramowitz–Stegun 26.2.17, the one the SDK sample uses).
#[inline(always)]
pub fn cnd<M: Math<T>, T: Lane>(d: T) -> T {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    const RSQRT2PI: f32 = 0.398_942_3;
    let c = T::splat;
    let k = c(1.0) / (c(1.0) + c(0.231_641_9) * d.abs());
    let poly = k * (c(A1) + k * (c(A2) + k * (c(A3) + k * (c(A4) + k * c(A5)))));
    let cnd = c(RSQRT2PI) * M::exp(c(-0.5) * d * d) * poly;
    d.select_gt(c(0.0), c(1.0) - cnd, cnd)
}

/// Price one option per lane on `M`'s `exp`/`ln`: returns `(call, put)`.
#[inline(always)]
pub fn price<M: Math<T>, T: Lane>(s: T, x: T, t: T, r: f32, v: f32) -> (T, T) {
    let (r, v, one) = (T::splat(r), T::splat(v), T::splat(1.0));
    let sqrt_t = t.sqrt();
    let d1 = (M::ln(s / x) + (r + T::splat(0.5) * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let cnd_d1 = cnd::<M, T>(d1);
    let cnd_d2 = cnd::<M, T>(d2);
    let exp_rt = M::exp(-r * t);
    let call = s * cnd_d1 - x * exp_rt * cnd_d2;
    let put = x * exp_rt * (one - cnd_d2) - s * (one - cnd_d1);
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

/// The grid-stride walk of the `T::WIDTH` items from `first` over `n`
/// options: `[stock, strike, years]` in, `[call, put]` out, `T::WIDTH`
/// adjacent options every `stride`.
#[inline]
fn options<T: Lane>(
    src: &[BufView<f32>; 3],
    dst: &[BufViewMut<f32>; 2],
    n: usize,
    first: usize,
    stride: usize,
) {
    let ([s, x, t], [call, put]) = (src, dst);
    let mut opt = first;
    while opt + T::WIDTH <= n {
        let (c, p) = price::<Poly, T>(s.load(opt), x.load(opt), t.load(opt), RISK_FREE, VOLATILITY);
        call.store(opt, c);
        put.store(opt, p);
        opt += stride;
    }
    // Lanes of a step whose last stride runs past `n` finish one by one.
    for lane in opt..n.min(opt + T::WIDTH) {
        options::<f32>(src, dst, n, lane, stride);
    }
}

/// The grid-stride walks of the `L::WIDTH` workitems from `wi`.
struct Options<'a> {
    src: [BufView<'a, f32>; 3],
    dst: [BufViewMut<'a, f32>; 2],
    n: usize,
    stride: usize,
}

impl LaneBody for Options<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, _x: usize, wi: &WorkItem) {
        let first = wi.global_linear();
        options::<L>(&self.src, &self.dst, self.n, first, self.stride);
    }
}

impl Kernel for BlackScholes {
    fn name(&self) -> &str {
        "blackScholes"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        // The grid-stride loop visits contiguous option indices across the
        // x-adjacent workitems of a row (their `global_linear` ids are
        // consecutive), so a call at `L` prices `L::WIDTH` adjacent
        // options per stride (16 in a block, 4 in a step), for 1-D and
        // 2-D groups alike.
        let mut body = Options {
            src: [self.stock.view(), self.strike.view(), self.years.view()],
            dst: [self.call.view_mut(), self.put.view_mut()],
            n: self.n_options,
            stride: g.global_size(0) * g.global_size(1),
        };
        g.for_each_lane(1, g.global_size(0), &mut body);
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

/// Serial reference on std `exp`/`ln`: `(calls, puts)`.
pub fn reference(s: &[f32], x: &[f32], t: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut calls = Vec::with_capacity(s.len());
    let mut puts = Vec::with_capacity(s.len());
    for i in 0..s.len() {
        let (c, p) = price::<Libm, _>(s[i], x[i], t[i], RISK_FREE, VOLATILITY);
        calls.push(c);
        puts.push(p);
    }
    (calls, puts)
}

/// OpenMP port, on std `exp`/`ln` like the serial reference.
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
        let (c, p) = price::<Libm, _>(s[i], x[i], t[i], RISK_FREE, VOLATILITY);
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
        let (c, p) = price::<Libm, _>(20.0, 25.0, 2.0, RISK_FREE, VOLATILITY);
        let parity = 20.0 - 25.0 * (-RISK_FREE * 2.0f32).exp();
        assert!((c - p - parity).abs() < 1e-3, "{c} {p} {parity}");
    }

    #[test]
    fn deep_in_the_money_call_approaches_intrinsic() {
        let (c, _) = price::<Libm, _>(100.0, 1.0, 0.25, RISK_FREE, VOLATILITY);
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
        let (c, p) = price::<Poly, _>(s, x, t, RISK_FREE, VOLATILITY);
        for lane in 0..4 {
            let (sc, sp) = price::<Poly, _>(s[lane], x[lane], t[lane], RISK_FREE, VOLATILITY);
            assert_eq!(c[lane].to_bits(), sc.to_bits(), "lane {lane} call");
            assert_eq!(p[lane].to_bits(), sp.to_bits(), "lane {lane} put");
        }
    }

    #[test]
    fn one_dimensional_launch_takes_the_simd_path() {
        // A 1-D range with a lane-multiple workgroup runs lane steps
        // end-to-end.
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
