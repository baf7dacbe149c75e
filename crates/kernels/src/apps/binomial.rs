//! `Binomialoption`: binomial-lattice pricing of European calls (Table II:
//! globals 255 000 and 2 550 000, local 255 — one workgroup per option, as
//! in the SDK sample).
//!
//! Each workgroup prices one option: workitems initialize the lattice
//! leaves, then `steps` barrier-separated phases fold the lattice down.

use std::sync::Arc;

use ocl_rt::{Buffer, Context, GroupCtx, Kernel, KernelProfile, MemFlags, NDRange, ResolvedRange};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

pub const RISK_FREE: f32 = 0.02;
pub const VOLATILITY: f32 = 0.30;

/// Lattice parameters for one option.
#[derive(Debug, Clone, Copy)]
struct Lattice {
    u: f32,
    p_up: f32,
    disc: f32,
}

fn lattice(t: f32, steps: usize) -> Lattice {
    let dt = t / steps as f32;
    let u = (VOLATILITY * dt.sqrt()).exp();
    let d = 1.0 / u;
    let a = (RISK_FREE * dt).exp();
    Lattice {
        u,
        p_up: (a - d) / (u - d),
        disc: 1.0 / a,
    }
}

/// The `binomialoption` kernel: `wg_size = steps` workitems fold a
/// `steps+1`-leaf lattice; group `g` prices option `g`.
pub struct BinomialOption {
    pub stock: Buffer<f32>,
    pub strike: Buffer<f32>,
    pub years: Buffer<f32>,
    pub out: Buffer<f32>,
    pub steps: usize,
}

impl Kernel for BinomialOption {
    fn name(&self) -> &str {
        "binomialoption"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let steps = self.steps;
        assert_eq!(
            g.local_size(0),
            steps,
            "binomialoption expects workgroup size == steps"
        );
        let opt = g.group_id(0);
        let s0 = self.stock.view().get(opt);
        let x = self.strike.view().get(opt);
        let t = self.years.view().get(opt);
        let lat = lattice(t, steps);

        let mut vals = g.local::<f32>(steps + 1);
        // Leaves: option value at expiry for each terminal node. steps+1
        // leaves over `steps` workitems: lane 0 also fills the last leaf.
        g.for_each(|wi| {
            let l = wi.local_id(0);
            let price_at = |j: usize| s0 * lat.u.powi(2 * j as i32 - steps as i32);
            vals[l] = (price_at(l) - x).max(0.0);
            if l == 0 {
                vals[steps] = (price_at(steps) - x).max(0.0);
            }
        });
        g.barrier();

        // Backward induction: after phase k there are steps-k live nodes.
        let mut scratch = g.local::<f32>(steps + 1);
        for live in (1..=steps).rev() {
            g.for_each(|wi| {
                let l = wi.local_id(0);
                if l < live {
                    scratch[l] = lat.disc * (lat.p_up * vals[l + 1] + (1.0 - lat.p_up) * vals[l]);
                }
            });
            g.barrier();
            g.for_each(|wi| {
                let l = wi.local_id(0);
                if l < live {
                    vals[l] = scratch[l];
                }
            });
            g.barrier();
        }

        g.for_each(|wi| {
            if wi.local_id(0) == 0 {
                self.out.view_mut().set(opt, vals[0]);
            }
        });
    }

    fn profile(&self) -> KernelProfile {
        let s = self.steps as f64;
        // ~s²/2 folds over the group / s items ≈ s/2 folds per item, 4 flops
        // each.
        KernelProfile {
            flops: 2.0 * s,
            mem_bytes: 12.0 / s,
            chain_ops: 2.0 * s,
            ilp: 1.0,
            vectorizable: false, // neighbour coupling across lanes
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 2.0 * (s + 1.0) * 4.0,
            dependent_loads: 1.0,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        crate::access::binomial(self.steps, self.out.len(), range.lint_geometry())
    }
}

/// Serial reference: same lattice, same arithmetic order per node.
pub fn reference_one(s0: f32, x: f32, t: f32, steps: usize) -> f32 {
    let lat = lattice(t, steps);
    let mut vals: Vec<f32> = (0..=steps)
        .map(|j| (s0 * lat.u.powi(2 * j as i32 - steps as i32) - x).max(0.0))
        .collect();
    for live in (1..=steps).rev() {
        for l in 0..live {
            vals[l] = lat.disc * (lat.p_up * vals[l + 1] + (1.0 - lat.p_up) * vals[l]);
        }
    }
    vals[0]
}

/// Serial reference over all options.
pub fn reference(s: &[f32], x: &[f32], t: &[f32], steps: usize) -> Vec<f32> {
    (0..s.len())
        .map(|i| reference_one(s[i], x[i], t[i], steps))
        .collect()
}

/// OpenMP port: one option per iteration, lattice private to the thread.
pub fn openmp(team: &Team, s: &[f32], x: &[f32], t: &[f32], out: &mut [f32], steps: usize) {
    team.parallel_for_mut(out, Schedule::Dynamic { chunk: 4 }, |i, o| {
        *o = reference_one(s[i], x[i], t[i], steps);
    });
}

/// Build the kernel: `n_options` workgroups of `steps` workitems
/// (Table II: steps = 255).
pub fn build(ctx: &Context, n_options: usize, steps: usize, seed: u64) -> Built {
    let hs = random_f32(seed, n_options, 5.0, 30.0);
    let hx = random_f32(seed ^ 0x77, n_options, 1.0, 100.0);
    let ht = random_f32(seed ^ 0x99, n_options, 0.25, 10.0);
    let stock = ctx.buffer_from(MemFlags::READ_ONLY, &hs).unwrap();
    let strike = ctx.buffer_from(MemFlags::READ_ONLY, &hx).unwrap();
    let years = ctx.buffer_from(MemFlags::READ_ONLY, &ht).unwrap();
    let out = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_options).unwrap();
    let kernel = Arc::new(BinomialOption {
        stock,
        strike,
        years,
        out: out.clone(),
        steps,
    });
    let range = NDRange::d1(n_options * steps).local1(steps);
    let want = reference(&hs, &hx, &ht, steps);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n_options];
        q.read_buffer(&out, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-2);
        if err < 1e-3 {
            Ok(())
        } else {
            Err(format!("binomialoption: max rel error {err}"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::blackscholes;
    use ocl_rt::Device;

    fn ctx() -> Context {
        Context::new(Device::native_cpu(3).unwrap())
    }

    #[test]
    fn kernel_matches_serial_lattice() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build(&ctx, 40, 255, 3);
        let ev = q.enqueue_kernel(&b.kernel, b.range).unwrap();
        assert_eq!(ev.groups, 40);
        b.verify(&q).unwrap();
    }

    #[test]
    fn small_step_counts_work() {
        let ctx = ctx();
        let q = ctx.queue();
        for steps in [1, 2, 16] {
            let b = build(&ctx, 8, steps, 5);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn lattice_converges_to_black_scholes() {
        // With many steps the binomial price approaches the closed form —
        // an oracle independent of the lattice implementation.
        let (s0, x, t) = (20.0, 22.0, 1.0);
        let bs = blackscholes::price::<blackscholes::Libm, _>(s0, x, t, RISK_FREE, VOLATILITY).0;
        let bin = reference_one(s0, x, t, 512);
        assert!(
            (bs - bin).abs() / bs < 0.01,
            "binomial {bin} vs Black-Scholes {bs}"
        );
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(4).unwrap();
        let s = random_f32(1, 32, 5.0, 30.0);
        let x = random_f32(2, 32, 1.0, 100.0);
        let t = random_f32(3, 32, 0.25, 10.0);
        let mut out = vec![0.0f32; 32];
        openmp(&team, &s, &x, &t, &mut out, 64);
        crate::util::assert_close(&out, &reference(&s, &x, &t, 64), 1e-5);
    }
}
