//! N-body: an all-pairs gravitational step as an NDRange kernel — the
//! archetypal compute-bound GPGPU workload (one workitem per body, O(N)
//! inner loop), priced here on the CPU runtime with the paper's two key
//! CPU optimizations applied and measured:
//!
//! 1. an explicit, large workgroup size instead of NULL (Figure 3), and
//! 2. cross-workitem SIMD execution (Section III-F).
//!
//! ```text
//! cargo run --release -p cl-examples --bin nbody -- [n_bodies] [steps]
//! ```

use std::sync::Arc;
use std::time::Instant;

use cl_util::XorShift;
use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, Device, GroupCtx, Kernel, LaneBody, MemFlags, NDRange,
    WorkItem,
};

const SOFTENING: f32 = 1e-3;
const DT: f32 = 0.01;

/// One integration step: for each body, accumulate acceleration over all
/// bodies, then integrate velocity and position.
struct NBodyStep {
    // Structure-of-arrays body state (position, velocity, mass).
    px: Buffer<f32>,
    py: Buffer<f32>,
    vx: Buffer<f32>,
    vy: Buffer<f32>,
    mass: Buffer<f32>,
    n: usize,
}

/// The kick of the `L::WIDTH` bodies from `i`: their acceleration over
/// all `n` bodies, then `v += a·dt`. A lane step broadcasts body `j`
/// against its bodies (the implicit-vectorizer shape).
struct Kick<'a> {
    pos: [BufViewMut<'a, f32>; 2],
    vel: [BufViewMut<'a, f32>; 2],
    mass: BufView<'a, f32>,
    n: usize,
}

impl LaneBody for Kick<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let ([px, py], [vx, vy]) = (&self.pos, &self.vel);
        let (xi, yi): (L, L) = (px.load(i), py.load(i));
        let mut ax = L::splat(0.0);
        let mut ay = L::splat(0.0);
        for j in 0..self.n {
            let dx = L::splat(px.get(j)) - xi;
            let dy = L::splat(py.get(j)) - yi;
            let inv = L::splat(1.0) / (dx * dx + dy * dy + L::splat(SOFTENING)).sqrt();
            let f = L::splat(self.mass.get(j)) * inv * inv * inv;
            ax = ax + dx * f;
            ay = ay + dy * f;
        }
        // Integrate velocity now; positions integrate in a second pass
        // would be more faithful, but for the demo the per-item update
        // keeps the kernel self-contained (semi-implicit Euler).
        vx.store(i, vx.load::<L>(i) + ax * L::splat(DT));
        vy.store(i, vy.load::<L>(i) + ay * L::splat(DT));
    }
}

impl Kernel for NBodyStep {
    fn name(&self) -> &str {
        "nbody_step"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let mut kick = Kick {
            pos: [self.px.view_mut(), self.py.view_mut()],
            vel: [self.vx.view_mut(), self.vy.view_mut()],
            mass: self.mass.view(),
            n: self.n,
        };
        g.for_each_lane(1, self.n, &mut kick);
    }
}

/// Drift positions by velocities (second phase of the step).
struct Drift {
    px: Buffer<f32>,
    py: Buffer<f32>,
    vx: Buffer<f32>,
    vy: Buffer<f32>,
    n: usize,
}

impl Kernel for Drift {
    fn name(&self) -> &str {
        "nbody_drift"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let px = self.px.view_mut();
        let py = self.py.view_mut();
        let vx = self.vx.view();
        let vy = self.vy.view();
        g.for_each(|wi| {
            let i = wi.global_id(0);
            if i < self.n {
                px.set(i, px.get(i) + vx.get(i) * DT);
                py.set(i, py.get(i) + vy.get(i) * DT);
            }
        });
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(2048);
    let steps: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);

    let mut rng = XorShift::seed_from_u64(2013);
    let host_px: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let host_py: Vec<f32> = (0..n).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    let host_mass: Vec<f32> = (0..n).map(|_| rng.range_f32(0.1, 1.0)).collect();

    let mut device = Device::native_cpu(cl_pool::available_cores()).unwrap();

    for (label, vectorize, wg) in [
        ("NULL wg, scalar  ", false, None),
        ("wg=256, scalar   ", false, Some(256)),
        ("wg=256, SIMD     ", true, Some(256)),
    ] {
        device.set_vectorize(vectorize);
        let ctx = Context::new(device.clone());
        let q = ctx.queue();
        let px = ctx.buffer_from(MemFlags::default(), &host_px).unwrap();
        let py = ctx.buffer_from(MemFlags::default(), &host_py).unwrap();
        let vx = ctx.buffer::<f32>(MemFlags::default(), n).unwrap();
        let vy = ctx.buffer::<f32>(MemFlags::default(), n).unwrap();
        let mass = ctx.buffer_from(MemFlags::READ_ONLY, &host_mass).unwrap();

        let kick: Arc<dyn Kernel> = Arc::new(NBodyStep {
            px: px.clone(),
            py: py.clone(),
            vx: vx.clone(),
            vy: vy.clone(),
            mass,
            n,
        });
        let drift: Arc<dyn Kernel> = Arc::new(Drift {
            px: px.clone(),
            py: py.clone(),
            vx: vx.clone(),
            vy: vy.clone(),
            n,
        });

        // Pad the range to the workgroup size (kernels guard `i < n`).
        let padded = wg.map_or(n, |w| n.div_ceil(w) * w);
        let mut range = NDRange::d1(padded);
        if let Some(w) = wg {
            range = range.local1(w);
        }
        let t0 = Instant::now();
        for _ in 0..steps {
            q.enqueue_kernel(&kick, range).unwrap();
            q.enqueue_kernel(&drift, range).unwrap();
        }
        let dt = t0.elapsed();
        let interactions = n as f64 * n as f64 * steps as f64;
        println!(
            "{label} {n} bodies x {steps} steps: {dt:>9.3?}  ({:.2} G interactions/s)",
            interactions / dt.as_secs_f64() / 1e9
        );

        // Sanity: total momentum stays bounded (pairwise forces).
        let mut v = vec![0.0f32; n];
        q.read_buffer(&vx, 0, &mut v).unwrap();
        let p: f32 = v.iter().zip(&host_mass).map(|(v, m)| v * m).sum();
        assert!(p.abs() < 1.0, "momentum drifted: {p}");
    }
    println!("(explicit workgroup + SIMD is the paper's tuned-CPU configuration)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One kick of `n` bodies in padded groups of `wg`: `(vx, vy)`.
    fn kick_velocities(vectorize: bool, n: usize, wg: usize) -> Vec<Vec<f32>> {
        let mut device = Device::native_cpu(2).unwrap();
        device.set_vectorize(vectorize);
        let ctx = Context::new(device);
        let q = ctx.queue();
        let mut rng = XorShift::seed_from_u64(7);
        let mut host = |lo, hi| (0..n).map(|_| rng.range_f32(lo, hi)).collect::<Vec<f32>>();
        let (hx, hy, hm) = (host(-1.0, 1.0), host(-1.0, 1.0), host(0.1, 1.0));
        let buf = |h: &[f32]| ctx.buffer_from(MemFlags::default(), h).unwrap();
        let (vx, vy) = (buf(&vec![0.0; n]), buf(&vec![0.0; n]));
        let kick: Arc<dyn Kernel> = Arc::new(NBodyStep {
            px: buf(&hx),
            py: buf(&hy),
            vx: vx.clone(),
            vy: vy.clone(),
            mass: buf(&hm),
            n,
        });
        q.enqueue_kernel(&kick, NDRange::d1(n.div_ceil(wg) * wg).local1(wg))
            .unwrap();
        [vx, vy]
            .iter()
            .map(|b| {
                let mut v = vec![0.0f32; n];
                q.read_buffer(b, 0, &mut v).unwrap();
                v
            })
            .collect()
    }

    #[test]
    fn lane_kick_is_bit_identical_to_scalar_on_a_padded_launch() {
        // 1002 bodies in groups of 256: the last group's step at 1000
        // crosses `n`, so bodies 1000 and 1001 run item by item.
        let (lanes, scalar) = (
            kick_velocities(true, 1002, 256),
            kick_velocities(false, 1002, 256),
        );
        for (axis, (l, s)) in ["vx", "vy"].iter().zip(lanes.iter().zip(&scalar)) {
            for (i, (a, b)) in l.iter().zip(s).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{axis}[{i}]: lanes {a} vs scalar {b}"
                );
            }
        }
    }
}
