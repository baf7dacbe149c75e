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
use cl_vec::VecF32;
use ocl_rt::{Buffer, Context, Device, GroupCtx, Kernel, MemFlags, NDRange};

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

impl Kernel for NBodyStep {
    fn name(&self) -> &str {
        "nbody_step"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let px = self.px.view_mut();
        let py = self.py.view_mut();
        let vx = self.vx.view_mut();
        let vy = self.vy.view_mut();
        let mass = self.mass.view();
        let n = self.n;
        g.for_each(|wi| {
            let i = wi.global_id(0);
            if i >= n {
                return;
            }
            let (xi, yi) = (px.get(i), py.get(i));
            let mut ax = 0.0f32;
            let mut ay = 0.0f32;
            for j in 0..n {
                let dx = px.get(j) - xi;
                let dy = py.get(j) - yi;
                let inv = 1.0 / (dx * dx + dy * dy + SOFTENING).sqrt();
                let f = mass.get(j) * inv * inv * inv;
                ax += dx * f;
                ay += dy * f;
            }
            // Integrate velocity now; positions integrate in a second pass
            // would be more faithful, but for the demo the per-item update
            // keeps the kernel self-contained (semi-implicit Euler).
            vx.set(i, vx.get(i) + ax * DT);
            vy.set(i, vy.get(i) + ay * DT);
        });
    }

    fn run_group_simd(&self, g: &mut GroupCtx, width: usize) -> bool {
        if width != 4 {
            return false;
        }
        let px = self.px.view_mut();
        let py = self.py.view_mut();
        let vx = self.vx.view_mut();
        let vy = self.vy.view_mut();
        let mass = self.mass.view();
        let n = self.n;
        g.for_each_simd(
            4,
            |wi| {
                let base = wi.global_id(0);
                if base + 4 > n {
                    return;
                }
                // Four bodies per lane-step; the j-loop broadcasts body j
                // against the four i-lanes (the implicit-vectorizer shape).
                let xi = VecF32::<4>::load(px.slice(base, 4), 0);
                let yi = VecF32::<4>::load(py.slice(base, 4), 0);
                let soft = VecF32::<4>::splat(SOFTENING);
                let mut ax = VecF32::<4>::zero();
                let mut ay = VecF32::<4>::zero();
                for j in 0..n {
                    let dx = VecF32::<4>::splat(px.get(j)) - xi;
                    let dy = VecF32::<4>::splat(py.get(j)) - yi;
                    let r2 = dx * dx + dy * dy + soft;
                    let inv = r2.rsqrt();
                    let f = VecF32::<4>::splat(mass.get(j)) * inv * inv * inv;
                    ax = dx.mul_add(f, ax);
                    ay = dy.mul_add(f, ay);
                }
                let dt = VecF32::<4>::splat(DT);
                let nvx = VecF32::<4>::load(vx.slice(base, 4), 0) + ax * dt;
                let nvy = VecF32::<4>::load(vy.slice(base, 4), 0) + ay * dt;
                nvx.store(vx.slice_mut(base, 4), 0);
                nvy.store(vy.slice_mut(base, 4), 0);
            },
            |wi| {
                // Scalar tail: one body.
                let i = wi.global_id(0);
                if i >= n {
                    return;
                }
                let (xi, yi) = (px.get(i), py.get(i));
                let mut ax = 0.0f32;
                let mut ay = 0.0f32;
                for j in 0..n {
                    let dx = px.get(j) - xi;
                    let dy = py.get(j) - yi;
                    let inv = 1.0 / (dx * dx + dy * dy + SOFTENING).sqrt();
                    let f = mass.get(j) * inv * inv * inv;
                    ax += dx * f;
                    ay += dy * f;
                }
                vx.set(i, vx.get(i) + ax * DT);
                vy.set(i, vy.get(i) + ay * DT);
            },
        );
        true
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
