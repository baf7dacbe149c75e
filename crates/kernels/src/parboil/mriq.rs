//! Parboil `MRI-Q` — non-Cartesian MRI reconstruction, Q matrix:
//! `ComputePhiMag` (Table III: global 3072, local 512) and `ComputeQ`
//! (global 32768, local 256).

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

pub const TWO_PI: f32 = std::f32::consts::TAU;

/// `ComputePhiMag`: `phiMag[i] = phiR[i]² + phiI[i]²`.
pub struct ComputePhiMag {
    pub phi_r: Buffer<f32>,
    pub phi_i: Buffer<f32>,
    pub phi_mag: Buffer<f32>,
    pub n: usize,
    pub items_per_wi: usize,
}

/// `phiMag = phiR² + phiI²` on the `L::WIDTH` elements from `i`.
struct PhiMag<'a>([BufView<'a, f32>; 2], BufViewMut<'a, f32>);

impl LaneBody for PhiMag<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let (re, im): (L, L) = (self.0[0].load(i), self.0[1].load(i));
        self.1.store(i, re * re + im * im);
    }
}

impl Kernel for ComputePhiMag {
    fn name(&self) -> &str {
        "ComputePhiMag"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let src = [self.phi_r.view(), self.phi_i.view()];
        let mut body = PhiMag(src, self.phi_mag.view_mut());
        g.for_each_lane(self.items_per_wi, self.n, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile::streaming(3.0, 12.0).coalesced(self.items_per_wi)
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::mriq_phimag(
            self.n,
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }
}

/// Sample-trajectory data for the Q computation.
#[derive(Debug, Clone)]
pub struct Trajectory {
    pub kx: Vec<f32>,
    pub ky: Vec<f32>,
    pub kz: Vec<f32>,
    pub phi_mag: Vec<f32>,
}

impl Trajectory {
    pub fn generate(seed: u64, k_samples: usize) -> Self {
        Trajectory {
            kx: random_f32(seed, k_samples, -0.5, 0.5),
            ky: random_f32(seed ^ 0xA, k_samples, -0.5, 0.5),
            kz: random_f32(seed ^ 0xB, k_samples, -0.5, 0.5),
            phi_mag: random_f32(seed ^ 0xC, k_samples, 0.0, 1.0),
        }
    }

    pub fn len(&self) -> usize {
        self.kx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kx.is_empty()
    }
}

/// Voxel coordinates.
#[derive(Debug, Clone)]
pub struct Voxels {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
}

impl Voxels {
    pub fn generate(seed: u64, n: usize) -> Self {
        Voxels {
            x: random_f32(seed ^ 0x10, n, -1.0, 1.0),
            y: random_f32(seed ^ 0x20, n, -1.0, 1.0),
            z: random_f32(seed ^ 0x30, n, -1.0, 1.0),
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

#[inline]
fn q_at(x: f32, y: f32, z: f32, traj: &Trajectory) -> (f32, f32) {
    let mut qr = 0.0f32;
    let mut qi = 0.0f32;
    for k in 0..traj.len() {
        let exp = TWO_PI * (traj.kx[k] * x + traj.ky[k] * y + traj.kz[k] * z);
        let m = traj.phi_mag[k];
        qr += m * exp.cos();
        qi += m * exp.sin();
    }
    (qr, qi)
}

/// The k-space trajectory as a kernel reads it: `kx`, `ky` and `kz` cut to
/// one length.
#[derive(Clone, Copy)]
pub(crate) struct KSpace<'a> {
    kx: &'a [f32],
    ky: &'a [f32],
    kz: &'a [f32],
}

impl<'a> KSpace<'a> {
    pub(crate) fn new(kx: &'a BufView<f32>, ky: &'a BufView<f32>, kz: &'a BufView<f32>) -> Self {
        let n = kx.len();
        KSpace {
            kx: kx.slice(0, n),
            ky: ky.slice(0, n),
            kz: kz.slice(0, n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.kx.len()
    }

    /// The samples `[kx, ky, kz]` in order.
    #[inline]
    pub(crate) fn iter(self) -> impl Iterator<Item = [f32; 3]> + 'a {
        let zipped = self.kx.iter().zip(self.ky).zip(self.kz);
        zipped.map(|((&x, &y), &z)| [x, y, z])
    }
}

/// The phase `2π·(k·r)` of sample `k` at voxels `(x, y, z)`.
#[inline(always)]
pub(crate) fn phase<T: Lane>(k: [f32; 3], x: T, y: T, z: T) -> T {
    let s = T::splat;
    s(TWO_PI) * (s(k[0]) * x + s(k[1]) * y + s(k[2]) * z)
}

/// [`q_at`] as the kernel computes it, for the `L::WIDTH` voxels from `v`
/// (`[x, y, z]` in, `[qr, qi]` out): the k-sample loop runs once for all
/// lanes, with `sin`/`cos` from [`cl_vec::sin_cos`] (the serial references
/// keep std's).
struct QVoxels<'a> {
    xyz: [BufView<'a, f32>; 3],
    ks: KSpace<'a>,
    mag: &'a [f32],
    out: [BufViewMut<'a, f32>; 2],
}

impl LaneBody for QVoxels<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, v: usize, _wi: &WorkItem) {
        let [x, y, z] = self.xyz.each_ref().map(|b| b.load::<L>(v));
        let mut qr = L::splat(0.0);
        let mut qi = L::splat(0.0);
        for (k, &m) in self.ks.iter().zip(self.mag) {
            let (sin, cos) = phase(k, x, y, z).sin_cos();
            qr = qr + L::splat(m) * cos;
            qi = qi + L::splat(m) * sin;
        }
        self.out[0].store(v, qr);
        self.out[1].store(v, qi);
    }
}

/// `ComputeQ`: per voxel, accumulate the phase sum over all k-space samples.
pub struct ComputeQ {
    pub x: Buffer<f32>,
    pub y: Buffer<f32>,
    pub z: Buffer<f32>,
    pub kx: Buffer<f32>,
    pub ky: Buffer<f32>,
    pub kz: Buffer<f32>,
    pub phi_mag: Buffer<f32>,
    pub qr: Buffer<f32>,
    pub qi: Buffer<f32>,
    pub n_voxels: usize,
    pub items_per_wi: usize,
}

impl Kernel for ComputeQ {
    fn name(&self) -> &str {
        "ComputeQ"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        // A step's four lanes are four adjacent voxels, which share every
        // k-sample.
        let (kx, ky, kz) = (self.kx.view(), self.ky.view(), self.kz.view());
        let ks = KSpace::new(&kx, &ky, &kz);
        let mag = self.phi_mag.view();
        let mut body = QVoxels {
            xyz: [self.x.view(), self.y.view(), self.z.view()],
            ks,
            mag: mag.slice(0, ks.len()),
            out: [self.qr.view_mut(), self.qi.view_mut()],
        };
        g.for_each_lane(self.items_per_wi, self.n_voxels, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        let nk = self.kx.len() as f64;
        let k = self.items_per_wi as f64;
        KernelProfile {
            flops: 14.0 * nk * k, // 5 mul, 3 add, sin, cos ≈ 14 flop-equiv
            mem_bytes: 20.0 * k,  // trajectory cached; voxel loads + stores
            chain_ops: 4.0 * nk * k,
            ilp: 2.0, // the qr and qi chains are independent
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: 3.0 * k,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::mriq_computeq(
            self.n_voxels,
            self.kx.len(),
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }
}

/// Serial references.
pub fn reference_phimag(phi_r: &[f32], phi_i: &[f32]) -> Vec<f32> {
    phi_r
        .iter()
        .zip(phi_i)
        .map(|(&r, &i)| r * r + i * i)
        .collect()
}

pub fn reference_q(vox: &Voxels, traj: &Trajectory) -> (Vec<f32>, Vec<f32>) {
    let mut qr = Vec::with_capacity(vox.len());
    let mut qi = Vec::with_capacity(vox.len());
    for v in 0..vox.len() {
        let (r, i) = q_at(vox.x[v], vox.y[v], vox.z[v], traj);
        qr.push(r);
        qi.push(i);
    }
    (qr, qi)
}

/// OpenMP port of ComputeQ.
pub fn openmp_q(team: &Team, vox: &Voxels, traj: &Trajectory, qr: &mut [f32], qi: &mut [f32]) {
    struct Out<'a>(&'a mut f32, &'a mut f32);
    let mut outs: Vec<Out> = qr
        .iter_mut()
        .zip(qi.iter_mut())
        .map(|(r, i)| Out(r, i))
        .collect();
    team.parallel_for_mut(&mut outs, Schedule::Dynamic { chunk: 16 }, |v, o| {
        let (r, i) = q_at(vox.x[v], vox.y[v], vox.z[v], traj);
        *o.0 = r;
        *o.1 = i;
    });
}

/// Build `ComputePhiMag` (Table III: n = 3072, local 512).
pub fn build_phimag(
    ctx: &Context,
    n: usize,
    items_per_wi: usize,
    local: Option<usize>,
    seed: u64,
) -> Built {
    assert!(n.is_multiple_of(items_per_wi), "coalescing must divide n");
    let hr = random_f32(seed, n, -1.0, 1.0);
    let hi = random_f32(seed ^ 0xF, n, -1.0, 1.0);
    let phi_r = ctx.buffer_from(MemFlags::READ_ONLY, &hr).unwrap();
    let phi_i = ctx.buffer_from(MemFlags::READ_ONLY, &hi).unwrap();
    let phi_mag = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let kernel = Arc::new(ComputePhiMag {
        phi_r,
        phi_i,
        phi_mag: phi_mag.clone(),
        n,
        items_per_wi,
    });
    let mut range = NDRange::d1(n / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let want = reference_phimag(&hr, &hi);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n];
        q.read_buffer(&phi_mag, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-4);
        if err < 1e-4 {
            Ok(())
        } else {
            Err(format!("ComputePhiMag: max rel error {err}"))
        }
    })
}

/// Build `ComputeQ` (Table III: 32768 voxels, local 256).
pub fn build_q(
    ctx: &Context,
    n_voxels: usize,
    k_samples: usize,
    items_per_wi: usize,
    local: Option<usize>,
    seed: u64,
) -> Built {
    assert!(
        n_voxels.is_multiple_of(items_per_wi),
        "coalescing must divide n"
    );
    let vox = Voxels::generate(seed, n_voxels);
    let traj = Trajectory::generate(seed ^ 0xBEEF, k_samples);
    let x = ctx.buffer_from(MemFlags::READ_ONLY, &vox.x).unwrap();
    let y = ctx.buffer_from(MemFlags::READ_ONLY, &vox.y).unwrap();
    let z = ctx.buffer_from(MemFlags::READ_ONLY, &vox.z).unwrap();
    let kx = ctx.buffer_from(MemFlags::READ_ONLY, &traj.kx).unwrap();
    let ky = ctx.buffer_from(MemFlags::READ_ONLY, &traj.ky).unwrap();
    let kz = ctx.buffer_from(MemFlags::READ_ONLY, &traj.kz).unwrap();
    let phi_mag = ctx.buffer_from(MemFlags::READ_ONLY, &traj.phi_mag).unwrap();
    let qr = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_voxels).unwrap();
    let qi = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_voxels).unwrap();
    let kernel = Arc::new(ComputeQ {
        x,
        y,
        z,
        kx,
        ky,
        kz,
        phi_mag,
        qr: qr.clone(),
        qi: qi.clone(),
        n_voxels,
        items_per_wi,
    });
    let mut range = NDRange::d1(n_voxels / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let (want_r, want_i) = reference_q(&vox, &traj);
    Built::new(kernel, range, move |q| {
        let mut gr = vec![0.0f32; n_voxels];
        let mut gi = vec![0.0f32; n_voxels];
        q.read_buffer(&qr, 0, &mut gr).map_err(|e| e.to_string())?;
        q.read_buffer(&qi, 0, &mut gi).map_err(|e| e.to_string())?;
        let er = max_rel_error(&gr, &want_r, 1e-1);
        let ei = max_rel_error(&gi, &want_i, 1e-1);
        if er < 1e-2 && ei < 1e-2 {
            Ok(())
        } else {
            Err(format!("ComputeQ: qr err {er}, qi err {ei}"))
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
    fn phimag_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build_phimag(&ctx, 3072, 1, Some(512), 3);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn phimag_coalescing_preserves_results() {
        let ctx = ctx();
        let q = ctx.queue();
        for k in [1, 2, 4] {
            let b = build_phimag(&ctx, 3072, k, None, 5);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn q_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build_q(&ctx, 512, 64, 1, Some(256), 11);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn q_workgroup_sweep_preserves_results() {
        let ctx = ctx();
        let q = ctx.queue();
        for wg in [32, 64, 128, 256] {
            let b = build_q(&ctx, 512, 32, 1, Some(wg), 13);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn openmp_q_matches() {
        let team = Team::new(4).unwrap();
        let vox = Voxels::generate(7, 128);
        let traj = Trajectory::generate(8, 32);
        let mut qr = vec![0.0f32; 128];
        let mut qi = vec![0.0f32; 128];
        openmp_q(&team, &vox, &traj, &mut qr, &mut qi);
        let (wr, wi) = reference_q(&vox, &traj);
        crate::util::assert_close(&qr, &wr, 1e-3);
        crate::util::assert_close(&qi, &wi, 1e-3);
    }
}
