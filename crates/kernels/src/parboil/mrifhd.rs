//! Parboil `MRI-FHD` — the FHᴰ computation: `RhoPhi` (Table III: global
//! 3072, local 512) forms the complex product of Φ and the measured data;
//! `FH` (global 32768, local 256) accumulates the phase sum per voxel.

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufView, BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags,
    NDRange, ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::parboil::mriq::{phase, KSpace, Trajectory, Voxels, TWO_PI};
use crate::util::{max_rel_error, random_f32};

/// `RhoPhi`: `(rRho, iRho) = (φR·dR + φI·dI, φR·dI − φI·dR)`.
pub struct RhoPhi {
    pub phi_r: Buffer<f32>,
    pub phi_i: Buffer<f32>,
    pub d_r: Buffer<f32>,
    pub d_i: Buffer<f32>,
    pub rho_r: Buffer<f32>,
    pub rho_i: Buffer<f32>,
    pub n: usize,
    pub items_per_wi: usize,
}

/// `(rRho, iRho)` on the `L::WIDTH` elements from `i`: `[φR, φI, dR, dI]`
/// in, `[rRho, iRho]` out.
struct RhoPhiBody<'a>([BufView<'a, f32>; 4], [BufViewMut<'a, f32>; 2]);

impl LaneBody for RhoPhiBody<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        let [a, b, c, d] = self.0.each_ref().map(|v| v.load::<L>(i));
        let [rr, ri] = &self.1;
        rr.store(i, a * c + b * d);
        ri.store(i, a * d - b * c);
    }
}

impl Kernel for RhoPhi {
    fn name(&self) -> &str {
        "RhoPhi"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let src = [
            self.phi_r.view(),
            self.phi_i.view(),
            self.d_r.view(),
            self.d_i.view(),
        ];
        let dst = [self.rho_r.view_mut(), self.rho_i.view_mut()];
        g.for_each_lane(self.items_per_wi, self.n, &mut RhoPhiBody(src, dst));
    }

    fn profile(&self) -> KernelProfile {
        KernelProfile::streaming(6.0, 24.0).coalesced(self.items_per_wi)
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::mrifhd_rhophi(
            self.n,
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }
}

/// The FH sums of the `L::WIDTH` voxels from `v` as the kernel computes
/// them (`[x, y, z]` in, `[rFH, iFH]` out): [`reference_fh`]'s loop, run
/// once for all lanes, with `sin`/`cos` from [`cl_vec::sin_cos`] (the
/// references keep std's).
struct FhVoxels<'a> {
    xyz: [BufView<'a, f32>; 3],
    ks: KSpace<'a>,
    rho: [&'a [f32]; 2],
    out: [BufViewMut<'a, f32>; 2],
}

impl LaneBody for FhVoxels<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, v: usize, _wi: &WorkItem) {
        let [x, y, z] = self.xyz.each_ref().map(|b| b.load::<L>(v));
        let [rr, ri] = self.rho;
        let mut fr = L::splat(0.0);
        let mut fi = L::splat(0.0);
        for (k, (&wr, &wi)) in self.ks.iter().zip(rr.iter().zip(ri)) {
            let (s, c) = phase(k, x, y, z).sin_cos();
            let (wr, wi) = (L::splat(wr), L::splat(wi));
            fr = fr + (wr * c + wi * s);
            fi = fi + (wi * c - wr * s);
        }
        self.out[0].store(v, fr);
        self.out[1].store(v, fi);
    }
}

/// `FH`: per voxel, accumulate `rRho·cos + iRho·sin` phase sums (the same
/// loop shape as MRI-Q's ComputeQ, with the ρΦ weights).
pub struct Fh {
    pub x: Buffer<f32>,
    pub y: Buffer<f32>,
    pub z: Buffer<f32>,
    pub kx: Buffer<f32>,
    pub ky: Buffer<f32>,
    pub kz: Buffer<f32>,
    pub rho_r: Buffer<f32>,
    pub rho_i: Buffer<f32>,
    pub fh_r: Buffer<f32>,
    pub fh_i: Buffer<f32>,
    pub n_voxels: usize,
    pub items_per_wi: usize,
}

impl Kernel for Fh {
    fn name(&self) -> &str {
        "FH"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        // A block's or step's lanes are adjacent voxels, which share every
        // k-sample.
        let (kx, ky, kz) = (self.kx.view(), self.ky.view(), self.kz.view());
        let ks = KSpace::new(&kx, &ky, &kz);
        let (rr, ri) = (self.rho_r.view(), self.rho_i.view());
        let mut body = FhVoxels {
            xyz: [self.x.view(), self.y.view(), self.z.view()],
            ks,
            rho: [rr.slice(0, ks.len()), ri.slice(0, ks.len())],
            out: [self.fh_r.view_mut(), self.fh_i.view_mut()],
        };
        g.for_each_lane(self.items_per_wi, self.n_voxels, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        let nk = self.kx.len() as f64;
        let k = self.items_per_wi as f64;
        KernelProfile {
            flops: 18.0 * nk * k,
            mem_bytes: 20.0 * k,
            chain_ops: 4.0 * nk * k,
            ilp: 2.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: 3.0 * k,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        Some(crate::access::mrifhd_fh(
            self.n_voxels,
            self.kx.len(),
            self.items_per_wi,
            range.lint_geometry(),
        ))
    }
}

/// Serial references.
pub fn reference_rhophi(
    phi_r: &[f32],
    phi_i: &[f32],
    d_r: &[f32],
    d_i: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let n = phi_r.len();
    let mut rr = Vec::with_capacity(n);
    let mut ri = Vec::with_capacity(n);
    for i in 0..n {
        rr.push(phi_r[i] * d_r[i] + phi_i[i] * d_i[i]);
        ri.push(phi_r[i] * d_i[i] - phi_i[i] * d_r[i]);
    }
    (rr, ri)
}

pub fn reference_fh(
    vox: &Voxels,
    traj: &Trajectory,
    rho_r: &[f32],
    rho_i: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let mut out_r = Vec::with_capacity(vox.len());
    let mut out_i = Vec::with_capacity(vox.len());
    for v in 0..vox.len() {
        let mut fr = 0.0f32;
        let mut fi = 0.0f32;
        for k in 0..traj.len() {
            let arg =
                TWO_PI * (traj.kx[k] * vox.x[v] + traj.ky[k] * vox.y[v] + traj.kz[k] * vox.z[v]);
            let (s, c) = arg.sin_cos();
            fr += rho_r[k] * c + rho_i[k] * s;
            fi += rho_i[k] * c - rho_r[k] * s;
        }
        out_r.push(fr);
        out_i.push(fi);
    }
    (out_r, out_i)
}

/// OpenMP port of FH.
pub fn openmp_fh(
    team: &Team,
    vox: &Voxels,
    traj: &Trajectory,
    rho_r: &[f32],
    rho_i: &[f32],
    out_r: &mut [f32],
    out_i: &mut [f32],
) {
    struct Out<'a>(&'a mut f32, &'a mut f32);
    let mut outs: Vec<Out> = out_r
        .iter_mut()
        .zip(out_i.iter_mut())
        .map(|(r, i)| Out(r, i))
        .collect();
    team.parallel_for_mut(&mut outs, Schedule::Dynamic { chunk: 16 }, |v, o| {
        let mut fr = 0.0f32;
        let mut fi = 0.0f32;
        for k in 0..traj.len() {
            let arg =
                TWO_PI * (traj.kx[k] * vox.x[v] + traj.ky[k] * vox.y[v] + traj.kz[k] * vox.z[v]);
            let (s, c) = arg.sin_cos();
            fr += rho_r[k] * c + rho_i[k] * s;
            fi += rho_i[k] * c - rho_r[k] * s;
        }
        *o.0 = fr;
        *o.1 = fi;
    });
}

/// Build `RhoPhi` (Table III: n = 3072, local 512).
pub fn build_rhophi(
    ctx: &Context,
    n: usize,
    items_per_wi: usize,
    local: Option<usize>,
    seed: u64,
) -> Built {
    assert!(n.is_multiple_of(items_per_wi), "coalescing must divide n");
    let hr = random_f32(seed, n, -1.0, 1.0);
    let hi = random_f32(seed ^ 0x1, n, -1.0, 1.0);
    let hdr = random_f32(seed ^ 0x2, n, -1.0, 1.0);
    let hdi = random_f32(seed ^ 0x3, n, -1.0, 1.0);
    let phi_r = ctx.buffer_from(MemFlags::READ_ONLY, &hr).unwrap();
    let phi_i = ctx.buffer_from(MemFlags::READ_ONLY, &hi).unwrap();
    let d_r = ctx.buffer_from(MemFlags::READ_ONLY, &hdr).unwrap();
    let d_i = ctx.buffer_from(MemFlags::READ_ONLY, &hdi).unwrap();
    let rho_r = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let rho_i = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
    let kernel = Arc::new(RhoPhi {
        phi_r,
        phi_i,
        d_r,
        d_i,
        rho_r: rho_r.clone(),
        rho_i: rho_i.clone(),
        n,
        items_per_wi,
    });
    let mut range = NDRange::d1(n / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let (want_r, want_i) = reference_rhophi(&hr, &hi, &hdr, &hdi);
    Built::new(kernel, range, move |q| {
        let mut gr = vec![0.0f32; n];
        let mut gi = vec![0.0f32; n];
        q.read_buffer(&rho_r, 0, &mut gr)
            .map_err(|e| e.to_string())?;
        q.read_buffer(&rho_i, 0, &mut gi)
            .map_err(|e| e.to_string())?;
        let er = max_rel_error(&gr, &want_r, 1e-3);
        let ei = max_rel_error(&gi, &want_i, 1e-3);
        if er < 1e-4 && ei < 1e-4 {
            Ok(())
        } else {
            Err(format!("RhoPhi: err {er}/{ei}"))
        }
    })
}

/// Build `FH` (Table III: 32768 voxels, local 256).
pub fn build_fh(
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
    let traj = Trajectory::generate(seed ^ 0xFEED, k_samples);
    let hrr = random_f32(seed ^ 0x4, k_samples, -1.0, 1.0);
    let hri = random_f32(seed ^ 0x5, k_samples, -1.0, 1.0);
    let x = ctx.buffer_from(MemFlags::READ_ONLY, &vox.x).unwrap();
    let y = ctx.buffer_from(MemFlags::READ_ONLY, &vox.y).unwrap();
    let z = ctx.buffer_from(MemFlags::READ_ONLY, &vox.z).unwrap();
    let kx = ctx.buffer_from(MemFlags::READ_ONLY, &traj.kx).unwrap();
    let ky = ctx.buffer_from(MemFlags::READ_ONLY, &traj.ky).unwrap();
    let kz = ctx.buffer_from(MemFlags::READ_ONLY, &traj.kz).unwrap();
    let rho_r = ctx.buffer_from(MemFlags::READ_ONLY, &hrr).unwrap();
    let rho_i = ctx.buffer_from(MemFlags::READ_ONLY, &hri).unwrap();
    let fh_r = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_voxels).unwrap();
    let fh_i = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_voxels).unwrap();
    let kernel = Arc::new(Fh {
        x,
        y,
        z,
        kx,
        ky,
        kz,
        rho_r,
        rho_i,
        fh_r: fh_r.clone(),
        fh_i: fh_i.clone(),
        n_voxels,
        items_per_wi,
    });
    let mut range = NDRange::d1(n_voxels / items_per_wi);
    if let Some(l) = local {
        range = range.local1(l);
    }
    let (want_r, want_i) = reference_fh(&vox, &traj, &hrr, &hri);
    Built::new(kernel, range, move |q| {
        let mut gr = vec![0.0f32; n_voxels];
        let mut gi = vec![0.0f32; n_voxels];
        q.read_buffer(&fh_r, 0, &mut gr)
            .map_err(|e| e.to_string())?;
        q.read_buffer(&fh_i, 0, &mut gi)
            .map_err(|e| e.to_string())?;
        let er = max_rel_error(&gr, &want_r, 1e-1);
        let ei = max_rel_error(&gi, &want_i, 1e-1);
        if er < 1e-2 && ei < 1e-2 {
            Ok(())
        } else {
            Err(format!("FH: err {er}/{ei}"))
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
    fn rhophi_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build_rhophi(&ctx, 3072, 1, Some(512), 3);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn rhophi_coalescing_preserves_results() {
        let ctx = ctx();
        let q = ctx.queue();
        for k in [2, 4] {
            let b = build_rhophi(&ctx, 3072, k, None, 5);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn fh_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build_fh(&ctx, 256, 64, 1, Some(128), 7);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn openmp_fh_matches() {
        let team = Team::new(2).unwrap();
        let vox = Voxels::generate(1, 64);
        let traj = Trajectory::generate(2, 32);
        let rr = random_f32(3, 32, -1.0, 1.0);
        let ri = random_f32(4, 32, -1.0, 1.0);
        let mut or = vec![0.0f32; 64];
        let mut oi = vec![0.0f32; 64];
        openmp_fh(&team, &vox, &traj, &rr, &ri, &mut or, &mut oi);
        let (wr, wi) = reference_fh(&vox, &traj, &rr, &ri);
        crate::util::assert_close(&or, &wr, 1e-3);
        crate::util::assert_close(&oi, &wi, 1e-3);
    }
}
