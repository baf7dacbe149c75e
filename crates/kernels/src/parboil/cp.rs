//! Parboil `CP` — Coulombic potential: for every point of a 2-D grid slice,
//! accumulate `q_i / r_i` over all atoms (Table III: global 64×512,
//! local 16×8).

use std::sync::Arc;

use cl_vec::Lane;
use ocl_rt::{
    BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags, NDRange,
    ResolvedRange, WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// Grid spacing used by the Parboil input deck.
pub const SPACING: f32 = 0.5;
/// Z coordinate of the computed slice.
pub const SLICE_Z: f32 = 0.0;

/// Atom array layout: `[x, y, z, q]` per atom.
#[derive(Debug, Clone)]
pub struct Atoms {
    pub data: Vec<f32>,
}

impl Atoms {
    /// `n` atoms placed deterministically inside the grid volume.
    pub fn generate(seed: u64, n: usize, extent: f32) -> Self {
        let xs = random_f32(seed, n, 0.0, extent);
        let ys = random_f32(seed ^ 0x1, n, 0.0, extent);
        let zs = random_f32(seed ^ 0x2, n, 0.1, 4.0);
        let qs = random_f32(seed ^ 0x3, n, -1.0, 1.0);
        let mut data = Vec::with_capacity(4 * n);
        for i in 0..n {
            data.extend_from_slice(&[xs[i], ys[i], zs[i], qs[i]]);
        }
        Atoms { data }
    }

    pub fn len(&self) -> usize {
        self.data.len() / 4
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The potential at the `T::WIDTH` points `x` of the row at `y`. Per atom,
/// `dy²` and `dz²` are shared by the lanes.
#[inline(always)]
fn potential<T: Lane>(x: T, y: f32, atoms: &[f32]) -> T {
    let mut e = T::splat(0.0);
    for a in atoms.chunks_exact(4) {
        let dx = x - T::splat(a[0]);
        let dy = y - a[1];
        let dz = SLICE_Z - a[2];
        let r2 = dx * dx + T::splat(dy * dy) + T::splat(dz * dz);
        e = e + T::splat(a[3]) / r2.sqrt();
    }
    e
}

/// Grid points `gx .. gx + L::WIDTH` of the workitem's row: four adjacent
/// points of one row are evaluated together per atom.
struct Points<'a> {
    grid: BufViewMut<'a, f32>,
    atoms: &'a [f32],
    nx: usize,
}

impl LaneBody for Points<'_> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, gx: usize, wi: &WorkItem) {
        let gy = wi.global_id(1);
        let x = L::from_fn(|j| (gx + j) as f32 * SPACING);
        let e = potential(x, gy as f32 * SPACING, self.atoms);
        self.grid.store(gy * self.nx + gx, e);
    }
}

/// The `cenergy` kernel: `items_per_wi` grid columns per workitem in x
/// (the paper's Figure 2 coalescing knob: 1, 2, 4).
pub struct Cenergy {
    pub atoms: Buffer<f32>,
    pub grid: Buffer<f32>,
    pub nx: usize,
    pub ny: usize,
    pub items_per_wi: usize,
}

impl Kernel for Cenergy {
    fn name(&self) -> &str {
        "cenergy"
    }

    fn run_group(&self, g: &mut GroupCtx) {
        let atoms = self.atoms.view();
        let mut body = Points {
            grid: self.grid.view_mut(),
            atoms: atoms.slice(0, atoms.len()),
            nx: self.nx,
        };
        g.for_each_lane(self.items_per_wi, self.nx, &mut body);
    }

    fn profile(&self) -> KernelProfile {
        let na = (self.atoms.len() / 4) as f64;
        let k = self.items_per_wi as f64;
        KernelProfile {
            flops: 10.0 * na * k,    // 3 sub, 3 mul, 2 add, rsqrt, div ≈ 10
            mem_bytes: 4.0 * k,      // atoms stay cached; one grid store
            chain_ops: 2.0 * na * k, // the accumulation chain
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: 1.0,
            local_traffic_bytes: 0.0,
        }
    }

    fn access_spec(&self, range: &ResolvedRange) -> Option<cl_analyze::KernelAccessSpec> {
        crate::access::cenergy(
            self.nx,
            self.ny,
            self.atoms.len(),
            self.items_per_wi,
            range.lint_geometry(),
        )
    }
}

/// Serial reference.
pub fn reference(atoms: &Atoms, nx: usize, ny: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; nx * ny];
    for gy in 0..ny {
        for gx in 0..nx {
            out[gy * nx + gx] = potential(gx as f32 * SPACING, gy as f32 * SPACING, &atoms.data);
        }
    }
    out
}

/// OpenMP port: rows parallel.
pub fn openmp(team: &Team, atoms: &Atoms, out: &mut [f32], nx: usize) {
    let mut rows: Vec<(usize, &mut [f32])> = out.chunks_mut(nx).enumerate().collect();
    team.parallel_for_mut(&mut rows, Schedule::Dynamic { chunk: 1 }, |_, (gy, row)| {
        let y = *gy as f32 * SPACING;
        for (gx, slot) in row.iter_mut().enumerate() {
            *slot = potential(gx as f32 * SPACING, y, &atoms.data);
        }
    });
}

/// Build the kernel (Table III geometry: 64×512 grid, local 16×8).
pub fn build(
    ctx: &Context,
    nx: usize,
    ny: usize,
    n_atoms: usize,
    items_per_wi: usize,
    local: Option<(usize, usize)>,
    seed: u64,
) -> Built {
    assert!(nx.is_multiple_of(items_per_wi), "coalescing must divide nx");
    let atoms = Atoms::generate(seed, n_atoms, nx as f32 * SPACING);
    let a = ctx.buffer_from(MemFlags::READ_ONLY, &atoms.data).unwrap();
    let grid = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, nx * ny).unwrap();
    let kernel = Arc::new(Cenergy {
        atoms: a,
        grid: grid.clone(),
        nx,
        ny,
        items_per_wi,
    });
    let mut range = NDRange::d2(nx / items_per_wi, ny);
    if let Some((lx, ly)) = local {
        range = range.local2(lx, ly);
    }
    let want = reference(&atoms, nx, ny);
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; want.len()];
        q.read_buffer(&grid, 0, &mut got)
            .map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-2);
        if err < 1e-3 {
            Ok(())
        } else {
            Err(format!("cenergy: max rel error {err}"))
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
    fn kernel_matches_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        let b = build(&ctx, 64, 32, 64, 1, Some((16, 8)), 7);
        q.enqueue_kernel(&b.kernel, b.range).unwrap();
        b.verify(&q).unwrap();
    }

    #[test]
    fn coalescing_factors_preserve_results() {
        let ctx = ctx();
        let q = ctx.queue();
        for k in [1, 2, 4] {
            let b = build(&ctx, 64, 16, 32, k, None, 9);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn workgroup_sweep_preserves_results() {
        let ctx = ctx();
        let q = ctx.queue();
        // Figure 5's cenergy(x) sweep: 1×8 … 16×8.
        for lx in [1, 2, 4, 8, 16] {
            let b = build(&ctx, 64, 16, 32, 1, Some((lx, 8)), 4);
            q.enqueue_kernel(&b.kernel, b.range).unwrap();
            b.verify(&q).unwrap();
        }
    }

    #[test]
    fn openmp_port_matches() {
        let team = Team::new(2).unwrap();
        let atoms = Atoms::generate(5, 48, 16.0);
        let mut out = vec![0.0f32; 32 * 8];
        openmp(&team, &atoms, &mut out, 32);
        crate::util::assert_close(&out, &reference(&atoms, 32, 8), 1e-4);
    }

    #[test]
    fn atom_generation_is_deterministic() {
        assert_eq!(
            Atoms::generate(1, 10, 8.0).data,
            Atoms::generate(1, 10, 8.0).data
        );
        assert_eq!(Atoms::generate(1, 10, 8.0).len(), 10);
    }
}
