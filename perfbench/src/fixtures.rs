//! The Table II/III kernels the workloads launch: seeded host inputs, the
//! device objects built from them, the serial `reference` oracles, and the
//! `par-for` twins — all on the same inputs.
//!
//! Kernels are assembled from their public `cl-kernels` types instead of the
//! `build*` helpers because those helpers compute the serial reference
//! inside the call: timing them would put the oracle into `setup_s`, and
//! the host inputs they generate are not returned for the twins.

use std::sync::Arc;

use cl_kernels::apps::{blackscholes, matrixmul, prefixsum, square, vectoradd};
use cl_kernels::parboil::{cp, mrifhd, mriq};
use cl_kernels::util::{max_rel_error, random_f32};
use ocl_rt::{Buffer, ClError, CommandQueue, Context, GroupCtx, Kernel, MemFlags, NDRange};
use par_for::{Schedule, Team};

/// A kernel of the study, by the key its metrics carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Square,
    PrefixSum,
    PhiMag,
    RhoPhi,
    MatMul,
    BlackScholes,
    Cp,
    ComputeQ,
    VectorAdd,
}

impl Key {
    pub const ALL: [Key; 9] = [
        Key::Square,
        Key::PrefixSum,
        Key::PhiMag,
        Key::RhoPhi,
        Key::MatMul,
        Key::BlackScholes,
        Key::Cp,
        Key::ComputeQ,
        Key::VectorAdd,
    ];

    /// The `launch-bound` job, in launch order.
    pub const LAUNCH: [Key; 4] = [Key::Square, Key::PrefixSum, Key::PhiMag, Key::RhoPhi];

    /// The `compute-bound` job, in launch order.
    pub const COMPUTE: [Key; 4] = [Key::MatMul, Key::BlackScholes, Key::Cp, Key::ComputeQ];

    pub fn name(self) -> &'static str {
        match self {
            Key::Square => "square",
            Key::PrefixSum => "prefixsum",
            Key::PhiMag => "phimag",
            Key::RhoPhi => "rhophi",
            Key::MatMul => "matmul",
            Key::BlackScholes => "blackscholes",
            Key::Cp => "cp",
            Key::ComputeQ => "computeq",
            Key::VectorAdd => "vectoradd",
        }
    }

    /// Per-key seed so kernels of one job never share input streams.
    fn seed(self, seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (self as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
    }

    /// Output tolerance `(max relative error, absolute floor)`, as the
    /// crate's own builders check it; `None` demands bit-exact output.
    fn tolerance(self) -> Option<(f32, f32)> {
        match self {
            Key::Square => Some((1e-5, 1e-5)),
            Key::PrefixSum => Some((1e-3, 1e-3)),
            Key::PhiMag => Some((1e-4, 1e-4)),
            Key::RhoPhi => Some((1e-4, 1e-3)),
            Key::MatMul => Some((5e-3, 1e-3)),
            Key::BlackScholes => Some((1e-3, 1e-2)),
            Key::Cp => Some((1e-3, 1e-2)),
            Key::ComputeQ => Some((1e-2, 1e-1)),
            Key::VectorAdd => None,
        }
    }

    /// Compare one output against its reference with the kernel's
    /// tolerance (bit-exact where the kernel has none).
    pub fn check(self, index: usize, got: &[f32], want: &[f32]) -> Result<(), String> {
        let name = self.name();
        if got.len() != want.len() {
            return Err(format!(
                "{name}[{index}]: {} values, want {}",
                got.len(),
                want.len()
            ));
        }
        match self.tolerance() {
            Some((tol, floor)) => {
                // `max_rel_error` folds with `f32::max`, which drops NaN, so
                // an unwritten (still poisoned) element is caught here.
                if let Some(i) = (0..got.len()).find(|&i| got[i].is_nan() != want[i].is_nan()) {
                    return Err(format!(
                        "{name}[{index}]: element {i} is {} want {}",
                        got[i], want[i]
                    ));
                }
                let err = max_rel_error(got, want, floor);
                if err > tol {
                    return Err(format!("{name}[{index}]: max rel error {err} > {tol}"));
                }
            }
            None => {
                if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
                    return Err(format!(
                        "{name}[{index}]: element {i} is {} want {}",
                        got[i], want[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Launch sizes. `launch-bound` uses the paper's Table II/III sizes;
/// `compute-bound` scales global sizes so each launch takes tens of
/// milliseconds on two workers; `transfer-bound` uses the Table II maximum
/// VectorAdd size.
pub mod size {
    pub const SQUARE_N: usize = 10_000;
    pub const PREFIX_N: usize = 1024;
    pub const MRI_N: usize = 3072;
    pub const MRI_LOCAL: usize = 512;
    pub const MATMUL_N: usize = 288;
    pub const MATMUL_TILE: usize = 16;
    pub const BS_GRID: usize = 768;
    pub const CP_NX: usize = 64;
    pub const CP_NY: usize = 256;
    pub const CP_ATOMS: usize = 1000;
    pub const Q_VOXELS: usize = 32_768;
    pub const Q_KSAMPLES: usize = 64;
    pub const Q_LOCAL: usize = 256;
    pub const VADD_N: usize = 11_445_000;
}

/// Seeded host inputs of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    Square(Vec<f32>),
    PrefixSum(Vec<f32>),
    PhiMag {
        r: Vec<f32>,
        i: Vec<f32>,
    },
    RhoPhi {
        phi_r: Vec<f32>,
        phi_i: Vec<f32>,
        d_r: Vec<f32>,
        d_i: Vec<f32>,
    },
    MatMul {
        a: Vec<f32>,
        b: Vec<f32>,
    },
    BlackScholes {
        s: Vec<f32>,
        x: Vec<f32>,
        t: Vec<f32>,
    },
    Cp(Vec<f32>),
    ComputeQ {
        x: Vec<f32>,
        y: Vec<f32>,
        z: Vec<f32>,
        kx: Vec<f32>,
        ky: Vec<f32>,
        kz: Vec<f32>,
        phi: Vec<f32>,
    },
    VectorAdd {
        a: Vec<f32>,
        b: Vec<f32>,
    },
}

/// One kernel's host side: inputs plus everything derived from them.
pub struct HostKernel {
    pub key: Key,
    pub inputs: Inputs,
}

/// One kernel's device side, built by [`HostKernel::upload`].
pub struct DevKernel {
    pub key: Key,
    pub kernel: Arc<dyn Kernel>,
    pub range: NDRange,
    /// Buffers uploaded from the host inputs, in creation order.
    pub inputs: Vec<Buffer<f32>>,
    /// Buffers the kernel writes, in [`HostKernel::reference`] order.
    pub outputs: Vec<Buffer<f32>>,
    /// An input the kernel overwrites in place (prefix sum), restored from
    /// the host copy before each job.
    pub inplace: Option<Buffer<f32>>,
}

impl HostKernel {
    pub fn generate(key: Key, seed: u64) -> Self {
        use size::*;
        let s = key.seed(seed);
        let r = |salt: u64, n: usize, lo: f32, hi: f32| random_f32(s ^ salt, n, lo, hi);
        let inputs = match key {
            Key::Square => Inputs::Square(r(0, SQUARE_N, -2.0, 2.0)),
            Key::PrefixSum => Inputs::PrefixSum(r(0, PREFIX_N, 0.0, 1.0)),
            Key::PhiMag => Inputs::PhiMag {
                r: r(0, MRI_N, -1.0, 1.0),
                i: r(1, MRI_N, -1.0, 1.0),
            },
            Key::RhoPhi => Inputs::RhoPhi {
                phi_r: r(0, MRI_N, -1.0, 1.0),
                phi_i: r(1, MRI_N, -1.0, 1.0),
                d_r: r(2, MRI_N, -1.0, 1.0),
                d_i: r(3, MRI_N, -1.0, 1.0),
            },
            Key::MatMul => Inputs::MatMul {
                a: r(0, MATMUL_N * MATMUL_N, -1.0, 1.0),
                b: r(1, MATMUL_N * MATMUL_N, -1.0, 1.0),
            },
            Key::BlackScholes => {
                let n = BS_GRID * BS_GRID;
                Inputs::BlackScholes {
                    s: r(0, n, 5.0, 30.0),
                    x: r(1, n, 1.0, 100.0),
                    t: r(2, n, 0.25, 10.0),
                }
            }
            Key::Cp => {
                Inputs::Cp(cp::Atoms::generate(s, CP_ATOMS, CP_NX as f32 * cp::SPACING).data)
            }
            Key::ComputeQ => {
                let vox = mriq::Voxels::generate(s, Q_VOXELS);
                let traj = mriq::Trajectory::generate(s ^ 0xBEEF, Q_KSAMPLES);
                Inputs::ComputeQ {
                    x: vox.x,
                    y: vox.y,
                    z: vox.z,
                    kx: traj.kx,
                    ky: traj.ky,
                    kz: traj.kz,
                    phi: traj.phi_mag,
                }
            }
            Key::VectorAdd => Inputs::VectorAdd {
                a: r(0, VADD_N, -10.0, 10.0),
                b: r(1, VADD_N, -10.0, 10.0),
            },
        };
        HostKernel { key, inputs }
    }

    /// Create the kernel's buffers in `ctx`, upload the inputs, and build
    /// the kernel object and its launch geometry.
    pub fn upload(&self, ctx: &Context) -> Result<DevKernel, ClError> {
        use size::*;
        let mut inputs = Vec::new();
        let mut ro = |d: &[f32]| {
            let buf = ctx.buffer_from(MemFlags::READ_ONLY, d)?;
            inputs.push(buf.clone());
            Ok::<_, ClError>(buf)
        };
        let wo = |n: usize| ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n);
        let key = self.key;
        let (kernel, range, outputs, inplace): (Arc<dyn Kernel>, _, Vec<Buffer<f32>>, _) =
            match &self.inputs {
                Inputs::Square(input) => {
                    let output = wo(input.len())?;
                    let k = square::Square {
                        input: ro(input)?,
                        output: output.clone(),
                        n: input.len(),
                        items_per_wi: 1,
                    };
                    (Arc::new(k), NDRange::d1(input.len()), vec![output], None)
                }
                Inputs::PrefixSum(input) => {
                    let data = ctx.buffer_from(MemFlags::READ_WRITE, input)?;
                    let n = input.len();
                    let k = prefixsum::PrefixSum {
                        data: data.clone(),
                        n,
                    };
                    (
                        Arc::new(k),
                        NDRange::d1(n).local1(n),
                        vec![data.clone()],
                        Some(data),
                    )
                }
                Inputs::PhiMag { r, i } => {
                    let out = wo(r.len())?;
                    let k = mriq::ComputePhiMag {
                        phi_r: ro(r)?,
                        phi_i: ro(i)?,
                        phi_mag: out.clone(),
                        n: r.len(),
                        items_per_wi: 1,
                    };
                    (
                        Arc::new(k),
                        NDRange::d1(r.len()).local1(MRI_LOCAL),
                        vec![out],
                        None,
                    )
                }
                Inputs::RhoPhi {
                    phi_r,
                    phi_i,
                    d_r,
                    d_i,
                } => {
                    let (rr, ri) = (wo(phi_r.len())?, wo(phi_r.len())?);
                    let k = mrifhd::RhoPhi {
                        phi_r: ro(phi_r)?,
                        phi_i: ro(phi_i)?,
                        d_r: ro(d_r)?,
                        d_i: ro(d_i)?,
                        rho_r: rr.clone(),
                        rho_i: ri.clone(),
                        n: phi_r.len(),
                        items_per_wi: 1,
                    };
                    (
                        Arc::new(k),
                        NDRange::d1(phi_r.len()).local1(MRI_LOCAL),
                        vec![rr, ri],
                        None,
                    )
                }
                Inputs::MatMul { a, b } => {
                    let n = MATMUL_N;
                    let c = wo(n * n)?;
                    let k = matrixmul::MatrixMul {
                        a: ro(a)?,
                        b: ro(b)?,
                        c: c.clone(),
                        w: n,
                        h: n,
                        k: n,
                    };
                    let range = NDRange::d2(n, n).local2(MATMUL_TILE, MATMUL_TILE);
                    (Arc::new(k), range, vec![c], None)
                }
                Inputs::BlackScholes { s, x, t } => {
                    let (call, put) = (wo(s.len())?, wo(s.len())?);
                    let k = blackscholes::BlackScholes {
                        stock: ro(s)?,
                        strike: ro(x)?,
                        years: ro(t)?,
                        call: call.clone(),
                        put: put.clone(),
                        n_options: s.len(),
                        grid_items: BS_GRID * BS_GRID,
                    };
                    let range = NDRange::d2(BS_GRID, BS_GRID).local2(16, 16);
                    (Arc::new(k), range, vec![call, put], None)
                }
                Inputs::Cp(atoms) => {
                    let grid = wo(CP_NX * CP_NY)?;
                    let k = cp::Cenergy {
                        atoms: ro(atoms)?,
                        grid: grid.clone(),
                        nx: CP_NX,
                        ny: CP_NY,
                        items_per_wi: 1,
                    };
                    let range = NDRange::d2(CP_NX, CP_NY).local2(16, 8);
                    (Arc::new(k), range, vec![grid], None)
                }
                Inputs::ComputeQ {
                    x,
                    y,
                    z,
                    kx,
                    ky,
                    kz,
                    phi,
                } => {
                    let (qr, qi) = (wo(x.len())?, wo(x.len())?);
                    let k = mriq::ComputeQ {
                        x: ro(x)?,
                        y: ro(y)?,
                        z: ro(z)?,
                        kx: ro(kx)?,
                        ky: ro(ky)?,
                        kz: ro(kz)?,
                        phi_mag: ro(phi)?,
                        qr: qr.clone(),
                        qi: qi.clone(),
                        n_voxels: x.len(),
                        items_per_wi: 1,
                    };
                    (
                        Arc::new(k),
                        NDRange::d1(x.len()).local1(Q_LOCAL),
                        vec![qr, qi],
                        None,
                    )
                }
                Inputs::VectorAdd { a, b } => {
                    let c = wo(a.len())?;
                    let k = vectoradd::VectorAdd {
                        a: ro(a)?,
                        b: ro(b)?,
                        c: c.clone(),
                        n: a.len(),
                        items_per_wi: 1,
                    };
                    (Arc::new(k), NDRange::d1(a.len()), vec![c], None)
                }
            };
        Ok(DevKernel {
            key,
            kernel,
            range,
            inputs,
            outputs,
            inplace,
        })
    }

    fn atoms(&self) -> Option<cp::Atoms> {
        match &self.inputs {
            Inputs::Cp(data) => Some(cp::Atoms { data: data.clone() }),
            _ => None,
        }
    }

    fn voxels_and_trajectory(&self) -> Option<(mriq::Voxels, mriq::Trajectory)> {
        match &self.inputs {
            Inputs::ComputeQ {
                x,
                y,
                z,
                kx,
                ky,
                kz,
                phi,
            } => Some((
                mriq::Voxels {
                    x: x.clone(),
                    y: y.clone(),
                    z: z.clone(),
                },
                mriq::Trajectory {
                    kx: kx.clone(),
                    ky: ky.clone(),
                    kz: kz.clone(),
                    phi_mag: phi.clone(),
                },
            )),
            _ => None,
        }
    }

    /// The crate's serial reference on these inputs: the oracle, and the
    /// single-thread baseline of `kernels.<k>.serial_ms`.
    pub fn reference(&self) -> Vec<Vec<f32>> {
        match &self.inputs {
            Inputs::Square(input) => vec![square::reference(input)],
            Inputs::PrefixSum(input) => vec![prefixsum::reference(input)],
            Inputs::PhiMag { r, i } => vec![mriq::reference_phimag(r, i)],
            Inputs::RhoPhi {
                phi_r,
                phi_i,
                d_r,
                d_i,
            } => {
                let (a, b) = mrifhd::reference_rhophi(phi_r, phi_i, d_r, d_i);
                vec![a, b]
            }
            Inputs::MatMul { a, b } => {
                let n = size::MATMUL_N;
                vec![matrixmul::reference(a, b, n, n, n)]
            }
            Inputs::BlackScholes { s, x, t } => {
                let (c, p) = blackscholes::reference(s, x, t);
                vec![c, p]
            }
            Inputs::Cp(_) => {
                let atoms = self.atoms().expect("cp inputs");
                vec![cp::reference(&atoms, size::CP_NX, size::CP_NY)]
            }
            Inputs::ComputeQ { .. } => {
                let (vox, traj) = self.voxels_and_trajectory().expect("computeQ inputs");
                let (r, i) = mriq::reference_q(&vox, &traj);
                vec![r, i]
            }
            Inputs::VectorAdd { a, b } => vec![vectoradd::reference(a, b)],
        }
    }

    /// Zeroed output vectors shaped like [`HostKernel::reference`].
    pub fn output_shapes(&self) -> Vec<Vec<f32>> {
        let n = |v: &Vec<f32>| vec![0.0f32; v.len()];
        match &self.inputs {
            Inputs::Square(i) | Inputs::PrefixSum(i) => vec![n(i)],
            Inputs::PhiMag { r, .. } => vec![n(r)],
            Inputs::RhoPhi { phi_r, .. } => vec![n(phi_r), n(phi_r)],
            Inputs::MatMul { a, .. } => vec![n(a)],
            Inputs::BlackScholes { s, .. } => vec![n(s), n(s)],
            Inputs::Cp(_) => vec![vec![0.0; size::CP_NX * size::CP_NY]],
            Inputs::ComputeQ { x, .. } => vec![n(x), n(x)],
            Inputs::VectorAdd { a, .. } => vec![n(a)],
        }
    }

    /// The `par-for` twin on the same inputs, writing into `outs` (shaped
    /// by [`HostKernel::output_shapes`]). Uses the crate's `openmp*` port
    /// where one exists, a plain `Team` loop otherwise.
    pub fn twin(&self, team: &Team, outs: &mut [Vec<f32>]) {
        let sched = Schedule::Static { chunk: None };
        match &self.inputs {
            Inputs::Square(input) => square::openmp(team, input, &mut outs[0], sched),
            Inputs::PrefixSum(input) => {
                outs[0].copy_from_slice(input);
                prefixsum::openmp(team, &mut outs[0]);
            }
            Inputs::PhiMag { r, i } => {
                team.parallel_for_mut(&mut outs[0], sched, |k, o| *o = r[k] * r[k] + i[k] * i[k]);
            }
            Inputs::RhoPhi {
                phi_r,
                phi_i,
                d_r,
                d_i,
            } => {
                let (rr, ri) = outs.split_at_mut(1);
                team.parallel_for_mut(&mut rr[0], sched, |k, o| {
                    *o = phi_r[k] * d_r[k] + phi_i[k] * d_i[k]
                });
                team.parallel_for_mut(&mut ri[0], sched, |k, o| {
                    *o = phi_r[k] * d_i[k] - phi_i[k] * d_r[k]
                });
            }
            Inputs::MatMul { a, b } => {
                let n = size::MATMUL_N;
                matrixmul::openmp(team, a, b, &mut outs[0], n, n);
            }
            Inputs::BlackScholes { s, x, t } => {
                let (call, put) = outs.split_at_mut(1);
                blackscholes::openmp(team, s, x, t, &mut call[0], &mut put[0]);
            }
            Inputs::Cp(_) => {
                let atoms = self.atoms().expect("cp inputs");
                cp::openmp(team, &atoms, &mut outs[0], size::CP_NX);
            }
            Inputs::ComputeQ { .. } => {
                let (vox, traj) = self.voxels_and_trajectory().expect("computeQ inputs");
                let (qr, qi) = outs.split_at_mut(1);
                mriq::openmp_q(team, &vox, &traj, &mut qr[0], &mut qi[0]);
            }
            Inputs::VectorAdd { a, b } => vectoradd::openmp(team, a, b, &mut outs[0], sched),
        }
    }
}

impl DevKernel {
    /// Overwrite every output with NaN and restore in-place inputs, so a
    /// launch that silently does nothing fails the next check.
    pub fn reset(&self, q: &CommandQueue, host: &HostKernel) -> Result<(), ClError> {
        match (&self.inplace, &host.inputs) {
            (Some(buf), Inputs::PrefixSum(input)) => {
                q.write_buffer(buf, 0, input)?;
            }
            _ => {
                for out in &self.outputs {
                    q.fill_buffer(out, f32::NAN)?;
                }
            }
        }
        Ok(())
    }

    /// Read every output back and check it against `want`.
    pub fn verify(
        &self,
        q: &CommandQueue,
        host: &HostKernel,
        want: &[Vec<f32>],
        scratch: &mut [Vec<f32>],
    ) -> Result<(), String> {
        for (i, out) in self.outputs.iter().enumerate() {
            q.read_buffer(out, 0, &mut scratch[i])
                .map_err(|e| e.to_string())?;
            host.key.check(i, &scratch[i], &want[i])?;
        }
        Ok(())
    }
}

/// A kernel that does nothing: the fixed cost of a launch, for the ladder.
pub struct Empty;

impl Kernel for Empty {
    fn name(&self) -> &str {
        "empty"
    }

    fn run_group(&self, _g: &mut GroupCtx) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for key in Key::ALL {
            let a = HostKernel::generate(key, 9);
            assert_eq!(
                a.inputs,
                HostKernel::generate(key, 9).inputs,
                "{}",
                key.name()
            );
            assert_ne!(
                a.inputs,
                HostKernel::generate(key, 10).inputs,
                "{}",
                key.name()
            );
        }
    }

    #[test]
    fn checks_reject_nan_and_honour_bit_exactness() {
        let want = [1.0f32, 2.0];
        assert!(Key::Square.check(0, &[1.0, 2.0], &want).is_ok());
        assert!(Key::Square.check(0, &[1.0, f32::NAN], &want).is_err());
        assert!(Key::VectorAdd
            .check(0, &[1.0, 2.0 + f32::EPSILON * 2.0], &want)
            .is_err());
        assert!(Key::MatMul.check(0, &[1.0, 2.001], &want).is_ok());
    }
}
