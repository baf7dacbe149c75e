//! MBench1–8: the vectorization microbenchmarks of Section III-F /
//! Figure 10.
//!
//! Each benchmark is one elementwise computation expressed both ways:
//!
//! * as an **OpenMP loop**, whose loop IR is fed to the
//!   [`cl_vec::LoopVectorizer`] — if the legality rules refuse it, the
//!   OpenMP plane executes the scalar body;
//! * as an **OpenCL kernel**, where the implicit vectorizer packs workitems
//!   into lanes and needs no dependence analysis — it succeeds on every
//!   bench except opaque calls (none here), possibly paying gather costs.
//!
//! The eight benches cover the legality spectrum: clean elementwise code
//! (both vectorize), within-workitem dependence chains (Figure 11's case —
//! OpenCL only), non-contiguous and gathered access (OpenCL with gathers),
//! data-dependent branches, uncountable inner loops, and SVML-style math
//! calls (both vectorize).

use std::sync::Arc;

use cl_vec::{
    analyze_opencl_kernel, ArrayId, IndexExpr, Lane, Loop, LoopVectorizer, MathFn, Op, Operand,
    Stmt, Temp, TripCount, VecF32, VectorizationReport, VectorizerPolicy,
};
use ocl_rt::{
    BufViewMut, Buffer, Context, GroupCtx, Kernel, KernelProfile, LaneBody, MemFlags, NDRange,
    WorkItem,
};
use par_for::{Schedule, Team};

use crate::apps::Built;
use crate::util::{max_rel_error, random_f32};

/// Computes outputs `start .. start + c.len()` from the full `a`, `b`.
pub type ElemFn = fn(a: &[f32], b: &[f32], c: &mut [f32], start: usize);

/// One vectorization microbenchmark.
pub struct MBench {
    /// 1-based id matching the figure ("MBench3").
    pub id: usize,
    pub name: &'static str,
    /// What property the bench isolates.
    pub trait_under_test: &'static str,
    /// FP operations per output element.
    pub flops_per_elem: f64,
    /// Input elements needed per output element (and a fixed pad).
    pub in_factor: usize,
    pub in_pad: usize,
    /// Scalar body (also the serial reference).
    pub scalar: ElemFn,
    /// SIMD body (exact same math, lane-parallel).
    pub simd: ElemFn,
    /// The OpenMP-loop IR submitted to the loop vectorizer.
    pub omp_ir: fn() -> Loop,
}

impl MBench {
    /// Input length for `n_out` outputs.
    pub fn input_len(&self, n_out: usize) -> usize {
        n_out * self.in_factor + self.in_pad
    }

    /// The loop auto-vectorizer's verdict on the OpenMP form.
    pub fn openmp_report(&self, policy: VectorizerPolicy) -> VectorizationReport {
        LoopVectorizer::new(policy).analyze(&(self.omp_ir)())
    }

    /// The implicit vectorizer's verdict on the OpenCL form (same body,
    /// lanes = workitems).
    pub fn opencl_report(&self, policy: VectorizerPolicy) -> VectorizationReport {
        analyze_opencl_kernel(&(self.omp_ir)(), policy)
    }

    /// Run the OpenMP plane: consult the vectorizer, then execute scalar or
    /// SIMD accordingly. Returns the report that drove the decision.
    pub fn run_openmp(
        &self,
        team: &Team,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        policy: VectorizerPolicy,
    ) -> VectorizationReport {
        let report = self.openmp_report(policy);
        let f = if report.vectorized {
            self.simd
        } else {
            self.scalar
        };
        self.run_parallel(team, a, b, c, f);
        report
    }

    /// Run the OpenCL plane (implicit vectorization across workitems).
    pub fn run_opencl_plane(&self, team: &Team, a: &[f32], b: &[f32], c: &mut [f32]) {
        self.run_parallel(team, a, b, c, self.simd);
    }

    fn run_parallel(&self, team: &Team, a: &[f32], b: &[f32], c: &mut [f32], f: ElemFn) {
        let n = c.len();
        let chunk = usize::max(n / (team.threads() * 8), 64);
        let mut chunks: Vec<(usize, &mut [f32])> = Vec::new();
        let mut start = 0;
        let mut rest = c;
        while start < n {
            let take = usize::min(chunk, rest.len());
            let (head, tail) = rest.split_at_mut(take);
            chunks.push((start, head));
            rest = tail;
            start += take;
        }
        team.parallel_for_mut(
            &mut chunks,
            Schedule::Dynamic { chunk: 1 },
            |_, (s, sub)| {
                f(a, b, sub, *s);
            },
        );
    }

    /// Serial reference.
    pub fn reference(&self, a: &[f32], b: &[f32], n_out: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; n_out];
        (self.scalar)(a, b, &mut c, 0);
        c
    }
}

// ---------------------------------------------------------------------------
// Bench bodies. Each is one match arm over `T: Lane`, so its scalar run
// (`T = f32`) and SIMD run (`T = VecF32<4>`, lanes = adjacent elements)
// are the same math and agree bit for bit.
// ---------------------------------------------------------------------------

const CHAIN: usize = 8;
const NEWTON_ITERS: usize = 6;

/// MBench`ID`'s outputs `i .. i + T::WIDTH` from the full `a`, `b`.
#[inline(always)]
fn bench<const ID: usize, T: Lane>(a: &[f32], b: &[f32], i: usize) -> T {
    match ID {
        1 => T::load(a, i) * T::load(b, i),
        2 => {
            // Lane `l` works on element `i + l`: its chain inputs are
            // strided.
            let mut acc = T::splat(1.0);
            for j in 0..CHAIN {
                let at = i * CHAIN + j;
                acc = acc * T::load_strided(a, at, CHAIN) + T::load_strided(b, at, CHAIN);
            }
            acc
        }
        3 => T::load_strided(a, 2 * i, 2) + T::load_strided(a, 2 * i + 1, 2),
        4 => T::load_strided(a, 3 * i, 3) + T::load(b, i),
        5 => T::load(a, i + 1) - T::load(a, i),
        6 => {
            let (va, zero) = (T::load(a, i), T::splat(0.0));
            va.select_gt(zero, (va * T::load(b, i)).abs().sqrt(), zero)
        }
        7 => {
            let v = T::load(a, i).abs() + T::splat(1.0);
            let mut x = v;
            // In the source program this loop exits on convergence (trip
            // count data-dependent); both planes execute the fixed worst
            // case so the arithmetic matches.
            for _ in 0..NEWTON_ITERS {
                x = T::splat(0.5) * (x + v / x);
            }
            x
        }
        8 => T::load(a, i).exp() * T::load(b, i),
        _ => unreachable!("MBench{ID} does not exist"),
    }
}

/// The OpenMP plane's loop over `c` (outputs `s ..`): `T::WIDTH` outputs
/// per iteration, the remainder one at a time.
fn elems<const ID: usize, T: Lane>(a: &[f32], b: &[f32], c: &mut [f32], s: usize) {
    let main = c.len() - c.len() % T::WIDTH;
    let mut k = 0;
    while k < main {
        bench::<ID, T>(a, b, s + k).store(c, k);
        k += T::WIDTH;
    }
    for (k, out) in c.iter_mut().enumerate().skip(main) {
        *out = bench::<ID, f32>(a, b, s + k);
    }
}

// ---------------------------------------------------------------------------
// Loop IRs (the OpenMP forms as the compiler front-end sees them).
// ---------------------------------------------------------------------------

fn ir_elementwise_mul() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::linear(),
            },
            Stmt::Load {
                dst: Temp(1),
                array: ArrayId(1),
                index: IndexExpr::linear(),
            },
            Stmt::BinOp {
                dst: Temp(2),
                op: Op::Mul,
                lhs: Operand::Temp(Temp(0)),
                rhs: Operand::Temp(Temp(1)),
            },
            Stmt::Store {
                array: ArrayId(2),
                index: IndexExpr::linear(),
                src: Operand::Temp(Temp(2)),
            },
        ],
    )
}

fn ir_fmul_chain() -> Loop {
    // The Figure 11 inner loop: acc = acc*a[j] + b[j].
    Loop::new(
        TripCount::Constant(CHAIN as u64),
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::linear(),
            },
            Stmt::Load {
                dst: Temp(1),
                array: ArrayId(1),
                index: IndexExpr::linear(),
            },
            Stmt::AccUpdate {
                op: Op::Mul,
                value: Operand::Temp(Temp(0)),
            },
            Stmt::AccUpdate {
                op: Op::Add,
                value: Operand::Temp(Temp(1)),
            },
        ],
    )
}

fn ir_strided() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::strided(2),
            },
            Stmt::Load {
                dst: Temp(1),
                array: ArrayId(0),
                index: IndexExpr {
                    stride: 2,
                    offset: 1,
                },
            },
            Stmt::BinOp {
                dst: Temp(2),
                op: Op::Add,
                lhs: Operand::Temp(Temp(0)),
                rhs: Operand::Temp(Temp(1)),
            },
            Stmt::Store {
                array: ArrayId(2),
                index: IndexExpr::linear(),
                src: Operand::Temp(Temp(2)),
            },
        ],
    )
}

fn ir_gather3() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::strided(3),
            },
            Stmt::Load {
                dst: Temp(1),
                array: ArrayId(1),
                index: IndexExpr::linear(),
            },
            Stmt::BinOp {
                dst: Temp(2),
                op: Op::Add,
                lhs: Operand::Temp(Temp(0)),
                rhs: Operand::Temp(Temp(1)),
            },
            Stmt::Store {
                array: ArrayId(2),
                index: IndexExpr::linear(),
                src: Operand::Temp(Temp(2)),
            },
        ],
    )
}

fn ir_stencil() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::shifted(1),
            },
            Stmt::Load {
                dst: Temp(1),
                array: ArrayId(0),
                index: IndexExpr::linear(),
            },
            Stmt::BinOp {
                dst: Temp(2),
                op: Op::Sub,
                lhs: Operand::Temp(Temp(0)),
                rhs: Operand::Temp(Temp(1)),
            },
            Stmt::Store {
                array: ArrayId(2),
                index: IndexExpr::linear(),
                src: Operand::Temp(Temp(2)),
            },
        ],
    )
}

fn ir_branch() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::linear(),
            },
            Stmt::BinOp {
                dst: Temp(1),
                op: Op::CmpLt,
                lhs: Operand::Const(0.0),
                rhs: Operand::Temp(Temp(0)),
            },
            Stmt::If {
                cond: Operand::Temp(Temp(1)),
                then_body: vec![
                    Stmt::Load {
                        dst: Temp(2),
                        array: ArrayId(1),
                        index: IndexExpr::linear(),
                    },
                    Stmt::BinOp {
                        dst: Temp(3),
                        op: Op::Mul,
                        lhs: Operand::Temp(Temp(0)),
                        rhs: Operand::Temp(Temp(2)),
                    },
                    Stmt::MathCall {
                        dst: Temp(4),
                        func: MathFn::Sqrt,
                        arg: Operand::Temp(Temp(3)),
                    },
                    Stmt::Store {
                        array: ArrayId(2),
                        index: IndexExpr::linear(),
                        src: Operand::Temp(Temp(4)),
                    },
                ],
                else_body: vec![Stmt::Store {
                    array: ArrayId(2),
                    index: IndexExpr::linear(),
                    src: Operand::Const(0.0),
                }],
            },
        ],
    )
}

fn ir_uncountable() -> Loop {
    Loop::new(
        TripCount::DataDependent,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::constant(0),
            },
            Stmt::AccUpdate {
                op: Op::Add,
                value: Operand::Temp(Temp(0)),
            },
        ],
    )
}

fn ir_exp_mul() -> Loop {
    Loop::new(
        TripCount::Runtime,
        vec![
            Stmt::Load {
                dst: Temp(0),
                array: ArrayId(0),
                index: IndexExpr::linear(),
            },
            Stmt::MathCall {
                dst: Temp(1),
                func: MathFn::Exp,
                arg: Operand::Temp(Temp(0)),
            },
            Stmt::Load {
                dst: Temp(2),
                array: ArrayId(1),
                index: IndexExpr::linear(),
            },
            Stmt::BinOp {
                dst: Temp(3),
                op: Op::Mul,
                lhs: Operand::Temp(Temp(1)),
                rhs: Operand::Temp(Temp(2)),
            },
            Stmt::Store {
                array: ArrayId(2),
                index: IndexExpr::linear(),
                src: Operand::Temp(Temp(3)),
            },
        ],
    )
}

/// The eight benchmarks of Figure 10.
pub fn all() -> Vec<MBench> {
    vec![
        MBench {
            id: 1,
            name: "MBench1",
            trait_under_test: "clean elementwise multiply",
            flops_per_elem: 1.0,
            in_factor: 1,
            in_pad: 0,
            scalar: elems::<1, f32>,
            simd: elems::<1, VecF32<4>>,
            omp_ir: ir_elementwise_mul,
        },
        MBench {
            id: 2,
            name: "MBench2",
            trait_under_test: "FMUL dependence chain (Fig. 11)",
            flops_per_elem: 2.0 * CHAIN as f64,
            in_factor: CHAIN,
            in_pad: 0,
            scalar: elems::<2, f32>,
            simd: elems::<2, VecF32<4>>,
            omp_ir: ir_fmul_chain,
        },
        MBench {
            id: 3,
            name: "MBench3",
            trait_under_test: "non-unit stride (2)",
            flops_per_elem: 1.0,
            in_factor: 2,
            in_pad: 8,
            scalar: elems::<3, f32>,
            simd: elems::<3, VecF32<4>>,
            omp_ir: ir_strided,
        },
        MBench {
            id: 4,
            name: "MBench4",
            trait_under_test: "non-unit stride (3)",
            flops_per_elem: 1.0,
            in_factor: 3,
            in_pad: 12,
            scalar: elems::<4, f32>,
            simd: elems::<4, VecF32<4>>,
            omp_ir: ir_gather3,
        },
        MBench {
            id: 5,
            name: "MBench5",
            trait_under_test: "forward stencil (vectorizable)",
            flops_per_elem: 1.0,
            in_factor: 1,
            in_pad: 8,
            scalar: elems::<5, f32>,
            simd: elems::<5, VecF32<4>>,
            omp_ir: ir_stencil,
        },
        MBench {
            id: 6,
            name: "MBench6",
            trait_under_test: "data-dependent branch",
            flops_per_elem: 3.0,
            in_factor: 1,
            in_pad: 0,
            scalar: elems::<6, f32>,
            simd: elems::<6, VecF32<4>>,
            omp_ir: ir_branch,
        },
        MBench {
            id: 7,
            name: "MBench7",
            trait_under_test: "uncountable inner loop",
            flops_per_elem: 4.0 * NEWTON_ITERS as f64,
            in_factor: 1,
            in_pad: 0,
            scalar: elems::<7, f32>,
            simd: elems::<7, VecF32<4>>,
            omp_ir: ir_uncountable,
        },
        MBench {
            id: 8,
            name: "MBench8",
            trait_under_test: "SVML math call (both vectorize)",
            flops_per_elem: 10.0,
            in_factor: 1,
            in_pad: 0,
            scalar: elems::<8, f32>,
            simd: elems::<8, VecF32<4>>,
            omp_ir: ir_exp_mul,
        },
    ]
}

/// An `ocl-rt` kernel wrapping one MBench (the OpenCL plane as an actual
/// NDRange launch).
pub struct MBenchKernel {
    pub bench: usize, // index into all()
    pub a: Buffer<f32>,
    pub b: Buffer<f32>,
    pub c: Buffer<f32>,
    pub n_out: usize,
}

/// MBench`ID` on the `L::WIDTH` outputs from `i`.
struct Body<'a, const ID: usize> {
    a: &'a [f32],
    b: &'a [f32],
    c: BufViewMut<'a, f32>,
}

impl<const ID: usize> LaneBody for Body<'_, ID> {
    #[inline(always)]
    fn at<L: Lane>(&mut self, i: usize, _wi: &WorkItem) {
        self.c.store(i, bench::<ID, L>(self.a, self.b, i));
    }
}

impl MBenchKernel {
    fn walk<const ID: usize>(&self, g: &mut GroupCtx) {
        let (a, b) = (self.a.view(), self.b.view());
        let mut body = Body::<ID> {
            a: a.slice(0, a.len()),
            b: b.slice(0, b.len()),
            c: self.c.view_mut(),
        };
        g.for_each_lane(1, self.n_out, &mut body);
    }
}

impl Kernel for MBenchKernel {
    fn name(&self) -> &str {
        all()[self.bench].name
    }

    fn run_group(&self, g: &mut GroupCtx) {
        match self.bench + 1 {
            1 => self.walk::<1>(g),
            2 => self.walk::<2>(g),
            3 => self.walk::<3>(g),
            4 => self.walk::<4>(g),
            5 => self.walk::<5>(g),
            6 => self.walk::<6>(g),
            7 => self.walk::<7>(g),
            8 => self.walk::<8>(g),
            id => panic!("MBench{id} does not exist"),
        }
    }

    fn profile(&self) -> KernelProfile {
        let bench = &all()[self.bench];
        KernelProfile::streaming(bench.flops_per_elem, 12.0 * bench.in_factor as f64)
    }
}

/// Build an MBench as an NDRange launch.
pub fn build(ctx: &Context, bench_idx: usize, n_out: usize, wg: usize, seed: u64) -> Built {
    let benches = all();
    let bench = &benches[bench_idx];
    let n_in = bench.input_len(n_out);
    let ha = random_f32(seed, n_in, 0.1, 1.5);
    let hb = random_f32(seed ^ 0x66, n_in, 0.1, 1.5);
    let a = ctx.buffer_from(MemFlags::READ_ONLY, &ha).unwrap();
    let b = ctx.buffer_from(MemFlags::READ_ONLY, &hb).unwrap();
    let c = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n_out).unwrap();
    let kernel = Arc::new(MBenchKernel {
        bench: bench_idx,
        a,
        b,
        c: c.clone(),
        n_out,
    });
    let range = NDRange::d1(n_out.div_ceil(wg) * wg).local1(wg);
    let want = bench.reference(&ha, &hb, n_out);
    let name = bench.name;
    Built::new(kernel, range, move |q| {
        let mut got = vec![0.0f32; n_out];
        q.read_buffer(&c, 0, &mut got).map_err(|e| e.to_string())?;
        let err = max_rel_error(&got, &want, 1e-3);
        if err < 1e-3 {
            Ok(())
        } else {
            Err(format!("{name}: max rel error {err}"))
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
    fn scalar_and_simd_bodies_agree_everywhere() {
        for bench in all() {
            let n_out = 533; // odd length exercises tails
            let n_in = bench.input_len(n_out);
            let a = random_f32(bench.id as u64, n_in, 0.1, 1.5);
            let b = random_f32(bench.id as u64 ^ 0xF0, n_in, 0.1, 1.5);
            let want = bench.reference(&a, &b, n_out);
            let mut got = vec![0.0f32; n_out];
            (bench.simd)(&a, &b, &mut got, 0);
            let err = max_rel_error(&got, &want, 1e-3);
            assert!(err < 1e-4, "{}: simd disagrees (err {err})", bench.name);
        }
    }

    #[test]
    fn vectorizer_verdicts_match_the_paper_story() {
        let policy = VectorizerPolicy::default();
        let expected_omp = [true, false, false, false, true, false, false, true];
        for (bench, &want) in all().iter().zip(&expected_omp) {
            let r = bench.openmp_report(policy);
            assert_eq!(
                r.vectorized, want,
                "{} ({}) OpenMP verdict: {:?}",
                bench.name, bench.trait_under_test, r.reasons
            );
            // OpenCL always vectorizes these benches.
            assert!(
                bench.opencl_report(policy).vectorized,
                "{} OpenCL must vectorize",
                bench.name
            );
        }
    }

    #[test]
    fn openmp_runner_matches_reference_regardless_of_verdict() {
        let team = Team::new(3).unwrap();
        for bench in all() {
            let n_out = 1000;
            let n_in = bench.input_len(n_out);
            let a = random_f32(5, n_in, 0.1, 1.5);
            let b = random_f32(6, n_in, 0.1, 1.5);
            let mut c = vec![0.0f32; n_out];
            bench.run_openmp(&team, &a, &b, &mut c, VectorizerPolicy::default());
            let want = bench.reference(&a, &b, n_out);
            let err = max_rel_error(&c, &want, 1e-3);
            assert!(err < 1e-4, "{}: OpenMP plane err {err}", bench.name);
        }
    }

    #[test]
    fn opencl_kernels_match_reference() {
        let ctx = ctx();
        let q = ctx.queue();
        for idx in 0..all().len() {
            let built = build(&ctx, idx, 2048, 128, 9);
            q.enqueue_kernel(&built.kernel, built.range).unwrap();
            built.verify(&q).unwrap();
        }
    }

    #[test]
    fn opencl_plane_runner_matches() {
        let team = Team::new(2).unwrap();
        let bench = &all()[1]; // the Fig-11 chain bench
        let n_out = 512;
        let n_in = bench.input_len(n_out);
        let a = random_f32(7, n_in, 0.1, 1.5);
        let b = random_f32(8, n_in, 0.1, 1.5);
        let mut c = vec![0.0f32; n_out];
        bench.run_opencl_plane(&team, &a, &b, &mut c);
        let want = bench.reference(&a, &b, n_out);
        assert!(max_rel_error(&c, &want, 1e-3) < 1e-4);
    }
}
