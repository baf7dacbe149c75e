//! # cl-vec — vectorization engine and vectorizability analysis
//!
//! Section II-E / III-F of the reproduced paper contrasts two compiler
//! strategies on the *same* hardware SIMD units:
//!
//! * **OpenCL implicit vectorization** — the kernel compiler packs `W`
//!   adjacent *workitems* into the lanes of one SIMD instruction. No
//!   dependence analysis is needed: the NDRange contract already says
//!   workitems are independent. ([`analysis::analyze_opencl_kernel`])
//! * **OpenMP loop auto-vectorization** — the compiler must prove a loop
//!   legal to vectorize: countable, single entry/exit, straight-line body,
//!   contiguous access, no loop-carried dependences
//!   ([`analysis::LoopVectorizer`], implementing the rules of the Intel
//!   auto-vectorization guide the paper cites as \[17\]).
//!
//! Both strategies, when they succeed, execute through the same portable
//! lane type [`VecF32`], an array-backed vector, so wall-clock experiments
//! exercise real vector units. At `opt-level ≥ 2` LLVM lowers its
//! arithmetic (`+ − × ÷`, `mul_add`, `min`/`max`, `sqrt`, `rsqrt`,
//! `select`), loads, stores and [`VecF32::sin_cos`] to SIMD. `exp` and
//! `ln` do not: they call libm once per lane (and `gather` loads lane by
//! lane). [`sin_cos`] is the scalar twin of [`VecF32::sin_cos`],
//! bit-identical lane by lane.

pub mod analysis;
pub mod estimate;
pub mod ir;
mod lanes;
mod trig;

pub use analysis::{
    analyze_opencl_kernel, LoopVectorizer, Reason, VectorizationReport, VectorizerPolicy,
};
pub use estimate::{estimate, LoopShape, SpeedupEstimate};
pub use ir::{ArrayId, IndexExpr, Loop, MathFn, Op, Operand, Stmt, Temp, TripCount};
pub use lanes::{simd_apply, simd_apply2, F32x4, F32x8, VecF32};
pub use trig::sin_cos;
