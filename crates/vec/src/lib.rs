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
//! exercise real vector units. Kernel bodies are written once over the
//! [`Lane`] trait, which `f32` (one item) and `VecF32<W>` (`W` items)
//! implement with the same per-lane ops, so a lane step is bit-identical
//! to its scalar items. At `opt-level ≥ 2` LLVM lowers `VecF32`'s
//! arithmetic (`+ − × ÷`, `min`/`max`, `abs`, `sqrt`, `select_gt`), loads,
//! stores, `sin_cos`, `exp` and `ln` (the branch-free [`sin_cos`], [`exp`]
//! and [`ln`] per lane) to SIMD. Only `load_strided` loads lane by lane.

pub mod analysis;
pub mod estimate;
mod explog;
pub mod ir;
mod lanes;
mod trig;

pub use analysis::{
    analyze_opencl_kernel, LoopVectorizer, Reason, VectorizationReport, VectorizerPolicy,
};
pub use estimate::{estimate, LoopShape, SpeedupEstimate};
pub use explog::{exp, ln};
pub use ir::{ArrayId, IndexExpr, Loop, MathFn, Op, Operand, Stmt, Temp, TripCount};
pub use lanes::{Lane, VecF32};
pub use trig::sin_cos;
