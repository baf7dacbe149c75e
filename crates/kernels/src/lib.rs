//! # cl-kernels — the workloads of the study
//!
//! Every benchmark the paper evaluates (Tables II and III), implemented
//! three ways:
//!
//! 1. **OpenCL kernel** — an [`ocl_rt::Kernel`] with a scalar group body
//!    and, where the Intel implicit vectorizer would succeed, a SIMD group
//!    body; both call the kernel's one body written over [`cl_vec::Lane`],
//!    at `f32` per item and at `VecF32<4>` per lane step;
//! 2. **OpenMP port** — the same computation as a [`par_for::Team`]
//!    worksharing loop (the conventional-model baseline of Figure 10);
//! 3. **Serial reference** — the oracle for correctness tests.
//!
//! Simple applications (Table II): `Square`, `VectorAdd`, `MatrixMul`
//! (tiled, local memory), `MatrixMulNaive`, `Reduction`, `Histogram256`,
//! `PrefixSum`, `BlackScholes`, `BinomialOption`.
//!
//! Parboil benchmarks (Table III): `CP` (`cenergy`), `MRI-Q`
//! (`ComputePhiMag`, `ComputeQ`), `MRI-FHD` (`RhoPhi`, `FH`).
//!
//! Microbenchmarks: the ILP family of Figure 6 ([`ilp`]) and the
//! vectorization benchmarks MBench1–8 of Figure 10 ([`mbench`]).
//!
//! [`registry`] holds the Table II/III launch geometries so the harness and
//! benches sweep exactly the configurations the paper reports.
//!
//! [`chaos`] holds the fault-injection kernels driven by the `cl-chaos`
//! soak harness: deliberately panicking, stalling, and barrier-deserting
//! kernels that exercise the runtime's fault containment.
//!
//! [`race`] holds tile-granular kernels for the `cl-race` multi-queue
//! scenarios: their access specs pin each launch to an exact
//! `[base, base+len)` window of a shared buffer, so the happens-before
//! analysis can prove disjoint tiles independent.
//!
//! [`sched`] holds the non-commutative `MulAdd` fixture behind the
//! `cl-sched` out-of-order scheduler harness: reordering two applications
//! on the same buffer changes the bytes, so the bit-exactness oracle
//! detects any dropped dependency edge.

pub mod access;
pub mod apps;
pub mod chaos;
pub mod coarsen;
pub mod ilp;
pub mod mbench;
pub mod parboil;
pub mod race;
pub mod registry;
pub mod sched;
pub mod util;

pub use registry::{parboil_kernels, simple_apps, AppEntry};
