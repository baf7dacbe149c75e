//! Every workload of the study, executed end-to-end on every device kind
//! (native CPU, modeled Xeon, modeled GTX 580) and verified against its
//! serial reference. This is the paper's full application matrix as one
//! correctness sweep.

use cl_kernels::apps::{
    binomial, blackscholes, histogram, matrixmul, prefixsum, reduction, square, vectoradd,
};
use std::sync::Arc;

use cl_kernels::apps::Built;
use cl_kernels::parboil::{cp, mrifhd, mriq};
use cl_kernels::registry::{AppEntry, LocalSpec};
use cl_kernels::util::random_f32;
use cl_kernels::{ilp, mbench, parboil_kernels, simple_apps};
use integration_tests::all_ctxs;
use ocl_rt::{Buffer, Context, Device, Kernel, MemFlags, NDRange};

#[test]
fn all_simple_apps_on_all_devices() {
    for (name, ctx) in all_ctxs() {
        let q = ctx.queue();
        let builds = vec![
            ("square", square::build(&ctx, 10_000, 1, None, 1)),
            ("vectoradd", vectoradd::build(&ctx, 11_000, 1, None, 2)),
            ("matrixmul", matrixmul::build_tiled(&ctx, 32, 32, 32, 8, 3)),
            (
                "matrixmul-naive",
                matrixmul::build_naive(&ctx, 32, 32, 16, Some((4, 4)), 4),
            ),
            ("reduction", reduction::build(&ctx, 64_000, 256, 5)),
            ("histogram", histogram::build(&ctx, 40_960, 128, 6)),
            ("prefixsum", prefixsum::build(&ctx, 1024, 7)),
            (
                "blackscholes",
                blackscholes::build(&ctx, (32, 32), 4096, Some((16, 16)), 8),
            ),
            ("binomial", binomial::build(&ctx, 16, 255, 9)),
        ];
        for (app, built) in builds {
            q.enqueue_kernel(&built.kernel, built.range)
                .unwrap_or_else(|e| panic!("{name}/{app}: launch failed: {e}"));
            built
                .verify(&q)
                .unwrap_or_else(|e| panic!("{name}/{app}: {e}"));
        }
    }
}

#[test]
fn all_parboil_kernels_on_all_devices() {
    for (name, ctx) in all_ctxs() {
        let q = ctx.queue();
        let builds = vec![
            ("cp", cp::build(&ctx, 64, 32, 64, 1, Some((16, 8)), 1)),
            ("phimag", mriq::build_phimag(&ctx, 3072, 1, Some(512), 2)),
            ("computeq", mriq::build_q(&ctx, 256, 64, 1, Some(128), 3)),
            // Figure 2's coalesced variant: four voxels per workitem.
            ("computeq-x4", mriq::build_q(&ctx, 256, 64, 4, None, 3)),
            ("rhophi", mrifhd::build_rhophi(&ctx, 3072, 1, Some(512), 4)),
            ("fh", mrifhd::build_fh(&ctx, 256, 64, 1, Some(128), 5)),
        ];
        for (kernel, built) in builds {
            q.enqueue_kernel(&built.kernel, built.range)
                .unwrap_or_else(|e| panic!("{name}/{kernel}: launch failed: {e}"));
            built
                .verify(&q)
                .unwrap_or_else(|e| panic!("{name}/{kernel}: {e}"));
        }
    }
}

#[test]
fn microbenchmarks_on_all_devices() {
    // Plus a native device with the implicit vectorizer off: the scalar
    // chains of the Figure 6 ILP experiment.
    let mut scalar = Device::native_cpu(2).unwrap();
    scalar.set_vectorize(false);
    let ctxs = all_ctxs()
        .into_iter()
        .chain([("native-scalar", Context::new(scalar))]);
    for (name, ctx) in ctxs {
        let q = ctx.queue();
        for ilp_k in 1..=4 {
            let built = ilp::build(&ctx, 512, ilp_k, 20, 128, 6);
            q.enqueue_kernel(&built.kernel, built.range).unwrap();
            built
                .verify(&q)
                .unwrap_or_else(|e| panic!("{name}/ilp{ilp_k}: {e}"));
        }
        for idx in 0..mbench::all().len() {
            let built = mbench::build(&ctx, idx, 1024, 64, 7);
            q.enqueue_kernel(&built.kernel, built.range).unwrap();
            built
                .verify(&q)
                .unwrap_or_else(|e| panic!("{name}/mbench{}: {e}", idx + 1));
        }
    }
}

#[test]
fn modeled_events_are_modeled_and_native_are_not() {
    for (name, ctx) in all_ctxs() {
        let q = ctx.queue();
        let built = square::build(&ctx, 4096, 1, Some(256), 1);
        let ev = q.enqueue_kernel(&built.kernel, built.range).unwrap();
        assert_eq!(ev.modeled, name != "native", "{name}");
        assert!(ev.duration_s() > 0.0, "{name}");
    }
}

/// A native 2-worker device with the implicit vectorizer on or off.
fn native(vectorize: bool) -> Context {
    let mut device = Device::native_cpu(2).unwrap();
    device.set_vectorize(vectorize);
    Context::new(device)
}

/// How every group of a launch walks its rows: `per_wi` elements per
/// workitem, clipped to the kernel's `bound`, `times` walks per group.
#[derive(Clone, Copy)]
struct Walk {
    per_wi: usize,
    bound: usize,
    times: usize,
}

impl Walk {
    fn once(per_wi: usize, bound: usize) -> Self {
        Walk {
            per_wi,
            bound,
            times: 1,
        }
    }

    /// The elements a lane launch of `range` runs in lane steps: on every
    /// row of every group, per walk, the row's elements below the bound
    /// less their remainder modulo 4.
    fn lane_items(self, range: NDRange) -> u64 {
        let (global, local) = (range.global(), range.local().unwrap());
        let row: usize = (0..global[0] / local[0])
            .map(|gx| {
                let start = gx * local[0] * self.per_wi;
                let end = ((gx + 1) * local[0] * self.per_wi)
                    .min(self.bound)
                    .max(start);
                (end - start) - (end - start) % 4
            })
            .sum();
        (self.times * row * global[1] * global[2]) as u64
    }
}

/// Run the launch `make` builds once with lanes and once with the
/// vectorizer off, and require every output bit-identical. The lane side
/// must run every element `walk` allows in lane steps, and the other side
/// none.
fn lanes_match_scalar(
    label: &str,
    walk: Walk,
    make: impl Fn(&Context) -> (Arc<dyn Kernel>, NDRange, Vec<Buffer<f32>>),
) {
    let run = |vectorize: bool| {
        let ctx = native(vectorize);
        let q = ctx.queue();
        let (kernel, range, outs) = make(&ctx);
        let ev = q.enqueue_kernel(&kernel, range).unwrap();
        let want = if vectorize { walk.lane_items(range) } else { 0 };
        assert!(!vectorize || want > 0, "{label}: the case has no lane step");
        assert_eq!(ev.lane_items, want, "{label}: elements in lane steps");
        outs.iter()
            .map(|buf| {
                let mut host = vec![0.0f32; buf.len()];
                q.read_buffer(buf, 0, &mut host).unwrap();
                host.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            })
            .collect::<Vec<_>>()
    };
    let (lanes, scalar) = (run(true), run(false));
    for (i, (l, s)) in lanes.iter().zip(&scalar).enumerate() {
        if let Some(at) = l.iter().zip(s).position(|(a, b)| a != b) {
            panic!(
                "{label}: output {i} differs at {at}: lanes {} vs scalar {}",
                f32::from_bits(l[at]),
                f32::from_bits(s[at])
            );
        }
    }
}

fn input(ctx: &Context, seed: u64, n: usize, lo: f32, hi: f32) -> Buffer<f32> {
    ctx.buffer_from(MemFlags::READ_ONLY, &random_f32(seed, n, lo, hi))
        .unwrap()
}

fn output(ctx: &Context, n: usize) -> Buffer<f32> {
    ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap()
}

#[test]
fn two_d_lane_bodies_are_bit_identical_to_scalar() {
    // Tile rows of 16 run one register block; 4, 8 and 12 run lane steps;
    // 6 runs one lane step and two single items. Every side gets lanes.
    for (n, t) in [(96, 16), (48, 4), (48, 6), (48, 8), (48, 12)] {
        let walk = Walk {
            per_wi: 1,
            bound: n,
            times: 2 * n / t,
        };
        lanes_match_scalar(&format!("matrixMul {n}² local {t}×{t}"), walk, |ctx| {
            let c = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n * n).unwrap();
            let k = matrixmul::MatrixMul {
                a: input(ctx, 1, n * n, -1.0, 1.0),
                b: input(ctx, 2, n * n, -1.0, 1.0),
                c: c.clone(),
                w: n,
                h: n,
                k: n,
            };
            (Arc::new(k), NDRange::d2(n, n).local2(t, t), vec![c])
        });
    }
    // Rows of 6 items: one step plus two tail items each. The second
    // launch pads x to 72 in groups of 8, so the step at x = 64 crosses
    // the grid's edge at 66. Rows of 22 run one register block, one step
    // and two edge items.
    for (global_x, local) in [(66, (6, 8)), (72, (8, 8)), (66, (22, 8))] {
        let label = format!("cenergy x{global_x} local {local:?}");
        lanes_match_scalar(&label, Walk::once(1, 66), |ctx| {
            let (nx, ny) = (66, 32);
            let atoms = cp::Atoms::generate(3, 64, nx as f32 * cp::SPACING);
            let grid = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, nx * ny).unwrap();
            let k = cp::Cenergy {
                atoms: ctx.buffer_from(MemFlags::READ_ONLY, &atoms.data).unwrap(),
                grid: grid.clone(),
                nx,
                ny,
                items_per_wi: 1,
            };
            let range = NDRange::d2(global_x, ny).local2(local.0, local.1);
            (Arc::new(k), range, vec![grid])
        });
    }
    // Rows of 16 items run one register block; rows of 22 a block, a step
    // and two edge items.
    for (grid, local) in [((64, 64), (16, 16)), ((44, 16), (22, 8))] {
        let label = format!("blackScholes {grid:?} local {local:?}");
        lanes_match_scalar(&label, Walk::once(1, grid.0), |ctx| {
            // Six options past four per item: the last stride step is ragged.
            let items = grid.0 * grid.1;
            let n = items * 4 + 6;
            let call = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
            let put = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
            let k = blackscholes::BlackScholes {
                stock: input(ctx, 4, n, 5.0, 30.0),
                strike: input(ctx, 5, n, 1.0, 100.0),
                years: input(ctx, 6, n, 0.25, 10.0),
                call: call.clone(),
                put: put.clone(),
                n_options: n,
                grid_items: items,
            };
            let range = NDRange::d2(grid.0, grid.1).local2(local.0, local.1);
            (Arc::new(k), range, vec![call, put])
        });
    }
    // Naive MatrixMul 44 columns wide in rows of 22: a block, a step and
    // two edge items per row.
    lanes_match_scalar(
        "matrixMul(naive) 44×8 local 22×4",
        Walk::once(1, 44),
        |ctx| {
            let (w, h, k) = (44, 8, 12);
            let c = output(ctx, w * h);
            let kernel = matrixmul::MatrixMulNaive {
                a: input(ctx, 7, h * k, -1.0, 1.0),
                b: input(ctx, 8, k * w, -1.0, 1.0),
                c: c.clone(),
                w,
                h,
                k,
            };
            (Arc::new(kernel), NDRange::d2(w, h).local2(22, 4), vec![c])
        },
    );
}

#[test]
fn mri_lane_bodies_are_bit_identical_to_scalar() {
    // 1030 voxels in groups of 10: every group runs two lane steps and two
    // tail items. Padded to 1034 in groups of 22: one register block, one
    // step and two edge items, and the last group, clipped to 18 voxels, a
    // block and two edge items.
    let (n, n_k) = (1030, 64);
    for (global, local) in [(n, 10), (1034, 22)] {
        mri_cases(n, n_k, NDRange::d1(global).local1(local));
    }
}

/// computeQ and FH on `n` voxels and `n_k` k-space samples over `range`.
fn mri_cases(n: usize, n_k: usize, range: NDRange) {
    let local = range.local().unwrap()[0];
    let label = |name: &str| format!("{name} {n} voxels local {local}");
    lanes_match_scalar(&label("computeQ"), Walk::once(1, n), |ctx| {
        let (qr, qi) = (output(ctx, n), output(ctx, n));
        let k = mriq::ComputeQ {
            x: input(ctx, 1, n, -1.0, 1.0),
            y: input(ctx, 2, n, -1.0, 1.0),
            z: input(ctx, 3, n, -1.0, 1.0),
            kx: input(ctx, 4, n_k, -0.5, 0.5),
            ky: input(ctx, 5, n_k, -0.5, 0.5),
            kz: input(ctx, 6, n_k, -0.5, 0.5),
            phi_mag: input(ctx, 7, n_k, 0.0, 1.0),
            qr: qr.clone(),
            qi: qi.clone(),
            n_voxels: n,
            items_per_wi: 1,
        };
        (Arc::new(k), range, vec![qr, qi])
    });
    lanes_match_scalar(&label("FH"), Walk::once(1, n), |ctx| {
        let (fr, fi) = (output(ctx, n), output(ctx, n));
        let k = mrifhd::Fh {
            x: input(ctx, 8, n, -1.0, 1.0),
            y: input(ctx, 9, n, -1.0, 1.0),
            z: input(ctx, 10, n, -1.0, 1.0),
            kx: input(ctx, 11, n_k, -0.5, 0.5),
            ky: input(ctx, 12, n_k, -0.5, 0.5),
            kz: input(ctx, 13, n_k, -0.5, 0.5),
            rho_r: input(ctx, 14, n_k, -1.0, 1.0),
            rho_i: input(ctx, 15, n_k, -1.0, 1.0),
            fh_r: fr.clone(),
            fh_i: fi.clone(),
            n_voxels: n,
            items_per_wi: 1,
        };
        (Arc::new(k), range, vec![fr, fi])
    });
}

type Launch = (Arc<dyn Kernel>, NDRange, Vec<Buffer<f32>>);
type MakeLaunch = Box<dyn Fn(&Context) -> Launch>;

#[test]
fn one_d_lane_bodies_are_bit_identical_to_scalar() {
    // Per-item kernels guard `i < 1002` on a launch padded to 1024 in
    // groups of 256: the last group (234 items) runs register blocks, its
    // step at 1000 crosses the bound, so items 1000 and 1001 run one at a
    // time and 1002.. do nothing. In groups of 38 (padded to 1026) every
    // row runs two blocks, one step and two edge items, and the last,
    // clipped to 14 items, three steps and two edge items. ILP has no
    // bound; groups of 10 give every row two steps and two tail items.
    // MBench pads its own range and runs its group's elements.
    let n = 1002;
    let padded = NDRange::d1(1024).local1(256);
    let mut cases: Vec<(String, Walk, MakeLaunch)> = Vec::new();
    for range in [padded, NDRange::d1(1026).local1(38)] {
        let local = range.local().unwrap()[0];
        let label = |name: &str| format!("{name} local {local}");
        cases.push((
            label("square"),
            Walk::once(1, n),
            Box::new(move |ctx| {
                let out = output(ctx, n);
                let k = square::Square {
                    input: input(ctx, 1, n, -2.0, 2.0),
                    output: out.clone(),
                    n,
                    items_per_wi: 1,
                };
                (Arc::new(k), range, vec![out])
            }),
        ));
        cases.push((
            label("vectoradd"),
            Walk::once(1, n),
            Box::new(move |ctx| {
                let c = output(ctx, n);
                let k = vectoradd::VectorAdd {
                    a: input(ctx, 2, n, -10.0, 10.0),
                    b: input(ctx, 3, n, -10.0, 10.0),
                    c: c.clone(),
                    n,
                    items_per_wi: 1,
                };
                (Arc::new(k), range, vec![c])
            }),
        ));
        cases.push((
            label("computePhiMag"),
            Walk::once(1, n),
            Box::new(move |ctx| {
                let mag = output(ctx, n);
                let k = mriq::ComputePhiMag {
                    phi_r: input(ctx, 4, n, -1.0, 1.0),
                    phi_i: input(ctx, 5, n, -1.0, 1.0),
                    phi_mag: mag.clone(),
                    n,
                    items_per_wi: 1,
                };
                (Arc::new(k), range, vec![mag])
            }),
        ));
        cases.push((
            label("RhoPhi"),
            Walk::once(1, n),
            Box::new(move |ctx| {
                let (rr, ri) = (output(ctx, n), output(ctx, n));
                let k = mrifhd::RhoPhi {
                    phi_r: input(ctx, 6, n, -1.0, 1.0),
                    phi_i: input(ctx, 7, n, -1.0, 1.0),
                    d_r: input(ctx, 8, n, -1.0, 1.0),
                    d_i: input(ctx, 9, n, -1.0, 1.0),
                    rho_r: rr.clone(),
                    rho_i: ri.clone(),
                    n,
                    items_per_wi: 1,
                };
                (Arc::new(k), range, vec![rr, ri])
            }),
        ));
    }
    for ilp_k in 1..=ilp::MAX_ILP {
        cases.push((
            format!("ilp{ilp_k}"),
            Walk::once(1, 1030),
            Box::new(move |ctx| {
                let out = output(ctx, 1030);
                let k = ilp::IlpKernel {
                    input: input(ctx, 10, 1030, 0.0, 1.0),
                    output: out.clone(),
                    ilp: ilp_k,
                    iters: 20,
                };
                (Arc::new(k), NDRange::d1(1030).local1(10), vec![out])
            }),
        ));
    }
    for bench in mbench::all() {
        let idx = bench.id - 1;
        let n_in = bench.input_len(n);
        cases.push((
            bench.name.into(),
            Walk::once(1, n),
            Box::new(move |ctx| {
                let c = output(ctx, n);
                let k = mbench::MBenchKernel {
                    bench: idx,
                    a: input(ctx, 11, n_in, 0.1, 1.5),
                    b: input(ctx, 12, n_in, 0.1, 1.5),
                    c: c.clone(),
                    n_out: n,
                };
                (Arc::new(k), padded, vec![c])
            }),
        ));
    }
    for (label, walk, make) in &cases {
        lanes_match_scalar(label, *walk, make);
    }
}

/// A small launch of `entry`'s kernel at the entry's local shape.
fn small_build(ctx: &Context, entry: &AppEntry) -> Built {
    let (l1, l2) = match entry.local {
        LocalSpec::Null => (None, None),
        LocalSpec::D1(l) => (Some(l), None),
        LocalSpec::D2(x, y) => (None, Some((x, y))),
    };
    match (entry.benchmark, entry.kernel) {
        ("Square", "square") => square::build(ctx, 4096, 1, l1, 1),
        ("Vectoraddition", "vectoadd") => vectoradd::build(ctx, 4096, 1, l1, 2),
        ("Matrixmul", "matrixMul") => {
            let (t, _) = l2.unwrap();
            matrixmul::build_tiled(ctx, 2 * t, 2 * t, 2 * t, t, 3)
        }
        ("MatrixmulNaive", "matrixMul") => matrixmul::build_naive(ctx, 32, 32, 16, l2, 4),
        ("Reduction", "reduce") => reduction::build(ctx, 4 * l1.unwrap(), l1.unwrap(), 5),
        ("Histogram", "histogram256") => histogram::build(ctx, 4 * l1.unwrap(), l1.unwrap(), 6),
        ("Prefixsum", "prefixSum") => prefixsum::build(ctx, l1.unwrap(), 7),
        ("Blackscholes", "blackScholes") => blackscholes::build(ctx, (32, 32), 4096, l2, 8),
        ("Binomialoption", "binomialoption") => binomial::build(ctx, 4, l1.unwrap(), 9),
        ("CP", "cenergy") => cp::build(ctx, 64, 32, 64, 1, l2, 10),
        ("MRI-Q", "computePhiMag") => mriq::build_phimag(ctx, 3072, 1, l1, 11),
        ("MRI-Q", "computeQ") => mriq::build_q(ctx, 512, 64, 1, l1, 12),
        ("MRI-FHD", "RhoPhi") => mrifhd::build_rhophi(ctx, 3072, 1, l1, 13),
        ("MRI-FHD", "FH") => mrifhd::build_fh(ctx, 512, 64, 1, l1, 14),
        (b, k) => panic!("registry entry {b}/{k} has no small build here: add one"),
    }
}

#[test]
fn registry_kernels_credited_with_simd_run_lane_bodies() {
    // The profile credits SIMD exactly when lane steps ran.
    let ctx = native(true);
    assert_eq!(ctx.device().simd_width(), 4);
    let q = ctx.queue();
    for entry in simple_apps().into_iter().chain(parboil_kernels()) {
        let label = format!("{}/{}", entry.benchmark, entry.kernel);
        let built = small_build(&ctx, &entry);
        let ev = q
            .enqueue_kernel(&built.kernel, built.range)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        built.verify(&q).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            built.kernel.profile().vectorizable,
            ev.lane_items > 0,
            "{label}: the profile's SIMD credit disagrees with the engine \
             ({} of {} items in lane steps)",
            ev.lane_items,
            ev.items
        );
    }
}

/// A 1-D range of `ceil(n / k)` workitems padded to groups of `local`.
fn coalesced_range(n: usize, k: usize, local: usize) -> NDRange {
    NDRange::d1(n.div_ceil(k).div_ceil(local) * local).local1(local)
}

/// The coalesced variants of Figs 1 and 2 (Square at 10 and 100 elements
/// per workitem; computeQ, FH, `cenergy`, computePhiMag and RhoPhi at 2
/// and 4) run lane steps, bit-identical to the vectorizer off. Every
/// launch is padded: the last workitems' windows cross the bound. Groups
/// of 11 workitems at 2 per workitem give rows of 22 elements: one
/// register block, one step and two edge items.
#[test]
fn coalesced_launches_run_lanes_bit_identical_to_scalar() {
    // Voxels and elements, and k-space samples.
    const N: usize = 1002;
    const N_K: usize = 64;
    type MakeCoalesced = fn(&Context, usize, usize) -> Launch;
    // Elements per workitem, workitems per group.
    type Shape = (usize, usize);
    // Each case: its name, its element bound, its shapes.
    let cases: [(&str, usize, &[Shape], MakeCoalesced); 6] = [
        // Rows of 640 and 6 400 elements: the clipped groups (166 and
        // 4 006 elements) run blocks, a step and two edge items.
        ("square", 4006, &[(10, 64), (100, 64)], |ctx, k, local| {
            let out = output(ctx, 4006);
            let kernel = square::Square {
                input: input(ctx, 1, 4006, -2.0, 2.0),
                output: out.clone(),
                n: 4006,
                items_per_wi: k,
            };
            (Arc::new(kernel), coalesced_range(4006, k, local), vec![out])
        }),
        (
            "computeQ",
            N,
            &[(2, 64), (4, 64), (2, 11)],
            |ctx, k, local| {
                let (qr, qi) = (output(ctx, N), output(ctx, N));
                let kernel = mriq::ComputeQ {
                    x: input(ctx, 1, N, -1.0, 1.0),
                    y: input(ctx, 2, N, -1.0, 1.0),
                    z: input(ctx, 3, N, -1.0, 1.0),
                    kx: input(ctx, 4, N_K, -0.5, 0.5),
                    ky: input(ctx, 5, N_K, -0.5, 0.5),
                    kz: input(ctx, 6, N_K, -0.5, 0.5),
                    phi_mag: input(ctx, 7, N_K, 0.0, 1.0),
                    qr: qr.clone(),
                    qi: qi.clone(),
                    n_voxels: N,
                    items_per_wi: k,
                };
                (Arc::new(kernel), coalesced_range(N, k, local), vec![qr, qi])
            },
        ),
        ("FH", N, &[(2, 64), (4, 64), (2, 11)], |ctx, k, local| {
            let (fr, fi) = (output(ctx, N), output(ctx, N));
            let kernel = mrifhd::Fh {
                x: input(ctx, 8, N, -1.0, 1.0),
                y: input(ctx, 9, N, -1.0, 1.0),
                z: input(ctx, 10, N, -1.0, 1.0),
                kx: input(ctx, 11, N_K, -0.5, 0.5),
                ky: input(ctx, 12, N_K, -0.5, 0.5),
                kz: input(ctx, 13, N_K, -0.5, 0.5),
                rho_r: input(ctx, 14, N_K, -1.0, 1.0),
                rho_i: input(ctx, 15, N_K, -1.0, 1.0),
                fh_r: fr.clone(),
                fh_i: fi.clone(),
                n_voxels: N,
                items_per_wi: k,
            };
            (Arc::new(kernel), coalesced_range(N, k, local), vec![fr, fi])
        }),
        (
            "cenergy",
            66,
            &[(2, 4), (4, 4), (2, 11)],
            |ctx, k, local| {
                // 66 columns: x pads to whole groups past the grid.
                let (nx, ny) = (66, 16);
                let atoms = cp::Atoms::generate(3, 64, nx as f32 * cp::SPACING);
                let grid = output(ctx, nx * ny);
                let kernel = cp::Cenergy {
                    atoms: ctx.buffer_from(MemFlags::READ_ONLY, &atoms.data).unwrap(),
                    grid: grid.clone(),
                    nx,
                    ny,
                    items_per_wi: k,
                };
                let gx = nx.div_ceil(k).div_ceil(local) * local;
                (
                    Arc::new(kernel),
                    NDRange::d2(gx, ny).local2(local, 8),
                    vec![grid],
                )
            },
        ),
        (
            "computePhiMag",
            N,
            &[(2, 64), (4, 64), (2, 11)],
            |ctx, k, local| {
                let mag = output(ctx, N);
                let kernel = mriq::ComputePhiMag {
                    phi_r: input(ctx, 4, N, -1.0, 1.0),
                    phi_i: input(ctx, 5, N, -1.0, 1.0),
                    phi_mag: mag.clone(),
                    n: N,
                    items_per_wi: k,
                };
                (Arc::new(kernel), coalesced_range(N, k, local), vec![mag])
            },
        ),
        (
            "RhoPhi",
            N,
            &[(2, 64), (4, 64), (2, 11)],
            |ctx, k, local| {
                let (rr, ri) = (output(ctx, N), output(ctx, N));
                let kernel = mrifhd::RhoPhi {
                    phi_r: input(ctx, 6, N, -1.0, 1.0),
                    phi_i: input(ctx, 7, N, -1.0, 1.0),
                    d_r: input(ctx, 8, N, -1.0, 1.0),
                    d_i: input(ctx, 9, N, -1.0, 1.0),
                    rho_r: rr.clone(),
                    rho_i: ri.clone(),
                    n: N,
                    items_per_wi: k,
                };
                (Arc::new(kernel), coalesced_range(N, k, local), vec![rr, ri])
            },
        ),
    ];
    for (name, bound, shapes, make) in cases {
        for &(k, local) in shapes {
            let label = format!("{name} at {k} per workitem, local {local}");
            lanes_match_scalar(&label, Walk::once(k, bound), |ctx| make(ctx, k, local));
        }
    }
}
