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
use integration_tests::{all_ctxs, LaneSpy};
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

/// Run the launch `make` builds once with lanes and once with the
/// vectorizer off, and require every output bit-identical. The lane side
/// must run every group through the kernel's lane body.
fn lanes_match_scalar(
    label: &str,
    make: impl Fn(&Context) -> (Arc<dyn Kernel>, NDRange, Vec<Buffer<f32>>),
) {
    let run = |vectorize: bool| {
        let ctx = native(vectorize);
        let q = ctx.queue();
        let (kernel, range, outs) = make(&ctx);
        let spy = LaneSpy::new(kernel);
        let k: Arc<dyn Kernel> = spy.clone();
        q.enqueue_kernel(&k, range).unwrap();
        if vectorize {
            assert!(spy.lane_groups() > 0, "{label}: no lane body ran");
            assert_eq!(spy.scalar_groups(), 0, "{label}: a group ran scalar");
        } else {
            assert_eq!(
                spy.lane_groups(),
                0,
                "{label}: lanes with the vectorizer off"
            );
        }
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

#[test]
fn two_d_lane_bodies_are_bit_identical_to_scalar() {
    lanes_match_scalar("matrixMul 96² local 16×16", |ctx| {
        let n = 96;
        let c = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n * n).unwrap();
        let k = matrixmul::MatrixMul {
            a: input(ctx, 1, n * n, -1.0, 1.0),
            b: input(ctx, 2, n * n, -1.0, 1.0),
            c: c.clone(),
            w: n,
            h: n,
            k: n,
        };
        (Arc::new(k), NDRange::d2(n, n).local2(16, 16), vec![c])
    });
    // Rows of 6 items: one step plus two tail items each. The second
    // launch pads x to 72 in groups of 8, so the step at x = 64 crosses
    // the grid's edge at 66.
    for (global_x, local) in [(66, (6, 8)), (72, (8, 8))] {
        lanes_match_scalar(&format!("cenergy x{global_x} local {local:?}"), |ctx| {
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
    lanes_match_scalar("blackScholes 64×64 local 16×16", |ctx| {
        // Six options past four per item: the last stride step is ragged.
        let n = 64 * 64 * 4 + 6;
        let call = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
        let put = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, n).unwrap();
        let k = blackscholes::BlackScholes {
            stock: input(ctx, 4, n, 5.0, 30.0),
            strike: input(ctx, 5, n, 1.0, 100.0),
            years: input(ctx, 6, n, 0.25, 10.0),
            call: call.clone(),
            put: put.clone(),
            n_options: n,
            grid_items: 64 * 64,
        };
        (
            Arc::new(k),
            NDRange::d2(64, 64).local2(16, 16),
            vec![call, put],
        )
    });
}

/// Registry kernels whose profile credits SIMD (`vectorizable: true`) but
/// which have no lane body, each with its reason. The model and the engine
/// disagree on exactly these.
const SCALAR_DESPITE_PROFILE: &[(&str, &str, &str)] = &[
    (
        "MatrixmulNaive",
        "matrixMul",
        "no lane body yet; four x-adjacent items would share A and read four adjacent B columns",
    ),
    (
        "Reduction",
        "reduce",
        "no lane body: the tree phases halve the active items, leaving lanes idle",
    ),
    (
        "MRI-Q",
        "computeQ",
        "no lane body yet; the k-sample loop would run four voxels per step",
    ),
    (
        "MRI-FHD",
        "FH",
        "no lane body yet; the k-sample loop would run four voxels per step",
    ),
];

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
    let ctx = native(true);
    assert_eq!(ctx.device().simd_width(), 4);
    let q = ctx.queue();
    for entry in simple_apps().into_iter().chain(parboil_kernels()) {
        let label = format!("{}/{}", entry.benchmark, entry.kernel);
        let built = small_build(&ctx, &entry);
        let spy = LaneSpy::new(Arc::clone(&built.kernel));
        let k: Arc<dyn Kernel> = spy.clone();
        q.enqueue_kernel(&k, built.range)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        built.verify(&q).unwrap_or_else(|e| panic!("{label}: {e}"));
        let exempt = SCALAR_DESPITE_PROFILE
            .iter()
            .any(|&(b, k, _)| (b, k) == (entry.benchmark, entry.kernel));
        let (lanes, scalar) = (spy.lane_groups(), spy.scalar_groups());
        match (built.kernel.profile().vectorizable, exempt) {
            (true, false) => assert!(
                lanes > 0 && scalar == 0,
                "{label}: the profile credits SIMD but {scalar} groups ran scalar \
                 ({lanes} through lanes); give it a lane body or list it, with \
                 its reason, in SCALAR_DESPITE_PROFILE"
            ),
            (true, true) => assert_eq!(
                lanes, 0,
                "{label}: runs lanes now; drop it from SCALAR_DESPITE_PROFILE"
            ),
            (false, false) => assert_eq!(lanes, 0, "{label}: ran lanes the model does not credit"),
            (false, true) => {
                panic!("{label}: listed in SCALAR_DESPITE_PROFILE but its profile is scalar")
            }
        }
    }
}
