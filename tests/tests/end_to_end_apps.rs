//! Every workload of the study, executed end-to-end on every device kind
//! (native CPU, modeled Xeon, modeled GTX 580) and verified against its
//! serial reference. This is the paper's full application matrix as one
//! correctness sweep.

use cl_kernels::apps::{
    binomial, blackscholes, histogram, matrixmul, prefixsum, reduction, square, vectoradd,
};
use cl_kernels::parboil::{cp, mrifhd, mriq};
use cl_kernels::{ilp, mbench};
use integration_tests::all_ctxs;
use ocl_rt::{Context, Device};

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
