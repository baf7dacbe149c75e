//! Coarsening exactness properties: a `Proven` coarsening certificate
//! means fused execution is *bit-exact* against uncoarsened execution —
//! not approximately equal — across random launch geometries, device
//! configurations, and forced factors. Illegal fixtures must be refused
//! at enqueue time whenever a factor is forced.
//!
//! Seeded random sweeps (hand-rolled loops; the workspace builds offline,
//! so proptest is unavailable).

use std::sync::Arc;

use cl_kernels::apps::square::Square;
use cl_kernels::apps::vectoradd::VectorAdd;
use cl_util::XorShift;
use integration_tests::all_ctxs;
use ocl_rt::{
    Buffer, ClError, CoarsenMode, Context, Device, Kernel, MemFlags, NDRange, QueueConfig,
};

const CASES: usize = 12;

fn queue_with_mode(ctx: &Context, mode: CoarsenMode) -> ocl_rt::CommandQueue {
    ctx.queue_with(QueueConfig::default().coarsen(mode))
}

fn read_bits(q: &ocl_rt::CommandQueue, buf: &Buffer<f32>) -> Vec<u32> {
    let mut host = vec![0.0f32; buf.len()];
    q.read_buffer(buf, 0, &mut host).expect("read output");
    host.into_iter().map(f32::to_bits).collect()
}

/// `square` is `Proven` at every geometry: every fused run must produce
/// the same bytes as the uncoarsened run, for random workgroup sizes,
/// worker counts, and coarsening modes (Auto and arbitrary Force(k)).
#[test]
fn proven_square_is_bit_exact_under_coarsening() {
    let mut rng = XorShift::seed_from_u64(0xC0A25E);
    for case in 0..CASES {
        let wg = rng.range_usize(1, 64);
        let n = rng.range_usize(1, 16_384).div_ceil(wg) * wg;
        let workers = 1 + rng.range_usize(0, 3);
        let seed = rng.next_u64();
        let ctx = Context::new(Device::native_cpu(workers).unwrap());
        let input_host = cl_util::rng::random_f32(seed, n, -2.0, 2.0);
        let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
        let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
        let kernel: Arc<dyn Kernel> = Arc::new(Square {
            input,
            output: output.clone(),
            n,
            items_per_wi: 1,
        });
        let range = NDRange::d1(n).local1(wg);

        let q_off = queue_with_mode(&ctx, CoarsenMode::Off);
        q_off.enqueue_kernel(&kernel, range).unwrap();
        let baseline = read_bits(&q_off, &output);

        let force_k = 2 + rng.range_usize(0, 30);
        for mode in [CoarsenMode::Auto, CoarsenMode::Force(force_k)] {
            let q = queue_with_mode(&ctx, mode);
            q.enqueue_kernel(&kernel, range)
                .unwrap_or_else(|e| panic!("case {case} {mode:?}: enqueue failed: {e}"));
            let fused = read_bits(&q, &output);
            assert_eq!(
                fused, baseline,
                "case {case}: {mode:?} output diverged from uncoarsened run \
                 (n={n}, wg={wg}, workers={workers})"
            );
        }
    }
}

/// Same property for `vectoadd` with workitem coalescing in the mix —
/// coarsening (groups per chunk) must compose with coalescing (items per
/// workitem) without reordering any arithmetic.
#[test]
fn proven_vectoradd_is_bit_exact_under_coarsening() {
    let mut rng = XorShift::seed_from_u64(0xC0A25F);
    for case in 0..CASES {
        let n = 1usize << rng.range_usize(6, 14);
        let items_per_wi = 1usize << rng.range_usize(0, 3);
        let seed = rng.next_u64();
        let ctx = Context::new(Device::native_cpu(2).unwrap());
        let a_host = cl_util::rng::random_f32(seed, n, -1.0, 1.0);
        let b_host = cl_util::rng::random_f32(seed ^ 0xA5A5, n, -1.0, 1.0);
        let a = ctx.buffer_from(MemFlags::READ_ONLY, &a_host).unwrap();
        let b = ctx.buffer_from(MemFlags::READ_ONLY, &b_host).unwrap();
        let c = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
        let kernel: Arc<dyn Kernel> = Arc::new(VectorAdd {
            a,
            b,
            c: c.clone(),
            n,
            items_per_wi,
        });
        let range = NDRange::d1(n / items_per_wi);

        let q_off = queue_with_mode(&ctx, CoarsenMode::Off);
        q_off.enqueue_kernel(&kernel, range).unwrap();
        let baseline = read_bits(&q_off, &c);

        let q_auto = queue_with_mode(&ctx, CoarsenMode::Auto);
        q_auto.enqueue_kernel(&kernel, range).unwrap();
        let fused = read_bits(&q_auto, &c);
        assert_eq!(
            fused, baseline,
            "case {case}: coarsened vectoadd diverged (n={n}, k={items_per_wi})"
        );
    }
}

/// The property holds on every device kind, not just the native CPU:
/// coarsened and uncoarsened queues on native and both modeled devices
/// all produce the same bytes. (Modeled devices don't fuse chunks, so
/// this pins the plan-cache plumbing as a no-op there.)
#[test]
fn coarsening_is_bit_exact_on_all_device_configs() {
    for (label, ctx) in all_ctxs() {
        let n = 2048;
        let input_host = cl_util::rng::random_f32(0xD0 ^ n as u64, n, -2.0, 2.0);
        let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
        let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
        let kernel: Arc<dyn Kernel> = Arc::new(Square {
            input,
            output: output.clone(),
            n,
            items_per_wi: 1,
        });
        let range = NDRange::d1(n).local1(32);

        let q_off = queue_with_mode(&ctx, CoarsenMode::Off);
        q_off.enqueue_kernel(&kernel, range).unwrap();
        let baseline = read_bits(&q_off, &output);

        let q_auto = queue_with_mode(&ctx, CoarsenMode::Auto);
        q_auto.enqueue_kernel(&kernel, range).unwrap();
        assert_eq!(
            read_bits(&q_auto, &output),
            baseline,
            "{label}: coarsened output diverged"
        );
    }
}

/// A forced factor larger than anything sensible still runs on a `Proven`
/// kernel — the runtime clamps to the proven `k_max` instead of refusing
/// or fusing past the certificate.
#[test]
fn force_clamps_to_proven_k_max() {
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let n = 4096;
    let input_host = cl_util::rng::random_f32(11, n, -2.0, 2.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
    let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
    let kernel: Arc<dyn Kernel> = Arc::new(Square {
        input,
        output: output.clone(),
        n,
        items_per_wi: 1,
    });
    let range = NDRange::d1(n).local1(64);

    let q_off = queue_with_mode(&ctx, CoarsenMode::Off);
    q_off.enqueue_kernel(&kernel, range).unwrap();
    let baseline = read_bits(&q_off, &output);

    let q = queue_with_mode(&ctx, CoarsenMode::Force(1_000_000));
    q.enqueue_kernel(&kernel, range).unwrap();
    assert_eq!(read_bits(&q, &output), baseline);
}

/// The seeded illegal fixture is refused at enqueue time under a forced
/// factor (no certificate exists to honor), while the Auto queue runs it
/// uncoarsened — auto-coarsening never fuses without a proof.
#[test]
fn illegal_fixture_refused_under_force_runs_under_auto() {
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let (kernel, range) = cl_kernels::coarsen::neighbor_shift(&ctx, 1024, 64);

    let q_force = queue_with_mode(&ctx, CoarsenMode::Force(4));
    match q_force.enqueue_kernel(&kernel, range) {
        Err(ClError::ContractViolation { .. }) => {}
        other => panic!("forced coarsening of an Illegal kernel must be refused, got {other:?}"),
    }

    let q_auto = queue_with_mode(&ctx, CoarsenMode::Auto);
    q_auto
        .enqueue_kernel(&kernel, range)
        .expect("Auto never fuses an unproven kernel, so the launch must run");
}

/// The statically-undecidable scatter fixture: refused under Force,
/// runs (uncoarsened) under Auto.
#[test]
fn unknown_fixture_refused_under_force_runs_under_auto() {
    let ctx = Context::new(Device::native_cpu(2).unwrap());
    let (kernel, range) = cl_kernels::coarsen::indirect_scatter(&ctx, 1024, 64);

    let q_force = queue_with_mode(&ctx, CoarsenMode::Force(2));
    match q_force.enqueue_kernel(&kernel, range) {
        Err(ClError::ContractViolation { .. }) => {}
        other => panic!("forced coarsening of an Unknown kernel must be refused, got {other:?}"),
    }

    let q_auto = queue_with_mode(&ctx, CoarsenMode::Auto);
    q_auto
        .enqueue_kernel(&kernel, range)
        .expect("Auto must fall back to factor 1 on an Unknown verdict");
}

/// `CL_COARSEN=off` turns coarsening off, an integer K ≥ 1 forces K, and
/// every other value keeps Auto. Calls the parser `QueueConfig::from_env`
/// uses, so no process-wide variable is touched while sibling tests build
/// queues from the environment.
#[test]
fn no_coarsen_env_wins() {
    let parse = CoarsenMode::from_env_value;
    assert_eq!(parse(Some("off")), CoarsenMode::Off);
    assert_eq!(parse(Some(" OFF ")), CoarsenMode::Off);
    assert_eq!(parse(Some("8")), CoarsenMode::Force(8));
    assert_eq!(parse(Some(" 1 ")), CoarsenMode::Force(1));
    for auto in [
        None,
        Some("0"),
        Some(""),
        Some("on"),
        Some("-2"),
        Some("4x"),
    ] {
        assert_eq!(parse(auto), CoarsenMode::Auto, "{auto:?}");
    }
}
