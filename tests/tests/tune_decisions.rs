//! Tuner decision correctness: whatever the bandit picks must be *legal*
//! (workgroup sizes divide the global size and respect the device cap;
//! chunk requests are clamped to the coarsening prover's certificate) and
//! *invisible* (tuned launches — trials and converged steady state alike —
//! produce bit-identical results to the untuned path), across random
//! geometries on the native CPU and both modeled devices.
//!
//! Seeded random sweeps (hand-rolled loops; the workspace builds offline,
//! so proptest is unavailable).

use std::path::PathBuf;
use std::sync::Arc;

use cl_kernels::apps::square::Square;
use cl_kernels::apps::vectoradd::VectorAdd;
use cl_tune::{TuneKey, Tuner};
use cl_util::XorShift;
use integration_tests::all_ctxs;
use ocl_rt::{Buffer, Context, Kernel, MemFlags, NDRange, QueueConfig};

const CASES: usize = 8;
/// Enqueues before declaring a convergence failure: the largest shortlist
/// budget (42) plus slack.
const MAX_LAUNCHES: usize = 64;

fn tmpcache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cl-tune-decisions-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn read_bits(q: &ocl_rt::CommandQueue, buf: &Buffer<f32>) -> Vec<u32> {
    let mut host = vec![0.0f32; buf.len()];
    q.read_buffer(buf, 0, &mut host).expect("read output");
    host.into_iter().map(f32::to_bits).collect()
}

fn tune_key(ctx: &Context, kernel: &Arc<dyn Kernel>, range: NDRange) -> TuneKey {
    TuneKey {
        kernel: kernel.name().to_string(),
        global: range.global(),
        dims: range.dims(),
        device: ctx.device().name().to_string(),
        workers: ctx.device().pool().workers(),
    }
}

/// Drive a NULL-local launch on a tuned queue to convergence, asserting
/// every intermediate (trial) launch is already bit-exact against the
/// untuned baseline. Returns the converged config.
fn converge_checked(
    ctx: &Context,
    tuner: &Arc<Tuner>,
    kernel: &Arc<dyn Kernel>,
    range: NDRange,
    output: &Buffer<f32>,
    label: &str,
) -> cl_tune::TunedConfig {
    let q_untuned = ctx.queue_with(QueueConfig::default());
    q_untuned
        .enqueue_kernel(kernel, range)
        .expect("untuned enqueue");
    let baseline = read_bits(&q_untuned, output);

    let q_tuned = ctx.queue_with(QueueConfig::default().tuner(Arc::clone(tuner)));
    let key = tune_key(ctx, kernel, range);
    for launch in 0..MAX_LAUNCHES {
        q_tuned
            .enqueue_kernel(kernel, range)
            .unwrap_or_else(|e| panic!("{label}: tuned launch {launch} failed: {e}"));
        assert_eq!(
            read_bits(&q_tuned, output),
            baseline,
            "{label}: tuned launch {launch} diverged from the untuned path"
        );
        if tuner.converged(&key).is_some() {
            return tuner.converged(&key).expect("just checked");
        }
    }
    panic!("{label}: no convergence within {MAX_LAUNCHES} launches");
}

/// Random square geometries on every device kind: converged configs are
/// legal by construction and the tuned path is bit-exact throughout.
#[test]
fn tuned_square_is_legal_and_bit_exact_on_all_devices() {
    for (dev_label, ctx) in all_ctxs() {
        let tuner = Arc::new(Tuner::new(Some(tmpcache(&format!("sq-{dev_label}.json")))));
        let mut rng = XorShift::seed_from_u64(0x7E57_0001);
        for case in 0..CASES {
            let n = rng.range_usize(64, 16_384);
            let seed = rng.next_u64();
            let label = format!("{dev_label}/square case {case} (n={n})");
            let input_host = cl_util::rng::random_f32(seed, n, -2.0, 2.0);
            let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
            let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
            let kernel: Arc<dyn Kernel> = Arc::new(Square {
                input,
                output: output.clone(),
                n,
                items_per_wi: 1,
            });
            let range = NDRange::d1(n); // NULL local: the tuner's entry point
            let cfg = converge_checked(&ctx, &tuner, &kernel, range, &output, &label);

            // Legality: the chosen workgroup size is an exact divisor of
            // the global size, within the device cap; the chunk request is
            // within the shortlist bound (the enqueue path further clamps
            // it to the coarsening certificate — proven by bit-exactness
            // above, since an over-fused chunk would reorder dispatch).
            assert_eq!(n % cfg.wg, 0, "{label}: wg {} must divide n", cfg.wg);
            assert!(
                cfg.wg <= ctx.device().default_wg(),
                "{label}: wg {} beyond device cap {}",
                cfg.wg,
                ctx.device().default_wg()
            );
            assert!(
                cfg.chunk >= 1 && cfg.chunk <= cl_tune::MAX_CHUNK,
                "{label}: chunk {} out of bounds",
                cfg.chunk
            );
            assert!(
                cfg.chunk <= n / cfg.wg,
                "{label}: chunk {} exceeds group count {}",
                cfg.chunk,
                n / cfg.wg
            );
        }
    }
}

/// Same property for `vectoadd` with workitem coalescing in the mix, on
/// the native device (modeled devices are covered by the square sweep).
#[test]
fn tuned_vectoradd_is_legal_and_bit_exact() {
    let ctx = Context::new(ocl_rt::Device::native_cpu(2).unwrap());
    let tuner = Arc::new(Tuner::new(Some(tmpcache("va-native.json"))));
    let mut rng = XorShift::seed_from_u64(0x7E57_0002);
    for case in 0..CASES {
        let items_per_wi = 1usize << rng.range_usize(0, 3);
        let n = rng.range_usize(16, 4_096) * items_per_wi;
        let seed = rng.next_u64();
        let label = format!("vectoadd case {case} (n={n}, k={items_per_wi})");
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
        let cfg = converge_checked(&ctx, &tuner, &kernel, range, &c, &label);
        let g0 = n / items_per_wi;
        assert_eq!(
            g0 % cfg.wg,
            0,
            "{label}: wg {} must divide global {g0}",
            cfg.wg
        );
        assert!(cfg.wg <= ctx.device().default_wg());
    }
}

/// Explicit local sizes bypass the tuner entirely: the caller's choice is
/// law, no trials happen, and no tuner state is created for the key.
#[test]
fn explicit_local_bypasses_the_tuner() {
    let ctx = Context::new(ocl_rt::Device::native_cpu(2).unwrap());
    let tuner = Arc::new(Tuner::new(Some(tmpcache("bypass.json"))));
    let q = ctx.queue_with(QueueConfig::default().tuner(Arc::clone(&tuner)));
    let n = 1024;
    let input_host = cl_util::rng::random_f32(3, n, -2.0, 2.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
    let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
    let kernel: Arc<dyn Kernel> = Arc::new(Square {
        input,
        output: output.clone(),
        n,
        items_per_wi: 1,
    });
    let range = NDRange::d1(n).local1(32);
    for _ in 0..8 {
        q.enqueue_kernel(&kernel, range)
            .expect("explicit-local enqueue");
    }
    assert!(
        tuner.converged_keys().is_empty(),
        "explicit local sizes must never create tuner state"
    );
    assert_eq!(tuner.trials(&tune_key(&ctx, &kernel, range)), 0);
}

/// Once converged, further enqueues ride the plan cache: the session trial
/// count stops moving no matter how many launches follow.
#[test]
fn converged_path_stops_sampling() {
    let ctx = Context::new(ocl_rt::Device::native_cpu(2).unwrap());
    let tuner = Arc::new(Tuner::new(Some(tmpcache("steady.json"))));
    let n = 4096;
    let input_host = cl_util::rng::random_f32(9, n, -2.0, 2.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &input_host).unwrap();
    let output = ctx.buffer::<f32>(MemFlags::READ_WRITE, n).unwrap();
    let kernel: Arc<dyn Kernel> = Arc::new(Square {
        input,
        output: output.clone(),
        n,
        items_per_wi: 1,
    });
    let range = NDRange::d1(n);
    converge_checked(&ctx, &tuner, &kernel, range, &output, "steady-state square");
    let key = tune_key(&ctx, &kernel, range);
    let settled = tuner.session_trials(&key);
    assert!(settled > 0, "convergence must have spent trials");
    let q = ctx.queue_with(QueueConfig::default().tuner(Arc::clone(&tuner)));
    for _ in 0..16 {
        q.enqueue_kernel(&kernel, range).expect("steady enqueue");
    }
    assert_eq!(
        tuner.session_trials(&key),
        settled,
        "converged keys must never be re-sampled"
    );
}

/// `CL_TUNE=1` tunes against the shared process tuner; with the variable
/// unset a queue keeps the fixed heuristic.
#[test]
fn cl_tune_selects_the_process_tuner() {
    let on = QueueConfig::from_vars(|name| (name == "CL_TUNE").then(|| "1".to_string()));
    let tuner = on.tuner.expect("CL_TUNE=1 sets a tuner");
    assert!(Arc::ptr_eq(&tuner, Tuner::process()));
    assert!(QueueConfig::from_vars(|_| None).tuner.is_none());
}
