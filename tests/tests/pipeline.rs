//! Multi-command pipelines: buffers shared between kernels, transfers
//! interleaved with launches, and the affinity-style dependent-kernel
//! pattern of Figure 9 expressed through the public API.

use std::sync::{Arc, Mutex, MutexGuard};

use integration_tests::native_ctx;
use ocl_rt::{Buffer, GroupCtx, Kernel, MemFlags, NDRange};

struct Add {
    a: Buffer<f32>,
    b: Buffer<f32>,
    c: Buffer<f32>,
}

impl Kernel for Add {
    fn name(&self) -> &str {
        "add"
    }
    fn run_group(&self, g: &mut GroupCtx) {
        let (a, b, c) = (self.a.view(), self.b.view(), self.c.view_mut());
        g.for_each(|wi| {
            let i = wi.global_id(0);
            c.set(i, a.get(i) + b.get(i));
        });
    }
}

struct MulInPlace {
    c: Buffer<f32>,
    d: Buffer<f32>,
}

impl Kernel for MulInPlace {
    fn name(&self) -> &str {
        "mul"
    }
    fn run_group(&self, g: &mut GroupCtx) {
        let (c, d) = (self.c.view(), self.d.view_mut());
        g.for_each(|wi| {
            let i = wi.global_id(0);
            let x = c.get(i);
            d.set(i, x * x);
        });
    }
}

/// Serializes the tests in this file. `cl_mem::live_bytes` is one
/// process-wide counter, so the leak check below only holds while no other
/// test allocates or frees buffers between its readings.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn dependent_kernels_chain_through_a_shared_buffer() {
    let _serial = serial();
    const N: usize = 10_000;
    let ctx = native_ctx();
    let q = ctx.queue();
    let a = ctx
        .buffer_from(MemFlags::READ_ONLY, &vec![1.5f32; N])
        .unwrap();
    let b = ctx
        .buffer_from(MemFlags::READ_ONLY, &vec![0.5f32; N])
        .unwrap();
    let c = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
    let d = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).unwrap();

    // Kernel 1 produces C; kernel 2 consumes it (the Figure 9 dependence).
    let k1: Arc<dyn Kernel> = Arc::new(Add { a, b, c: c.clone() });
    let k2: Arc<dyn Kernel> = Arc::new(MulInPlace {
        c: c.clone(),
        d: d.clone(),
    });
    q.enqueue_kernel(&k1, NDRange::d1(N).local1(100)).unwrap();
    q.enqueue_kernel(&k2, NDRange::d1(N).local1(100)).unwrap();

    let mut out = vec![0.0f32; N];
    q.read_buffer(&d, 0, &mut out).unwrap();
    assert!(out.iter().all(|&x| x == 4.0));
}

#[test]
fn host_edits_via_mapping_are_visible_to_kernels() {
    let _serial = serial();
    const N: usize = 1024;
    let ctx = native_ctx();
    let q = ctx.queue();
    let c = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
    let d = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();

    {
        let (mut map, _ev) = q.map_buffer_mut(&c).unwrap();
        for (i, v) in map.iter_mut().enumerate() {
            *v = i as f32;
        }
    } // unmap

    let k: Arc<dyn Kernel> = Arc::new(MulInPlace {
        c: c.clone(),
        d: d.clone(),
    });
    q.enqueue_kernel(&k, NDRange::d1(N).local1(128)).unwrap();

    let (map, _ev) = q.map_buffer(&d).unwrap();
    assert_eq!(map[10], 100.0);
    assert_eq!(map[31], 961.0);
}

#[test]
fn repeated_launches_reuse_buffers_without_leaks() {
    let _serial = serial();
    const N: usize = 4096;
    let (dev_before, _) = cl_mem::live_bytes();
    {
        let ctx = native_ctx();
        let q = ctx.queue();
        let c = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
        let d = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
        let k: Arc<dyn Kernel> = Arc::new(MulInPlace {
            c: c.clone(),
            d: d.clone(),
        });
        for _ in 0..50 {
            q.enqueue_kernel(&k, NDRange::d1(N).local1(256)).unwrap();
        }
        let (dev_during, _) = cl_mem::live_bytes();
        assert!(dev_during >= dev_before + 2 * (N as u64) * 4);
    }
    // Buffers freed with the context.
    let (dev_after, _) = cl_mem::live_bytes();
    assert!(
        dev_after <= dev_before + 64,
        "leak: {dev_before} -> {dev_after}"
    );
}

#[test]
fn pinned_device_runs_the_same_pipeline() {
    let _serial = serial();
    const N: usize = 2048;
    let device = ocl_rt::Device::native_cpu_pinned(2, cl_pool::PinPolicy::Compact).unwrap();
    let ctx = ocl_rt::Context::new(device);
    let q = ctx.queue();
    let c = ctx
        .buffer_from(MemFlags::default(), &vec![3.0f32; N])
        .unwrap();
    let d = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
    let k: Arc<dyn Kernel> = Arc::new(MulInPlace { c, d: d.clone() });
    q.enqueue_kernel(&k, NDRange::d1(N).local1(256)).unwrap();
    let mut out = vec![0.0f32; N];
    q.read_buffer(&d, 0, &mut out).unwrap();
    assert!(out.iter().all(|&x| x == 9.0));
}
