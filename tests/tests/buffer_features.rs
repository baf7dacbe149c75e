//! Sub-buffers, device-side copies and fills — the `cl_mem` API surface
//! beyond the paper's core experiments, exercised end-to-end.

use std::sync::Arc;

use integration_tests::native_ctx;
use ocl_rt::{Buffer, GroupCtx, Kernel, MemFlags, NDRange, Pod};

struct Negate {
    data: Buffer<f32>,
}

impl Kernel for Negate {
    fn name(&self) -> &str {
        "negate"
    }
    fn run_group(&self, g: &mut GroupCtx) {
        let d = self.data.view_mut();
        g.for_each(|wi| {
            let i = wi.global_id(0);
            d.set(i, -d.get(i));
        });
    }
}

#[test]
fn sub_buffer_windows_the_parent() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let parent = ctx
        .buffer_from(
            MemFlags::default(),
            &(0..100).map(|i| i as f32).collect::<Vec<_>>(),
        )
        .unwrap();
    let sub = parent.sub_buffer(10, 20).unwrap();
    assert_eq!(sub.len(), 20);
    assert!(sub.is_sub_buffer());
    assert!(!parent.is_sub_buffer());

    // Reads through the sub-buffer see the parent's elements 10..30.
    let mut got = vec![0.0f32; 20];
    q.read_buffer(&sub, 0, &mut got).unwrap();
    assert_eq!(got[0], 10.0);
    assert_eq!(got[19], 29.0);

    // A kernel over the sub-buffer touches only the window.
    let k: Arc<dyn Kernel> = Arc::new(Negate { data: sub.clone() });
    q.enqueue_kernel(&k, NDRange::d1(20).local1(5)).unwrap();
    let mut all = vec![0.0f32; 100];
    q.read_buffer(&parent, 0, &mut all).unwrap();
    assert_eq!(all[9], 9.0, "outside the window untouched");
    assert_eq!(all[10], -10.0, "window start negated");
    assert_eq!(all[29], -29.0, "window end negated");
    assert_eq!(all[30], 30.0, "outside the window untouched");
}

#[test]
fn nested_sub_buffers_compose() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let parent = ctx
        .buffer_from(MemFlags::default(), &(0..64u32).collect::<Vec<_>>())
        .unwrap();
    let mid = parent.sub_buffer(16, 32).unwrap();
    let inner = mid.sub_buffer(8, 8).unwrap(); // elements 24..32 of parent
    let mut got = vec![0u32; 8];
    q.read_buffer(&inner, 0, &mut got).unwrap();
    assert_eq!(got, (24..32).collect::<Vec<u32>>());
}

#[test]
fn sub_buffer_out_of_bounds_rejected() {
    let ctx = native_ctx();
    let b = ctx.buffer::<f32>(MemFlags::default(), 16).unwrap();
    assert!(b.sub_buffer(10, 8).is_err());
    assert!(b.sub_buffer(16, 1).is_err());
    assert!(b.sub_buffer(0, 16).is_ok());
}

#[test]
fn copy_buffer_moves_device_side() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let src = ctx
        .buffer_from(
            MemFlags::default(),
            &(0..50).map(|i| i as f32).collect::<Vec<_>>(),
        )
        .unwrap();
    let dst = ctx.buffer::<f32>(MemFlags::default(), 50).unwrap();
    let ev = q.copy_buffer(&src, 5, &dst, 10, 20).unwrap();
    assert_eq!(ev.bytes, 80);
    let mut got = vec![0.0f32; 50];
    q.read_buffer(&dst, 0, &mut got).unwrap();
    assert_eq!(got[9], 0.0);
    assert_eq!(got[10], 5.0);
    assert_eq!(got[29], 24.0);
    assert_eq!(got[30], 0.0);
}

#[test]
fn copy_between_sub_buffers() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let a = ctx
        .buffer_from(
            MemFlags::default(),
            &(0..32).map(|i| i as f32).collect::<Vec<_>>(),
        )
        .unwrap();
    let b = ctx.buffer::<f32>(MemFlags::default(), 32).unwrap();
    let sa = a.sub_buffer(8, 8).unwrap();
    let sb = b.sub_buffer(16, 8).unwrap();
    q.copy_buffer(&sa, 0, &sb, 0, 8).unwrap();
    let mut got = vec![0.0f32; 32];
    q.read_buffer(&b, 0, &mut got).unwrap();
    assert_eq!(
        &got[16..24],
        &[8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    );
}

#[test]
fn fill_buffer_sets_every_element() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let b = ctx.buffer::<u32>(MemFlags::default(), 100).unwrap();
    q.fill_buffer(&b, 0xDEAD_BEEFu32).unwrap();
    let mut got = vec![0u32; 100];
    q.read_buffer(&b, 0, &mut got).unwrap();
    assert!(got.iter().all(|&x| x == 0xDEAD_BEEF));

    // Filling a sub-buffer leaves the rest untouched.
    let sub = b.sub_buffer(25, 50).unwrap();
    q.fill_buffer(&sub, 7u32).unwrap();
    q.read_buffer(&b, 0, &mut got).unwrap();
    assert_eq!(got[24], 0xDEAD_BEEF);
    assert!(got[25..75].iter().all(|&x| x == 7));
    assert_eq!(got[75], 0xDEAD_BEEF);
}

/// A 12-byte element: 256 KiB is not a whole number of them.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
struct Rgb([f32; 3]);

// SAFETY: three `f32`s, no padding, valid for any bit pattern.
unsafe impl Pod for Rgb {}

#[test]
fn fill_sub_buffer_with_a_multi_byte_element_larger_than_a_row() {
    let ctx = native_ctx();
    let q = ctx.queue();
    // 600 000 bytes in the window: two full 256 KiB rows and a tail, none
    // of them a multiple of the window.
    let (n, origin, count) = (50_010, 3, 50_000);
    let before: Vec<Rgb> = (0..n)
        .map(|i| Rgb([i as f32, -(i as f32), 0.5 * i as f32]))
        .collect();
    let parent = ctx.buffer_from(MemFlags::default(), &before).unwrap();
    let sub = parent.sub_buffer(origin, count).unwrap();
    let value = Rgb([1.5, -2.0, 3.25]);
    q.fill_buffer(&sub, value).unwrap();
    let mut got = vec![Rgb([0.0; 3]); n];
    q.read_buffer(&parent, 0, &mut got).unwrap();
    for (i, (g, b)) in got.iter().zip(&before).enumerate() {
        if (origin..origin + count).contains(&i) {
            assert_eq!(*g, value, "element {i} inside the window");
        } else {
            assert_eq!(*g, *b, "element {i} outside the window");
        }
    }
}

#[test]
fn copy_between_overlapping_sub_buffers_is_memmove() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let init: Vec<u32> = (0..1000).collect();
    // Forward (destination after source) and backward, 600 elements each.
    for (from, to) in [(0, 100), (100, 0)] {
        let parent = ctx.buffer_from(MemFlags::default(), &init).unwrap();
        let src = parent.sub_buffer(from, 600).unwrap();
        let dst = parent.sub_buffer(to, 600).unwrap();
        q.copy_buffer(&src, 0, &dst, 0, 600).unwrap();
        let mut want = init.clone();
        want.copy_within(from..from + 600, to);
        let mut got = vec![0u32; 1000];
        q.read_buffer(&parent, 0, &mut got).unwrap();
        assert!(got == want, "copy {from} -> {to} differs from copy_within");
    }
}

#[test]
fn mapping_a_sub_buffer_views_only_the_window() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let parent = ctx
        .buffer_from(MemFlags::default(), &(0..40u32).collect::<Vec<_>>())
        .unwrap();
    let sub = parent.sub_buffer(20, 10).unwrap();
    let (map, ev) = q.map_buffer(&sub).unwrap();
    assert_eq!(ev.bytes, 40);
    assert_eq!(map.len(), 10);
    assert_eq!(map[0], 20);
    assert_eq!(map[9], 29);
}
