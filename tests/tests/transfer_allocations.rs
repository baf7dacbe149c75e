//! The transfer commands never allocate in proportion to the bytes they
//! move: copies stage through a bounded window, fills replicate their
//! pattern into at most one window, and device-side copies move bytes
//! region to region.
//!
//! A counting global allocator records the largest single allocation made
//! on the current thread while armed. The flag is thread-local, so
//! allocations from sibling tests and pool workers never count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use integration_tests::native_ctx;
use ocl_rt::MemFlags;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest single allocation `f` made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|m| m.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, LARGEST.with(Cell::get))
}

const MIB: usize = 1 << 20;
const N: usize = 64 * MIB / 4;

#[test]
fn large_transfers_allocate_at_most_one_window() {
    let ctx = native_ctx();
    let q = ctx.queue();
    let a = ctx.buffer::<u32>(MemFlags::default(), N).unwrap();
    let b = ctx.buffer::<u32>(MemFlags::default(), N).unwrap();
    let mut host: Vec<u32> = (0..N as u32).collect();

    let (r, largest) = largest_allocation(|| q.write_buffer(&a, 0, &host));
    r.unwrap();
    assert!(largest <= MIB, "write_buffer allocated {largest} B at once");

    let (r, largest) = largest_allocation(|| q.copy_buffer(&a, 0, &b, 0, N));
    r.unwrap();
    assert!(largest <= MIB, "copy_buffer allocated {largest} B at once");

    let (r, largest) = largest_allocation(|| q.fill_buffer(&a, 7u32));
    r.unwrap();
    assert!(largest <= MIB, "fill_buffer allocated {largest} B at once");

    host.fill(0);
    let (r, largest) = largest_allocation(|| q.read_buffer(&b, 0, &mut host));
    r.unwrap();
    assert!(largest <= MIB, "read_buffer allocated {largest} B at once");
    assert!(
        host.iter().enumerate().all(|(i, &x)| x == i as u32),
        "the written data came back through copy and read"
    );

    let (r, largest) = largest_allocation(|| q.read_buffer(&a, 0, &mut host));
    r.unwrap();
    assert!(largest <= MIB, "read_buffer allocated {largest} B at once");
    assert!(
        host.iter().all(|&x| x == 7),
        "the fill reached every element"
    );
}
