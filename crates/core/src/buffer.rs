//! Typed buffer objects (`cl_mem` analog) and kernel-side views.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cl_mem::{AllocLocation, MemFlags, MemRegion};
use cl_vec::Lane;

use crate::error::ClError;

/// Plain-old-data element types storable in buffers.
///
/// # Safety
/// Implementors must be valid for any bit pattern and contain no padding
/// (they are copied bytewise through untyped regions).
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for [f32; 2] {}
unsafe impl Pod for [f32; 4] {}

/// Process-wide allocation counter: a stable identity for flow analysis
/// (region addresses can be reused after a buffer is freed).
static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct BufferInner {
    pub(crate) region: MemRegion,
    pub(crate) flags: MemFlags,
    pub(crate) len: usize,
    pub(crate) ctx_id: u64,
    pub(crate) id: u64,
}

/// A typed device buffer. Cloning is cheap (reference-counted, like
/// `clRetainMemObject`).
pub struct Buffer<T: Pod> {
    pub(crate) inner: Arc<BufferInner>,
    /// Element offset of this handle's window into the region
    /// (0 for whole-buffer handles; nonzero for sub-buffers).
    pub(crate) offset: usize,
    /// Element length of this handle's window.
    pub(crate) window: usize,
    _elem: PhantomData<T>,
}

impl<T: Pod> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            inner: Arc::clone(&self.inner),
            offset: self.offset,
            window: self.window,
            _elem: PhantomData,
        }
    }
}

impl<T: Pod> Buffer<T> {
    pub(crate) fn create(flags: MemFlags, len: usize, ctx_id: u64) -> Result<Self, ClError> {
        flags.validate()?;
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(ClError::BufferTooLarge)?;
        let location = if flags.host_resident() {
            AllocLocation::PinnedHost
        } else {
            AllocLocation::Device
        };
        let region = MemRegion::alloc(bytes.max(1), location)?;
        Ok(Buffer {
            inner: Arc::new(BufferInner {
                region,
                flags,
                len,
                ctx_id,
                id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
            }),
            offset: 0,
            window: len,
            _elem: PhantomData,
        })
    }

    /// Stable identity of the backing allocation (shared by clones and
    /// sub-buffers, unique across the process lifetime).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// `clCreateSubBuffer`: a handle onto `count` elements starting at
    /// element `origin` of this buffer's window. The sub-buffer shares the
    /// parent's storage and flags; dropping the parent keeps the storage
    /// alive (reference-counted, like OpenCL).
    pub fn sub_buffer(&self, origin: usize, count: usize) -> Result<Buffer<T>, ClError> {
        if origin
            .checked_add(count)
            .is_none_or(|end| end > self.window)
        {
            return Err(ClError::Mem(cl_mem::MemError::OutOfBounds {
                offset: origin * std::mem::size_of::<T>(),
                len: count * std::mem::size_of::<T>(),
                size: self.byte_len(),
            }));
        }
        Ok(Buffer {
            inner: Arc::clone(&self.inner),
            offset: self.offset + origin,
            window: count,
            _elem: PhantomData,
        })
    }

    /// Whether this handle is a sub-buffer window.
    pub fn is_sub_buffer(&self) -> bool {
        self.offset != 0 || self.window != self.inner.len
    }

    /// Byte offset of this handle's window within the backing region.
    pub(crate) fn byte_offset(&self) -> usize {
        self.offset * std::mem::size_of::<T>()
    }

    /// Number of elements in this handle's window.
    pub fn len(&self) -> usize {
        self.window
    }

    /// Whether the window holds no elements.
    pub fn is_empty(&self) -> bool {
        self.window == 0
    }

    /// Window size in bytes.
    pub fn byte_len(&self) -> usize {
        self.window * std::mem::size_of::<T>()
    }

    /// The flags it was created with.
    pub fn flags(&self) -> MemFlags {
        self.inner.flags
    }

    /// Where the backing region lives.
    pub fn location(&self) -> AllocLocation {
        self.inner.region.location()
    }

    /// A read view for kernel code. Panics if the buffer was created
    /// `WRITE_ONLY` (kernel-side access violation, caught loudly instead of
    /// being undefined as in OpenCL).
    ///
    /// Kept as an assert rather than a `Result`: views are taken inside
    /// kernel bodies, where a panic is contained by the launch's
    /// `catch_unwind` and surfaces to the host as `ClError::KernelPanicked`
    /// with the faulting global id.
    pub fn view(&self) -> BufView<'_, T> {
        assert!(
            self.inner.flags.kernel_can_read(),
            "kernel read of a WRITE_ONLY buffer"
        );
        // SAFETY: the window is validated at construction.
        let base = unsafe { (self.inner.region.as_ptr() as *const T).add(self.offset) };
        BufView {
            ptr: base,
            len: self.window,
            _life: PhantomData,
        }
    }

    /// A write view for kernel code. Panics if the buffer was created
    /// `READ_ONLY`. Contained at launch like [`Buffer::view`].
    pub fn view_mut(&self) -> BufViewMut<'_, T> {
        assert!(
            self.inner.flags.kernel_can_write(),
            "kernel write of a READ_ONLY buffer"
        );
        // SAFETY: the window is validated at construction.
        let base = unsafe { (self.inner.region.as_ptr() as *mut T).add(self.offset) };
        BufViewMut {
            ptr: base,
            len: self.window,
            _life: PhantomData,
        }
    }
}

impl<T: Pod> std::fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Buffer<{}>(len={}, {:?}, {:?})",
            std::any::type_name::<T>(),
            self.inner.len,
            self.inner.flags,
            self.location()
        )
    }
}

/// Read-only kernel view of a buffer (global memory pointer analog).
#[derive(Clone, Copy)]
pub struct BufView<'b, T: Pod> {
    ptr: *const T,
    len: usize,
    _life: PhantomData<&'b ()>,
}

// SAFETY: reads of Pod data; concurrent reads are always fine.
unsafe impl<T: Pod> Send for BufView<'_, T> {}
unsafe impl<T: Pod> Sync for BufView<'_, T> {}

// Bounds asserts in the view accessors below stay asserts on purpose: they
// run on the kernel side of the API, where returning a Result would change
// every kernel's signature and an out-of-bounds access is a kernel bug, not
// a host input error. The launch engine contains the panic and reports it
// as `ClError::KernelPanicked` at the exact global id.
impl<T: Pod> BufView<'_, T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked element read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "buffer read out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked; T is Pod.
        unsafe { *self.ptr.add(i) }
    }

    /// Borrow `count` elements starting at `offset` as a slice (for SIMD
    /// loads). The caller must respect the workgroup disjointness contract.
    #[inline]
    pub fn slice(&self, offset: usize, count: usize) -> &[T] {
        assert!(offset + count <= self.len, "slice out of bounds");
        // SAFETY: bounds checked.
        unsafe { std::slice::from_raw_parts(self.ptr.add(offset), count) }
    }
}

/// Writable kernel view of a buffer.
///
/// Mirrors OpenCL global memory: many workgroups hold this view
/// concurrently, and the *program* guarantees their writes are disjoint
/// (data races on the same element are a kernel bug, as in OpenCL).
#[derive(Clone, Copy)]
pub struct BufViewMut<'b, T: Pod> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'b ()>,
}

// SAFETY: disjoint-write contract documented above.
unsafe impl<T: Pod> Send for BufViewMut<'_, T> {}
unsafe impl<T: Pod> Sync for BufViewMut<'_, T> {}

impl<T: Pod> BufViewMut<'_, T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-checked element read.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "buffer read out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked.
        unsafe { *self.ptr.add(i) }
    }

    /// Bounds-checked element write.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        assert!(
            i < self.len,
            "buffer write out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked; disjointness per the view contract.
        unsafe { *self.ptr.add(i) = v };
    }

    /// Borrow `count` elements starting at `offset` as a read slice.
    #[inline]
    pub fn slice(&self, offset: usize, count: usize) -> &[T] {
        assert!(offset + count <= self.len, "slice out of bounds");
        // SAFETY: bounds checked; reads race only if the kernel violates
        // the disjointness contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(offset), count) }
    }

    /// Mutable slice of `count` elements at `offset` (for SIMD stores). The
    /// workgroup disjointness contract applies to the whole range.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub fn slice_mut(&self, offset: usize, count: usize) -> &mut [T] {
        assert!(offset + count <= self.len, "slice out of bounds");
        // SAFETY: bounds checked; disjointness per the view contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), count) }
    }
}

impl BufView<'_, f32> {
    /// Elements `i .. i + L::WIDTH` as one lane value: one element at
    /// `f32`, one SIMD step at `VecF32<W>`.
    #[inline(always)]
    pub fn load<L: Lane>(&self, i: usize) -> L {
        L::load(self.slice(i, L::WIDTH), 0)
    }
}

impl BufViewMut<'_, f32> {
    /// [`BufView::load`] through a write view.
    #[inline(always)]
    pub fn load<L: Lane>(&self, i: usize) -> L {
        L::load(self.slice(i, L::WIDTH), 0)
    }

    /// Store `v` to elements `i .. i + L::WIDTH`.
    #[inline(always)]
    pub fn store<L: Lane>(&self, i: usize, v: L) {
        v.store(self.slice_mut(i, L::WIDTH), 0);
    }
}

impl BufViewMut<'_, u32> {
    /// Atomic add on element `i` (OpenCL `atomic_add` on a `__global uint*`)
    /// — the primitive Histogram-style kernels need.
    #[inline]
    pub fn atomic_add(&self, i: usize, v: u32) -> u32 {
        assert!(i < self.len, "atomic out of bounds: {i} >= {}", self.len);
        // SAFETY: u32 and AtomicU32 share layout; region is 64B-aligned and
        // elements are 4B-aligned.
        let a = unsafe { &*(self.ptr.add(i) as *const AtomicU32) };
        a.fetch_add(v, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf<T: Pod>(flags: MemFlags, len: usize) -> Buffer<T> {
        Buffer::create(flags, len, 0).unwrap()
    }

    #[test]
    fn creation_reports_shape() {
        let b: Buffer<f32> = buf(MemFlags::default(), 100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.byte_len(), 400);
        assert_eq!(b.location(), AllocLocation::Device);
    }

    #[test]
    fn pinned_flag_selects_host_residence() {
        let b: Buffer<f32> = buf(MemFlags::ALLOC_HOST_PTR, 8);
        assert_eq!(b.location(), AllocLocation::PinnedHost);
    }

    #[test]
    fn conflicting_flags_rejected() {
        assert!(matches!(
            Buffer::<f32>::create(MemFlags::READ_ONLY | MemFlags::WRITE_ONLY, 8, 0),
            Err(ClError::InvalidFlags(_))
        ));
    }

    #[test]
    fn views_read_and_write() {
        let b: Buffer<u32> = buf(MemFlags::default(), 16);
        let w = b.view_mut();
        for i in 0..16 {
            w.set(i, (i * i) as u32);
        }
        let r = b.view();
        assert_eq!(r.get(5), 25);
        assert_eq!(r.slice(3, 2), &[9, 16]);
    }

    #[test]
    #[should_panic(expected = "WRITE_ONLY")]
    fn read_view_of_write_only_panics() {
        let b: Buffer<f32> = buf(MemFlags::WRITE_ONLY, 4);
        let _ = b.view();
    }

    #[test]
    #[should_panic(expected = "READ_ONLY")]
    fn write_view_of_read_only_panics() {
        let b: Buffer<f32> = buf(MemFlags::READ_ONLY, 4);
        let _ = b.view_mut();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let b: Buffer<f32> = buf(MemFlags::default(), 4);
        let _ = b.view().get(4);
    }

    #[test]
    fn atomic_add_accumulates() {
        let b: Buffer<u32> = buf(MemFlags::default(), 4);
        let v = b.view_mut();
        let old = v.atomic_add(2, 5);
        assert_eq!(old, 0);
        v.atomic_add(2, 3);
        assert_eq!(v.get(2), 8);
    }

    #[test]
    fn clone_shares_storage() {
        let b: Buffer<f32> = buf(MemFlags::default(), 4);
        let c = b.clone();
        b.view_mut().set(0, 42.0);
        assert_eq!(c.view().get(0), 42.0);
    }
}
