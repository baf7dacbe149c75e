//! Raw memory regions backing buffer objects.

use std::alloc::Layout;
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache-line / SIMD friendly alignment for all buffer allocations.
pub const REGION_ALIGN: usize = 64;

/// Where a region notionally lives. On a CPU OpenCL device both variants are
/// ordinary DRAM — the tag exists so the transfer models (and the GPU device
/// model) can price them differently, and so experiments can report the
/// placement dimension of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocLocation {
    /// Default placement: the compute device's memory.
    Device,
    /// `CL_MEM_ALLOC_HOST_PTR`: pinned, host-accessible memory.
    PinnedHost,
}

/// Memory-subsystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access at `offset..offset+len` falls outside a region of `size` bytes.
    OutOfBounds {
        offset: usize,
        len: usize,
        size: usize,
    },
    /// Zero-sized buffers are invalid (`CL_INVALID_BUFFER_SIZE`).
    ZeroSize,
    /// A mapping conflicts with an outstanding mapping.
    MapConflict,
    /// Unmap of a range that was never mapped.
    NotMapped,
    /// Kernel-access flags forbid this operation.
    AccessViolation(&'static str),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => write!(
                f,
                "access [{offset}, {}) out of bounds for region of {size} bytes",
                offset + len
            ),
            MemError::ZeroSize => write!(f, "zero-sized buffer"),
            MemError::MapConflict => write!(f, "conflicting outstanding mapping"),
            MemError::NotMapped => write!(f, "range is not mapped"),
            MemError::AccessViolation(what) => write!(f, "kernel access violation: {what}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Number of live region bytes, per location, across the process (used by
/// tests and the device-memory-pressure report).
static DEVICE_BYTES: AtomicU64 = AtomicU64::new(0);
static PINNED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Live allocation footprint `(device_bytes, pinned_bytes)`.
pub fn live_bytes() -> (u64, u64) {
    (
        DEVICE_BYTES.load(Ordering::Relaxed),
        PINNED_BYTES.load(Ordering::Relaxed),
    )
}

/// An owned, aligned, interior-mutable byte region.
///
/// Kernels from many workgroups write disjoint parts of a region
/// concurrently through `&self`, mirroring OpenCL global memory. The safety
/// contract is OpenCL's: concurrent accesses to the *same* bytes without
/// synchronization are a program bug (the runtime offers a checked mode in
/// `ocl-rt` to detect overlap in tests).
pub struct MemRegion {
    ptr: NonNull<u8>,
    len: usize,
    layout: Layout,
    location: AllocLocation,
}

// SAFETY: the region is a plain byte arena; synchronization of contents is
// the OpenCL programming contract (disjoint writes), as documented above.
unsafe impl Send for MemRegion {}
unsafe impl Sync for MemRegion {}

impl MemRegion {
    /// Allocate `len` zeroed bytes at `REGION_ALIGN` alignment.
    pub fn alloc(len: usize, location: AllocLocation) -> Result<Self, MemError> {
        if len == 0 {
            return Err(MemError::ZeroSize);
        }
        let layout = Layout::from_size_align(len, REGION_ALIGN).expect("valid layout");
        // SAFETY: layout has non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        match location {
            AllocLocation::Device => DEVICE_BYTES.fetch_add(len as u64, Ordering::Relaxed),
            AllocLocation::PinnedHost => PINNED_BYTES.fetch_add(len as u64, Ordering::Relaxed),
        };
        Ok(MemRegion {
            ptr,
            len,
            layout,
            location,
        })
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty (never true: zero-size is rejected).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Placement tag.
    pub fn location(&self) -> AllocLocation {
        self.location
    }

    /// Base pointer (valid for `len` bytes, `REGION_ALIGN`-aligned).
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// `Ok` when `offset..offset + len` lies inside the region.
    pub(crate) fn check(&self, offset: usize, len: usize) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.len,
            });
        }
        Ok(())
    }

    /// Copy `dst.len()` bytes out of the region starting at `offset`.
    pub fn read_into(&self, offset: usize, dst: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, dst.len())?;
        // SAFETY: bounds checked; src and dst cannot overlap (dst is a
        // distinct Rust allocation borrowed mutably).
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr.as_ptr().add(offset),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
        Ok(())
    }

    /// Copy `src.len()` bytes into the region starting at `offset`.
    pub fn write_from(&self, offset: usize, src: &[u8]) -> Result<(), MemError> {
        self.check(offset, src.len())?;
        // SAFETY: bounds checked; disjointness per the region contract.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(offset), src.len());
        }
        Ok(())
    }

    /// Copy `len` bytes from `src` at `src_offset` into this region at
    /// `offset` (`clEnqueueCopyBuffer`). Both ranges are checked before any
    /// byte moves, and the copy has `memmove` semantics, so `src` may be this
    /// region and the two ranges may overlap.
    pub fn copy_from(
        &self,
        offset: usize,
        src: &MemRegion,
        src_offset: usize,
        len: usize,
    ) -> Result<(), MemError> {
        src.check(src_offset, len)?;
        self.check(offset, len)?;
        // SAFETY: both ranges bounds checked; `ptr::copy` tolerates overlap;
        // disjointness from other accessors per the region contract.
        unsafe {
            std::ptr::copy(
                src.ptr.as_ptr().add(src_offset),
                self.ptr.as_ptr().add(offset),
                len,
            );
        }
        Ok(())
    }

    /// Borrow a byte range immutably.
    ///
    /// # Safety
    /// Caller must ensure no concurrent conflicting writes to the range for
    /// the lifetime of the slice (the OpenCL contract).
    pub unsafe fn slice(&self, offset: usize, len: usize) -> Result<&[u8], MemError> {
        self.check(offset, len)?;
        Ok(std::slice::from_raw_parts(
            self.ptr.as_ptr().add(offset),
            len,
        ))
    }

    /// Borrow a byte range mutably through `&self`.
    ///
    /// # Safety
    /// Caller must ensure the range is not accessed concurrently for the
    /// lifetime of the slice (the OpenCL contract).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, offset: usize, len: usize) -> Result<&mut [u8], MemError> {
        self.check(offset, len)?;
        Ok(std::slice::from_raw_parts_mut(
            self.ptr.as_ptr().add(offset),
            len,
        ))
    }

    /// Fill the whole region with a byte value (`clEnqueueFillBuffer`).
    pub fn fill(&self, value: u8) {
        // SAFETY: in bounds by construction.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), value, self.len) };
    }
}

impl Drop for MemRegion {
    fn drop(&mut self) {
        match self.location {
            AllocLocation::Device => DEVICE_BYTES.fetch_sub(self.len as u64, Ordering::Relaxed),
            AllocLocation::PinnedHost => PINNED_BYTES.fetch_sub(self.len as u64, Ordering::Relaxed),
        };
        // SAFETY: allocated with this layout in `alloc`.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

impl fmt::Debug for MemRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MemRegion({} B, {:?})", self.len, self.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed_and_aligned() {
        let r = MemRegion::alloc(1000, AllocLocation::Device).unwrap();
        assert_eq!(r.as_ptr() as usize % REGION_ALIGN, 0);
        let mut buf = vec![0xFFu8; 1000];
        r.read_into(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn zero_size_rejected() {
        assert_eq!(
            MemRegion::alloc(0, AllocLocation::Device).unwrap_err(),
            MemError::ZeroSize
        );
    }

    #[test]
    fn write_then_read_roundtrips() {
        let r = MemRegion::alloc(64, AllocLocation::PinnedHost).unwrap();
        let src: Vec<u8> = (0..32).collect();
        r.write_from(16, &src).unwrap();
        let mut dst = vec![0u8; 32];
        r.read_into(16, &mut dst).unwrap();
        assert_eq!(src, dst);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let r = MemRegion::alloc(16, AllocLocation::Device).unwrap();
        let mut dst = vec![0u8; 8];
        assert!(matches!(
            r.read_into(12, &mut dst),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn offset_overflow_fails_cleanly() {
        let r = MemRegion::alloc(16, AllocLocation::Device).unwrap();
        let mut dst = vec![0u8; 8];
        assert!(matches!(
            r.read_into(usize::MAX - 2, &mut dst),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn fill_sets_all_bytes() {
        let r = MemRegion::alloc(128, AllocLocation::Device).unwrap();
        r.fill(0xAB);
        let mut dst = vec![0u8; 128];
        r.read_into(0, &mut dst).unwrap();
        assert!(dst.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn live_bytes_tracks_allocations() {
        let before = live_bytes();
        let r = MemRegion::alloc(4096, AllocLocation::PinnedHost).unwrap();
        let during = live_bytes();
        assert!(during.1 >= before.1 + 4096);
        drop(r);
        let after = live_bytes();
        assert_eq!(after.1, during.1 - 4096);
    }

    #[test]
    fn copy_from_checks_both_ranges_before_moving() {
        let a = MemRegion::alloc(16, AllocLocation::Device).unwrap();
        let b = MemRegion::alloc(32, AllocLocation::Device).unwrap();
        b.fill(9);
        assert!(matches!(
            b.copy_from(0, &a, 8, 16),
            Err(MemError::OutOfBounds { size: 16, .. })
        ));
        assert!(matches!(
            a.copy_from(8, &b, 0, 16),
            Err(MemError::OutOfBounds { size: 16, .. })
        ));
        let mut got = vec![0u8; 16];
        a.read_into(0, &mut got).unwrap();
        assert!(got.iter().all(|&x| x == 0), "a failed copy moves nothing");
    }

    #[test]
    fn slices_view_region_bytes() {
        let r = MemRegion::alloc(32, AllocLocation::Device).unwrap();
        unsafe {
            let s = r.slice_mut(8, 8).unwrap();
            s.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
            let v = r.slice(8, 8).unwrap();
            assert_eq!(v, &[1, 2, 3, 4, 5, 6, 7, 8]);
            assert!(r.slice(30, 4).is_err());
        }
    }
}
