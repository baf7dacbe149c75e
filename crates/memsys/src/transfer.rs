//! The two data-transfer API families of Section III-D.
//!
//! * [`TransferEngine::write_buffer`] / [`TransferEngine::read_buffer`]
//!   reproduce `clEnqueueWriteBuffer` / `clEnqueueReadBuffer`: the runtime
//!   allocates a staging object and moves the bytes through it — two real
//!   `memcpy`s, the behaviour the paper identifies as the reason copying is
//!   slower. They make the two copies through a bounded staging window
//!   (`STAGE`, 256 KiB) that each transfer fills and drains piece by piece.
//!   A staging object as large as the transfer costs more than the copies
//!   once it passes the allocator's mmap ceiling: a fresh mapping, a page
//!   fault per 4 KiB and an `munmap` on every call.
//! * [`TransferEngine::map`] reproduces `clEnqueueMapBuffer`: on a CPU
//!   device host and device share DRAM, so mapping just returns a pointer.
//!
//! The engine also tracks outstanding mappings and rejects conflicting ones
//! (overlapping ranges where either side writes), which OpenCL declares
//! undefined.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cl_util::sync::Mutex;

use crate::region::{MemError, MemRegion};
use crate::stats::TransferStats;

/// Which transfer family an operation used (for experiment labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Explicit copy through `read_buffer`/`write_buffer`.
    Copy,
    /// Zero-copy `map`/unmap.
    Map,
}

/// Access mode requested for a mapping (`CL_MAP_READ` / `CL_MAP_WRITE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapMode {
    Read,
    Write,
    ReadWrite,
}

impl MapMode {
    fn writes(self) -> bool {
        matches!(self, MapMode::Write | MapMode::ReadWrite)
    }
}

#[derive(Debug, Clone, Copy)]
struct MapEntry {
    id: u64,
    offset: usize,
    len: usize,
    mode: MapMode,
}

fn overlaps(a: &MapEntry, offset: usize, len: usize) -> bool {
    a.offset < offset + len && offset < a.offset + a.len
}

/// Size of the staging window the copy path streams through: small enough to
/// stay below the allocator's mmap ceiling and in cache, large enough that
/// the per-piece cost vanishes against the bytes moved.
const STAGE: usize = 256 << 10;

/// Moves bytes between host memory and buffer regions, counting every copy.
#[derive(Default)]
pub struct TransferEngine {
    stats: TransferStats,
    maps: Mutex<HashMap<usize, Vec<MapEntry>>>,
    next_map_id: AtomicU64,
}

impl TransferEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Transfer counters.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }

    /// `clEnqueueWriteBuffer`: host → staging window → region (two copies
    /// through a bounded staging window). The whole range is checked before
    /// the first byte moves, so a failed write leaves the region untouched.
    pub fn write_buffer(
        &self,
        region: &MemRegion,
        offset: usize,
        src: &[u8],
    ) -> Result<(), MemError> {
        region.check(offset, src.len())?;
        self.stats.bump_copy();
        // The intermediate object the paper describes: "the OpenCL runtime
        // should allocate a separate memory object and copy the data".
        self.stats.bump_staging();
        let mut staging = vec![0u8; src.len().min(STAGE)];
        for (i, piece) in src.chunks(STAGE).enumerate() {
            let window = &mut staging[..piece.len()];
            window.copy_from_slice(piece);
            // `black_box` keeps the hop: without it LLVM forwards `piece`
            // straight into the region and drops the staging copy.
            region.write_from(offset + i * STAGE, std::hint::black_box(window))?;
        }
        self.stats.add_copied(2 * src.len() as u64);
        Ok(())
    }

    /// `clEnqueueReadBuffer`: region → staging window → host (two copies
    /// through a bounded staging window). The whole range is checked before
    /// the first byte moves.
    pub fn read_buffer(
        &self,
        region: &MemRegion,
        offset: usize,
        dst: &mut [u8],
    ) -> Result<(), MemError> {
        region.check(offset, dst.len())?;
        self.stats.bump_copy();
        self.stats.bump_staging();
        let mut staging = vec![0u8; dst.len().min(STAGE)];
        for (i, piece) in dst.chunks_mut(STAGE).enumerate() {
            let window = &mut staging[..piece.len()];
            region.read_into(offset + i * STAGE, window)?;
            piece.copy_from_slice(std::hint::black_box(window));
        }
        self.stats.add_copied(2 * dst.len() as u64);
        Ok(())
    }

    /// `clEnqueueMapBuffer`: return a pointer into the region. Zero copies.
    ///
    /// Fails if the range is out of bounds or conflicts with an outstanding
    /// mapping (overlap where either mapping writes).
    pub fn map<'e>(
        &'e self,
        region: &'e MemRegion,
        offset: usize,
        len: usize,
        mode: MapMode,
    ) -> Result<MapGuard<'e>, MemError> {
        // Validate bounds through a slice probe (no copy).
        // SAFETY: probe slice is dropped immediately.
        unsafe {
            region.slice(offset, len)?;
        }
        let key = region.as_ptr() as usize;
        let mut maps = self.maps.lock();
        let entries = maps.entry(key).or_default();
        for e in entries.iter() {
            if overlaps(e, offset, len) && (e.mode.writes() || mode.writes()) {
                return Err(MemError::MapConflict);
            }
        }
        let id = self.next_map_id.fetch_add(1, Ordering::Relaxed);
        entries.push(MapEntry {
            id,
            offset,
            len,
            mode,
        });
        self.stats.bump_map();
        Ok(MapGuard {
            engine: self,
            region,
            id,
            offset,
            len,
            mode,
            defused: false,
        })
    }

    /// Number of outstanding mappings on `region`.
    pub fn outstanding_maps(&self, region: &MemRegion) -> usize {
        self.maps
            .lock()
            .get(&(region.as_ptr() as usize))
            .map_or(0, |v| v.len())
    }

    /// Remove the mapping `id`; `false` (with no stats bump) if no such
    /// mapping is live — the unmap-of-unmapped path.
    fn unmap(&self, region_key: usize, id: u64) -> bool {
        let mut maps = self.maps.lock();
        let removed = match maps.get_mut(&region_key) {
            Some(entries) => {
                let before = entries.len();
                entries.retain(|e| e.id != id);
                let removed = entries.len() != before;
                if entries.is_empty() {
                    maps.remove(&region_key);
                }
                removed
            }
            None => false,
        };
        if removed {
            self.stats.bump_unmap();
        }
        removed
    }

    /// `clEnqueueUnmapMemObject` by range: remove the one outstanding
    /// mapping that covers exactly `[offset, offset + len)` of `region`.
    ///
    /// Returns [`MemError::NotMapped`] when no such mapping is live — a
    /// typed error the caller can surface, instead of the silent (or
    /// debug-panic) behaviour unmap-of-unmapped used to have.
    pub fn unmap_range(
        &self,
        region: &MemRegion,
        offset: usize,
        len: usize,
    ) -> Result<(), MemError> {
        let id = {
            let maps = self.maps.lock();
            maps.get(&(region.as_ptr() as usize))
                .and_then(|entries| {
                    entries
                        .iter()
                        .find(|e| e.offset == offset && e.len == len)
                        .map(|e| e.id)
                })
                .ok_or(MemError::NotMapped)?
        };
        if self.unmap(region.as_ptr() as usize, id) {
            Ok(())
        } else {
            Err(MemError::NotMapped)
        }
    }
}

/// An outstanding mapping; unmaps on drop (`clEnqueueUnmapMemObject`).
pub struct MapGuard<'e> {
    engine: &'e TransferEngine,
    region: &'e MemRegion,
    id: u64,
    offset: usize,
    len: usize,
    mode: MapMode,
    /// Set once the mapping has been released explicitly; Drop becomes a
    /// no-op instead of a second (unmap-of-unmapped) release.
    defused: bool,
}

impl MapGuard<'_> {
    /// Release the mapping explicitly, surfacing the unmap-of-unmapped
    /// path as a typed error: if something already force-released this
    /// mapping (e.g. [`TransferEngine::unmap_range`]), returns
    /// [`MemError::NotMapped`] rather than silently double-counting.
    pub fn unmap(mut self) -> Result<(), MemError> {
        self.defused = true;
        if self.engine.unmap(self.region.as_ptr() as usize, self.id) {
            Ok(())
        } else {
            Err(MemError::NotMapped)
        }
    }
    /// The mapped bytes, readable.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: conflict detection ensures no concurrent writer through
        // this engine; bounds validated at map time.
        unsafe {
            self.region
                .slice(self.offset, self.len)
                .expect("validated at map time")
        }
    }

    /// The mapped bytes, writable. Panics if the mapping is read-only —
    /// writing through a `CL_MAP_READ` pointer is undefined in OpenCL, and
    /// we make it a loud error instead.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        assert!(
            self.mode.writes(),
            "mapping was created with MapMode::Read; writing is undefined"
        );
        // SAFETY: as above, plus `&mut self` makes this the unique borrow.
        unsafe {
            self.region
                .slice_mut(self.offset, self.len)
                .expect("validated at map time")
        }
    }

    /// Length of the mapped range.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapped range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offset of the mapped range within the buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl std::fmt::Debug for MapGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MapGuard(offset={}, len={}, mode={:?})",
            self.offset, self.len, self.mode
        )
    }
}

impl Drop for MapGuard<'_> {
    fn drop(&mut self) {
        if !self.defused {
            // Ignore the removal result: a force-unmapped (unmap_range)
            // entry is already gone and the stat was counted there.
            self.engine.unmap(self.region.as_ptr() as usize, self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::AllocLocation;

    fn region(n: usize) -> MemRegion {
        MemRegion::alloc(n, AllocLocation::Device).unwrap()
    }

    #[test]
    fn copy_write_then_read_roundtrips_and_counts_double() {
        let e = TransferEngine::new();
        let r = region(256);
        let src: Vec<u8> = (0..=255).collect();
        e.write_buffer(&r, 0, &src).unwrap();
        let mut dst = vec![0u8; 256];
        e.read_buffer(&r, 0, &mut dst).unwrap();
        assert_eq!(src, dst);
        let s = e.stats().snapshot();
        // Each 256-byte transfer moves 512 bytes through staging.
        assert_eq!(s.bytes_copied, 2 * 2 * 256);
        assert_eq!(s.copy_calls, 2);
        assert_eq!(s.staging_allocs, 2);
        assert_eq!(s.map_calls, 0);
    }

    #[test]
    fn map_moves_zero_bytes() {
        let e = TransferEngine::new();
        let r = region(128);
        {
            let mut m = e.map(&r, 0, 128, MapMode::Write).unwrap();
            m.as_mut_slice().fill(7);
        }
        {
            let m = e.map(&r, 0, 128, MapMode::Read).unwrap();
            assert!(m.as_slice().iter().all(|&b| b == 7));
        }
        let s = e.stats().snapshot();
        assert_eq!(s.bytes_copied, 0, "mapping must not copy");
        assert_eq!(s.map_calls, 2);
        assert_eq!(s.unmap_calls, 2);
    }

    #[test]
    fn conflicting_maps_rejected() {
        let e = TransferEngine::new();
        let r = region(64);
        let _w = e.map(&r, 0, 32, MapMode::Write).unwrap();
        assert_eq!(
            e.map(&r, 16, 16, MapMode::Read).unwrap_err(),
            MemError::MapConflict
        );
        assert_eq!(
            e.map(&r, 0, 64, MapMode::Write).unwrap_err(),
            MemError::MapConflict
        );
    }

    #[test]
    fn disjoint_and_read_read_maps_allowed() {
        let e = TransferEngine::new();
        let r = region(64);
        let _a = e.map(&r, 0, 32, MapMode::Write).unwrap();
        let _b = e.map(&r, 32, 32, MapMode::Write).unwrap();
        let _c = e.map(&r, 0, 32, MapMode::Read);
        assert!(_c.is_err()); // overlaps writer
        let r2 = region(64);
        let _d = e.map(&r2, 0, 64, MapMode::Read).unwrap();
        let _e2 = e.map(&r2, 0, 64, MapMode::Read).unwrap(); // read/read ok
    }

    #[test]
    fn unmap_releases_conflicts() {
        let e = TransferEngine::new();
        let r = region(64);
        {
            let _w = e.map(&r, 0, 64, MapMode::Write).unwrap();
            assert_eq!(e.outstanding_maps(&r), 1);
        }
        assert_eq!(e.outstanding_maps(&r), 0);
        let _again = e.map(&r, 0, 64, MapMode::Write).unwrap();
    }

    #[test]
    #[should_panic(expected = "MapMode::Read")]
    fn writing_through_read_map_panics() {
        let e = TransferEngine::new();
        let r = region(16);
        let mut m = e.map(&r, 0, 16, MapMode::Read).unwrap();
        let _ = m.as_mut_slice();
    }

    #[test]
    fn map_out_of_bounds_fails() {
        let e = TransferEngine::new();
        let r = region(16);
        assert!(matches!(
            e.map(&r, 8, 16, MapMode::Read),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn explicit_unmap_succeeds_once_and_counts_once() {
        let e = TransferEngine::new();
        let r = region(64);
        let m = e.map(&r, 0, 64, MapMode::Write).unwrap();
        m.unmap().unwrap();
        assert_eq!(e.outstanding_maps(&r), 0);
        assert_eq!(e.stats().snapshot().unmap_calls, 1);
    }

    #[test]
    fn unmap_range_of_unmapped_region_is_a_typed_error() {
        let e = TransferEngine::new();
        let r = region(64);
        assert_eq!(e.unmap_range(&r, 0, 64), Err(MemError::NotMapped));
        // Wrong range on a live mapping is equally NotMapped.
        let _m = e.map(&r, 0, 32, MapMode::Read).unwrap();
        assert_eq!(e.unmap_range(&r, 0, 64), Err(MemError::NotMapped));
        assert_eq!(e.unmap_range(&r, 0, 32), Ok(()));
        assert_eq!(e.outstanding_maps(&r), 0);
    }

    #[test]
    fn force_unmapped_guard_reports_not_mapped_and_does_not_double_count() {
        let e = TransferEngine::new();
        let r = region(64);
        let m = e.map(&r, 0, 64, MapMode::Write).unwrap();
        e.unmap_range(&r, 0, 64).unwrap();
        // The guard's mapping is already gone: explicit unmap is typed...
        assert_eq!(m.unmap(), Err(MemError::NotMapped));
        // ...and the release was counted exactly once.
        assert_eq!(e.stats().snapshot().unmap_calls, 1);
    }

    #[test]
    fn dropping_a_force_unmapped_guard_is_silent() {
        let e = TransferEngine::new();
        let r = region(64);
        {
            let _m = e.map(&r, 0, 64, MapMode::Write).unwrap();
            e.unmap_range(&r, 0, 64).unwrap();
        } // Drop after force-unmap: no panic, no extra stat.
        assert_eq!(e.stats().snapshot().unmap_calls, 1);
    }

    #[test]
    fn copies_larger_than_the_window_roundtrip_at_an_unaligned_offset() {
        let e = TransferEngine::new();
        let len = 2 * STAGE + 12_345;
        let r = region(len + 7);
        let src: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        e.write_buffer(&r, 7, &src).unwrap();
        let mut dst = vec![0u8; len];
        e.read_buffer(&r, 7, &mut dst).unwrap();
        assert!(src == dst, "roundtrip through three window pieces");
        let s = e.stats().snapshot();
        assert_eq!(s.bytes_copied, 2 * 2 * len as u64);
        assert_eq!(s.staging_allocs, 2, "one staging window per call");
    }

    #[test]
    fn out_of_range_copy_fails_before_any_byte_moves() {
        let e = TransferEngine::new();
        let len = 2 * STAGE;
        let r = region(len);
        let pattern: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        r.write_from(0, &pattern).unwrap();
        // Starts in bounds, runs one byte past the end: the first pieces
        // would fit, so a check per piece would write a valid prefix.
        let src = vec![0xEEu8; STAGE + 1];
        assert!(matches!(
            e.write_buffer(&r, STAGE, &src),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut after = vec![0u8; len];
        r.read_into(0, &mut after).unwrap();
        assert!(after == pattern, "a failed write changed the region");
        let mut dst = vec![0x11u8; STAGE + 1];
        assert!(matches!(
            e.read_buffer(&r, STAGE, &mut dst),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(
            dst.iter().all(|&b| b == 0x11),
            "a failed read wrote the host"
        );
        assert_eq!(e.stats().snapshot(), Default::default());
    }

    #[test]
    fn copy_at_offset() {
        let e = TransferEngine::new();
        let r = region(32);
        e.write_buffer(&r, 8, &[1, 2, 3, 4]).unwrap();
        let mut out = vec![0u8; 4];
        e.read_buffer(&r, 8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }
}
