//! # cl-mem — the OpenCL-style memory subsystem
//!
//! Implements the memory-object machinery whose performance the paper
//! evaluates in Section III-D:
//!
//! * **Allocation flags** ([`MemFlags`]): `READ_ONLY` / `WRITE_ONLY` /
//!   `READ_WRITE` kernel-access flags and the `ALLOC_HOST_PTR` (pinned host)
//!   / default (device) placement flags of `clCreateBuffer`.
//! * **Regions** ([`MemRegion`]): 64-byte-aligned allocations tagged with
//!   their placement. On a CPU device, host and "device" memory are the same
//!   DRAM — which is precisely why the paper finds placement does not matter
//!   on CPUs.
//! * **The transfer engine** ([`TransferEngine`]): the two API families the
//!   paper compares.
//!   - *Copy* (`clEnqueueReadBuffer`/`clEnqueueWriteBuffer`): the runtime
//!     moves bytes through an intermediate staging object — "the OpenCL
//!     runtime should allocate a separate memory object and copy the data"
//!     (paper, Section III-D). Two real `memcpy`s per transfer, through a
//!     bounded staging window filled and drained piece by piece, so the
//!     staging object never grows with the transfer.
//!   - *Map* (`clEnqueueMapBuffer`): "only returning a pointer is needed" —
//!     zero copies on a CPU device.
//!
//! Every byte moved is counted in [`TransferStats`], so experiments can
//! report both wall-clock and mechanistic (bytes-copied) evidence.

mod flags;
mod region;
mod stats;
mod transfer;

pub use flags::{FlagError, MemFlags};
pub use region::{live_bytes, AllocLocation, MemError, MemRegion, REGION_ALIGN};
pub use stats::{TransferStats, TransferStatsSnapshot};
pub use transfer::{MapGuard, MapMode, TransferEngine, TransferKind};
