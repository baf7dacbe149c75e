//! Command lowering — what every recorded command becomes.
//!
//! With recording on ([`crate::context::ContextConfig::race_recording`] /
//! `CL_RACE=1`), every command a queue executes is lowered into a
//! [`cl_analyze::flow::FlowCommand`] and lands in the context's
//! [`crate::RaceLog`]: kernel enqueues with their arg→buffer bindings and
//! static footprints, all transfer commands, and map/unmap pairs. One
//! queue's stream ([`crate::RaceLog::queue_commands`]) feeds
//! [`cl_analyze::analyze_flow`] — dependence DAG plus the five
//! inter-command lints (`cl-flow`); the whole log feeds the cross-queue
//! happens-before analysis (`cl-race`).
//!
//! Launch lowering happens **once per enqueue**: bindings are queried a
//! single time via [`crate::kernel::Kernel::buffer_bindings`] and the
//! footprint is scaled from elements to region-absolute bytes right there —
//! workgroup chunks never re-resolve argument metadata.

use cl_analyze::flow::{BufUse, FlagClass, FlowCommand, FlowOp};
use cl_analyze::launch_footprint;
use cl_mem::MemFlags;

use crate::buffer::{Buffer, Pod};
use crate::kernel::{ArgBinding, Kernel};
use crate::ndrange::ResolvedRange;

pub(crate) fn flag_class(flags: MemFlags) -> FlagClass {
    if !flags.kernel_can_write() {
        FlagClass::ReadOnly
    } else if !flags.kernel_can_read() {
        FlagClass::WriteOnly
    } else {
        FlagClass::ReadWrite
    }
}

/// Base `BufUse` for a transfer command touching `buf`'s window: identity,
/// flags, and span, with empty interval sets for the caller to fill.
pub(crate) fn transfer_use<T: Pod>(buf: &Buffer<T>) -> BufUse {
    let lo = buf.byte_offset();
    BufUse::new(
        buf.id(),
        format!("mem#{}", buf.id()),
        flag_class(buf.flags()),
        (lo, lo + buf.byte_len()),
    )
    .preinit(buf.flags().contains(MemFlags::COPY_HOST_PTR))
}

fn binding_use(b: &ArgBinding) -> BufUse {
    let class = match (b.readable, b.writable) {
        (true, false) => FlagClass::ReadOnly,
        (false, _) => FlagClass::WriteOnly,
        (true, true) => FlagClass::ReadWrite,
    };
    BufUse::new(
        b.buffer,
        b.name.clone(),
        class,
        (b.byte_offset, b.byte_offset + b.byte_len),
    )
    .preinit(b.preinit)
}

/// A kernel's arg bindings lowered to flow uses, plus whether the kernel
/// carries an access spec at all.
pub(crate) type LoweredUses = (Vec<BufUse>, bool);

/// Lower one kernel enqueue into flow uses: bindings are captured once,
/// and each binding's element footprint (when the kernel has a spec) is
/// scaled to region-absolute bytes. Bindings without a matching spec
/// buffer — and all bindings of spec-less kernels — get conservative
/// whole-window may sets in the directions the allocation flags permit.
/// Returns `(uses, has_spec)`.
pub(crate) fn launch_uses(kernel: &dyn Kernel, resolved: &ResolvedRange) -> LoweredUses {
    let bindings = kernel.buffer_bindings();
    if bindings.is_empty() {
        return (Vec::new(), false);
    }
    let spec = kernel.access_spec(resolved);
    let fp = spec.as_ref().map(launch_footprint);
    let uses = bindings
        .iter()
        .map(|b| {
            let mut u = binding_use(b);
            match fp.as_ref().and_then(|f| f.buffer(&b.name)) {
                Some(bf) => {
                    let esz = b.elem_size as i128;
                    let off = b.byte_offset as i128;
                    u.may_read = bf.may_read.scaled(esz, off);
                    u.must_read = bf.must_read.scaled(esz, off);
                    u.may_write = bf.may_write.scaled(esz, off);
                    u.must_write = bf.must_write.scaled(esz, off);
                    u.atomic = bf.atomic;
                }
                None => {
                    let (lo, end) = (u.span.0 as i128, u.span.1 as i128);
                    if b.readable {
                        u = u.may_reads(lo, end);
                    }
                    if b.writable {
                        u = u.may_writes(lo, end);
                    }
                }
            }
            u
        })
        .collect();
    (uses, spec.is_some())
}

/// A command whose label is its op's description.
fn described(op: FlowOp, uses: Vec<BufUse>) -> FlowCommand {
    let label = op.describe();
    FlowCommand::new(op, label, uses)
}

/// The Launch command of one enqueue of `kernel` with its lowered uses.
pub(crate) fn launch_command(kernel: &str, (uses, has_spec): LoweredUses) -> FlowCommand {
    let op = FlowOp::Launch {
        kernel: kernel.to_string(),
        has_spec,
    };
    FlowCommand::new(op, kernel, uses)
}

/// The Map command for mapping `id` of the window `u`. A read-intent map
/// definitely consumes the mapped bytes, so it carries a must-read over
/// the window; a writable map's host writes ride its Unmap instead.
pub(crate) fn map_command(id: u64, u: &BufUse, writable: bool) -> FlowCommand {
    let (lo, end) = (u.span.0 as i128, u.span.1 as i128);
    let u = if writable {
        u.clone()
    } else {
        u.clone().reads(lo, end)
    };
    described(FlowOp::Map { id, writable }, vec![u])
}

/// The Unmap command closing mapping `id` of the window `u`: host writes
/// through a writable mapping become visible here.
pub(crate) fn unmap_command(id: u64, u: &BufUse, writable: bool) -> FlowCommand {
    let (lo, end) = (u.span.0 as i128, u.span.1 as i128);
    let u = if writable {
        u.clone().writes(lo, end)
    } else {
        u.clone()
    };
    described(FlowOp::Unmap { id }, vec![u])
}

/// The HostAccess command for a raw host access to `elems` (element range
/// within the buffer's window): a definite write, or a possible read.
pub(crate) fn host_access_command<T: Pod>(
    buf: &Buffer<T>,
    elems: std::ops::Range<usize>,
    write: bool,
    via_map: Option<u64>,
) -> FlowCommand {
    let esz = std::mem::size_of::<T>();
    let lo = (buf.byte_offset() + elems.start * esz) as i128;
    let end = (buf.byte_offset() + elems.end * esz) as i128;
    let u = transfer_use(buf);
    let u = if write {
        u.writes(lo, end)
    } else {
        u.may_reads(lo, end)
    };
    described(FlowOp::HostAccess { write, via_map }, vec![u])
}
