//! Command-stream dataflow analysis — the static core of `cl-flow`.
//!
//! Consumes a recorded sequence of queue commands (kernel launches with
//! arg→buffer bindings, read/write/copy/fill transfers, map/unmap pairs,
//! raw host accesses) and:
//!
//! 1. builds a **command DAG**: every ordered pair of commands touching the
//!    same buffer is classified as RAW / WAR / WAW / independent, with the
//!    same three-valued verdicts as the per-launch lints — `Proven` when
//!    the must sets overlap (the dependence certainly exists), `Unknown`
//!    when only the may sets do, independent when not even those touch;
//! 2. runs five **inter-command lints** over the stream: flag-contract
//!    violations, use-while-mapped, read-before-write, redundant transfer
//!    (the "paying Figure 7/8 cost for nothing" hint), and unsynchronized
//!    host access.
//!
//! All ranges are **byte** intervals within a buffer's backing region, so
//! sub-buffer windows of one allocation interact correctly. The model is
//! runtime-independent: `ocl_rt`'s recording shim lowers its live command
//! stream into [`FlowCommand`]s, and tests can construct streams directly.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::footprint::IntervalSet;
use crate::lints::{Severity, Verdict};

/// How a buffer was allocated, as far as kernels are concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagClass {
    /// Kernels may read, never write (`CL_MEM_READ_ONLY`).
    ReadOnly,
    /// Kernels may write, never read (`CL_MEM_WRITE_ONLY`).
    WriteOnly,
    /// No kernel-side restriction.
    ReadWrite,
}

impl FlagClass {
    pub fn as_str(self) -> &'static str {
        match self {
            FlagClass::ReadOnly => "READ_ONLY",
            FlagClass::WriteOnly => "WRITE_ONLY",
            FlagClass::ReadWrite => "READ_WRITE",
        }
    }
}

/// One command's use of one buffer: byte interval sets within the buffer's
/// backing region, plus the allocation facts the lints need.
#[derive(Debug, Clone)]
pub struct BufUse {
    /// Stable buffer identity (allocation id, not address — addresses can
    /// be reused after free).
    pub buffer: u64,
    /// Human-readable name for findings (spec buffer name or `mem#id`).
    pub name: String,
    /// Kernel-side access contract of the allocation.
    pub flags: FlagClass,
    /// Whether the allocation was initialized at creation
    /// (`COPY_HOST_PTR`) — seeds the read-before-write defined set.
    pub preinit: bool,
    /// This use's visible window within the region: `[lo, end)` bytes.
    pub span: (usize, usize),
    /// Bytes the command may read (over-approximation).
    pub may_read: IntervalSet,
    /// Bytes the command definitely reads on every execution.
    pub must_read: IntervalSet,
    /// Bytes the command may write (over-approximation).
    pub may_write: IntervalSet,
    /// Bytes the command definitely writes on every execution.
    pub must_write: IntervalSet,
    /// Whether any access is an atomic read-modify-write.
    pub atomic: bool,
}

impl BufUse {
    pub fn new(
        buffer: u64,
        name: impl Into<String>,
        flags: FlagClass,
        span: (usize, usize),
    ) -> Self {
        BufUse {
            buffer,
            name: name.into(),
            flags,
            preinit: false,
            span,
            may_read: IntervalSet::new(),
            must_read: IntervalSet::new(),
            may_write: IntervalSet::new(),
            must_write: IntervalSet::new(),
            atomic: false,
        }
    }

    /// Mark the allocation host-initialized.
    pub fn preinit(mut self, yes: bool) -> Self {
        self.preinit = yes;
        self
    }

    /// Record a definite read of `[lo, end)` (contributes to both may and
    /// must sets).
    pub fn reads(mut self, lo: i128, end: i128) -> Self {
        self.may_read.insert(lo, end);
        self.must_read.insert(lo, end);
        self
    }

    /// Record a possible read of `[lo, end)` (may set only).
    pub fn may_reads(mut self, lo: i128, end: i128) -> Self {
        self.may_read.insert(lo, end);
        self
    }

    /// Record a definite write of `[lo, end)`.
    pub fn writes(mut self, lo: i128, end: i128) -> Self {
        self.may_write.insert(lo, end);
        self.must_write.insert(lo, end);
        self
    }

    /// Record a possible write of `[lo, end)` (may set only).
    pub fn may_writes(mut self, lo: i128, end: i128) -> Self {
        self.may_write.insert(lo, end);
        self
    }

    /// All bytes this use touches in any way.
    pub fn touched(&self) -> IntervalSet {
        self.may_read.union(&self.may_write)
    }
}

/// The kind of a recorded command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowOp {
    /// Kernel enqueue. `has_spec` records whether the footprint came from a
    /// `KernelAccessSpec` (exact intervals) or falls back to the binding's
    /// whole window (conservative).
    Launch { kernel: String, has_spec: bool },
    /// Host→device write.
    WriteBuffer,
    /// Device→host read.
    ReadBuffer,
    /// Device→device copy (first use is the source, second the target).
    CopyBuffer,
    /// Pattern fill.
    FillBuffer,
    /// Map: the host gains a view of the range. The command's use carries
    /// `may_read` over the mapped range (mapping exposes current bytes);
    /// for read-intent maps that read is a `must`.
    Map { id: u64, writable: bool },
    /// Unmap: host writes through a writable mapping become visible here,
    /// so the command's use carries the write sets for writable maps.
    Unmap { id: u64 },
    /// A raw host access. `via_map: None` means the host touched device
    /// memory outside any mapping — always a synchronization violation.
    HostAccess { write: bool, via_map: Option<u64> },
}

impl FlowOp {
    pub fn describe(&self) -> String {
        match self {
            FlowOp::Launch { kernel, .. } => format!("launch {kernel}"),
            FlowOp::WriteBuffer => "write-buffer".into(),
            FlowOp::ReadBuffer => "read-buffer".into(),
            FlowOp::CopyBuffer => "copy-buffer".into(),
            FlowOp::FillBuffer => "fill-buffer".into(),
            FlowOp::Map { id, writable } => {
                format!("map#{id} ({})", if *writable { "rw" } else { "ro" })
            }
            FlowOp::Unmap { id } => format!("unmap#{id}"),
            FlowOp::HostAccess { write, via_map } => format!(
                "host-{}{}",
                if *write { "write" } else { "read" },
                match via_map {
                    Some(id) => format!(" via map#{id}"),
                    None => " (unmapped)".into(),
                }
            ),
        }
    }
}

/// One recorded queue command.
#[derive(Debug, Clone)]
pub struct FlowCommand {
    pub op: FlowOp,
    /// Display label (kernel name, transfer description).
    pub label: String,
    pub uses: Vec<BufUse>,
}

impl FlowCommand {
    pub fn new(op: FlowOp, label: impl Into<String>, uses: Vec<BufUse>) -> Self {
        FlowCommand {
            op,
            label: label.into(),
            uses,
        }
    }

    /// The command publishes no footprint at all: a kernel launch with
    /// neither arg bindings nor an access spec, which ordering must treat
    /// as touching everything. A marker is a spec'd launch without uses —
    /// it touches nothing.
    pub fn footprint_unknown(&self) -> bool {
        match self.op {
            FlowOp::Launch { has_spec, .. } => !has_spec && self.uses.is_empty(),
            _ => false,
        }
    }

    /// The bytes the command may touch while it is outstanding. A writable
    /// map reads and writes its whole window: the host may do both through
    /// the mapping until the unmap, although the recorded Map carries no
    /// access and the host's writes ride its Unmap.
    fn outstanding(&self) -> Cow<'_, FlowCommand> {
        if !matches!(self.op, FlowOp::Map { writable: true, .. }) {
            return Cow::Borrowed(self);
        }
        let uses = self
            .uses
            .iter()
            .map(|u| {
                let (lo, end) = (u.span.0 as i128, u.span.1 as i128);
                u.clone().reads(lo, end).writes(lo, end)
            })
            .collect();
        Cow::Owned(FlowCommand::new(self.op.clone(), self.label.clone(), uses))
    }
}

/// Whether two commands must stay ordered: one of them publishes no
/// footprint ([`FlowCommand::footprint_unknown`]), or [`classify_pair`]
/// finds a hazard — must or may — between what each may touch while
/// outstanding. Symmetric. The one conflict rule of the runtime: the
/// out-of-order scheduler infers dependencies and drains blocking host
/// operations by it, and [`crate::hb`] derives completion-before-submission
/// edges by it.
pub fn conflicts(a: &FlowCommand, b: &FlowCommand) -> bool {
    a.footprint_unknown()
        || b.footprint_unknown()
        || !classify_pair(&a.outstanding(), &b.outstanding())
            .0
            .is_empty()
}

/// Hazard classification for an ordered command pair on one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// Read-after-write: the later command consumes what the earlier wrote.
    Raw,
    /// Write-after-read: the later command overwrites what the earlier read.
    War,
    /// Write-after-write: both write overlapping bytes.
    Waw,
}

impl HazardKind {
    pub fn as_str(self) -> &'static str {
        match self {
            HazardKind::Raw => "RAW",
            HazardKind::War => "WAR",
            HazardKind::Waw => "WAW",
        }
    }
}

/// A dependence edge in the command DAG.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Index of the earlier command.
    pub from: usize,
    /// Index of the later command.
    pub to: usize,
    pub buffer: u64,
    pub buffer_name: String,
    pub kind: HazardKind,
    /// `Proven`: the must sets overlap — the dependence certainly exists.
    /// `Unknown`: only the may sets overlap. (`Violation` is unused here;
    /// an edge is a fact, not a defect.)
    pub verdict: Verdict,
    pub detail: String,
}

/// The five inter-command lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowLintKind {
    /// Kernel writes a READ_ONLY buffer or reads a WRITE_ONLY one.
    FlagContract,
    /// A launch or transfer overlaps a live map range.
    UseWhileMapped,
    /// A command consumes bytes no prior command defined.
    ReadBeforeWrite,
    /// A transfer fully overwritten before any read — pure Figure 7/8 cost.
    RedundantTransfer,
    /// Host touches device memory outside a valid live mapping.
    HostSync,
}

impl FlowLintKind {
    pub const ALL: [FlowLintKind; 5] = [
        FlowLintKind::FlagContract,
        FlowLintKind::UseWhileMapped,
        FlowLintKind::ReadBeforeWrite,
        FlowLintKind::RedundantTransfer,
        FlowLintKind::HostSync,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            FlowLintKind::FlagContract => "flag-contract",
            FlowLintKind::UseWhileMapped => "use-while-mapped",
            FlowLintKind::ReadBeforeWrite => "read-before-write",
            FlowLintKind::RedundantTransfer => "redundant-transfer",
            FlowLintKind::HostSync => "unsynchronized-host-access",
        }
    }
}

/// One lint finding, anchored to a command index in the stream.
#[derive(Debug, Clone)]
pub struct FlowFinding {
    pub kind: FlowLintKind,
    pub severity: Severity,
    /// Index of the offending command.
    pub command: usize,
    pub message: String,
}

/// The result of analyzing one command stream.
#[derive(Debug, Clone)]
pub struct FlowAnalysis {
    /// Number of commands analyzed.
    pub commands: usize,
    /// All dependence edges, ordered by `(to, from)` discovery order.
    pub edges: Vec<DepEdge>,
    /// Ordered pairs sharing a buffer with provably disjoint footprints.
    pub independent_pairs: usize,
    pub findings: Vec<FlowFinding>,
}

impl FlowAnalysis {
    /// Verdict for one lint: `Proven` (clean), `Unknown` (warnings only),
    /// or `Violation` (at least one error).
    pub fn verdict(&self, kind: FlowLintKind) -> Verdict {
        Verdict::fold(
            self.findings
                .iter()
                .filter(|f| f.kind == kind)
                .map(|f| f.severity),
        )
    }

    /// No findings at all.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// At least one `Severity::Error` finding.
    pub fn has_violations(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Edges between two specific commands.
    pub fn edges_between(&self, from: usize, to: usize) -> impl Iterator<Item = &DepEdge> {
        self.edges
            .iter()
            .filter(move |e| e.from == from && e.to == to)
    }
}

/// Analyze a recorded command stream: build the dependence DAG and run the
/// five inter-command lints.
pub fn analyze_flow(commands: &[FlowCommand]) -> FlowAnalysis {
    let (edges, independent_pairs) = build_edges(commands);
    let mut findings = Vec::new();
    lint_flag_contract(commands, &mut findings);
    lint_map_lifecycle(commands, &mut findings);
    lint_read_before_write(commands, &mut findings);
    lint_redundant_transfer(commands, &mut findings);
    findings.sort_by_key(|f| f.command);
    FlowAnalysis {
        commands: commands.len(),
        edges,
        independent_pairs,
        findings,
    }
}

fn range_str(s: &IntervalSet) -> String {
    format!("{s}")
}

/// One hazard between an ordered command pair on one shared buffer —
/// the pair-local core of [`DepEdge`], reused by the multi-queue
/// happens-before analysis ([`crate::hb`]).
#[derive(Debug, Clone)]
pub struct PairHazard {
    pub kind: HazardKind,
    pub buffer: u64,
    pub buffer_name: String,
    /// The must sets overlap: the hazard certainly exists on every
    /// execution (`false`: only the may sets overlap).
    pub must: bool,
    pub detail: String,
}

/// Classify every RAW/WAR/WAW hazard between an `earlier` and a `later`
/// command. Also returns whether the two commands touch any common buffer
/// at all (shared buffer but provably disjoint footprints ⇒ `(vec![],
/// true)` — the "independent pair" case).
pub fn classify_pair(earlier: &FlowCommand, later: &FlowCommand) -> (Vec<PairHazard>, bool) {
    let mut hazards = Vec::new();
    let mut touches = false;
    for ue in &earlier.uses {
        for ul in later.uses.iter().filter(|u| u.buffer == ue.buffer) {
            touches = true;
            for (kind, e_may, e_must, l_may, l_must) in [
                (
                    HazardKind::Raw,
                    &ue.may_write,
                    &ue.must_write,
                    &ul.may_read,
                    &ul.must_read,
                ),
                (
                    HazardKind::War,
                    &ue.may_read,
                    &ue.must_read,
                    &ul.may_write,
                    &ul.must_write,
                ),
                (
                    HazardKind::Waw,
                    &ue.may_write,
                    &ue.must_write,
                    &ul.may_write,
                    &ul.must_write,
                ),
            ] {
                let (must, detail) = if e_must.overlaps(l_must) {
                    (
                        true,
                        format!("must-overlap {}", range_str(&e_must.intersect(l_must))),
                    )
                } else if e_may.overlaps(l_may) {
                    (
                        false,
                        format!("may-overlap {}", range_str(&e_may.intersect(l_may))),
                    )
                } else {
                    continue;
                };
                hazards.push(PairHazard {
                    kind,
                    buffer: ue.buffer,
                    buffer_name: ue.name.clone(),
                    must,
                    detail,
                });
            }
        }
    }
    (hazards, touches)
}

fn build_edges(commands: &[FlowCommand]) -> (Vec<DepEdge>, usize) {
    let mut edges = Vec::new();
    let mut independent = 0usize;
    for (j, later) in commands.iter().enumerate() {
        for (i, earlier) in commands.iter().enumerate().take(j) {
            let (hazards, touches) = classify_pair(earlier, later);
            if touches && hazards.is_empty() {
                independent += 1;
            }
            edges.extend(hazards.into_iter().map(|h| DepEdge {
                from: i,
                to: j,
                buffer: h.buffer,
                buffer_name: h.buffer_name,
                kind: h.kind,
                verdict: if h.must {
                    Verdict::Proven
                } else {
                    Verdict::Unknown
                },
                detail: h.detail,
            }));
        }
    }
    (edges, independent)
}

fn lint_flag_contract(commands: &[FlowCommand], findings: &mut Vec<FlowFinding>) {
    for (i, c) in commands.iter().enumerate() {
        let FlowOp::Launch { kernel, .. } = &c.op else {
            continue;
        };
        for u in &c.uses {
            if u.flags == FlagClass::ReadOnly && !u.may_write.is_empty() {
                let definite = !u.must_write.is_empty();
                findings.push(FlowFinding {
                    kind: FlowLintKind::FlagContract,
                    severity: if definite {
                        Severity::Error
                    } else {
                        Severity::Warning
                    },
                    command: i,
                    message: format!(
                        "kernel `{kernel}` {} READ_ONLY buffer `{}` (bytes {})",
                        if definite {
                            "definitely writes"
                        } else {
                            "may write"
                        },
                        u.name,
                        range_str(&u.may_write),
                    ),
                });
            }
            if u.flags == FlagClass::WriteOnly && !u.may_read.is_empty() {
                let definite = !u.must_read.is_empty();
                findings.push(FlowFinding {
                    kind: FlowLintKind::FlagContract,
                    severity: if definite {
                        Severity::Error
                    } else {
                        Severity::Warning
                    },
                    command: i,
                    message: format!(
                        "kernel `{kernel}` {} WRITE_ONLY buffer `{}` (bytes {})",
                        if definite {
                            "definitely reads"
                        } else {
                            "may read"
                        },
                        u.name,
                        range_str(&u.may_read),
                    ),
                });
            }
        }
    }
}

struct LiveMap {
    buffer: u64,
    name: String,
    range: IntervalSet,
    writable: bool,
}

/// Combined walk for use-while-mapped and unsynchronized-host-access: both
/// need the live-map table.
fn lint_map_lifecycle(commands: &[FlowCommand], findings: &mut Vec<FlowFinding>) {
    let mut live: HashMap<u64, LiveMap> = HashMap::new();
    for (i, c) in commands.iter().enumerate() {
        match &c.op {
            FlowOp::Map { id, writable } => {
                if let Some(u) = c.uses.first() {
                    let mut range = u.touched();
                    if range.is_empty() {
                        range = IntervalSet::of(u.span.0 as i128, u.span.1 as i128);
                    }
                    live.insert(
                        *id,
                        LiveMap {
                            buffer: u.buffer,
                            name: u.name.clone(),
                            range,
                            writable: *writable,
                        },
                    );
                }
            }
            FlowOp::Unmap { id } => {
                if live.remove(id).is_none() {
                    findings.push(FlowFinding {
                        kind: FlowLintKind::UseWhileMapped,
                        severity: Severity::Error,
                        command: i,
                        message: format!("unmap of map#{id}, which is not live"),
                    });
                }
            }
            FlowOp::HostAccess { write, via_map } => {
                let Some(u) = c.uses.first() else { continue };
                let range = u.touched();
                let access = if *write { "host write" } else { "host read" };
                match via_map {
                    None => findings.push(FlowFinding {
                        kind: FlowLintKind::HostSync,
                        severity: Severity::Error,
                        command: i,
                        message: format!(
                            "{access} of buffer `{}` (bytes {}) outside any mapping",
                            u.name,
                            range_str(&range),
                        ),
                    }),
                    Some(id) => match live.get(id) {
                        None => findings.push(FlowFinding {
                            kind: FlowLintKind::HostSync,
                            severity: Severity::Error,
                            command: i,
                            message: format!("{access} through map#{id}, which is not live"),
                        }),
                        Some(m) if m.buffer != u.buffer => findings.push(FlowFinding {
                            kind: FlowLintKind::HostSync,
                            severity: Severity::Error,
                            command: i,
                            message: format!(
                                "{access} of buffer `{}` through map#{id} of a different buffer `{}`",
                                u.name, m.name,
                            ),
                        }),
                        Some(m) if !m.range.covers(&range) => findings.push(FlowFinding {
                            kind: FlowLintKind::HostSync,
                            severity: Severity::Error,
                            command: i,
                            message: format!(
                                "{access} of bytes {} outside map#{id}'s range {}",
                                range_str(&range),
                                range_str(&m.range),
                            ),
                        }),
                        Some(m) if *write && !m.writable => findings.push(FlowFinding {
                            kind: FlowLintKind::HostSync,
                            severity: Severity::Error,
                            command: i,
                            message: format!(
                                "host write through read-only map#{id} of `{}`",
                                m.name,
                            ),
                        }),
                        Some(_) => {}
                    },
                }
            }
            // Device-side command: check every use against live map ranges.
            _ => {
                for u in &c.uses {
                    for m in live.values().filter(|m| m.buffer == u.buffer) {
                        let w = u.may_write.intersect(&m.range);
                        if !w.is_empty() {
                            let definite = u.must_write.overlaps(&m.range);
                            findings.push(FlowFinding {
                                kind: FlowLintKind::UseWhileMapped,
                                severity: if definite {
                                    Severity::Error
                                } else {
                                    Severity::Warning
                                },
                                command: i,
                                message: format!(
                                    "{} {} bytes {} of `{}` while the range is mapped",
                                    c.op.describe(),
                                    if definite { "writes" } else { "may write" },
                                    range_str(&w),
                                    u.name,
                                ),
                            });
                            continue;
                        }
                        if m.writable {
                            let r = u.may_read.intersect(&m.range);
                            if !r.is_empty() {
                                let definite = u.must_read.overlaps(&m.range);
                                findings.push(FlowFinding {
                                    kind: FlowLintKind::UseWhileMapped,
                                    severity: if definite {
                                        Severity::Error
                                    } else {
                                        Severity::Warning
                                    },
                                    command: i,
                                    message: format!(
                                        "{} {} bytes {} of `{}` while the range is writably mapped",
                                        c.op.describe(),
                                        if definite { "reads" } else { "may read" },
                                        range_str(&r),
                                        u.name,
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

fn lint_read_before_write(commands: &[FlowCommand], findings: &mut Vec<FlowFinding>) {
    // Allocation-time initialization (COPY_HOST_PTR) happened before any
    // recorded command: seed the defined sets with every preinit window.
    let mut defined: HashMap<u64, IntervalSet> = HashMap::new();
    for c in commands {
        for u in c.uses.iter().filter(|u| u.preinit) {
            let d = defined.entry(u.buffer).or_default();
            *d = d.union(&IntervalSet::of(u.span.0 as i128, u.span.1 as i128));
        }
    }
    for (i, c) in commands.iter().enumerate() {
        // Check reads first: a command's own writes cannot feed its reads
        // (intra-command ordering is unknown).
        for u in &c.uses {
            let d = defined.entry(u.buffer).or_default();
            let undef_must = u.must_read.subtract(d);
            if !undef_must.is_empty() {
                findings.push(FlowFinding {
                    kind: FlowLintKind::ReadBeforeWrite,
                    severity: Severity::Error,
                    command: i,
                    message: format!(
                        "{} consumes {} bytes of `{}` ({}) no prior command defined",
                        c.op.describe(),
                        undef_must.covered(),
                        u.name,
                        range_str(&undef_must),
                    ),
                });
            } else {
                let undef_may = u.may_read.subtract(d);
                if !undef_may.is_empty() {
                    findings.push(FlowFinding {
                        kind: FlowLintKind::ReadBeforeWrite,
                        severity: Severity::Warning,
                        command: i,
                        message: format!(
                            "{} may read bytes {} of `{}` no prior command defined",
                            c.op.describe(),
                            range_str(&undef_may),
                            u.name,
                        ),
                    });
                }
            }
        }
        for u in &c.uses {
            if !u.must_write.is_empty() {
                let d = defined.entry(u.buffer).or_default();
                *d = d.union(&u.must_write);
            }
        }
    }
}

fn lint_redundant_transfer(commands: &[FlowCommand], findings: &mut Vec<FlowFinding>) {
    for (i, c) in commands.iter().enumerate() {
        if !matches!(
            c.op,
            FlowOp::WriteBuffer | FlowOp::FillBuffer | FlowOp::CopyBuffer
        ) {
            continue;
        }
        for u in &c.uses {
            // Skips the source use of a copy (no writes).
            if u.must_write.is_empty() {
                continue;
            }
            let mut remaining = u.must_write.clone();
            let mut consumed = false;
            let mut overwritten_at = None;
            for (j, d) in commands.iter().enumerate().skip(i + 1) {
                for du in d.uses.iter().filter(|du| du.buffer == u.buffer) {
                    if du.may_read.overlaps(&remaining) {
                        consumed = true;
                        break;
                    }
                    remaining = remaining.subtract(&du.must_write);
                }
                if consumed {
                    break;
                }
                if remaining.is_empty() {
                    overwritten_at = Some(j);
                    break;
                }
            }
            if consumed {
                continue;
            }
            if let Some(j) = overwritten_at {
                findings.push(FlowFinding {
                    kind: FlowLintKind::RedundantTransfer,
                    severity: Severity::Error,
                    command: i,
                    message: format!(
                        "redundant transfer: all {} bytes {} moves into `{}` are \
                         overwritten by command #{j} ({}) before any read — \
                         the transfer cost buys nothing",
                        u.must_write.covered(),
                        c.op.describe(),
                        u.name,
                        commands[j].op.describe(),
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(kernel: &str, uses: Vec<BufUse>) -> FlowCommand {
        FlowCommand::new(
            FlowOp::Launch {
                kernel: kernel.into(),
                has_spec: true,
            },
            kernel,
            uses,
        )
    }

    #[test]
    fn producer_consumer_chain_is_a_proven_raw_edge() {
        let mid = BufUse::new(3, "c", FlagClass::ReadWrite, (0, 4096));
        let cmds = vec![
            launch("producer", vec![mid.clone().writes(0, 4096)]),
            launch("consumer", vec![mid.reads(0, 4096)]),
        ];
        let a = analyze_flow(&cmds);
        assert!(a.clean(), "clean chain: {:?}", a.findings);
        let raw: Vec<_> = a
            .edges_between(0, 1)
            .filter(|e| e.kind == HazardKind::Raw)
            .collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].verdict, Verdict::Proven);
        // The same pair is also a proven WAW? No: consumer never writes.
        assert_eq!(a.edges.len(), 1);
    }

    #[test]
    fn disjoint_windows_are_independent() {
        let base = BufUse::new(7, "halves", FlagClass::ReadWrite, (0, 8192));
        let cmds = vec![
            launch("lo", vec![base.clone().writes(0, 4096)]),
            launch("hi", vec![base.writes(4096, 8192)]),
        ];
        let a = analyze_flow(&cmds);
        assert!(a.edges.is_empty());
        assert_eq!(a.independent_pairs, 1);
    }

    #[test]
    fn may_only_overlap_gives_unknown_edges() {
        let b = BufUse::new(1, "bins", FlagClass::ReadWrite, (0, 1024));
        let mut atomic_use = b.clone().may_reads(0, 1024).may_writes(0, 1024);
        atomic_use.atomic = true;
        let cmds = vec![
            launch("hist", vec![atomic_use]),
            FlowCommand::new(
                FlowOp::ReadBuffer,
                "readback",
                vec![b.reads(0, 1024).preinit(true)],
            ),
        ];
        let a = analyze_flow(&cmds);
        let raw = a
            .edges_between(0, 1)
            .find(|e| e.kind == HazardKind::Raw)
            .expect("RAW edge");
        assert_eq!(raw.verdict, Verdict::Unknown);
    }

    #[test]
    fn kernel_writing_read_only_buffer_is_a_violation() {
        let u = BufUse::new(2, "in", FlagClass::ReadOnly, (0, 256)).writes(0, 256);
        let a = analyze_flow(&[launch("bad", vec![u])]);
        assert_eq!(a.verdict(FlowLintKind::FlagContract), Verdict::Violation);
        // may-only write on READ_ONLY is a warning, not an error.
        let u = BufUse::new(2, "in", FlagClass::ReadOnly, (0, 256)).may_writes(0, 256);
        let a = analyze_flow(&[launch("sus", vec![u])]);
        assert_eq!(a.verdict(FlowLintKind::FlagContract), Verdict::Unknown);
    }

    #[test]
    fn kernel_reading_write_only_buffer_is_a_violation() {
        let u = BufUse::new(4, "out", FlagClass::WriteOnly, (0, 64)).reads(0, 64);
        let a = analyze_flow(&[launch("bad", vec![u])]);
        assert_eq!(a.verdict(FlowLintKind::FlagContract), Verdict::Violation);
    }

    #[test]
    fn launch_overlapping_live_map_is_flagged_and_unmap_clears_it() {
        let b = BufUse::new(5, "out", FlagClass::ReadWrite, (0, 512));
        let map_use = b.clone().reads(0, 512);
        let cmds = vec![
            FlowCommand::new(
                FlowOp::Map {
                    id: 1,
                    writable: false,
                },
                "map",
                vec![map_use.clone()],
            ),
            launch("writer", vec![b.clone().writes(0, 512).preinit(true)]),
            FlowCommand::new(FlowOp::Unmap { id: 1 }, "unmap", vec![b.clone()]),
            launch("writer2", vec![b.writes(0, 512).preinit(true)]),
        ];
        let a = analyze_flow(&cmds);
        assert_eq!(a.verdict(FlowLintKind::UseWhileMapped), Verdict::Violation);
        let offenders: Vec<usize> = a
            .findings
            .iter()
            .filter(|f| f.kind == FlowLintKind::UseWhileMapped)
            .map(|f| f.command)
            .collect();
        assert_eq!(offenders, vec![1], "only the launch inside the map window");
    }

    #[test]
    fn unmap_of_dead_map_is_flagged() {
        let b = BufUse::new(6, "buf", FlagClass::ReadWrite, (0, 64));
        let a = analyze_flow(&[FlowCommand::new(FlowOp::Unmap { id: 9 }, "unmap", vec![b])]);
        assert_eq!(a.verdict(FlowLintKind::UseWhileMapped), Verdict::Violation);
    }

    #[test]
    fn read_before_write_fires_unless_preinit_or_defined() {
        let raw = BufUse::new(8, "in", FlagClass::ReadOnly, (0, 128));
        // Undefined read: violation.
        let a = analyze_flow(&[launch("r", vec![raw.clone().reads(0, 128)])]);
        assert_eq!(a.verdict(FlowLintKind::ReadBeforeWrite), Verdict::Violation);
        // Host-initialized allocation: clean.
        let a = analyze_flow(&[launch("r", vec![raw.clone().reads(0, 128).preinit(true)])]);
        assert_eq!(a.verdict(FlowLintKind::ReadBeforeWrite), Verdict::Proven);
        // Defined by a prior transfer: clean.
        let a = analyze_flow(&[
            FlowCommand::new(FlowOp::WriteBuffer, "w", vec![raw.clone().writes(0, 128)]),
            launch("r", vec![raw.reads(0, 128)]),
        ]);
        assert_eq!(a.verdict(FlowLintKind::ReadBeforeWrite), Verdict::Proven);
    }

    #[test]
    fn fully_overwritten_transfer_is_redundant_partial_is_not() {
        let b = BufUse::new(9, "out", FlagClass::ReadWrite, (0, 1024));
        let cmds = vec![
            FlowCommand::new(FlowOp::WriteBuffer, "w", vec![b.clone().writes(0, 1024)]),
            launch("overwriter", vec![b.clone().writes(0, 1024)]),
            FlowCommand::new(FlowOp::ReadBuffer, "r", vec![b.clone().reads(0, 1024)]),
        ];
        let a = analyze_flow(&cmds);
        assert_eq!(
            a.verdict(FlowLintKind::RedundantTransfer),
            Verdict::Violation
        );
        assert_eq!(
            a.findings
                .iter()
                .filter(|f| f.kind == FlowLintKind::RedundantTransfer)
                .count(),
            1,
            "only the dead host write, not the kernel write"
        );

        // Partial overwrite keeps live bytes: not redundant.
        let cmds = vec![
            FlowCommand::new(FlowOp::WriteBuffer, "w", vec![b.clone().writes(0, 1024)]),
            launch("half", vec![b.clone().writes(0, 512)]),
            FlowCommand::new(FlowOp::ReadBuffer, "r", vec![b.clone().reads(0, 1024)]),
        ];
        assert_eq!(
            analyze_flow(&cmds).verdict(FlowLintKind::RedundantTransfer),
            Verdict::Proven
        );

        // Read between write and overwrite consumes it: not redundant.
        let cmds = vec![
            FlowCommand::new(FlowOp::WriteBuffer, "w", vec![b.clone().writes(0, 1024)]),
            launch("reader", vec![b.clone().reads(0, 1024)]),
            launch("overwriter", vec![b.writes(0, 1024)]),
        ];
        assert_eq!(
            analyze_flow(&cmds).verdict(FlowLintKind::RedundantTransfer),
            Verdict::Proven
        );
    }

    #[test]
    fn host_access_outside_mapping_is_a_violation() {
        let b = BufUse::new(10, "buf", FlagClass::ReadWrite, (0, 256));
        let a = analyze_flow(&[FlowCommand::new(
            FlowOp::HostAccess {
                write: true,
                via_map: None,
            },
            "poke",
            vec![b.clone().writes(0, 256)],
        )]);
        assert_eq!(a.verdict(FlowLintKind::HostSync), Verdict::Violation);

        // Writing through a read-only map is also a violation.
        let cmds = vec![
            FlowCommand::new(
                FlowOp::Map {
                    id: 3,
                    writable: false,
                },
                "map",
                vec![b.clone().reads(0, 256).preinit(true)],
            ),
            FlowCommand::new(
                FlowOp::HostAccess {
                    write: true,
                    via_map: Some(3),
                },
                "poke",
                vec![b.clone().writes(0, 256)],
            ),
        ];
        assert_eq!(
            analyze_flow(&cmds).verdict(FlowLintKind::HostSync),
            Verdict::Violation
        );

        // A host read inside a live read map is clean.
        let cmds = vec![
            FlowCommand::new(
                FlowOp::Map {
                    id: 4,
                    writable: false,
                },
                "map",
                vec![b.clone().reads(0, 256).preinit(true)],
            ),
            FlowCommand::new(
                FlowOp::HostAccess {
                    write: false,
                    via_map: Some(4),
                },
                "peek",
                vec![b.clone().may_reads(0, 256).preinit(true)],
            ),
            FlowCommand::new(FlowOp::Unmap { id: 4 }, "unmap", vec![b]),
        ];
        assert_eq!(
            analyze_flow(&cmds).verdict(FlowLintKind::HostSync),
            Verdict::Proven
        );
    }

    #[test]
    fn write_through_map_defines_bytes_at_unmap() {
        // map (rw) → host writes → unmap carries the must_write → kernel
        // read is defined.
        let b = BufUse::new(11, "in", FlagClass::ReadOnly, (0, 512));
        let cmds = vec![
            FlowCommand::new(
                FlowOp::Map {
                    id: 5,
                    writable: true,
                },
                "map",
                // Write-intent map: no read sets; the live range falls back
                // to the use's span.
                vec![b.clone()],
            ),
            FlowCommand::new(
                FlowOp::Unmap { id: 5 },
                "unmap",
                vec![b.clone().writes(0, 512)],
            ),
            launch("consumer", vec![b.reads(0, 512)]),
        ];
        let a = analyze_flow(&cmds);
        assert_eq!(a.verdict(FlowLintKind::ReadBeforeWrite), Verdict::Proven);
        // And the unmap→launch pair is a proven RAW dependence.
        assert!(a
            .edges_between(1, 2)
            .any(|e| e.kind == HazardKind::Raw && e.verdict == Verdict::Proven));
    }
}
