//! Happens-before analysis over multi-queue command streams.
//!
//! [`crate::flow`] analyzes ONE in-order stream, where program order totally
//! orders every command pair. This module grows that one layer outward: a
//! context's queues each contribute an in-order stream, and the only order
//! *between* streams comes from synchronization the host performed. The
//! happens-before relation is built from:
//!
//! * **program order** — within each in-order queue, command *i* precedes
//!   command *i+1*;
//! * **blocking commands** — a blocking transfer/map returns only when
//!   complete, so it happens-before every command any queue enqueues later
//!   (host knowledge: the enqueuing thread observed completion);
//! * **`finish(q)`** — orders everything `q` ran so far before every command
//!   enqueued afterwards on any queue;
//! * **markers** — in-queue sync points; on in-order queues they add no
//!   edges beyond program order (recorded so the over-sync report can call
//!   them out as removable);
//! * **wait lists** — an out-of-order queue has no program order; each of
//!   its records carries the `(queue, seq)` of the commands it waited on,
//!   plus a *stamp* from which [`completion_waits`] derives the orderings
//!   the scheduler needed no dependency for: an earlier conflicting command
//!   that had already completed when this one was submitted.
//!
//! Kernel launches are modeled as **asynchronous** — OpenCL semantics, the
//! shape the ROADMAP's out-of-order scheduler will make real — even though
//! this runtime happens to block. That is exactly what makes the analysis a
//! *certifier*: a stream proven race-free here stays race-free when launches
//! stop blocking.
//!
//! Every cross-queue conflicting same-buffer pair (byte-granular
//! [`classify_pair`] footprints) is classified [`OrderVerdict::ProvenOrdered`]
//! (hb-ordered), [`OrderVerdict::Racy`] (unordered, must-overlap — a
//! violation on some schedule), or [`OrderVerdict::Unknown`] (unordered,
//! may-only overlap). A second, independent **vector-clock** layer
//! ([`vector_clock_check`]) recomputes orderings incrementally — one clock
//! per queue plus a host clock joined at blocking commands — and the two
//! layers must agree on every stream; disagreement is an implementation bug,
//! not a user error.

use std::collections::{HashMap, HashSet};

use crate::flow::{classify_pair, conflicts, FlowCommand, FlowOp, HazardKind, PairHazard};
use crate::lints::Severity;

/// One record in a context-level multi-queue stream: a command with its
/// observed execution window, or a synchronization point.
#[derive(Debug, Clone)]
pub struct HbRecord {
    /// Owning queue's stable id.
    pub queue: u64,
    /// The command's sequence number within its queue (sync points reuse
    /// the next sequence number without consuming it).
    pub seq: u64,
    pub op: HbOp,
    /// Observed wall-clock start (`0` = unobserved).
    pub start_ns: u64,
    /// Observed wall-clock completion (`0` = unobserved).
    pub end_ns: u64,
    /// The record came from an out-of-order queue: program order contributes
    /// nothing, `waits` carries the ordering instead.
    pub ooo: bool,
    /// Explicit wait-list edges as `(queue, seq)` of the commands this one
    /// waited on (explicit events, auto-inferred hazards, drained commands).
    pub waits: Vec<(u64, u64)>,
    /// For an out-of-order command: how many records of the stream precede
    /// the point where its dependencies were decided (its submission, or a
    /// blocking command's drain). Commands record at completion, so every
    /// command recorded before that point had completed; see
    /// [`completion_waits`]. `None` for everything else.
    pub stamp: Option<u64>,
}

/// What an [`HbRecord`] records.
#[derive(Debug, Clone)]
pub enum HbOp {
    /// An enqueued command. `blocking` commands synchronize the host at
    /// completion (transfers/maps in this runtime); non-blocking commands
    /// (kernel launches, per OpenCL semantics) do not.
    Command { cmd: FlowCommand, blocking: bool },
    /// `clFinish`: every prior command on this queue happens-before every
    /// later-enqueued command on any queue.
    Finish,
    /// `clEnqueueMarker`: an in-queue sync point.
    Marker,
}

impl HbRecord {
    fn new(queue: u64, seq: u64, op: HbOp) -> Self {
        HbRecord {
            queue,
            seq,
            op,
            start_ns: 0,
            end_ns: 0,
            ooo: false,
            waits: Vec::new(),
            stamp: None,
        }
    }

    pub fn command(queue: u64, seq: u64, cmd: FlowCommand, blocking: bool) -> Self {
        HbRecord::new(queue, seq, HbOp::Command { cmd, blocking })
    }

    pub fn finish(queue: u64) -> Self {
        HbRecord::new(queue, 0, HbOp::Finish)
    }

    pub fn marker(queue: u64) -> Self {
        HbRecord::new(queue, 0, HbOp::Marker)
    }

    /// Attach the observed execution window.
    pub fn observed(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.start_ns = start_ns;
        self.end_ns = end_ns;
        self
    }

    /// Mark the record as coming from an out-of-order queue, carrying its
    /// wait-list edges (which replace program order entirely).
    pub fn ooo_waits(mut self, waits: Vec<(u64, u64)>) -> Self {
        self.ooo = true;
        self.waits = waits;
        self
    }

    /// Attach the stamp of an out-of-order command (see [`HbRecord::stamp`]).
    pub fn stamped(mut self, stamp: Option<u64>) -> Self {
        self.stamp = stamp;
        self
    }
}

/// Three-valued ordering verdict for a cross-queue conflicting pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderVerdict {
    /// A happens-before path orders the pair on every schedule.
    ProvenOrdered,
    /// Unordered and the must sets overlap: a data race on some schedule.
    Racy,
    /// Unordered but only the may sets overlap: cannot prove either way.
    Unknown,
}

impl OrderVerdict {
    pub fn as_str(self) -> &'static str {
        match self {
            OrderVerdict::ProvenOrdered => "proven-ordered",
            OrderVerdict::Racy => "RACY",
            OrderVerdict::Unknown => "unknown",
        }
    }
}

/// A command of the analyzed stream (sync points excluded).
#[derive(Debug, Clone)]
pub struct HbCmd {
    /// Index into the original record slice.
    pub record: usize,
    pub queue: u64,
    pub seq: u64,
    pub op: FlowOp,
    pub label: String,
    pub blocking: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl HbCmd {
    /// Is this a host-side access (map/unmap/raw host touch)?
    pub fn host_side(&self) -> bool {
        matches!(
            self.op,
            FlowOp::Map { .. } | FlowOp::Unmap { .. } | FlowOp::HostAccess { .. }
        )
    }
}

/// A classified cross-queue conflicting pair (`a` enqueued before `b`).
#[derive(Debug, Clone)]
pub struct HbPair {
    /// Command indices into [`HbAnalysis::commands`].
    pub a: usize,
    pub b: usize,
    pub queue_a: u64,
    pub queue_b: u64,
    pub buffer: u64,
    pub buffer_name: String,
    pub kind: HazardKind,
    /// The must sets overlap (the conflict certainly exists).
    pub must: bool,
    pub order: OrderVerdict,
    pub detail: String,
}

/// The cross-queue lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbLintKind {
    /// Two device commands on different queues conflict with no ordering.
    CrossQueueRace,
    /// A host access (map/unmap/host touch) conflicts with another queue's
    /// command with no ordering.
    UnsyncedHostAccess,
    /// A sync point whose removal provably keeps every cross-queue conflict
    /// ordered — the reorder-opportunity set.
    OverSync,
}

impl HbLintKind {
    pub fn as_str(self) -> &'static str {
        match self {
            HbLintKind::CrossQueueRace => "cross-queue-race",
            HbLintKind::UnsyncedHostAccess => "unsynced-host-access",
            HbLintKind::OverSync => "over-sync",
        }
    }
}

#[derive(Debug, Clone)]
pub struct HbFinding {
    pub kind: HbLintKind,
    pub severity: Severity,
    pub message: String,
}

/// A synchronization point of the stream and whether it is removable.
#[derive(Debug, Clone)]
pub struct SyncPoint {
    /// Index into the original record slice.
    pub record: usize,
    pub queue: u64,
    pub desc: String,
    /// Dropping this sync's edges keeps every currently-ordered cross-queue
    /// conflicting pair ordered: the sync is proven removable.
    pub removable: bool,
}

/// Per-queue stream summary with its parallelism bound.
#[derive(Debug, Clone)]
pub struct QueueSummary {
    pub queue: u64,
    pub commands: usize,
    /// Longest dependence chain among this queue's own commands (unit
    /// weights). `commands / critical_path` bounds the speedup an
    /// out-of-order scheduler could extract from this stream alone.
    pub critical_path: usize,
    /// Adjacent program-order pairs proven independent (swap-safe).
    pub reorderable_adjacent: usize,
}

impl QueueSummary {
    pub fn parallelism(&self) -> f64 {
        self.commands as f64 / self.critical_path.max(1) as f64
    }
}

/// Result of [`analyze_hb`].
#[derive(Debug, Clone)]
pub struct HbAnalysis {
    pub commands: Vec<HbCmd>,
    /// Every cross-queue conflicting pair, classified.
    pub pairs: Vec<HbPair>,
    pub findings: Vec<HbFinding>,
    pub sync_points: Vec<SyncPoint>,
    /// Same-queue adjacent command pairs (indices into `commands`) proven
    /// independent — an in-order queue may swap or overlap them.
    pub reorderable: Vec<(usize, usize)>,
    /// Longest dependence chain across the whole context (unit weights).
    pub critical_path: usize,
    pub queues: Vec<QueueSummary>,
}

impl HbAnalysis {
    /// Racy pairs (proven data races on some schedule).
    pub fn races(&self) -> impl Iterator<Item = &HbPair> {
        self.pairs.iter().filter(|p| p.order == OrderVerdict::Racy)
    }

    pub fn has_races(&self) -> bool {
        self.races().next().is_some()
    }

    pub fn count(&self, v: OrderVerdict) -> usize {
        self.pairs.iter().filter(|p| p.order == v).count()
    }

    /// Error-severity findings (races); over-sync and may-only overlaps are
    /// warnings.
    pub fn errors(&self) -> impl Iterator<Item = &HbFinding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Sync points whose removal is proven safe.
    pub fn removable_syncs(&self) -> impl Iterator<Item = &SyncPoint> {
        self.sync_points.iter().filter(|s| s.removable)
    }

    /// Whole-context parallelism bound: total commands over the critical
    /// path (unit weights).
    pub fn parallelism(&self) -> f64 {
        self.commands.len() as f64 / self.critical_path.max(1) as f64
    }
}

/// A sync point's happens-before edges, kept separate per source so the
/// over-sync pass can recompute the closure without one of them.
struct SyncEdges {
    record: usize,
    queue: u64,
    desc: String,
    edges: Vec<(usize, usize)>,
}

/// Word-packed reachability rows.
type BitRow = Vec<u64>;

fn bit_get(row: &BitRow, i: usize) -> bool {
    row[i / 64] >> (i % 64) & 1 == 1
}

fn bit_set(row: &mut BitRow, i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// Transitive closure over `n` nodes. Every edge goes forward in index
/// order (enqueue order is a topological order of happens-before), so one
/// reverse sweep suffices: `reach[i] = ∪ {s} ∪ reach[s]` over successors.
fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<BitRow> {
    let words = n.div_ceil(64);
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        succ[a].push(b);
    }
    let mut reach: Vec<BitRow> = vec![vec![0u64; words]; n];
    for i in (0..n).rev() {
        // Split so reach[s] can be read while reach[i] is written.
        let (head, tail) = reach.split_at_mut(i + 1);
        let row = &mut head[i];
        for &s in &succ[i] {
            bit_set(row, s);
            for (w, word) in tail[s - i - 1].iter().enumerate() {
                row[w] |= word;
            }
        }
    }
    reach
}

/// The completion-before-submission wait edges of `records`, indexed like
/// `records`: for each stamped record, the `(queue, seq)` of every earlier
/// out-of-order command of its queue that was recorded before the stamp
/// and [`conflicts`] with it. Such a command had completed when this one's
/// dependencies were decided, so it is ordered before this one although the
/// scheduler, which holds pending commands only, never waited on it.
/// Unstamped records get no edges.
pub fn completion_waits(records: &[HbRecord]) -> Vec<Vec<(u64, u64)>> {
    let mut waits = vec![Vec::new(); records.len()];
    // Queue -> its out-of-order commands so far, in record order.
    let mut earlier: HashMap<u64, Vec<(usize, &FlowCommand)>> = HashMap::new();
    for (ri, r) in records.iter().enumerate() {
        let HbOp::Command { cmd, .. } = &r.op else {
            continue;
        };
        if let (Some(stamp), Some(prev)) = (r.stamp, earlier.get(&r.queue)) {
            waits[ri] = prev
                .iter()
                .take_while(|&&(pi, _)| (pi as u64) < stamp)
                .filter(|&&(_, p)| conflicts(p, cmd))
                .map(|&(pi, _)| (r.queue, records[pi].seq))
                .collect();
        }
        if r.ooo {
            earlier.entry(r.queue).or_default().push((ri, cmd));
        }
    }
    waits
}

/// Build the happens-before graph over a context's record stream and
/// classify every cross-queue conflicting pair.
pub fn analyze_hb(records: &[HbRecord]) -> HbAnalysis {
    // Extract commands (in enqueue order) and remember their record index.
    let mut commands: Vec<HbCmd> = Vec::new();
    for (ri, r) in records.iter().enumerate() {
        if let HbOp::Command { cmd, blocking } = &r.op {
            commands.push(HbCmd {
                record: ri,
                queue: r.queue,
                seq: r.seq,
                op: cmd.op.clone(),
                label: cmd.label.clone(),
                blocking: *blocking,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            });
        }
    }
    let n = commands.len();
    let flow_of = |ci: usize| match &records[commands[ci].record].op {
        HbOp::Command { cmd, .. } => cmd,
        _ => unreachable!("commands index only Command records"),
    };

    // Queues that ever produced an out-of-order record: their commands get
    // no program-order edges — wait lists carry the ordering instead.
    let ooo_queues: HashSet<u64> = records.iter().filter(|r| r.ooo).map(|r| r.queue).collect();

    // Structural edges: program order for consecutive commands of each
    // in-order queue; explicit wait-list edges for out-of-order commands.
    // Both are facts about the stream, not removable synchronization.
    let mut prog_edges: Vec<(usize, usize)> = Vec::new();
    let mut last_on_queue: HashMap<u64, usize> = HashMap::new();
    let mut cmd_by_qs: HashMap<(u64, u64), usize> = HashMap::new();
    for (ci, c) in commands.iter().enumerate() {
        cmd_by_qs.insert((c.queue, c.seq), ci);
    }
    let derived = completion_waits(records);
    for (ci, c) in commands.iter().enumerate() {
        let rec = &records[c.record];
        if rec.ooo {
            for w in rec.waits.iter().chain(&derived[c.record]) {
                // Forward-only: the closure assumes topological index order.
                // A backward "wait" can only come from a defective scheduler
                // stream; dropping it keeps the analysis conservative.
                if let Some(&dep) = cmd_by_qs.get(w) {
                    if dep < ci {
                        prog_edges.push((dep, ci));
                    }
                }
            }
        } else {
            if let Some(&prev) = last_on_queue.get(&c.queue) {
                prog_edges.push((prev, ci));
            }
            last_on_queue.insert(c.queue, ci);
        }
    }

    // Host-sync edges, grouped by the sync point that created them. A sync
    // source needs one edge to the *first* later command of each other
    // in-order queue — program order carries it the rest of the way. An
    // out-of-order queue has no program order to lean on, so it gets an
    // edge to *every* later command (including the source's own queue).
    let first_after = |record: usize, from: usize| -> Vec<usize> {
        let source_queue = commands[from].queue;
        let mut seen: Vec<u64> = Vec::new();
        let mut targets = Vec::new();
        for (ci, c) in commands.iter().enumerate() {
            if c.record <= record {
                continue;
            }
            if c.queue == source_queue && !ooo_queues.contains(&source_queue) {
                continue;
            }
            if ooo_queues.contains(&c.queue) {
                targets.push(ci);
            } else if !seen.contains(&c.queue) {
                seen.push(c.queue);
                targets.push(ci);
            }
        }
        targets
    };
    let mut syncs: Vec<SyncEdges> = Vec::new();
    let mut cmd_at_record: HashMap<usize, usize> = HashMap::new();
    for (ci, c) in commands.iter().enumerate() {
        cmd_at_record.insert(c.record, ci);
    }
    let mut last_before: HashMap<u64, usize> = HashMap::new(); // queue -> last command idx
    let mut all_before: HashMap<u64, Vec<usize>> = HashMap::new(); // queue -> all command idxs
    for (ri, r) in records.iter().enumerate() {
        match &r.op {
            HbOp::Command { blocking, .. } => {
                let ci = cmd_at_record[&ri];
                if *blocking {
                    let edges: Vec<(usize, usize)> =
                        first_after(ri, ci).into_iter().map(|t| (ci, t)).collect();
                    syncs.push(SyncEdges {
                        record: ri,
                        queue: r.queue,
                        desc: format!(
                            "blocking {} (q{}#{})",
                            commands[ci].label, r.queue, commands[ci].seq
                        ),
                        edges,
                    });
                }
                last_before.insert(r.queue, ci);
                all_before.entry(r.queue).or_default().push(ci);
            }
            HbOp::Finish => {
                // In-order queues: the last command suffices (program order
                // reaches it from every earlier one). Out-of-order queues
                // have no such spine — every command is a source.
                let sources: Vec<usize> = if ooo_queues.contains(&r.queue) {
                    all_before.get(&r.queue).cloned().unwrap_or_default()
                } else {
                    // Finishing an idle queue orders nothing.
                    last_before.get(&r.queue).copied().into_iter().collect()
                };
                let mut edges: Vec<(usize, usize)> = Vec::new();
                for src in sources {
                    edges.extend(first_after(ri, src).into_iter().map(|t| (src, t)));
                }
                syncs.push(SyncEdges {
                    record: ri,
                    queue: r.queue,
                    desc: format!("finish(q{})", r.queue),
                    edges,
                });
            }
            HbOp::Marker => {
                // In-order queues already totally order their commands; a
                // marker contributes no edges (and is thus always removable).
                syncs.push(SyncEdges {
                    record: ri,
                    queue: r.queue,
                    desc: format!("marker(q{})", r.queue),
                    edges: Vec::new(),
                });
            }
        }
    }

    // Full closure with every sync edge in.
    let mut all_edges = prog_edges.clone();
    for s in &syncs {
        all_edges.extend_from_slice(&s.edges);
    }
    let reach = closure(n, &all_edges);
    let ordered = |a: usize, b: usize| bit_get(&reach[a], b) || bit_get(&reach[b], a);

    // Conflicts between every pair (byte-granular footprints). Same-queue
    // conflicts feed the critical path; cross-queue ones get classified.
    let mut conflicts: Vec<(usize, usize, Vec<PairHazard>)> = Vec::new();
    for b in 0..n {
        for a in 0..b {
            let (hazards, _) = classify_pair(flow_of(a), flow_of(b));
            if !hazards.is_empty() {
                conflicts.push((a, b, hazards));
            }
        }
    }

    let mut pairs: Vec<HbPair> = Vec::new();
    for (a, b, hazards) in &conflicts {
        let (a, b) = (*a, *b);
        // Same-queue pairs are ordered by construction on an in-order
        // queue. On an out-of-order queue they are real schedule questions
        // — classifying them is how the analysis certifies the scheduler's
        // auto-inferred reordering.
        if commands[a].queue == commands[b].queue && !ooo_queues.contains(&commands[a].queue) {
            continue;
        }
        for h in hazards {
            let order = if ordered(a, b) {
                OrderVerdict::ProvenOrdered
            } else if h.must {
                OrderVerdict::Racy
            } else {
                OrderVerdict::Unknown
            };
            pairs.push(HbPair {
                a,
                b,
                queue_a: commands[a].queue,
                queue_b: commands[b].queue,
                buffer: h.buffer,
                buffer_name: h.buffer_name.clone(),
                kind: h.kind,
                must: h.must,
                order,
                detail: h.detail.clone(),
            });
        }
    }

    // Over-sync: a sync point is removable iff recomputing the closure
    // without its edges leaves every currently-ordered cross-queue
    // conflicting pair still ordered.
    let ordered_cross: Vec<(usize, usize)> = pairs
        .iter()
        .filter(|p| p.order == OrderVerdict::ProvenOrdered)
        .map(|p| (p.a, p.b))
        .collect();
    let mut sync_points: Vec<SyncPoint> = Vec::new();
    for (si, s) in syncs.iter().enumerate() {
        let removable = if s.edges.is_empty() {
            true
        } else {
            let mut pruned = prog_edges.clone();
            for (sj, other) in syncs.iter().enumerate() {
                if sj != si {
                    pruned.extend_from_slice(&other.edges);
                }
            }
            let r2 = closure(n, &pruned);
            ordered_cross
                .iter()
                .all(|&(a, b)| bit_get(&r2[a], b) || bit_get(&r2[b], a))
        };
        sync_points.push(SyncPoint {
            record: s.record,
            queue: s.queue,
            desc: s.desc.clone(),
            removable,
        });
    }

    // Reorderable adjacent program pairs: consecutive same-queue commands
    // with no hazard between them may swap without changing any dataflow.
    let mut reorderable: Vec<(usize, usize)> = Vec::new();
    for &(a, b) in &prog_edges {
        let conflict = conflicts
            .iter()
            .any(|&(ca, cb, _)| (ca, cb) == (a, b) || (ca, cb) == (b, a));
        // Blocking commands publish to the host; swapping one past its
        // neighbour changes what the host observed, so only certify
        // non-publishing neighbours.
        if !conflict && !commands[a].blocking && !commands[b].blocking {
            reorderable.push((a, b));
        }
    }

    // Critical path: longest chain through the dependence DAG (unit command
    // weights). Racy pairs impose no order, so they contribute no edge.
    let mut dep_succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b, _) in &conflicts {
        let same_in_order =
            commands[*a].queue == commands[*b].queue && !ooo_queues.contains(&commands[*a].queue);
        if same_in_order || ordered(*a, *b) {
            dep_succ[*a].push(*b);
        }
    }
    let depth = |succ: &[Vec<usize>], keep: &dyn Fn(usize) -> bool| -> usize {
        let mut d = vec![0usize; n];
        let mut best = 0;
        for i in 0..n {
            if !keep(i) {
                continue;
            }
            d[i] = d[i].max(1);
            best = best.max(d[i]);
            for &s in &succ[i] {
                if keep(s) {
                    d[s] = d[s].max(d[i] + 1);
                }
            }
        }
        best
    };
    let critical_path = depth(&dep_succ, &|_| true);

    // Per-queue summaries.
    let mut queue_ids: Vec<u64> = commands.iter().map(|c| c.queue).collect();
    queue_ids.sort_unstable();
    queue_ids.dedup();
    let queues: Vec<QueueSummary> = queue_ids
        .iter()
        .map(|&q| {
            let mine = |i: usize| commands[i].queue == q;
            QueueSummary {
                queue: q,
                commands: commands.iter().filter(|c| c.queue == q).count(),
                critical_path: depth(&dep_succ, &mine),
                reorderable_adjacent: reorderable
                    .iter()
                    .filter(|&&(a, _)| commands[a].queue == q)
                    .count(),
            }
        })
        .collect();

    // Findings.
    let mut findings: Vec<HbFinding> = Vec::new();
    for p in &pairs {
        if p.order == OrderVerdict::ProvenOrdered {
            continue;
        }
        let host = commands[p.a].host_side() || commands[p.b].host_side();
        let kind = if host {
            HbLintKind::UnsyncedHostAccess
        } else {
            HbLintKind::CrossQueueRace
        };
        let severity = if p.must {
            Severity::Error
        } else {
            Severity::Warning
        };
        findings.push(HbFinding {
            kind,
            severity,
            message: format!(
                "{} {} between q{}#{} `{}` and q{}#{} `{}` on {}: {} ({})",
                if p.must { "data race" } else { "possible race" },
                p.kind.as_str(),
                p.queue_a,
                commands[p.a].seq,
                commands[p.a].label,
                p.queue_b,
                commands[p.b].seq,
                commands[p.b].label,
                p.buffer_name,
                p.detail,
                if host {
                    "host access unsynchronized across queues"
                } else {
                    "no happens-before path"
                },
            ),
        });
    }
    for s in sync_points.iter().filter(|s| s.removable) {
        findings.push(HbFinding {
            kind: HbLintKind::OverSync,
            severity: Severity::Warning,
            message: format!(
                "over-synchronization: {} is removable — every cross-queue \
                 dependence it orders is ordered without it",
                s.desc
            ),
        });
    }

    HbAnalysis {
        commands,
        pairs,
        findings,
        sync_points,
        reorderable,
        critical_path,
        queues,
    }
}

/// The dynamic layer's verdicts over one observed schedule.
#[derive(Debug, Clone, Default)]
pub struct VcReport {
    /// Conflicting command pairs whose vector clocks are concurrent (a
    /// dynamic race). Indices into [`HbAnalysis::commands`].
    pub races: Vec<(usize, usize)>,
    /// Static/dynamic contradictions: a proven-ordered pair the clocks call
    /// concurrent, or a racy pair the clocks call ordered. Always empty
    /// unless one of the two layers is wrong.
    pub disagreements: Vec<String>,
    /// Proven-ordered pairs whose observed execution windows overlap
    /// (`a.end > b.start`). Meaningful on native devices only — modeled
    /// devices report modeled completion times that extend past wall clock.
    pub linearization_failures: Vec<String>,
}

impl VcReport {
    /// Did the dynamic layer agree with the static verdicts?
    pub fn agrees(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Replay `records` through per-queue vector clocks and check the observed
/// schedule against `analysis`'s static verdicts.
///
/// The clocks are computed by an incremental walk — one clock per queue, a
/// host clock joined at blocking commands and `finish` — sharing nothing
/// with the static closure, so agreement between the layers is a real
/// consistency oracle, not a tautology.
pub fn vector_clock_check(records: &[HbRecord], analysis: &HbAnalysis) -> VcReport {
    // Queue -> clock component, in first-appearance order. In-order queues
    // get one component (their commands chain through the queue clock);
    // every out-of-order command gets its *own* component — two unordered
    // commands of the same OOO queue must compare concurrent, which a
    // shared per-queue counter cannot express.
    let ooo_queues: HashSet<u64> = records.iter().filter(|r| r.ooo).map(|r| r.queue).collect();
    let mut procs: Vec<u64> = Vec::new();
    for r in records {
        if !ooo_queues.contains(&r.queue) && !procs.contains(&r.queue) {
            procs.push(r.queue);
        }
    }
    let n_inorder = procs.len();
    let n_ooo = records
        .iter()
        .filter(|r| r.ooo && matches!(r.op, HbOp::Command { .. }))
        .count();
    let np = n_inorder + n_ooo;
    let pidx = |q: u64| procs.iter().position(|&p| p == q).unwrap();
    let join = |a: &mut Vec<u64>, b: &[u64]| {
        for (x, y) in a.iter_mut().zip(b) {
            *x = (*x).max(*y);
        }
    };

    let mut qclock: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut counter: HashMap<u64, u64> = HashMap::new();
    let mut host: Vec<u64> = vec![0; np];
    let mut vcs: Vec<Vec<u64>> = Vec::with_capacity(analysis.commands.len());
    // (queue, seq) -> vcs index, so wait edges can join their dependency's
    // clock; queue -> all vcs indices, for finish() on an OOO queue.
    let mut vc_by_qs: HashMap<(u64, u64), usize> = HashMap::new();
    let mut queue_cmds: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut next_ooo_comp = n_inorder;
    let derived = completion_waits(records);
    for (ri, r) in records.iter().enumerate() {
        match &r.op {
            HbOp::Command { blocking, .. } if r.ooo => {
                // An OOO command's knowledge: the enqueuing host thread plus
                // every dependency in its wait list — and nothing else. No
                // queue clock: program order does not exist here.
                let mut vc = vec![0; np];
                join(&mut vc, &host);
                for w in r.waits.iter().chain(&derived[ri]) {
                    if let Some(&di) = vc_by_qs.get(w) {
                        let dep = vcs[di].clone();
                        join(&mut vc, &dep);
                    }
                }
                vc[next_ooo_comp] = 1;
                next_ooo_comp += 1;
                if *blocking {
                    // Completion synchronizes the host before the call returns.
                    join(&mut host, &vc);
                }
                vc_by_qs.insert((r.queue, r.seq), vcs.len());
                queue_cmds.entry(r.queue).or_default().push(vcs.len());
                vcs.push(vc);
            }
            HbOp::Command { blocking, .. } => {
                let pi = pidx(r.queue);
                let mut vc = qclock.get(&r.queue).cloned().unwrap_or_else(|| vec![0; np]);
                // The enqueuing host thread's knowledge flows into the
                // command; the command's own tick makes it a unique event.
                join(&mut vc, &host);
                let c = counter.entry(r.queue).or_insert(0);
                *c += 1;
                vc[pi] = *c;
                if *blocking {
                    // Completion synchronizes the host before enqueue returns.
                    join(&mut host, &vc);
                }
                qclock.insert(r.queue, vc.clone());
                vc_by_qs.insert((r.queue, r.seq), vcs.len());
                queue_cmds.entry(r.queue).or_default().push(vcs.len());
                vcs.push(vc);
            }
            HbOp::Finish => {
                if ooo_queues.contains(&r.queue) {
                    // Every command of the queue synchronizes the host — the
                    // OOO queue has no single "last" command to stand in.
                    for i in queue_cmds.get(&r.queue).cloned().unwrap_or_default() {
                        let vc = vcs[i].clone();
                        join(&mut host, &vc);
                    }
                } else if let Some(qc) = qclock.get(&r.queue) {
                    join(&mut host, qc);
                }
            }
            HbOp::Marker => {}
        }
    }

    let leq = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(x, y)| x <= y);
    let mut report = VcReport::default();
    let mut seen: Vec<(usize, usize)> = Vec::new();
    for p in &analysis.pairs {
        let (va, vb) = (&vcs[p.a], &vcs[p.b]);
        let vc_ordered = leq(va, vb) || leq(vb, va);
        if !vc_ordered && !seen.contains(&(p.a, p.b)) {
            seen.push((p.a, p.b));
            report.races.push((p.a, p.b));
        }
        match p.order {
            OrderVerdict::ProvenOrdered if !vc_ordered => {
                report.disagreements.push(format!(
                    "static proven-ordered but clocks concurrent: q{}#{} `{}` vs q{}#{} `{}` on {}",
                    p.queue_a,
                    analysis.commands[p.a].seq,
                    analysis.commands[p.a].label,
                    p.queue_b,
                    analysis.commands[p.b].seq,
                    analysis.commands[p.b].label,
                    p.buffer_name,
                ));
            }
            OrderVerdict::Racy if vc_ordered => {
                report.disagreements.push(format!(
                    "static racy but clocks ordered: q{}#{} `{}` vs q{}#{} `{}` on {}",
                    p.queue_a,
                    analysis.commands[p.a].seq,
                    analysis.commands[p.a].label,
                    p.queue_b,
                    analysis.commands[p.b].seq,
                    analysis.commands[p.b].label,
                    p.buffer_name,
                ));
            }
            _ => {}
        }
        // Proven edges must linearize in the observed schedule: the earlier
        // command's completion precedes the later one's start.
        if p.order == OrderVerdict::ProvenOrdered {
            let (ca, cb) = (&analysis.commands[p.a], &analysis.commands[p.b]);
            if ca.end_ns > 0 && cb.start_ns > 0 && ca.end_ns > cb.start_ns {
                report.linearization_failures.push(format!(
                    "proven edge q{}#{} `{}` -> q{}#{} `{}` overlapped: \
                     end {} > start {}",
                    p.queue_a,
                    ca.seq,
                    ca.label,
                    p.queue_b,
                    cb.seq,
                    cb.label,
                    ca.end_ns,
                    cb.start_ns,
                ));
            }
        }
    }
    report
}

/// Enqueue-time gate: would appending `cmd` (asynchronously) to `queue`
/// introduce a *proven* cross-queue race with the stream so far? Returns a
/// message per racy pair the new command participates in; existing races
/// between earlier commands are not re-reported.
pub fn incremental_race_check(
    records: &[HbRecord],
    queue: u64,
    seq: u64,
    cmd: &FlowCommand,
) -> Vec<String> {
    let mut all: Vec<HbRecord> = records.to_vec();
    all.push(HbRecord::command(queue, seq, cmd.clone(), false));
    let analysis = analyze_hb(&all);
    let last = analysis.commands.len() - 1;
    analysis
        .pairs
        .iter()
        .filter(|p| p.b == last && p.order == OrderVerdict::Racy)
        .map(|p| {
            format!(
                "[cross-queue-race] {} with q{}#{} `{}` on {}: {}",
                p.kind.as_str(),
                p.queue_a,
                analysis.commands[p.a].seq,
                analysis.commands[p.a].label,
                p.buffer_name,
                p.detail,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{BufUse, FlagClass};

    fn writer(buffer: u64, name: &str, lo: i128, end: i128) -> FlowCommand {
        let u = BufUse::new(
            buffer,
            name,
            FlagClass::ReadWrite,
            (lo as usize, end as usize),
        )
        .writes(lo, end);
        FlowCommand::new(
            FlowOp::Launch {
                kernel: format!("write_{name}"),
                has_spec: true,
            },
            format!("write_{name}"),
            vec![u],
        )
    }

    fn reader(buffer: u64, name: &str, lo: i128, end: i128) -> FlowCommand {
        let u = BufUse::new(
            buffer,
            name,
            FlagClass::ReadWrite,
            (lo as usize, end as usize),
        )
        .reads(lo, end);
        FlowCommand::new(
            FlowOp::Launch {
                kernel: format!("read_{name}"),
                has_spec: true,
            },
            format!("read_{name}"),
            vec![u],
        )
    }

    #[test]
    fn finish_orders_cross_queue_raw() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::finish(1),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert_eq!(a.pairs.len(), 1);
        assert_eq!(a.pairs[0].order, OrderVerdict::ProvenOrdered);
        assert_eq!(a.pairs[0].kind, HazardKind::Raw);
        assert!(!a.has_races());
        // The finish is load-bearing: not removable.
        assert!(!a.sync_points[0].removable);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees(), "{:?}", vc.disagreements);
        assert!(vc.races.is_empty());
    }

    #[test]
    fn completion_waits_come_from_conflicting_commands_recorded_before_the_stamp() {
        let ooo = |seq, cmd, stamp| {
            HbRecord::command(1, seq, cmd, false)
                .ooo_waits(Vec::new())
                .stamped(stamp)
        };
        let records = vec![
            ooo(0, writer(7, "a", 0, 64), None),
            ooo(1, writer(8, "b", 0, 64), None),
            HbRecord::command(2, 0, writer(7, "a", 0, 64), false),
            ooo(2, writer(7, "a", 0, 64), None),
            ooo(3, reader(7, "a", 0, 64), Some(3)),
        ];
        // Only q1#0 conflicts, shares the queue and recorded before the
        // stamp: q1#1 touches another buffer, q2#0 is another queue's, and
        // q1#2 recorded after the stamp.
        let waits = completion_waits(&records);
        assert_eq!(waits[4], vec![(1, 0)]);
        assert!(waits[..4].iter().all(Vec::is_empty));
        let a = analyze_hb(&records);
        let pair = |x: usize| a.pairs.iter().find(|p| (p.a, p.b) == (x, 4)).unwrap();
        assert_eq!(pair(0).order, OrderVerdict::ProvenOrdered);
        assert_eq!(pair(3).order, OrderVerdict::Racy);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees(), "{:?}", vc.disagreements);
    }

    #[test]
    fn missing_sync_is_a_proven_race_on_both_layers() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert_eq!(a.pairs.len(), 1);
        assert_eq!(a.pairs[0].order, OrderVerdict::Racy);
        assert_eq!(a.errors().count(), 1);
        assert_eq!(a.findings[0].kind, HbLintKind::CrossQueueRace);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees(), "{:?}", vc.disagreements);
        assert_eq!(vc.races, vec![(0, 1)]);
    }

    #[test]
    fn wrong_queue_finish_does_not_order() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::finish(2), // queue 2 is idle: orders nothing
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert!(a.has_races());
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees());
        assert_eq!(vc.races.len(), 1);
    }

    #[test]
    fn marker_does_not_order_cross_queue() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::marker(1),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert!(a.has_races());
        assert!(a.sync_points[0].removable); // markers order nothing
    }

    #[test]
    fn blocking_transfer_orders_later_commands_on_other_queues() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), true), // blocking write
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert_eq!(a.pairs[0].order, OrderVerdict::ProvenOrdered);
        // Its host edge carries the only ordering: not removable.
        assert!(!a.sync_points[0].removable);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees());
    }

    #[test]
    fn disjoint_footprints_do_not_conflict() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 32), false),
            HbRecord::command(2, 0, writer(7, "a", 32, 64), false),
        ];
        let a = analyze_hb(&records);
        assert!(a.pairs.is_empty());
        assert!(!a.has_races());
    }

    #[test]
    fn redundant_finish_is_removable() {
        // finish(1) already orders the pair; finish(1) again adds nothing.
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::finish(1),
            HbRecord::finish(1),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert!(!a.has_races());
        // Either finish alone suffices, so each is individually removable.
        assert!(a.sync_points.iter().all(|s| s.removable));
        assert!(a.findings.iter().any(|f| f.kind == HbLintKind::OverSync));
    }

    #[test]
    fn fig9_chain_has_nonempty_reorder_set() {
        // Producer queue: write a, write b (blocking), combine(a,b -> c),
        // finish; consumer queue: read c. The blocking writes' host edges
        // are redundant (program order carries their conflicts), and the
        // two writes touch disjoint buffers: both reorder signals fire.
        let combine = {
            let ua = BufUse::new(1, "a", FlagClass::ReadWrite, (0, 64)).reads(0, 64);
            let ub = BufUse::new(2, "b", FlagClass::ReadWrite, (0, 64)).reads(0, 64);
            let uc = BufUse::new(3, "c", FlagClass::ReadWrite, (0, 64)).writes(0, 64);
            FlowCommand::new(
                FlowOp::Launch {
                    kernel: "combine".into(),
                    has_spec: true,
                },
                "combine",
                vec![ua, ub, uc],
            )
        };
        let records = vec![
            HbRecord::command(1, 0, writer(1, "a", 0, 64), true),
            HbRecord::command(1, 1, writer(2, "b", 0, 64), true),
            HbRecord::command(1, 2, combine, false),
            HbRecord::finish(1),
            HbRecord::command(2, 0, reader(3, "c", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert!(!a.has_races());
        // Both blocking writes are removable syncs; the finish is not.
        assert!(a.removable_syncs().count() >= 2);
        assert!(!a.sync_points.last().unwrap().removable);
        // write a / write b are adjacent, disjoint — but blocking, so the
        // certifier refuses the swap; the reorder set is the removable
        // syncs themselves (make them async, then swap).
        assert_eq!(a.critical_path, 3); // write -> combine -> read
        assert!(a.parallelism() > 1.0);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees());
    }

    #[test]
    fn adjacent_disjoint_async_commands_are_reorderable() {
        let records = vec![
            HbRecord::command(1, 0, writer(1, "a", 0, 64), false),
            HbRecord::command(1, 1, writer(2, "b", 0, 64), false),
            HbRecord::command(1, 2, reader(2, "b", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        // (write a, write b) are disjoint — swap-safe; (write b, read b)
        // carry a RAW — pinned.
        assert_eq!(a.reorderable, vec![(0, 1)]);
        assert_eq!(a.queues[0].reorderable_adjacent, 1);
    }

    #[test]
    fn may_only_overlap_is_unknown_not_racy() {
        let mut u = BufUse::new(7, "a", FlagClass::ReadWrite, (0, 64));
        u = u.may_writes(0, 64);
        let maybe_writer = FlowCommand::new(
            FlowOp::Launch {
                kernel: "maybe".into(),
                has_spec: true,
            },
            "maybe",
            vec![u],
        );
        let records = vec![
            HbRecord::command(1, 0, maybe_writer, false),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        assert_eq!(a.pairs[0].order, OrderVerdict::Unknown);
        assert!(!a.has_races());
        // Unknown still warns.
        assert!(a.findings.iter().any(|f| f.severity == Severity::Warning));
    }

    #[test]
    fn host_map_race_is_the_host_lint() {
        let map_cmd = {
            let u = BufUse::new(7, "a", FlagClass::ReadWrite, (0, 64)).reads(0, 64);
            FlowCommand::new(
                FlowOp::Map {
                    id: 1,
                    writable: false,
                },
                "map#1 (ro)",
                vec![u],
            )
        };
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            HbRecord::command(2, 0, map_cmd, true),
        ];
        let a = analyze_hb(&records);
        assert!(a.has_races());
        assert!(a
            .findings
            .iter()
            .any(|f| f.kind == HbLintKind::UnsyncedHostAccess));
    }

    #[test]
    fn incremental_gate_flags_only_the_new_command() {
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), false),
            // Pre-existing race between q1 and q2 on buffer 9.
            HbRecord::command(1, 1, writer(9, "x", 0, 8), false),
            HbRecord::command(2, 0, writer(9, "x", 0, 8), false),
        ];
        let clean = reader(8, "other", 0, 64);
        assert!(incremental_race_check(&records, 3, 0, &clean).is_empty());
        let racy = reader(7, "a", 0, 64);
        let msgs = incremental_race_check(&records, 3, 0, &racy);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("cross-queue-race"), "{msgs:?}");
    }

    #[test]
    fn linearization_failure_is_reported() {
        // Static proves the order, but the observed windows overlap — the
        // runtime would have broken its own blocking contract.
        let records = vec![
            HbRecord::command(1, 0, writer(7, "a", 0, 64), true).observed(100, 300),
            HbRecord::command(2, 0, reader(7, "a", 0, 64), false).observed(200, 400),
        ];
        let a = analyze_hb(&records);
        let vc = vector_clock_check(&records, &a);
        assert!(vc.agrees()); // clocks still agree with the static verdict
        assert_eq!(vc.linearization_failures.len(), 1);
    }

    #[test]
    fn per_queue_parallelism_bounds() {
        // q1: two independent writers (cp 1 of 2); q2: chain of 2 (cp 2).
        let records = vec![
            HbRecord::command(1, 0, writer(1, "a", 0, 64), false),
            HbRecord::command(1, 1, writer(2, "b", 0, 64), false),
            HbRecord::command(2, 0, writer(3, "c", 0, 64), false),
            HbRecord::command(2, 1, reader(3, "c", 0, 64), false),
        ];
        let a = analyze_hb(&records);
        let q1 = a.queues.iter().find(|q| q.queue == 1).unwrap();
        let q2 = a.queues.iter().find(|q| q.queue == 2).unwrap();
        assert_eq!(q1.critical_path, 1);
        assert!((q1.parallelism() - 2.0).abs() < 1e-9);
        assert_eq!(q2.critical_path, 2);
        assert!((q2.parallelism() - 1.0).abs() < 1e-9);
    }
}
