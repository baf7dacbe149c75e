//! The four static lints over a [`KernelAccessSpec`].
//!
//! 1. **Disjoint writes** — proves no two distinct workitems (and in
//!    particular no two workgroups) write the same global buffer element,
//!    the contract the runtime's dynamic `validate_disjoint_writes`
//!    samples at execution time. A proof here subsumes the dynamic check.
//! 2. **Local races** — within each barrier interval, proves reads and
//!    writes to `__local` memory by distinct workitems never overlap.
//! 3. **Barrier divergence** — flags barriers executed under
//!    workitem-dependent control flow (undefined behavior in OpenCL; a
//!    hang on hardware queues).
//! 4. **Out of bounds** — proves every access index stays inside its
//!    buffer for the analyzed NDRange.

use crate::ir::{Access, AccessKind, Guard, Index, KernelAccessSpec, Target, Var};
use crate::prove::{
    canonicalize, cross_group_disjoint, definite_self_collision, index_interval, injective,
    pair_cross_group_disjoint, pair_disjoint, Canon, PairOutcome,
};

/// Which lint produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    DisjointWrites,
    LocalRace,
    BarrierDivergence,
    OutOfBounds,
}

impl LintKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            LintKind::DisjointWrites => "disjoint-writes",
            LintKind::LocalRace => "local-race",
            LintKind::BarrierDivergence => "barrier-divergence",
            LintKind::OutOfBounds => "out-of-bounds",
        }
    }
}

/// How certain a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The property could not be proven; the dynamic fallback should run.
    Warning,
    /// The violation is proven to occur at this geometry.
    Error,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub kind: LintKind,
    pub severity: Severity,
    pub message: String,
}

/// Per-lint verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for every workitem of this launch.
    Proven,
    /// A violation is certain at this geometry.
    Violation,
    /// Not provable with the available reasoning; needs a dynamic check.
    Unknown,
}

impl Verdict {
    /// The verdict of one lint from its findings' severities: `Violation`
    /// on any error, else `Unknown` on any warning, else `Proven`.
    pub(crate) fn fold(severities: impl IntoIterator<Item = Severity>) -> Verdict {
        let mut verdict = Verdict::Proven;
        for s in severities {
            match s {
                Severity::Error => return Verdict::Violation,
                Severity::Warning => verdict = Verdict::Unknown,
            }
        }
        verdict
    }

    fn of(findings: &[Finding], kind: LintKind) -> Verdict {
        Verdict::fold(
            findings
                .iter()
                .filter(|f| f.kind == kind)
                .map(|f| f.severity),
        )
    }

    /// Report label: `proven`, `VIOLATION` or `unknown`.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Proven => "proven",
            Verdict::Violation => "VIOLATION",
            Verdict::Unknown => "unknown",
        }
    }
}

/// The full analysis result for one kernel at one geometry.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub kernel: String,
    pub disjoint_writes: Verdict,
    pub local_races: Verdict,
    pub barrier_divergence: Verdict,
    pub bounds: Verdict,
    pub findings: Vec<Finding>,
    /// Global write accesses examined.
    pub checked_writes: usize,
    /// All accesses examined (reads, writes, atomics; global and local).
    pub checked_accesses: usize,
}

impl Analysis {
    /// No findings at all: every property proven.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Run all four lints.
pub fn analyze(spec: &KernelAccessSpec) -> Analysis {
    let mut findings = Vec::new();
    if let Err(e) = spec.geometry.validate() {
        findings.push(Finding {
            kind: LintKind::OutOfBounds,
            severity: Severity::Error,
            message: format!("invalid geometry: {e}"),
        });
        return finish(spec, findings, 0, 0);
    }
    let checked_writes = lint_disjoint_writes(spec, &mut findings);
    lint_local_races(spec, &mut findings);
    lint_barrier_divergence(spec, &mut findings);
    let checked_accesses = lint_bounds(spec, &mut findings);
    finish(spec, findings, checked_writes, checked_accesses)
}

fn finish(
    spec: &KernelAccessSpec,
    findings: Vec<Finding>,
    checked_writes: usize,
    checked_accesses: usize,
) -> Analysis {
    Analysis {
        kernel: spec.name.clone(),
        disjoint_writes: Verdict::of(&findings, LintKind::DisjointWrites),
        local_races: Verdict::of(&findings, LintKind::LocalRace),
        barrier_divergence: Verdict::of(&findings, LintKind::BarrierDivergence),
        bounds: Verdict::of(&findings, LintKind::OutOfBounds),
        findings,
        checked_writes,
        checked_accesses,
    }
}

/// Canonicalize an access, or `None` for opaque indices and empty guards.
fn canon_of(access: &Access, spec: &KernelAccessSpec) -> Option<Canon> {
    match &access.index {
        Index::Affine(a) => canonicalize(a, access.guard, &spec.geometry),
        Index::Opaque { .. } => None,
    }
}

/// Like [`canon_of`] but with the group dimensions collapsed: the domain of
/// a single workgroup (for `__local` reasoning).
fn canon_local(access: &Access, spec: &KernelAccessSpec) -> Option<Canon> {
    let mut c = canon_of(access, spec)?;
    c.bounds[3] = 1;
    c.bounds[4] = 1;
    c.bounds[5] = 1;
    Some(c)
}

// ---------------------------------------------------------------- lint 1 --

fn lint_disjoint_writes(spec: &KernelAccessSpec, findings: &mut Vec<Finding>) -> usize {
    let push = |findings: &mut Vec<Finding>, severity, message| {
        findings.push(Finding {
            kind: LintKind::DisjointWrites,
            severity,
            message,
        });
    };
    // (phase, access) list of plain writes per global buffer.
    let mut writes: Vec<Vec<(usize, &Access)>> = vec![Vec::new(); spec.global_buffers.len()];
    for (p, phase) in spec.phases.iter().enumerate() {
        for a in &phase.accesses {
            if let (Target::Global(b), AccessKind::Write) = (a.target, a.kind) {
                writes[b].push((p, a));
            }
        }
    }
    let mut checked = 0;
    for (b, buf_writes) in writes.iter().enumerate() {
        let name = &spec.global_buffers[b].name;
        checked += buf_writes.len();
        for (i, &(pi, ai)) in buf_writes.iter().enumerate() {
            // Self: the index must be injective over all active workitems
            // (same-phase concurrency) — opaque indices can't be proven.
            match canon_of(ai, spec) {
                None if matches!(ai.index, Index::Opaque { .. }) => push(
                    findings,
                    Severity::Warning,
                    format!("`{name}`: non-atomic write through a data-dependent index"),
                ),
                None => {} // empty guard: never executes
                Some(c) => {
                    if let Some(reason) = definite_self_collision(&c) {
                        push(findings, Severity::Error, format!("`{name}`: {reason}"));
                    } else if let Err(reason) = injective(&c) {
                        // Not fully injective; cross-group separation may
                        // still hold (intra-group collisions are what the
                        // dynamic validator tolerates only when ordered —
                        // within one phase they are a race).
                        push(
                            findings,
                            Severity::Warning,
                            format!("`{name}`: write indices not provably distinct: {reason}"),
                        );
                    } else if let Err(reason) = cross_group_disjoint(&c) {
                        push(findings, Severity::Warning, format!("`{name}`: {reason}"));
                    }
                }
            }
            // Pairs.
            for &(pj, aj) in buf_writes.iter().skip(i + 1) {
                if ai.index == aj.index && ai.guard == aj.guard {
                    // The identical access: distinct-item collisions are
                    // exactly the self injectivity case, already handled.
                    continue;
                }
                let (ca, cb) = match (canon_of(ai, spec), canon_of(aj, spec)) {
                    (Some(ca), Some(cb)) => (ca, cb),
                    _ => {
                        if matches!(ai.index, Index::Opaque { .. })
                            || matches!(aj.index, Index::Opaque { .. })
                        {
                            push(
                                findings,
                                Severity::Warning,
                                format!("`{name}`: write pair involves a data-dependent index"),
                            );
                        }
                        continue;
                    }
                };
                let outcome = if pi == pj {
                    pair_disjoint(&ca, &cb)
                } else {
                    // Different phases: the barrier orders intra-group
                    // accesses, so only cross-group overlap is a race.
                    pair_cross_group_disjoint(&ca, &cb)
                };
                match outcome {
                    PairOutcome::Disjoint => {}
                    PairOutcome::Collide(reason) => push(
                        findings,
                        Severity::Error,
                        format!("`{name}`: conflicting writes: {reason}"),
                    ),
                    PairOutcome::Unknown(reason) => push(
                        findings,
                        Severity::Warning,
                        format!("`{name}`: write overlap not ruled out: {reason}"),
                    ),
                }
            }
        }
    }
    checked
}

// ---------------------------------------------------------------- lint 2 --

fn lint_local_races(spec: &KernelAccessSpec, findings: &mut Vec<Finding>) {
    let push = |findings: &mut Vec<Finding>, severity, message| {
        findings.push(Finding {
            kind: LintKind::LocalRace,
            severity,
            message,
        });
    };
    for phase in &spec.phases {
        for (b, _) in spec.local_buffers.iter().enumerate() {
            let accesses: Vec<&Access> = phase
                .accesses
                .iter()
                .filter(|a| a.target == Target::Local(b))
                .collect();
            let name = format!("local {}", spec.local_buffers[b].name);
            for (i, ai) in accesses.iter().enumerate() {
                let writes_i = ai.kind != AccessKind::Read;
                // A write's own injectivity within the group.
                if writes_i && ai.kind == AccessKind::Write {
                    match canon_local(ai, spec) {
                        None if matches!(ai.index, Index::Opaque { .. }) => push(
                            findings,
                            Severity::Warning,
                            format!("`{name}`: non-atomic write through a data-dependent index"),
                        ),
                        None => {}
                        Some(c) => {
                            if let Some(reason) = definite_self_collision(&c) {
                                push(findings, Severity::Error, format!("`{name}`: {reason}"));
                            } else if let Err(reason) = injective(&c) {
                                push(
                                    findings,
                                    Severity::Warning,
                                    format!(
                                        "`{name}`: write indices not provably distinct within \
                                         the workgroup: {reason}"
                                    ),
                                );
                            }
                        }
                    }
                }
                for aj in accesses.iter().skip(i + 1) {
                    let writes_j = aj.kind != AccessKind::Read;
                    if !writes_i && !writes_j {
                        continue; // read/read never races
                    }
                    if ai.kind == AccessKind::AtomicUpdate && aj.kind == AccessKind::AtomicUpdate {
                        continue; // atomic/atomic collisions are serialized
                    }
                    if ai.index == aj.index && ai.guard == aj.guard {
                        // Same element touched by the same workitem only
                        // (collisions across items reduce to the write's
                        // own injectivity, handled above).
                        continue;
                    }
                    let (ca, cb) = match (canon_local(ai, spec), canon_local(aj, spec)) {
                        (Some(ca), Some(cb)) => (ca, cb),
                        _ => {
                            if matches!(ai.index, Index::Opaque { .. })
                                || matches!(aj.index, Index::Opaque { .. })
                            {
                                push(
                                    findings,
                                    Severity::Warning,
                                    format!(
                                        "`{name}`: access pair involves a data-dependent index"
                                    ),
                                );
                            }
                            continue;
                        }
                    };
                    match pair_disjoint(&ca, &cb) {
                        PairOutcome::Disjoint => {}
                        PairOutcome::Collide(reason) => push(
                            findings,
                            Severity::Error,
                            format!(
                                "`{name}`: unsynchronized overlap in one barrier interval: {reason}"
                            ),
                        ),
                        PairOutcome::Unknown(reason) => push(
                            findings,
                            Severity::Warning,
                            format!("`{name}`: possible intra-phase overlap: {reason}"),
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- lint 3 --

/// The proven-divergent barriers of a spec, as messages. Shared between the
/// divergence lint and the coarsening legality pass (a divergent barrier is
/// undefined behavior outright, so fusing across it is illegal a fortiori).
pub(crate) fn barrier_divergences(spec: &KernelAccessSpec) -> Vec<String> {
    let wg = spec.geometry.wg_size();
    let items = spec.geometry.items();
    spec.barriers
        .iter()
        .enumerate()
        .filter_map(|(i, &guard)| match guard {
            Guard::Always => None,
            Guard::LocalLeader if wg > 1 => Some(format!(
                "barrier {i} runs only on the workgroup leader; the other {} items never reach it",
                wg - 1
            )),
            Guard::LocalLeader => None,
            Guard::LocalLt(b) if b == 0 || b >= wg => None,
            Guard::LocalLt(b) => Some(format!("barrier {i} runs only for local ids < {b} of {wg}")),
            Guard::GlobalLt(n) if n >= items || n % wg == 0 => None,
            Guard::GlobalLt(n) => Some(format!(
                "barrier {i} under `global_id < {n}` splits workgroup {} ({} of {} items reach it)",
                n / wg,
                n % wg,
                wg
            )),
        })
        .collect()
}

fn lint_barrier_divergence(spec: &KernelAccessSpec, findings: &mut Vec<Finding>) {
    for message in barrier_divergences(spec) {
        findings.push(Finding {
            kind: LintKind::BarrierDivergence,
            severity: Severity::Error,
            message,
        });
    }
}

// ---------------------------------------------------------------- lint 4 --

/// Whether the interval computed for this access is attained (affine over
/// an exactly-known box domain) rather than an over-approximation.
fn interval_is_exact(access: &Access, spec: &KernelAccessSpec) -> bool {
    let geom = &spec.geometry;
    match &access.index {
        Index::Opaque { .. } => false,
        // A data-dependent term's extremes may never be attained.
        Index::Affine(a) if a.has_opaque() => false,
        Index::Affine(a) => match access.guard {
            Guard::Always | Guard::LocalLeader => true,
            Guard::GlobalLt(n) => n >= geom.items() || a.as_single(Var::GlobalLinear).is_some(),
            Guard::LocalLt(b) => {
                b >= geom.wg_size()
                    || a.as_single(Var::LocalLinear).is_some()
                    || (geom.local[1] == 1 && geom.local[2] == 1)
            }
        },
    }
}

fn lint_bounds(spec: &KernelAccessSpec, findings: &mut Vec<Finding>) -> usize {
    let mut checked = 0;
    for phase in &spec.phases {
        for a in &phase.accesses {
            checked += 1;
            let (name, len) = match a.target {
                Target::Global(i) => {
                    let b = &spec.global_buffers[i];
                    (b.name.clone(), b.len)
                }
                Target::Local(i) => {
                    let b = &spec.local_buffers[i];
                    (format!("local {}", b.name), b.len)
                }
            };
            let Some((lo, hi)) = index_interval(&a.index, a.guard, &spec.geometry) else {
                continue; // the guard admits no workitems
            };
            if lo >= 0 && hi < len as i128 {
                continue;
            }
            let exact = interval_is_exact(a, spec);
            let what = match a.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
                AccessKind::AtomicUpdate => "atomic update",
            };
            findings.push(Finding {
                kind: LintKind::OutOfBounds,
                severity: if exact {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                message: format!(
                    "`{}`: {what} index range [{lo}, {hi}] {} buffer length {len}",
                    name,
                    if exact { "exceeds" } else { "may exceed" },
                ),
            });
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Affine, Guard, LintGeometry, SpecBuilder, Var};

    fn geom() -> LintGeometry {
        LintGeometry::d1(1024, 64)
    }

    /// The canonical clean kernel: `b[i] = a[i]·a[i]` under `i < n`.
    fn square_spec(n: usize) -> crate::ir::KernelAccessSpec {
        let mut b = SpecBuilder::new("square", geom());
        let a = b.buffer("a", n);
        let out = b.buffer("b", n);
        b.read(a, Affine::of(Var::GlobalLinear), Guard::GlobalLt(n));
        b.write(out, Affine::of(Var::GlobalLinear), Guard::GlobalLt(n));
        b.finish()
    }

    #[test]
    fn clean_kernel_proves_everything() {
        let r = analyze(&square_spec(1000));
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.disjoint_writes, Verdict::Proven);
        assert_eq!(r.bounds, Verdict::Proven);
        assert_eq!(r.checked_writes, 1);
        assert_eq!(r.checked_accesses, 2);
    }

    #[test]
    fn oob_is_detected_with_exact_interval() {
        // Buffer one element too short for the guarded range.
        let mut b = SpecBuilder::new("oob", geom());
        let out = b.buffer("out", 999);
        b.write(out, Affine::of(Var::GlobalLinear), Guard::GlobalLt(1000));
        let r = analyze(&b.finish());
        assert_eq!(r.bounds, Verdict::Violation);
        assert!(
            r.findings[0].message.contains("[0, 999]"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn negative_offset_is_out_of_bounds() {
        let mut b = SpecBuilder::new("neg", geom());
        let out = b.buffer("out", 2048);
        b.read(out, Affine::of(Var::GlobalLinear).plus(-1), Guard::Always);
        let r = analyze(&b.finish());
        assert_eq!(r.bounds, Verdict::Violation);
    }

    #[test]
    fn shared_write_slot_is_a_proven_violation() {
        // Every workitem writes out[group]: distinct items collide — the
        // structural race the dynamic validator misses when values are
        // bit-identical.
        let mut b = SpecBuilder::new("racy", geom());
        let out = b.buffer("out", 16);
        b.write(out, Affine::of(Var::GroupLinear), Guard::Always);
        let r = analyze(&b.finish());
        assert_eq!(r.disjoint_writes, Verdict::Violation);
        assert!(r.has_errors());
    }

    #[test]
    fn leader_guard_makes_group_slot_safe() {
        let mut b = SpecBuilder::new("reduce-out", geom());
        let out = b.buffer("partials", 16);
        b.write(out, Affine::of(Var::GroupLinear), Guard::LocalLeader);
        let r = analyze(&b.finish());
        assert_eq!(r.disjoint_writes, Verdict::Proven);
        assert_eq!(r.bounds, Verdict::Proven);
    }

    #[test]
    fn interleaved_coalesced_writes_prove_disjoint() {
        // vectoradd shape: c[k·i + j] for j = 0..k.
        let k = 4usize;
        let n = 1024 * k;
        let mut b = SpecBuilder::new("vectoradd", geom());
        let c = b.buffer("c", n);
        for j in 0..k {
            b.write(
                c,
                Affine::var(Var::GlobalLinear, k as i64).plus(j as i64),
                Guard::Always,
            );
        }
        let r = analyze(&b.finish());
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.checked_writes, k);
    }

    #[test]
    fn reduction_tree_local_phases_are_race_free() {
        // scratch[l] = x[gid]; then halving tree: read scratch[l + s],
        // write scratch[l], both under l < s, with barriers between.
        let wg = 64usize;
        let mut b = SpecBuilder::new("reduction", geom());
        let x = b.buffer("x", 1024);
        let partials = b.buffer("partials", 16);
        let scratch = b.local("scratch", wg);
        b.read(x, Affine::of(Var::GlobalLinear), Guard::Always);
        b.local_write(scratch, Affine::of(Var::LocalLinear), Guard::Always);
        let mut s = wg / 2;
        while s > 0 {
            b.barrier(Guard::Always);
            b.local_read(
                scratch,
                Affine::of(Var::LocalLinear).plus(s as i64),
                Guard::LocalLt(s),
            );
            b.local_write(scratch, Affine::of(Var::LocalLinear), Guard::LocalLt(s));
            s /= 2;
        }
        b.barrier(Guard::Always);
        b.write(partials, Affine::of(Var::GroupLinear), Guard::LocalLeader);
        let r = analyze(&b.finish());
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.local_races, Verdict::Proven);
        assert_eq!(r.disjoint_writes, Verdict::Proven);
    }

    #[test]
    fn in_place_tree_without_guard_tightening_races() {
        // Reading scratch[l + 1] while writing scratch[l] with every item
        // active: distinct items overlap inside one phase.
        let mut b = SpecBuilder::new("scan-broken", geom());
        let scratch = b.local("scratch", 65);
        b.local_read(scratch, Affine::of(Var::LocalLinear).plus(1), Guard::Always);
        b.local_write(scratch, Affine::of(Var::LocalLinear), Guard::Always);
        let r = analyze(&b.finish());
        assert_ne!(r.local_races, Verdict::Proven, "{:?}", r.findings);
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let mut b = SpecBuilder::new("div", geom());
        b.barrier(Guard::LocalLeader);
        let r = analyze(&b.finish());
        assert_eq!(r.barrier_divergence, Verdict::Violation);
        // A tail guard that splits a workgroup is divergent too.
        let mut b = SpecBuilder::new("div2", geom());
        b.barrier(Guard::GlobalLt(1000)); // 1000 % 64 != 0
        assert_eq!(analyze(&b.finish()).barrier_divergence, Verdict::Violation);
        // Uniform guards are fine.
        let mut b = SpecBuilder::new("uniform", geom());
        b.barrier(Guard::Always);
        b.barrier(Guard::GlobalLt(1024));
        b.barrier(Guard::GlobalLt(640)); // multiple of 64: whole groups
        assert_eq!(analyze(&b.finish()).barrier_divergence, Verdict::Proven);
    }

    #[test]
    fn atomic_histogram_is_exempt_from_disjointness_but_bounds_checked() {
        let bins = 256usize;
        let mut b = SpecBuilder::new("histogram", geom());
        let data = b.buffer("data", 1024);
        let out = b.buffer("bins", bins);
        b.read(data, Affine::of(Var::GlobalLinear), Guard::Always);
        b.atomic(
            out,
            Index::Opaque {
                min: 0,
                max: bins as i64 - 1,
            },
            Guard::Always,
        );
        let r = analyze(&b.finish());
        assert!(r.clean(), "{:?}", r.findings);
        // Shrink the bins buffer: the opaque range now exceeds it.
        let mut b = SpecBuilder::new("histogram-oob", geom());
        let out = b.buffer("bins", bins - 1);
        b.atomic(
            out,
            Index::Opaque {
                min: 0,
                max: bins as i64 - 1,
            },
            Guard::Always,
        );
        let r = analyze(&b.finish());
        assert_eq!(r.bounds, Verdict::Unknown); // conservative range: warning
        assert!(!r.clean());
    }

    #[test]
    fn local_atomic_bins_do_not_race() {
        // histogram256 phase 1: local_hist[input[i] % 256] via atomic_inc.
        // Data-dependent bin, but atomic/atomic collisions are serialized.
        let mut b = SpecBuilder::new("histogram-local", geom());
        let data = b.buffer("data", 1024);
        let hist = b.local("local_hist", 256);
        b.read(data, Affine::of(Var::GlobalLinear), Guard::Always);
        b.local_atomic(hist, Index::Opaque { min: 0, max: 255 }, Guard::Always);
        b.local_atomic(hist, Index::Opaque { min: 0, max: 255 }, Guard::Always);
        b.barrier(Guard::Always);
        b.local_read(hist, Affine::of(Var::LocalLinear), Guard::Always);
        let r = analyze(&b.finish());
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.local_races, Verdict::Proven);
    }

    #[test]
    fn non_atomic_opaque_write_warns() {
        let mut b = SpecBuilder::new("scatter", geom());
        let out = b.buffer("out", 4096);
        b.write(out, Index::Opaque { min: 0, max: 4095 }, Guard::Always);
        let r = analyze(&b.finish());
        assert_eq!(r.disjoint_writes, Verdict::Unknown);
    }

    #[test]
    fn grid_stride_writes_prove_disjoint() {
        // blackscholes shape: pass m writes out[i + m·T], i + m·T < n.
        let t = 1024usize;
        let n = 3000usize;
        let mut b = SpecBuilder::new("blackscholes", geom());
        let out = b.buffer("out", n);
        let mut m = 0;
        while m * t < n {
            b.write(
                out,
                Affine::of(Var::GlobalLinear).plus((m * t) as i64),
                Guard::GlobalLt(n - m * t),
            );
            m += 1;
        }
        let r = analyze(&b.finish());
        assert!(r.clean(), "{:?}", r.findings);
        assert_eq!(r.checked_writes, 3);
    }

    #[test]
    fn invalid_geometry_short_circuits() {
        let mut b = SpecBuilder::new("bad", LintGeometry::d1(100, 64));
        b.buffer("x", 100);
        let r = analyze(&b.finish());
        assert_eq!(r.bounds, Verdict::Violation);
    }
}
