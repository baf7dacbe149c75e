//! Benchmark-side spans: one span around each call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! A span records its name, layer, start, end, parent span and job id. The
//! four `Event::profiling()` stamps of a command become child spans of the
//! call that issued it, so a layer's *self time* — its span minus the part
//! its child spans cover — splits each job's wall time between layers.

use std::collections::BTreeMap;

use ocl_rt::{now_ns, Event, ProfilingInfo};

use crate::json::Json;

/// The layers a job's time is split between, named by crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own glue inside a job (loop control, filling a
    /// mapped range from host arrays).
    Host,
    /// `ocl-rt` queue: enqueue entry, plan (queued→submitted), host return.
    Queue,
    /// `cl-pool`: submitted→started, handing chunks to woken workers.
    Pool,
    /// `cl-kernels` with `cl-vec`: kernel bodies, started→completed.
    Kernels,
    /// `cl-mem`: staging copies, maps and unmaps.
    Mem,
    /// `ocl-rt` out-of-order scheduler: DAG submit and event waits.
    Sched,
    /// `cl-serve`: admission and the weighted gate.
    Serve,
    /// The open-loop generator: an arrival waiting for its driver thread.
    Loadgen,
    /// `par-for` twins (separate jobs; not part of the runtime's job time).
    ParFor,
}

impl Layer {
    pub const SHARED: [Layer; 8] = [
        Layer::Host,
        Layer::Queue,
        Layer::Pool,
        Layer::Kernels,
        Layer::Mem,
        Layer::Sched,
        Layer::Serve,
        Layer::Loadgen,
    ];

    /// Layers only `tenant-mix` drives.
    pub const TENANT_ONLY: [Layer; 3] = [Layer::Sched, Layer::Serve, Layer::Loadgen];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Host => "host",
            Layer::Queue => "queue",
            Layer::Pool => "pool",
            Layer::Kernels => "kernels",
            Layer::Mem => "mem",
            Layer::Sched => "sched",
            Layer::Serve => "serve",
            Layer::Loadgen => "loadgen",
            Layer::ParFor => "parfor",
        }
    }
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub job: u64,
}

/// An in-memory span recorder for one driver thread. When off, every call
/// is a branch and records nothing, so untraced jobs pay no tracing cost.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

/// The root span name of a runtime job; layer shares are taken over these.
pub const JOB: &str = "job";

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Switch recording for the following spans (traced runs alternate
    /// traced and untraced jobs to price tracing itself).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span now, as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: Layer, job: u64) -> Option<SpanId> {
        self.begin_at(name, layer, job, now_ns())
    }

    /// Open a span that started at `start` (an open-loop arrival's due
    /// time). `None` when recording is off.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        layer: Layer,
        job: u64,
        start: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::begin`] now.
    pub fn end(&mut self, id: Option<SpanId>) {
        self.end_at(id, now_ns());
    }

    /// Close a span at `end`.
    pub fn end_at(&mut self, id: Option<SpanId>, end: u64) {
        let Some(id) = id else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end.max(self.spans[id].start);
    }

    /// Record a closed child span of `parent`.
    pub fn child(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: Layer,
        start: u64,
        end: u64,
    ) {
        let Some(parent) = parent else { return };
        let job = self.spans[parent].job;
        self.spans.push(Span {
            name,
            layer,
            start,
            end: end.max(start),
            parent: Some(parent),
            job,
        });
    }

    /// The profiling intervals of `ev` as child spans of the call `parent`
    /// that issued it. Kernels: plan (queue), dispatch (pool), exec
    /// (kernels). Transfers: the checks before the copy (queue) and the
    /// copy or map itself (mem). The time from completion to the host
    /// call's return stays in the parent's self time.
    pub fn event_children(&mut self, parent: Option<SpanId>, ev: &Event) {
        let p = ev.profiling();
        match ev.kind() {
            ocl_rt::CommandKind::NdRangeKernel => self.kernel_children(parent, &p),
            _ => {
                self.child(
                    parent,
                    "transfer.checks",
                    Layer::Queue,
                    p.queued_ns,
                    p.started_ns,
                );
                self.child(
                    parent,
                    "transfer.copy",
                    Layer::Mem,
                    p.started_ns,
                    p.completed_ns,
                );
            }
        }
    }

    fn kernel_children(&mut self, parent: Option<SpanId>, p: &ProfilingInfo) {
        self.child(
            parent,
            "event.plan",
            Layer::Queue,
            p.queued_ns,
            p.submitted_ns,
        );
        self.child(
            parent,
            "event.dispatch",
            Layer::Pool,
            p.submitted_ns,
            p.started_ns,
        );
        self.child(
            parent,
            "event.exec",
            Layer::Kernels,
            p.started_ns,
            p.completed_ns,
        );
    }

    /// Self time per layer summed over every span under a [`JOB`] root,
    /// plus the summed duration of those roots.
    pub fn layer_self_ns(&self) -> (BTreeMap<Layer, u64>, u64) {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        let mut root_of: Vec<SpanId> = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    children[p].push(id);
                    // Parents are always recorded before their children.
                    root_of.push(root_of[p]);
                }
                None => root_of.push(id),
            }
        }
        let mut per_layer = BTreeMap::new();
        let mut job_ns = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[id]].name != JOB {
                continue;
            }
            if s.parent.is_none() {
                job_ns += s.end - s.start;
            }
            let kids: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            let own = (s.end - s.start).saturating_sub(covered(s.start, s.end, kids));
            *per_layer.entry(s.layer).or_insert(0) += own;
        }
        (per_layer, job_ns)
    }

    /// The first `max_jobs` jobs' spans as JSON records.
    pub fn export(&self, thread: usize, max_jobs: u64) -> Vec<Json> {
        let jobs: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.job).collect();
        let keep: std::collections::BTreeSet<u64> =
            jobs.into_iter().take(max_jobs as usize).collect();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| keep.contains(&s.job))
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as u64)),
                    ("thread", Json::Int(thread as u64)),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer.name())),
                    ("start_ns", Json::Int(s.start)),
                    ("end_ns", Json::Int(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Num(-1.0), |p| Json::Int(p as u64)),
                    ),
                    ("job", Json::Int(s.job)),
                ])
            })
            .collect()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur_lo, mut cur_hi) = (0u64, 0u64, 0u64);
    let mut open = false;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        if open && a <= cur_hi {
            cur_hi = cur_hi.max(b);
        } else {
            if open {
                total += cur_hi - cur_lo;
            }
            (cur_lo, cur_hi, open) = (a, b, true);
        }
    }
    if open {
        total += cur_hi - cur_lo;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, vec![(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(0, 100, vec![(90, 150), (0, 5)]), 15);
        assert_eq!(covered(10, 20, vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children_per_layer() {
        let mut t = Tracer::new(true);
        let job = t.begin_at(JOB, Layer::Host, 1, 0);
        let call = t.begin_at("enqueue", Layer::Queue, 1, 10);
        t.child(call, "event.exec", Layer::Kernels, 20, 80);
        t.end_at(call, 90);
        t.end_at(job, 100);
        // A span under another root (a par-for twin) stays out of the shares.
        let twin = t.begin_at("parfor.job", Layer::ParFor, 2, 200);
        t.end_at(twin, 300);
        let (per, total) = t.layer_self_ns();
        assert_eq!(total, 100);
        assert_eq!(per[&Layer::Host], 20);
        assert_eq!(per[&Layer::Queue], 20);
        assert_eq!(per[&Layer::Kernels], 60);
        assert!(!per.contains_key(&Layer::ParFor));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", Layer::Host, 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
