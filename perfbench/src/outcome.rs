//! What one run measured, and its reduction to the metrics it prints.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, Samples};
use crate::stats;
use crate::trace::{Layer, Tracer};

/// One runtime job (closed loops) or arrival (open loop).
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Job latency: its timed work (closed loops), or due → done (open loop).
    pub ns: u64,
    /// Host-visible bytes the job moved through transfer commands.
    pub bytes: u64,
    /// Every output of the job checked correct and no command failed.
    pub ok: bool,
    /// The run segment the job ran in.
    pub segment: u32,
}

/// How `jobs_per_s` is taken.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Completed jobs over summed job time (closed loops: think time and
    /// checks are excluded); per segment, reduced over segments like the
    /// latency statistics when those are taken per segment.
    JobTime,
    /// Completed arrivals over the seconds from the window's opening to the
    /// last completion (open loop).
    Window(f64),
}

/// Failures are kept by message, the first few verbatim.
const KEPT_FAILURES: usize = 20;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall time of each full set-up.
    pub setup_s: Vec<f64>,
    /// Runtime jobs that count for the end-to-end metrics: every job of an
    /// untraced run, the untraced half of a traced run.
    pub jobs: Vec<JobRecord>,
    /// Latencies of the traced half of a traced run.
    pub traced_job_ns: Vec<f64>,
    /// `par-for` twin job times, with their segments.
    pub twin_ns: Vec<f64>,
    pub twin_segment: Vec<u32>,
    /// The segment jobs are currently recorded into.
    pub segment: u32,
    /// Take latency and throughput statistics per segment and report their
    /// interquartile mean over segments (`launch-bound` and the open loop:
    /// a burst of host noise then moves a few segments, not the result).
    pub per_segment: bool,
    /// The workload's latency limit for `slo_frac` (the open loop only).
    pub limit_ms: Option<f64>,
    /// The workload's tail percentile (see [`stats::tail`]).
    pub tail_percentile: f64,
    pub throughput: Throughput,
    /// Per-layer samples, reduced to medians.
    pub samples: Samples,
    /// Per-layer values set directly (counts, derived ratios).
    pub values: BTreeMap<String, f64>,
    pub tracers: Vec<Tracer>,
    /// Workload provenance: sizes, bytes beside the LLC, rate and limit.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(limit_ms: Option<f64>, tail_percentile: f64) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            jobs: Vec::new(),
            traced_job_ns: Vec::new(),
            twin_ns: Vec::new(),
            twin_segment: Vec::new(),
            segment: 0,
            per_segment: false,
            limit_ms,
            tail_percentile,
            throughput: Throughput::JobTime,
            samples: Samples::default(),
            values: BTreeMap::new(),
            tracers: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Count one attempted operation and its result.
    pub fn op(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(e);
        }
    }

    pub fn info(&mut self, key: &str, v: Json) {
        self.info.push((key.to_string(), v));
    }

    fn ok_ns(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.ok)
            .map(|j| j.ns as f64)
            .collect()
    }

    /// Record a `par-for` twin job time in the current segment.
    pub fn twin(&mut self, ns: u64) {
        self.twin_ns.push(ns as f64);
        self.twin_segment.push(self.segment);
    }

    /// `stat` of the ok job latencies — over the whole run, or per segment
    /// reduced by [`stats::interquartile_mean`] over segments.
    fn latency_stat(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        if !self.per_segment {
            return stat(&self.ok_ns());
        }
        let per: Vec<f64> = (0..=self.segment)
            .map(|s| {
                let v: Vec<f64> = self
                    .jobs
                    .iter()
                    .filter(|j| j.ok && j.segment == s)
                    .map(|j| j.ns as f64)
                    .collect();
                stat(&v)
            })
            .collect();
        stats::interquartile_mean(&per)
    }

    fn twin_p50(&self) -> f64 {
        if !self.per_segment {
            return stats::median(&self.twin_ns);
        }
        let per: Vec<f64> = (0..=self.segment)
            .map(|s| {
                let v: Vec<f64> = self
                    .twin_ns
                    .iter()
                    .zip(&self.twin_segment)
                    .filter(|(_, &g)| g == s)
                    .map(|(&t, _)| t)
                    .collect();
                stats::median(&v)
            })
            .collect();
        stats::interquartile_mean(&per)
    }

    /// The end-to-end metrics. `peak_rss_mb` is read by the caller at exit.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
        let ns = self.ok_ns();
        // Median per-job rate over the jobs that move bytes: one slow
        // job among thousands cannot swing it.
        let rates: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.ok && j.bytes > 0 && j.ns > 0)
            .map(|j| j.bytes as f64 / j.ns as f64)
            .collect();
        let per_s = match self.throughput {
            Throughput::JobTime => {
                self.latency_stat(|v| v.len() as f64 / (v.iter().sum::<f64>() / 1e9).max(1e-12))
            }
            Throughput::Window(w) => ns.len() as f64 / w,
        };
        let mut m = BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s)),
            ("job_p50_ms", self.latency_stat(stats::median) / 1e6),
            (
                "job_tail_ms",
                self.latency_stat(|v| stats::tail(v, self.tail_percentile).value) / 1e6,
            ),
            ("jobs_per_s", per_s),
            ("gbytes_per_s", stats::median(&rates)),
            (metrics::TWIN_P50.0, self.twin_p50() / 1e6),
            ("peak_rss_mb", peak_rss_mb),
        ]);
        if let Some(limit_ms) = self.limit_ms {
            let within = ns.iter().filter(|&&t| t <= limit_ms * 1e6).count() as f64;
            m.insert("slo_frac", within / self.jobs.len().max(1) as f64);
        }
        m
    }

    /// The tail percentile and its sample count, for the report (per
    /// segment: the smallest segment's).
    pub fn tail(&self) -> stats::Tail {
        if !self.per_segment {
            return stats::tail(&self.ok_ns(), self.tail_percentile);
        }
        (0..=self.segment)
            .map(|s| {
                let v: Vec<f64> = self
                    .jobs
                    .iter()
                    .filter(|j| j.ok && j.segment == s)
                    .map(|j| j.ns as f64)
                    .collect();
                stats::tail(&v, self.tail_percentile)
            })
            .min_by_key(|t| t.samples)
            .unwrap_or_else(|| stats::tail(&[], self.tail_percentile))
    }

    /// Every per-layer metric; 0 where the workload does not exercise it.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = metrics::per_layer()
            .into_iter()
            .chain(metrics::tenant_per_layer())
            .map(|(n, _, _)| (n, 0.0))
            .collect();
        out.extend(self.samples.medians());
        out.extend(self.values.clone());
        // Shares of job time by layer, from self time.
        let mut self_ns: BTreeMap<Layer, u64> = BTreeMap::new();
        let mut job_ns = 0u64;
        for t in &self.tracers {
            let (per, total) = t.layer_self_ns();
            for (l, v) in per {
                *self_ns.entry(l).or_insert(0) += v;
            }
            job_ns += total;
        }
        for l in Layer::SHARED {
            let v = self_ns.get(&l).copied().unwrap_or(0) as f64 / (job_ns.max(1) as f64);
            out.insert(format!("share.{}", l.name()), v);
        }
        let untraced = stats::median(&self.ok_ns());
        let traced = stats::median(&self.traced_job_ns);
        if untraced > 0.0 && traced > 0.0 {
            out.insert("trace.overhead_frac".into(), traced / untraced - 1.0);
        }
        out
    }
}
