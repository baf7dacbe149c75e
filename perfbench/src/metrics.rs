//! The metric registry: every end-to-end and per-layer metric by name, with
//! its unit and direction, and the sample store the workloads fill.

use std::collections::BTreeMap;

use crate::fixtures::Key;
use crate::trace::Layer;

/// `(name, unit, better)` of the end-to-end metrics of every workload, in
/// report order.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("job_p50_ms", "ms", "lower"),
    ("job_tail_ms", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("gbytes_per_s", "GB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The `par-for` twin's median job time, measured on every workload and
/// printed on a line of its own, but not in `BENCHMARK.json`: the twins
/// run each loop across every vCPU at once, most with static splits, so
/// they follow the shared host's load more than any runtime figure, and
/// their run-to-run spread reached the largest bound the benchmark may set
/// (see `METRICS.md`).
pub const TWIN_P50: (&str, &str, &str) = ("parfor_job_p50_ms", "ms", "lower");

/// End-to-end metrics of `tenant-mix` alone, which `BENCHMARK.json` does
/// not list: a closed loop has no latency limit of its own, so `slo_frac`
/// there could only read 1.
pub const TENANT_END_TO_END: [(&str, &str, &str); 1] = [("slo_frac", "ratio", "higher")];

/// The end-to-end metrics `workload` prints.
pub fn end_to_end_for(workload: &str) -> Vec<(&'static str, &'static str, &'static str)> {
    let mut v = END_TO_END.to_vec();
    if workload == crate::tenant::NAME {
        v.extend(TENANT_END_TO_END);
    }
    v
}

/// The ladder rungs: fixed cost of empty work per layer.
pub const RUNGS: [&str; 6] = [
    "pool",
    "parfor",
    "enqueue_1g",
    "enqueue_64g",
    "serve",
    "ooo",
];

/// `(name, unit, better)` of the per-layer metrics of every workload, in
/// report order. A traced run reports all of them; a metric of a layer the
/// workload does not exercise reads 0. Worker panics and lost workers are
/// not among them: they fail the run.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: &'static str| v.push((name, unit, better));
    for r in RUNGS {
        add(format!("ladder.{r}.hot_us"), "us", "lower");
        add(format!("ladder.{r}.cold_us"), "us", "lower");
    }
    for m in [
        "enqueue",
        "plan",
        "dispatch",
        "exec",
        "return",
        "host_overhead",
        "first_enqueue",
        "residual",
    ] {
        add(format!("queue.{m}_us"), "us", "lower");
    }
    for m in ["tasks", "steals", "injector", "parks", "unparks"] {
        add(format!("pool.{m}_per_job"), "count", "lower");
    }
    add("pool.steal_ratio".into(), "ratio", "lower");
    for k in Key::ALL {
        let k = k.name();
        add(format!("kernels.{k}.exec_ms"), "ms", "lower");
        add(format!("kernels.{k}.serial_ms"), "ms", "lower");
        add(format!("kernels.{k}.efficiency"), "ratio", "higher");
        add(format!("kernels.{k}.groups"), "count", "lower");
    }
    for k in Key::ALL {
        add(format!("parfor.{}_ms", k.name()), "ms", "lower");
    }
    add("analyze.coarsen_us".into(), "us", "lower");
    for k in Key::ALL {
        add(
            format!("analyze.coarsen_factor.{}", k.name()),
            "count",
            "higher",
        );
    }
    add("mem.write_gbps".into(), "GB/s", "higher");
    add("mem.read_gbps".into(), "GB/s", "higher");
    add("mem.map_us".into(), "us", "lower");
    add("mem.unmap_us".into(), "us", "lower");
    add("mem.memcpy_gbps".into(), "GB/s", "higher");
    add("mem.bytes_copied_per_job".into(), "B", "lower");
    add("mem.staging_allocs_per_job".into(), "count", "lower");
    add("trace.overhead_frac".into(), "ratio", "lower");
    for l in Layer::SHARED {
        if !Layer::TENANT_ONLY.contains(&l) {
            add(format!("share.{}", l.name()), "ratio", share_better(l));
        }
    }
    v
}

/// Per-layer metrics of `tenant-mix` alone: the out-of-order scheduler,
/// admission, and the load generator, which only the open loop drives
/// (the closed loops reach `cl-serve` and the OOO queue through the ladder).
pub fn tenant_per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: &'static str| v.push((name, unit, better));
    add("sched.submit_us".into(), "us", "lower");
    add("sched.dep_gap_us".into(), "us", "lower");
    add("sched.chain_ms".into(), "ms", "lower");
    add("serve.launch_us".into(), "us", "lower");
    add("serve.gate_overhead_us".into(), "us", "lower");
    for m in ["backpressure", "shed", "retries"] {
        add(format!("serve.{m}"), "count", "lower");
    }
    add("loadgen.late_p99_ms".into(), "ms", "lower");
    add("loadgen.offered_per_s".into(), "1/s", "higher");
    for l in Layer::TENANT_ONLY {
        add(format!("share.{}", l.name()), "ratio", share_better(l));
    }
    v
}

fn share_better(l: Layer) -> &'static str {
    if l == Layer::Kernels {
        "higher"
    } else {
        "lower"
    }
}

/// The per-layer metrics `workload` prints.
pub fn per_layer_for(workload: &str) -> Vec<(String, &'static str, &'static str)> {
    let mut v = per_layer();
    if workload == crate::tenant::NAME {
        v.extend(tenant_per_layer());
    }
    v
}

/// Raw samples per metric name; reduced to medians at the end of a run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, v: f64) {
        match self.0.get_mut(name) {
            Some(samples) => samples.push(v),
            None => {
                self.0.insert(name.to_string(), vec![v]);
            }
        }
    }

    pub fn merge(&mut self, other: Samples) {
        for (k, mut v) in other.0 {
            self.0.entry(k).or_default().append(&mut v);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        let v = self.get(name);
        (!v.is_empty()).then(|| crate::stats::median(v))
    }

    /// Medians of every sampled metric.
    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.0
            .iter()
            .map(|(k, v)| (k.clone(), crate::stats::median(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let names = per_layer_for(crate::tenant::NAME);
        let set: std::collections::BTreeSet<_> = names.iter().map(|(n, _, _)| n.clone()).collect();
        assert_eq!(set.len(), names.len());
        assert!(per_layer().len() <= 128);
        for (n, u, _) in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(u.len() <= 16, "{u}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit, better) in END_TO_END {
            let entry = format!(r#""name": "{name}", "unit": "{unit}", "better": "{better}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in per_layer() {
            let entry = format!(r#""name": "{name}", "unit": "{unit}", "better": "{better}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let unlisted = TENANT_END_TO_END
            .iter()
            .chain([&TWIN_P50])
            .map(|(n, _, _)| n.to_string())
            .chain(tenant_per_layer().into_iter().map(|(n, _, _)| n));
        for name in unlisted {
            let entry = format!(r#""name": "{name}""#);
            assert!(!text.contains(&entry), "BENCHMARK.json lists {entry}");
        }
        let entries = text.matches(r#""name": "#).count();
        let workloads = crate::WORKLOADS.len() - crate::UNLISTED.len();
        for (w, _) in crate::WORKLOADS {
            let listed = text.contains(&format!(r#""name": "{w}""#));
            assert_eq!(listed, !crate::UNLISTED.contains(&w), "{w}");
        }
        assert_eq!(entries, workloads + END_TO_END.len() + per_layer().len());
    }
}
