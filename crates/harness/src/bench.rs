//! # Benchmark gate: robust statistics, `BENCH.json` IO, paired comparison
//!
//! Support library for the `cl-bench` binary (DESIGN.md §12). Three
//! pieces:
//!
//! * **Statistics** — [`sample`] runs warmup-then-sample timing of a
//!   closure and [`BenchStats`] summarizes with *median/MAD/min* rather
//!   than mean/stddev: a single scheduler hiccup in a 1-core CI container
//!   shifts a mean by orders of magnitude but moves the median by at most
//!   one rank position.
//! * **Report IO** — [`Report`] is the schema of `BENCH.json`, the records
//!   of one run. Writing uses `format!`; reading uses `cl_util::json`.
//! * **Pair gate** — [`compare_pairs`] judges a change against its parent
//!   revision from alternating runs of both on one host. Each pair yields
//!   one change/parent ratio of run medians per entry; a time entry fails
//!   only when nine tenths of the pairs are slower by more than
//!   [`PAIR_BOUND`], and a count entry fails when the change's count is
//!   higher in any pair. Both sides are measured the same way at the same
//!   moment, so no stored baseline, host floor or noise model is needed.

use cl_util::json::{self, Json};
use std::time::Instant;

/// Robust summary of one benchmark's samples, in nanoseconds per
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    pub median: f64,
    /// Median absolute deviation — robust spread estimate.
    pub mad: f64,
    pub min: f64,
    pub samples: usize,
}

/// Median of a slice (averages the two central ranks for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

impl BenchStats {
    pub fn from_samples(xs: &[f64]) -> Self {
        BenchStats {
            median: median(xs),
            mad: mad(xs),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            samples: xs.len(),
        }
    }
}

/// Warmup-then-sample measurement. Runs `f` (which performs `ops_per_call`
/// operations and may return a checksum to defeat dead-code elimination)
/// `warmup` times untimed, then `samples` times timed, and reports
/// ns-per-operation statistics.
pub fn sample<F: FnMut() -> u64>(
    warmup: usize,
    samples: usize,
    ops_per_call: u64,
    mut f: F,
) -> BenchStats {
    assert!(samples > 0 && ops_per_call > 0);
    let mut sink = 0u64;
    for _ in 0..warmup {
        sink = sink.wrapping_add(f());
    }
    let mut xs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        let dt = t0.elapsed().as_nanos() as f64;
        xs.push(dt / ops_per_call as f64);
    }
    // Keep the checksum observable so the timed region cannot be elided.
    std::hint::black_box(sink);
    BenchStats::from_samples(&xs)
}

/// One benchmark's result as recorded in `BENCH.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    pub name: String,
    /// What one "operation" is, e.g. "ns/enqueue", "ns/group", "ns/task".
    /// Any unit that is not a time (`ns/…`) marks a deterministic count.
    pub unit: String,
    pub stats: BenchStats,
}

impl BenchRecord {
    /// Counts (e.g. autotuner trials) repeat exactly, so the pair gate
    /// compares them exactly instead of by ratio.
    pub fn is_count(&self) -> bool {
        !self.unit.starts_with("ns/")
    }
}

/// The full `BENCH.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub schema: u32,
    pub workers: usize,
    pub benches: Vec<BenchRecord>,
}

const SCHEMA_VERSION: u32 = 1;

impl Report {
    pub fn new(workers: usize, benches: Vec<BenchRecord>) -> Self {
        Report {
            schema: SCHEMA_VERSION,
            workers,
            benches,
        }
    }

    pub fn find(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Serialize to the `BENCH.json` wire format.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", self.schema));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"name\": \"{}\", \"unit\": \"{}\", \"median\": {:.1}, \"mad\": {:.1}, \"min\": {:.1}, \"samples\": {} }}",
                json::escape(&b.name),
                json::escape(&b.unit),
                b.stats.median,
                b.stats.mad,
                b.stats.min,
                b.stats.samples,
            ));
            s.push_str(if i + 1 < self.benches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Parse a `BENCH.json` document, validating the schema version.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = field_f64(&v, "schema")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let workers = field_f64(&v, "workers")? as usize;
        let benches = parse_records(v.get("benches").ok_or("missing 'benches'")?)?;
        Ok(Report {
            schema,
            workers,
            benches,
        })
    }
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn parse_records(v: &Json) -> Result<Vec<BenchRecord>, String> {
    let arr = v.as_arr().ok_or("'benches' must be an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for b in arr {
        out.push(BenchRecord {
            name: b
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bench missing 'name'")?
                .to_string(),
            unit: b
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("bench missing 'unit'")?
                .to_string(),
            stats: BenchStats {
                median: field_f64(b, "median")?,
                mad: field_f64(b, "mad")?,
                min: field_f64(b, "min")?,
                samples: field_f64(b, "samples")? as usize,
            },
        });
    }
    Ok(out)
}

/// How much slower than its parent a change may run in one pair before
/// that pair counts against it: `BENCHMARK.json`'s end-to-end bound.
pub const PAIR_BOUND: f64 = 0.25;

/// The pair gate's verdict on one entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PairVerdict {
    pub name: String,
    pub unit: String,
    /// Change/parent ratio of the run medians, one per pair. Empty when
    /// the entry is missing from some run: such an entry is listed, not
    /// gated.
    pub ratios: Vec<f64>,
    /// Pairs that count against the change: a time ratio above
    /// `1 + PAIR_BOUND`, or a count higher than the parent's.
    pub past: usize,
    pub regressed: bool,
}

/// Judge a change against its parent from `(parent, change)` run pairs.
/// A time entry regresses when at least nine tenths of the pairs are past
/// the bound, so one noisy pair in ten cannot fail the gate and one quiet
/// pair cannot pass a real slowdown. A count entry regresses when the
/// change's count is higher in any pair. Entries come out in first-seen
/// order.
pub fn compare_pairs(pairs: &[(Report, Report)]) -> Vec<PairVerdict> {
    let mut entries: Vec<&BenchRecord> = Vec::new();
    for (parent, change) in pairs {
        for b in parent.benches.iter().chain(&change.benches) {
            if !entries.iter().any(|e| e.name == b.name) {
                entries.push(b);
            }
        }
    }
    entries
        .into_iter()
        .map(|entry| {
            let medians: Option<Vec<(f64, f64)>> = pairs
                .iter()
                .map(|(p, c)| {
                    Some((
                        p.find(&entry.name)?.stats.median,
                        c.find(&entry.name)?.stats.median,
                    ))
                })
                .collect();
            let medians = medians.unwrap_or_default();
            let ratios: Vec<f64> = medians.iter().map(|&(p, c)| ratio(p, c)).collect();
            let (past, regressed) = if entry.is_count() {
                let past = medians.iter().filter(|(p, c)| c > p).count();
                (past, past > 0)
            } else {
                let past = ratios.iter().filter(|&&r| r > 1.0 + PAIR_BOUND).count();
                (past, !ratios.is_empty() && past * 10 >= ratios.len() * 9)
            };
            PairVerdict {
                name: entry.name.clone(),
                unit: entry.unit.clone(),
                ratios,
                past,
                regressed,
            }
        })
        .collect()
}

/// `change / parent`, defined for a zero parent (a count can be 0).
fn ratio(parent: f64, change: f64) -> f64 {
    match (parent == 0.0, change == 0.0) {
        (true, true) => 1.0,
        (true, false) => f64::INFINITY,
        _ => change / parent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, unit: &str, median: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            stats: BenchStats {
                median,
                mad: median * 0.05,
                min: median * 0.9,
                samples: 6,
            },
        }
    }

    fn report(benches: Vec<BenchRecord>) -> Report {
        Report::new(2, benches)
    }

    /// Ten pairs of one time entry, the change `factor`× slower in the
    /// first `slow` pairs and equal in the rest.
    fn time_pairs(slow: usize, factor: f64) -> Vec<(Report, Report)> {
        (0..10)
            .map(|i| {
                let f = if i < slow { factor } else { 1.0 };
                (
                    report(vec![rec("a", "ns/op", 1_000.0)]),
                    report(vec![rec("a", "ns/op", 1_000.0 * f)]),
                )
            })
            .collect()
    }

    #[test]
    fn median_odd_even_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // Samples {1,1,1,1,100}: median 1, deviations {0,0,0,0,99} → MAD 0.
        // The outlier that would wreck a stddev is invisible to MAD.
        assert_eq!(mad(&[1.0, 1.0, 1.0, 1.0, 100.0]), 0.0);
        // {10,12,14,16,100}: median 14, deviations {4,2,0,2,86} → MAD 2.
        assert_eq!(mad(&[10.0, 12.0, 14.0, 16.0, 100.0]), 2.0);
    }

    #[test]
    fn sample_measures_and_counts() {
        let mut calls = 0u64;
        let s = sample(3, 7, 10, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 10, "3 warmup + 7 timed");
        assert_eq!(s.samples, 7);
        assert!(s.min >= 0.0 && s.median >= s.min);
    }

    #[test]
    fn gate_detects_clear_regression() {
        let v = &compare_pairs(&time_pairs(10, 2.0))[0];
        assert!(v.regressed, "{v:?}");
        assert_eq!(v.past, 10);
        assert_eq!(v.ratios, vec![2.0; 10]);
    }

    #[test]
    fn gate_passes_improvement() {
        let v = &compare_pairs(&time_pairs(10, 0.4))[0];
        assert!(!v.regressed, "improvements never gate: {v:?}");
        assert_eq!(v.past, 0);
    }

    #[test]
    fn gate_needs_nine_of_ten_pairs() {
        let v = &compare_pairs(&time_pairs(8, 2.0))[0];
        assert_eq!(v.past, 8);
        assert!(!v.regressed, "two quiet pairs in ten pass: {v:?}");
        assert!(compare_pairs(&time_pairs(9, 2.0))[0].regressed);
        // Exactly at the bound is not past it.
        let v = &compare_pairs(&time_pairs(10, 1.0 + PAIR_BOUND))[0];
        assert_eq!(v.past, 0, "{v:?}");
        assert!(compare_pairs(&time_pairs(10, 1.26))[0].regressed);
        // With fewer pairs the rule is the same fraction: 1 of 1 fails.
        assert!(compare_pairs(&time_pairs(10, 2.0)[..1])[0].regressed);
    }

    #[test]
    fn gate_compares_counts_exactly() {
        let pairs = |change: [f64; 3]| -> Vec<(Report, Report)> {
            change
                .iter()
                .map(|&c| {
                    (
                        report(vec![rec("trials", "trials", 42.0)]),
                        report(vec![rec("trials", "trials", c)]),
                    )
                })
                .collect()
        };
        // One extra trial in one pair of three fails: counts have no noise.
        let v = &compare_pairs(&pairs([42.0, 43.0, 42.0]))[0];
        assert!(v.regressed && v.past == 1, "{v:?}");
        assert!(!compare_pairs(&pairs([42.0; 3]))[0].regressed);
        assert!(!compare_pairs(&pairs([40.0; 3]))[0].regressed);
        // A zero count on both sides is a tie, not a NaN.
        let zero = vec![(
            report(vec![rec("z", "trials", 0.0)]),
            report(vec![rec("z", "trials", 0.0)]),
        )];
        assert_eq!(compare_pairs(&zero)[0].ratios, vec![1.0]);
    }

    #[test]
    fn gate_skips_unmatched_benches() {
        let parent = report(vec![rec("a", "ns/op", 1.0), rec("gone", "ns/op", 1.0)]);
        let change = report(vec![rec("a", "ns/op", 1.0), rec("new", "ns/op", 9e9)]);
        let vs = compare_pairs(&[(parent.clone(), change.clone())]);
        let names: Vec<&str> = vs.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["a", "gone", "new"]);
        assert_eq!(vs[0].ratios, vec![1.0]);
        for v in &vs[1..] {
            assert!(v.ratios.is_empty() && !v.regressed, "{v:?}");
        }
        // Missing from one pair of two is one-sided too.
        let mut change2 = change.clone();
        change2.benches.retain(|b| b.name != "a");
        let vs = compare_pairs(&[(parent.clone(), change), (parent, change2)]);
        assert!(vs[0].ratios.is_empty() && !vs[0].regressed);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![
            rec("dispatch/wg64", "ns/group", 12_345.5),
            rec("tune/convergence-trials", "trials", 42.0),
        ]);
        let text = r.to_json();
        let back = Report::from_json(&text).expect("round trip");
        // f64 values survive the fixed-point format: compare to 0.1 ns.
        assert_eq!(back.schema, r.schema);
        assert_eq!(back.workers, r.workers);
        assert_eq!(back.benches.len(), 2);
        for (a, b) in r.benches.iter().zip(&back.benches) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.unit, b.unit);
            assert!((a.stats.median - b.stats.median).abs() < 0.1);
            assert!((a.stats.mad - b.stats.mad).abs() < 0.1);
            assert_eq!(a.stats.samples, b.stats.samples);
        }
        assert!(!back.benches[0].is_count());
        assert!(back.benches[1].is_count());
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err(), "missing fields");
        assert!(
            Report::from_json(r#"{"schema": 99, "workers": 1, "benches": []}"#).is_err(),
            "future schema must be refused, not misread"
        );
    }
}
