//! The repository benchmark: four workloads through the public API of
//! `ocl-rt`, `cl-serve`, `cl-pool`, `par-for` and `cl-kernels`, every output
//! checked, every end-to-end metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload launch-bound --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with benchmark-side spans and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The run exits 1 on any
//! wrong output or failed operation, 2 on bad arguments or a `CL_*`
//! variable in the environment. See `METRICS.md` for every metric.

mod closed;
mod fixtures;
mod host;
mod json;
mod kernel_loop;
mod ladder;
mod loadgen;
mod metrics;
mod outcome;
mod stats;
mod tenant;
mod trace;
mod transfer;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use json::Json;
use outcome::Outcome;
use trace::Layer;

/// The workloads and the layers their job time should be dominated by.
pub const WORKLOADS: [(&str, &[Layer]); 4] = [
    ("launch-bound", &[Layer::Queue, Layer::Pool]),
    ("compute-bound", &[Layer::Kernels]),
    ("transfer-bound", &[Layer::Mem]),
    (tenant::NAME, &[Layer::Serve, Layer::Sched, Layer::Loadgen]),
];

/// Workloads that run on request but are not in `BENCHMARK.json`: their
/// run-to-run spread on a shared 2-core host exceeds the largest bound the
/// benchmark may set (see `METRICS.md`).
pub const UNLISTED: [&str; 1] = [tenant::NAME];

/// The tail percentile of each closed-loop workload, fixed once here. A
/// 30 s run on the reference host has about 400 jobs per `launch-bound`
/// segment (its tail is taken per segment), and about 140 and 80 jobs in
/// all on the others, so each percentile keeps at least 10 samples beyond
/// it. `compute-bound`'s p90 (14 beyond) spread by 0.30 of its median over
/// ten runs on a loaded host, past the 0.25 bound; its p75 held it.
/// Closed loops have no latency limit: `slo_frac` belongs to the open loop.
const CLOSED_LOOPS: [(&str, f64); 3] = [
    ("launch-bound", 95.0),
    ("compute-bound", 75.0),
    ("transfer-bound", 75.0),
];

/// Spans of at most this many jobs are written to the trace file.
const EXPORT_JOBS: u64 = 500;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test: corrupt one expected output so every check of it fails.
    pub inject_wrong_output: bool,
    /// Self-test: leave one step out so the checks behind the metrics must
    /// catch it.
    pub inject_skip: Option<Skip>,
}

/// A step a self-test leaves out of every job but the first of each
/// segment, so only a check that cannot see the previous job's values
/// catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// The copy round trip's `write_buffer` calls (`transfer-bound`).
    Write,
    /// The read-back inside the job (the copy round trip's on
    /// `transfer-bound`).
    Read,
    /// The `par-for` twin's compute.
    Twin,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_wrong_output: false,
        inject_skip: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--inject-wrong-output" => args.inject_wrong_output = true,
            "--inject-skip" => {
                args.inject_skip = Some(match value()?.as_str() {
                    "write" => Skip::Write,
                    "read" => Skip::Read,
                    "twin" => Skip::Twin,
                    v => return Err(format!("--inject-skip takes write, read or twin, not {v}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Panics on any thread, counted by the hook: kernel panics the runtime
/// contains and pool teardown panics alike fail the run.
static PANICS: AtomicU64 = AtomicU64::new(0);

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = host::forbidden_env(std::env::vars()) {
        eprintln!("perfbench: refusing to run with {var} set: the runtime reads CL_* variables process-wide");
        return ExitCode::from(2);
    }
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let mut out = match CLOSED_LOOPS.iter().find(|(w, _)| *w == args.workload) {
        Some(&(_, tail)) => Outcome::new(None, tail),
        None => Outcome::new(Some(tenant::LIMIT_MS), tenant::TAIL_PERCENTILE),
    };
    let ticks = host::cpu_ticks();
    match args.workload.as_str() {
        "launch-bound" => kernel_loop::launch_bound(&args, &mut out),
        "compute-bound" => kernel_loop::compute_bound(&args, &mut out),
        "transfer-bound" => transfer::transfer_bound(&args, &mut out),
        _ => tenant::tenant_mix(&args, &mut out),
    }
    if let (Some(before), Some(after)) = (ticks, host::cpu_ticks()) {
        out.info(
            "host_steal_share",
            Json::Num(host::steal_share(before, after)),
        );
    }
    // Every device and server was dropped inside the workload, on this
    // thread; a panic anywhere (a worker joining itself at teardown
    // included) is a failure.
    let panics = PANICS.load(Ordering::SeqCst);
    if panics > 0 {
        out.op(Err(format!("{panics} thread panics")));
    }
    report(&args, &out)
}

fn report(args: &Args, out: &Outcome) -> ExitCode {
    let provenance = host::provenance(host::nproc(), args.seed);
    let e2e = out.end_to_end(host::peak_rss_mb());
    let layer = out.per_layer();
    let correct = out.failed == 0 && out.attempted > 0;

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance {}", provenance.render());
    println!("workload {}", Json::obj(out.info.iter().cloned()).render());
    let tail = out.tail();
    println!(
        "job latency: {} samples, tail = p{} with {} samples beyond it",
        tail.samples, tail.percentile, tail.beyond
    );
    println!(
        "fail_frac {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("failure: {f}");
    }
    let (twin, unit, _) = metrics::TWIN_P50;
    println!(
        "{twin} {} {unit} (the par-for twin; not in BENCHMARK.json)",
        e2e[twin]
    );
    let end_to_end = metrics::end_to_end_for(&args.workload);
    let per_layer = metrics::per_layer_for(&args.workload);
    let units: BTreeMap<String, &str> = end_to_end
        .iter()
        .map(|(n, u, _)| (n.to_string(), *u))
        .chain(per_layer.iter().map(|(n, u, _)| (n.clone(), *u)))
        .collect();
    let metric = |name: &str, v: f64| {
        (
            name.to_string(),
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(units[name]))]),
        )
    };
    let metrics_json: Vec<(String, Json)> = if args.trace {
        print_shares(args, &layer);
        per_layer
            .iter()
            .map(|(n, _, _)| metric(n, layer[n]))
            .collect()
    } else {
        end_to_end
            .iter()
            .map(|(n, _, _)| metric(n, e2e[n]))
            .collect()
    };
    for (name, v) in &metrics_json {
        println!("  {name:<40} {}", v.render());
    }
    write_trace_file(args, provenance, out, &e2e, &layer);
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::Obj(metrics_json)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Each layer's share of job time from self time, and whether the
/// dominant one is the layer the workload was built to stress.
fn print_shares(args: &Args, layer: &BTreeMap<String, f64>) {
    let mut shares: Vec<(Layer, f64)> = Layer::SHARED
        .iter()
        .map(|&l| (l, layer[&format!("share.{}", l.name())]))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let line: Vec<String> = shares
        .iter()
        .map(|(l, v)| format!("{}={:.3}", l.name(), v))
        .collect();
    println!("layer shares of job time (self time): {}", line.join(" "));
    let expected = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or(&[][..], |w| w.1);
    let top = shares[0].0;
    let names: Vec<&str> = expected.iter().map(|l| l.name()).collect();
    if expected.contains(&top) {
        println!(
            "dominant layer {} matches the workload's why ({})",
            top.name(),
            names.join("/")
        );
    } else {
        println!(
            "dominant layer {} does NOT match the workload's why ({}); reported as measured",
            top.name(),
            names.join("/")
        );
    }
    let resid = layer["queue.residual_us"];
    println!(
        "queue accounting: plan+dispatch+exec+return covers enqueue to within {resid:.3} us (median residual)"
    );
}

/// The full result and the first jobs' spans, under `perfbench/out/`.
fn write_trace_file(
    args: &Args,
    provenance: Json,
    out: &Outcome,
    e2e: &BTreeMap<&str, f64>,
    layer: &BTreeMap<String, f64>,
) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let spans: Vec<Json> = out
        .tracers
        .iter()
        .enumerate()
        .flat_map(|(t, tr)| tr.export(t, EXPORT_JOBS))
        .collect();
    let nums =
        |m: Vec<(String, f64)>| Json::Obj(m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect());
    let doc = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("provenance", provenance),
        ("info", Json::obj(out.info.iter().cloned())),
        (
            "end_to_end",
            nums(e2e.iter().map(|(k, v)| (k.to_string(), *v)).collect()),
        ),
        (
            "per_layer",
            nums(layer.iter().map(|(k, v)| (k.clone(), *v)).collect()),
        ),
        (
            "failures",
            Json::Arr(out.failures.iter().map(Json::str).collect()),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render()));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The counts a change may claim against: the same seed repeats them
    /// exactly.
    #[test]
    fn the_same_seed_repeats_the_exact_counts() {
        let exact = |workload: &str, seed: u64| {
            let args = Args {
                workload: workload.into(),
                seed,
                seconds: 0.4,
                trace: true,
                inject_wrong_output: false,
                inject_skip: None,
            };
            let mut out = Outcome::new(None, 90.0);
            match workload {
                "launch-bound" => kernel_loop::launch_bound(&args, &mut out),
                _ => transfer::transfer_bound(&args, &mut out),
            }
            assert_eq!(out.failed, 0, "{:?}", out.failures);
            out.per_layer()
                .into_iter()
                .filter(|(k, _)| {
                    k.starts_with("analyze.coarsen_factor.")
                        || k.ends_with(".groups")
                        || k == "mem.staging_allocs_per_job"
                })
                .collect::<BTreeMap<_, _>>()
        };
        for workload in ["launch-bound", "transfer-bound"] {
            let a = exact(workload, 5);
            assert_eq!(a, exact(workload, 5), "{workload}");
            assert!(a["mem.staging_allocs_per_job"] > 0.0, "{workload}: {a:?}");
            assert!(
                a.iter().any(|(k, &v)| k.ends_with(".groups") && v > 0.0),
                "{workload}: {a:?}"
            );
            assert!(
                a.iter().any(|(k, &v)| k.starts_with("analyze.") && v > 0.0),
                "{workload}: {a:?}"
            );
        }
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload tenant-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tenant-mix", 7, 10.0, true)
        );
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload launch-bound --trace 2")).is_err());
        assert!(parse(&argv("--workload launch-bound --bogus 1")).is_err());
        let a = parse(&argv("--workload transfer-bound --inject-skip write")).unwrap();
        assert_eq!(a.inject_skip, Some(Skip::Write));
        assert!(parse(&argv("--workload launch-bound --inject-skip map")).is_err());
    }
}
