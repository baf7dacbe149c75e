//! End-to-end checks of the benchmark binary: exit codes, the result line,
//! and failure accounting.

use std::process::{Command, Output};

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    // The binary refuses any CL_* variable; keep the caller's out.
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("CL_")) {
        cmd.env_remove(k);
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run perfbench")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

fn count(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("a count")
}

const SHORT: [&str; 8] = [
    "--workload",
    "launch-bound",
    "--seed",
    "3",
    "--seconds",
    "0.4",
    "--trace",
    "0",
];

#[test]
fn a_clean_run_is_correct_and_prints_every_end_to_end_metric() {
    let out = perfbench(&SHORT, &[]);
    let line = last_line(&out);
    assert!(out.status.success(), "{line}");
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert_eq!(count(&line, "failed"), 0);
    for name in [
        "setup_s",
        "job_p50_ms",
        "job_tail_ms",
        "jobs_per_s",
        "gbytes_per_s",
        "peak_rss_mb",
    ] {
        assert!(
            line.contains(&format!(r#""{name}": {{"value": "#)),
            "{name} missing: {line}"
        );
    }
    assert!(
        !line.contains("parfor_job_p50_ms"),
        "the par-for twin is not in BENCHMARK.json: {line}"
    );
    assert!(
        !line.contains("slo_frac"),
        "a closed loop has no latency limit: {line}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("samples, tail = p"),
        "the tail percentile and sample count are reported"
    );
    assert!(
        stdout.contains("\nparfor_job_p50_ms "),
        "the par-for twin is still printed"
    );
}

#[test]
fn an_injected_wrong_output_raises_fail_frac_and_exits_nonzero() {
    let mut args = SHORT.to_vec();
    args.push("--inject-wrong-output");
    let out = perfbench(&args, &[]);
    let line = last_line(&out);
    assert_eq!(out.status.code(), Some(1), "{line}");
    assert!(line.starts_with(r#"{"correct": false"#), "{line}");
    let (failed, attempted) = (count(&line, "failed"), count(&line, "attempted"));
    assert!(failed > 0 && failed <= attempted, "{line}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("failure: square[0]"));
}

/// A run with `step` left out of every job after a segment's first fails
/// its checks and exits 1: the checks do not pass on values an earlier job
/// left behind (every segment runs at least two jobs).
fn skipping_fails(workload: &str, step: &str, failure: &str) {
    let mut args = SHORT.to_vec();
    args[1] = workload;
    args.extend(["--inject-skip", step]);
    let out = perfbench(&args, &[]);
    let line = last_line(&out);
    assert_eq!(out.status.code(), Some(1), "{workload} {step}: {line}");
    assert!(line.starts_with(r#"{"correct": false"#), "{line}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(failure),
        "{workload} {step}: no {failure:?} failure in\n{stdout}"
    );
}

#[test]
fn a_skipped_copy_trip_write_fails_transfer_bound() {
    skipping_fails("transfer-bound", "write", "failure: copy round trip");
}

#[test]
fn a_skipped_copy_trip_read_fails_transfer_bound() {
    skipping_fails("transfer-bound", "read", "failure: copy round trip");
}

#[test]
fn a_skipped_twin_fails_transfer_bound() {
    skipping_fails("transfer-bound", "twin", "failure: par-for twin");
}

#[test]
fn a_skipped_in_job_read_fails_launch_bound() {
    skipping_fails("launch-bound", "read", "failure: square[0]");
}

#[test]
fn a_skipped_twin_fails_launch_bound() {
    skipping_fails("launch-bound", "twin", "failure: par-for twin");
}

/// `tenant-mix` is not in `BENCHMARK.json` but stays runnable: short runs
/// are correct and print its open-loop metrics beside the shared ones.
#[test]
fn tenant_mix_prints_its_own_metrics() {
    for (trace, names) in [
        ("0", &["slo_frac", "job_tail_ms"][..]),
        (
            "1",
            &[
                "sched.chain_ms",
                "serve.launch_us",
                "loadgen.offered_per_s",
                "share.serve",
                "queue.enqueue_us",
            ][..],
        ),
    ] {
        let args = [
            "--workload",
            "tenant-mix",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        let out = perfbench(&args, &[]);
        let line = last_line(&out);
        assert!(out.status.success(), "trace {trace}: {line}");
        for name in names {
            assert!(
                line.contains(&format!(r#""{name}": {{"value": "#)),
                "{name} missing: {line}"
            );
        }
    }
}

#[test]
fn any_cl_variable_is_refused_by_name() {
    let out = perfbench(&SHORT, &[("CL_EXACT_GID", "1")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CL_EXACT_GID"));
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = perfbench(&["--workload", "nope"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
