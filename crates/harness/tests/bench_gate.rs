//! End-to-end tests for `cl-bench --pair`, the paired performance gate.
//!
//! The synthetic tests write hand-built `parent-NN.json`/`change-NN.json`
//! directories, so the pass/fail contract is pinned without measurement
//! noise. The real-run test measures the fast suite, pairs the run with
//! itself (must pass), then pairs it with a run carrying a seeded 50x
//! regression (must exit nonzero).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cl_harness::bench::{BenchRecord, BenchStats, Report};

fn bench_bin() -> &'static str {
    env!("CARGO_BIN_EXE_cl-bench")
}

/// A scratch directory unique to this test, wiped on entry.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_gate_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bench_bin())
        .args(args)
        .output()
        .expect("spawn cl-bench")
}

fn pair_gate(dir: &Path) -> Output {
    run(&["--pair", dir.to_str().unwrap()])
}

fn record(name: &str, unit: &str, median: f64) -> BenchRecord {
    BenchRecord {
        name: name.into(),
        unit: unit.into(),
        stats: BenchStats {
            median,
            mad: median * 0.05,
            min: median * 0.9,
            samples: 6,
        },
    }
}

/// One time entry and one count entry.
fn report(time_ns: f64, trials: f64) -> Report {
    Report::new(
        2,
        vec![
            record("synthetic/time", "ns/op", time_ns),
            record("synthetic/trials", "trials", trials),
        ],
    )
}

fn write(dir: &Path, name: &str, r: &Report) {
    std::fs::write(dir.join(name), r.to_json()).expect("write report");
}

/// Ten pairs: the parent at 100 µs and 42 trials, the change from
/// `change(i)` for pair `i`.
fn ten_pairs(dir: &Path, change: impl Fn(usize) -> Report) {
    let parent = report(100_000.0, 42.0);
    for i in 0..10 {
        write(dir, &format!("parent-{:02}.json", i + 1), &parent);
        write(dir, &format!("change-{:02}.json", i + 1), &change(i));
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gate_fails_on_clear_regression() {
    let dir = scratch("regression");
    ten_pairs(&dir, |_| report(200_000.0, 42.0));
    let out = pair_gate(&dir);
    assert_eq!(out.status.code(), Some(1), "2x in 10/10 pairs must exit 1");
    assert!(
        stdout(&out).contains("| synthetic/time | ns/op | 2.00 | 2.00–2.00 | 10/10 | REGRESSED |")
    );
}

#[test]
fn gate_passes_improvement_and_noise() {
    // 2x slower in 8 of 10 pairs: short of nine tenths.
    let dir = scratch("noise");
    ten_pairs(&dir, |i| {
        report(if i < 8 { 200_000.0 } else { 100_000.0 }, 42.0)
    });
    let out = pair_gate(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("| 8/10 | ok |"), "{}", stdout(&out));

    // Faster is never a regression.
    let dir = scratch("faster");
    ten_pairs(&dir, |_| report(60_000.0, 42.0));
    assert_eq!(pair_gate(&dir).status.code(), Some(0));
}

#[test]
fn higher_trial_count_fails() {
    let dir = scratch("trials");
    ten_pairs(&dir, |i| {
        report(100_000.0, if i == 3 { 43.0 } else { 42.0 })
    });
    let out = pair_gate(&dir);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out)
        .contains("| synthetic/trials | trials | 1.00 | 1.00–1.02 | 1/10 | REGRESSED |"));
}

#[test]
fn one_sided_entry_is_listed_not_gated() {
    let dir = scratch("one_sided");
    ten_pairs(&dir, |_| {
        let mut r = report(100_000.0, 42.0);
        r.benches.push(record("synthetic/new", "ns/op", 9e9));
        r
    });
    let out = pair_gate(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("| synthetic/new | ns/op | — | — | — | one side only |"));
}

#[test]
fn unpaired_run_file_is_an_error() {
    let dir = scratch("unpaired");
    ten_pairs(&dir, |_| report(100_000.0, 42.0));
    std::fs::remove_file(dir.join("change-07.json")).unwrap();
    let out = pair_gate(&dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("change-07.json"));
    // An empty directory holds no pairs at all.
    assert_eq!(pair_gate(&scratch("empty")).status.code(), Some(1));
}

#[test]
fn real_run_roundtrip_and_seeded_regression() {
    let dir = scratch("real");
    let run_file = dir.join("run.json");

    // One real (fast-profile) measurement.
    let out = run(&[
        "--fast",
        "--workers",
        "1",
        "--out",
        run_file.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "suite run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // BENCH.json round-trips through the reader and covers the suite.
    let text = std::fs::read_to_string(&run_file).expect("read run file");
    let report = Report::from_json(&text).expect("parse run file");
    assert_eq!(report.workers, 1);
    assert_eq!(report.benches.len(), 20);
    for b in &report.benches {
        assert!(b.stats.median > 0.0, "{}: non-positive median", b.name);
        assert!(b.stats.samples > 0, "{}: no samples", b.name);
    }

    // The identical run on both sides passes...
    let clean = dir.join("clean");
    std::fs::create_dir_all(&clean).unwrap();
    std::fs::copy(&run_file, clean.join("parent-01.json")).unwrap();
    std::fs::copy(&run_file, clean.join("change-01.json")).unwrap();
    let out = pair_gate(&clean);
    assert_eq!(
        out.status.code(),
        Some(0),
        "self-pair failed: {}",
        stdout(&out)
    );

    // ...and a run with a seeded 50x regression must be caught.
    let seeded = dir.join("seeded");
    std::fs::create_dir_all(&seeded).unwrap();
    std::fs::copy(&run_file, seeded.join("parent-01.json")).unwrap();
    let out = run(&[
        "--fast",
        "--workers",
        "1",
        "--inject-regression",
        "50",
        "--out",
        seeded.join("change-01.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let out = pair_gate(&seeded);
    assert_eq!(out.status.code(), Some(1), "seeded regression not caught");
    assert!(stdout(&out).contains("REGRESSED"));
}
