//! Every harness binary shares one command-line contract (`cl_harness::cli`):
//! `--help` exits 0 with the usage on stdout; a flag missing its value or
//! an unknown flag exits 2 with the usage on stderr, before any work runs.

use std::process::{Command, Output};

const BINS: [&str; 11] = [
    env!("CARGO_BIN_EXE_repro"),
    env!("CARGO_BIN_EXE_cl-lint"),
    env!("CARGO_BIN_EXE_cl-chaos"),
    env!("CARGO_BIN_EXE_cl-trace"),
    env!("CARGO_BIN_EXE_cl-flow"),
    env!("CARGO_BIN_EXE_cl-bench"),
    env!("CARGO_BIN_EXE_cl-race"),
    env!("CARGO_BIN_EXE_cl-load"),
    env!("CARGO_BIN_EXE_cl-sched"),
    env!("CARGO_BIN_EXE_cl-coarsen"),
    env!("CARGO_BIN_EXE_cl-tune"),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_exits_zero_with_the_usage() {
    for bin in BINS {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(text(&out.stdout).starts_with("usage: "), "{bin} --help");
    }
}

#[test]
fn a_flag_missing_its_value_exits_two_with_the_usage() {
    for bin in BINS {
        let out = run(bin, &["--out"]);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} --out: {err}");
        assert!(err.contains("--out needs a value"), "{bin}: {err}");
        assert!(err.contains("usage: "), "{bin}: {err}");
    }
}

#[test]
fn an_unknown_flag_exits_two_with_the_usage() {
    for bin in BINS {
        let out = run(bin, &["--no-such-flag"]);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {err}");
        assert!(
            err.contains("unknown argument: --no-such-flag"),
            "{bin}: {err}"
        );
        assert!(err.contains("usage: "), "{bin}: {err}");
    }
}

#[test]
fn an_unparsable_value_exits_two() {
    let out = run(env!("CARGO_BIN_EXE_cl-sched"), &["--seed", "eleven"]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("--seed: not a valid value: eleven"));
}
