//! # One front-end for the harness binaries
//!
//! Every binary under `src/bin` reads its command line, writes its reports
//! and settles its exit status through one [`Cli`]:
//!
//! * **Flags.** The binary's usage text is its flag table: `--name VALUE`
//!   (a placeholder that starts with an uppercase letter) takes a value, a
//!   bare `--name` is a switch, so `--help` can never disagree with the
//!   parser. The shared flags keep one meaning everywhere: `--workers`
//!   ([`Cli::workers`], 0 clamps to 1), `--seed`, `--out` (the report
//!   directory, default `results`) and `--stable`.
//! * **Reports.** [`Cli::write`] creates the `--out` directory and writes
//!   one named file; [`Cli::mask`] renders a volatile cell as `·` under
//!   `--stable`, so committed reports are byte-identical across runs.
//! * **Verdict.** [`Cli::fail`] prints `<bin>: FAILED: <msg>` and counts
//!   it; [`Cli::finish`] exits 1 if anything failed.
//!
//! Exit status: 0 when every check passed, 1 when one failed, 2 when the
//! command line was malformed (unknown flag, missing or unparsable value;
//! the usage goes to stderr). `--help` or `-h` prints the usage and
//! exits 0.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// A harness binary's parsed command line and running verdict.
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    /// The flags given, in order; the value is `None` for a switch.
    given: Vec<(String, Option<String>)>,
    failures: usize,
}

/// Why parsing stopped before producing a [`Cli`].
#[derive(Debug, PartialEq)]
enum Stop {
    Help,
    Malformed(String),
}

/// Default pool size of the binaries that size their device to the host:
/// `min(4, cores)`.
pub fn host_workers() -> usize {
    usize::min(4, cl_pool::available_cores().max(1))
}

/// The flags `usage` names, each with whether it takes a value.
fn flags_in(usage: &str) -> Vec<(&str, bool)> {
    let words: Vec<&str> = usage
        .split_whitespace()
        .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
        .collect();
    words
        .iter()
        .enumerate()
        .filter(|(_, w)| w.starts_with("--"))
        .map(|(i, w)| {
            let takes_value = words
                .get(i + 1)
                .is_some_and(|next| next.starts_with(|c: char| c.is_ascii_uppercase()));
            (*w, takes_value)
        })
        .collect()
}

impl Cli {
    /// Parse this process's command line against `usage`. Exits 0 after
    /// printing the usage for `--help`, and 2 with the usage on stderr for
    /// a malformed command line.
    pub fn parse(bin: &'static str, usage: &'static str) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Cli::from_args(bin, usage, &args) {
            Ok(cli) => cli,
            Err(Stop::Help) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(Stop::Malformed(msg)) => usage_exit(bin, usage, &msg),
        }
    }

    fn from_args(bin: &'static str, usage: &'static str, args: &[String]) -> Result<Cli, Stop> {
        let known = flags_in(usage);
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            }
            let Some(&(_, takes_value)) = known.iter().find(|(name, _)| name == arg) else {
                return Err(Stop::Malformed(format!("unknown argument: {arg}")));
            };
            let value = if takes_value {
                let v = args
                    .next()
                    .ok_or_else(|| Stop::Malformed(format!("{arg} needs a value")))?;
                Some(v.clone())
            } else {
                None
            };
            given.push((arg.clone(), value));
        }
        Ok(Cli {
            bin,
            usage,
            given,
            failures: 0,
        })
    }

    /// The last value given for `flag`, parsed as `T`.
    fn try_value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(v) = self
            .given
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .and_then(|(_, v)| v.as_deref())
        else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: not a valid value: {v}"))
    }

    /// The value given for `flag`, if any. A value that does not parse as
    /// `T` is a malformed command line (exit 2).
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.try_value(flag)
            .unwrap_or_else(|msg| usage_exit(self.bin, self.usage, &msg))
    }

    /// The value given for `flag`, or `default`.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).unwrap_or(default)
    }

    /// Whether switch `flag` was given.
    pub fn on(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// `--workers`, or `default`; 0 clamps to 1.
    pub fn workers(&self, default: usize) -> usize {
        self.get("--workers", default).max(1)
    }

    /// Whether `--stable` was given: volatile report cells are masked.
    pub fn stable(&self) -> bool {
        self.on("--stable")
    }

    /// `v`, or `·` under `--stable`.
    pub fn mask(&self, v: String) -> String {
        self.mask_as("·", v)
    }

    /// `v`, or `placeholder` under `--stable`.
    pub fn mask_as(&self, placeholder: &str, v: String) -> String {
        if self.stable() {
            placeholder.to_string()
        } else {
            v
        }
    }

    /// The report directory: `--out`, or `results`.
    fn out_dir(&self) -> PathBuf {
        self.get("--out", PathBuf::from("results"))
    }

    /// Write report `name` into the `--out` directory, creating it, and
    /// return the file's path.
    pub fn write(&self, name: &str, contents: impl AsRef<[u8]>) -> PathBuf {
        let dir = self.out_dir();
        std::fs::create_dir_all(&dir).expect("create output directory");
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {name}: {e}"));
        path
    }

    /// Record a failed check: prints `<bin>: FAILED: <msg>`.
    pub fn fail(&mut self, msg: impl Display) {
        eprintln!("{}: FAILED: {msg}", self.bin);
        self.failures += 1;
    }

    /// Whether any check has failed so far.
    pub fn failed(&self) -> bool {
        self.failures > 0
    }

    /// A malformed command line found after parsing (a value outside the
    /// set the binary accepts): print the usage and exit 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_exit(self.bin, self.usage, msg)
    }

    /// End the run: exit 1 if any check failed, else return.
    pub fn finish(self) {
        if self.failed() {
            std::process::exit(1);
        }
    }
}

fn usage_exit(bin: &str, usage: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: demo [--workers W] [--stable] [--out DIR]\n       demo --pair DIR";

    fn parse(args: &[&str]) -> Result<Cli, Stop> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::from_args("demo", USAGE, &args)
    }

    #[test]
    fn usage_text_is_the_flag_table() {
        assert_eq!(
            flags_in(USAGE),
            [
                ("--workers", true),
                ("--stable", false),
                ("--out", true),
                ("--pair", true)
            ]
        );
    }

    #[test]
    fn values_switches_and_defaults() {
        let cli = parse(&["--stable", "--workers", "3", "--pair", "runs"]).unwrap();
        assert_eq!(cli.workers(2), 3);
        assert!(cli.stable());
        assert_eq!(cli.value::<String>("--pair").as_deref(), Some("runs"));
        assert_eq!(cli.out_dir(), PathBuf::from("results"));
        assert_eq!(cli.mask("1.5".into()), "·");
        assert_eq!(cli.mask_as("-", "1.5".into()), "-");

        let cli = parse(&[]).unwrap();
        assert_eq!(cli.workers(2), 2);
        assert!(!cli.stable());
        assert_eq!(cli.mask("1.5".into()), "1.5");
    }

    #[test]
    fn zero_workers_clamp_to_one_and_the_last_value_wins() {
        assert_eq!(parse(&["--workers", "0"]).unwrap().workers(4), 1);
        assert_eq!(
            parse(&["--workers", "2", "--workers", "5"])
                .unwrap()
                .workers(4),
            5
        );
    }

    #[test]
    fn malformed_command_lines_stop_parsing() {
        assert_eq!(
            parse(&["--out"]).err(),
            Some(Stop::Malformed("--out needs a value".into()))
        );
        assert_eq!(
            parse(&["--bogus"]).err(),
            Some(Stop::Malformed("unknown argument: --bogus".into()))
        );
        // Parsing stops at the first `--help` or malformed flag.
        assert_eq!(parse(&["--workers", "2", "-h"]).err(), Some(Stop::Help));
        assert_eq!(parse(&["--help", "--bogus"]).err(), Some(Stop::Help));
    }

    #[test]
    fn unparsable_values_are_reported() {
        let cli = parse(&["--workers", "many"]).unwrap();
        assert_eq!(
            cli.try_value::<usize>("--workers"),
            Err("--workers: not a valid value: many".into())
        );
    }

    #[test]
    fn failures_are_counted() {
        let mut cli = parse(&[]).unwrap();
        assert!(!cli.failed());
        cli.fail("seeded check");
        assert!(cli.failed());
    }
}
