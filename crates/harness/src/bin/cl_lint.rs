//! `cl-lint` — statically check every registry kernel's memory contract.
//!
//! ```text
//! cl-lint [--deny-warnings] [--out DIR] [--default-wg N]
//!
//!   --deny-warnings  exit nonzero on any finding (even unproven warnings)
//!   --out DIR        output directory (default: results)
//!   --default-wg N   workgroup size cap for NULL locals (default: 256)
//! ```
//!
//! Sweeps the Table II/III launch geometries ([`cl_kernels::registry`]),
//! runs the four static lints of `cl-analyze` on each kernel's access spec
//! (disjoint writes, local races, barrier divergence, bounds), and writes
//! `lint.md` + `lint.csv` with a coverage column: every launch is either
//! `spec` (fully analyzed) or `exempt` (explicitly unspecifiable at that
//! geometry, with a documented reason). A proven violation or a
//! *silently*-unspecified kernel always fails the run; warnings fail only
//! under `--deny-warnings`.

use std::fmt::Write as _;

use cl_analyze::{analyze, analyze_coarsen, CoarsenVerdict, Severity, Verdict};
use cl_harness::cli::Cli;
use cl_kernels::access::SpecCoverage;
use cl_kernels::registry::{parboil_kernels, simple_apps};

struct Row {
    benchmark: &'static str,
    kernel: &'static str,
    global: String,
    local: [usize; 3],
    /// `Some(reason)` for explicitly exempt launches (no spec at this
    /// geometry, documented why); the verdict fields are then meaningless.
    exempt: Option<&'static str>,
    disjoint: Verdict,
    local_races: Verdict,
    barriers: Verdict,
    bounds: Verdict,
    checked_writes: usize,
    checked_accesses: usize,
    /// Coarsening-legality verdict (`cl_analyze::coarsen`); `None` for
    /// exempt launches.
    coarsen: Option<CoarsenVerdict>,
    findings: Vec<(Severity, String)>,
}

/// Spec'd kernels allowed to be non-`Proven` for coarsening. A spec'd
/// kernel outside this list that regresses from `Proven` fails the run —
/// the registry's whole point is that its kernels stay certifiable.
const ALLOW_UNPROVEN_COARSEN: &[(&str, &str)] = &[];

fn coarsen_allowed(benchmark: &str, kernel: &str) -> bool {
    ALLOW_UNPROVEN_COARSEN
        .iter()
        .any(|&(b, k)| b == benchmark && k == kernel)
}

impl Row {
    fn coverage(&self) -> &'static str {
        if self.exempt.is_some() {
            "exempt"
        } else {
            "spec"
        }
    }

    fn verdict_cell(&self, v: Verdict) -> &'static str {
        if self.exempt.is_some() {
            "—"
        } else {
            v.as_str()
        }
    }
}

const USAGE: &str = "usage: cl-lint [--deny-warnings] [--out DIR] [--default-wg N]";

fn main() {
    let mut cli = Cli::parse("cl-lint", USAGE);
    let deny_warnings = cli.on("--deny-warnings");
    let default_wg: usize = cli.get("--default-wg", 256);

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for entry in simple_apps().into_iter().chain(parboil_kernels()) {
        for &global in &entry.globals {
            let resolved = match entry.resolve(global, default_wg) {
                Ok(r) => r,
                Err(e) => {
                    cli.fail(format!(
                        "{}/{} at {}: unresolvable geometry: {e}",
                        entry.benchmark,
                        entry.kernel,
                        global.describe()
                    ));
                    continue;
                }
            };
            let spec = match entry.coverage(global, default_wg) {
                // Silently unspecified: the registry grew a kernel nobody
                // wrote a spec (or an exemption) for. Always an error.
                None => {
                    missing.push(format!(
                        "{}/{} at {}",
                        entry.benchmark,
                        entry.kernel,
                        global.describe()
                    ));
                    continue;
                }
                Some(SpecCoverage::Exempt(reason)) => {
                    rows.push(Row {
                        benchmark: entry.benchmark,
                        kernel: entry.kernel,
                        global: global.describe(),
                        local: resolved.local,
                        exempt: Some(reason),
                        disjoint: Verdict::Unknown,
                        local_races: Verdict::Unknown,
                        barriers: Verdict::Unknown,
                        bounds: Verdict::Unknown,
                        checked_writes: 0,
                        checked_accesses: 0,
                        coarsen: None,
                        findings: Vec::new(),
                    });
                    continue;
                }
                Some(SpecCoverage::Spec(spec)) => *spec,
            };
            let a = analyze(&spec);
            let coarsen = analyze_coarsen(&spec).verdict;
            rows.push(Row {
                benchmark: entry.benchmark,
                kernel: entry.kernel,
                global: global.describe(),
                local: resolved.local,
                exempt: None,
                disjoint: a.disjoint_writes,
                local_races: a.local_races,
                barriers: a.barrier_divergence,
                bounds: a.bounds,
                checked_writes: a.checked_writes,
                checked_accesses: a.checked_accesses,
                coarsen: Some(coarsen),
                findings: a
                    .findings
                    .iter()
                    .map(|f| (f.severity, format!("[{}] {}", f.kind.as_str(), f.message)))
                    .collect(),
            });
        }
    }

    cli.write("lint.md", render_md(&rows, &missing, default_wg));
    cli.write("lint.csv", render_csv(&rows));

    let errors: usize = rows
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|(s, _)| *s == Severity::Error)
        .count();
    let warnings: usize = rows
        .iter()
        .flat_map(|r| &r.findings)
        .filter(|(s, _)| *s == Severity::Warning)
        .count();
    // Errors always fail the run; warnings only under --deny-warnings.
    for row in &rows {
        for (sev, msg) in &row.findings {
            let (tag, fails) = match sev {
                Severity::Error => ("error", true),
                Severity::Warning => ("warning", deny_warnings),
            };
            let line = format!(
                "{tag}: {}/{} at {}: {msg}",
                row.benchmark, row.kernel, row.global
            );
            if fails {
                cli.fail(line);
            } else {
                eprintln!("cl-lint: {line}");
            }
        }
    }
    for m in &missing {
        cli.fail(format!("{m}: kernel publishes no access spec"));
    }
    // Coarsening regressions: a spec'd registry kernel the prover can no
    // longer certify (outside the documented allowlist) fails the run.
    for row in &rows {
        if let Some(v) = &row.coarsen {
            if !v.is_proven() && !coarsen_allowed(row.benchmark, row.kernel) {
                cli.fail(format!(
                    "{}/{} at {}: coarsening verdict regressed to {}: {}",
                    row.benchmark,
                    row.kernel,
                    row.global,
                    v.label(),
                    v.reason()
                ));
            }
        }
    }
    let exempt = rows.iter().filter(|r| r.exempt.is_some()).count();
    println!(
        "cl-lint: {} launches checked, {errors} errors, {warnings} warnings, \
         {exempt} exempt, {} without specs",
        rows.len() - exempt,
        missing.len()
    );
    cli.finish();
}

fn render_md(rows: &[Row], missing: &[String], default_wg: usize) -> String {
    let mut md = String::new();
    md.push_str("# Static lint of the registry kernels\n\n");
    let _ = writeln!(
        md,
        "Every Table II/III launch geometry, checked by `cl-analyze` \
         (NULL locals resolved with a {default_wg}-workitem cap). \
         `proven` means the property holds for every workitem of the \
         launch; `unknown` would fall back to the dynamic validator.\n"
    );
    md.push_str(
        "| Benchmark | Kernel | Global | Local | Coverage | Disjoint writes | Local races | Barriers | Bounds | Coarsen | Writes | Accesses |\n",
    );
    md.push_str("|---|---|---|---|---|---|---|---|---|---|---:|---:|\n");
    for r in rows {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {}x{}x{} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.benchmark,
            r.kernel,
            r.global,
            r.local[0],
            r.local[1],
            r.local[2],
            r.coverage(),
            r.verdict_cell(r.disjoint),
            r.verdict_cell(r.local_races),
            r.verdict_cell(r.barriers),
            r.verdict_cell(r.bounds),
            r.coarsen.as_ref().map_or("—".into(), |v| v.label()),
            r.checked_writes,
            r.checked_accesses,
        );
    }
    let exempt: Vec<&Row> = rows.iter().filter(|r| r.exempt.is_some()).collect();
    if !exempt.is_empty() {
        md.push_str("\n## Exempt launches\n\n");
        for r in exempt {
            let _ = writeln!(
                md,
                "- {}/{} at {}: {}",
                r.benchmark,
                r.kernel,
                r.global,
                r.exempt.unwrap()
            );
        }
    }
    let all_findings: Vec<String> = rows
        .iter()
        .flat_map(|r| {
            r.findings
                .iter()
                .map(move |(_, m)| format!("- {}/{} at {}: {m}", r.benchmark, r.kernel, r.global))
        })
        .chain(missing.iter().map(|m| format!("- {m}: no access spec")))
        .collect();
    if all_findings.is_empty() {
        md.push_str("\nNo findings: all four properties proven on every launch.\n");
    } else {
        md.push_str("\n## Findings\n\n");
        for f in all_findings {
            md.push_str(&f);
            md.push('\n');
        }
    }
    md
}

fn render_csv(rows: &[Row]) -> String {
    let mut csv = String::from(
        "benchmark,kernel,global,local,coverage,disjoint_writes,local_races,barrier_divergence,bounds,coarsen,checked_writes,checked_accesses,findings\n",
    );
    for r in rows {
        let cell = |v: Verdict| {
            if r.exempt.is_some() {
                "-"
            } else {
                v.as_str()
            }
        };
        csv.push_str(&cl_util::csv::row([
            r.benchmark.to_string(),
            r.kernel.to_string(),
            r.global.clone(),
            format!("{}x{}x{}", r.local[0], r.local[1], r.local[2]),
            r.coverage().to_string(),
            cell(r.disjoint).to_string(),
            cell(r.local_races).to_string(),
            cell(r.barriers).to_string(),
            cell(r.bounds).to_string(),
            r.coarsen.as_ref().map_or("-".to_string(), |v| v.label()),
            r.checked_writes.to_string(),
            r.checked_accesses.to_string(),
            r.findings.len().to_string(),
        ]));
    }
    csv
}
