//! `cl-coarsen` — certify the thread-coarsening legality prover and its
//! static cost model against the kernel registry.
//!
//! ```text
//! cl-coarsen [--workers W] [--default-wg N] [--out DIR] [--stable]
//!
//!   --workers W     pool workers of the timing device (default: 2)
//!   --default-wg N  workgroup size cap for NULL locals (default: 256)
//!   --out DIR       output directory for coarsen.md / coarsen.csv
//!                   (default: results)
//!   --stable        deterministic report: measured-timing cells render as
//!                   "·" and the predicted-vs-measured agreement check is
//!                   skipped, so the committed report is byte-identical
//!                   across machines. Verdicts, features, chosen factors,
//!                   and static predictions (all deterministic at pinned
//!                   --workers) still render in full.
//! ```
//!
//! Four sections, any seeded-defect miss exits nonzero:
//!
//! 1. **Registry sweep** — every Table II/III launch gets a coarsening
//!    verdict (`Proven(K≤max)` / `Illegal` / `Unknown`) or an explicit
//!    exemption, plus its architecture-independent feature record and the
//!    cost model's chosen factor and predicted speedup.
//! 2. **Par-for twins** — the `mbench` OpenMP loop IRs lifted to access
//!    specs (`analyze_coarsen_loop`) and certified the same way.
//! 3. **Seeded defects** — the `cl_kernels::coarsen` fixtures must come
//!    back exactly `Illegal`, `Illegal`, `Unknown`, and a queue with a
//!    forced factor must refuse all three at enqueue time while the Auto
//!    queue runs them uncoarsened.
//! 4. **Timing cross-validation** — a `Proven` kernel runs coarsened and
//!    uncoarsened on a native queue; the measured dispatch speedup is
//!    compared against the static prediction (error band: agreement within
//!    50% relative or 0.35 absolute, whichever is looser — the model has
//!    one machine constant and must only rank, not time).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cl_analyze::{
    analyze_coarsen, analyze_coarsen_loop, choose_factor, features, CoarsenAnalysis, CoarsenPlan,
    CoarsenVerdict, KernelFeatures, LintGeometry,
};
use cl_harness::cli::Cli;
use cl_kernels::access::SpecCoverage;
use cl_kernels::registry::{parboil_kernels, simple_apps};
use ocl_rt::{ClError, CoarsenMode, Context, Device, Kernel, NDRange, QueueConfig};

struct Row {
    section: &'static str,
    benchmark: String,
    kernel: String,
    geometry: String,
    exempt: Option<&'static str>,
    analysis: Option<CoarsenAnalysis>,
    feats: Option<KernelFeatures>,
    plan: CoarsenPlan,
}

fn lane_summary(f: &KernelFeatures) -> String {
    if f.lanes.is_empty() {
        return "—".into();
    }
    f.lanes
        .iter()
        .map(|l| format!("{}:{}", l.buffer, l.class.as_str()))
        .collect::<Vec<_>>()
        .join(" ")
}

const USAGE: &str = "usage: cl-coarsen [--workers W] [--default-wg N] [--out DIR] [--stable]";

fn main() {
    let mut cli = Cli::parse("cl-coarsen", USAGE);
    let workers = cli.workers(2);
    let default_wg: usize = cli.get("--default-wg", 256);

    // --- 1. Registry sweep ----------------------------------------------
    let mut rows = Vec::new();
    for entry in simple_apps().into_iter().chain(parboil_kernels()) {
        for &global in &entry.globals {
            let (analysis, feats, plan) = match entry.coverage(global, default_wg) {
                None => {
                    cli.fail(format!(
                        "{}/{} at {}: kernel publishes neither spec nor exemption",
                        entry.benchmark,
                        entry.kernel,
                        global.describe()
                    ));
                    continue;
                }
                Some(SpecCoverage::Exempt(reason)) => {
                    rows.push(Row {
                        section: "registry",
                        benchmark: entry.benchmark.to_string(),
                        kernel: entry.kernel.to_string(),
                        geometry: global.describe(),
                        exempt: Some(reason),
                        analysis: None,
                        feats: None,
                        plan: CoarsenPlan::NONE,
                    });
                    continue;
                }
                Some(SpecCoverage::Spec(spec)) => {
                    let analysis = analyze_coarsen(&spec);
                    let feats = features(&spec, 1.0);
                    let plan = choose_factor(&analysis, &feats, workers);
                    (analysis, feats, plan)
                }
            };
            rows.push(Row {
                section: "registry",
                benchmark: entry.benchmark.to_string(),
                kernel: entry.kernel.to_string(),
                geometry: global.describe(),
                exempt: None,
                analysis: Some(analysis),
                feats: Some(feats),
                plan,
            });
        }
    }

    // --- 2. Par-for twins (mbench loop IR) -------------------------------
    const TWIN_N: usize = 65_536;
    const TWIN_WG: usize = 64;
    for mb in cl_kernels::mbench::all() {
        let l = (mb.omp_ir)();
        let in_len = mb.input_len(TWIN_N);
        let arrays = vec![
            ("a".to_string(), in_len),
            ("b".to_string(), in_len),
            ("c".to_string(), TWIN_N),
        ];
        let geometry = LintGeometry::d1(TWIN_N, TWIN_WG);
        let analysis = analyze_coarsen_loop(mb.name, &l, &arrays, geometry);
        rows.push(Row {
            section: "par-for twin",
            benchmark: "mbench".to_string(),
            kernel: mb.name.to_string(),
            geometry: format!("{TWIN_N} wg {TWIN_WG}"),
            exempt: None,
            analysis: Some(analysis),
            feats: None,
            plan: CoarsenPlan::NONE,
        });
    }

    // --- 3. Seeded defects -----------------------------------------------
    let ctx = Context::new(Device::native_cpu(workers).expect("native device"));
    const FIX_N: usize = 4096;
    const FIX_WG: usize = 64;
    let fixtures: Vec<(&str, Arc<dyn Kernel>, NDRange)> = {
        let (ns, r1) = cl_kernels::coarsen::neighbor_shift(&ctx, FIX_N, FIX_WG);
        let (aw, r2) = cl_kernels::coarsen::all_write_zero(&ctx, FIX_N, FIX_WG);
        let (is_, r3) = cl_kernels::coarsen::indirect_scatter(&ctx, FIX_N, FIX_WG);
        vec![
            ("Illegal", ns, r1),
            ("Illegal", aw, r2),
            ("Unknown", is_, r3),
        ]
    };
    let q_force = ctx.queue_with(QueueConfig::default().coarsen(CoarsenMode::Force(4)));
    for (want, kernel, range) in &fixtures {
        let resolved = range
            .resolve_with(ctx.device().default_wg(), ctx.device().null_target_groups())
            .expect("fixture geometry");
        let spec = kernel
            .access_spec(&resolved)
            .expect("fixture publishes a spec");
        let analysis = analyze_coarsen(&spec);
        let got = match &analysis.verdict {
            CoarsenVerdict::Proven { .. } => "Proven",
            CoarsenVerdict::Illegal { .. } => "Illegal",
            CoarsenVerdict::Unknown { .. } => "Unknown",
        };
        if got != *want {
            cli.fail(format!(
                "seeded defect {}: expected {want}, prover said {got} ({})",
                kernel.name(),
                analysis.verdict.reason()
            ));
        }
        // A forced factor must be refused at enqueue time for every
        // fixture — none of them carries a `Proven` certificate.
        match q_force.enqueue_kernel(kernel, *range) {
            Err(ClError::ContractViolation { .. }) => {}
            Err(e) => cli.fail(format!(
                "seeded defect {}: forced coarsening refused with the wrong error: {e}",
                kernel.name()
            )),
            Ok(_) => cli.fail(format!(
                "seeded defect {}: forced coarsening was NOT refused at enqueue",
                kernel.name()
            )),
        }
        rows.push(Row {
            section: "seeded defect",
            benchmark: "fixture".to_string(),
            kernel: kernel.name().to_string(),
            geometry: format!("{FIX_N} wg {FIX_WG}"),
            exempt: None,
            analysis: Some(analysis),
            feats: Some(features(&spec, 1.0)),
            plan: CoarsenPlan::NONE,
        });
    }

    // --- 4. Timing cross-validation --------------------------------------
    const TIME_N: usize = 65_536;
    const TIME_WG: usize = 64;
    let built = cl_kernels::apps::square::build(&ctx, TIME_N, 1, Some(TIME_WG), 7);
    let resolved = built
        .range
        .resolve_with(ctx.device().default_wg(), ctx.device().null_target_groups())
        .expect("square geometry");
    let spec = built
        .kernel
        .access_spec(&resolved)
        .expect("square publishes a spec");
    let analysis = analyze_coarsen(&spec);
    let profile = built.kernel.profile();
    let ratio = profile.flops / (profile.mem_bytes / 4.0).max(1.0);
    let feats = features(&spec, ratio);
    let plan = choose_factor(&analysis, &feats, workers);
    if plan.factor <= 1 {
        cli.fail(format!(
            "timing: square at {TIME_N} should coarsen (verdict {}), got factor {}",
            analysis.verdict.label(),
            plan.factor
        ));
    }
    let q_auto = ctx.queue_with(QueueConfig::default().coarsen(CoarsenMode::Auto));
    let q_off = ctx.queue_with(QueueConfig::default().coarsen(CoarsenMode::Off));
    let median_ns = |q: &ocl_rt::CommandQueue| -> u64 {
        const WARM: usize = 3;
        const SAMPLES: usize = 9;
        let mut times = Vec::with_capacity(SAMPLES);
        for it in 0..WARM + SAMPLES {
            let t0 = Instant::now();
            q.enqueue_kernel(&built.kernel, built.range)
                .expect("timing enqueue");
            if it >= WARM {
                times.push(t0.elapsed().as_nanos() as u64);
            }
        }
        times.sort_unstable();
        times[times.len() / 2]
    };
    let fused_ns = median_ns(&q_auto);
    let serial_ns = median_ns(&q_off);
    built.verify(&q_auto).expect("coarsened square results");
    let measured = serial_ns as f64 / fused_ns.max(1) as f64;
    let agreement = if cli.stable() {
        None
    } else {
        let band = f64::max(0.5 * plan.predicted_speedup, 0.35);
        Some((measured - plan.predicted_speedup).abs() <= band)
    };
    if let Some(false) = agreement {
        cli.fail(format!(
            "timing: predicted x{:.2} vs measured x{measured:.2} disagree beyond the error band",
            plan.predicted_speedup
        ));
    }

    // --- Report -----------------------------------------------------------
    let md = render_md(
        &cli, &rows, workers, default_wg, plan, measured, fused_ns, serial_ns, agreement,
    );
    cli.write("coarsen.md", md);
    cli.write("coarsen.csv", render_csv(&rows));

    let proven = rows
        .iter()
        .filter(|r| matches!(&r.analysis, Some(a) if a.verdict.is_proven()))
        .count();
    println!(
        "cl-coarsen: {} launches analyzed ({proven} proven), {} seeded defects checked, \
         fused x{:.2} predicted x{:.2}{}",
        rows.len(),
        fixtures.len(),
        if cli.stable() { f64::NAN } else { measured },
        plan.predicted_speedup,
        if cli.stable() { " (stable mode)" } else { "" },
    );
    cli.finish();
}

#[allow(clippy::too_many_arguments)]
fn render_md(
    cli: &Cli,
    rows: &[Row],
    workers: usize,
    default_wg: usize,
    plan: CoarsenPlan,
    measured: f64,
    fused_ns: u64,
    serial_ns: u64,
    agreement: Option<bool>,
) -> String {
    let mut md = String::new();
    md.push_str("# Thread-coarsening certification\n\n");
    let _ = writeln!(
        md,
        "Legality verdicts and static cost-model decisions for every \
         registry launch (`cl_analyze::coarsen`, NULL locals resolved with \
         a {default_wg}-workitem cap, factors chosen for {workers} \
         workers). `Proven(K≤max)` certifies that fusing up to `max` \
         consecutive workgroups per dispatch chunk is bit-exact; `Illegal` \
         kernels are refused under a forced factor; `Unknown` kernels run \
         uncoarsened.\n"
    );
    md.push_str(
        "| Section | Benchmark | Kernel | Geometry | Verdict | Guards | Lanes | Entropy (bits) | Footprint (KiB) | K | Predicted |\n",
    );
    md.push_str("|---|---|---|---|---|---|---|---:|---:|---:|---:|\n");
    for r in rows {
        let (verdict, guards) = match (&r.exempt, &r.analysis) {
            (Some(_), _) => ("exempt".to_string(), "—".to_string()),
            (None, Some(a)) => (a.verdict.label(), a.guards.as_str().to_string()),
            (None, None) => ("—".to_string(), "—".to_string()),
        };
        let (lanes, entropy, footprint) = match &r.feats {
            Some(f) => (
                lane_summary(f),
                format!("{:.2}", f.access_entropy_bits),
                format!("{:.0}", f.footprint_bytes as f64 / 1024.0),
            ),
            None => ("—".into(), "—".into(), "—".into()),
        };
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.section,
            r.benchmark,
            r.kernel,
            r.geometry,
            verdict,
            guards,
            lanes,
            entropy,
            footprint,
            if r.plan.factor > 1 {
                r.plan.factor.to_string()
            } else {
                "1".to_string()
            },
            if r.plan.factor > 1 {
                format!("x{:.2}", r.plan.predicted_speedup)
            } else {
                "—".to_string()
            },
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
                r.geometry,
                r.exempt.unwrap()
            );
        }
    }
    md.push_str("\n## Non-proven verdicts\n\n");
    let mut any = false;
    for r in rows {
        if let Some(a) = &r.analysis {
            if !a.verdict.is_proven() {
                any = true;
                let _ = writeln!(
                    md,
                    "- {} {}/{}: {} — {}",
                    r.section,
                    r.benchmark,
                    r.kernel,
                    a.verdict.label(),
                    a.verdict.reason()
                );
            }
        }
    }
    if !any {
        md.push_str("(none outside the seeded defects)\n");
    }
    md.push_str("\n## Fused-dispatch cross-validation\n\n");
    let _ = writeln!(
        md,
        "`square` at 65536 items, wg 64, {workers} workers: chosen factor \
         K={}, predicted speedup x{:.2}, serial median {} ns, fused median \
         {} ns, measured speedup {} — agreement {}. Error band: within 50% \
         relative or 0.35 absolute of the prediction, whichever is looser.",
        plan.factor,
        plan.predicted_speedup,
        cli.mask(serial_ns.to_string()),
        cli.mask(fused_ns.to_string()),
        cli.mask(format!("x{measured:.2}")),
        match agreement {
            None => "not checked (stable mode)".to_string(),
            Some(true) => "OK".to_string(),
            Some(false) => "FAILED".to_string(),
        },
    );
    if cli.stable() {
        md.push_str(
            "\n*Stable mode (`--stable`): measured-timing cells render as \
             \"·\" so the committed report is machine-independent; verdicts, \
             features, factors, and static predictions are deterministic and \
             render in full.*\n",
        );
    }
    md
}

fn render_csv(rows: &[Row]) -> String {
    let mut csv = String::from(
        "section,benchmark,kernel,geometry,verdict,guards,lanes,entropy_bits,footprint_bytes,factor,predicted_speedup,reason\n",
    );
    for r in rows {
        let (verdict, guards, reason) = match (&r.exempt, &r.analysis) {
            (Some(why), _) => ("exempt".to_string(), "-".to_string(), why.to_string()),
            (None, Some(a)) => (
                a.verdict.label(),
                a.guards.as_str().to_string(),
                a.verdict.reason().to_string(),
            ),
            (None, None) => ("-".to_string(), "-".to_string(), String::new()),
        };
        let (lanes, entropy, footprint) = match &r.feats {
            Some(f) => (
                lane_summary(f),
                format!("{:.4}", f.access_entropy_bits),
                f.footprint_bytes.to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        csv.push_str(&cl_util::csv::row([
            r.section.to_string(),
            r.benchmark.clone(),
            r.kernel.clone(),
            r.geometry.clone(),
            verdict,
            guards,
            lanes,
            entropy,
            footprint,
            r.plan.factor.to_string(),
            format!("{:.4}", r.plan.predicted_speedup),
            reason,
        ]));
    }
    csv
}
