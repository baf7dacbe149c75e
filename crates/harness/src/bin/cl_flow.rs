//! `cl-flow` — replay the paper's transfer and chain scenarios on a
//! recording context and statically analyze each queue's command stream.
//!
//! ```text
//! cl-flow [--workers W] [--seed S] [--out DIR] [--stable]
//!
//!   --workers W  pool workers of the device under test (default: min(4, cores))
//!   --seed S     input seed for the replayed kernels (default: 7)
//!   --out DIR    output directory for flow.md / flow.csv (default: results)
//!   --stable     deterministic report: skip the wall-clock overhead sweep
//! ```
//!
//! Three clean replays, each on its own queue of one recording context
//! (each analyzed through `RaceLog::queue_commands`):
//!
//! 1. **Figure 7** — explicit `write_buffer` → `square` → `read_buffer`,
//! 2. **Figure 8** — the same round trip through `map`/`unmap` pairs,
//! 3. **Figure 9** — the producer→consumer chain `vectoadd` → `square`,
//!    where the analyzer must *prove* the RAW dependence on the
//!    intermediate buffer.
//!
//! A clean replay with any `Violation` finding, or a Figure 9 chain whose
//! RAW edge is not proven, exits nonzero. Then five seeded-fault rounds —
//! flag-contract, use-while-mapped, redundant transfer, read-before-write,
//! unsynchronized host access — each of which the analysis (or the
//! debug-mode enqueue gate) must catch; a missed fault exits nonzero.
//! Finally the recording-disabled overhead is measured against run-to-run
//! noise, the same way `cl-trace` prices the disabled-tracing path.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cl_analyze::flow::{analyze_flow, FlowAnalysis, FlowCommand, FlowLintKind, HazardKind};
use cl_analyze::{Severity, Verdict};
use cl_harness::parse_flag;
use cl_kernels::apps::square::Square;
use cl_kernels::apps::vectoradd::VectorAdd;
use cl_kernels::util::random_f32;
use ocl_rt::{CommandQueue, Context, ContextConfig, Device, MemFlags, NDRange, QueueConfig};

const N: usize = 4096;

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Proven => "proven",
        Verdict::Violation => "VIOLATION",
        Verdict::Unknown => "unknown",
    }
}

/// One replayed scenario and its analysis.
struct Scenario {
    name: &'static str,
    commands: Vec<FlowCommand>,
    analysis: FlowAnalysis,
}

impl Scenario {
    fn proven_edges(&self) -> usize {
        self.analysis
            .edges
            .iter()
            .filter(|e| e.verdict == Verdict::Proven)
            .count()
    }

    fn errors(&self) -> usize {
        self.analysis
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    fn warnings(&self) -> usize {
        self.analysis
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }
}

/// One seeded-fault round: which lint it targets and whether it was caught.
struct Seeded {
    kind: FlowLintKind,
    caught: bool,
    how: String,
    analysis: FlowAnalysis,
}

/// A queue of the recording context `ctx`: everything it runs lands in
/// the context's log.
fn recording_queue(ctx: &Context) -> CommandQueue {
    ctx.queue_with(QueueConfig::default().launch_timeout(Duration::from_secs(60)))
}

/// `q`'s commands in the context's log, and their flow analysis.
fn recorded(ctx: &Context, q: &CommandQueue) -> (Vec<FlowCommand>, FlowAnalysis) {
    let commands = ctx
        .race()
        .expect("recording context")
        .queue_commands(q.id());
    let analysis = analyze_flow(&commands);
    (commands, analysis)
}

fn square(input: &ocl_rt::Buffer<f32>, output: &ocl_rt::Buffer<f32>) -> Square {
    Square {
        input: input.clone(),
        output: output.clone(),
        n: N,
        items_per_wi: 1,
    }
}

/// Figure 7: host→device write, kernel, device→host read.
fn fig7(ctx: &Context, seed: u64) -> Scenario {
    let q = recording_queue(ctx);
    let host = random_f32(seed, N, -2.0, 2.0);
    let input = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("in");
    let output = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("out");
    q.write_buffer(&input, 0, &host).expect("write");
    q.run(square(&input, &output), NDRange::d1(N))
        .expect("square");
    let mut back = vec![0.0f32; N];
    q.read_buffer(&output, 0, &mut back).expect("read");
    assert!(
        back.iter().zip(&host).all(|(&y, &x)| y == x * x),
        "fig7 results"
    );
    let (commands, analysis) = recorded(ctx, &q);
    Scenario {
        name: "Figure 7: write → square → read",
        commands,
        analysis,
    }
}

/// Figure 8: the same round trip through map/unmap pairs.
fn fig8(ctx: &Context, seed: u64) -> Scenario {
    let q = recording_queue(ctx);
    let host = random_f32(seed ^ 0x5EED, N, -2.0, 2.0);
    let input = ctx.buffer::<f32>(MemFlags::default(), N).expect("in");
    let output = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    {
        let (mut m, _) = q.map_buffer_mut(&input).expect("map in");
        m.copy_from_slice(&host);
    }
    q.run(square(&input, &output), NDRange::d1(N))
        .expect("square");
    {
        let (m, _) = q.map_buffer(&output).expect("map out");
        assert!(
            m.iter().zip(&host).all(|(&y, &x)| y == x * x),
            "fig8 results"
        );
    }
    let (commands, analysis) = recorded(ctx, &q);
    Scenario {
        name: "Figure 8: map-write → square → map-read",
        commands,
        analysis,
    }
}

/// Figure 9: producer→consumer chain; the RAW dependence on the
/// intermediate buffer must be *proven*, not merely suspected.
fn fig9(ctx: &Context, seed: u64) -> (Scenario, bool) {
    let q = recording_queue(ctx);
    let ha = random_f32(seed, N, -3.0, 3.0);
    let hb = random_f32(seed ^ 0xABCD, N, -3.0, 3.0);
    let a = ctx.buffer_from(MemFlags::READ_ONLY, &ha).expect("a");
    let b = ctx.buffer_from(MemFlags::READ_ONLY, &hb).expect("b");
    let c = ctx.buffer::<f32>(MemFlags::default(), N).expect("c");
    let d = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("d");
    q.run(
        VectorAdd {
            a,
            b,
            c: c.clone(),
            n: N,
            items_per_wi: 1,
        },
        NDRange::d1(N),
    )
    .expect("vectoradd");
    q.run(square(&c, &d), NDRange::d1(N)).expect("square");
    let mut back = vec![0.0f32; N];
    q.read_buffer(&d, 0, &mut back).expect("read");
    assert!(
        back.iter()
            .zip(ha.iter().zip(&hb))
            .all(|(&y, (&x1, &x2))| y == (x1 + x2) * (x1 + x2)),
        "fig9 results"
    );
    let (commands, analysis) = recorded(ctx, &q);
    // Command 0 is the vectoradd launch, command 1 the square launch; the
    // chain through `c` must be a proven RAW dependence.
    let chain_proven = analysis
        .edges_between(0, 1)
        .any(|e| e.kind == HazardKind::Raw && e.verdict == Verdict::Proven);
    (
        Scenario {
            name: "Figure 9: vectoadd → square chain",
            commands,
            analysis,
        },
        chain_proven,
    )
}

/// Seeded fault: launch `square` with a read-only output binding. Debug
/// builds reject at the enqueue gate; release builds record the launch and
/// the replay analysis must flag the flag-contract violation.
fn seed_flag_contract(ctx: &Context, seed: u64) -> Seeded {
    let q = recording_queue(ctx);
    let host = random_f32(seed, N, -1.0, 1.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &host).expect("in");
    let ro_out = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("out");
    let res = q.run(square(&input, &ro_out), NDRange::d1(N));
    let (_, analysis) = recorded(ctx, &q);
    let in_replay = analysis.verdict(FlowLintKind::FlagContract) == Verdict::Violation;
    let at_enqueue = res.is_err();
    Seeded {
        kind: FlowLintKind::FlagContract,
        caught: in_replay || at_enqueue,
        how: match (in_replay, at_enqueue) {
            (true, true) => "replay analysis + enqueue rejection".into(),
            (true, false) => "replay analysis".into(),
            (false, true) => "enqueue gate (launch rejected before recording)".into(),
            (false, false) => "MISSED".into(),
        },
        analysis,
    }
}

/// Seeded fault: a device write lands while a host read-mapping is live.
fn seed_use_while_mapped(ctx: &Context, seed: u64) -> Seeded {
    let q = recording_queue(ctx);
    let host = random_f32(seed, N, -1.0, 1.0);
    let buf = ctx.buffer_from(MemFlags::default(), &host).expect("buf");
    {
        let (_m, _) = q.map_buffer(&buf).expect("map");
        // Device write while the mapping is live: the host view and the
        // device copy now disagree — exactly what OpenCL leaves undefined.
        q.write_buffer(&buf, 0, &[0.0f32; N]).expect("write");
    }
    let (_, analysis) = recorded(ctx, &q);
    let caught = analysis.verdict(FlowLintKind::UseWhileMapped) == Verdict::Violation;
    Seeded {
        kind: FlowLintKind::UseWhileMapped,
        caught,
        how: if caught { "replay analysis" } else { "MISSED" }.into(),
        analysis,
    }
}

/// Seeded fault: a transfer whose bytes are fully overwritten before any
/// consumer — paying the Figure 7/8 transfer cost for nothing.
fn seed_redundant_transfer(ctx: &Context, seed: u64) -> Seeded {
    let q = recording_queue(ctx);
    let host = random_f32(seed, N, -1.0, 1.0);
    let input = ctx.buffer_from(MemFlags::READ_ONLY, &host).expect("in");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    // The pointless transfer: square's proven footprint overwrites all of
    // it before anything reads.
    q.write_buffer(&out, 0, &[9.0f32; N]).expect("write");
    q.run(square(&input, &out), NDRange::d1(N)).expect("square");
    let mut back = vec![0.0f32; N];
    q.read_buffer(&out, 0, &mut back).expect("read");
    let (_, analysis) = recorded(ctx, &q);
    let caught = analysis.verdict(FlowLintKind::RedundantTransfer) == Verdict::Violation;
    Seeded {
        kind: FlowLintKind::RedundantTransfer,
        caught,
        how: if caught { "replay analysis" } else { "MISSED" }.into(),
        analysis,
    }
}

/// Seeded fault: the kernel's proven read set touches a buffer no command
/// (and no `COPY_HOST_PTR` init) ever defined.
fn seed_read_before_write(ctx: &Context) -> Seeded {
    let q = recording_queue(ctx);
    let uninit = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("in");
    let out = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("out");
    q.run(square(&uninit, &out), NDRange::d1(N))
        .expect("square");
    let (_, analysis) = recorded(ctx, &q);
    let caught = analysis.verdict(FlowLintKind::ReadBeforeWrite) == Verdict::Violation;
    Seeded {
        kind: FlowLintKind::ReadBeforeWrite,
        caught,
        how: if caught { "replay analysis" } else { "MISSED" }.into(),
        analysis,
    }
}

/// Seeded fault: a host write to device memory outside any mapping.
fn seed_host_sync(ctx: &Context, seed: u64) -> Seeded {
    let q = recording_queue(ctx);
    let host = random_f32(seed, N, -1.0, 1.0);
    let buf = ctx.buffer_from(MemFlags::default(), &host).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("out");
    // Model a host poking the allocation directly, with no map command.
    ctx.race()
        .expect("recording context")
        .record_host_access(q.id(), &buf, 0..N, true, None);
    q.run(square(&buf, &out), NDRange::d1(N)).expect("square");
    let (_, analysis) = recorded(ctx, &q);
    let caught = analysis.verdict(FlowLintKind::HostSync) == Verdict::Violation;
    Seeded {
        kind: FlowLintKind::HostSync,
        caught,
        how: if caught { "replay analysis" } else { "MISSED" }.into(),
        analysis,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workers = usize::min(4, cl_pool::available_cores().max(1));
    let mut seed = 7u64;
    let mut out_dir = PathBuf::from("results");
    let mut stable = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                workers = parse_flag(&args, i, "--workers");
            }
            "--seed" => {
                i += 1;
                seed = parse_flag(&args, i, "--seed");
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--stable" => stable = true,
            "--help" | "-h" => {
                println!("usage: cl-flow [--workers W] [--seed S] [--out DIR] [--stable]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    workers = workers.max(1);
    // One recording context for every scenario. Buffer ids are
    // process-global and the report prints them, so no buffer is created
    // before the scenarios; Figure 9 runs first and maps nothing, so Figure
    // 8's maps take ids #0 and #1 from the log's fresh counter.
    let device = Device::native_cpu(workers).expect("flow device");
    let ctx = Context::new_with(
        device.clone(),
        ContextConfig::default().race_recording(true),
    );

    // ------ Clean replays ------
    let mut failures = 0usize;
    let (chain, chain_proven) = fig9(&ctx, seed);
    let clean = [fig7(&ctx, seed), fig8(&ctx, seed), chain];
    for s in &clean {
        if s.analysis.has_violations() {
            eprintln!("cl-flow: FAILED: clean replay '{}' has violations:", s.name);
            for f in &s.analysis.findings {
                eprintln!("  [{}] {}", f.kind.as_str(), f.message);
            }
            failures += 1;
        }
    }
    if !chain_proven {
        eprintln!("cl-flow: FAILED: Figure 9 chain RAW dependence not proven");
        failures += 1;
    }

    // ------ Seeded faults ------
    let seeded = [
        seed_flag_contract(&ctx, seed),
        seed_use_while_mapped(&ctx, seed),
        seed_redundant_transfer(&ctx, seed),
        seed_read_before_write(&ctx),
        seed_host_sync(&ctx, seed),
    ];
    for s in &seeded {
        if !s.caught {
            eprintln!(
                "cl-flow: FAILED: seeded {} fault not caught",
                s.kind.as_str()
            );
            failures += 1;
        }
    }

    // ------ Overhead: recording disabled vs enabled ------
    // The same pricing as cl-trace's disabled-tracing measurement: a
    // 12-launch square sweep twice without recording (noise band) and once
    // with. With recording off the context holds no RaceLog and each record
    // site is one skipped Option branch.
    let sweep = |ctx: &Context| -> f64 {
        let q = recording_queue(ctx);
        let t0 = Instant::now();
        for _ in 0..3 {
            for factor in [1usize, 10, 100, 1000] {
                let built = cl_kernels::apps::square::build(ctx, 100_000, factor, None, seed);
                q.enqueue_kernel(&built.kernel, built.range).expect("sweep");
            }
        }
        t0.elapsed().as_secs_f64()
    };
    // Stable mode skips the sweep entirely: its numbers are wall-clock and
    // would churn the committed report. `cl-bench` carries the continuous
    // measurement as `overhead/race-off`.
    let (noise, recording_cost) = if stable {
        (0.0, 0.0)
    } else {
        let off = Context::new_with(device, ContextConfig::default());
        let off_a = sweep(&off);
        let off_b = sweep(&off);
        let on = sweep(&ctx);
        let base = off_a.min(off_b);
        ((off_a - off_b).abs() / base, on / base - 1.0)
    };

    // ------ Reports ------
    fs::create_dir_all(&out_dir).expect("create output directory");
    let md = render_md(&clean, chain_proven, &seeded, noise, recording_cost, stable);
    fs::write(out_dir.join("flow.md"), md).expect("write flow.md");
    fs::write(out_dir.join("flow.csv"), render_csv(&clean, &seeded)).expect("write flow.csv");

    let caught = seeded.iter().filter(|s| s.caught).count();
    println!(
        "cl-flow: {} clean replays ({} violations), Figure 9 RAW {}, \
         seeded faults caught {caught}/{}; disabled-path noise {:.2}%, \
         recording cost {:+.2}% → {}",
        clean.len(),
        clean.iter().map(Scenario::errors).sum::<usize>(),
        if chain_proven { "proven" } else { "NOT PROVEN" },
        seeded.len(),
        noise * 100.0,
        recording_cost * 100.0,
        out_dir.join("flow.md").display(),
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

fn render_md(
    clean: &[Scenario],
    chain_proven: bool,
    seeded: &[Seeded],
    noise: f64,
    recording_cost: f64,
    stable: bool,
) -> String {
    let mut md = String::new();
    md.push_str("# Command-stream analysis (`cl-flow`)\n\n");
    md.push_str(
        "Each scenario replays on its own recording queue; the recorded \
         stream is analyzed offline into a dependence DAG (RAW/WAR/WAW \
         edges with three-valued verdicts from the kernels' static \
         footprints) plus five inter-command lints.\n",
    );

    md.push_str("\n## Clean replays\n\n");
    md.push_str(
        "| Scenario | Commands | Edges | Proven | Independent pairs | Errors | Warnings |\n",
    );
    md.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
    for s in clean {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} |",
            s.name,
            s.commands.len(),
            s.analysis.edges.len(),
            s.proven_edges(),
            s.analysis.independent_pairs,
            s.errors(),
            s.warnings(),
        );
    }
    let _ = writeln!(
        md,
        "\nFigure 9 chain: the `vectoadd → square` RAW dependence on the \
         intermediate buffer is **{}**.\n",
        if chain_proven { "proven" } else { "NOT proven" }
    );

    for s in clean {
        let _ = writeln!(md, "### {}\n", s.name);
        md.push_str("| # | Command | Dependence edges out |\n|---:|---|---|\n");
        for (i, c) in s.commands.iter().enumerate() {
            let outs: Vec<String> = s
                .analysis
                .edges
                .iter()
                .filter(|e| e.from == i)
                .map(|e| {
                    format!(
                        "{} → #{} on `{}` ({})",
                        e.kind.as_str(),
                        e.to,
                        e.buffer_name,
                        verdict_str(e.verdict)
                    )
                })
                .collect();
            let _ = writeln!(
                md,
                "| {i} | {} | {} |",
                c.label,
                if outs.is_empty() {
                    "—".to_string()
                } else {
                    outs.join("; ")
                }
            );
        }
        md.push('\n');
    }

    md.push_str("## Seeded faults\n\n");
    md.push_str(
        "Each round seeds one violation into an otherwise-clean stream; \
         all must be caught (in the replay analysis, or — for the flag \
         contract in debug builds — at the enqueue gate).\n\n",
    );
    md.push_str("| Fault | Caught | How | Findings in replay |\n|---|---|---|---|\n");
    for s in seeded {
        let findings: Vec<String> = s
            .analysis
            .findings
            .iter()
            .filter(|f| f.kind == s.kind)
            .map(|f| f.message.clone())
            .collect();
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} |",
            s.kind.as_str(),
            if s.caught { "yes" } else { "**NO**" },
            s.how,
            if findings.is_empty() {
                "—".to_string()
            } else {
                findings.join("; ")
            }
        );
    }

    md.push_str("\n## Disabled-path overhead\n\n");
    if stable {
        md.push_str(
            "Skipped in stable mode: the sweep's numbers are wall-clock and \
             would churn this committed report. The continuous measurement \
             lives in `cl-bench` as `overhead/race-off`, gated against the \
             parent revision by `cl-bench --pair`. With recording off the \
             context holds no `RaceLog`, launch bindings are never queried, \
             and every record site is one skipped `Option` branch.\n",
        );
    } else {
        let _ = writeln!(
            md,
            "A 12-launch square coalescing sweep, run twice with recording \
             disabled and once enabled: run-to-run noise {:.2}%, recording run \
             {:+.2}% vs the faster disabled run. With recording off the \
             context holds no `RaceLog`, launch bindings are never queried, \
             and every record site is one skipped `Option` branch.",
            noise * 100.0,
            recording_cost * 100.0,
        );
    }
    md
}

fn render_csv(clean: &[Scenario], seeded: &[Seeded]) -> String {
    let mut csv = String::from(
        "section,name,commands,edges,proven_edges,independent_pairs,errors,warnings,caught\n",
    );
    for s in clean {
        csv.push_str(&cl_util::csv::row([
            "clean".to_string(),
            s.name.to_string(),
            s.commands.len().to_string(),
            s.analysis.edges.len().to_string(),
            s.proven_edges().to_string(),
            s.analysis.independent_pairs.to_string(),
            s.errors().to_string(),
            s.warnings().to_string(),
            String::new(),
        ]));
    }
    for s in seeded {
        csv.push_str(&cl_util::csv::row([
            "seeded".to_string(),
            s.kind.as_str().to_string(),
            s.analysis.commands.to_string(),
            s.analysis.edges.len().to_string(),
            String::new(),
            String::new(),
            s.analysis
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .count()
                .to_string(),
            String::new(),
            s.caught.to_string(),
        ]));
    }
    csv
}
