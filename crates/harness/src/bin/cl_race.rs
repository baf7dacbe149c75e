//! `cl-race` — multi-queue happens-before race detector and
//! reorder-safety certifier harness.
//!
//! ```text
//! cl-race [--workers W] [--seed S] [--out DIR]
//!
//!   --workers W  pool workers of the device under test (default: min(4, cores))
//!   --seed S     input seed for the replayed kernels (default: 7)
//!   --out DIR    output directory for race.md / race.csv (default: results)
//! ```
//!
//! Four clean multi-queue scenarios run on race-recording contexts
//! ([`ocl_rt::ContextConfig::race_recording`]); the recorded streams are
//! analyzed into happens-before graphs and every cross-queue conflicting
//! pair must come back `proven-ordered` — any `RACY` verdict in a clean
//! scenario is a false positive and exits nonzero:
//!
//! 1. **producer→consumer** — two queues on two real threads, handing the
//!    intermediate buffer across a channel after `finish`;
//! 2. **four-queue tiles** — four threads each filling a disjoint tile of
//!    ONE shared buffer, per-queue `finish`, then a fifth queue reads;
//! 3. **tiled pipeline** — queue A blocking-writes input tiles while
//!    queue B squares each tile; the trailing `finish` is redundant and
//!    the over-sync certifier must prove it removable;
//! 4. **Figure 9 chain** — `write a`, `write b`, `vectoradd`, `finish` on
//!    queue A; `square`, `read` on queue B. The two blocking writes'
//!    host-sync edges are redundant (program order carries their
//!    conflicts), so the proven reorder-opportunity set must be nonempty.
//!
//! Then six seeded cross-queue races — RAW/WAW/WAR with no sync, a host
//! map racing a device write, a `finish` on the wrong queue, a marker
//! standing in for real sync — each of which must be caught by BOTH
//! layers: the static classifier (a `RACY` pair) and the dynamic
//! vector-clock replay. A missed race exits nonzero, as does any
//! static/dynamic disagreement anywhere in the run.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;

use cl_analyze::hb::{HbAnalysis, HbLintKind, OrderVerdict, VcReport};
use cl_harness::parse_flag;
use cl_kernels::apps::square::Square;
use cl_kernels::apps::vectoradd::VectorAdd;
use cl_kernels::race::{TileFill, TileSquare};
use cl_kernels::util::random_f32;
use ocl_rt::{Context, ContextConfig, Device, MemFlags, NDRange};

const N: usize = 1024;
const TILES: usize = 4;

fn race_ctx(workers: usize) -> Context {
    Context::new_with(
        Device::native_cpu(workers).expect("race device"),
        ContextConfig::default().race_recording(true),
    )
}

fn square(input: &ocl_rt::Buffer<f32>, output: &ocl_rt::Buffer<f32>) -> Square {
    Square {
        input: input.clone(),
        output: output.clone(),
        n: N,
        items_per_wi: 1,
    }
}

/// One clean scenario: its analysis, the dynamic layer's verdict, and the
/// scenario-specific obligations that must hold.
struct Scenario {
    name: &'static str,
    analysis: HbAnalysis,
    vc: VcReport,
    /// Scenario-specific failed obligations (empty = clean).
    problems: Vec<String>,
}

impl Scenario {
    fn new(name: &'static str, ctx: &Context) -> Self {
        let (analysis, vc) = ctx.race().expect("recording on").check();
        Scenario {
            name,
            analysis,
            vc,
            problems: Vec::new(),
        }
    }

    fn require(&mut self, ok: bool, msg: &str) {
        if !ok {
            self.problems.push(msg.to_string());
        }
    }

    /// The obligations every clean scenario shares: no racy pairs (false
    /// positives), no error findings, dynamic agreement, and — native
    /// device — a linearizable observed schedule.
    fn check_clean(&mut self) {
        let races: Vec<String> = self
            .analysis
            .races()
            .map(|p| format!("{} on {}", p.kind.as_str(), p.buffer_name))
            .collect();
        self.require(
            races.is_empty(),
            &format!("false positive: racy pairs {races:?}"),
        );
        let errors = self.analysis.errors().count();
        self.require(errors == 0, &format!("{errors} error findings"));
        self.require(
            self.vc.agrees(),
            &format!("static/dynamic disagreement: {:?}", self.vc.disagreements),
        );
        self.require(
            self.vc.races.is_empty(),
            &format!("dynamic races in clean scenario: {:?}", self.vc.races),
        );
        self.require(
            self.vc.linearization_failures.is_empty(),
            &format!(
                "observed schedule not linearizable: {:?}",
                self.vc.linearization_failures
            ),
        );
    }

    fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Scenario 1: two queues on two real threads. A produces `mid` and hands
/// it to B over a channel after `finish(qa)` — the finish is the
/// happens-before edge that makes B's consumption proven-ordered.
fn producer_consumer(workers: usize, seed: u64) -> Scenario {
    let ctx = race_ctx(workers);
    let qa = ctx.queue();
    let qb = ctx.queue();
    let host = random_f32(seed, N, -2.0, 2.0);
    let input = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("in");
    let mid = ctx.buffer::<f32>(MemFlags::default(), N).expect("mid");
    let out = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("out");
    let (tx, rx) = mpsc::channel::<()>();
    thread::scope(|s| {
        let (producer_in, producer_mid) = (input.clone(), mid.clone());
        let href = &host;
        s.spawn(move || {
            qa.write_buffer(&producer_in, 0, href).expect("write");
            qa.run(square(&producer_in, &producer_mid), NDRange::d1(N))
                .expect("produce");
            qa.finish().expect("queue drains");
            tx.send(()).expect("handoff");
        });
        let (consumer_mid, consumer_out) = (mid.clone(), out.clone());
        s.spawn(move || {
            rx.recv().expect("handoff");
            qb.run(square(&consumer_mid, &consumer_out), NDRange::d1(N))
                .expect("consume");
            let mut back = vec![0.0f32; N];
            qb.read_buffer(&consumer_out, 0, &mut back).expect("read");
            assert!(
                back.iter().zip(href).all(|(&y, &x)| y == (x * x) * (x * x)),
                "producer-consumer results"
            );
        });
    });
    let mut sc = Scenario::new("producer→consumer (2 queues, 2 threads)", &ctx);
    sc.check_clean();
    sc.require(
        sc.analysis.count(OrderVerdict::ProvenOrdered) >= 1,
        "no proven-ordered cross-queue pair on the handoff buffer",
    );
    sc
}

/// Scenario 2: four threads, four queues, ONE shared buffer — each fills
/// its own tile (footprints prove disjointness), per-queue `finish`, then
/// a fifth queue reads the whole buffer.
fn four_queue_tiles(workers: usize) -> Scenario {
    let ctx = race_ctx(workers);
    let queues: Vec<_> = (0..TILES).map(|_| ctx.queue()).collect();
    let reader = ctx.queue();
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let len = N / TILES;
    thread::scope(|s| {
        for (t, q) in queues.into_iter().enumerate() {
            let tile = buf.clone();
            s.spawn(move || {
                q.run(
                    TileFill {
                        out: tile,
                        base: t * len,
                        len,
                        value: (t + 1) as f32,
                    },
                    NDRange::d1(len),
                )
                .expect("fill");
                q.finish().expect("queue drains");
            });
        }
    });
    let mut back = vec![0.0f32; N];
    reader.read_buffer(&buf, 0, &mut back).expect("read");
    for (i, &x) in back.iter().enumerate() {
        assert_eq!(x, (i / len + 1) as f32, "tile element {i}");
    }
    let mut sc = Scenario::new("four-queue disjoint tiles, one buffer", &ctx);
    sc.check_clean();
    sc.require(
        sc.analysis.count(OrderVerdict::ProvenOrdered) == TILES,
        "each tile fill must be proven ordered before the read",
    );
    sc
}

/// Scenario 3: tiled pipeline — A blocking-writes input tiles, B squares
/// each tile as it lands. The trailing `finish(qa)` syncs nothing the
/// blocking writes didn't already: the certifier must prove it removable.
fn tiled_pipeline(workers: usize, seed: u64) -> Scenario {
    let ctx = race_ctx(workers);
    let qa = ctx.queue();
    let qb = ctx.queue();
    let host = random_f32(seed ^ 0x7117, N, -3.0, 3.0);
    let input = ctx.buffer::<f32>(MemFlags::default(), N).expect("in");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    let len = N / TILES;
    for t in 0..TILES {
        qa.write_buffer(&input, t * len, &host[t * len..(t + 1) * len])
            .expect("write tile");
        qb.run(
            TileSquare {
                input: input.clone(),
                output: out.clone(),
                base: t * len,
                len,
            },
            NDRange::d1(len),
        )
        .expect("square tile");
    }
    qa.finish().expect("queue drains"); // redundant: every write already published (blocking)
    let mut back = vec![0.0f32; N];
    qb.read_buffer(&out, 0, &mut back).expect("read");
    assert!(
        back.iter().zip(&host).all(|(&y, &x)| y == x * x),
        "pipeline results"
    );
    let mut sc = Scenario::new("tiled pipeline (blocking writes feed queue B)", &ctx);
    sc.check_clean();
    sc.require(
        sc.analysis.count(OrderVerdict::ProvenOrdered) >= TILES,
        "each tile's RAW handoff must be proven ordered",
    );
    let finish_removable = sc
        .analysis
        .removable_syncs()
        .any(|sp| sp.desc.starts_with("finish"));
    sc.require(
        finish_removable,
        "trailing finish not proven removable despite blocking writes",
    );
    sc
}

/// Scenario 4: the Figure 9 producer→consumer chain split across two
/// queues. The reorder-opportunity set must be nonempty: the blocking
/// writes' host-sync edges are redundant (program order carries their
/// conflicts into the vectoradd), only the `finish` is load-bearing.
fn fig9_chain(workers: usize, seed: u64) -> Scenario {
    let ctx = race_ctx(workers);
    let qa = ctx.queue();
    let qb = ctx.queue();
    let ha = random_f32(seed, N, -3.0, 3.0);
    let hb = random_f32(seed ^ 0xABCD, N, -3.0, 3.0);
    let a = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("a");
    let b = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).expect("b");
    let c = ctx.buffer::<f32>(MemFlags::default(), N).expect("c");
    let d = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).expect("d");
    qa.write_buffer(&a, 0, &ha).expect("write a");
    qa.write_buffer(&b, 0, &hb).expect("write b");
    qa.run(
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
    qa.finish().expect("queue drains");
    qb.run(square(&c, &d), NDRange::d1(N)).expect("square");
    let mut back = vec![0.0f32; N];
    qb.read_buffer(&d, 0, &mut back).expect("read");
    assert!(
        back.iter()
            .zip(ha.iter().zip(&hb))
            .all(|(&y, (&x1, &x2))| y == (x1 + x2) * (x1 + x2)),
        "fig9 results"
    );
    let mut sc = Scenario::new("Figure 9 chain across two queues", &ctx);
    sc.check_clean();
    let removable = sc.analysis.removable_syncs().count();
    sc.require(
        removable >= 2,
        &format!("reorder-opportunity set too small: {removable} removable syncs (want ≥2)"),
    );
    let finish_removable = sc
        .analysis
        .removable_syncs()
        .any(|sp| sp.desc.starts_with("finish"));
    sc.require(
        !finish_removable,
        "the load-bearing finish was wrongly proven removable",
    );
    sc.require(
        sc.analysis.parallelism() > 1.0,
        "critical-path bound claims no parallelism in the chain",
    );
    sc
}

/// One seeded cross-queue race and which layers caught it.
struct Seeded {
    name: &'static str,
    static_caught: bool,
    vc_caught: bool,
    agree: bool,
    sample: String,
}

impl Seeded {
    fn caught(&self) -> bool {
        self.static_caught && self.vc_caught && self.agree
    }
}

/// Judge a seeded scenario: the static layer must produce a `RACY` pair of
/// `kind`, the vector clocks must independently call some conflicting pair
/// concurrent, and the two layers must not contradict each other.
fn judge(name: &'static str, ctx: &Context, kind: HbLintKind) -> Seeded {
    let (analysis, vc) = ctx.race().expect("recording on").check();
    let static_caught = analysis.has_races() && analysis.findings.iter().any(|f| f.kind == kind);
    let sample = analysis
        .findings
        .iter()
        .find(|f| f.kind == kind)
        .map(|f| f.message.clone())
        .unwrap_or_else(|| "MISSED".into());
    Seeded {
        name,
        static_caught,
        vc_caught: !vc.races.is_empty(),
        agree: vc.agrees(),
        sample,
    }
}

fn fill(buf: &ocl_rt::Buffer<f32>, base: usize, len: usize, value: f32) -> TileFill {
    TileFill {
        out: buf.clone(),
        base,
        len,
        value,
    }
}

fn tsq(
    input: &ocl_rt::Buffer<f32>,
    output: &ocl_rt::Buffer<f32>,
    base: usize,
    len: usize,
) -> TileSquare {
    TileSquare {
        input: input.clone(),
        output: output.clone(),
        base,
        len,
    }
}

/// RAW with no sync: A writes the buffer, B reads it, nothing orders them.
fn seed_raw_no_sync(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    qa.run(fill(&buf, 0, N, 1.0), NDRange::d1(N)).expect("fill");
    qb.run(tsq(&buf, &out, 0, N), NDRange::d1(N)).expect("sq");
    judge("RAW, no sync", &ctx, HbLintKind::CrossQueueRace)
}

/// WAW on overlapping tiles: two queues write windows that must overlap.
fn seed_waw_overlap(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    qa.run(fill(&buf, 0, N, 1.0), NDRange::d1(N)).expect("a");
    qb.run(fill(&buf, N / 4, N / 4, 2.0), NDRange::d1(N / 4))
        .expect("b");
    judge("WAW, overlapping tiles", &ctx, HbLintKind::CrossQueueRace)
}

/// WAR with no sync: A reads the buffer while B overwrites it.
fn seed_war_no_sync(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    qa.run(tsq(&buf, &out, 0, N), NDRange::d1(N)).expect("sq");
    qb.run(fill(&buf, 0, N, 3.0), NDRange::d1(N)).expect("fill");
    judge("WAR, no sync", &ctx, HbLintKind::CrossQueueRace)
}

/// Host map on B races a device write on A: the unsynchronized-host lint.
fn seed_host_map_race(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    qa.run(fill(&buf, 0, N, 4.0), NDRange::d1(N)).expect("fill");
    {
        let (_m, _) = qb.map_buffer(&buf).expect("map");
    }
    judge(
        "host map vs device write",
        &ctx,
        HbLintKind::UnsyncedHostAccess,
    )
}

/// `finish` on the WRONG queue: syncs nothing between the conflicting pair.
fn seed_wrong_queue_finish(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    qa.run(fill(&buf, 0, N, 5.0), NDRange::d1(N)).expect("fill");
    qb.finish().expect("queue drains"); // wrong queue: orders nothing already enqueued on qa
    qb.run(tsq(&buf, &out, 0, N), NDRange::d1(N)).expect("sq");
    judge("finish on wrong queue", &ctx, HbLintKind::CrossQueueRace)
}

/// A marker standing in for real sync: markers order nothing across
/// in-order queues.
fn seed_marker_no_sync(workers: usize) -> Seeded {
    let ctx = race_ctx(workers);
    let (qa, qb) = (ctx.queue(), ctx.queue());
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    qa.run(fill(&buf, 0, N, 6.0), NDRange::d1(N)).expect("fill");
    qa.marker(); // a marker is not a cross-queue sync
    qb.run(tsq(&buf, &out, 0, N), NDRange::d1(N)).expect("sq");
    judge("marker instead of sync", &ctx, HbLintKind::CrossQueueRace)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workers = usize::min(4, cl_pool::available_cores().max(1));
    let mut seed = 7u64;
    let mut out_dir = PathBuf::from("results");
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
            "--help" | "-h" => {
                println!("usage: cl-race [--workers W] [--seed S] [--out DIR]");
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

    // ------ Clean scenarios ------
    let mut failures = 0usize;
    let clean = [
        producer_consumer(workers, seed),
        four_queue_tiles(workers),
        tiled_pipeline(workers, seed),
        fig9_chain(workers, seed),
    ];
    for sc in &clean {
        for p in &sc.problems {
            eprintln!("cl-race: FAILED: clean scenario '{}': {p}", sc.name);
            failures += 1;
        }
    }

    // ------ Seeded races ------
    // Debug builds would reject these at the enqueue-time cross-queue gate
    // before anything is recorded; skip the gate so the offline layers are
    // what's under test (release CI compiles the gate out anyway). The
    // gate itself is covered by the runtime's unit tests.
    std::env::set_var("CL_SKIP_STATIC_CHECK", "1");
    let seeded = [
        seed_raw_no_sync(workers),
        seed_waw_overlap(workers),
        seed_war_no_sync(workers),
        seed_host_map_race(workers),
        seed_wrong_queue_finish(workers),
        seed_marker_no_sync(workers),
    ];
    std::env::remove_var("CL_SKIP_STATIC_CHECK");
    for s in &seeded {
        if !s.caught() {
            eprintln!(
                "cl-race: FAILED: seeded race '{}' missed (static {}, vector-clock {}, agree {})",
                s.name, s.static_caught, s.vc_caught, s.agree
            );
            failures += 1;
        }
    }

    // ------ Reports ------
    fs::create_dir_all(&out_dir).expect("create output directory");
    fs::write(out_dir.join("race.md"), render_md(&clean, &seeded)).expect("write race.md");
    fs::write(out_dir.join("race.csv"), render_csv(&clean, &seeded)).expect("write race.csv");

    let caught = seeded.iter().filter(|s| s.caught()).count();
    println!(
        "cl-race: {} clean scenarios ({} problems), seeded races caught {caught}/{} \
         by both layers; Fig 9 removable syncs: {} → {}",
        clean.len(),
        clean.iter().map(|s| s.problems.len()).sum::<usize>(),
        seeded.len(),
        clean[3].analysis.removable_syncs().count(),
        out_dir.join("race.md").display(),
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

fn render_md(clean: &[Scenario], seeded: &[Seeded]) -> String {
    let mut md = String::new();
    md.push_str("# Cross-queue race analysis (`cl-race`)\n\n");
    md.push_str(
        "Each scenario runs on a race-recording context; the aggregated \
         multi-queue stream is analyzed into a happens-before graph \
         (program order per in-order queue + sync edges from finish, \
         blocking transfers, and map/unmap), every cross-queue conflicting \
         pair is classified, and a dynamic vector-clock replay of the \
         observed schedule must agree with the static verdicts.\n",
    );

    md.push_str("\n## Clean multi-queue scenarios\n\n");
    md.push_str(
        "| Scenario | Queues | Commands | Pairs | Proven | Unknown | Racy | \
         Removable syncs | Critical path | Parallelism | Dynamic agrees |\n",
    );
    md.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n");
    for sc in clean {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} | {} |",
            sc.name,
            sc.analysis.queues.len(),
            sc.analysis.commands.len(),
            sc.analysis.pairs.len(),
            sc.analysis.count(OrderVerdict::ProvenOrdered),
            sc.analysis.count(OrderVerdict::Unknown),
            sc.analysis.count(OrderVerdict::Racy),
            sc.analysis.removable_syncs().count(),
            sc.analysis.critical_path,
            sc.analysis.parallelism(),
            if sc.vc.agrees() { "yes" } else { "**NO**" },
        );
    }

    md.push_str("\n### Reorder opportunities (over-sync certifier)\n\n");
    md.push_str(
        "Sync points whose removal is *proven* to keep every ordered \
         cross-queue conflict ordered — the schedule slack an out-of-order \
         scheduler could reclaim:\n\n",
    );
    md.push_str("| Scenario | Sync point | Removable |\n|---|---|---|\n");
    for sc in clean {
        // Record order interleaves arbitrarily across the threaded
        // scenarios' queues; sort by (queue, record) so the committed
        // report is schedule-independent.
        let mut points: Vec<_> = sc.analysis.sync_points.iter().collect();
        points.sort_by_key(|sp| (sp.queue, sp.record));
        for sp in points {
            let _ = writeln!(
                md,
                "| {} | {} | {} |",
                sc.name,
                sp.desc,
                if sp.removable {
                    "**yes**"
                } else {
                    "no (load-bearing)"
                }
            );
        }
    }
    md.push_str("\nPer-queue parallelism bounds (commands / critical path):\n\n");
    md.push_str(
        "| Scenario | Queue | Commands | Critical path | Bound |\n|---|---:|---:|---:|---:|\n",
    );
    for sc in clean {
        let mut queues: Vec<_> = sc.analysis.queues.iter().collect();
        queues.sort_by_key(|q| q.queue);
        for q in queues {
            let _ = writeln!(
                md,
                "| {} | q{} | {} | {} | {:.2} |",
                sc.name,
                q.queue,
                q.commands,
                q.critical_path,
                q.parallelism()
            );
        }
    }

    md.push_str("\n## Seeded cross-queue races\n\n");
    md.push_str(
        "Each round seeds one race into a two-queue stream; BOTH layers \
         must catch it — the static classifier with a `RACY` pair and the \
         vector-clock replay with a concurrent conflicting pair — and the \
         layers must not contradict each other.\n\n",
    );
    md.push_str("| Race | Static | Vector clocks | Agree | Finding |\n|---|---|---|---|---|\n");
    for s in seeded {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} |",
            s.name,
            if s.static_caught {
                "caught"
            } else {
                "**MISSED**"
            },
            if s.vc_caught { "caught" } else { "**MISSED**" },
            if s.agree { "yes" } else { "**NO**" },
            s.sample.replace('|', "\\|"),
        );
    }
    md
}

fn render_csv(clean: &[Scenario], seeded: &[Seeded]) -> String {
    let mut csv = String::from(
        "section,name,queues,commands,pairs,proven,unknown,racy,removable_syncs,\
         critical_path,parallelism,static_caught,vc_caught,agree\n",
    );
    for sc in clean {
        csv.push_str(&cl_util::csv::row([
            "clean".to_string(),
            sc.name.to_string(),
            sc.analysis.queues.len().to_string(),
            sc.analysis.commands.len().to_string(),
            sc.analysis.pairs.len().to_string(),
            sc.analysis.count(OrderVerdict::ProvenOrdered).to_string(),
            sc.analysis.count(OrderVerdict::Unknown).to_string(),
            sc.analysis.count(OrderVerdict::Racy).to_string(),
            sc.analysis.removable_syncs().count().to_string(),
            sc.analysis.critical_path.to_string(),
            format!("{:.2}", sc.analysis.parallelism()),
            String::new(),
            String::new(),
            sc.ok().to_string(),
        ]));
    }
    for s in seeded {
        csv.push_str(&cl_util::csv::row([
            "seeded".to_string(),
            s.name.to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            s.static_caught.to_string(),
            s.vc_caught.to_string(),
            s.agree.to_string(),
        ]));
    }
    csv
}
