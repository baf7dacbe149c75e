//! Static command DAG vs observed execution (DESIGN.md §11): on a traced
//! queue (`cl-trace`) of a recording context (`cl-flow`), the span log's
//! completion order must be a linearization of the static dependence
//! edges — on every device kind. Launch and transfer flow commands map
//! 1:1, in order, onto `Launch`/`Transfer` spans (the blocking queue
//! appends spans at completion, so span order *is* completion order), and
//! on the native device the wall-clock timestamps themselves must respect
//! every proven edge.

use cl_analyze::flow::{analyze_flow, FlowAnalysis, FlowCommand, FlowOp, HazardKind};
use cl_analyze::Verdict;
use cl_kernels::apps::square::Square;
use cl_kernels::apps::vectoradd::VectorAdd;
use integration_tests::all_ctxs;
use ocl_rt::{
    CommandQueue, Context, ContextConfig, MemFlags, NDRange, QueueConfig, Span, SpanKind,
};

const N: usize = 2048;

/// A recording context on `ctx`'s device and a traced queue of it.
fn recording_traced(ctx: &Context) -> (Context, CommandQueue) {
    let rctx = Context::new_with(
        ctx.device().clone(),
        ContextConfig::default().race_recording(true),
    );
    let q = rctx.queue_with(QueueConfig::default().tracing(true));
    (rctx, q)
}

/// `q`'s commands in the context's log, and their flow analysis.
fn recorded(ctx: &Context, q: &CommandQueue) -> (Vec<FlowCommand>, FlowAnalysis) {
    let cmds = ctx
        .race()
        .expect("recording context")
        .queue_commands(q.id());
    let analysis = analyze_flow(&cmds);
    (cmds, analysis)
}

/// The spans observable commands produce, in completion order.
fn command_spans(q: &CommandQueue) -> Vec<Span> {
    q.trace()
        .expect("tracing enabled")
        .spans()
        .into_iter()
        .filter(|s| matches!(s.kind, SpanKind::Launch | SpanKind::Transfer))
        .collect()
}

/// Check the 1:1, in-order correspondence between flow commands and spans,
/// then verify every dependence edge is linearized by the observed order.
/// `device` names the context for assertion messages; timestamps are only
/// meaningful on non-modeled devices.
fn check_linearization(
    device: &str,
    cmds: &[FlowCommand],
    analysis: &FlowAnalysis,
    spans: &[Span],
) {
    assert_eq!(
        spans.len(),
        cmds.len(),
        "{device}: every recorded command must produce exactly one span"
    );
    for (i, (c, s)) in cmds.iter().zip(spans).enumerate() {
        match &c.op {
            FlowOp::Launch { kernel, .. } => {
                assert_eq!(s.kind, SpanKind::Launch, "{device}: command {i}");
                assert_eq!(&s.label, kernel, "{device}: command {i}");
            }
            _ => assert_eq!(s.kind, SpanKind::Transfer, "{device}: command {i}"),
        }
    }
    for e in &analysis.edges {
        // Spans sit at the same indices as their commands, so an edge is
        // linearized iff its span positions are ordered.
        assert!(
            e.from < e.to,
            "{device}: {} edge on `{}` not linearized by completion order",
            e.kind.as_str(),
            e.buffer_name
        );
    }
    // Modeled devices report modeled (not wall-clock) durations, so the
    // timestamp check below only holds on the native device.
    if device == "native" {
        // Wall-clock check: the producer must fully complete before the
        // consumer starts, for every proven dependence.
        for e in analysis
            .edges
            .iter()
            .filter(|e| e.verdict == Verdict::Proven)
        {
            let from = &spans[e.from];
            let to = &spans[e.to];
            assert!(
                from.start_ns + from.dur_ns <= to.start_ns,
                "{device}: proven {} edge {} -> {} overlaps in time",
                e.kind.as_str(),
                e.from,
                e.to
            );
        }
    }
}

/// The Figure 9 chain on every device kind: write, write, produce,
/// consume, read — with the RAW dependence through the intermediate
/// buffer proven and linearized.
#[test]
fn chain_completion_order_linearizes_static_edges_on_every_device() {
    for (name, ctx) in all_ctxs() {
        let (ctx, q) = recording_traced(&ctx);
        let ha: Vec<f32> = (0..N).map(|i| i as f32 * 0.5 - 100.0).collect();
        let hb: Vec<f32> = (0..N).map(|i| 200.0 - i as f32).collect();
        let a = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).unwrap();
        let b = ctx.buffer::<f32>(MemFlags::READ_ONLY, N).unwrap();
        let c = ctx.buffer::<f32>(MemFlags::default(), N).unwrap();
        let d = ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).unwrap();
        q.write_buffer(&a, 0, &ha).unwrap();
        q.write_buffer(&b, 0, &hb).unwrap();
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
        .unwrap();
        q.run(
            Square {
                input: c,
                output: d.clone(),
                n: N,
                items_per_wi: 1,
            },
            NDRange::d1(N),
        )
        .unwrap();
        let mut back = vec![0.0f32; N];
        q.read_buffer(&d, 0, &mut back).unwrap();
        assert!(
            back.iter()
                .zip(ha.iter().zip(&hb))
                .all(|(&y, (&x1, &x2))| y == (x1 + x2) * (x1 + x2)),
            "{name}: chain results"
        );

        let (cmds, analysis) = recorded(&ctx, &q);
        assert!(
            !analysis.has_violations(),
            "{name}: {:?}",
            analysis.findings
        );
        // The producer→consumer RAW dependence through `c` is proven.
        assert!(
            analysis
                .edges_between(2, 3)
                .any(|e| e.kind == HazardKind::Raw && e.verdict == Verdict::Proven),
            "{name}: chain RAW not proven"
        );
        check_linearization(name, &cmds, &analysis, &command_spans(&q));
    }
}

/// Tiny deterministic RNG for the shuffled-interleave rounds.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Property rounds: three independent write → square → read chains,
/// interleaved in a seeded random order. Whatever the interleaving, the
/// analysis must keep edges within chains (cross-chain pairs share no
/// buffer), prove each chain's RAW pair, and the observed completion
/// order must linearize every edge.
#[test]
fn shuffled_independent_chains_stay_linearized_on_every_device() {
    for (name, ctx) in all_ctxs() {
        for seed in 1..=3u64 {
            let (ctx, q) = recording_traced(&ctx);
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let hosts: Vec<Vec<f32>> = (0..3)
                .map(|k| (0..N).map(|i| (i + k) as f32 * 0.25 - 50.0).collect())
                .collect();
            let chains: Vec<(ocl_rt::Buffer<f32>, ocl_rt::Buffer<f32>)> = (0..3)
                .map(|_| {
                    (
                        ctx.buffer::<f32>(MemFlags::READ_ONLY, N).unwrap(),
                        ctx.buffer::<f32>(MemFlags::WRITE_ONLY, N).unwrap(),
                    )
                })
                .collect();
            // Each chain runs [write, launch, read] in order; the chains
            // themselves interleave randomly.
            let mut next = [0usize; 3];
            let mut owner = Vec::new(); // command index -> chain
            let mut results = vec![vec![0.0f32; N]; 3];
            while next.iter().any(|&s| s < 3) {
                let ready: Vec<usize> = (0..3).filter(|&k| next[k] < 3).collect();
                let k = ready[(rng.next() % ready.len() as u64) as usize];
                let (input, output) = &chains[k];
                match next[k] {
                    0 => q.write_buffer(input, 0, &hosts[k]).unwrap(),
                    1 => q
                        .run(
                            Square {
                                input: input.clone(),
                                output: output.clone(),
                                n: N,
                                items_per_wi: 1,
                            },
                            NDRange::d1(N),
                        )
                        .unwrap(),
                    _ => q.read_buffer(output, 0, &mut results[k]).unwrap(),
                };
                owner.push(k);
                next[k] += 1;
            }
            for k in 0..3 {
                assert!(
                    results[k].iter().zip(&hosts[k]).all(|(&y, &x)| y == x * x),
                    "{name} seed {seed}: chain {k} results"
                );
            }

            let (cmds, analysis) = recorded(&ctx, &q);
            assert!(
                !analysis.has_violations(),
                "{name} seed {seed}: {:?}",
                analysis.findings
            );
            // Edges never cross chains, and each chain contributes its two
            // proven RAW links (write→launch on input, launch→read on out).
            let mut proven_raw = [0usize; 3];
            for e in &analysis.edges {
                assert_eq!(
                    owner[e.from], owner[e.to],
                    "{name} seed {seed}: edge crosses independent chains"
                );
                if e.kind == HazardKind::Raw && e.verdict == Verdict::Proven {
                    proven_raw[owner[e.from]] += 1;
                }
            }
            assert_eq!(
                proven_raw,
                [2, 2, 2],
                "{name} seed {seed}: each chain proves both RAW links"
            );
            check_linearization(name, &cmds, &analysis, &command_spans(&q));
        }
    }
}
