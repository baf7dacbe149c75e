//! Property test: the static happens-before classifier and the dynamic
//! vector-clock layer must agree on randomly shuffled two-queue schedules,
//! on the native device and both modeled devices.
//!
//! Synced schedules (every cross-queue handoff bracketed by `finish`) must
//! produce zero racy pairs, an agreeing vector-clock replay, and — on the
//! native device, where timestamps are wall-clock — a linearizable
//! observed schedule. Unsynced schedules must be caught by BOTH layers on
//! every shuffle.

use cl_kernels::race::{TileFill, TileSquare};
use cl_util::XorShift;
use ocl_rt::{CommandQueue, Context, ContextConfig, Device, MemFlags, NDRange, QueueConfig};
use perf_model::{CpuSpec, GpuSpec};

const N: usize = 256;
const TILES: usize = 4;
const LEN: usize = N / TILES;

fn race_ctxs() -> Vec<(&'static str, Context)> {
    let cfg = || ContextConfig::default().race_recording(true);
    vec![
        (
            "native",
            Context::new_with(Device::native_cpu(2).unwrap(), cfg()),
        ),
        (
            "modeled-cpu",
            Context::new_with(Device::modeled_cpu(CpuSpec::xeon_e5645()), cfg()),
        ),
        (
            "modeled-gpu",
            Context::new_with(Device::modeled_gpu(GpuSpec::gtx580()), cfg()),
        ),
    ]
}

/// Two queues of `ctx` past the debug-build enqueue gates. Debug builds
/// would reject a racy enqueue at the cross-queue gate before anything is
/// recorded; the offline layers are what these tests exercise (the gate
/// has its own unit test in ocl-rt).
fn ungated_queues(ctx: &Context) -> (CommandQueue, CommandQueue) {
    let cfg = || QueueConfig::default().skip_static_check(true);
    (ctx.queue_with(cfg()), ctx.queue_with(cfg()))
}

fn shuffled(rng: &mut XorShift) -> Vec<usize> {
    let mut order: Vec<usize> = (0..TILES).collect();
    for i in (1..TILES).rev() {
        let j = (rng.next_u64() as usize) % (i + 1);
        order.swap(i, j);
    }
    order
}

fn fill(buf: &ocl_rt::Buffer<f32>, t: usize) -> TileFill {
    TileFill {
        out: buf.clone(),
        base: t * LEN,
        len: LEN,
        value: (t + 1) as f32,
    }
}

fn tile_square(input: &ocl_rt::Buffer<f32>, output: &ocl_rt::Buffer<f32>, t: usize) -> TileSquare {
    TileSquare {
        input: input.clone(),
        output: output.clone(),
        base: t * LEN,
        len: LEN,
    }
}

/// One properly synchronized shuffle: tiles filled by randomly chosen
/// queues, both queues finished, tiles squared by randomly chosen queues,
/// both queues finished, results read back.
fn synced_round(device: &str, ctx: &Context, rng: &mut XorShift) {
    let log = ctx.race().expect("recording on");
    log.clear();
    let qa = ctx.queue();
    let qb = ctx.queue();
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    for &t in &shuffled(rng) {
        let q = if rng.next_u64().is_multiple_of(2) {
            &qa
        } else {
            &qb
        };
        q.run(fill(&buf, t), NDRange::d1(LEN)).expect("fill");
    }
    qa.finish().unwrap();
    qb.finish().unwrap();
    for &t in &shuffled(rng) {
        let q = if rng.next_u64().is_multiple_of(2) {
            &qa
        } else {
            &qb
        };
        q.run(tile_square(&buf, &out, t), NDRange::d1(LEN))
            .expect("square");
    }
    qa.finish().unwrap();
    qb.finish().unwrap();
    let mut back = vec![0.0f32; N];
    qa.read_buffer(&out, 0, &mut back).expect("read");
    for (i, &x) in back.iter().enumerate() {
        let v = (i / LEN + 1) as f32;
        assert_eq!(x, v * v, "{device}: element {i}");
    }

    let (analysis, vc) = log.check();
    assert!(
        !analysis.has_races(),
        "{device}: false positive in synced schedule: {:?}",
        analysis.races().collect::<Vec<_>>()
    );
    assert_eq!(
        analysis.errors().count(),
        0,
        "{device}: error findings in synced schedule"
    );
    assert!(
        vc.agrees(),
        "{device}: static/dynamic disagreement: {:?}",
        vc.disagreements
    );
    assert!(
        vc.races.is_empty(),
        "{device}: dynamic races in synced schedule: {:?}",
        vc.races
    );
    if device == "native" {
        assert!(
            vc.linearization_failures.is_empty(),
            "{device}: synced schedule not linearizable: {:?}",
            vc.linearization_failures
        );
    }
}

/// One unsynchronized shuffle: fills on queue A, consuming squares on
/// queue B, no sync between them — every shuffle must be caught by both
/// layers, and the layers must agree while doing so.
fn racy_round(device: &str, ctx: &Context, rng: &mut XorShift) {
    let log = ctx.race().expect("recording on");
    log.clear();
    let (qa, qb) = ungated_queues(ctx);
    let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
    let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
    for &t in &shuffled(rng) {
        qa.run(fill(&buf, t), NDRange::d1(LEN)).expect("fill");
    }
    for &t in &shuffled(rng) {
        qb.run(tile_square(&buf, &out, t), NDRange::d1(LEN))
            .expect("square");
    }

    let (analysis, vc) = log.check();
    assert!(
        analysis.has_races(),
        "{device}: static layer missed the unsynced handoff"
    );
    assert!(
        !vc.races.is_empty(),
        "{device}: vector clocks missed the unsynced handoff"
    );
    assert!(
        vc.agrees(),
        "{device}: layers disagree on the racy schedule: {:?}",
        vc.disagreements
    );
}

#[test]
fn shuffled_synced_schedules_have_no_races_on_any_device() {
    for (device, ctx) in race_ctxs() {
        let mut rng = XorShift::seed_from_u64(0xC0FFEE ^ device.len() as u64);
        for _ in 0..5 {
            synced_round(device, &ctx, &mut rng);
        }
    }
}

#[test]
fn shuffled_racy_schedules_are_caught_by_both_layers_on_any_device() {
    for (device, ctx) in race_ctxs() {
        let mut rng = XorShift::seed_from_u64(0xBADCAFE ^ device.len() as u64);
        for _ in 0..5 {
            racy_round(device, &ctx, &mut rng);
        }
    }
}

/// Static proven-ordered verdicts are never contradicted by the clocks,
/// shuffle after shuffle, when the schedule mixes synced and racy
/// sections: the racy tile pair is caught, the synced pairs stay proven.
#[test]
fn mixed_schedule_keeps_proven_edges_while_catching_the_race() {
    for (device, ctx) in race_ctxs() {
        let log = ctx.race().expect("recording on");
        log.clear();
        let (qa, qb) = ungated_queues(&ctx);
        let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
        let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
        // Tile 0: properly handed off (fill, finish, square).
        qa.run(fill(&buf, 0), NDRange::d1(LEN)).expect("fill 0");
        qa.finish().unwrap();
        qb.run(tile_square(&buf, &out, 0), NDRange::d1(LEN))
            .expect("square 0");
        // Tile 1: unsynced cross-queue handoff — the seeded race.
        qa.run(fill(&buf, 1), NDRange::d1(LEN)).expect("fill 1");
        qb.run(tile_square(&buf, &out, 1), NDRange::d1(LEN))
            .expect("square 1");

        let (analysis, vc) = log.check();
        use cl_analyze::hb::OrderVerdict;
        assert!(
            analysis.count(OrderVerdict::ProvenOrdered) >= 1,
            "{device}: the synced tile lost its proven ordering"
        );
        assert!(
            analysis.has_races(),
            "{device}: the unsynced tile was missed"
        );
        assert!(!vc.races.is_empty(), "{device}: clocks missed the race");
        assert!(
            vc.agrees(),
            "{device}: disagreement on mixed schedule: {:?}",
            vc.disagreements
        );
    }
}

/// Regression: a legacy in-order stream auto-reordered by an out-of-order
/// queue must stay race-free under `cl-race`'s offline layers. The OOO
/// scheduler replaces program order with auto-inferred footprint edges;
/// those edges flow into the happens-before log via `ooo_waits`, so every
/// same-buffer conflict must still come out proven-ordered — zero Racy
/// pairs — and the vector clocks must agree, shuffle after shuffle, on
/// every device kind.
#[test]
fn ooo_auto_reordered_legacy_stream_stays_race_free() {
    for (device, ctx) in race_ctxs() {
        let mut rng = XorShift::seed_from_u64(0x5EED0_u64 ^ device.len() as u64);
        for round in 0..4 {
            let log = ctx.race().expect("recording on");
            log.clear();
            let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
            let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
            let out = ctx.buffer::<f32>(MemFlags::default(), N).expect("out");
            // The legacy stream: fill every tile, then square every tile,
            // in shuffled tile order with no explicit wait lists. The OOO
            // queue is free to run disjoint tiles concurrently but must
            // chain each tile's fill before its square.
            for &t in &shuffled(&mut rng) {
                q.run(fill(&buf, t), NDRange::d1(LEN)).expect("fill");
            }
            for &t in &shuffled(&mut rng) {
                q.run(tile_square(&buf, &out, t), NDRange::d1(LEN))
                    .expect("square");
            }
            q.finish().unwrap();
            let mut back = vec![0.0f32; N];
            q.read_buffer(&out, 0, &mut back).expect("read");
            for (i, &x) in back.iter().enumerate() {
                let v = (i / LEN + 1) as f32;
                assert_eq!(x, v * v, "{device} round {round}: element {i}");
            }

            let (analysis, vc) = log.check();
            assert!(
                !analysis.has_races(),
                "{device} round {round}: cl-race flagged the auto-reordered \
                 legacy stream: {:?}",
                analysis.races().collect::<Vec<_>>()
            );
            assert_eq!(
                analysis.errors().count(),
                0,
                "{device} round {round}: error findings on the OOO stream"
            );
            assert!(
                vc.agrees(),
                "{device} round {round}: static/dynamic disagreement: {:?}",
                vc.disagreements
            );
            assert!(
                vc.races.is_empty(),
                "{device} round {round}: dynamic races on the OOO stream: {:?}",
                vc.races
            );
        }
    }
}

/// Both layers must find no race on `log`'s stream.
fn assert_race_free(what: &str, log: &ocl_rt::RaceLog) {
    let (analysis, vc) = log.check();
    assert!(
        !analysis.has_races(),
        "{what}: static races: {:?}",
        analysis.races().collect::<Vec<_>>()
    );
    assert!(vc.agrees(), "{what}: disagreement: {:?}", vc.disagreements);
    assert!(vc.races.is_empty(), "{what}: dynamic races: {:?}", vc.races);
}

/// Regression: a blocking read on an out-of-order queue after a
/// conflicting kernel that has already completed. The scheduler holds
/// pending commands only, so the read's drain waits on nothing; the
/// ordering — the kernel completed before the read was issued — reaches
/// the log through the read's stamp, and neither layer may call it a race.
#[test]
fn ooo_read_after_completed_writer_is_race_free() {
    for (device, ctx) in race_ctxs() {
        let log = ctx.race().expect("recording on");
        log.clear();
        let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
        let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
        q.run(fill(&buf, 0), NDRange::d1(LEN)).expect("fill");
        let mut back = vec![0.0f32; N];
        q.read_buffer(&buf, 0, &mut back).expect("read");
        assert!(back[..LEN].iter().all(|&x| x == 1.0), "{device}: fill lost");
        assert_race_free(device, log);
    }
}

/// The same for a writable map: the host's write through the mapping,
/// recorded at the unmap, orders after the completed kernel through the
/// map's stamp and the unmap's wait on its map.
#[test]
fn ooo_map_after_completed_writer_is_race_free() {
    for (device, ctx) in race_ctxs() {
        let log = ctx.race().expect("recording on");
        log.clear();
        let q = ctx.queue_with(QueueConfig::default().out_of_order(true));
        let buf = ctx.buffer::<f32>(MemFlags::default(), N).expect("buf");
        q.run(fill(&buf, 0), NDRange::d1(LEN)).expect("fill");
        {
            let (mut m, _) = q.map_buffer_mut(&buf).expect("map");
            assert_eq!(m[0], 1.0, "{device}: fill lost");
            m[0] = 7.0;
        }
        assert_race_free(device, log);
    }
}
