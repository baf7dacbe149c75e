//! The ladder: the fixed cost of empty work at each layer, back to back
//! (`.hot_us`) and after the think gap that lets workers park (`.cold_us`).

use std::sync::Arc;
use std::time::Duration;

use cl_serve::{ServeConfig, Server, TenantConfig};
use ocl_rt::{Context, ContextConfig, Device, Kernel, NDRange, QueueConfig};
use par_for::{Schedule, Team};

use crate::closed::{spin, timed};
use crate::fixtures::Empty;
use crate::kernel_loop::THINK;
use crate::outcome::Outcome;
use crate::stats::median;

const HOT: usize = 200;
const COLD: usize = 40;
const WAIT: Option<Duration> = Some(Duration::from_secs(10));

/// One rung: a call into a layer with empty work.
type Rung<'a> = dyn FnMut() -> Result<(), String> + 'a;

/// Empty-work launch geometry with `groups` workgroups of 64 items.
fn empty_range(groups: usize) -> NDRange {
    NDRange::d1(64 * groups).local1(64)
}

/// Run every rung on `device` (the workload's own device, so the rungs
/// price the pool the jobs run on) and record its medians.
pub fn run(device: &Device, out: &mut Outcome) {
    let workers = device.pool().workers();
    let pool = Arc::clone(device.pool());
    let team = Team::with_pool(Arc::clone(&pool));
    let ctx = Context::new_with(device.clone(), ContextConfig::default());
    let q = ctx.queue_with(QueueConfig::default());
    let ooo = ctx.queue_with(QueueConfig::default().out_of_order(true));
    let server = Server::with_device(device.clone(), ServeConfig::default());
    let tenant = server.tenant(TenantConfig::default().name("ladder"));
    let empty: Arc<dyn Kernel> = Arc::new(Empty);
    let mut lanes = vec![0usize; workers];
    let err = |e: ocl_rt::ClError| e.to_string();

    let mut rungs: Vec<(&str, Box<Rung<'_>>)> = vec![
        (
            "pool",
            Box::new(|| {
                pool.run_indexed(workers, 1, |i| {
                    std::hint::black_box(i);
                });
                Ok(())
            }),
        ),
        (
            "parfor",
            Box::new(|| {
                team.parallel_for_mut(&mut lanes, Schedule::Static { chunk: None }, |i, x| *x = i);
                std::hint::black_box(&lanes);
                Ok(())
            }),
        ),
        (
            "enqueue_1g",
            Box::new(|| {
                q.enqueue_kernel(&empty, empty_range(1))
                    .map(drop)
                    .map_err(err)
            }),
        ),
        (
            "enqueue_64g",
            Box::new(|| {
                q.enqueue_kernel(&empty, empty_range(64))
                    .map(drop)
                    .map_err(err)
            }),
        ),
        (
            "serve",
            Box::new(|| tenant.launch(&empty, empty_range(1)).map(drop).map_err(err)),
        ),
        (
            "ooo",
            Box::new(|| {
                ooo.submit_kernel(&empty, empty_range(1), &[])
                    .and_then(|e| e.wait(WAIT))
                    .map(drop)
                    .map_err(err)
            }),
        ),
    ];
    for (name, f) in rungs.iter_mut() {
        let mut hot = Vec::with_capacity(HOT);
        let mut cold = Vec::with_capacity(COLD);
        // Warm-up: plan caches, first wakes.
        for _ in 0..10 {
            out.op(f());
        }
        for _ in 0..HOT {
            let (r, ns) = timed(&mut *f);
            if out.op(r) {
                hot.push(ns as f64 / 1e3);
            }
        }
        for _ in 0..COLD {
            spin(THINK);
            let (r, ns) = timed(&mut *f);
            if out.op(r) {
                cold.push(ns as f64 / 1e3);
            }
        }
        out.values
            .insert(format!("ladder.{name}.hot_us"), median(&hot));
        out.values
            .insert(format!("ladder.{name}.cold_us"), median(&cold));
    }
    drop(rungs);
    if let Err(e) = ooo.finish() {
        out.op(Err(format!("ladder: {e}")));
    }
}
