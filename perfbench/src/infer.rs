//! `infer_offline`: one caller, closed loop, repeated 16-image
//! `Session::infer` calls on ResNet-18/CIFAR-10 through the analog backend.
//!
//! Timed calls run at `Serial`. On a shared two-CPU host a call at
//! `Threads(2)` runs at full speed only while the hypervisor leaves both
//! CPUs to it, so its time follows the other tenants' load: ten-seed
//! quartile spreads of 0.16 to 0.28 of the median, against a few hundredths
//! for serial calls. The executor's speed at `Threads(nproc)` is the traced
//! run's `parallel.infer_speedup`.

use crate::models::{self, same_bits, TAG_CIFAR};
use crate::stats::{fastest, median, stream_rng, tail_percentile};
use crate::{Ctx, Outcome, Res, SETUP_REPS};
use aimc_platform::prelude::*;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCH: usize = 16;
const SHAPE: Shape = Shape::new(3, 32, 32);
const TAG_CHECK: u64 = 0xc4ec;

fn batch_images(seed: u64, batch: u64) -> Vec<Tensor> {
    (0..BATCH as u64)
        .map(|i| models::image(seed, TAG_CIFAR, batch * BATCH as u64 + i, SHAPE))
        .collect()
}

/// Sets up (platform build and crossbar programming), then times
/// `Session::infer` calls for `span`. `setup_s` is the median of
/// [`SETUP_REPS`] set-ups spread evenly over the run, between timed calls:
/// a set-up takes ~20 ms, so a burst of them would sample the host's speed
/// at one moment, while the host switches speed within seconds.
///
/// Gate: every image of the warm-up batch and one seeded image of each
/// timed batch must be bit-identical to the serial single-image path at
/// the same stream coordinate.
pub fn run(ctx: &Ctx, span: Duration, parent: Option<u64>) -> Res<Outcome> {
    let t = ctx.tracer;
    let backend = models::cifar_backend();
    let set_up = || -> Res<(f64, Session)> {
        let t0 = Instant::now();
        let platform = t.span("aimc_platform", "facade.build", parent, |_| {
            models::cifar_platform(Parallelism::Serial)
        })?;
        let mut s = platform.session();
        t.span("xbar", "session.program", parent, |_| s.program(&backend))?;
        Ok((t0.elapsed().as_secs_f64(), s))
    };
    let (first_setup_s, mut session) = set_up()?;
    let mut setups = vec![first_setup_s];

    // Warm-up batch 0 (not timed; fully checked below).
    let warm = session.infer(&batch_images(ctx.seed, 0), backend.clone())?;
    let mut checks: Vec<(u64, Tensor)> = warm
        .into_iter()
        .enumerate()
        .map(|(i, y)| (i as u64, y))
        .collect();

    let mut lat_s = Vec::new();
    let start = Instant::now();
    let mut batch = 1u64;
    while start.elapsed() < span || lat_s.is_empty() {
        let share = setups.len() as f64 / SETUP_REPS as f64;
        if share < 1.0 && start.elapsed() >= span.mul_f64(share) {
            setups.push(set_up()?.0);
        }
        let images = batch_images(ctx.seed, batch);
        let t0 = Instant::now();
        let mut out = t.span("dnn", "session.infer", parent, |_| {
            session.infer(&images, backend.clone())
        })?;
        lat_s.push(t0.elapsed().as_secs_f64());
        let pos = stream_rng(ctx.seed, TAG_CHECK, batch).gen_range(0..BATCH);
        checks.push((batch * BATCH as u64 + pos as u64, out.swap_remove(pos)));
        batch += 1;
    }

    while setups.len() < SETUP_REPS {
        setups.push(set_up()?.0);
    }

    let wrong_batches = t.span("harness", "gate.infer", parent, |_| {
        gate(&session, ctx.seed, &checks)
    })?;
    // The fastest call, not the median: this host's CPUs switch between
    // two speeds some 30 % apart for seconds at a time (serial calls took
    // either ~97 ms or ~165 ms), with the other tenants' load, so the
    // median follows whichever speed held longer. The fastest of ~200
    // calls runs at the host's full speed in nearly every run, and a slower
    // executor slows every call, the fastest included.
    let best_s = fastest(&lat_s).expect("at least one timed call");
    let images = batch * BATCH as u64;
    let mut o = Outcome {
        attempted: images,
        failed: wrong_batches * BATCH as u64,
        wrong: wrong_batches,
        setup_s: median(&setups).expect("at least one set-up"),
        work_per_s: BATCH as f64 / best_s,
        latency_ms: best_s * 1e3,
        ..Outcome::default()
    };
    o.note("infer_offline.timed_calls", lat_s.len() as f64, "count");
    let p50_s = median(&lat_s).expect("at least one timed call");
    o.note("infer_offline.call_ms_p50", p50_s * 1e3, "ms");
    let p90_s = tail_percentile(&lat_s, 0.9).unwrap_or(f64::NAN);
    o.note("infer_offline.call_ms_p90", p90_s * 1e3, "ms");
    o.note(
        "infer_offline.images_per_s_p50",
        BATCH as f64 / p50_s,
        "1/s",
    );
    o.note("infer_offline.checked_images", checks.len() as f64, "count");
    Ok(o)
}

/// Re-runs every checked image alone, serially, at its stream coordinate
/// on a second replica programmed from the same seed; returns how many
/// checked images differ in any bit.
fn gate(session: &Session, seed: u64, checks: &[(u64, Tensor)]) -> Res<u64> {
    let p = session.platform();
    let weights = p.weights().ok_or(Error::NoWeights)?;
    let Backend::Analog {
        seed: prog,
        xbar_cfg,
    } = models::cifar_backend()
    else {
        unreachable!("the CIFAR backend is analog");
    };
    let reference = AimcExecutor::try_program_shared_with(
        Arc::new(p.graph().clone()),
        Arc::new(weights.clone()),
        &xbar_cfg,
        prog,
        Parallelism::Serial,
    )?;
    let mut wrong = 0;
    for (coord, got) in checks {
        let x = models::image(seed, TAG_CIFAR, *coord, SHAPE);
        let want = reference.try_infer_batch_at(&[x], *coord, Parallelism::Serial)?;
        if !same_bits(&want[0], got) {
            wrong += 1;
        }
    }
    Ok(wrong)
}
