//! `sim_paper512`: the paper-scale timing simulator. Each call is
//! `Session::run(RunSpec::batch(16))` on a fresh session, because a
//! session caches its report per batch size.
//!
//! Timed calls run at the platform's default thread budget, `Serial`. On a
//! shared two-CPU host the sharded simulator's per-window barriers stall
//! whenever the hypervisor takes either CPU: threaded calls ranged
//! 0.6–2.3 s within minutes while serial ones stayed at 0.33–0.38 s, too
//! wide for any regression bound. The threaded simulator still runs in
//! every run, as the correctness gate, and its speed is the traced run's
//! `parallel.sim_speedup`.

use crate::models;
use crate::stats::{fastest, median};
use crate::{more_setups, Ctx, Outcome, Res};
use aimc_platform::prelude::*;
use std::time::{Duration, Instant};

pub const BATCH: usize = 16;

/// Paper headline figures (Sec. VI) the modeled column is compared with.
pub const PAPER_TOPS: f64 = 20.2;
pub const PAPER_IMAGES_PER_S: f64 = 3303.0;

pub struct SimRun {
    pub outcome: Outcome,
    pub platform: Platform,
    /// The serial report every timed call reproduced.
    pub report: RunReport,
    /// Median wall time of the timed serial calls.
    pub serial_p50_s: f64,
    /// Wall time of the threaded gate call at `Threads(nproc)`.
    pub threaded_s: f64,
}

/// Sets up (platform build and mapping, median over [`more_setups`]), times
/// serial `Session::run` calls for `span`, then runs once at
/// `Threads(nproc)`.
///
/// Gate: every serial report `==` the threaded one.
pub fn run(ctx: &Ctx, span: Duration, parent: Option<u64>) -> Res<SimRun> {
    let t = ctx.tracer;
    let mut setups = Vec::new();
    let mut platform = None;
    while more_setups(&setups) {
        let t0 = Instant::now();
        let p = t.span("aimc_platform", "facade.build", parent, |_| {
            models::paper_platform(Parallelism::Serial)
        })?;
        setups.push(t0.elapsed().as_secs_f64());
        platform = Some(p);
    }
    let platform = platform.expect("at least one set-up");

    let run = |session: &mut Session, name| {
        t.span("runtime", name, parent, |_| {
            session.run(RunSpec::batch(BATCH)).cloned()
        })
    };
    // One untimed call first, so the heap's first growth is not charged
    // to the simulator.
    let first = run(&mut platform.session(), "session.run")?;
    let mut lat_s = Vec::new();
    let mut differing = 0u64;
    let start = Instant::now();
    while start.elapsed() < span || lat_s.is_empty() {
        let mut session = platform.session();
        let t0 = Instant::now();
        let report = run(&mut session, "session.run")?;
        lat_s.push(t0.elapsed().as_secs_f64());
        differing += u64::from(report != first);
    }

    let mut threaded = platform.session();
    threaded.set_parallelism(Parallelism::Threads(ctx.nproc));
    let t0 = Instant::now();
    let threaded_report = run(&mut threaded, "session.run.threaded")?;
    let threaded_s = t0.elapsed().as_secs_f64();
    // A threaded report unlike the serial one fails every call.
    let calls = lat_s.len() as u64 + 1;
    let wrong = if first == threaded_report {
        differing
    } else {
        calls
    };

    // The fastest call, as in `infer_offline`: the host's CPU speed
    // switches between two levels some 30 % apart (serial calls took
    // either ~240 ms or ~320 ms), and the median follows whichever held
    // longer in the run.
    let best_s = fastest(&lat_s).expect("at least one call");
    let p50_s = median(&lat_s).expect("at least one call");
    let mut outcome = Outcome {
        attempted: calls,
        failed: wrong,
        wrong,
        setup_s: median(&setups).expect("at least one set-up"),
        work_per_s: first.events as f64 / best_s,
        latency_ms: best_s * 1e3,
        ..Outcome::default()
    };
    outcome.note("sim_paper512.call_ms_p50", p50_s * 1e3, "ms");
    outcome.note(
        "sim_paper512.events_per_s_p50",
        first.events as f64 / p50_s,
        "1/s",
    );
    outcome.note("sim_paper512.events_per_call", first.events as f64, "count");
    outcome.note("sim_paper512.timed_calls", lat_s.len() as f64, "count");
    outcome.note("sim_paper512.threaded_call_ms", threaded_s * 1e3, "ms");
    Ok(SimRun {
        outcome,
        platform,
        report: first,
        serial_p50_s: p50_s,
        threaded_s,
    })
}
