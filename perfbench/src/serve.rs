//! `serve_open`: open-loop single-image requests at three fixed rates into
//! a two-seat fleet — one in-process seat and one seat behind TCP on
//! loopback — serving the micro model.
//!
//! One generator thread drives each rate phase (see [`Generator`]).
//! Latency is measured from the request's *due* time, so a stalled
//! generator is charged to the requests it delayed.
//!
//! The compared figures are chosen to hold on a small shared host, where
//! the fleet's five threads compete for two vCPUs: `latency_ms` is the p50
//! of the quietest window at `low` ([`Phase::quietest_p50_ms`]), and
//! `work_per_s` the requests answered per second of CPU time at `high`
//! ([`Phase::per_cpu_s`]). Whole-phase percentiles and `max_ok_rate` are
//! printed for reading.

use crate::models::{self, TAG_MICRO};
use crate::stats::{self, arrival_schedule, median, tail_percentile, RatePhase};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Outcome, Res, SETUP_BUDGET_S, SETUP_REPS};
use aimc_platform::prelude::*;
use aimc_platform::serve::RoutePolicy;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Offered request rates (requests per second) of the three phases. Fixed
/// constants, never derived from a capacity measured at run time.
pub const RATES: [(&str, f64); 3] = [("low", 1000.0), ("mid", 6000.0), ("high", 28000.0)];
/// The p99 latency limit a rate must meet to count towards `max_ok_rate`.
pub const LIMIT_MS: f64 = 5.0;
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_micros(500);
const LEASE_LEN: u64 = 4;
/// Requests served closed-loop before each phase's clock starts (warm
/// connection and caches). They are checked like the rest but not timed;
/// the fleet's own queue-wait and batch statistics include them.
const WARMUP: u64 = 64;
const SHAPE: Shape = Shape::new(3, 4, 4);
/// Latency is summarised per window of this length.
pub const WINDOW: Duration = Duration::from_millis(100);
/// The generator's nap between sweeps that found nothing complete.
const POLL: Duration = Duration::from_micros(20);

fn policy() -> BatchPolicy {
    BatchPolicy::new(MAX_BATCH, MAX_WAIT)
}

struct Fleet {
    handle: FleetHandle,
    server: JoinHandle<std::io::Result<()>>,
}

impl Fleet {
    /// One local seat plus one TCP seat to an in-process `ShardServer`,
    /// round-robin in lease blocks of [`LEASE_LEN`].
    fn start(platform: &Platform) -> Res<Fleet> {
        let backend = models::micro_backend();
        let local = platform.local_shard(policy(), &backend)?;
        let server = platform.shard_server(policy(), &backend)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let server = thread::spawn(move || server.serve_next(&listener));
        let tcp = TcpTransport::connect(addr)?;
        let handle = platform.serve_fleet_with(
            vec![Box::new(local), Box::new(tcp)],
            FleetPolicy::new(RoutePolicy::RoundRobin).with_lease_len(LEASE_LEN),
        )?;
        Ok(Fleet { handle, server })
    }

    fn stop(self) -> Res<()> {
        self.handle.shutdown();
        self.server
            .join()
            .expect("shard server thread does not panic")?;
        Ok(())
    }
}

/// One rate phase's raw record.
pub struct Phase {
    pub name: &'static str,
    pub rate: RatePhase,
    /// Due time of each entry of `rate.latencies_ms`, in seconds from the
    /// phase start.
    pub due_s: Vec<f64>,
    /// CPU time the process used from the first request to the last answer.
    pub cpu_s: f64,
    pub attempted: u64,
    pub refused: u64,
    pub wrong: u64,
    pub stats: ServeStats,
    pub submit_us: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub poll_gap_us: Vec<f64>,
}

pub struct ServeRun {
    pub outcome: Outcome,
    pub phases: Vec<Phase>,
    pub fleet_setup_s: Vec<f64>,
}

impl Phase {
    /// The p50 latency of the phase's quietest [`WINDOW`]: the lowest of
    /// the per-window medians. A host stall or a stretch of slow host
    /// raises whole windows and is left out; a slower serving path raises
    /// every window.
    pub fn quietest_p50_ms(&self) -> f64 {
        let w = stats::window_medians(&self.due_s, &self.rate.latencies_ms, WINDOW.as_secs_f64());
        stats::quantile(&w, 0.0).unwrap_or(f64::NAN)
    }

    /// Requests answered per second of the process's CPU time.
    pub fn per_cpu_s(&self) -> f64 {
        self.rate.latencies_ms.len() as f64 / self.cpu_s
    }
}

/// Set-up bursts per run: one before each rate phase and one after the
/// last, so that `setup_s` samples the host's speed at four moments.
const SETUP_BURSTS: usize = RATES.len() + 1;

/// Runs one burst of set-ups (platform build plus fleet assembly with the
/// TCP connect and spec probe), recording each set-up's time and its fleet
/// assembly's, until the burst has its share of [`SETUP_REPS`] set-ups and
/// of [`SETUP_BUDGET_S`]; returns the last platform built.
fn set_up_burst(
    t: &Tracer,
    parent: Option<u64>,
    setups: &mut Vec<f64>,
    fleet_setup_s: &mut Vec<f64>,
) -> Res<Platform> {
    let (mut n, mut spent_s) = (0, 0.0);
    loop {
        let t0 = Instant::now();
        let p = t.span("aimc_platform", "facade.build", parent, |_| {
            models::micro_platform()
        })?;
        let t1 = Instant::now();
        let fleet = t.span("serve", "fleet.start", parent, |_| Fleet::start(&p))?;
        let done = Instant::now();
        setups.push((done - t0).as_secs_f64());
        fleet_setup_s.push((done - t1).as_secs_f64());
        fleet.stop()?;
        n += 1;
        spent_s += (done - t0).as_secs_f64();
        if n >= SETUP_REPS.div_ceil(SETUP_BURSTS) && spent_s >= SETUP_BUDGET_S / SETUP_BURSTS as f64
        {
            return Ok(p);
        }
    }
}

/// Sets up (median over [`SETUP_BURSTS`] bursts), then runs the three rate
/// phases for a third of `span` each, each on a fresh fleet.
///
/// Gate: every completed logit is bit-identical to a solo micro-model
/// stream at the same coordinate.
pub fn run(ctx: &Ctx, span: Duration, parent: Option<u64>) -> Res<ServeRun> {
    let t = ctx.tracer;
    let mut setups = Vec::new();
    let mut fleet_setup_s = Vec::new();
    let platform = set_up_burst(t, parent, &mut setups, &mut fleet_setup_s)?;
    let reference = reference_executor(&platform)?;

    let part = span / RATES.len() as u32;
    let mut phases = Vec::new();
    for (i, &(name, rate)) in RATES.iter().enumerate() {
        let seed = ctx.seed ^ ((i as u64 + 1) << 48);
        let phase = t.span("harness", "serve.phase", parent, |id| {
            run_phase(ctx, &platform, &reference, name, rate, seed, part, id)
        })?;
        phases.push(phase);
        set_up_burst(t, parent, &mut setups, &mut fleet_setup_s)?;
    }

    let best = stats::max_ok_phase(phases.iter().map(|p| &p.rate), LIMIT_MS);
    let mut o = Outcome {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.rate.failed).sum(),
        wrong: phases.iter().map(|p| p.wrong).sum(),
        setup_s: median(&setups).expect("at least one set-up"),
        work_per_s: phases[2].per_cpu_s(),
        latency_ms: phases[0].quietest_p50_ms(),
        ..Outcome::default()
    };
    for p in &phases {
        let r = &p.rate;
        for (what, value, unit) in [
            ("p50_ms", median(&r.latencies_ms).unwrap_or(f64::NAN), "ms"),
            ("p99_ms", r.p99_ms().unwrap_or(f64::NAN), "ms"),
            ("quietest_p50_ms", p.quietest_p50_ms(), "ms"),
            ("completed", r.latencies_ms.len() as f64, "count"),
            ("per_cpu_s", p.per_cpu_s(), "1/s"),
            ("refused", p.refused as f64, "count"),
            (
                "meets_limit",
                f64::from(u8::from(r.meets(LIMIT_MS))),
                "bool",
            ),
            (
                "backlog_growing",
                f64::from(u8::from(r.backlog_growing(LIMIT_MS))),
                "bool",
            ),
        ] {
            o.note(&format!("serve_open.{what}.{}", p.name), value, unit);
        }
    }
    o.note(
        "serve_open.max_ok_rate",
        best.map_or(0.0, |b| b.rate_per_s),
        "1/s",
    );
    Ok(ServeRun {
        outcome: o,
        phases,
        fleet_setup_s,
    })
}

/// A solo replica of the micro model, programmed like every seat.
fn reference_executor(platform: &Platform) -> Res<AimcExecutor> {
    let Backend::Analog { seed, xbar_cfg } = models::micro_backend() else {
        unreachable!("the micro backend is analog");
    };
    let weights = platform.weights().ok_or(Error::NoWeights)?;
    Ok(AimcExecutor::try_program_shared_with(
        Arc::new(platform.graph().clone()),
        Arc::new(weights.clone()),
        &xbar_cfg,
        seed,
        Parallelism::Serial,
    )?)
}

/// Logits per answer: the micro model ends in a linear layer to 2.
const LOGITS: usize = 2;
/// Answers per storage chunk. Chunks are never reallocated, so memory
/// grows smoothly with the number of answers.
const CHUNK: usize = 1 << 16;

/// A served answer kept for the gate: its stream coordinate, its image
/// index, and its logits as raw bits.
struct Answer {
    coord: u64,
    image: u64,
    bits: [u32; LOGITS],
}

/// Every answer of a phase, a few bytes each.
#[derive(Default)]
struct Answers {
    chunks: Vec<Vec<Answer>>,
    /// Answers without exactly [`LOGITS`] logits; each counts as wrong.
    malformed: u64,
}

impl Answers {
    fn push(&mut self, coord: u64, image: u64, y: &Tensor) {
        let Ok(logits) = <[f32; LOGITS]>::try_from(y.data()) else {
            self.malformed += 1;
            return;
        };
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let chunk = self.chunks.last_mut().expect("pushed above");
        chunk.push(Answer {
            coord,
            image,
            bits: logits.map(f32::to_bits),
        });
    }
}

/// Serves coordinates 0..[`WARMUP`] closed-loop on images of the same
/// indices; returns their answers and the count of failed requests.
fn warm_up(fh: &FleetHandle, image: impl Fn(u64) -> Tensor) -> Res<(Answers, u64)> {
    let warm: Vec<Pending> = (0..WARMUP)
        .map(|k| fh.submit(image(k)))
        .collect::<Result<_, _>>()?;
    let mut answers = Answers::default();
    let mut errors = 0;
    for (k, p) in (0..).zip(warm) {
        match p.wait() {
            Ok(y) => answers.push(k, k, &y),
            Err(_) => errors += 1,
        }
    }
    Ok((answers, errors))
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    ctx: &Ctx,
    platform: &Platform,
    reference: &AimcExecutor,
    name: &'static str,
    rate: f64,
    seed: u64,
    span: Duration,
    parent: Option<u64>,
) -> Res<Phase> {
    let t = ctx.tracer;
    let fleet = Fleet::start(platform)?;
    let image = |j: u64| models::image(seed, TAG_MICRO, j, SHAPE);
    // Warm-up: coordinates 0..WARMUP, images WARMUP.. are the schedule's.
    let (answers, mut errors) = warm_up(&fleet.handle, image)?;

    let schedule = arrival_schedule(seed, rate, span);
    let n = schedule.len();
    let mut g = Generator::new(&fleet.handle, t, parent, answers);
    let start = Instant::now() + Duration::from_millis(1);
    let cpu0 = stats::process_cpu_s();
    for (j, &off) in schedule.iter().enumerate() {
        let due = start + off;
        g.wait_until(due);
        g.submit(j, image(WARMUP + j as u64), due);
    }
    g.drain();
    let cpu_s = stats::process_cpu_s()
        .zip(cpu0)
        .map_or(f64::NAN, |(b, a)| b - a);
    let stats = fleet.handle.stats().aggregate();
    let Generator {
        mut done,
        answers,
        refused,
        submit_us,
        late_ms,
        poll_gap_us,
        ..
    } = g;
    fleet.stop()?;

    // Latencies in due order; failed requests drop out and count.
    done.sort_unstable_by_key(|d| d.j);
    let mut latencies_ms = Vec::with_capacity(done.len());
    let mut due_s = Vec::with_capacity(done.len());
    for d in done {
        if d.ok {
            latencies_ms.push((d.seen - d.due).as_secs_f64() * 1e3);
            due_s.push((d.due - start).as_secs_f64());
        } else {
            errors += 1;
        }
    }
    let wrong = t.span("harness", "gate.serve", parent, |_| {
        gate(reference, &answers, image)
    })?;
    Ok(Phase {
        name,
        rate: RatePhase {
            rate_per_s: rate,
            latencies_ms,
            failed: refused + errors + wrong,
        },
        due_s,
        cpu_s,
        attempted: WARMUP + n as u64,
        refused,
        wrong,
        stats,
        submit_us,
        late_ms,
        poll_gap_us,
    })
}

/// An accepted request the generator has not yet seen complete.
struct Sent {
    /// Position in the phase's sequence of requests.
    j: usize,
    coord: u64,
    due: Instant,
    submitted: Instant,
    pending: Pending,
}

/// A request seen complete; `ok` unless it failed.
struct Done {
    j: usize,
    due: Instant,
    seen: Instant,
    ok: bool,
}

/// The load generator: one thread that submits each request when it is
/// due and, while it waits, sweeps the outstanding requests with
/// `Pending::is_ready`, stamping each the first time it is seen complete.
/// A request that finishes before an earlier one is thus not made to wait
/// for it. It never spins: on two CPUs a spinning generator would take one
/// from the fleet.
struct Generator<'a> {
    fh: &'a FleetHandle,
    t: &'a Tracer,
    parent: Option<u64>,
    outstanding: Vec<Sent>,
    done: Vec<Done>,
    answers: Answers,
    /// The coordinate the router stamps on the next accepted request.
    next_coord: u64,
    refused: u64,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
    poll_gap_us: Vec<f64>,
    last_sweep: Option<Instant>,
}

impl<'a> Generator<'a> {
    fn new(fh: &'a FleetHandle, t: &'a Tracer, parent: Option<u64>, answers: Answers) -> Self {
        Generator {
            fh,
            t,
            parent,
            outstanding: Vec::new(),
            done: Vec::new(),
            answers,
            next_coord: WARMUP,
            refused: 0,
            submit_us: Vec::new(),
            late_ms: Vec::new(),
            poll_gap_us: Vec::new(),
            last_sweep: None,
        }
    }

    /// Submits request `j`, due at `due`; returns whether it was accepted.
    fn submit(&mut self, j: usize, x: Tensor, due: Instant) -> bool {
        let t0 = Instant::now();
        let res = self.fh.submit(x);
        let t1 = Instant::now();
        self.late_ms.push((t0 - due).as_secs_f64() * 1e3);
        self.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        let coord = self.next_coord;
        self.t
            .record("serve", "fleet.submit", self.parent, Some(coord), t0, t1);
        match res {
            Ok(pending) => {
                self.outstanding.push(Sent {
                    j,
                    coord,
                    due,
                    submitted: t1,
                    pending,
                });
                self.next_coord += 1;
                true
            }
            Err(_) => {
                self.refused += 1;
                false
            }
        }
    }

    /// Stamps every outstanding request that is ready; returns whether
    /// any was.
    fn sweep(&mut self) -> bool {
        if self.outstanding.is_empty() {
            self.last_sweep = None;
            return false;
        }
        let now = Instant::now();
        if let Some(prev) = self.last_sweep {
            self.poll_gap_us.push((now - prev).as_secs_f64() * 1e6);
        }
        self.last_sweep = Some(now);
        let mut any = false;
        let mut i = 0;
        while i < self.outstanding.len() {
            if self.outstanding[i].pending.is_ready() {
                let s = self.outstanding.swap_remove(i);
                let seen = Instant::now();
                self.t.record(
                    "serve",
                    "pending.complete",
                    self.parent,
                    Some(s.coord),
                    s.submitted,
                    seen,
                );
                let y = s.pending.wait();
                if let Ok(y) = &y {
                    self.answers.push(s.coord, WARMUP + s.j as u64, y);
                }
                self.done.push(Done {
                    j: s.j,
                    due: s.due,
                    seen,
                    ok: y.is_ok(),
                });
                any = true;
            } else {
                i += 1;
            }
        }
        any
    }

    /// Sweeps until `due`, napping [`POLL`] after each empty sweep, and
    /// sleeps straight through when nothing is outstanding. Sleeping
    /// overshoots by tens of µs, which counts as lateness.
    fn wait_until(&mut self, due: Instant) {
        loop {
            let any = self.sweep();
            let now = Instant::now();
            if now >= due {
                return;
            }
            if self.outstanding.is_empty() {
                thread::sleep(due - now);
            } else if !any {
                thread::sleep((due - now).min(POLL));
            }
        }
    }

    /// Sweeps until every outstanding request is seen complete.
    fn drain(&mut self) {
        while !self.outstanding.is_empty() {
            if !self.sweep() {
                thread::sleep(POLL);
            }
        }
    }
}

/// Counts answers whose logits differ in any bit from a solo serial
/// stream of the same images at the same coordinates.
fn gate(reference: &AimcExecutor, answers: &Answers, image: impl Fn(u64) -> Tensor) -> Res<u64> {
    let mut wrong = answers.malformed;
    for part in answers.chunks.iter().flat_map(|c| c.chunks(1024)) {
        let images: Vec<Tensor> = part.iter().map(|a| image(a.image)).collect();
        let items: Vec<(u64, &Tensor)> = part.iter().map(|a| a.coord).zip(&images).collect();
        let want = reference.try_infer_batch_indexed(&items, Parallelism::Serial)?;
        wrong += want
            .iter()
            .zip(part)
            .filter(|(w, a)| !w.data().iter().map(|v| v.to_bits()).eq(a.bits))
            .count() as u64;
    }
    Ok(wrong)
}

/// Per-layer serving metrics of one phase.
pub fn layer_metrics(p: &Phase, out: &mut Vec<Metric>) {
    let waits_us: Vec<f64> = p
        .stats
        .queue_waits
        .iter()
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let p99 = |xs: &[f64]| tail_percentile(xs, 0.99).unwrap_or(f64::NAN);
    let p50 = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    let r = p.name;
    for (name, value, unit) in [
        ("serve.queue_wait_p50_us", p50(&waits_us), "us"),
        ("serve.queue_wait_p99_us", p99(&waits_us), "us"),
        ("serve.mean_batch", p.stats.mean_batch(), "count"),
        ("serve.submit_us_p50", p50(&p.submit_us), "us"),
        ("serve.submit_us_p99", p99(&p.submit_us), "us"),
        ("gen.late_ms_p99", p99(&p.late_ms), "ms"),
        ("gen.poll_gap_us_p99", p99(&p.poll_gap_us), "us"),
    ] {
        out.push((format!("{name}.{r}"), value, unit));
    }
}
