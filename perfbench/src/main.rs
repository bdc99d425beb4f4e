//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <infer_offline|serve_open|sim_paper512> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one workload untraced for `--seconds` and prints the
//! end-to-end metrics. `--trace 1` is the traced per-layer run: it runs
//! every workload briefly with spans recorded around each call into a
//! layer, probes single layers directly, and prints the per-layer metrics;
//! the chosen workload is also run untraced to price the tracing. The last
//! stdout line is always the JSON result. See `perfbench/README.md`.

mod infer;
mod models;
mod probes;
mod serve;
mod sim;
mod stats;
mod trace;

use aimc_platform::core::map_network;
use aimc_platform::prelude::*;
use aimc_platform::runtime::trace::stage_traces;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per probe in the traced run, and the fewest per workload run.
pub const SETUP_REPS: usize = 31;
/// `serve_open` and `sim_paper512` repeat their sub-millisecond set-up at
/// least [`SETUP_REPS`] times and until the set-ups have taken this long
/// in all (about a thousand times), and report the median as `setup_s`.
pub const SETUP_BUDGET_S: f64 = 0.5;

/// Whether a workload run should time another set-up, given those timed.
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_BUDGET_S
}

const WORKLOADS: [&str; 3] = ["infer_offline", "serve_open", "sim_paper512"];

pub struct Ctx<'a> {
    pub seed: u64,
    pub nproc: usize,
    pub tracer: &'a Tracer,
}

/// What one workload pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused or wrong operations.
    pub failed: u64,
    /// Operations a correctness gate rejected.
    pub wrong: u64,
    pub setup_s: f64,
    /// Work per second: images or simulator events per second in the
    /// fastest call, or requests answered per second of CPU time at the
    /// `high` rate, by workload.
    pub work_per_s: f64,
    /// Latency of one operation: the fastest call of `infer_offline` and
    /// `sim_paper512`, the p50 of the quietest window at the `low` rate of
    /// `serve_open`.
    pub latency_ms: f64,
    /// Workload-specific figures printed for reading, not compared.
    pub notes: Vec<Metric>,
}

impl Outcome {
    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        put(&mut self.notes, name, value, unit);
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("provenance {}", provenance(&args, nproc));
    let result = if args.trace {
        traced(&args, nproc)
    } else {
        untraced(&args, nproc)
    };
    match result {
        Ok(r) => {
            for (name, value, unit) in &r.lines {
                println!("{name} = {value} {unit}");
            }
            println!("{}", r.json());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a correctness gate failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The commit, host and settings a result was measured with.
fn provenance(args: &Args, nproc: usize) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let rates: Vec<String> = serve::RATES
        .iter()
        .map(|(n, r)| format!("\"{n}\":{r}"))
        .collect();
    format!(
        "{{\"commit\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{rustc}\",\"workload\":\"{}\",\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"rates_per_s\":{{{}}},\"latency_limit_ms\":{}}}",
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rates.join(","),
        serve::LIMIT_MS,
    )
}

/// HEAD's commit id read from `.git`, or "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
    };
    id.filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    lines: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn run_workload(ctx: &Ctx, w: &str, span: Duration, parent: Option<u64>) -> Res<Outcome> {
    Ok(match w {
        "infer_offline" => infer::run(ctx, span, parent)?,
        "serve_open" => serve::run(ctx, span, parent)?.outcome,
        _ => sim::run(ctx, span, parent)?.outcome,
    })
}

/// The end-to-end run: one workload, tracing off.
fn untraced(args: &Args, nproc: usize) -> Res<Report> {
    let tracer = Tracer::off();
    let ctx = Ctx {
        seed: args.seed,
        nproc,
        tracer: &tracer,
    };
    let o = run_workload(&ctx, args.workload, Duration::from_secs(args.seconds), None)?;
    let rss = stats::peak_rss_mb().ok_or("peak RSS unavailable: /proc/self/status unreadable")?;
    Ok(Report {
        correct: o.wrong == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics: vec![
            ("setup_s".into(), o.setup_s, "s"),
            ("peak_rss_mb".into(), rss, "MB"),
            ("work_per_s".into(), o.work_per_s, "1/s"),
            ("latency_ms".into(), o.latency_ms, "ms"),
        ],
        lines: o.notes,
    })
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn put(m: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    m.push((name.into(), value, unit));
}

/// The traced per-layer run.
fn traced(args: &Args, nproc: usize) -> Res<Report> {
    let pass = Duration::from_secs(args.seconds) / 3;
    // The chosen workload runs untraced in two halves, before and after
    // the traced passes, so slow drift of host speed cancels out of the
    // tracing overhead.
    let off = Tracer::off();
    let untraced_half = || {
        let ctx = Ctx {
            seed: args.seed,
            nproc,
            tracer: &off,
        };
        run_workload(&ctx, args.workload, pass / 2, None)
    };
    let before = untraced_half()?;

    let tracer = Tracer::on();
    let t = &tracer;
    let ctx = Ctx {
        seed: args.seed,
        nproc,
        tracer: t,
    };
    let inf = t.span("harness", "pass.infer_offline", None, |id| {
        infer::run(&ctx, pass, id)
    })?;
    let srv = t.span("harness", "pass.serve_open", None, |id| {
        serve::run(&ctx, pass, id)
    })?;
    let sim = t.span("harness", "pass.sim_paper512", None, |id| {
        sim::run(&ctx, pass, id)
    })?;
    let after = untraced_half()?;
    let traced_lat = match args.workload {
        "infer_offline" => inf.latency_ms,
        "serve_open" => srv.outcome.latency_ms,
        _ => sim.outcome.latency_ms,
    };
    let plain_lat = (before.latency_ms + after.latency_ms) / 2.0;
    let passes = [&before, &inf, &srv.outcome, &sim.outcome, &after];

    let mut m = Vec::new();
    let probe = t.span("harness", "probes", None, |id| id);
    setup_layers(t, probe, nproc, &mut m)?;
    compute_layers(t, probe, args.seed, nproc, &mut m)?;
    sim_layers(&sim, &mut m);
    for p in &srv.phases {
        serve::layer_metrics(p, &mut m);
    }
    put(
        &mut m,
        "serve.fleet_setup_ms",
        stats::median(&srv.fleet_setup_s).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    let (enc, dec, bytes) = t.span("wire", "codec", probe, |_| probes::wire_codec(args.seed))?;
    put(&mut m, "wire.encode_ns.request", enc, "ns");
    put(&mut m, "wire.decode_ns.reply", dec, "ns");
    put(&mut m, "wire.bytes_per_request", bytes as f64, "B");

    // The trace itself: overhead, span count, self time per layer.
    let spans = tracer.spans();
    put(
        &mut m,
        "trace.overhead_pct",
        (traced_lat - plain_lat) / plain_lat * 100.0,
        "%",
    );
    put(&mut m, "trace.spans", spans.len() as f64, "count");
    let by_layer = trace::self_ms_by_layer(&spans);
    for layer in SPAN_LAYERS {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        put(&mut m, format!("selftime_ms.{layer}"), ms, "ms");
    }
    let path = format!(
        "perfbench/out/trace-{}-seed{}.json",
        args.workload, args.seed
    );
    Tracer::write_chrome(&spans, Path::new(&path))?;
    println!("trace_file {path}");

    let w = args.workload;
    Ok(Report {
        correct: passes.iter().all(|o| o.wrong == 0),
        attempted: passes.iter().map(|o| o.attempted).sum(),
        failed: passes.iter().map(|o| o.failed).sum(),
        metrics: m,
        lines: vec![
            (format!("untraced.{w}.latency_ms"), plain_lat, "ms"),
            (format!("traced.{w}.latency_ms"), traced_lat, "ms"),
        ],
    })
}

/// Layers the traced run records spans for.
const SPAN_LAYERS: [&str; 8] = [
    "aimc_platform",
    "core",
    "xbar",
    "dnn",
    "runtime",
    "serve",
    "wire",
    "harness",
];

/// Set-up layers, each platform on its own: facade build, mapping, and
/// crossbar programming.
fn setup_layers(t: &Tracer, probe: Option<u64>, nproc: usize, m: &mut Vec<Metric>) -> Res<()> {
    type Build = Box<dyn Fn() -> Result<Platform, Error>>;
    let platforms: [(&str, Build); 3] = [
        (
            "cifar",
            Box::new(move || models::cifar_platform(Parallelism::Threads(nproc))),
        ),
        ("micro", Box::new(models::micro_platform)),
        (
            "paper",
            Box::new(|| models::paper_platform(Parallelism::Serial)),
        ),
    ];
    for (name, build) in &platforms {
        let ms = t.span("aimc_platform", "facade.build", probe, |_| {
            probes::median_ms(SETUP_REPS, || Ok(build()?))
        })?;
        put(m, format!("facade.build_ms.{name}"), ms, "ms");
    }
    for (name, build) in &platforms {
        let p = build()?;
        let ms = t.span("core", "core.map_network", probe, |_| {
            probes::median_ms(SETUP_REPS, || {
                Ok(map_network(p.graph(), p.arch(), p.strategy())?)
            })
        })?;
        put(m, format!("core.map_ms.{name}"), ms, "ms");
    }
    for (name, p, backend) in [
        ("cifar", platforms[0].1()?, models::cifar_backend()),
        ("micro", platforms[1].1()?, models::micro_backend()),
    ] {
        let ms = t.span("xbar", "session.program", probe, |_| {
            probes::median_ms(3, || Ok(p.session().program(&backend)?))
        })?;
        put(m, format!("xbar.program_ms.{name}"), ms, "ms");
    }
    Ok(())
}

/// Kernel, executor and thread-pool layers on the CIFAR and micro models.
fn compute_layers(
    t: &Tracer,
    probe: Option<u64>,
    seed: u64,
    nproc: usize,
    m: &mut Vec<Metric>,
) -> Res<()> {
    let cifar = models::cifar_platform(Parallelism::Threads(nproc))?;
    let mvm_cifar = t.span("xbar", "crossbar.mvm_batch_into_with", probe, |_| {
        probes::mvm_ns_batched(cifar.graph(), &XbarConfig::hermes_256(), seed)
    })?;
    let micro = models::micro_graph();
    let mvm_micro = t.span("xbar", "crossbar.mvm_into_with", probe, |_| {
        probes::mvm_ns_single(&micro, &XbarConfig::hermes_256().with_size(32, 4), seed)
    })?;
    let im2col = t.span("dnn", "ops.im2col_patch_range", probe, |_| {
        probes::im2col_ms_per_image(cifar.graph(), seed)
    })?;

    let mut session = cifar.session();
    let backend = models::cifar_backend();
    session.program(&backend)?;
    let images: Vec<Tensor> = (0..infer::BATCH as u64)
        .map(|i| models::image(seed, models::TAG_CIFAR, i, Shape::new(3, 32, 32)))
        .collect();
    let mut per_image_ms = |par: Parallelism, name: &'static str| -> Res<f64> {
        session.set_parallelism(par);
        let ms = t.span("dnn", name, probe, |_| {
            probes::median_ms(3, || Ok(session.infer(&images, backend.clone())?))
        })?;
        Ok(ms / infer::BATCH as f64)
    };
    let serial_ms = per_image_ms(Parallelism::Serial, "session.infer.serial")?;
    let threaded_ms = per_image_ms(Parallelism::Threads(nproc), "session.infer")?;
    let mvms = session.total_mvms() as f64 / session.images_seen() as f64;

    put(m, "xbar.mvm_ns.cifar", mvm_cifar, "ns");
    put(m, "xbar.mvm_ns.micro", mvm_micro, "ns");
    put(m, "dnn.mvms_per_image", mvms, "count");
    put(m, "dnn.image_ms_serial", serial_ms, "ms");
    put(m, "dnn.im2col_ms_per_image", im2col, "ms");
    put(
        m,
        "dnn.kernel_share",
        mvms * mvm_cifar / (serial_ms * 1e6),
        "ratio",
    );
    put(m, "parallel.infer_speedup", serial_ms / threaded_ms, "x");
    Ok(())
}

/// The simulator's host speed and its modeled chip column, which is exact
/// and must not change with host speed.
fn sim_layers(sim: &sim::SimRun, m: &mut Vec<Metric>) {
    put(
        m,
        "parallel.sim_speedup",
        sim.serial_p50_s / sim.threaded_s,
        "x",
    );
    let r = &sim.report;
    let makespan_s = r.makespan.as_s_f64();
    let bottleneck = stage_traces(sim.platform.mapping(), r)
        .iter()
        .map(|s| s.utilization)
        .fold(0.0, f64::max);
    let err_pct = |got: f64, paper: f64| (got - paper) / paper * 100.0;
    put(
        m,
        "runtime.serial_events_per_s",
        sim.outcome.work_per_s,
        "1/s",
    );
    put(m, "runtime.events", r.events as f64, "count");
    put(m, "runtime.modeled_makespan_us", makespan_s * 1e6, "us");
    put(m, "runtime.modeled_tops", r.tops(), "TOPS");
    put(
        m,
        "runtime.modeled_tops_err_pct",
        err_pct(r.tops(), sim::PAPER_TOPS),
        "%",
    );
    put(m, "runtime.modeled_images_per_s", r.images_per_s(), "1/s");
    put(
        m,
        "runtime.modeled_images_per_s_err_pct",
        err_pct(r.images_per_s(), sim::PAPER_IMAGES_PER_S),
        "%",
    );
    put(m, "runtime.bottleneck_util", bottleneck, "ratio");
    let f = &r.fabric;
    let peak_util = f
        .links
        .iter()
        .map(|l| l.busy.as_s_f64() / makespan_s)
        .fold(0.0, f64::max);
    let peak_queued = f.links.iter().map(|l| l.peak_queued).max().unwrap_or(0);
    put(m, "noc.transactions", f.completed as f64, "count");
    put(m, "noc.hbm_bytes", r.hbm_bytes as f64, "B");
    put(m, "noc.peak_link_util", peak_util, "ratio");
    put(m, "noc.peak_queued", f64::from(peak_queued), "count");
}
