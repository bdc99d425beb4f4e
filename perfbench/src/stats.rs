//! The benchmark's own arithmetic: seeded inputs and arrival schedules,
//! the percentile rule, and the open-loop pass/fail rule behind
//! `max_ok_rate`. Pure functions, unit-tested below.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the number says nothing about the tail.
pub const MIN_BEYOND: usize = 10;

/// Mixes the run seed with a stream tag and an index, so every input of
/// every workload has its own reproducible RNG stream.
pub fn stream_rng(seed: u64, tag: u64, index: u64) -> StdRng {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `n` values uniform in `[-1, 1)` from the stream `(seed, tag, index)`.
pub fn uniform_values(seed: u64, tag: u64, index: u64, n: usize) -> Vec<f32> {
    let mut rng = stream_rng(seed, tag, index);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Open-loop arrival offsets from the start of a phase: a Poisson process
/// of `rate_per_s` over `span`, drawn from the seed alone. The same seed,
/// rate and span always give the same schedule.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = stream_rng(seed, 0xa77, rate_per_s.to_bits());
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * end * 1.1) as usize + 1);
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log argument > 0.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// The smallest sample, or `None` when there are none.
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of unsorted samples, or `None` unless at
/// least [`MIN_BEYOND`] samples lie strictly beyond the chosen rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - rank > MIN_BEYOND).then(|| s[rank])
}

/// The `q`-quantile of unsorted samples, interpolated linearly between
/// order statistics: `q = 0` is the minimum, `q = 1` the maximum.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let last = s.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// Splits samples taken at times `t_s` (seconds from the start, ascending)
/// into consecutive windows of `window_s` and returns the median of each
/// window that holds any.
pub fn window_medians(t_s: &[f64], values: &[f64], window_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < t_s.len() {
        let k = (t_s[i] / window_s).floor();
        let end = i + t_s[i..].partition_point(|&t| (t / window_s).floor() <= k);
        out.extend(median(&values[i..end]));
        i = end;
    }
    out
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One open-loop phase at a fixed offered rate, as the pass/fail rule
/// needs it.
#[derive(Debug, Clone)]
pub struct RatePhase {
    /// Offered rate, requests per second.
    pub rate_per_s: f64,
    /// Due-to-completion latency (ms) of every request, in due order; a
    /// failed request is absent here and counted in `failed`.
    pub latencies_ms: Vec<f64>,
    /// Requests refused, failed or answered with wrong logits.
    pub failed: u64,
}

impl RatePhase {
    /// p99 under the percentile rule.
    pub fn p99_ms(&self) -> Option<f64> {
        tail_percentile(&self.latencies_ms, 0.99)
    }

    /// Whether the queue grew during the phase: the median latency of the
    /// last quarter of the requests (by due time) exceeds that of the first
    /// quarter by more than half the latency limit. A stable queue keeps
    /// both quarters alike; an overloaded one makes latency climb with
    /// time, which this sees before the p99 crosses the limit.
    pub fn backlog_growing(&self, limit_ms: f64) -> bool {
        let n = self.latencies_ms.len();
        match (
            median(&self.latencies_ms[..n / 4]),
            median(&self.latencies_ms[n - n / 4..]),
        ) {
            (Some(first), Some(second)) => second - first > limit_ms / 2.0,
            _ => true,
        }
    }

    /// The phase meets the limit: nothing failed, its p99 is supported by
    /// the sample count and within `limit_ms`, and the backlog is steady.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.p99_ms().is_some_and(|p| p <= limit_ms)
            && !self.backlog_growing(limit_ms)
    }
}

/// The highest-rate phase that meets the limit, if any.
pub fn max_ok_phase<'a>(
    phases: impl IntoIterator<Item = &'a RatePhase>,
    limit_ms: f64,
) -> Option<&'a RatePhase> {
    phases
        .into_iter()
        .filter(|p| p.meets(limit_ms))
        .max_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s))
}

/// CPU time this process's live threads have run, summed, in seconds
/// (the scheduler's per-thread `sum_exec_runtime`), or `None` where
/// `/proc` is unavailable. Time the hypervisor stole from the VM is not
/// charged to the process.
pub fn process_cpu_s() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 * 1e-9)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_per_seed() {
        let span = Duration::from_millis(500);
        let a = arrival_schedule(11, 2000.0, span);
        assert_eq!(a, arrival_schedule(11, 2000.0, span));
        assert_ne!(a, arrival_schedule(12, 2000.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < span));
        // Poisson count over 0.5 s at 2000/s: mean 1000, sd ~32.
        assert!((850..1150).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn seeded_values_repeat_and_differ_by_index() {
        assert_eq!(uniform_values(3, 1, 5, 8), uniform_values(3, 1, 5, 8));
        assert_ne!(uniform_values(3, 1, 5, 8), uniform_values(3, 1, 6, 8));
        assert!(uniform_values(3, 1, 5, 64)
            .iter()
            .all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990 has exactly 10 beyond it.
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 0.99), None);
        // 100 samples support p90 (10 beyond) but not p95 (5 beyond).
        assert_eq!(tail_percentile(&xs[..100], 0.90), Some(90.0));
        assert_eq!(tail_percentile(&xs[..100], 0.95), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.75), Some(1.75));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn window_medians_split_by_time() {
        let t = [0.01, 0.02, 0.24, 0.26, 0.30, 0.80];
        let v = [1.0, 9.0, 2.0, 5.0, 7.0, 3.0];
        // Windows [0, .25), [.25, .5), [.75, 1); the empty one is skipped.
        assert_eq!(window_medians(&t, &v, 0.25), vec![2.0, 6.0, 3.0]);
        assert!(window_medians(&[], &[], 0.25).is_empty());
    }

    fn phase(rate: f64, lat: Vec<f64>, failed: u64) -> RatePhase {
        RatePhase {
            rate_per_s: rate,
            latencies_ms: lat,
            failed,
        }
    }

    #[test]
    fn max_ok_rate_picks_highest_phase_within_limit() {
        let steady = |ms: f64| vec![ms; 2000];
        let phases = vec![
            phase(1000.0, steady(0.6), 0),
            phase(5000.0, steady(1.0), 0),
            phase(20000.0, steady(7.0), 0),
        ];
        assert_eq!(max_ok_phase(&phases, 5.0).unwrap().rate_per_s, 5000.0);
        // A failure disqualifies a phase however fast it was.
        let phases = vec![phase(1000.0, steady(0.6), 0), phase(5000.0, steady(1.0), 1)];
        assert_eq!(max_ok_phase(&phases, 5.0).unwrap().rate_per_s, 1000.0);
        // Too few samples to support a p99 also disqualifies.
        assert!(max_ok_phase(&[phase(1000.0, steady(0.6)[..999].to_vec(), 0)], 5.0).is_none());
    }

    #[test]
    fn growing_backlog_fails_even_under_the_p99_limit() {
        // Latency climbing 0 → 4 ms keeps the p99 under a 5 ms limit, but
        // the last quarter's median (3.5 ms) is 3 ms above the first's.
        let ramp = |top: f64| (0..2000).map(|i| top * i as f64 / 2000.0).collect();
        let climbing = phase(1000.0, ramp(4.0), 0);
        assert!(climbing.p99_ms().unwrap() < 5.0);
        assert!(climbing.backlog_growing(5.0));
        assert!(!climbing.meets(5.0));
        // A gentle drift (1.5 ms between quarters) is not a backlog.
        let gentle = phase(1000.0, ramp(2.0), 0);
        assert!(!gentle.backlog_growing(5.0));
        assert!(gentle.meets(5.0));
        assert!(!phase(1000.0, vec![], 0).meets(5.0));
    }
}
