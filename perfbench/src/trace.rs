//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, layer, start, end, parent span, request id). Spans stay in
//! memory until the run ends, then [`Tracer::write_chrome`] writes them as
//! Chrome trace-event JSON, which Perfetto and `chrome://tracing` open
//! offline. A disabled tracer records nothing and reads no clock.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The layer (workspace crate) the spanned call enters.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by every span of one served request.
    pub req: Option<u64>,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer whose epoch is now.
    pub fn on() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span. `f` receives the span's id (for children),
    /// or `None` when tracing is off.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        let Some(epoch) = self.epoch else {
            return f(None);
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: (end - epoch).as_nanos() as u64,
            req: None,
            tid: thread_id(),
        });
        out
    }

    /// Records a span whose interval the caller already measured (a
    /// request's submit call, or its wait for completion).
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
            req,
            tid: thread_id(),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span recorder lock: no recorder panics while holding it")
            .push(span);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut s = self
            .spans
            .lock()
            .expect("span recorder lock: no recorder panics while holding it")
            .clone();
        s.sort_by_key(|s| (s.start_ns, s.id));
        s
    }

    /// Writes `spans` as Chrome trace-event JSON (complete events, µs
    /// timestamps), with each span's parent, request id and self time in
    /// its `args`.
    pub fn write_chrome(spans: &[Span], path: &Path) -> io::Result<()> {
        let selfs = self_times(spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"self_us\":{:.3}}}}}{sep}",
                s.name,
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req.map_or("null".into(), |r| r.to_string()),
                *self_ns as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once; a child's
/// part outside the parent does not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            s.dur_ns() - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Total self time per layer, in milliseconds.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.layer).or_default() += ns as f64 / 1e6;
    }
    by
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            req: None,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50 once (40 ns).
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A grandchild is charged to its own parent only.
            span(4, Some(3), 35, 45),
            // A child poking past its parent's end counts only inside.
            span(5, Some(1), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 10, 10, 30]);
        let by = self_ms_by_layer(&spans);
        assert_eq!(by["root"], 50.0 / 1e6);
        assert_eq!(by["child"], 80.0 / 1e6);
    }

    #[test]
    fn leaf_and_disjoint_children() {
        let spans = vec![
            span(1, None, 0, 1000),
            span(2, Some(1), 0, 100),
            span(3, Some(1), 900, 1000),
        ];
        assert_eq!(self_times(&spans), vec![800, 100, 100]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", "y", None, |id| id), None);
        assert!(t.spans().is_empty());
        let t = Tracer::on();
        let inner = t.span("x", "outer", None, |id| t.span("x", "inner", id, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            inner
        );
    }
}
