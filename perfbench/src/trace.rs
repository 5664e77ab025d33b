//! Host-time accounting and the optional span trace.
//!
//! Every workload drives the simulator through one [`Meter`]. `setup`
//! charges a closure to the pass's set-up time, `call` to its simulator
//! time (`wall_s`), and `span` only names a region for the trace. With
//! tracing off a `span` is a plain call; with tracing on each of the three
//! also records a span (name, start, end, parent, pass) in memory. Spans are
//! written out once, after the run, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, such as `flashvisor.write_section`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to.
    pub pass: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans recorded so far, and the stack of open ones.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, at: Instant) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.since_origin(at),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        index
    }

    fn close(&mut self, index: usize, at: Instant) {
        let end = self.since_origin(at);
        self.spans[index].end_ns = end;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Host time of one pass, split into set-up and simulator time.
#[derive(Debug)]
pub struct Meter {
    setup: Duration,
    wall: Duration,
    trace: Option<Trace>,
}

impl Meter {
    /// A meter that records spans when `traced`.
    pub fn new(traced: bool) -> Self {
        Meter {
            setup: Duration::ZERO,
            wall: Duration::ZERO,
            trace: traced.then(Trace::new),
        }
    }

    /// Starts pass `pass`: clears the time totals and, when tracing, tags
    /// the following spans with `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        self.setup = Duration::ZERO;
        self.wall = Duration::ZERO;
        if let Some(trace) = self.trace.as_mut() {
            trace.pass = pass;
        }
    }

    /// Set-up seconds accumulated in this pass.
    pub fn setup_s(&self) -> f64 {
        self.setup.as_secs_f64()
    }

    /// Simulator seconds accumulated in this pass.
    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// The recorded trace, when tracing.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let start = Instant::now();
        let span = self.trace.as_mut().map(|t| t.open(name, start));
        let out = f(self);
        let end = Instant::now();
        if let (Some(trace), Some(span)) = (self.trace.as_mut(), span) {
            trace.close(span, end);
        }
        (out, end - start)
    }

    /// Runs set-up work (input generation, system construction).
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let (out, took) = self.timed(name, f);
        self.setup += took;
        out
    }

    /// Runs a call into the simulator; its host time counts toward `wall_s`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let (out, took) = self.timed(name, f);
        self.wall += took;
        out
    }

    /// Names a region inside a `call` for the trace; costs nothing more
    /// than the call itself when tracing is off.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.trace.is_none() {
            return f(self);
        }
        self.timed(name, f).0
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans).
    pub self_ns: u64,
}

/// Totals per span name over the spans of the passes `keep` accepts.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        if !keep(span.pass) {
            continue;
        }
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.ns();
        entry.self_ns += span.ns().saturating_sub(*children);
    }
    out
}

/// Self time per layer (the part of a span name before its first `.`),
/// in seconds, over the passes `keep` accepts.
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, totals) in totals_by_name(spans, keep) {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_default() += totals.self_ns as f64 * 1e-9;
    }
    out
}

/// Renders the spans of the passes `keep` accepts as Chrome trace-event
/// JSON (opens in Perfetto or `chrome://tracing`), each with its id,
/// parent and pass in `args`, followed by their per-name totals.
pub fn chrome_json(spans: &[Span], keep: impl Fn(u32) -> bool + Copy) -> String {
    let mut events: Vec<String> = Vec::new();
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| keep(s.pass)) {
        let parent = s.parent.map_or(-1, |p| p as i64);
        events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"pass\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.ns() as f64 / 1e3,
            s.pass
        ));
    }
    let mut out = format!(
        "{{\"traceEvents\":[\n{}\n],\n\"totals\":{{",
        events.join(",\n")
    );
    for (i, (name, t)) in totals_by_name(spans, keep).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            if i == 0 { "" } else { "," },
            name,
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_meter_splits_setup_from_calls_and_records_nothing() {
        let mut m = Meter::new(false);
        m.begin_pass(0);
        let x = m.setup("workload.gen", |_| 2);
        let y = m.call("system.run", |m| m.span("inner", |_| x + 1));
        assert_eq!(y, 3);
        assert!(m.trace().is_none());
        assert!(m.setup_s() >= 0.0 && m.wall_s() >= 0.0);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut m = Meter::new(true);
        m.begin_pass(3);
        m.call("outer.run", |m| {
            m.span("inner.a", |_| std::thread::sleep(Duration::from_millis(2)));
            m.span("inner.b", |_| ());
        });
        let spans = m.trace().expect("traced").spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3 && s.end_ns >= s.start_ns));
        let totals = totals_by_name(spans, |_| true);
        let outer = totals["outer.run"];
        assert_eq!(
            outer.total_ns - outer.self_ns,
            spans[1].ns() + spans[2].ns()
        );
        let layers = self_time_by_layer(spans, |_| true);
        assert!(layers["inner"] >= 0.002);
        assert!(chrome_json(spans, |_| true).contains("\"parent\":0"));
        assert!(totals_by_name(spans, |p| p != 3).is_empty());
    }
}
