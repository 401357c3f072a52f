//! Spans around the benchmark's own calls into each layer.
//!
//! Every call the benchmark makes into the program is timed through
//! [`Tracer::begin`]/[`Tracer::end`]; with tracing on, the span (name,
//! start, end, parent, request id) is also kept in memory and written out
//! when the run ends. A span's self time is its duration minus the part of
//! its interval covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span in flight; `end` it to get its duration.
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start or stop recording spans (timings are returned either way).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Open a span; `parent` 0 means a root span.
    pub fn begin(&self, name: &'static str, parent: u64, req: u64) -> Open {
        let id = if self.is_on() { self.next.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Open { id, parent, req, name, start: Instant::now() }
    }

    /// Close a span and return its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end = Instant::now();
        let took = end - open.start;
        if open.id != 0 {
            let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span buffer poisoned by a panicking client").push(span);
        }
        took
    }

    /// Time `f` as one span.
    pub fn time<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking client").clone()
    }
}

/// Per span name: calls, total time and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name, charging each span only the time its children
/// do not cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += total;
        t.self_ns += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 30),
            span(3, 1, "inner", 20, 50),  // overlaps the first child
            span(4, 1, "inner", 90, 120), // runs past the parent
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"], SpanTotals { calls: 1, total_ns: 100, self_ns: 100 - 40 - 10 });
        assert_eq!(t["inner"].calls, 3);
        assert_eq!(t["inner"].self_ns, 20 + 30 + 30);
    }

    #[test]
    fn spans_are_recorded_only_while_on() {
        let tr = Tracer::new();
        tr.time("off", 0, 0, || ());
        tr.set(true);
        let root = tr.begin("root", 0, 7);
        tr.time("child", root.id(), 7, || ());
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
    }
}
