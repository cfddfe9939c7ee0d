//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span named `<layer>.<operation>`. Spans record start and end (ns since
//! the recorder's origin), the enclosing span and a request id shared by
//! all spans of one request. They stay in memory until the run ends and
//! are then written out as JSON lines. A layer's self time is the summed
//! duration of its spans minus the time their direct children cover.

use std::io::Write;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `lsh.hash`.
    pub name: &'static str,
    /// Nanoseconds from the recorder origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the recorder origin to the return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (a query index, a composition, a write
    /// batch).
    pub request: u64,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from one thread. Threads that run concurrently each own
/// a recorder built from the same origin; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's origin.
    pub fn fork(&self) -> Self {
        Self::new(self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened inside `f` on the same
    /// recorder become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Append another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in the order the spans were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Self time of `layer` in seconds: its spans' durations minus the
    /// time their direct children cover.
    pub fn self_time_s(&self, layer: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum();
        ns as f64 / 1e9
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // searcher.top_k [0, 100) holds lsh.hash [10, 30) and
        // searcher.scan [30, 90), which holds sparse.exact [40, 60).
        let t = tracer_with(vec![
            span("searcher.top_k", 0, 100, None),
            span("lsh.hash", 10, 30, Some(0)),
            span("searcher.scan", 30, 90, Some(0)),
            span("sparse.exact", 40, 60, Some(2)),
        ]);
        let ns = |layer| (t.self_time_s(layer) * 1e9).round() as u64;
        // top_k: 100 - 20 - 60 = 20; scan: 60 - 20 = 40.
        assert_eq!(ns("searcher"), 60);
        assert_eq!(ns("lsh"), 20);
        assert_eq!(ns("sparse"), 20);
        assert_eq!(ns("verify"), 0);
    }

    #[test]
    fn layer_self_times_sum_to_root_time() {
        let t = tracer_with(vec![
            span("candgen.pairs", 0, 50, None),
            span("verify.bayes", 50, 80, None),
            span("sparse.exact", 55, 70, Some(1)),
        ]);
        let total: f64 = ["candgen", "verify", "sparse"]
            .iter()
            .map(|l| t.self_time_s(l))
            .sum();
        assert_eq!((total * 1e9).round() as u64, 80);
    }

    #[test]
    fn recorded_spans_nest_and_merge() {
        let mut t = Tracer::new(Instant::now());
        t.span("searcher.query", 7, |t| {
            t.span("lsh.query_hash", 7, |_| ());
            t.span("candgen.probe", 7, |_| ());
        });
        let mut other = t.fork();
        other.span("serving.insert", 1, |t| {
            t.span("serving.publish", 1, |_| ())
        });
        t.absorb(other);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None, Some(3)]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.spans()[1].request, 7);
        assert_eq!(t.durations_ns("candgen.probe").len(), 1);

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().nth(4).expect("line").contains("\"parent\":3"));
    }
}
