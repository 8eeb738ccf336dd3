//! In-memory spans for the traced replay.
//!
//! A span records a name, start, end, parent span and request id. Spans
//! are appended to a per-thread [`Tracer`] while the replay runs and
//! written out as JSON lines when the benchmark ends. A span's self time
//! is its duration minus the time its direct children cover. A disabled
//! tracer runs the wrapped call and records nothing, so the untraced and
//! traced replays execute the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.ees`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    req: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            req: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Attribute the following spans to request `req`.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        crate::stats::nanos(self.origin.elapsed())
    }

    /// Open a span named `name`; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req: self.req,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span [`Tracer::enter`] opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.stack.pop();
            self.spans[id].end_ns = self.now();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, shifting parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Per span name: (count, total duration, total self time).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur();
        e.2 += own;
    }
    out
}

/// Write `spans` as JSON lines (one object per span, with self time).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        // Span names are static identifiers; no escaping is needed.
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"self_ns\":{own}}}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            req: 1,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 50, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
        let t = totals(&spans);
        assert_eq!(t["root"], (1, 100, 70));
        assert_eq!(t["leaf"], (1, 8, 8));
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.set_req(7);
        let v = t.span("outer", |t| t.span("inner", |_| 5));
        assert_eq!(v, 5);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, origin);
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_shifts_parents() {
        let a = vec![span("x", 0, 1, None), span("y", 0, 1, Some(0))];
        let b = vec![span("x", 0, 1, None), span("y", 0, 1, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
    }
}
