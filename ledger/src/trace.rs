//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions: name (the layer), start, end, parent and
//! request id. They stay in memory and are written as JSON lines when the
//! run ends. A span's self time is its duration minus the part of that
//! interval its child spans cover. With tracing off every call is a no-op
//! branch, so the untraced run pays nothing measurable.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// A handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pause or resume recording (the traced run interleaves untraced and
    /// traced repetitions to measure the tracer's own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A tracer for another thread sharing this one's clock origin; merge
    /// it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer { on: self.on, origin: self.origin, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the union of its direct
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total duration ns, total self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        out
    }

    /// Mean duration of the spans called `name`, in microseconds (0 when
    /// none were recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (mut n, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// One JSON object per span: id, name, start/end/self in ns, parent id
    /// (or null) and request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("request", 0, 100, NO_PARENT),
            span("parse", 10, 30, 0),
            span("exec", 25, 60, 0),    // overlaps parse by 5
            span("inner", 30, 40, 2),   // grandchild: not subtracted from the root
            span("render", 90, 120, 0), // clipped to the parent's end
        ];
        // Children cover [10,60) and [90,100) of the root: 60 of 100.
        assert_eq!(t.self_times(), vec![40, 20, 25, 10, 30]);
        let totals = t.totals();
        assert_eq!(totals["request"], (1, 100, 40));
        assert_eq!(t.mean_us("parse"), 0.02);
        assert_eq!(t.mean_us("absent"), 0.0);
    }

    #[test]
    fn enter_exit_nest_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut other = t.fork();
        let a = other.enter("a", 9);
        other.span("b", 9, || ());
        other.exit(a);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, 2, "absorbed parents are re-based");

        let mut off = Tracer::new(false);
        let id = off.enter("x", 0);
        off.exit(id);
        assert_eq!(off.span("y", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let mut t = Tracer::new(true);
        let outer = t.enter("srv.respond", 3);
        t.span("core.exec", 3, || ());
        t.exit(outer);
        let dir = crate::env::ScratchDir::new("trace-test");
        let path = dir.path().join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").unwrap().as_str(), Some("core.exec"));
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(second.get("request").unwrap().as_f64(), Some(3.0));
        let first = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&crate::json::Json::Null));
    }
}
