//! In-memory spans for the traced pass, written out once as Chrome
//! trace-event JSON (the format `rsq --trace-out` already uses).
//!
//! All spans live in the harness: the traced pass brackets its own calls
//! into each layer's public functions. No crate under `crates/` is touched.

use crate::json_out;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one workload; span 0 is the workload's root, so every
/// span of a workload shares its identifier through the parent chain.
pub struct Tracer {
    pub workload: &'static str,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str, epoch: Instant) -> Self {
        let mut tracer = Tracer {
            workload,
            epoch,
            spans: Vec::new(),
        };
        tracer.begin("workload", None);
        tracer
    }

    pub const ROOT: SpanId = 0;

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Runs `f` inside a span under `parent`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, Some(parent));
        let value = std::hint::black_box(f());
        (value, self.end(id))
    }

    /// A span's duration minus the part of it its direct children cover
    /// (children may overlap each other; covered time counts once).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        span.dur_ns() - covered
    }

    /// Does every span lie inside its parent?
    pub fn nests(&self) -> bool {
        self.spans.iter().all(|s| {
            s.parent.is_none_or(|p| {
                let parent = &self.spans[p];
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns
            })
        })
    }
}

/// All tracers as one Chrome trace: one process track per workload, one
/// complete (`"ph":"X"`) event per span carrying its id, parent and self
/// time in `args`.
pub fn chrome_trace_json(tracers: &[Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, tracer) in tracers.iter().enumerate() {
        for (id, span) in tracer.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":{},\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"self_ns\":{}}}}}",
                json_out::string(span.name),
                json_out::string(tracer.workload),
                span.start_ns / 1000,
                span.start_ns % 1000,
                span.dur_ns() / 1000,
                span.dur_ns() % 1000,
                pid + 1,
                tracer.self_ns(id),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        Tracer {
            workload: "w",
            epoch: Instant::now(),
            spans: spans
                .iter()
                .map(|&(name, start_ns, end_ns, parent)| Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer_with(&[
            ("root", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 30, 60, Some(0)), // overlaps a: 10..60 is covered once
            ("c", 70, 80, Some(0)),
            ("grandchild", 12, 20, Some(1)), // not a direct child of root
        ]);
        assert_eq!(t.self_ns(0), 100 - 50 - 10);
        assert_eq!(t.self_ns(1), 30 - 8);
        assert_eq!(t.self_ns(3), 10);
        assert!(t.nests());
    }

    #[test]
    fn a_child_outside_its_parent_does_not_nest() {
        let t = tracer_with(&[("root", 10, 20, None), ("late", 15, 25, Some(0))]);
        assert!(!t.nests());
        assert_eq!(t.self_ns(0), 5);
    }

    #[test]
    fn recorded_spans_nest_and_render_as_valid_json() {
        let mut t = Tracer::new("cli-count-b1", Instant::now());
        let outer = t.begin("pipeline", Some(Tracer::ROOT));
        let (value, secs) = t.time("engine.count", outer, || 7);
        t.end(outer);
        t.end(Tracer::ROOT);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(t.nests());
        let json = chrome_trace_json(&[t]);
        let root = rsq_json::parse(json.as_bytes()).expect("valid JSON");
        let rsq_json::ValueKind::Object(members) = &root.kind else {
            panic!("not an object");
        };
        let rsq_json::ValueKind::Array(events) = &members[0].1.kind else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), 3);
    }
}
