//! Per-document pipeline spans.
//!
//! A serve-mode document passes through five hands: the producer admits
//! it, a worker claims it off the queue, the engine runs it, the reorder
//! buffer holds it until its turn, and the emitter writes the response.
//! [`DocSpan`] timestamps those hand-offs *telescopically*: each mark
//! records the delta since the previous mark ([`DocSpan::lap`]), so the
//! phase durations sum to exactly the admit-to-emit elapsed time — no
//! gaps, no double counting — which is what lets a postmortem's timeline
//! be checked against the document's recorded latency.
//!
//! The finished, plain-data form is [`SpanRecord`]: `Copy`, clock-free,
//! cheap enough to sit in the flight recorder's per-worker ring. Spans
//! only exist when telemetry is enabled — the untelemetered serve path
//! never constructs one, preserving the crate's no-clock-reads-unless-
//! asked discipline.

use crate::profile::StageTimes;
use crate::series::Value;
use std::time::Instant;

/// A lap timer: the clock primitive behind [`DocSpan`], shared with the
/// batch shard loop's claim/busy accounting so every pipeline timing in
/// the workspace telescopes the same way. Each [`Stopwatch::lap`]
/// returns the nanoseconds since the previous lap (or construction) and
/// advances the mark, so consecutive laps partition elapsed time with
/// no gaps or double counting.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Starts the watch now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous lap; advances the mark.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        ns
    }
}

/// The finished timeline of one document: phase durations in
/// nanoseconds, engine stage times, and the outcome code.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecord {
    /// Admission sequence number (0-based).
    pub seq: u64,
    /// Document size in bytes.
    pub bytes: u64,
    /// Admission timestamp, nanoseconds since the pipeline's epoch
    /// (connection/batch start). Zero when the producer predates the
    /// epoch plumbing; the trace renderer then falls back to packing
    /// spans end-to-end.
    pub start_ns: u64,
    /// Index of the worker that ran the document (its trace track).
    pub worker: u32,
    /// The engine route that executed the document, when known.
    pub route: Option<crate::Route>,
    /// Admission → worker claim.
    pub queue_wait_ns: u64,
    /// Worker claim → run finished (containment, deadline checks and
    /// all).
    pub run_ns: u64,
    /// Run finished → released by the reorder buffer.
    pub reorder_wait_ns: u64,
    /// Released → response bytes written.
    pub emit_ns: u64,
    /// Engine stage breakdown of the run phase (zeros unless the worker
    /// ran with a profiling recorder).
    pub stages: StageTimes,
    /// Stable error code (`timeout`, `panic`, `limit:*`, `malformed`,
    /// `io`), or `None` for a successful document.
    pub code: Option<&'static str>,
}

crate::series_rows! {
    /// The members of a span's JSON object (slow log, postmortems).
    impl SpanRecord {
        "seq" get(|r| r.seq);
        "bytes" get(|r| r.bytes);
        "start_ns" get(|r| r.start_ns);
        "worker" get(|r| u64::from(r.worker));
        "route" calc(|r| r.route.map_or(Value::Null, |route| Value::Str(route.as_str())));
        "code" calc(|r| r.code.map_or(Value::Null, Value::Str));
        "queue_wait_ns" get(|r| r.queue_wait_ns);
        "run_ns" get(|r| r.run_ns);
        "reorder_wait_ns" get(|r| r.reorder_wait_ns);
        "emit_ns" get(|r| r.emit_ns);
        "total_ns" get(|r| r.total_ns());
        "stages" calc(|r| Value::Json(r.stages.to_json()));
    }
}

impl SpanRecord {
    /// Sum of the four phase durations — by telescoping construction,
    /// the admit-to-last-mark elapsed time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns
            .saturating_add(self.run_ns)
            .saturating_add(self.reorder_wait_ns)
            .saturating_add(self.emit_ns)
    }

    /// True when the document ended in any per-document error.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.code.is_some()
    }
}

/// A live span following one document through the pipeline (see module
/// docs). Construct at admission with [`DocSpan::begin`]; mark each
/// hand-off in order; [`DocSpan::finish`] yields the [`SpanRecord`].
#[derive(Clone, Debug)]
pub struct DocSpan {
    record: SpanRecord,
    /// Each phase is the lap since the previous mark.
    watch: Stopwatch,
}

impl DocSpan {
    /// Starts a span at admission time.
    #[must_use]
    pub fn begin(seq: u64, bytes: u64) -> Self {
        Self::begin_at(seq, bytes, 0)
    }

    /// Starts a span at admission time, stamped `start_ns` nanoseconds
    /// after the pipeline's epoch — the absolute placement a timeline
    /// trace needs (phase laps alone only give durations).
    #[must_use]
    pub fn begin_at(seq: u64, bytes: u64, start_ns: u64) -> Self {
        DocSpan {
            record: SpanRecord {
                seq,
                bytes,
                start_ns,
                ..SpanRecord::default()
            },
            watch: Stopwatch::start(),
        }
    }

    /// Records which worker ran the document (its trace track).
    pub fn worker(&mut self, worker: u32) {
        self.record.worker = worker;
    }

    /// Records the engine route that executed the document.
    pub fn route(&mut self, route: crate::Route) {
        self.record.route = Some(route);
    }

    /// Nanoseconds since the previous mark; advances the mark.
    fn lap(&mut self) -> u64 {
        self.watch.lap()
    }

    /// Marks the worker claiming the document off the queue.
    pub fn claimed(&mut self) {
        let ns = self.lap();
        self.record.queue_wait_ns = ns;
    }

    /// Marks the engine run finishing (success or failure).
    pub fn ran(&mut self) {
        let ns = self.lap();
        self.record.run_ns = ns;
    }

    /// Marks the reorder buffer releasing the document to the emitter.
    pub fn released(&mut self) {
        let ns = self.lap();
        self.record.reorder_wait_ns = ns;
    }

    /// Attaches the engine stage breakdown of the run phase.
    pub fn stages(&mut self, stages: StageTimes) {
        self.record.stages = stages;
    }

    /// Records the document's failure code.
    pub fn fault(&mut self, code: &'static str) {
        self.record.code = Some(code);
    }

    /// A copy of the record as marked so far — what the flight recorder
    /// dumps when a fault cuts the pipeline short of emission.
    #[must_use]
    pub fn snapshot(&self) -> SpanRecord {
        self.record
    }

    /// Marks the response written and consumes the span. The emit phase
    /// is the final lap, so `total_ns()` of the returned record equals
    /// the admit-to-now elapsed time exactly.
    #[must_use]
    pub fn finish(mut self) -> SpanRecord {
        let ns = self.lap();
        self.record.emit_ns = ns;
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phases_telescope_to_total_elapsed() {
        let t0 = Instant::now();
        let mut span = DocSpan::begin(7, 128);
        std::thread::sleep(Duration::from_millis(2));
        span.claimed();
        std::thread::sleep(Duration::from_millis(2));
        span.ran();
        span.released();
        let record = span.finish();
        let elapsed = u64::try_from(t0.elapsed().as_nanos()).unwrap();
        assert_eq!(record.seq, 7);
        assert_eq!(record.bytes, 128);
        assert!(record.queue_wait_ns >= 1_000_000, "{record:?}");
        assert!(record.run_ns >= 1_000_000, "{record:?}");
        // The four phases sum to the full span lifetime, within the
        // slack between our outer t0 and the span's internal marks.
        assert!(record.total_ns() <= elapsed, "{record:?} vs {elapsed}");
        assert!(
            elapsed - record.total_ns() < 1_000_000,
            "telescoping leaves sub-ms slack: {record:?} vs {elapsed}"
        );
    }

    #[test]
    fn fault_and_snapshot_capture_partial_timeline() {
        let mut span = DocSpan::begin(1, 10);
        span.claimed();
        span.ran();
        span.fault("timeout");
        let snap = span.snapshot();
        assert_eq!(snap.code, Some("timeout"));
        assert!(snap.failed());
        assert_eq!(snap.reorder_wait_ns, 0, "not yet released");
        assert_eq!(snap.total_ns(), snap.queue_wait_ns + snap.run_ns);
    }

    #[test]
    fn record_json_has_stable_keys_and_null_code() {
        let mut span = DocSpan::begin(2, 64);
        span.claimed();
        span.ran();
        span.released();
        let json = span.finish().to_json();
        for key in [
            "\"seq\":2",
            "\"bytes\":64",
            "\"start_ns\":0",
            "\"worker\":0",
            "\"route\":null",
            "\"code\":null",
            "\"queue_wait_ns\":",
            "\"run_ns\":",
            "\"reorder_wait_ns\":",
            "\"emit_ns\":",
            "\"total_ns\":",
            "\"stages\":{",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let mut failed = DocSpan::begin(3, 1);
        failed.fault("limit:depth");
        assert!(failed
            .snapshot()
            .to_json()
            .contains("\"code\":\"limit:depth\""));
    }

    #[test]
    fn begin_at_stamps_epoch_offset_worker_and_route() {
        let mut span = DocSpan::begin_at(5, 32, 9_000);
        span.worker(3);
        span.route(crate::Route::FieldChain);
        span.claimed();
        span.ran();
        span.released();
        let record = span.finish();
        assert_eq!(record.start_ns, 9_000);
        assert_eq!(record.worker, 3);
        assert_eq!(record.route, Some(crate::Route::FieldChain));
        let json = record.to_json();
        assert!(json.contains("\"start_ns\":9000"), "{json}");
        assert!(json.contains("\"worker\":3"), "{json}");
        assert!(json.contains("\"route\":\"field_chain\""), "{json}");
    }
}
