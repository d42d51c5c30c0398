//! The fault flight recorder.
//!
//! When a serve-mode document times out, panics, trips a limit, or
//! fails validation, the interesting question is rarely "what was this
//! document" — it is "what was this *worker* doing leading up to it".
//! [`FlightRecorder`] is a bounded ring of the worker's most recent
//! [`SpanRecord`]s, owned by the worker thread (no locking, no sharing),
//! costing one `Copy` write per document when telemetry is enabled and
//! nothing at all when it is not.
//!
//! On a fault the recorder assembles a **postmortem**: one JSON object
//! holding the failing document's (partial) timeline, its error code,
//! the worker index, and the ring's recent history, newest first. The
//! serve layer writes it to `--postmortem-dir`; tests and the CI gate
//! parse it back to check the timeline telescopes to the recorded
//! latency.

use crate::series::{self, JsonObject, Value};
use crate::span::SpanRecord;
use std::collections::VecDeque;

/// Default ring capacity per worker: enough history to see a pattern
/// (one slow client, one poisoned corpus) without unbounded growth.
pub const DEFAULT_FLIGHT_WINDOW: usize = 16;

/// A bounded ring of one worker's recent document spans.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: VecDeque<SpanRecord>,
    cap: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` spans (`cap` 0 is treated
    /// as 1: a recorder that cannot remember anything is useless).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            ring: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Records a finished document, evicting the oldest beyond the cap.
    pub fn push(&mut self, record: SpanRecord) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }

    /// Spans currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Number of spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no spans are held yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Assembles the postmortem JSON for a faulted document: its error
    /// code and timeline (`doc`), the `worker` that ran it, and this
    /// recorder's `recent` history newest-first (the faulted document
    /// itself is *not* in `recent`; it is the subject). Single line,
    /// stable keys: `schema_version`, `worker`, `code`, `latency_ns`,
    /// `doc`, `recent`.
    #[must_use]
    pub fn postmortem_json(&self, worker: usize, doc: &SpanRecord) -> String {
        let mut object = JsonObject::new();
        object.value("schema_version", Value::U64(crate::STATS_SCHEMA_VERSION));
        object.value("worker", Value::U64(worker as u64));
        object.value("code", Value::Str(doc.code.unwrap_or("unknown")));
        object.value("latency_ns", Value::U64(doc.total_ns()));
        object.value("doc", Value::Json(doc.to_json()));
        let recent = series::to_json_array(SpanRecord::ROWS, self.ring.iter().rev());
        object.value("recent", Value::Json(recent));
        object.finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_WINDOW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::DocSpan;

    fn record(seq: u64) -> SpanRecord {
        let mut span = DocSpan::begin(seq, 100);
        span.claimed();
        span.ran();
        span.released();
        span.finish()
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for seq in 0..5 {
            rec.push(record(seq));
        }
        assert_eq!(rec.len(), 3);
        let seqs: Vec<u64> = rec.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut rec = FlightRecorder::new(0);
        rec.push(record(1));
        rec.push(record(2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.records().next().unwrap().seq, 2);
    }

    #[test]
    fn postmortem_carries_doc_code_and_recent_history_newest_first() {
        let mut rec = FlightRecorder::new(4);
        for seq in 0..3 {
            rec.push(record(seq));
        }
        let mut span = DocSpan::begin(9, 50);
        span.claimed();
        span.ran();
        span.fault("timeout");
        let doc = span.snapshot();
        let json = rec.postmortem_json(1, &doc);
        assert!(json.contains("\"schema_version\":"), "{json}");
        assert!(json.contains("\"worker\":1"), "{json}");
        assert!(json.contains("\"code\":\"timeout\""), "{json}");
        assert!(json.contains("\"seq\":9"), "{json}");
        // Newest-first history: seq 2 before seq 1 before seq 0.
        let (p2, p1, p0) = (
            json.find("\"seq\":2").unwrap(),
            json.find("\"seq\":1").unwrap(),
            json.find("\"seq\":0").unwrap(),
        );
        assert!(p2 < p1 && p1 < p0, "{json}");
        // The subject's latency is its telescoped timeline total.
        assert!(
            json.contains(&format!("\"latency_ns\":{}", doc.total_ns())),
            "{json}"
        );
        assert!(!json.contains('\n'));
    }
}
