//! Serving-layer counters (Tier A).
//!
//! [`ServeCounters`] is the serve-mode sibling of
//! [`BatchCounters`](crate::BatchCounters): plain saturating `u64`
//! counters describing long-lived streaming service — connections
//! handled, documents framed and answered, and one counter per failure
//! class so an operator can tell a client streaming garbage (malformed)
//! from one streaming too slowly (timeouts) from one streaming too much
//! (oversize rejections, backpressure waits). `rsq-serve` fills one in
//! per connection; reports from many connections merge with `+`/`+=`.

use crate::hist::Histogram;
use crate::series::{Row, Value};
use crate::Route;
use std::fmt;

/// Counters describing streaming service over one or more connections.
///
/// All counters saturate instead of wrapping, so accumulation can never
/// panic (even under `-C overflow-checks=on`) and merged totals are
/// monotone. `max_inflight` is a high-water mark and merges with `max`,
/// not `+`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections (or pipe sessions) served.
    pub connections: u64,
    /// Documents framed out of the chunk streams (whether they later
    /// succeeded or failed).
    pub documents: u64,
    /// Raw bytes read off the wire, including framing newlines and
    /// discarded oversize bytes.
    pub bytes_in: u64,
    /// Documents answered with a successful result line.
    pub responses_ok: u64,
    /// Documents that missed their deadline (error code `timeout`).
    pub timeouts: u64,
    /// Lines rejected by the framer's byte cap before buffering
    /// (error code `limit:document-bytes`).
    pub oversize_rejections: u64,
    /// Documents rejected by an engine resource limit other than the
    /// framer's byte cap (`limit:*` codes).
    pub limit_errors: u64,
    /// Documents rejected by strict-mode validation (`malformed`).
    pub malformed_errors: u64,
    /// Worker panics contained at the document boundary (`panic`).
    pub panics: u64,
    /// Connections that ended in a non-transient read error
    /// (mid-stream disconnect) rather than clean EOF.
    pub io_errors: u64,
    /// Times the reader paused because the in-flight queue was full —
    /// each wait is backpressure propagating to the client.
    pub backpressure_waits: u64,
    /// High-water mark of documents in flight at once. Merges with
    /// `max`: the merged value is the worst moment across connections,
    /// not a sum.
    pub max_inflight: u64,
    /// Successfully answered documents by the engine route that ran
    /// them, indexed by [`Route::index`](crate::Route::index) — the
    /// `rsq_route_docs_total{route=...}` series.
    pub route_docs: [u64; 2],
}

crate::series_rows! {
    /// Every field, once. `max_inflight` merges with `max`; the I/O
    /// series come after the per-route ones in the exposition.
    /// `route_docs` is an object keyed by route name.
    #[expect(
        clippy::indexing_slicing,
        reason = "`sum_at` indexes an array by the `index()` of the enum it is sized by"
    )]
    impl ServeCounters, merged {
        "connections" sum(|c| c.connections) => counter rsq_serve_connections_total "Connections (or pipe sessions) served.";
        "documents" sum(|c| c.documents) => counter rsq_serve_documents_total "Documents framed out of the chunk streams.";
        "bytes_in" sum(|c| c.bytes_in) => counter rsq_serve_bytes_in_total "Raw bytes read off the wire.";
        "responses_ok" sum(|c| c.responses_ok) => counter rsq_serve_responses_ok_total "Documents answered with a successful result line.";
        "timeouts" sum(|c| c.timeouts) => counter rsq_serve_rejections_total {class="timeout"} "Failed documents, by failure class.";
        "oversize_rejections" sum(|c| c.oversize_rejections) => counter rsq_serve_rejections_total {class="oversize"} "Failed documents, by failure class.";
        "limit_errors" sum(|c| c.limit_errors) => counter rsq_serve_rejections_total {class="limit"} "Failed documents, by failure class.";
        "malformed_errors" sum(|c| c.malformed_errors) => counter rsq_serve_rejections_total {class="malformed"} "Failed documents, by failure class.";
        "panics" sum(|c| c.panics) => counter rsq_serve_rejections_total {class="panic"} "Failed documents, by failure class.";
        "io_errors" sum(|c| c.io_errors) => counter rsq_serve_io_errors_total "Connections ended by a non-transient read error." late;
        "backpressure_waits" sum(|c| c.backpressure_waits) => counter rsq_serve_backpressure_waits_total "Reader pauses forced by a full in-flight queue." late;
        "max_inflight" max(|c| c.max_inflight) => gauge rsq_serve_max_inflight "High-water mark of documents in flight at once." late;
        "route_docs.selective" sum_at(|c| c.route_docs, Route::Selective) => counter rsq_route_docs_total {route="selective"} "Documents answered, by engine route.";
        "route_docs.general" sum_at(|c| c.route_docs, Route::General) => counter rsq_route_docs_total {route="general"} "Documents answered, by engine route.";
    }
}

impl ServeCounters {
    /// A zeroed report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one answered document against `route`.
    pub fn record_route(&mut self, route: crate::Route) {
        #[expect(
            clippy::indexing_slicing,
            reason = "Route::index is < the per-route array length (one slot per route)"
        )]
        let slot = &mut self.route_docs[route.index()];
        *slot = slot.saturating_add(1);
    }

    /// Documents answered via `route`.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "Route::index is < the per-route array length (one slot per route)"
    )]
    pub fn route_docs(&self, route: crate::Route) -> u64 {
        self.route_docs[route.index()]
    }

    /// Documents that ended in any per-document error.
    #[must_use]
    pub fn failed_documents(&self) -> u64 {
        self.timeouts
            .saturating_add(self.oversize_rejections)
            .saturating_add(self.limit_errors)
            .saturating_add(self.malformed_errors)
            .saturating_add(self.panics)
    }

    /// The lifetime document-latency histogram a serve report carries
    /// beside the counters: exposition only.
    pub const LATENCY: &'static [Row<Histogram>] = crate::series_rows! {
        "" calc(|h| Value::Histogram(h)) => gauge rsq_serve_document_latency_ns "Lifetime document latency quantiles (log2-bucket resolution).";
    };
}

impl fmt::Display for ServeCounters {
    /// Human-readable table (multi-line), for `--stats` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "connections        {} ({} io errors)",
            self.connections, self.io_errors
        )?;
        writeln!(
            f,
            "documents          {} ({} ok, {} failed)",
            self.documents,
            self.responses_ok,
            self.failed_documents()
        )?;
        writeln!(f, "bytes in           {}", self.bytes_in)?;
        writeln!(
            f,
            "rejections         {} timeout, {} oversize, {} limit, {} malformed, {} panic",
            self.timeouts,
            self.oversize_rejections,
            self.limit_errors,
            self.malformed_errors,
            self.panics
        )?;
        writeln!(
            f,
            "backpressure       {} waits (max {} in flight)",
            self.backpressure_waits, self.max_inflight
        )?;
        write!(
            f,
            "routes             {} selective, {} general",
            self.route_docs(crate::Route::Selective),
            self.route_docs(crate::Route::General),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_stable_keys() {
        let json = ServeCounters::new().to_json();
        for key in [
            "connections",
            "documents",
            "bytes_in",
            "responses_ok",
            "timeouts",
            "oversize_rejections",
            "limit_errors",
            "malformed_errors",
            "panics",
            "io_errors",
            "backpressure_waits",
            "max_inflight",
            "route_docs",
            "selective",
            "general",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(!json.contains('\n'));
    }

    #[test]
    fn route_docs_count_and_merge() {
        let mut a = ServeCounters::new();
        a.record_route(crate::Route::Selective);
        a.record_route(crate::Route::Selective);
        a.record_route(crate::Route::General);
        let mut b = ServeCounters::new();
        b.record_route(crate::Route::Selective);
        let sum = a + b;
        assert_eq!(sum.route_docs(crate::Route::Selective), 3);
        assert_eq!(sum.route_docs(crate::Route::General), 1);
        let json = sum.to_json();
        assert!(
            json.contains("\"route_docs\":{\"selective\":3,\"general\":1}"),
            "{json}"
        );
    }

    #[test]
    fn failed_documents_sums_failure_classes() {
        let c = ServeCounters {
            timeouts: 1,
            oversize_rejections: 2,
            limit_errors: 3,
            malformed_errors: 4,
            panics: 5,
            ..ServeCounters::new()
        };
        assert_eq!(c.failed_documents(), 15);
        let text = c.to_string();
        assert!(text.contains("backpressure"), "{text}");
        assert!(text.contains("15 failed"), "{text}");
    }
}
