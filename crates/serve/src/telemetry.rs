//! Live telemetry for serve mode: the shared hub, the scrape endpoint,
//! the slow-document log, and postmortem dumping.
//!
//! A serving process is a black box between start and exit unless it
//! can answer questions *while running*. This module is the answer
//! path: a [`Telemetry`] hub shared by every connection of a serving
//! session accumulates live state (lifetime counters, a rolling
//! [`WindowRing`], point-in-time gauges), and
//! [`serve_telemetry_listener`] exposes it over a second Unix socket
//! speaking just enough HTTP for `curl` and a Prometheus scraper:
//!
//! * `GET /metrics` — text exposition: the lifetime `rsq_serve_*`
//!   series plus last-10s/last-60s rolling windows and live gauges;
//! * `GET /healthz` — `200 ok` while serving, `503 draining` once
//!   shutdown has been requested;
//! * `GET /readyz` — same split, for readiness probes;
//! * `POST /shutdown` — requests graceful shutdown: the accept loop
//!   stops taking connections, in-flight work drains, `/healthz` flips
//!   to draining immediately.
//!
//! The hub is deliberately cheap and deliberately optional: when no
//! telemetry flag is set, no hub exists, the pipeline takes no clock
//! reads and no ring writes, and serve output is byte-identical to the
//! untelemetered build. When enabled, per-document cost is one
//! [`DocSpan`](rsq_obs::DocSpan) (four `Instant::now` laps), one mutex
//! acquisition at emit time, and a handful of relaxed atomics.

use rsq_obs::expo::Exposition;
use rsq_obs::series::{JsonObject, Value};
use rsq_obs::{
    FlightRecorder, Histogram, ServeCounters, SpanRecord, TelemetryGauges, WindowRing,
    WindowSnapshot,
};
use rsq_perf::PerfStats;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which telemetry features a serving session enables. All default to
/// off; [`TelemetryOptions::enabled`] gates every hot-path hook.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOptions {
    /// Slow-document threshold: a document whose admit-to-emit time
    /// reaches this many milliseconds gets one JSON line on the server
    /// process's stderr.
    pub slow_log_ms: Option<u64>,
    /// Directory receiving postmortem JSON artifacts on per-document
    /// faults. Created if missing.
    pub postmortem_dir: Option<PathBuf>,
    /// Per-worker flight-recorder ring capacity (0 = default).
    pub flight_window: usize,
    /// Force the hub on even without a slow log or postmortem dir —
    /// set when `--telemetry-socket` alone is given, so the scrape
    /// endpoint has windows and spans to report.
    pub live: bool,
}

impl TelemetryOptions {
    /// True when any telemetry feature is on (the hub should exist).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.live || self.slow_log_ms.is_some() || self.postmortem_dir.is_some()
    }
}

/// Live mutable state behind the hub's mutex: touched once per emitted
/// document and copied out once per scrape.
struct HubState {
    counters: ServeCounters,
    latency: Histogram,
    ring: WindowRing,
    /// Hardware-counter totals folded in at connection end (sampled
    /// per-worker deltas). All zeros until a connection with armed
    /// counters reports; the exposition omits the `rsq_perf_*` series
    /// while `docs == 0`.
    perf: PerfStats,
}

/// The shared telemetry hub of one serving session (see module docs).
pub struct Telemetry {
    /// Clock epoch for window ticks.
    epoch: Instant,
    state: Mutex<HubState>,
    /// Framed documents waiting for a worker.
    queue_depth: AtomicU64,
    /// Documents admitted but not yet emitted.
    in_flight: AtomicU64,
    /// Worker threads per connection.
    workers: AtomicU64,
    /// Slow-log lines written.
    slow_documents: AtomicU64,
    /// Postmortem artifacts written.
    postmortems: AtomicU64,
    /// Shutdown requested: the accept loop stops taking connections.
    shutdown: AtomicBool,
    /// The telemetry listener thread's own stop flag (set when the
    /// serving session ends for any reason, not just via `/shutdown`).
    listener_stop: AtomicBool,
    slow_log_ns: Option<u64>,
    postmortem_dir: Option<PathBuf>,
    flight_window: usize,
}

impl Telemetry {
    /// Builds the hub for one serving session.
    #[must_use]
    pub fn new(options: &TelemetryOptions) -> Arc<Self> {
        Arc::new(Telemetry {
            epoch: Instant::now(),
            state: Mutex::new(HubState {
                counters: ServeCounters::new(),
                latency: Histogram::new(),
                ring: WindowRing::new(),
                perf: PerfStats::default(),
            }),
            queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            slow_documents: AtomicU64::new(0),
            postmortems: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            listener_stop: AtomicBool::new(false),
            slow_log_ns: options.slow_log_ms.map(|ms| ms.saturating_mul(1_000_000)),
            postmortem_dir: options.postmortem_dir.clone(),
            flight_window: if options.flight_window == 0 {
                rsq_obs::DEFAULT_FLIGHT_WINDOW
            } else {
                options.flight_window
            },
        })
    }

    /// Whole seconds since the hub's epoch — the window ring's tick.
    fn tick(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Per-worker flight-recorder capacity.
    #[must_use]
    pub fn flight_window(&self) -> usize {
        self.flight_window
    }

    /// The graceful-shutdown flag, in the shape `serve_unix` expects.
    #[must_use]
    pub fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }

    /// True once shutdown has been requested (via `/shutdown` or by the
    /// embedding process).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests graceful shutdown: `/healthz` flips to draining, the
    /// accept loop stops taking connections, in-flight work drains.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Stops the telemetry listener thread (the serving session ended).
    pub fn stop_listener(&self) {
        self.listener_stop.store(true, Ordering::Release);
    }

    pub(crate) fn gauge_admitted(&self, queued: bool) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        if queued {
            self.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn gauge_claimed(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn gauge_emitted(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn set_workers(&self, workers: u64) {
        self.workers.store(workers, Ordering::Relaxed);
    }

    /// Folds one emitted document's finished span into the live state:
    /// the rolling window, the live lifetime counters, and — past the
    /// threshold — the slow-document log. `latency_ns` is the pool's
    /// recorded admission-to-completion latency (kept alongside the
    /// span's own telescoped total, which additionally covers reorder
    /// wait and emission).
    pub(crate) fn record_doc(&self, record: &SpanRecord, latency_ns: u64) {
        let tick = self.tick();
        {
            // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
            let mut state = self.state.lock().unwrap();
            state.ring.record(
                tick,
                record.total_ns(),
                record.bytes,
                record.failed(),
                record.run_ns,
                record.route,
            );
            state.latency.record(latency_ns);
            state.counters.documents = state.counters.documents.saturating_add(1);
            match record.code {
                None => {
                    state.counters.responses_ok = state.counters.responses_ok.saturating_add(1);
                    if let Some(route) = record.route {
                        state.counters.record_route(route);
                    }
                }
                Some("timeout") => {
                    state.counters.timeouts = state.counters.timeouts.saturating_add(1);
                }
                Some("malformed") => {
                    state.counters.malformed_errors =
                        state.counters.malformed_errors.saturating_add(1);
                }
                Some("panic") => {
                    state.counters.panics = state.counters.panics.saturating_add(1);
                }
                Some(code) if code.starts_with("limit:") => {
                    state.counters.limit_errors = state.counters.limit_errors.saturating_add(1);
                }
                Some(_) => {}
            }
        }
        if self.slow_log_ns.is_some_and(|t| record.total_ns() >= t) {
            self.slow_documents.fetch_add(1, Ordering::Relaxed);
            // One structured line per offender, on the server process's
            // stderr (never the connection's response stream).
            eprintln!("{{\"slow_document\":{}}}", record.to_json());
        }
    }

    /// Counts a framer-rejected (oversize) line into the live
    /// counters. It never visited a worker, so it has no span and no
    /// place in the latency windows.
    pub(crate) fn record_reject(&self) {
        // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
        let mut state = self.state.lock().unwrap();
        state.counters.documents = state.counters.documents.saturating_add(1);
        state.counters.oversize_rejections = state.counters.oversize_rejections.saturating_add(1);
    }

    /// Folds connection-scoped accounting (fields the per-document path
    /// cannot see) into the live counters when a connection ends.
    pub(crate) fn record_connection(&self, counters: &ServeCounters) {
        // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
        let mut state = self.state.lock().unwrap();
        state.counters += ServeCounters {
            connections: counters.connections,
            bytes_in: counters.bytes_in,
            io_errors: counters.io_errors,
            backpressure_waits: counters.backpressure_waits,
            max_inflight: counters.max_inflight,
            ..ServeCounters::new()
        };
    }

    /// Folds a connection's sampled hardware-counter totals into the
    /// hub, surfacing them as `rsq_perf_*` series on the scrape
    /// endpoint. No-op for all-zero stats (counters never armed).
    pub(crate) fn record_perf(&self, perf: &PerfStats) {
        if perf.docs == 0 {
            return;
        }
        // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
        let mut state = self.state.lock().unwrap();
        state.perf += *perf;
    }

    /// Writes the postmortem artifact for a faulted document: the
    /// worker's flight-recorder history plus the document's partial
    /// timeline, one JSON object per file in the configured directory.
    /// Telemetry must never take the service down, so write failures
    /// are swallowed (the artifact is best-effort; the error line on
    /// the response stream is the guaranteed signal).
    pub(crate) fn dump_postmortem(&self, worker: usize, rec: &FlightRecorder, doc: &SpanRecord) {
        let Some(dir) = &self.postmortem_dir else {
            return;
        };
        let id = self.postmortems.fetch_add(1, Ordering::Relaxed);
        let code = doc.code.unwrap_or("unknown").replace(':', "-");
        let path = dir.join(format!("postmortem-{id:06}-{code}.json"));
        let mut body = rec.postmortem_json(worker, doc);
        body.push('\n');
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(path, body);
    }

    /// Current point-in-time gauges.
    #[must_use]
    pub fn gauges(&self) -> TelemetryGauges {
        TelemetryGauges {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            slow_documents: self.slow_documents.load(Ordering::Relaxed),
            postmortems: self.postmortems.load(Ordering::Relaxed),
        }
    }

    /// The last-10s and last-60s windows, merged under the hub's mutex
    /// and rendered by the callers after it is released: every emitted
    /// document takes that mutex in `record_doc`.
    fn windows(&self, state: &HubState) -> [WindowSnapshot; 2] {
        let tick = self.tick();
        [10, 60].map(|secs| WindowSnapshot {
            workers: self.workers.load(Ordering::Relaxed),
            ..state.ring.window(tick, secs)
        })
    }

    /// Renders the full live exposition: lifetime serve series, rolling
    /// windows (10s/60s), and gauges. This is the `/metrics` body, and
    /// the CLI appends the same text to `--metrics-out`.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let (counters, latency, windows, perf) = {
            // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
            let state = self.state.lock().unwrap();
            let windows = self.windows(&state);
            (state.counters, state.latency.clone(), windows, state.perf)
        };
        let mut expo = Exposition::new();
        expo.rows(ServeCounters::ROWS, &counters, "");
        expo.rows(ServeCounters::LATENCY, &latency, "");
        for window in &windows {
            let label = format!("window=\"{}s\"", window.secs);
            expo.rows(WindowSnapshot::ROWS, window, &label);
        }
        expo.rows(TelemetryGauges::ROWS, &self.gauges(), "");
        if perf.docs > 0 {
            expo.rows(PerfStats::ROWS, &perf, "");
        }
        expo.finish()
    }

    /// Serializes the live telemetry summary for `--stats-json`:
    /// rolling windows plus slow-log and postmortem counters. Single
    /// line, stable keys: `window_10s`, `window_60s`, `slow_documents`,
    /// `postmortems`.
    #[must_use]
    pub fn to_json(&self) -> String {
        // PANIC-OK: telemetry mutex poisoned only if a panic escaped containment; crash rather than publish torn counters
        let [w10, w60] = self.windows(&self.state.lock().unwrap());
        let mut object = JsonObject::new();
        object.value("window_10s", Value::Json(w10.to_json()));
        object.value("window_60s", Value::Json(w60.to_json()));
        object.rows(TelemetryGauges::ROWS, &self.gauges());
        object.finish()
    }
}

/// Minimal HTTP response writer: status line, fixed headers, body.
fn respond(
    stream: &mut impl Write,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Reads one HTTP request head (bounded) and returns `(method, path)`.
fn read_request(stream: &mut impl Read) -> Option<(String, String)> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                // PANIC-OK: n <= chunk.len() by the Read contract
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 4096 {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    Some((method, path))
}

/// Handles one scrape connection against the hub.
fn handle_telemetry_conn(hub: &Telemetry, stream: &mut (impl Read + Write)) {
    let Some((method, path)) = read_request(stream) else {
        return;
    };
    let result = match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            let body = hub.render_metrics();
            respond(stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        ("GET", "/healthz" | "/readyz") => {
            if hub.draining() {
                respond(
                    stream,
                    "503 Service Unavailable",
                    "text/plain",
                    "draining\n",
                )
            } else {
                respond(stream, "200 OK", "text/plain", "ok\n")
            }
        }
        ("POST" | "GET", "/shutdown") => {
            hub.request_shutdown();
            respond(stream, "200 OK", "text/plain", "draining\n")
        }
        _ => respond(stream, "404 Not Found", "text/plain", "not found\n"),
    };
    let _ = result;
}

/// Runs the telemetry endpoint's accept loop on the calling thread,
/// answering scrapes against `hub` until [`Telemetry::stop_listener`]
/// is called. Scrapes are handled serially — a scrape is a read-only
/// render, and serializing them keeps the listener a single cheap
/// thread.
///
/// # Errors
///
/// Returns socket-setup errors only; per-scrape I/O failures are
/// dropped (the scraper retries, the server keeps serving).
#[cfg(unix)]
pub fn serve_telemetry_listener(
    hub: &Telemetry,
    listener: &std::os::unix::net::UnixListener,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    while !hub.listener_stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                handle_telemetry_conn(hub, &mut stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_obs::DocSpan;

    fn finished_span(seq: u64, bytes: u64, code: Option<&'static str>) -> SpanRecord {
        let mut span = DocSpan::begin(seq, bytes);
        span.claimed();
        span.ran();
        span.released();
        if let Some(code) = code {
            span.fault(code);
        }
        span.finish()
    }

    #[test]
    fn options_gate_the_hub() {
        assert!(!TelemetryOptions::default().enabled());
        assert!(TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        }
        .enabled());
        assert!(TelemetryOptions {
            slow_log_ms: Some(5),
            ..TelemetryOptions::default()
        }
        .enabled());
        assert!(TelemetryOptions {
            postmortem_dir: Some(PathBuf::from("/tmp/x")),
            ..TelemetryOptions::default()
        }
        .enabled());
    }

    #[test]
    fn record_doc_feeds_windows_counters_and_exposition() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        hub.set_workers(2);
        for seq in 0..4 {
            hub.record_doc(&finished_span(seq, 100, None), 5_000);
        }
        hub.record_doc(&finished_span(4, 100, Some("timeout")), 9_000);
        hub.record_doc(&finished_span(5, 100, Some("limit:depth")), 9_000);
        let text = hub.render_metrics();
        rsq_obs::expo::check(&text).expect("live exposition passes the lint");
        assert!(text.contains("rsq_serve_documents_total 6"), "{text}");
        assert!(text.contains("rsq_serve_responses_ok_total 4"), "{text}");
        assert!(
            text.contains("rsq_serve_rejections_total{class=\"timeout\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsq_serve_rejections_total{class=\"limit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsq_window_documents{window=\"10s\"} 6"),
            "{text}"
        );
        assert!(text.contains("rsq_window_latency_ns{window=\"60s\",quantile=\"0.99\"}"));
        assert!(text.contains("rsq_workers 2"), "{text}");
        let json = hub.to_json();
        assert!(json.contains("\"window_10s\":{\"secs\":10"), "{json}");
        assert!(json.contains("\"slow_documents\":0"), "{json}");
    }

    #[test]
    fn routed_spans_feed_route_series_and_windows() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        let mut span = DocSpan::begin(0, 100);
        span.route(rsq_obs::Route::FieldChain);
        span.claimed();
        span.ran();
        span.released();
        hub.record_doc(&span.finish(), 5_000);
        // A failed document's route never counts as answered.
        let mut failed = DocSpan::begin(1, 100);
        failed.route(rsq_obs::Route::FieldChain);
        failed.claimed();
        failed.ran();
        failed.released();
        failed.fault("timeout");
        hub.record_doc(&failed.finish(), 5_000);
        let text = hub.render_metrics();
        rsq_obs::expo::check(&text).expect("exposition with route series passes the lint");
        assert!(
            text.contains("rsq_route_docs_total{route=\"field_chain\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsq_window_route_docs{window=\"10s\",route=\"field_chain\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn perf_totals_surface_in_exposition_only_once_reported() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        assert!(
            !hub.render_metrics().contains("rsq_perf_"),
            "no perf series before any report"
        );
        hub.record_perf(&PerfStats::default()); // zero docs: ignored
        assert!(!hub.render_metrics().contains("rsq_perf_"));
        let mut perf = PerfStats::default();
        perf.add_run(
            1_000,
            &rsq_perf::CounterValues {
                cycles: 2_000,
                instructions: 4_000,
                time_enabled: 10,
                time_running: 10,
                ..rsq_perf::CounterValues::default()
            },
        );
        hub.record_perf(&perf);
        let text = hub.render_metrics();
        rsq_obs::expo::check(&text).expect("exposition with perf series passes the lint");
        assert!(text.contains("rsq_perf_cycles_total 2000"), "{text}");
        assert!(text.contains("rsq_perf_cycles_per_byte 2.0000"), "{text}");
    }

    #[test]
    fn gauges_track_pipeline_occupancy() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        hub.gauge_admitted(true);
        hub.gauge_admitted(true);
        hub.gauge_admitted(false); // framer rejection: in flight, never queued
        assert_eq!(hub.gauges().in_flight, 3);
        assert_eq!(hub.gauges().queue_depth, 2);
        hub.gauge_claimed();
        hub.gauge_emitted();
        assert_eq!(hub.gauges().queue_depth, 1);
        assert_eq!(hub.gauges().in_flight, 2);
    }

    #[test]
    fn postmortem_artifact_lands_in_dir_with_wellformed_timeline() {
        let dir = std::env::temp_dir().join(format!("rsq-pm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = Telemetry::new(&TelemetryOptions {
            postmortem_dir: Some(dir.clone()),
            ..TelemetryOptions::default()
        });
        let mut rec = FlightRecorder::new(4);
        rec.push(finished_span(0, 50, None));
        let mut span = DocSpan::begin(1, 80);
        span.claimed();
        span.ran();
        span.fault("timeout");
        let doc = span.snapshot();
        hub.dump_postmortem(3, &rec, &doc);
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let path = entries[0].as_ref().unwrap().path();
        assert!(
            path.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .contains("timeout"),
            "{path:?}"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"code\":\"timeout\""), "{body}");
        assert!(body.contains("\"worker\":3"), "{body}");
        assert!(
            body.contains(&format!("\"latency_ns\":{}", doc.total_ns())),
            "{body}"
        );
        assert_eq!(hub.gauges().postmortems, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flips_health_to_draining() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        assert!(!hub.draining());
        hub.request_shutdown();
        assert!(hub.draining());
        assert!(hub.shutdown_flag().load(Ordering::SeqCst));
    }

    #[cfg(unix)]
    #[test]
    fn http_listener_answers_metrics_health_and_shutdown() {
        use std::os::unix::net::{UnixListener, UnixStream};

        let dir = std::env::temp_dir().join(format!("rsq-tel-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("telemetry.sock");
        let listener = UnixListener::bind(&sock).unwrap();
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        hub.record_doc(&finished_span(0, 10, None), 1_000);

        std::thread::scope(|scope| {
            let hub_ref = &hub;
            let server = scope.spawn(move || serve_telemetry_listener(hub_ref, &listener));

            let get = |path: &str| -> String {
                let mut c = UnixStream::connect(&sock).unwrap();
                write!(c, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
                c.shutdown(std::net::Shutdown::Write).unwrap();
                let mut s = String::new();
                c.read_to_string(&mut s).unwrap();
                s
            };

            let metrics = get("/metrics");
            assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
            assert!(metrics.contains("rsq_serve_documents_total 1"), "{metrics}");
            assert!(metrics.contains("rsq_window_documents"), "{metrics}");
            let body = metrics.split("\r\n\r\n").nth(1).unwrap();
            rsq_obs::expo::check(body).expect("scraped body passes the lint");

            assert!(get("/healthz").starts_with("HTTP/1.0 200 OK"));
            assert!(get("/nope").starts_with("HTTP/1.0 404"));

            let sd = get("/shutdown");
            assert!(sd.starts_with("HTTP/1.0 200 OK"), "{sd}");
            assert!(hub.draining());
            let health = get("/healthz");
            assert!(health.starts_with("HTTP/1.0 503"), "{health}");
            assert!(health.contains("draining"), "{health}");

            hub.stop_listener();
            server.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
