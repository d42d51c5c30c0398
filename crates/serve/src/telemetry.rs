//! Live telemetry for serve mode: the shared hub and the scrape
//! endpoint.
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
//! The hub is fed by the emitter: where it counts a response into the
//! connection's report, it passes the same classification and
//! admission-to-completion latency on, so the live `rsq_serve_*` series
//! and the report cannot disagree. The hub is deliberately optional:
//! without `--telemetry-socket` no hub exists, the pipeline takes no
//! clock reads and no ring writes, and serve output is byte-identical.
//! With one, per-document cost is two `Instant::now` reads around the
//! run, one mutex acquisition at emit time, and a handful of relaxed
//! atomics.

use crate::pool::Response;
use crate::Tally;
use rsq_batch::sync::{Counter, Flag, Lock};
use rsq_obs::expo::Exposition;
use rsq_obs::series::{JsonObject, Value};
use rsq_obs::{Histogram, ServeCounters, TelemetryGauges, WindowRing, WindowSnapshot};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live mutable state behind the hub's mutex: touched once per emitted
/// document and copied out once per scrape.
struct HubState {
    counters: ServeCounters,
    latency: Histogram,
    ring: WindowRing,
}

/// The shared telemetry hub of one serving session (see module docs).
pub struct Telemetry {
    /// Clock epoch for window ticks.
    epoch: Instant,
    state: Lock<HubState>,
    /// Framed documents waiting for a worker.
    queue_depth: Counter,
    /// Documents admitted but not yet emitted.
    in_flight: Counter,
    /// Worker threads per connection.
    workers: Counter,
    /// Shutdown requested: the accept loop stops taking connections.
    shutdown: Flag,
    /// The telemetry listener thread's own stop flag (set when the
    /// serving session ends for any reason, not just via `/shutdown`).
    listener_stop: Flag,
}

impl Telemetry {
    /// Builds the hub for one serving session.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry {
            epoch: Instant::now(),
            state: Lock::new(HubState {
                counters: ServeCounters::new(),
                latency: Histogram::new(),
                ring: WindowRing::new(),
            }),
            queue_depth: Counter::new(0),
            in_flight: Counter::new(0),
            workers: Counter::new(0),
            shutdown: Flag::new(false),
            listener_stop: Flag::new(false),
        })
    }

    /// Whole seconds since the hub's epoch — the window ring's tick.
    fn tick(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// The graceful-shutdown flag, in the shape `serve_unix` expects.
    #[must_use]
    pub fn shutdown_flag(&self) -> &Flag {
        &self.shutdown
    }

    /// True once shutdown has been requested (via `/shutdown` or by the
    /// embedding process).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shutdown.get()
    }

    /// Requests graceful shutdown: `/healthz` flips to draining, the
    /// accept loop stops taking connections, in-flight work drains.
    pub fn request_shutdown(&self) {
        self.shutdown.set(true);
    }

    /// Stops the telemetry listener thread (the serving session ended).
    pub fn stop_listener(&self) {
        self.listener_stop.set(true);
    }

    pub(crate) fn gauge_admitted(&self, queued: bool) {
        self.in_flight.add(1);
        if queued {
            self.queue_depth.add(1);
        }
    }

    pub(crate) fn gauge_claimed(&self) {
        self.queue_depth.sub(1);
    }

    pub(crate) fn gauge_emitted(&self, responses: u64) {
        self.in_flight.sub(responses);
    }

    pub(crate) fn set_workers(&self, workers: u64) {
        self.workers.set(workers);
    }

    /// Counts one emitted response into the live state, in the counter
    /// the emitter's `tally` picked for the connection's report. A
    /// document a worker ran also lands in the latency histogram and the
    /// rolling window; a framer-rejected (oversize) line never visited a
    /// worker, so it counts without a latency sample.
    pub(crate) fn record_doc(&self, tally: Tally, resp: &Response) {
        let tick = self.tick();
        let mut state = self.state.lock();
        let counters = &mut state.counters;
        counters.documents = counters.documents.saturating_add(1);
        let counter = tally(counters);
        *counter = counter.saturating_add(1);
        if resp.framer_rejected {
            return;
        }
        if let Some(route) = resp.route {
            counters.record_route(route);
        }
        state.latency.record(resp.latency_ns);
        state.ring.record(
            tick,
            resp.latency_ns,
            resp.bytes,
            resp.result.is_err(),
            resp.busy_ns,
            resp.route,
        );
    }

    /// Folds connection-scoped accounting (fields the per-document path
    /// cannot see) into the live counters when a connection ends.
    pub(crate) fn record_connection(&self, counters: &ServeCounters) {
        let mut state = self.state.lock();
        state.counters += *counters;
    }

    /// Current point-in-time gauges.
    #[must_use]
    pub fn gauges(&self) -> TelemetryGauges {
        TelemetryGauges {
            queue_depth: self.queue_depth.get(),
            in_flight: self.in_flight.get(),
            workers: self.workers.get(),
        }
    }

    /// The last-10s and last-60s windows, merged under the hub's mutex
    /// and rendered by the callers after it is released: every emitted
    /// response takes that mutex in `record_doc`.
    fn windows(&self, state: &HubState) -> [WindowSnapshot; 2] {
        let tick = self.tick();
        [10, 60].map(|secs| WindowSnapshot {
            workers: self.workers.get(),
            ..state.ring.window(tick, secs)
        })
    }

    /// Renders the full live exposition: lifetime serve series, rolling
    /// windows (10s/60s), and gauges. This is the `/metrics` body, and
    /// the CLI appends the same text to `--metrics-out`.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let (counters, latency, windows) = {
            let state = self.state.lock();
            let windows = self.windows(&state);
            (state.counters, state.latency.clone(), windows)
        };
        let mut expo = Exposition::new();
        expo.rows(ServeCounters::ROWS, &counters, "");
        expo.rows(ServeCounters::LATENCY, &latency, "");
        for window in &windows {
            let label = format!("window=\"{}s\"", window.secs);
            expo.rows(WindowSnapshot::ROWS, window, &label);
        }
        expo.rows(TelemetryGauges::ROWS, &self.gauges(), "");
        expo.finish()
    }

    /// Serializes the live telemetry summary for `--stats-json`: the
    /// rolling windows. Single line, stable keys: `window_10s`,
    /// `window_60s`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let [w10, w60] = self.windows(&self.state.lock());
        let mut object = JsonObject::new();
        object.value("window_10s", Value::Json(w10.to_json()));
        object.value("window_60s", Value::Json(w60.to_json()));
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
                #[expect(
                    clippy::indexing_slicing,
                    reason = "n <= chunk.len() by the Read contract"
                )]
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
    while !hub.listener_stop.get() {
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
    use rsq_batch::{DocError, Matches};
    use rsq_engine::{LimitKind, RunError};
    use rsq_obs::Route;

    /// A worker-run response of `bytes` bytes: answered, or failed with
    /// `err`.
    fn response(bytes: u64, err: Option<RunError>) -> Response {
        Response {
            doc: Vec::new(),
            result: err.map_or(Ok(Matches::Count(1)), |e| Err(DocError::from_run(&e))),
            latency_ns: 5_000,
            framer_rejected: false,
            bytes,
            busy_ns: 1_000,
            route: None,
        }
    }

    /// Feeds `resp` to the hub the way the emitter does, an answered one
    /// as having taken `route`.
    fn record(hub: &Telemetry, resp: &Response, route: Route) {
        let resp = Response {
            route: resp.result.is_ok().then_some(route),
            doc: Vec::new(),
            result: resp.result.clone(),
            ..*resp
        };
        hub.record_doc(resp.tally(), &resp);
    }

    #[test]
    fn record_doc_feeds_windows_counters_and_exposition() {
        let hub = Telemetry::new();
        hub.set_workers(2);
        for _ in 0..4 {
            record(&hub, &response(100, None), Route::General);
        }
        record(
            &hub,
            &response(100, Some(RunError::DeadlineExceeded)),
            Route::General,
        );
        let depth = RunError::LimitExceeded {
            kind: LimitKind::Depth,
            limit: 1,
        };
        record(&hub, &response(100, Some(depth)), Route::General);
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
        assert!(json.contains("\"busy_ns\":6000"), "{json}");
    }

    #[test]
    fn routed_documents_feed_route_series_and_windows() {
        let hub = Telemetry::new();
        record(&hub, &response(100, None), Route::Selective);
        // A failed document took no route.
        let failed = response(100, Some(RunError::DeadlineExceeded));
        record(&hub, &failed, Route::Selective);
        let text = hub.render_metrics();
        rsq_obs::expo::check(&text).expect("exposition with route series passes the lint");
        assert!(
            text.contains("rsq_route_docs_total{route=\"selective\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsq_window_route_docs{window=\"10s\",route=\"selective\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn framer_rejections_count_without_a_latency_sample() {
        let hub = Telemetry::new();
        let oversize = Response {
            framer_rejected: true,
            ..response(
                0,
                Some(RunError::LimitExceeded {
                    kind: LimitKind::DocumentBytes,
                    limit: 8,
                }),
            )
        };
        record(&hub, &oversize, Route::General);
        let text = hub.render_metrics();
        assert!(text.contains("rsq_serve_documents_total 1"), "{text}");
        assert!(
            text.contains("rsq_serve_rejections_total{class=\"oversize\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rsq_window_documents{window=\"10s\"} 0"),
            "{text}"
        );
        assert_eq!(hub.state.lock().latency.count(), 0);
    }

    #[test]
    fn gauges_track_pipeline_occupancy() {
        let hub = Telemetry::new();
        hub.gauge_admitted(true);
        hub.gauge_admitted(true);
        hub.gauge_admitted(false); // framer rejection: in flight, never queued
        assert_eq!(hub.gauges().in_flight, 3);
        assert_eq!(hub.gauges().queue_depth, 2);
        hub.gauge_claimed();
        hub.gauge_emitted(1);
        assert_eq!(hub.gauges().queue_depth, 1);
        assert_eq!(hub.gauges().in_flight, 2);
    }

    #[test]
    fn shutdown_flips_health_to_draining() {
        let hub = Telemetry::new();
        assert!(!hub.draining());
        hub.request_shutdown();
        assert!(hub.draining());
        assert!(hub.shutdown_flag().get());
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
        let hub = Telemetry::new();
        record(&hub, &response(10, None), Route::General);

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
