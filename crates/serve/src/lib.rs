//! Resilient streaming serve mode for `rsq`.
//!
//! Batch mode answers one request over inputs it can see whole; this
//! crate keeps the engine resident and answers an *unbounded stream* of
//! NDJSON documents arriving as arbitrary chunks on a pipe or Unix
//! socket. The protocol is deliberately plain: the client streams
//! newline-delimited JSON documents; the server streams back one
//! response per document, **in input order**, in the same formats as
//! `rsq --batch-ndjson` — so for every document that survives, serve
//! output is byte-identical to a batch run over the same lines.
//!
//! What makes it *resilient* rather than merely incremental:
//!
//! * **Incremental framing** — [`NdjsonFramer`] carries the quote
//!   scanner's in-string/escape state across chunk boundaries, so a
//!   document split at any byte (including mid-escape) frames exactly
//!   as the batch splitter would have framed it, and never buffers more
//!   than the configured document byte cap.
//! * **Backpressure** — a connection holds at most 128 KiB of admitted
//!   document bytes per worker (or one document, if that is larger), and
//!   at most [`ServeOptions::max_inflight`] unanswered documents. When
//!   either bound is hit the server stops reading the connection, which
//!   propagates to the client through the transport. Buffered memory per
//!   connection is therefore a small multiple of `128 KiB × workers`
//!   plus one `max_document_bytes` line in the framer — not
//!   `max_inflight × max_document_bytes` — and finished document
//!   buffers are recycled to the framer rather than reallocated.
//! * **Deadlines** — an optional per-document budget from admission;
//!   expiry is a per-document `timeout` error, not a connection event.
//! * **Fault isolation** — every per-document failure (resource limit,
//!   strict-mode rejection, deadline, contained worker panic) answers
//!   *that* document with a machine-readable error code and leaves the
//!   connection serving. Only transport errors end a connection, and
//!   even then already-admitted documents drain.
//!
//! [`ChaosStream`] is the test harness's hostile client: seeded
//! pathological fragmentation, transient stalls, truncation, and
//! mid-stream disconnects, replayable from a [`ChaosPlan`].

#![warn(missing_docs)]

mod chaos;
mod pool;
mod telemetry;

pub use chaos::{ChaosFault, ChaosPlan, ChaosStream};
#[cfg(unix)]
pub use telemetry::serve_telemetry_listener;
pub use telemetry::{Telemetry, TelemetryOptions};

use pool::Pool;
use rsq_batch::{DocError, DocErrorKind, DocRunner, Frame, NdjsonFramer, Record};
use rsq_engine::{Engine, EngineOptions, LimitKind, RunError};
use rsq_obs::{FlightRecorder, Histogram, ProfileStats, ServeCounters, SpanRecord};
use rsq_perf::{PerfMode, PerfStats};
use rsq_query::Query;
use std::io::{self, Read, Write};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// One in every this-many documents per worker runs with the Tier C
/// stage-timer recorder when telemetry is on; the rest take the plain
/// (clock-free) engine path. The profiled path reads the monotonic
/// clock around every fast-forward, which costs double-digit percent on
/// skip-heavy queries — sampling keeps the armed-telemetry tax under
/// the 2% budget the `telemetry-overhead` bench asserts, while slow-log
/// and postmortem records still get a periodic stage breakdown.
const STAGE_SAMPLE_INTERVAL: usize = 32;

/// What the server writes back for each successfully processed
/// document. Mirrors the batch CLI's output modes byte-for-byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResponseMode {
    /// One line per document: the match count.
    #[default]
    Count,
    /// One line per match: the byte offset.
    Positions,
    /// One line per match: the matched node's text.
    Values,
}

/// Configuration for a serving session.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The JSONPath query every document is matched against.
    pub query: String,
    /// Engine options — including the resource limits
    /// (`max_document_bytes`, `max_depth`, `max_label_bytes`,
    /// `max_matches`) that double as the per-connection caps.
    pub engine: EngineOptions,
    /// Response format (see [`ResponseMode`]).
    pub mode: ResponseMode,
    /// Worker threads per connection (0 = one per available CPU).
    pub threads: usize,
    /// Ceiling on documents admitted but not yet answered: the length
    /// of the job queue plus the reorder buffer. It does not bound
    /// memory on its own — admission also stops once the admitted
    /// documents hold 128 KiB per worker (a lone larger document is
    /// still admitted when nothing else is in flight), so the window is
    /// `min(max_inflight, however many documents fit the byte budget)`.
    pub max_inflight: usize,
    /// Per-document processing budget, measured from admission.
    /// `None` = no deadline. `Some(Duration::ZERO)` deterministically
    /// times out every document (useful in tests).
    pub deadline: Option<Duration>,
    /// Collect every document's finished pipeline span into
    /// [`ServeReport::spans`] for timeline-trace export (`--trace-out`).
    /// Off by default: the plain path keeps its no-clock-reads
    /// guarantee.
    pub collect_spans: bool,
    /// Hardware-counter mode for the per-worker sampled cycle
    /// accounting. [`PerfMode::Off`] by default — the CLI arms this
    /// only when a reporting sink (stats, metrics, telemetry) exists.
    pub perf: PerfMode,
}

impl ServeOptions {
    /// Default document ceiling: deep enough to keep a pool of workers
    /// busy over a bursty pipe of small documents; for large ones the
    /// byte budget closes the window first.
    pub const DEFAULT_MAX_INFLIGHT: usize = 64;

    /// Options for `query` with engine defaults, count responses, one
    /// worker per CPU, the default in-flight bound, and no deadline.
    #[must_use]
    pub fn new(query: &str) -> Self {
        ServeOptions {
            query: query.to_owned(),
            engine: EngineOptions::default(),
            mode: ResponseMode::Count,
            threads: 0,
            max_inflight: Self::DEFAULT_MAX_INFLIGHT,
            deadline: None,
            collect_spans: false,
            perf: PerfMode::Off,
        }
    }

    /// Worker count a connection will actually use.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Fatal serve-setup failure: the query does not parse or compile.
/// (Everything after setup is per-document and non-fatal.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// Rendered description of the failure.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServeError {}

/// What one serving session (or an aggregate of sessions) did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Tier A serve counters (documents, failure classes, backpressure).
    pub counters: ServeCounters,
    /// Admission-to-completion latency of worker-processed documents,
    /// in nanoseconds.
    pub latency: Histogram,
    /// The first per-document failure's class, for exit-code mapping.
    pub first_failure: Option<DocErrorKind>,
    /// `true` when the stream ended in clean EOF and every response was
    /// written; `false` after a mid-stream disconnect or a failed
    /// response write.
    pub clean: bool,
    /// Finished pipeline spans in emission order, for timeline-trace
    /// export. Empty unless [`ServeOptions::collect_spans`] was set.
    pub spans: Vec<SpanRecord>,
    /// Sampled hardware-counter totals across the session's workers.
    /// `None` when counters were off or unavailable (denied hosts).
    pub perf: Option<PerfStats>,
}

impl Default for ServeReport {
    fn default() -> Self {
        ServeReport {
            counters: ServeCounters::new(),
            latency: Histogram::new(),
            first_failure: None,
            clean: true,
            spans: Vec::new(),
            perf: None,
        }
    }
}

impl ServeReport {
    /// Folds another session's report into this aggregate.
    pub fn merge(&mut self, other: &ServeReport) {
        self.counters += other.counters;
        self.latency += &other.latency;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.clean &= other.clean;
        self.spans.extend_from_slice(&other.spans);
        if let Some(p) = other.perf {
            *self.perf.get_or_insert_with(PerfStats::default) += p;
        }
    }
}

/// Writes what one document matched — exactly the bytes every driver
/// prints for it: the count, one offset per line, or one matched node per
/// line. `positions` is only read outside [`ResponseMode::Count`], `doc`
/// only in [`ResponseMode::Values`].
///
/// # Errors
///
/// The writer's.
pub fn render(
    out: &mut impl Write,
    mode: ResponseMode,
    doc: &[u8],
    count: u64,
    positions: &[usize],
) -> io::Result<()> {
    match mode {
        ResponseMode::Count => writeln!(out, "{count}"),
        ResponseMode::Positions => positions.iter().try_for_each(|p| writeln!(out, "{p}")),
        // Raw passthrough (DESIGN.md §15): the matched spans are the
        // document's own bytes, written once with no per-match UTF-8
        // validation or formatting. Unterminated spans (truncated input)
        // render as `<malformed>`.
        ResponseMode::Values => positions.iter().try_for_each(|&p| {
            match rsq_json::node_span(doc, p) {
                // PANIC-OK: node_span ranges are in bounds of `doc` by construction
                Some(span) => out.write_all(&doc[span])?,
                None => out.write_all(b"<malformed>")?,
            }
            out.write_all(b"\n")
        }),
    }
}

/// The emitter thread's accumulated accounting.
struct EmitTally {
    ok: u64,
    timeouts: u64,
    oversize: u64,
    limits: u64,
    malformed: u64,
    panics: u64,
    io_docs: u64,
    first_failure: Option<DocErrorKind>,
    write_failed: bool,
    latency: Histogram,
    /// Finished spans in emission order (only filled when the session
    /// collects spans for trace export).
    spans: Vec<SpanRecord>,
}

impl EmitTally {
    fn new() -> Self {
        EmitTally {
            ok: 0,
            timeouts: 0,
            oversize: 0,
            limits: 0,
            malformed: 0,
            panics: 0,
            io_docs: 0,
            first_failure: None,
            write_failed: false,
            latency: Histogram::new(),
            spans: Vec::new(),
        }
    }
}

/// Drains responses in admission order, writing result lines to `out`
/// and error lines (`document N: message [code]`) to `err`. A write
/// failure aborts the pool: the connection is gone, so draining further
/// work would be wasted.
///
/// With telemetry on, each document's span is finished here — the final
/// lap is the emit phase — and fed to the hub (windows, live counters,
/// slow log). Framer-rejected lines have no span; they count into the
/// hub's live counters without polluting the latency windows.
fn emit_loop<W: Write, E: Write>(
    pool: &Pool,
    mode: ResponseMode,
    telemetry: Option<&Telemetry>,
    collect_spans: bool,
    out: &mut W,
    err: &mut E,
) -> EmitTally {
    let mut tally = EmitTally::new();
    let mut body = Vec::new();
    while let Some((seq, mut resp)) = pool.take_next_response() {
        if !resp.framer_rejected {
            tally.latency.record(resp.latency_ns);
        }
        let wrote = match &resp.result {
            Ok(matches) => {
                tally.ok += 1;
                body.clear();
                render(
                    &mut body,
                    mode,
                    &resp.doc,
                    matches.count(),
                    matches.positions(),
                )
                .and_then(|()| out.write_all(&body))
                .and_then(|()| out.flush())
            }
            Err(e) => {
                match e.kind {
                    DocErrorKind::Timeout => tally.timeouts += 1,
                    DocErrorKind::Limit(_) if resp.framer_rejected => tally.oversize += 1,
                    DocErrorKind::Limit(_) => tally.limits += 1,
                    DocErrorKind::Malformed => tally.malformed += 1,
                    DocErrorKind::Panic => tally.panics += 1,
                    DocErrorKind::Io => tally.io_docs += 1,
                }
                if tally.first_failure.is_none() {
                    tally.first_failure = Some(e.kind);
                }
                let line = format!("document {}: {} [{}]\n", seq + 1, e.message, e.code());
                err.write_all(line.as_bytes()).and_then(|()| err.flush())
            }
        };
        pool.recycle(std::mem::take(&mut resp.doc));
        if resp.framer_rejected {
            if let Some(t) = telemetry {
                t.record_reject();
            }
        } else if let Some(span) = resp.span.take() {
            let record = span.finish();
            if let Some(t) = telemetry {
                t.record_doc(&record, resp.latency_ns);
            }
            if collect_spans {
                tally.spans.push(record);
            }
        }
        if wrote.is_err() {
            tally.write_failed = true;
            pool.abort();
            break;
        }
    }
    tally
}

/// Admits one framed line: documents go to the worker queue; oversize
/// rejections resolve immediately with the *same* error the engine's
/// own `max_document_bytes` check produces, so the response is
/// indistinguishable from batch mode rejecting the same line.
fn admit_frame(pool: &Pool, frame: Frame) -> bool {
    match frame {
        Frame::Doc(doc) => pool.admit(doc),
        Frame::Oversize { limit, .. } => {
            pool.reject(DocError::from_run(&RunError::LimitExceeded {
                kind: LimitKind::DocumentBytes,
                limit: limit as u64,
            }))
        }
    }
}

/// Serves one connection: reads NDJSON chunks from `reader` until EOF
/// or a hard read error, answering each document on `out` (errors on
/// `err`) in input order.
///
/// The calling thread is the producer; workers and the emitter run on
/// scoped threads. On return every admitted document has been answered
/// (or the connection was lost), and all threads have exited.
///
/// # Errors
///
/// Returns [`ServeError`] only when the query fails to parse or
/// compile. Transport and per-document failures are reported in the
/// [`ServeReport`], not as `Err`.
pub fn serve_connection<R, W, E>(
    options: &ServeOptions,
    reader: R,
    out: W,
    err: E,
) -> Result<ServeReport, ServeError>
where
    R: Read,
    W: Write + Send,
    E: Write + Send,
{
    serve_connection_with(options, None, reader, out, err)
}

/// [`serve_connection`] with an optional live-telemetry hub attached.
///
/// With a hub, every document gets a pipeline span (admit → queue wait
/// → run, with engine stage timers → reorder wait → emit) feeding the
/// hub's rolling windows and slow-document log; each worker keeps a
/// flight-recorder ring of recent spans and dumps a postmortem artifact
/// when a document faults. With `None` this is byte-for-byte
/// [`serve_connection`]: no clock reads, no ring writes.
///
/// # Errors
///
/// As [`serve_connection`].
pub fn serve_connection_with<R, W, E>(
    options: &ServeOptions,
    telemetry: Option<&Arc<Telemetry>>,
    mut reader: R,
    out: W,
    err: E,
) -> Result<ServeReport, ServeError>
where
    R: Read,
    W: Write + Send,
    E: Write + Send,
{
    let query = Query::parse(&options.query).map_err(|e| ServeError {
        message: format!("query error: {e}"),
    })?;
    let engine = Engine::with_options(&query, options.engine).map_err(|e| ServeError {
        message: format!("query error: {e}"),
    })?;

    let hub: Option<&Telemetry> = telemetry.map(Arc::as_ref);
    let threads = options.effective_threads();
    if let Some(t) = hub {
        t.set_workers(threads as u64);
    }
    let mode = options.mode;
    let pool = Pool::new(
        options.max_inflight,
        threads,
        mode,
        telemetry.cloned(),
        options.collect_spans,
    );
    let mut framer = NdjsonFramer::new(options.engine.max_document_bytes).recycling(pool.buffers());
    let deadline = options.deadline;
    let collect_spans = options.collect_spans;
    let perf_mode = options.perf;
    // Sampled per-worker hardware-counter deltas fold in here — one
    // lock per worker at drain time, never on the per-document path.
    let perf_total: Mutex<PerfStats> = Mutex::new(PerfStats::default());
    let mut bytes_in: u64 = 0;
    let mut disconnected = false;

    let tally = thread::scope(|scope| {
        let emitter = scope.spawn({
            let pool = &pool;
            let mut out = out;
            let mut err = err;
            move || emit_loop(pool, mode, hub, collect_spans, &mut out, &mut err)
        });
        let workers: Vec<_> = (0..threads)
            .map(|worker_idx| {
                let pool = &pool;
                let engine = &engine;
                let perf_total = &perf_total;
                scope.spawn(move || {
                    // Per-worker flight recorder: local to the thread,
                    // no locking; only exists with telemetry on.
                    let mut flight = hub.map(|t| FlightRecorder::new(t.flight_window()));
                    // Per-worker runner: perf events count the opening
                    // thread, so each worker arms its own counter set.
                    let mut runner = DocRunner::open(perf_mode);
                    let mut doc_index = 0usize;
                    while let Some(mut job) = pool.take_job() {
                        // Stage-timer detail is *sampled*: the Tier C
                        // recorder reads the clock around every
                        // fast-forward, which costs double-digit
                        // percent on skip-heavy queries, so only every
                        // `STAGE_SAMPLE_INTERVAL`-th document per
                        // worker runs profiled (a fresh recorder per
                        // document, so the span carries this document's
                        // breakdown, not a running total). Phase laps —
                        // queue/run/reorder/emit — still cover every
                        // document: they are a handful of clock reads.
                        // Hardware counters ride the same cadence.
                        let sampled = doc_index.is_multiple_of(STAGE_SAMPLE_INTERVAL);
                        doc_index = doc_index.wrapping_add(1);
                        let mut profile = job
                            .span
                            .as_ref()
                            .filter(|_| sampled)
                            .map(|_| ProfileStats::new());
                        let record = profile.as_mut().map_or(Record::Nothing, Record::Profile);
                        let mut resp = pool::process(
                            &mut runner,
                            engine,
                            mode,
                            deadline,
                            &job,
                            record,
                            sampled,
                        );
                        if let Some(mut span) = job.span.take() {
                            span.worker(worker_idx as u32);
                            span.route(engine.route());
                            span.ran();
                            if let Some(p) = &profile {
                                span.stages(p.stages);
                            }
                            if let Err(e) = &resp.result {
                                span.fault(e.code());
                            }
                            let snap = span.snapshot();
                            if snap.failed() {
                                if let (Some(t), Some(f)) = (hub, flight.as_ref()) {
                                    t.dump_postmortem(worker_idx, f, &snap);
                                }
                            }
                            if let Some(f) = flight.as_mut() {
                                f.push(snap);
                            }
                            resp.span = Some(span);
                        }
                        pool.complete(job.seq, resp, job.doc);
                    }
                    if let Some(perf) = runner.perf() {
                        // PANIC-OK: poisoned only if a panic escaped per-document containment
                        *perf_total.lock().unwrap() += perf;
                    }
                })
            })
            .collect();

        let mut chunk = [0u8; 8192];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => {
                    if let Some(frame) = framer.finish() {
                        admit_frame(&pool, frame);
                    }
                    break;
                }
                Ok(n) => {
                    bytes_in += n as u64;
                    let mut alive = true;
                    // PANIC-OK: n <= chunk.len() by the Read contract
                    framer.push(&chunk[..n], &mut |frame| {
                        if alive {
                            alive = admit_frame(&pool, frame);
                        }
                    });
                    if !alive {
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    thread::yield_now();
                }
                Err(_) => {
                    // Hard transport error: the partial line (if any) is
                    // dropped — it never framed — but admitted documents
                    // still drain and answer below.
                    disconnected = true;
                    break;
                }
            }
        }
        pool.close();

        let mut worker_lost = false;
        for h in workers {
            worker_lost |= h.join().is_err();
        }
        if worker_lost {
            // Can only happen if pool bookkeeping itself panicked (the
            // document run is contained); unblock the emitter rather
            // than deadlock on a response that will never arrive.
            pool.abort();
        }
        emitter.join().unwrap_or_else(|_| {
            let mut t = EmitTally::new();
            t.write_failed = true;
            t
        })
    });

    let (documents, backpressure_waits, max_inflight) = pool.accounting();
    let perf = perf_total.into_inner().unwrap_or_default();
    let mut counters = ServeCounters::new();
    counters.connections = 1;
    counters.documents = documents;
    counters.bytes_in = bytes_in;
    counters.responses_ok = tally.ok;
    // The route is a static property of the compiled query, so every
    // successfully answered document took the same one.
    // PANIC-OK: Route::index is < the per-route array length (one slot per route)
    counters.route_docs[engine.route().index()] = tally.ok;
    counters.timeouts = tally.timeouts;
    counters.oversize_rejections = tally.oversize;
    counters.limit_errors = tally.limits;
    counters.malformed_errors = tally.malformed;
    counters.panics = tally.panics;
    counters.io_errors = u64::from(disconnected) + tally.io_docs;
    counters.backpressure_waits = backpressure_waits;
    counters.max_inflight = max_inflight;

    if let Some(t) = hub {
        // Per-document facts already streamed into the hub at emit time;
        // this folds in the connection-scoped remainder (connections,
        // bytes_in, io_errors, backpressure, high-water mark) and the
        // sampled hardware-counter totals.
        t.record_connection(&counters);
        t.record_perf(&perf);
    }

    Ok(ServeReport {
        counters,
        latency: tally.latency,
        first_failure: tally.first_failure,
        clean: !disconnected && !tally.write_failed,
        spans: tally.spans,
        perf: (perf.docs > 0).then_some(perf),
    })
}

/// Accepts connections on a Unix socket, serving each to completion
/// with the optional live-telemetry hub attached (see
/// [`serve_connection_with`]), until `shutdown` is set or
/// `after_connection` — called with the aggregate report once each
/// connection has drained, e.g. to refresh a metrics file — returns
/// `false`. Either way the drain is graceful: the in-progress connection
/// finishes first.
///
/// Both response streams share the socket: result lines and error lines
/// interleave per document, which is unambiguous because error lines
/// always carry the `document N:` prefix.
///
/// # Errors
///
/// Returns the accept-loop or socket-setup error; a bad query surfaces
/// as [`io::ErrorKind::InvalidInput`]. Per-connection transport
/// failures are *not* errors here — they land in the aggregated
/// report's `io_errors`, as does a client that vanishes between accept
/// and setup.
#[cfg(unix)]
pub fn serve_unix_with(
    options: &ServeOptions,
    telemetry: Option<&Arc<Telemetry>>,
    listener: &std::os::unix::net::UnixListener,
    shutdown: &std::sync::atomic::AtomicBool,
    mut after_connection: impl FnMut(&ServeReport) -> bool,
) -> io::Result<ServeReport> {
    use std::sync::atomic::Ordering;

    listener.set_nonblocking(true)?;
    let mut aggregate = ServeReport::default();
    while !shutdown.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => return Err(e),
        };
        let setup = stream
            .set_nonblocking(false)
            .and_then(|()| Ok((stream.try_clone()?, stream.try_clone()?)));
        let Ok((out, errw)) = setup else {
            aggregate.counters.io_errors += 1;
            continue;
        };
        let report = serve_connection_with(options, telemetry, &stream, out, errw)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.message))?;
        aggregate.merge(&report);
        if !after_connection(&aggregate) {
            break;
        }
    }
    Ok(aggregate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn opts(query: &str) -> ServeOptions {
        let mut o = ServeOptions::new(query);
        o.threads = 2;
        o
    }

    fn serve_bytes(options: &ServeOptions, input: &[u8]) -> (Vec<u8>, Vec<u8>, ServeReport) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let report =
            serve_connection(options, Cursor::new(input), &mut out, &mut err).expect("serve");
        (out, err, report)
    }

    const INPUT: &[u8] = b"{\"a\": {\"b\": 1}}\n{\"b\": [1, 2]}\n{\"x\": 0}\n";

    #[test]
    fn counts_match_batch_per_document() {
        let (out, err, report) = serve_bytes(&opts("$..b"), INPUT);
        assert_eq!(out, b"1\n1\n0\n");
        assert!(err.is_empty());
        assert_eq!(report.counters.documents, 3);
        assert_eq!(report.counters.responses_ok, 3);
        assert_eq!(report.counters.bytes_in, INPUT.len() as u64);
        assert!(report.clean);
        assert_eq!(report.latency.count(), 3);
    }

    #[test]
    fn positions_and_values_modes_render_batch_formats() {
        let mut o = opts("$..b");
        o.mode = ResponseMode::Positions;
        let (out, _, _) = serve_bytes(&o, INPUT);
        assert_eq!(out, b"12\n6\n");
        o.mode = ResponseMode::Values;
        let (out, _, _) = serve_bytes(&o, INPUT);
        assert_eq!(out, b"1\n[1, 2]\n");
    }

    #[test]
    fn bad_query_is_fatal_not_per_document() {
        let e = serve_connection(&opts("$..["), Cursor::new(b"{}\n"), Vec::new(), Vec::new())
            .unwrap_err();
        assert!(e.message.starts_with("query error:"), "{e}");
    }

    #[test]
    fn zero_deadline_times_out_every_document_deterministically() {
        let mut o = opts("$..b");
        o.deadline = Some(Duration::ZERO);
        let (out, err, report) = serve_bytes(&o, INPUT);
        assert!(out.is_empty());
        let text = String::from_utf8(err).unwrap();
        assert_eq!(
            text,
            "document 1: deadline exceeded [timeout]\n\
             document 2: deadline exceeded [timeout]\n\
             document 3: deadline exceeded [timeout]\n"
        );
        assert_eq!(report.counters.timeouts, 3);
        assert_eq!(report.counters.responses_ok, 0);
        assert_eq!(report.first_failure, Some(DocErrorKind::Timeout));
        assert!(report.clean, "timeouts are per-document, not transport");
    }

    #[test]
    fn in_flight_bound_forces_backpressure_waits() {
        let mut o = opts("$..b");
        o.max_inflight = 1;
        let (out, _, report) = serve_bytes(&o, INPUT);
        assert_eq!(out, b"1\n1\n0\n");
        assert!(
            report.counters.backpressure_waits >= 1,
            "admitting doc 2 must wait for doc 1's slot: {:?}",
            report.counters
        );
        assert_eq!(report.counters.max_inflight, 1);
    }

    #[test]
    fn documents_larger_than_the_byte_budget_are_all_answered() {
        // Each line is several times the single worker's 128 KiB budget,
        // so each is admitted only into an empty window: the stream must
        // still drain, in order, in every mode.
        let mut input = Vec::new();
        for n in 0..3 {
            input.extend_from_slice(b"{\"pad\": \"");
            input.extend(std::iter::repeat_n(b'x', 300 * 1024));
            input.extend_from_slice(format!("\", \"b\": {n}}}\n").as_bytes());
        }
        let mut o = opts("$..b");
        o.threads = 1;
        for (mode, expect) in [
            (ResponseMode::Count, &b"1\n1\n1\n"[..]),
            (ResponseMode::Values, b"0\n1\n2\n"),
        ] {
            o.mode = mode;
            let (out, err, report) = serve_bytes(&o, &input);
            assert_eq!(out, expect, "{mode:?}");
            assert!(err.is_empty());
            // A value response holds its document until emitted, so the
            // window is exactly one. A finished count has released its
            // bytes and awaits the emitter while the next document runs:
            // two unanswered when the emitter keeps up — which is the
            // scheduler's doing, so that bound is pinned where the
            // interleaving can be forced, in
            // `pool::tests::oversize_counts_keep_at_most_two_documents_unanswered`.
            if mode == ResponseMode::Values {
                assert_eq!(report.counters.max_inflight, 1);
            }
            assert!(report.clean);
        }
    }

    #[test]
    fn write_failure_aborts_instead_of_hanging() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let report =
            serve_connection(&opts("$..b"), Cursor::new(INPUT), Broken, Vec::new()).expect("serve");
        assert!(!report.clean);
    }

    #[test]
    fn telemetry_off_output_is_byte_identical() {
        let (plain_out, plain_err, _) = serve_bytes(&opts("$..b"), INPUT);
        let mut out = Vec::new();
        let mut err = Vec::new();
        serve_connection_with(&opts("$..b"), None, Cursor::new(INPUT), &mut out, &mut err)
            .expect("serve");
        assert_eq!(out, plain_out);
        assert_eq!(err, plain_err);
    }

    #[test]
    fn telemetry_hub_observes_connection_and_scrapes_valid_exposition() {
        let hub = Telemetry::new(&TelemetryOptions {
            live: true,
            ..TelemetryOptions::default()
        });
        let mut out = Vec::new();
        let mut err = Vec::new();
        serve_connection_with(
            &opts("$..b"),
            Some(&hub),
            Cursor::new(INPUT),
            &mut out,
            &mut err,
        )
        .expect("serve");
        assert_eq!(out, b"1\n1\n0\n", "telemetry must not change output");
        let text = hub.render_metrics();
        rsq_obs::expo::check(&text).expect("scrape output passes the exposition lint");
        assert!(
            text.contains("rsq_serve_documents_total 3"),
            "live doc counter in scrape:\n{text}"
        );
        assert!(
            text.contains("rsq_window_documents{window=\"10s\"} 3"),
            "{text}"
        );
        // All documents answered: gauges return to zero.
        let g = hub.gauges();
        assert_eq!((g.queue_depth, g.in_flight), (0, 0));
        assert_eq!(g.workers, 2);
    }

    #[test]
    fn faulted_documents_produce_postmortems_with_consistent_timelines() {
        let dir = std::env::temp_dir().join(format!(
            "rsq-serve-pm-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = Telemetry::new(&TelemetryOptions {
            postmortem_dir: Some(dir.clone()),
            ..TelemetryOptions::default()
        });
        let mut o = opts("$..b");
        o.deadline = Some(Duration::ZERO);
        let mut out = Vec::new();
        let mut err = Vec::new();
        serve_connection_with(&o, Some(&hub), Cursor::new(INPUT), &mut out, &mut err)
            .expect("serve");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("postmortem dir exists")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 3, "one postmortem per timed-out document");
        for path in &files {
            let name = path.file_name().unwrap().to_str().unwrap();
            assert!(
                name.starts_with("postmortem-") && name.contains("-timeout"),
                "{name}"
            );
            let body = std::fs::read_to_string(path).expect("read postmortem");
            assert!(body.contains("\"code\":\"timeout\""), "{body}");
            // The timeline is telescoping laps, so the phase sum IS the
            // recorded latency: consistent by construction.
            assert!(body.contains("\"latency_ns\":"), "{body}");
            assert!(body.contains("\"queue_wait_ns\":"), "{body}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collect_spans_builds_a_timeline_trace() {
        let mut o = opts("$..b");
        o.collect_spans = true;
        let (out, err, report) = serve_bytes(&o, INPUT);
        assert_eq!(out, b"1\n1\n0\n", "span collection must not change output");
        assert!(err.is_empty());
        assert_eq!(report.spans.len(), 3, "one span per document");
        for (i, span) in report.spans.iter().enumerate() {
            assert_eq!(span.seq, i as u64, "spans come back in emission order");
            assert!(span.route.is_some(), "worker stamped the engine route");
            assert!(span.start_ns > 0, "admission stamped against the epoch");
            assert!(span.total_ns() > 0);
        }
        let json = rsq_obs::chrome_trace_json(&report.spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            3 * 5,
            "doc + four phase slices per document: {json}"
        );
    }

    #[test]
    fn route_docs_account_for_every_answered_document() {
        let (_, _, report) = serve_bytes(&opts("$..b"), INPUT);
        let total: u64 = rsq_obs::Route::ALL
            .iter()
            .map(|&r| report.counters.route_docs(r))
            .sum();
        assert_eq!(total, report.counters.responses_ok);
    }

    #[test]
    fn perf_deny_keeps_output_identical_and_report_empty() {
        let (plain_out, plain_err, _) = serve_bytes(&opts("$..b"), INPUT);
        for mode in [PerfMode::Deny, PerfMode::Auto] {
            let mut o = opts("$..b");
            o.perf = mode;
            let (out, err, report) = serve_bytes(&o, INPUT);
            assert_eq!(out, plain_out, "{mode:?}");
            assert_eq!(err, plain_err, "{mode:?}");
            if mode == PerfMode::Deny {
                assert!(
                    report.perf.is_none(),
                    "denied counters must vanish from the report"
                );
            }
        }
    }

    #[test]
    fn merge_aggregates_reports() {
        let (_, _, a) = serve_bytes(&opts("$..b"), INPUT);
        let (_, _, b) = serve_bytes(&opts("$..b"), INPUT);
        let mut total = ServeReport::default();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.counters.connections, 2);
        assert_eq!(total.counters.documents, 6);
        assert_eq!(total.latency.count(), 6);
        assert!(total.clean);
    }
}
