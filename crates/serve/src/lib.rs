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
//!   at most [`ServeOptions::DEFAULT_MAX_INFLIGHT`] unanswered documents.
//!   When either bound is hit the server stops reading the connection,
//!   which propagates to the client through the transport. Buffered
//!   memory per connection is therefore a small multiple of
//!   `128 KiB × workers` plus one `max_document_bytes` line in the
//!   framer — not `DEFAULT_MAX_INFLIGHT × max_document_bytes` — and
//!   finished document buffers are recycled to the framer rather than
//!   reallocated.
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
// Exterior tier (DESIGN.md §14.2): outside the `catch_unwind` boundary,
// a panic or an unchecked index is a crash; every site says why it
// cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason,
    clippy::indexing_slicing
)]

mod chaos;
mod pool;
mod telemetry;

pub use chaos::{ChaosFault, ChaosPlan, ChaosStream};
#[cfg(unix)]
pub use telemetry::serve_telemetry_listener;
pub use telemetry::Telemetry;

use pool::Pool;
pub use rsq_batch::ResponseMode;
use rsq_batch::{render, runner, DocError, DocErrorKind, DocSink, Frame, NdjsonFramer, Record};
use rsq_engine::{Engine, EngineOptions, LimitKind, RunError};
use rsq_obs::{Histogram, ServeCounters};
use rsq_query::Query;
use std::io::{self, Read, Write};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
    /// Threads that run a connection's documents (0 = one per available
    /// CPU): the connection's own thread plus `threads - 1` helpers. A
    /// document goes to a helper only if one is idle; otherwise the
    /// connection's thread runs it before reading more.
    pub threads: usize,
    /// Per-document processing budget, measured from admission.
    /// `None` = no deadline. `Some(Duration::ZERO)` deterministically
    /// times out every document (useful in tests).
    pub deadline: Option<Duration>,
}

impl ServeOptions {
    /// Ceiling on documents admitted but not yet answered: the length of
    /// the job queue plus the reorder buffer. Deep enough to keep a pool
    /// of workers busy over a bursty pipe of small documents. It does not
    /// bound memory on its own: admission also stops once the admitted
    /// documents hold 128 KiB per worker (a lone larger document is still
    /// admitted when nothing else is in flight), so for large documents
    /// the byte budget closes the window first.
    pub const DEFAULT_MAX_INFLIGHT: usize = 64;

    /// Options for `query` with engine defaults, count responses, one
    /// thread per CPU, and no deadline.
    #[must_use]
    pub fn new(query: &str) -> Self {
        ServeOptions {
            query: query.to_owned(),
            engine: EngineOptions::default(),
            mode: ResponseMode::Count,
            threads: 0,
            deadline: None,
        }
    }

    /// Thread count a connection will actually use, its own included.
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
}

impl Default for ServeReport {
    fn default() -> Self {
        ServeReport {
            counters: ServeCounters::new(),
            latency: Histogram::new(),
            first_failure: None,
            clean: true,
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
    }
}

/// The [`ServeCounters`] field a response is counted in.
type Tally = fn(&mut ServeCounters) -> &mut u64;

impl pool::Response {
    /// The one classification of a document's outcome: the emitter counts
    /// the response into its report with it and passes it to the hub.
    fn tally(&self) -> Tally {
        let Err(e) = &self.result else {
            return |c| &mut c.responses_ok;
        };
        match e.kind {
            DocErrorKind::Timeout => |c| &mut c.timeouts,
            DocErrorKind::Limit(_) if self.framer_rejected => |c| &mut c.oversize_rejections,
            DocErrorKind::Limit(_) => |c| &mut c.limit_errors,
            DocErrorKind::Malformed => |c| &mut c.malformed_errors,
            DocErrorKind::Panic => |c| &mut c.panics,
            DocErrorKind::Io => |c| &mut c.io_errors,
        }
    }
}

/// The emitter role (see `pool`): result lines go to `out`, error lines
/// (`document N: message [code]`) to `err`, one write per run of lines
/// bound for the same stream, and each into the connection's report and,
/// with telemetry on, the hub. A write failure aborts the pool: the
/// connection is gone, so draining further work would be wasted.
struct Emitter<W, E> {
    out: W,
    err: E,
    telemetry: Option<Arc<Telemetry>>,
    /// The lines rendered but not yet written, all bound for one stream.
    lines: Vec<u8>,
    report: ServeReport,
}

impl<W: Write, E: Write> Emitter<W, E> {
    /// Writes the pending lines to `err` or `out`.
    fn write_lines(&mut self, to_err: bool) -> io::Result<()> {
        let stream: &mut dyn Write = if to_err { &mut self.err } else { &mut self.out };
        rsq_batch::sync::assert_no_lock_held();
        stream.write_all(&self.lines)?;
        self.lines.clear();
        stream.flush()
    }

    /// Renders and writes `batch` in order; a run of lines for the same
    /// stream goes out in one write.
    fn write_batch(&mut self, batch: &[(u64, pool::Response)]) -> io::Result<()> {
        let mut to_err = false;
        for (seq, resp) in batch {
            if resp.result.is_err() != to_err {
                self.write_lines(to_err)?;
                to_err = !to_err;
            }
            let tally = resp.tally();
            *tally(&mut self.report.counters) += 1;
            if let Some(route) = resp.route {
                self.report.counters.record_route(route);
            }
            if !resp.framer_rejected {
                self.report.latency.record(resp.latency_ns);
            }
            if let Some(t) = &self.telemetry {
                t.record_doc(tally, resp);
            }
            match &resp.result {
                Ok(matches) => render(&mut self.lines, &resp.doc, matches)?,
                Err(e) => {
                    self.report.first_failure.get_or_insert(e.kind);
                    let (doc_no, message, code) = (seq + 1, &e.message, e.code());
                    writeln!(self.lines, "document {doc_no}: {message} [{code}]")?;
                }
            }
        }
        self.write_lines(to_err)
    }
}

impl<W: Write, E: Write> pool::Emit for Emitter<W, E> {
    fn emit(&mut self, batch: &[(u64, pool::Response)]) -> bool {
        let wrote = self.write_batch(batch);
        self.report.clean &= wrote.is_ok();
        self.report.clean
    }
}

/// Nanoseconds since `t`, saturating.
fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What running a document needs; the connection's thread and every
/// helper share one.
struct Worker<'a, T> {
    pool: &'a Pool<T>,
    engine: &'a Engine,
    options: &'a ServeOptions,
    /// With a hub, each run is timed for the window's busy fraction.
    hub: Option<&'a Telemetry>,
}

impl<T: pool::Emit> Worker<'_, T> {
    /// Runs `job` and completes it, which may write responses.
    fn run(&self, job: pool::Job) {
        // The deadline runs from admission (see `runner::run_doc` for
        // where it is checked).
        let deadline = self.options.deadline.map(|d| job.admitted + d);
        let mut sink = DocSink::new(self.options.mode, deadline);
        let started = self.hub.map(|_| Instant::now());
        let run = runner::run_doc(self.engine, &job.doc, &mut sink, Record::Nothing);
        let resp = pool::Response {
            doc: Vec::new(),
            route: run.as_ref().ok().copied(),
            result: run.map(|_| sink.into_matches()),
            latency_ns: nanos_since(job.admitted),
            framer_rejected: false,
            bytes: job.doc.len() as u64,
            busy_ns: started.map_or(0, nanos_since),
        };
        self.pool.complete(job.seq, resp, job.doc);
    }
}

/// Admits one framed line: a document is queued for a parked helper or
/// run right here by the connection's `worker`; an oversize line resolves
/// at once with the error the engine's own `max_document_bytes` check
/// gives, as batch mode would. Returns `false` once the pool has aborted.
fn admit_frame<T: pool::Emit>(worker: &Worker<'_, T>, frame: Frame) -> bool {
    let pool = worker.pool;
    match frame {
        Frame::Doc(doc) => pool.admit(doc, |job| worker.run(job)),
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
/// The calling thread reads, frames and runs documents, helped by
/// [`ServeOptions::threads`] − 1 scoped threads when one is idle; the
/// thread that completes the next response in input order writes it. On
/// return every admitted document has been answered (or the connection
/// was lost), and all helpers have exited.
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
/// With a hub, the emitter counts every response into the hub as it
/// counts it into the [`ServeReport`], and each document's latency, size
/// and run time feed the hub's rolling windows. With `None` this is
/// byte-for-byte [`serve_connection`]: no clock reads beyond the latency
/// one, no ring writes.
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
    let emitter = Emitter {
        out,
        err,
        telemetry: telemetry.cloned(),
        lines: Vec::new(),
        report: ServeReport::default(),
    };
    let pool = Pool::new(
        ServeOptions::DEFAULT_MAX_INFLIGHT,
        threads,
        options.mode,
        telemetry.cloned(),
        emitter,
    );
    let mut framer = NdjsonFramer::new(options.engine.max_document_bytes).recycling(pool.buffers());
    let mut bytes_in: u64 = 0;
    let mut disconnected = false;

    let worker = &Worker {
        pool: &pool,
        engine: &engine,
        options,
        hub,
    };
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(move || {
                    while let Some(job) = worker.pool.take_job() {
                        worker.run(job);
                    }
                })
            })
            .collect();

        let mut chunk = [0u8; 8192];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => {
                    if let Some(frame) = framer.finish() {
                        admit_frame(worker, frame);
                    }
                    break;
                }
                Ok(n) => {
                    bytes_in += n as u64;
                    let mut alive = true;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "n <= chunk.len() by the Read contract"
                    )]
                    let read = &chunk[..n];
                    framer.push(read, &mut |frame| {
                        if alive {
                            alive = admit_frame(worker, frame);
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

        // Helpers drain the queue; the last completion empties the reorder
        // buffer.
        for h in helpers {
            // Only if pool bookkeeping itself panicked (the document run
            // is contained): the response it held never arrives, so stop
            // the others rather than drain behind it.
            if h.join().is_err() {
                pool.abort();
            }
        }
    });

    let (documents, backpressure_waits, max_inflight) = pool.accounting();
    // A thread that panicked while writing took the writers with it.
    let (mut report, lost) = match pool.into_emitter() {
        Some(emitter) => (emitter.report, false),
        None => (ServeReport::default(), true),
    };
    // What the per-response path cannot see; the emitter counted the rest.
    let connection = ServeCounters {
        connections: 1,
        bytes_in,
        io_errors: u64::from(disconnected),
        backpressure_waits,
        max_inflight,
        ..ServeCounters::new()
    };
    let counters = &mut report.counters;
    *counters += connection;
    counters.documents = documents;
    report.clean &= !disconnected && !lost;

    if let Some(t) = hub {
        t.record_connection(&connection);
    }
    Ok(report)
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
    shutdown: &rsq_batch::sync::Flag,
    mut after_connection: impl FnMut(&ServeReport) -> bool,
) -> io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    let mut aggregate = ServeReport::default();
    while !shutdown.get() {
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
    use std::sync::Mutex;

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
        for threads in 1..=3 {
            let mut o = opts("$..b");
            o.threads = threads;
            o.mode = ResponseMode::Positions;
            let (out, _, _) = serve_bytes(&o, INPUT);
            assert_eq!(out, b"12\n6\n", "{threads} threads");
            o.mode = ResponseMode::Values;
            let (out, _, _) = serve_bytes(&o, INPUT);
            assert_eq!(out, b"1\n[1, 2]\n", "{threads} threads");
        }
    }

    /// Every call a [`Read`] or [`Write`] gets, in order: the calling
    /// thread, which stream, and the bytes written.
    type CallLog = Arc<Mutex<Vec<(thread::ThreadId, &'static str, Vec<u8>)>>>;

    struct Recorder<T> {
        inner: T,
        stream: &'static str,
        log: CallLog,
    }

    impl<T> Recorder<T> {
        fn new(inner: T, stream: &'static str, log: &CallLog) -> Self {
            Recorder {
                inner,
                stream,
                log: Arc::clone(log),
            }
        }

        fn note(&self, bytes: &[u8]) {
            let call = (thread::current().id(), self.stream, bytes.to_vec());
            self.log.lock().unwrap().push(call);
        }
    }

    impl<T: Read> Read for Recorder<T> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.note(&[]);
            self.inner.read(buf)
        }
    }

    impl Write for Recorder<()> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.note(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_thread_reads_runs_and_writes_on_the_callers_thread() {
        let log = CallLog::default();
        let mut o = opts("$..b");
        o.threads = 1;
        o.engine.max_matches = Some(1);
        let input = b"{\"b\": 1}\n{\"b\": {\"b\": 2}}\n{\"b\": [1, 2]}\n";
        let report = serve_connection(
            &o,
            Recorder::new(Cursor::new(&input[..]), "in", &log),
            Recorder::new((), "out", &log),
            Recorder::new((), "err", &log),
        )
        .expect("serve");
        assert_eq!(report.counters.documents, 3);
        let log = log.lock().unwrap();
        let me = thread::current().id();
        assert!(log.iter().all(|(id, ..)| *id == me), "{log:?}");
        let writes: Vec<_> = log
            .iter()
            .filter(|(_, stream, _)| *stream != "in")
            .map(|(_, stream, bytes)| (*stream, String::from_utf8_lossy(bytes)))
            .collect();
        assert_eq!(writes.len(), 3, "one write per response: {writes:?}");
        assert_eq!(writes[0], ("out", "1\n".into()));
        assert_eq!(writes[2], ("out", "1\n".into()));
        assert_eq!(writes[1].0, "err");
    }

    #[test]
    fn a_ready_batch_goes_out_in_one_write_per_run_of_lines() {
        let log = CallLog::default();
        let mut emitter = Emitter {
            out: Recorder::new((), "out", &log),
            err: Recorder::new((), "err", &log),
            telemetry: None,
            lines: Vec::new(),
            report: ServeReport::default(),
        };
        let response = |result| pool::Response {
            doc: Vec::new(),
            result,
            latency_ns: 0,
            framer_rejected: false,
            bytes: 0,
            busy_ns: 0,
            route: None,
        };
        let too_many = || {
            Err(DocError::from_run(&RunError::LimitExceeded {
                kind: LimitKind::Matches,
                limit: 1,
            }))
        };
        let batch: Vec<_> = [
            Ok(rsq_batch::Matches::Count(1)),
            Ok(rsq_batch::Matches::Count(2)),
            too_many(),
            Ok(rsq_batch::Matches::Count(4)),
        ]
        .into_iter()
        .map(response)
        .enumerate()
        .map(|(seq, r)| (seq as u64, r))
        .collect();
        assert!(pool::Emit::emit(&mut emitter, &batch));
        let writes: Vec<_> = log
            .lock()
            .unwrap()
            .iter()
            .map(|(_, stream, bytes)| (*stream, String::from_utf8_lossy(bytes).into_owned()))
            .collect();
        assert_eq!(
            writes,
            [
                ("out", "1\n2\n".to_owned()),
                (
                    "err",
                    "document 3: match count limit exceeded (limit: 1) [limit:matches]\n"
                        .to_owned()
                ),
                ("out", "4\n".to_owned()),
            ]
        );
        let counters = emitter.report.counters;
        assert_eq!((counters.responses_ok, counters.limit_errors), (3, 1));
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
        for threads in 1..=3 {
            let mut o = opts("$..b");
            o.threads = threads;
            let report =
                serve_connection(&o, Cursor::new(INPUT), Broken, Vec::new()).expect("serve");
            assert!(!report.clean, "{threads} threads");
        }
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
        let hub = Telemetry::new();
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

    /// One connection with a hub attached, over answered documents, a
    /// malformed line, a match limit, an oversize line and (on a second
    /// pass) a zero deadline: the hub's lifetime series are rendered from
    /// what the emitter counted, so they equal the connection's report.
    #[test]
    fn hub_series_equal_the_connection_report() {
        let mut input = b"{\"b\": 1}\n{\"b\": [1, 2]}\n{\"b\": \n".to_vec();
        input.extend_from_slice(b"{\"a\": {\"b\": 1}, \"b\": {\"b\": 2}}\n");
        input.extend_from_slice(format!("[\"{}\"]\n", "x".repeat(200)).as_bytes());
        input.extend_from_slice(b"{\"x\": 0}\n");
        let mut o = opts("$..b");
        o.engine.strict = true;
        o.engine.max_matches = Some(2);
        o.engine.max_document_bytes = Some(128);
        // (answered, timeouts, malformed, over the match limit)
        for (deadline, outcomes) in [(None, (3, 0, 1, 1)), (Some(Duration::ZERO), (0, 5, 0, 0))] {
            o.deadline = deadline;
            let hub = Telemetry::new();
            let mut out = Vec::new();
            let mut err = Vec::new();
            let report =
                serve_connection_with(&o, Some(&hub), Cursor::new(&input), &mut out, &mut err)
                    .expect("serve");
            let c = report.counters;
            assert_eq!((c.documents, c.oversize_rejections), (6, 1));
            assert_eq!(
                (
                    c.responses_ok,
                    c.timeouts,
                    c.malformed_errors,
                    c.limit_errors
                ),
                outcomes,
                "{deadline:?}"
            );
            let text = hub.render_metrics();
            rsq_obs::expo::check(&text).expect("scrape passes the exposition lint");
            let mut expo = rsq_obs::expo::Exposition::new();
            expo.rows(ServeCounters::ROWS, &report.counters, "");
            expo.rows(ServeCounters::LATENCY, &report.latency, "");
            let lifetime = expo.finish();
            assert!(
                text.starts_with(&lifetime),
                "{deadline:?}: the hub's lifetime series\n{text}\nare not the report's\n{lifetime}"
            );
            assert!(
                text.contains(&format!(
                    "rsq_window_documents{{window=\"10s\"}} {}\n",
                    report.latency.count()
                )),
                "{deadline:?}: {text}"
            );
            assert_eq!(report.latency.count(), 5, "all but the oversize line ran");
        }
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
