//! Library backing the `rsq` command-line tool, factored out so the
//! argument parsing and the command implementations are unit-testable.
//!
//! Failures carry a [`CliErrorKind`] so the binary can exit with a
//! distinct status per failure class (bad query vs. unreadable input vs.
//! tripped resource limit), making the tool scriptable: a wrapper can
//! retry I/O failures but treat query errors as fatal. All diagnostics go
//! to stderr; stdout carries results only.

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

use rsq_batch::sync::Flag;
use rsq_batch::{
    render, runner, BatchEngine, BatchOptions, DocError, DocErrorKind, DocSink, Record,
    ResponseMode,
};
use rsq_engine::{
    Engine, EngineOptions, Input, LimitKind, ProfileStage, ProfileStats, Recorder, RunError,
    RunStats,
};
use rsq_mmap::{MapPolicy, Mapping, MmapInput, Region};
use rsq_obs::expo::Exposition;
use rsq_obs::series::{JsonObject, Value};
use rsq_obs::{
    BatchCounters, BatchProfile, Histogram, ServeCounters, SkipBytes, StageTimes,
    STATS_SCHEMA_VERSION,
};
use rsq_query::Query;
use rsq_serve::{
    serve_connection_with, serve_telemetry_listener, serve_unix_with, ServeOptions, ServeReport,
    Telemetry,
};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: rsq [MODE] [OPTIONS] QUERY [FILE]
       rsq [MODE] [OPTIONS] --batch-ndjson FILE QUERY
       rsq [MODE] [OPTIONS] --batch-dir DIR QUERY
       rsq --stats [FILE]
       rsq --compile QUERY

modes:
  (default)     print the text of every matched node
  --count       print only the number of matches
  --positions   print the byte offset of every match
  --verify      evaluate both streamed and on a DOM oracle; fail on mismatch

options:
  --strict            reject structurally malformed documents
  --max-depth N       abort beyond N nesting levels (default 1024)
  --max-bytes N       abort when the document exceeds N bytes
  --max-matches N     abort after N matches
  --stats             with a QUERY: print run statistics (skip/SIMD event
                      counters) as a table on stderr; without one: print
                      document statistics (size/depth/verbosity)
  --stats-json        print run statistics as single-line JSON on stderr
                      (stdout stays result-only either way)
  --profile           with a QUERY: print the full profile on stderr —
                      bytes skipped per technique and pipeline stage
                      times (batch mode: per-document latency
                      percentiles and per-worker busy/queue-wait
                      instead); with --stats-json, adds a \"profile\"
                      object to the JSON report
  --metrics-out PATH  write the run's counters (and profile, when
                      enabled) to PATH as Prometheus-style text
                      exposition
  --mmap auto|on|off  zero-copy input: map FILE (and the --batch-ndjson
                      file and --batch-dir files, and stdin redirected
                      from a file) into memory instead of copying
                      through a read loop;
                      auto (the default) maps files of at least 1 MiB,
                      off always reads (results are identical either way)

batch mode (many documents, sharded across threads; output is printed
in input order, byte-identical to looping rsq over each document):
  --batch-ndjson FILE one JSON document per line ('-' reads stdin)
  --batch-dir DIR     every regular file in DIR, sorted by name
  --threads N         worker threads (default: one per CPU)
a failing document is reported on stderr and does not abort the batch;
the exit code reflects the first failure's class

serve mode (long-lived; NDJSON documents stream in as chunks, one
response per document streams back, in input order, byte-identical to
--batch-ndjson over the same lines):
  --serve             serve the pipe protocol: documents on stdin,
                      responses on stdout, error lines
                      (document N: message [code]) on stderr
  --serve-socket PATH accept connections on a Unix socket at PATH
                      (responses and error lines share the socket)
at most 64 documents are admitted but unanswered, and admission also
stops while 128 KiB of documents per worker is held; at either bound
the server stops reading, pushing backpressure to the client
a failing document is answered with a per-document error and the
connection keeps serving; --threads N runs documents on the
connection's thread plus N-1 helpers, which take one only when idle;
the --max-* limits double as per-connection caps

  --deadline-ms N     per-document processing budget; in serve mode
                      expiry answers that document with a timeout
                      error, in single-document mode it bounds ingest

live telemetry (serve mode only; costs nothing when unused):
  --telemetry-socket PATH
                      answer GET /metrics (Prometheus text exposition
                      with last-10s/last-60s rolling windows and live
                      gauges), GET /healthz, GET /readyz, and POST
                      /shutdown (graceful drain) over a second Unix
                      socket — curl-able while serving

exit codes: 0 ok, 1 failure, 2 usage, 3 bad query, 4 I/O error,
5 resource limit exceeded, 6 malformed document, 7 deadline missed

reads from stdin when FILE is omitted (chunked; limits apply while
bytes arrive). --count and --positions stream stdin and any FILE that
is not mapped in bounded memory (a ring of four 1 MiB windows; stdin
redirected from a file that --mmap maps is walked from its offset
through windows mapped one at a time); the default mode and --verify
read such a document whole first. Either way nothing is printed before
the whole input has been read and checked";

/// How serve mode talks to its clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeTransport {
    /// One session over stdin/stdout (`--serve`).
    Pipe,
    /// A Unix socket accepting connections until killed
    /// (`--serve-socket PATH`).
    Unix(String),
}

/// Where a batch invocation takes its documents from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchSource {
    /// An NDJSON file, one JSON document per line (`-` = stdin).
    Ndjson(String),
    /// Every regular file in a directory, sorted by file name.
    Dir(String),
}

/// How run statistics are rendered on stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable table (`--stats` with a query).
    Human,
    /// Single-line machine-readable JSON (`--stats-json`).
    Json,
}

/// What the user asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Print matched node text.
    Values,
    /// Print the match count.
    Count,
    /// Print byte offsets.
    Positions,
    /// Cross-check the streamed result against the DOM oracle.
    Verify,
    /// Print document statistics (no query).
    Stats,
    /// Print the compiled automaton in DOT format (no input).
    Compile,
}

/// Failure class, mapped to the process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliErrorKind {
    /// Any other failure (oracle mismatch, write error).
    Failure,
    /// The query does not parse or compile.
    Query,
    /// The input cannot be read.
    Io,
    /// A resource limit tripped.
    Limit,
    /// The document failed strict validation.
    Malformed,
    /// A per-document deadline passed before the work finished.
    Deadline,
}

impl CliErrorKind {
    /// Every failure class, in exit-code order.
    pub const ALL: [CliErrorKind; 6] = [
        CliErrorKind::Failure,
        CliErrorKind::Query,
        CliErrorKind::Io,
        CliErrorKind::Limit,
        CliErrorKind::Malformed,
        CliErrorKind::Deadline,
    ];

    /// The exit code for this failure class (usage errors are code 2,
    /// raised before a `CliError` exists).
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            CliErrorKind::Failure => 1,
            CliErrorKind::Query => 3,
            CliErrorKind::Io => 4,
            CliErrorKind::Limit => 5,
            CliErrorKind::Malformed => 6,
            CliErrorKind::Deadline => 7,
        }
    }
}

/// A classified failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// Failure class (drives the exit code).
    pub kind: CliErrorKind,
    /// Message for stderr.
    pub message: String,
}

impl CliError {
    fn new(kind: CliErrorKind, message: impl Into<String>) -> Self {
        CliError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        let kind = match &e {
            RunError::Io(_) => CliErrorKind::Io,
            RunError::LimitExceeded { .. } => CliErrorKind::Limit,
            RunError::Malformed(_) => CliErrorKind::Malformed,
            RunError::DeadlineExceeded => CliErrorKind::Deadline,
        };
        CliError::new(kind, e.to_string())
    }
}

impl From<DocError> for CliError {
    fn from(e: DocError) -> Self {
        CliError::new(doc_error_kind(e.kind), e.message)
    }
}

/// Maps a per-document failure class onto the CLI's exit-code classes.
fn doc_error_kind(kind: DocErrorKind) -> CliErrorKind {
    match kind {
        DocErrorKind::Io => CliErrorKind::Io,
        DocErrorKind::Limit(_) => CliErrorKind::Limit,
        DocErrorKind::Malformed => CliErrorKind::Malformed,
        DocErrorKind::Timeout => CliErrorKind::Deadline,
        DocErrorKind::Panic => CliErrorKind::Failure,
    }
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Selected mode.
    pub mode: Mode,
    /// The query text (empty for `--stats`).
    pub query: String,
    /// Input path; `None` = stdin.
    pub file: Option<String>,
    /// Engine options assembled from `--strict`/`--max-*` flags.
    pub options: EngineOptions,
    /// Emit run statistics on stderr after a successful run
    /// (`--stats`/`--stats-json` alongside a query).
    pub stats: Option<StatsFormat>,
    /// Batch input (`--batch-ndjson`/`--batch-dir`); `None` = single
    /// document.
    pub batch: Option<BatchSource>,
    /// Worker threads for batch mode (`--threads`); 0 = one per CPU.
    pub threads: usize,
    /// Gather the Tier C profile (`--profile`): byte-span skip
    /// accounting and stage timers for single documents, or a latency
    /// histogram plus per-worker accounting in batch mode.
    pub profile: bool,
    /// Write Prometheus-style text exposition to this path after the run
    /// (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Serve mode transport (`--serve`/`--serve-socket`); `None` = a
    /// one-shot invocation.
    pub serve: Option<ServeTransport>,
    /// Per-document deadline in milliseconds (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
    /// Live-telemetry scrape endpoint's Unix-socket path
    /// (`--telemetry-socket`, serve mode only); `None` = no hub, and the
    /// serve path reads no clocks and writes no rings for telemetry.
    pub telemetry_socket: Option<String>,
    /// Zero-copy input policy (`--mmap auto|on|off`): whether file
    /// inputs are memory-mapped or buffered through the reader.
    pub mmap: MapPolicy,
}

impl Invocation {
    /// Whether the run gathers Tier A counters: some report renders them.
    fn wants_stats(&self) -> bool {
        self.stats.is_some() || self.metrics_out.is_some()
    }

    /// What the drivers render per document (`--verify` compares
    /// positions).
    fn response_mode(&self) -> ResponseMode {
        match self.mode {
            Mode::Count => ResponseMode::Count,
            Mode::Positions | Mode::Verify => ResponseMode::Positions,
            _ => ResponseMode::Values,
        }
    }

    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the arguments do not form a
    /// valid invocation.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut mode = Mode::Values;
        let mut options = EngineOptions::default();
        let mut batch: Option<BatchSource> = None;
        let mut threads: Option<usize> = None;
        let mut saw_stats = false;
        let mut saw_stats_json = false;
        let mut profile = false;
        let mut metrics_out: Option<String> = None;
        let mut serve: Option<ServeTransport> = None;
        let mut deadline_ms: Option<u64> = None;
        let mut telemetry_socket: Option<String> = None;
        let mut mmap = MapPolicy::Auto;
        let mut rest: Vec<&str> = Vec::new();
        let mut it = args.iter();
        // A valued flag accepts both `--flag N` and `--flag=N`.
        let value_of = |flag: &str, arg: &str, it: &mut std::slice::Iter<'_, String>| {
            if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                return Some(Ok(v.to_owned()));
            }
            if arg == flag {
                return Some(match it.next() {
                    Some(v) => Ok(v.clone()),
                    None => Err(format!("{flag} requires a value")),
                });
            }
            None
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--count" => mode = Mode::Count,
                "--positions" => mode = Mode::Positions,
                "--verify" => mode = Mode::Verify,
                "--stats" => saw_stats = true,
                "--stats-json" => saw_stats_json = true,
                "--profile" => profile = true,
                "--compile" => mode = Mode::Compile,
                "--serve" => serve = Some(ServeTransport::Pipe),
                "--strict" => options.strict = true,
                "--help" | "-h" => return Err(String::new()),
                flag if flag.starts_with("--") => {
                    if let Some(v) = value_of("--max-depth", flag, &mut it) {
                        options.max_depth = parse_number("--max-depth", &v?)?;
                    } else if let Some(v) = value_of("--max-bytes", flag, &mut it) {
                        options.max_document_bytes = Some(parse_number("--max-bytes", &v?)?);
                    } else if let Some(v) = value_of("--max-matches", flag, &mut it) {
                        options.max_matches = Some(parse_number("--max-matches", &v?)?);
                    } else if let Some(v) = value_of("--batch-ndjson", flag, &mut it) {
                        batch = Some(BatchSource::Ndjson(v?));
                    } else if let Some(v) = value_of("--batch-dir", flag, &mut it) {
                        batch = Some(BatchSource::Dir(v?));
                    } else if let Some(v) = value_of("--threads", flag, &mut it) {
                        threads = Some(parse_number("--threads", &v?)?);
                    } else if let Some(v) = value_of("--metrics-out", flag, &mut it) {
                        metrics_out = Some(v?);
                    } else if let Some(v) = value_of("--serve-socket", flag, &mut it) {
                        serve = Some(ServeTransport::Unix(v?));
                    } else if let Some(v) = value_of("--deadline-ms", flag, &mut it) {
                        deadline_ms = Some(parse_number("--deadline-ms", &v?)?);
                    } else if let Some(v) = value_of("--telemetry-socket", flag, &mut it) {
                        telemetry_socket = Some(v?);
                    } else if let Some(v) = value_of("--mmap", flag, &mut it) {
                        let v = v?;
                        mmap = MapPolicy::parse(&v)
                            .ok_or_else(|| format!("--mmap: expected auto|on|off, got {v:?}"))?;
                    } else {
                        return Err(format!("unknown flag {flag}"));
                    }
                }
                other => rest.push(other),
            }
        }
        // Environment route override for ablation and parity harnesses
        // (`RSQ_ROUTE=general ci.sh` forces the main loop everywhere
        // without threading a flag through every script). Mirrors
        // `RSQ_BACKEND`: an explicit override with a typo fails fast.
        if let Ok(value) = std::env::var("RSQ_ROUTE") {
            options.route = match value.as_str() {
                "auto" => rsq_engine::RouteChoice::Auto,
                "general" => rsq_engine::RouteChoice::General,
                other => return Err(format!("RSQ_ROUTE: unknown route {other:?} (auto|general)")),
            };
        }
        // `--stats` is overloaded: without a query it is the document
        // statistics mode (back compat); alongside a query (or with
        // `--stats-json` or another mode flag) it requests run statistics.
        // A positional starting with `$` is unambiguously a query.
        if saw_stats
            && !saw_stats_json
            && mode == Mode::Values
            && !rest.iter().any(|a| a.starts_with('$'))
        {
            mode = Mode::Stats;
        }
        let stats = if saw_stats_json {
            Some(StatsFormat::Json)
        } else if saw_stats && mode != Mode::Stats {
            Some(StatsFormat::Human)
        } else {
            None
        };
        if stats.is_some() && matches!(mode, Mode::Stats | Mode::Compile) {
            return Err("--stats-json requires a QUERY to run".to_owned());
        }
        if (profile || metrics_out.is_some()) && matches!(mode, Mode::Stats | Mode::Compile) {
            return Err("--profile/--metrics-out require a QUERY to run".to_owned());
        }
        if threads.is_some() && batch.is_none() && serve.is_none() {
            return Err("--threads requires a batch or serve mode".to_owned());
        }
        if batch.is_some() && !matches!(mode, Mode::Values | Mode::Count | Mode::Positions) {
            return Err(
                "batch mode supports the default, --count, and --positions modes".to_owned(),
            );
        }
        if serve.is_some() {
            if batch.is_some() {
                return Err("serve and batch modes are mutually exclusive".to_owned());
            }
            if !matches!(mode, Mode::Values | Mode::Count | Mode::Positions) {
                return Err(
                    "serve mode supports the default, --count, and --positions modes".to_owned(),
                );
            }
            if profile {
                return Err("--profile is not supported in serve mode".to_owned());
            }
        }
        if telemetry_socket.is_some() && serve.is_none() {
            return Err("--telemetry-socket requires --serve or --serve-socket".to_owned());
        }
        if deadline_ms.is_some() && (batch.is_some() || matches!(mode, Mode::Stats | Mode::Compile))
        {
            return Err("--deadline-ms applies to serve and single-document runs".to_owned());
        }
        let threads = threads.unwrap_or(0);
        let invocation = |mode, query: &str, file: Option<&str>| Invocation {
            mode,
            query: query.to_owned(),
            file: file.map(str::to_owned),
            options,
            stats,
            batch: batch.clone(),
            threads,
            profile,
            metrics_out: metrics_out.clone(),
            serve: serve.clone(),
            deadline_ms,
            telemetry_socket: telemetry_socket.clone(),
            mmap,
        };
        if serve.is_some() {
            return match rest.as_slice() {
                [query] => Ok(invocation(mode, query, None)),
                [_, _] => Err("serve mode reads from its transport, not FILE".to_owned()),
                _ => Err("expected QUERY".to_owned()),
            };
        }
        match mode {
            Mode::Stats => match rest.as_slice() {
                [] => Ok(invocation(mode, "", None)),
                [file] => Ok(invocation(mode, "", Some(file))),
                _ => Err("--stats takes at most one FILE".to_owned()),
            },
            Mode::Compile => match rest.as_slice() {
                [query] => Ok(invocation(mode, query, None)),
                _ => Err("--compile takes exactly one QUERY".to_owned()),
            },
            _ if batch.is_some() => match rest.as_slice() {
                [query] => Ok(invocation(mode, query, None)),
                [_, _] => {
                    Err("batch mode takes its input from the batch flag, not FILE".to_owned())
                }
                _ => Err("expected QUERY".to_owned()),
            },
            _ => match rest.as_slice() {
                [query] => Ok(invocation(mode, query, None)),
                [query, file] => Ok(invocation(mode, query, Some(file))),
                _ => Err("expected QUERY [FILE]".to_owned()),
            },
        }
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

/// Where a single document comes from: held in memory, a file walked
/// through mapped windows, or a reader.
enum Document {
    /// The whole document in memory: a file mapped (zero-copy: the engine
    /// reads the page cache directly), or a copy ([`hold`]).
    Held(MmapInput),
    /// Stdin redirected from a regular file the policy maps: the file, the
    /// offset, the length after it (mapped window by window when streamed).
    Pages(std::fs::File, u64, usize),
    /// Stdin, or a file that is not mapped (small, unmappable, or
    /// `--mmap off`).
    Read(Box<dyn Read>),
}

/// Opens the document. File inputs are memory-mapped when the `--mmap`
/// policy allows; the size limit is checked up front on that path, since
/// mapping a too-large file and then refusing it would waste nothing but
/// also prove nothing. Stdin is mapped too when it is a regular file the
/// policy maps. Everything else is read through the engine's input loop:
/// reads in place, transient-error retry, the size limit enforced while
/// bytes arrive.
fn open_input(invocation: &Invocation) -> Result<Document, CliError> {
    let Some(path) = invocation.file.as_deref() else {
        let stdin = || {
            use std::os::fd::AsFd;
            let fd = std::io::stdin().as_fd().try_clone_to_owned().ok()?;
            file_pages(fd.into(), invocation.mmap)
        };
        if let Some((file, start, len)) = stdin() {
            return Ok(Document::Pages(file, start, len));
        }
        return Ok(Document::Read(Box::new(std::io::stdin().lock())));
    };
    // Map only files the size limit admits; an oversized file falls
    // through to the reader, which rejects it with the exact error the
    // buffered path always produced.
    let fits = match invocation.options.max_document_bytes {
        Some(limit) => std::fs::metadata(path).is_ok_and(|m| m.len() <= limit as u64),
        None => true,
    };
    if fits {
        if let Some(input) = rsq_mmap::map(std::path::Path::new(path), invocation.mmap) {
            return Ok(Document::Held(input));
        }
    }
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::new(CliErrorKind::Io, format!("cannot read {path}: {e}")))?;
    Ok(Document::Read(Box::new(file)))
}

/// Holds a document whole, for values and `--verify`: a mapped FILE as it
/// is, redirected stdin mapped whole, anything else copied — held to the
/// size limit and the deadline, which are failures of the input `name`.
/// The slice run of the bytes checks them as it checks a mapped FILE.
fn hold(
    document: Document,
    invocation: &Invocation,
    name: &str,
    deadline: Option<Instant>,
) -> Result<MmapInput, CliError> {
    let held = match document {
        Document::Held(doc) => return Ok(doc),
        Document::Pages(file, start, len) => Mapping::of_file(&file, start, len)
            .map(MmapInput::from)
            .map_err(RunError::Io),
        Document::Read(reader) => {
            let limit = invocation.options.max_document_bytes;
            rsq_engine::read_to_end::<_, Region>(reader, limit, deadline).map(MmapInput::from)
        }
    };
    held.map_err(|e| input_error(name, invocation.options.strict, DocError::from_run(&e)))
}

/// An open file (stdin's descriptor, duplicated) as a document to map
/// window by window, when `fstat` shows a regular file and `policy` maps
/// the bytes after its offset: the file, the offset and the length after
/// it. The offset, which a duplicate shares, is moved to the end, where
/// reading the file would leave it. `None`, for the read loop, for
/// anything else — and for a descriptor that cannot be mapped (one not
/// open for reading, a filesystem without `mmap`).
fn file_pages(mut file: std::fs::File, policy: MapPolicy) -> Option<(std::fs::File, u64, usize)> {
    use std::io::{Seek, SeekFrom};
    let size = file
        .metadata()
        .ok()
        .filter(std::fs::Metadata::is_file)?
        .len();
    let start = file.stream_position().ok()?;
    let len = size.checked_sub(start).filter(|&len| policy.maps(len))?;
    Mapping::of_file(&file, start, 1).ok()?;
    file.seek(SeekFrom::Start(size)).ok()?;
    Some((file, start, usize::try_from(len).ok()?))
}

/// A document's failure as the CLI reports it: one of the input — the
/// reader, its size, strict validation, the deadline — names the input,
/// one of the run (`--max-matches`, a label's length) does not. Depth is
/// the run's unless `strict` held the whole document to it first.
fn input_error(name: &str, strict: bool, e: DocError) -> CliError {
    let named = match e.kind {
        DocErrorKind::Limit(LimitKind::Matches | LimitKind::LabelBytes) | DocErrorKind::Panic => {
            false
        }
        DocErrorKind::Limit(LimitKind::Depth) => strict,
        _ => true,
    };
    let mut err = CliError::from(e);
    if named {
        err.message = format!("{name}: {}", err.message);
    }
    err
}

/// Copies a file or stdin whole, with no engine to check it against:
/// `--stats` has no query, and the lines of NDJSON input are the
/// documents, not the input.
fn read_unchecked(file: Option<&str>) -> Result<Region, CliError> {
    match file {
        Some(path) => std::fs::File::open(path)
            .map_err(RunError::Io)
            .and_then(|file| rsq_engine::read_to_end(file, None, None)),
        None => rsq_engine::read_to_end(std::io::stdin().lock(), None, None),
    }
    .map_err(|e| {
        let name = file.unwrap_or("stdin");
        // With no limit and no deadline, only a read fails the copy.
        let e: &dyn fmt::Display = match &e {
            RunError::Io(e) => e,
            other => other,
        };
        CliError::new(CliErrorKind::Io, format!("cannot read {name}: {e}"))
    })
}

fn write_error(e: std::io::Error) -> CliError {
    CliError::new(CliErrorKind::Failure, format!("write error: {e}"))
}

fn write_file(path: &str, text: String) -> Result<(), CliError> {
    std::fs::write(path, text)
        .map_err(|e| CliError::new(CliErrorKind::Io, format!("cannot write {path}: {e}")))
}

fn parse_query(invocation: &Invocation) -> Result<Query, CliError> {
    Query::parse(&invocation.query).map_err(|e| CliError::new(CliErrorKind::Query, e.to_string()))
}

fn compile(invocation: &Invocation) -> Result<(Query, Engine), CliError> {
    let query = parse_query(invocation)?;
    let engine = Engine::with_options(&query, invocation.options)
        .map_err(|e| CliError::new(CliErrorKind::Query, e.to_string()))?;
    Ok((query, engine))
}

/// Nanoseconds since `t0`, saturated to `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a finished run has to report, whichever driver ran it: the parts
/// that are present are rendered, by the one writer below, to
/// `--metrics-out` and the `--stats`/`--stats-json`/`--profile` block on
/// stderr.
#[derive(Default)]
struct Report<'a> {
    /// Batch-layer counters (batch runs).
    batch: Option<&'a BatchCounters>,
    /// Serve counters and the document latency histogram (serve runs).
    serve: Option<(&'a ServeCounters, &'a Histogram)>,
    /// Tier A counters: a single document's, or a batch's merged.
    stats: Option<&'a RunStats>,
    /// A single document's Tier C profile.
    profile: Option<&'a ProfileStats>,
    /// A batch's merged Tier C profile.
    batch_profile: Option<&'a BatchProfile>,
    /// The live-telemetry hub of a serve run.
    telemetry: Option<&'a Telemetry>,
}

impl Report<'_> {
    /// The `--stats-json` line: `schema_version`, then the driver's
    /// objects — or a single document's counters as top-level fields —
    /// then the `profile` and `telemetry` objects that exist.
    fn json(&self) -> String {
        let mut object = JsonObject::new();
        object.value("schema_version", Value::U64(STATS_SCHEMA_VERSION));
        if let Some(batch) = self.batch {
            object.value("batch", Value::Json(batch.to_json()));
            if let Some(stats) = self.stats {
                object.value("stats", Value::Json(stats.to_json()));
            }
        } else if let Some(stats) = self.stats {
            object.rows(RunStats::ROWS, stats);
        }
        if let Some((serve, _)) = self.serve {
            object.value("serve", Value::Json(serve.to_json()));
        }
        let profile = self.profile.map(ProfileStats::to_json);
        if let Some(profile) = profile.or_else(|| self.batch_profile.map(BatchProfile::to_json)) {
            object.value("profile", Value::Json(profile));
        }
        if let Some(hub) = self.telemetry {
            object.value("telemetry", Value::Json(hub.to_json()));
        }
        object.finish() + "\n"
    }

    /// The human block: the counter tables when `--stats` asked for them,
    /// then the profile (whose single-document table opens with the
    /// counters itself).
    fn human(&self, with_stats: bool) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        // Writing into a `String` cannot fail.
        if with_stats {
            if let Some(batch) = self.batch {
                let _ = writeln!(s, "{batch}");
            }
            if let Some((serve, _)) = self.serve {
                let _ = writeln!(s, "{serve}");
            }
            if let (Some(stats), None) = (self.stats, self.profile) {
                let _ = writeln!(s, "{stats}");
            }
        }
        let profile = self.profile.map(|p| p as &dyn fmt::Display);
        if let Some(profile) = profile.or(self.batch_profile.map(|p| p as &dyn fmt::Display)) {
            let _ = writeln!(s, "{profile}");
        }
        s
    }

    /// The `--metrics-out` exposition. With telemetry on it is the hub's
    /// live rendering (lifetime series plus rolling windows and gauges —
    /// identical to a scrape).
    fn metrics(&self) -> String {
        if let Some(hub) = self.telemetry {
            return hub.render_metrics();
        }
        let mut expo = Exposition::new();
        if let Some((counters, latency)) = self.serve {
            expo.rows(ServeCounters::ROWS, counters, "");
            expo.rows(ServeCounters::LATENCY, latency, "");
        } else {
            let stats = self.stats.copied().unwrap_or_default();
            expo.rows(RunStats::ROWS, &stats, "");
            if let Some(profile) = self.profile {
                expo.rows(SkipBytes::ROWS, &profile.bytes_skipped, "");
                expo.rows(StageTimes::ROWS, &profile.stages, "");
            }
            if let Some(batch) = self.batch {
                expo.rows(BatchCounters::ROWS, batch, "");
                if let Some(profile) = self.batch_profile {
                    profile.expose(&mut expo);
                }
            }
        }
        expo.finish()
    }

    /// Writes the files and the stderr block the invocation asked for.
    fn write(&self, invocation: &Invocation, err: &mut impl Write) -> Result<(), CliError> {
        if let Some(path) = &invocation.metrics_out {
            write_file(path, self.metrics())?;
        }
        let text = match invocation.stats {
            Some(StatsFormat::Json) => self.json(),
            Some(StatsFormat::Human) => self.human(true),
            None => self.human(false),
        };
        err.write_all(text.as_bytes()).map_err(write_error)
    }
}

/// Executes an invocation, writing results to `out` and diagnostics
/// (run statistics) to `err`.
///
/// Results go to `out` only; `--stats`/`--stats-json` reports go to `err`
/// only, so stdout is byte-identical with and without the flags.
///
/// # Errors
///
/// Returns a classified [`CliError`] on bad queries, unreadable input,
/// tripped limits, strict-mode validation failures, or (in `--verify`
/// mode) an engine/oracle mismatch.
pub fn run(
    invocation: &Invocation,
    out: &mut (impl Write + Send),
    err: &mut (impl Write + Send),
) -> Result<(), CliError> {
    if let Some(transport) = &invocation.serve {
        return match transport {
            ServeTransport::Pipe => run_serve_pipe(invocation, std::io::stdin().lock(), out, err),
            ServeTransport::Unix(path) => run_serve_unix(invocation, path, err),
        };
    }
    if let Some(source) = &invocation.batch {
        return run_batch(invocation, source, out, err);
    }
    match invocation.mode {
        Mode::Stats => {
            let input = read_unchecked(invocation.file.as_deref())?;
            let stats = rsq_json::document_stats(&input);
            write!(
                out,
                "size      {} bytes ({:.2} MB)\ndepth     {}\nnodes     {}\nverbosity {:.2} bytes/node\n",
                stats.size_bytes,
                stats.size_mb(),
                stats.max_depth,
                stats.node_count,
                stats.verbosity()
            )
            .map_err(write_error)
        }
        Mode::Compile => {
            let query = parse_query(invocation)?;
            let automaton = rsq_query::Automaton::compile(&query)
                .map_err(|e| CliError::new(CliErrorKind::Query, e.to_string()))?;
            write!(out, "{}", automaton.to_dot()).map_err(write_error)
        }
        Mode::Count | Mode::Positions | Mode::Values | Mode::Verify => {
            run_single(invocation, out, err)
        }
    }
}

/// Runs the query over one document: one contained run
/// ([`runner::run`]), the matches (or the oracle's verdict) on `out`, the
/// report on `err`. Count and positions stream a document that is not a
/// mapped FILE, in bounded memory, profiled or not; values and `--verify`
/// hold it whole ([`hold`]), to cut values from or parse. Nothing reaches
/// `out` before the whole input has been read and checked. A panic
/// inside the run comes back as a failure (exit 1), not an abort.
fn run_single(
    invocation: &Invocation,
    out: &mut impl Write,
    err: &mut impl Write,
) -> Result<(), CliError> {
    let (query, engine) = compile(invocation)?;
    let deadline = invocation
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let name = invocation.file.as_deref().unwrap_or("stdin");
    let t_ingest = invocation.profile.then(Instant::now);
    let mut document = open_input(invocation)?;
    if !matches!(invocation.mode, Mode::Count | Mode::Positions) {
        document = Document::Held(hold(document, invocation, name, deadline)?);
    }
    let ingest_ns = t_ingest.map_or(0, elapsed_ns);

    let mut stats = RunStats::default();
    let mut profile = invocation.profile.then(ProfileStats::new);
    let record = match profile.as_mut() {
        Some(profile) => Record::Profile(profile),
        None if invocation.wants_stats() => Record::Stats(&mut stats),
        None => Record::Nothing,
    };
    let mut sink = DocSink::new(invocation.response_mode(), None);
    let (input, doc): (_, &[u8]) = match &mut document {
        Document::Held(held) => (Input::Slice(held), held),
        Document::Pages(file, start, len) => {
            let (start, len) = (*start, *len);
            let pages = Input::Pages {
                file,
                start,
                len,
                deadline,
            };
            (pages, &[])
        }
        Document::Read(reader) => (Input::Reader { reader, deadline }, &[]),
    };
    runner::run(&engine, input, &mut sink, record)
        .map_err(|e| input_error(name, invocation.options.strict, e))?;
    let matches = sink.matches();

    if invocation.mode == Mode::Verify {
        let dom = rsq_json::parse(doc)
            .map_err(|e| CliError::new(CliErrorKind::Malformed, e.to_string()))?;
        let oracle = rsq_baselines::positions(&query, &dom);
        if matches.positions() != oracle {
            return Err(CliError::new(
                CliErrorKind::Failure,
                format!(
                    "MISMATCH: engine found {} matches, oracle {} (this is a bug — \
                     duplicate sibling keys? see README on sibling skipping)",
                    matches.count(),
                    oracle.len()
                ),
            ));
        }
    }
    let t_sink = invocation.profile.then(Instant::now);
    if invocation.mode == Mode::Verify {
        writeln!(
            out,
            "ok: {} matches, engine and oracle agree",
            matches.count()
        )
    } else {
        render(out, doc, matches)
    }
    .map_err(write_error)?;
    if let Some(profile) = profile.as_mut() {
        profile.add_stage_ns(ProfileStage::Ingest, ingest_ns);
        profile.add_stage_ns(ProfileStage::Sink, t_sink.map_or(0, elapsed_ns));
    }

    Report {
        stats: Some(profile.as_ref().map_or(&stats, |p| &p.stats)),
        profile: profile.as_ref(),
        ..Report::default()
    }
    .write(invocation, err)
}

/// Assembles [`ServeOptions`] from a parsed serve invocation.
fn serve_options(invocation: &Invocation) -> ServeOptions {
    ServeOptions {
        query: invocation.query.clone(),
        engine: invocation.options,
        mode: invocation.response_mode(),
        threads: invocation.threads,
        deadline: invocation.deadline_ms.map(Duration::from_millis),
    }
}

/// Builds the live-telemetry hub when `--telemetry-socket` armed it.
fn telemetry_hub(invocation: &Invocation) -> Option<Arc<Telemetry>> {
    invocation.telemetry_socket.is_some().then(Telemetry::new)
}

/// Binds the scrape socket (replacing a stale file) and answers it from
/// a background thread until the hub's listener-stop flag is raised.
fn spawn_telemetry_listener(
    hub: &Arc<Telemetry>,
    path: &str,
) -> Result<std::thread::JoinHandle<()>, CliError> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path).map_err(|e| {
        CliError::new(
            CliErrorKind::Io,
            format!("cannot bind telemetry socket {path}: {e}"),
        )
    })?;
    let hub = Arc::clone(hub);
    Ok(std::thread::spawn(move || {
        let _ = serve_telemetry_listener(&hub, &listener);
    }))
}

/// Stops and joins the scrape-listener thread, if one is running.
fn stop_telemetry_listener(
    hub: Option<&Arc<Telemetry>>,
    handle: Option<std::thread::JoinHandle<()>>,
) {
    if let Some(h) = hub {
        h.stop_listener();
    }
    if let Some(t) = handle {
        let _ = t.join();
    }
}

/// The report of a serve session, or of the sessions so far.
fn serve_report<'a>(report: &'a ServeReport, hub: Option<&'a Arc<Telemetry>>) -> Report<'a> {
    Report {
        serve: Some((&report.counters, &report.latency)),
        telemetry: hub.map(Arc::as_ref),
        ..Report::default()
    }
}

/// Turns a drained serve session into the exit classification:
/// per-document failures map to the first failure's class, a lost
/// connection to an I/O error.
fn serve_outcome(report: &ServeReport) -> Result<(), CliError> {
    if let Some(kind) = report.first_failure {
        return Err(CliError::new(
            doc_error_kind(kind),
            format!(
                "{} of {} documents failed",
                report.counters.failed_documents(),
                report.counters.documents
            ),
        ));
    }
    if !report.clean {
        return Err(CliError::new(
            CliErrorKind::Io,
            "connection lost before the stream completed",
        ));
    }
    Ok(())
}

/// Serves the pipe protocol over an arbitrary reader (stdin in the
/// binary; test harnesses substitute chaos streams): one session, then
/// the post-drain reports.
///
/// # Errors
///
/// As [`run`]: bad queries, report-write failures, and the session's
/// exit classification.
pub fn run_serve_pipe(
    invocation: &Invocation,
    reader: impl Read,
    out: &mut (impl Write + Send),
    err: &mut (impl Write + Send),
) -> Result<(), CliError> {
    let options = serve_options(invocation);
    let hub = telemetry_hub(invocation);
    let listener = match (&hub, &invocation.telemetry_socket) {
        (Some(h), Some(path)) => Some(spawn_telemetry_listener(h, path)?),
        _ => None,
    };
    let result = serve_connection_with(&options, hub.as_ref(), reader, &mut *out, &mut *err)
        .map_err(|e| CliError::new(CliErrorKind::Query, e.message));
    stop_telemetry_listener(hub.as_ref(), listener);
    let report = result?;
    serve_report(&report, hub.as_ref()).write(invocation, err)?;
    serve_outcome(&report)
}

/// Serves connections on a Unix socket. A stale socket file at `path`
/// is replaced. Reports (`--stats*`, `--metrics-out`) are refreshed after
/// every connection drains, so a long-lived server keeps its files
/// current.
///
/// Without telemetry the loop runs until the process is killed. With
/// `--telemetry-socket`, `POST /shutdown` on the scrape endpoint requests
/// a graceful drain: the in-progress connection finishes, no further
/// connections are accepted, `/healthz` answers `503 draining` meanwhile,
/// and the final reports (with exit classification) are written on the
/// way out.
fn run_serve_unix(
    invocation: &Invocation,
    path: &str,
    err: &mut (impl Write + Send),
) -> Result<(), CliError> {
    let options = serve_options(invocation);
    // Compile eagerly so a bad query fails at startup, not on the first
    // connection.
    compile(invocation)?;
    let hub = telemetry_hub(invocation);
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| CliError::new(CliErrorKind::Io, format!("cannot bind {path}: {e}")))?;
    let telemetry_thread = match (&hub, &invocation.telemetry_socket) {
        (Some(h), Some(sock)) => Some(spawn_telemetry_listener(h, sock)?),
        _ => None,
    };
    // Without a hub there is no shutdown channel: the flag below never
    // flips and the loop runs until the process dies.
    let never = Flag::new(false);
    let shutdown = hub.as_deref().map_or(&never, Telemetry::shutdown_flag);

    // A report that cannot be written ends the loop with that error.
    let mut refreshed = Ok(());
    let served = serve_unix_with(&options, hub.as_ref(), &listener, shutdown, |aggregate| {
        refreshed = serve_report(aggregate, hub.as_ref()).write(invocation, err);
        refreshed.is_ok()
    });
    stop_telemetry_listener(hub.as_ref(), telemetry_thread);
    refreshed?;
    let aggregate =
        served.map_err(|e| CliError::new(CliErrorKind::Io, format!("serving on {path}: {e}")))?;
    // Only reachable through a graceful shutdown request: write the
    // final reports and map the session onto an exit class.
    serve_report(&aggregate, hub.as_ref()).write(invocation, err)?;
    serve_outcome(&aggregate)
}

/// Executes a batch invocation: documents from the batch source, sharded
/// across worker threads, results printed **in input order** — stdout is
/// byte-identical to looping `rsq` over each document sequentially.
///
/// A failing document is reported on `err` (`<label>: <message>`) and
/// does not abort the batch; when any document failed, the returned error
/// carries the first failure's class so the exit code reflects it.
fn run_batch(
    invocation: &Invocation,
    source: &BatchSource,
    out: &mut impl Write,
    err: &mut impl Write,
) -> Result<(), CliError> {
    let engine = BatchEngine::new(BatchOptions {
        threads: invocation.threads,
        engine: invocation.options,
        collect_stats: invocation.wants_stats(),
        profile: invocation.profile,
        mode: invocation.response_mode(),
    });

    // Load the corpus: ingest is sequential (one disk), compute parallel.
    // Both sources honor the `--mmap` policy: directory files and the
    // NDJSON file are mapped when it allows and copied into a region
    // otherwise (as stdin always is); NDJSON lines are borrowed from
    // whichever of the two holds the file.
    let ndjson: MmapInput;
    let mut files: Vec<(String, MmapInput)> = Vec::new();
    let query_error =
        |e: rsq_engine::EngineError| CliError::new(CliErrorKind::Query, e.to_string());
    let (docs, result): (Vec<&[u8]>, _) = match source {
        BatchSource::Ndjson(path) => {
            let file = (path != "-").then_some(path.as_str());
            let mapped = file.and_then(|p| rsq_mmap::map(std::path::Path::new(p), invocation.mmap));
            ndjson = match mapped {
                Some(mapped) => mapped,
                None => read_unchecked(file)?.into(),
            };
            let (ranges, result) = engine
                .run_ndjson(&invocation.query, &ndjson)
                .map_err(query_error)?;
            #[expect(
                clippy::indexing_slicing,
                reason = "run_ndjson's ranges are derived from the buffer and lie in bounds"
            )]
            let docs = ranges.into_iter().map(|range| &ndjson[range]).collect();
            (docs, result)
        }
        BatchSource::Dir(path) => {
            files = BatchEngine::load_dir_mapped(std::path::Path::new(path), invocation.mmap)
                .map_err(|e| CliError::new(CliErrorKind::Io, format!("cannot read {path}: {e}")))?;
            let docs: Vec<&[u8]> = files.iter().map(|(_, input)| input.as_bytes()).collect();
            let result = engine
                .run_slices(&invocation.query, &docs)
                .map_err(query_error)?;
            (docs, result)
        }
    };
    // Names a document in stderr diagnostics: its line's ordinal among
    // the NDJSON documents, its file name in a directory.
    let label = |i: usize| match files.get(i) {
        Some((name, _)) => name.clone(),
        None => format!("document {}", i + 1),
    };

    let mut first_failure: Option<CliErrorKind> = None;
    let mut failed = 0usize;
    // One outcome per document, in input order.
    for (i, (doc, outcome)) in docs.iter().zip(&result.outcomes).enumerate() {
        match outcome {
            Ok(output) => render(out, doc, &output.matches),
            Err(doc_err) => {
                failed += 1;
                first_failure.get_or_insert(doc_error_kind(doc_err.kind));
                writeln!(err, "{}: {}", label(i), doc_err.message)
            }
        }
        .map_err(write_error)?;
    }

    Report {
        batch: Some(&result.counters),
        stats: Some(&result.stats),
        batch_profile: result.profile.as_ref(),
        ..Report::default()
    }
    .write(invocation, err)?;

    match first_failure {
        Some(kind) => Err(CliError::new(
            kind,
            format!("{failed} of {} documents failed", result.outcomes.len()),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        Invocation::parse(&owned)
    }

    #[test]
    fn parses_modes() {
        assert_eq!(parse(&["$..a"]).unwrap().mode, Mode::Values);
        assert_eq!(parse(&["--count", "$..a"]).unwrap().mode, Mode::Count);
        assert_eq!(
            parse(&["--positions", "$..a", "f.json"])
                .unwrap()
                .file
                .as_deref(),
            Some("f.json")
        );
        assert_eq!(parse(&["--stats"]).unwrap().mode, Mode::Stats);
        assert_eq!(parse(&["--compile", "$.a"]).unwrap().mode, Mode::Compile);
        assert!(parse(&["--nope", "$..a"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["a", "b", "c"]).is_err());
    }

    #[test]
    fn stats_flag_is_mode_without_query_and_report_with_one() {
        // Back compat: no query positional → document statistics mode.
        let doc_stats = parse(&["--stats", "f.json"]).unwrap();
        assert_eq!(doc_stats.mode, Mode::Stats);
        assert_eq!(doc_stats.stats, None);

        // A `$…` positional makes it the run-statistics flag.
        let run_stats = parse(&["--stats", "$..a", "f.json"]).unwrap();
        assert_eq!(run_stats.mode, Mode::Values);
        assert_eq!(run_stats.stats, Some(StatsFormat::Human));

        // So does another mode flag.
        let with_count = parse(&["--count", "--stats", "$..a"]).unwrap();
        assert_eq!(with_count.mode, Mode::Count);
        assert_eq!(with_count.stats, Some(StatsFormat::Human));

        // `--stats-json` always means run statistics; it wins over
        // `--stats` when both are given.
        let json = parse(&["--stats-json", "$..a"]).unwrap();
        assert_eq!(json.mode, Mode::Values);
        assert_eq!(json.stats, Some(StatsFormat::Json));
        let both = parse(&["--stats", "--stats-json", "$..a"]).unwrap();
        assert_eq!(both.stats, Some(StatsFormat::Json));

        // Run statistics need a run.
        assert!(parse(&["--compile", "--stats-json", "$.a"]).is_err());
    }

    #[test]
    fn parses_limit_flags() {
        let inv = parse(&[
            "--strict",
            "--max-depth",
            "64",
            "--max-bytes=1000",
            "--max-matches",
            "5",
            "$..a",
        ])
        .unwrap();
        assert!(inv.options.strict);
        assert_eq!(inv.options.max_depth, 64);
        assert_eq!(inv.options.max_document_bytes, Some(1000));
        assert_eq!(inv.options.max_matches, Some(5));
        assert!(parse(&["--max-depth", "$..a"]).is_err()); // not a number
        assert!(parse(&["--max-depth"]).is_err()); // missing value
        assert!(parse(&["--max-bytes=many", "$..a"]).is_err());
    }

    #[test]
    fn parses_mmap_policy() {
        assert_eq!(parse(&["$..a"]).unwrap().mmap, MapPolicy::Auto);
        assert_eq!(
            parse(&["--mmap", "on", "$..a"]).unwrap().mmap,
            MapPolicy::On
        );
        assert_eq!(parse(&["--mmap=off", "$..a"]).unwrap().mmap, MapPolicy::Off);
        assert_eq!(
            parse(&["--mmap=auto", "$..a"]).unwrap().mmap,
            MapPolicy::Auto
        );
        assert!(parse(&["--mmap", "sometimes", "$..a"]).is_err());
        assert!(parse(&["--mmap"]).is_err());
    }

    /// `--mmap on` and `--mmap off` must be byte-identical on stdout for
    /// every mode — the flag changes how bytes reach the engine, never
    /// what comes out.
    #[test]
    fn mmap_on_and_off_agree_everywhere() {
        // Body above AUTO_THRESHOLD would be slow to build per test run;
        // `On` maps regardless of size, which is the interesting path.
        let doc = format!(
            r#"{{"pad": "{}", "a": [1, {{"b": 2}}], "b": 3}}"#,
            "x".repeat(4096)
        );
        with_temp_file(&doc, |path| {
            for mode in [Mode::Count, Mode::Values, Mode::Positions, Mode::Verify] {
                let inv = |mmap| Invocation {
                    mode: mode.clone(),
                    query: "$..b".to_owned(),
                    file: Some(path.to_owned()),
                    options: EngineOptions::default(),
                    stats: None,
                    batch: None,
                    threads: 0,
                    profile: false,
                    metrics_out: None,
                    serve: None,
                    deadline_ms: None,
                    telemetry_socket: None,
                    mmap,
                };
                let mapped = run_to_string(&inv(MapPolicy::On)).unwrap();
                let buffered = run_to_string(&inv(MapPolicy::Off)).unwrap();
                assert_eq!(mapped, buffered, "mode {mode:?}");
            }
        });
    }

    /// Stdin is mapped only when it is a regular file with bytes after its
    /// offset that the policy maps: from the offset, which is left at the
    /// end. Everything else goes to the read loop untouched.
    #[test]
    fn stdin_maps_only_regular_files_the_policy_admits() {
        use std::io::{Seek, SeekFrom};
        let big = vec![b' '; rsq_mmap::AUTO_THRESHOLD as usize + 100];
        with_temp_file(std::str::from_utf8(&big).unwrap(), |path| {
            let open = |at| {
                let mut file = std::fs::File::open(path).unwrap();
                file.seek(SeekFrom::Start(at)).unwrap();
                file
            };
            let (mut file, start, len) = file_pages(open(99), MapPolicy::Auto).unwrap();
            assert_eq!((start, len), (99, big.len() - 99));
            assert_eq!(file.stream_position().unwrap(), big.len() as u64);
            // Under the threshold from the offset, past the end, or off.
            assert!(file_pages(open(101), MapPolicy::Auto).is_none());
            assert!(file_pages(open(big.len() as u64 + 1), MapPolicy::On).is_none());
            assert!(file_pages(open(0), MapPolicy::Off).is_none());
            let mut file = open(big.len() as u64 - 1);
            assert!(file_pages(file.try_clone().unwrap(), MapPolicy::On).is_some());
            assert_eq!(file.stream_position().unwrap(), big.len() as u64);
        });
        with_temp_file("", |path| {
            let empty = std::fs::File::open(path).unwrap();
            assert!(file_pages(empty, MapPolicy::On).is_none());
        });
        let null = std::fs::File::open("/dev/null").unwrap();
        assert!(file_pages(null, MapPolicy::On).is_none());
        let (reader, _writer) = std::io::pipe().unwrap();
        let pipe = std::fs::File::from(std::os::fd::OwnedFd::from(reader));
        assert!(file_pages(pipe, MapPolicy::On).is_none());
    }

    /// An oversized file is rejected with the Limit class whether or not
    /// mapping is requested (the mmap path defers to the reader's check).
    #[test]
    fn mmap_respects_max_bytes_limit() {
        with_temp_file(&format!(r#"{{"a": "{}"}}"#, "y".repeat(2048)), |path| {
            for mmap in [MapPolicy::On, MapPolicy::Off] {
                let inv = Invocation {
                    mode: Mode::Count,
                    query: "$.a".to_owned(),
                    file: Some(path.to_owned()),
                    options: EngineOptions {
                        max_document_bytes: Some(100),
                        ..EngineOptions::default()
                    },
                    stats: None,
                    batch: None,
                    threads: 0,
                    profile: false,
                    metrics_out: None,
                    serve: None,
                    deadline_ms: None,
                    telemetry_socket: None,
                    mmap,
                };
                let err = run_to_string(&inv).unwrap_err();
                assert_eq!(err.kind, CliErrorKind::Limit, "policy {mmap:?}");
            }
        });
    }

    fn run_to_string(inv: &Invocation) -> Result<String, CliError> {
        let mut out = Vec::new();
        run(inv, &mut out, &mut Vec::new())?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn with_temp_file(content: &str, f: impl FnOnce(&str)) {
        let path = std::env::temp_dir().join(format!(
            "rsq-cli-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, content).unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn count_values_positions_and_verify() {
        with_temp_file(r#"{"a": [1, {"b": 2}], "b": 3}"#, |path| {
            let inv = |mode| Invocation {
                mode,
                query: "$..b".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats: None,
                batch: None,
                threads: 0,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            assert_eq!(run_to_string(&inv(Mode::Count)).unwrap(), "2\n");
            assert_eq!(run_to_string(&inv(Mode::Values)).unwrap(), "2\n3\n");
            let positions = run_to_string(&inv(Mode::Positions)).unwrap();
            assert_eq!(positions.lines().count(), 2);
            let verify = run_to_string(&inv(Mode::Verify)).unwrap();
            assert!(verify.starts_with("ok: 2 matches"));
        });
    }

    #[test]
    fn error_kinds_are_classified() {
        let bad_query = Invocation {
            mode: Mode::Count,
            query: "nope".to_owned(),
            file: None,
            options: EngineOptions::default(),
            stats: None,
            batch: None,
            threads: 0,
            profile: false,
            metrics_out: None,
            serve: None,
            deadline_ms: None,
            telemetry_socket: None,
            mmap: MapPolicy::Auto,
        };
        assert_eq!(
            run(&bad_query, &mut Vec::new(), &mut Vec::new())
                .unwrap_err()
                .kind,
            CliErrorKind::Query
        );

        let missing_file = Invocation {
            mode: Mode::Count,
            query: "$..a".to_owned(),
            file: Some("/nonexistent/rsq-test.json".to_owned()),
            options: EngineOptions::default(),
            stats: None,
            batch: None,
            threads: 0,
            profile: false,
            metrics_out: None,
            serve: None,
            deadline_ms: None,
            telemetry_socket: None,
            mmap: MapPolicy::Auto,
        };
        assert_eq!(
            run(&missing_file, &mut Vec::new(), &mut Vec::new())
                .unwrap_err()
                .kind,
            CliErrorKind::Io
        );

        with_temp_file(r#"{"a": 1, "a": 2"#, |path| {
            let strict = Invocation {
                mode: Mode::Count,
                query: "$..a".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions {
                    strict: true,
                    ..EngineOptions::default()
                },
                stats: None,
                batch: None,
                threads: 0,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            assert_eq!(
                run(&strict, &mut Vec::new(), &mut Vec::new())
                    .unwrap_err()
                    .kind,
                CliErrorKind::Malformed
            );
        });

        with_temp_file(r#"{"a": 1, "b": {"a": 2}}"#, |path| {
            let limited = Invocation {
                mode: Mode::Count,
                query: "$..a".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions {
                    max_matches: Some(1),
                    ..EngineOptions::default()
                },
                stats: None,
                batch: None,
                threads: 0,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            assert_eq!(
                run(&limited, &mut Vec::new(), &mut Vec::new())
                    .unwrap_err()
                    .kind,
                CliErrorKind::Limit
            );
        });
    }

    #[test]
    fn stats_mode() {
        with_temp_file(r#"{"a": [1, 2]}"#, |path| {
            let inv = Invocation {
                mode: Mode::Stats,
                query: String::new(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats: None,
                batch: None,
                threads: 0,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let out = run_to_string(&inv).unwrap();
            assert!(out.contains("nodes     4"), "{out}");
            assert!(out.contains("depth     3"), "{out}");
        });
    }

    #[test]
    fn run_stats_go_to_err_writer_only() {
        with_temp_file(r#"{"a": [1, {"b": 2}], "b": 3}"#, |path| {
            let inv = |stats| Invocation {
                mode: Mode::Count,
                query: "$..b".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats,
                batch: None,
                threads: 0,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut out = Vec::new();
            let mut err = Vec::new();
            run(&inv(Some(StatsFormat::Json)), &mut out, &mut err).unwrap();
            assert_eq!(out, b"2\n", "stdout is results only");
            let err = String::from_utf8(err).unwrap();
            assert_eq!(err.lines().count(), 1, "single line: {err}");
            assert!(err.contains("\"matches\":2"), "{err}");

            let mut err = Vec::new();
            run(&inv(Some(StatsFormat::Human)), &mut Vec::new(), &mut err).unwrap();
            let err = String::from_utf8(err).unwrap();
            assert!(err.contains("matches"), "{err}");

            let mut err = Vec::new();
            run(&inv(None), &mut Vec::new(), &mut err).unwrap();
            assert!(err.is_empty(), "no stats without the flag");
        });
    }

    #[test]
    fn parses_batch_flags() {
        let inv = parse(&[
            "--count",
            "--batch-ndjson",
            "corpus.ndjson",
            "--threads",
            "4",
            "$..a",
        ])
        .unwrap();
        assert_eq!(
            inv.batch,
            Some(BatchSource::Ndjson("corpus.ndjson".to_owned()))
        );
        assert_eq!(inv.threads, 4);
        assert_eq!(inv.mode, Mode::Count);

        let dir = parse(&["--batch-dir=docs/", "$..a"]).unwrap();
        assert_eq!(dir.batch, Some(BatchSource::Dir("docs/".to_owned())));
        assert_eq!(dir.threads, 0, "auto by default");

        // --threads needs a batch source; batch needs a runnable mode and
        // takes no FILE positional.
        assert!(parse(&["--threads", "4", "$..a"]).is_err());
        assert!(parse(&["--verify", "--batch-ndjson", "x", "$..a"]).is_err());
        assert!(parse(&["--batch-ndjson", "x", "$..a", "f.json"]).is_err());
        assert!(parse(&["--batch-ndjson", "x"]).is_err()); // no query
    }

    #[test]
    fn batch_ndjson_outputs_in_input_order() {
        with_temp_file(
            "{\"a\": 1}\n{\"b\": {\"a\": [2, 3]}}\n{\"c\": 0}\n",
            |path| {
                let inv = |mode| Invocation {
                    mode,
                    query: "$..a".to_owned(),
                    file: None,
                    options: EngineOptions::default(),
                    stats: None,
                    batch: Some(BatchSource::Ndjson(path.to_owned())),
                    threads: 2,
                    profile: false,
                    metrics_out: None,
                    serve: None,
                    deadline_ms: None,
                    telemetry_socket: None,
                    mmap: MapPolicy::Auto,
                };
                assert_eq!(run_to_string(&inv(Mode::Count)).unwrap(), "1\n1\n0\n");
                assert_eq!(
                    run_to_string(&inv(Mode::Values)).unwrap(),
                    "1\n[2, 3]\n",
                    "values in input order, no output for the no-match doc"
                );
            },
        );
    }

    #[test]
    fn batch_reports_failures_without_aborting() {
        with_temp_file("{\"a\": 1, \"b\": {\"a\": 2}}\n{\"a\": 3}\n", |path| {
            let inv = Invocation {
                mode: Mode::Count,
                query: "$..a".to_owned(),
                file: None,
                options: EngineOptions {
                    max_matches: Some(1),
                    ..EngineOptions::default()
                },
                stats: None,
                batch: Some(BatchSource::Ndjson(path.to_owned())),
                threads: 1,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut out = Vec::new();
            let mut err = Vec::new();
            let failure = run(&inv, &mut out, &mut err).unwrap_err();
            assert_eq!(failure.kind, CliErrorKind::Limit);
            assert!(failure.message.contains("1 of 2 documents failed"));
            assert_eq!(out, b"1\n", "the healthy document still prints");
            let err = String::from_utf8(err).unwrap();
            assert!(err.starts_with("document 1: "), "{err}");
        });
    }

    #[test]
    fn batch_stats_json_reports_merged_stats() {
        with_temp_file("{\"a\": 1}\n{\"a\": 2}\n", |path| {
            let inv = Invocation {
                mode: Mode::Count,
                query: "$..a".to_owned(),
                file: None,
                options: EngineOptions::default(),
                stats: Some(StatsFormat::Json),
                batch: Some(BatchSource::Ndjson(path.to_owned())),
                threads: 1,
                profile: false,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut out = Vec::new();
            let mut err = Vec::new();
            run(&inv, &mut out, &mut err).unwrap();
            assert_eq!(out, b"1\n1\n");
            let err = String::from_utf8(err).unwrap();
            assert_eq!(err.lines().count(), 1, "{err}");
            assert!(err.contains("\"batch\":{\"documents\":2"), "{err}");
            assert!(!err.contains("cache"), "{err}");
            assert!(err.contains("\"stats\":{"), "{err}");
            assert!(err.contains("\"matches\":2"), "{err}");
        });
    }

    #[test]
    fn batch_dir_mode_labels_errors_by_file_name() {
        let dir = std::env::temp_dir().join(format!("rsq-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("1-bad.json"), b"{\"a\": 1, \"a\": 2").unwrap();
        std::fs::write(dir.join("2-good.json"), b"{\"a\": 1}").unwrap();
        let inv = Invocation {
            mode: Mode::Count,
            query: "$..a".to_owned(),
            file: None,
            options: EngineOptions {
                strict: true,
                ..EngineOptions::default()
            },
            stats: None,
            batch: Some(BatchSource::Dir(dir.to_str().unwrap().to_owned())),
            threads: 2,
            profile: false,
            metrics_out: None,
            serve: None,
            deadline_ms: None,
            telemetry_socket: None,
            mmap: MapPolicy::Auto,
        };
        let mut out = Vec::new();
        let mut err = Vec::new();
        let failure = run(&inv, &mut out, &mut err).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(failure.kind, CliErrorKind::Malformed);
        assert_eq!(out, b"1\n", "good file still counted");
        let err = String::from_utf8(err).unwrap();
        assert!(err.starts_with("1-bad.json: "), "{err}");
    }

    #[test]
    fn parses_profile_and_metrics_flags() {
        let inv = parse(&["--profile", "--stats-json", "$..a", "f.json"]).unwrap();
        assert!(inv.profile);
        assert_eq!(inv.stats, Some(StatsFormat::Json));

        let metrics = parse(&["--metrics-out", "m.prom", "$..a"]).unwrap();
        assert_eq!(metrics.metrics_out.as_deref(), Some("m.prom"));
        assert!(!metrics.profile);

        // Profiling needs a run, like --stats-json.
        assert!(parse(&["--compile", "--profile", "$.a"]).is_err());
        assert!(parse(&["--profile", "--stats", "f.json"]).is_err());
    }

    #[test]
    fn stats_json_carries_schema_version_and_profile_object() {
        with_temp_file(r#"{"a": [1, {"b": 2}], "b": 3}"#, |path| {
            let inv = |profile| Invocation {
                mode: Mode::Count,
                query: "$..b".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats: Some(StatsFormat::Json),
                batch: None,
                threads: 0,
                profile,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut err = Vec::new();
            run(&inv(false), &mut Vec::new(), &mut err).unwrap();
            let plain = String::from_utf8(err).unwrap();
            assert!(plain.starts_with("{\"schema_version\":7,"), "{plain}");
            assert!(!plain.contains("\"profile\""), "{plain}");

            let mut err = Vec::new();
            run(&inv(true), &mut Vec::new(), &mut err).unwrap();
            let profiled = String::from_utf8(err).unwrap();
            assert_eq!(profiled.lines().count(), 1, "{profiled}");
            for key in [
                "\"schema_version\":7,",
                "\"profile\":{",
                "\"bytes_skipped\":{",
                "\"skip_rate_pct\":",
                "\"stages\":{",
            ] {
                assert!(profiled.contains(key), "{key} missing from {profiled}");
            }
            // Modulo the version field and the appended profile object,
            // the profiled line still carries the identical stats body.
            let stats_body = plain
                .trim_end()
                .strip_prefix("{\"schema_version\":7,")
                .unwrap()
                .strip_suffix('}')
                .unwrap();
            assert!(profiled.contains(stats_body), "{profiled}");
        });
    }

    #[test]
    fn profile_without_stats_prints_human_table() {
        with_temp_file(r#"{"a": [1, {"b": 2}], "b": 3}"#, |path| {
            let inv = Invocation {
                mode: Mode::Count,
                query: "$..b".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats: None,
                batch: None,
                threads: 0,
                profile: true,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut out = Vec::new();
            let mut err = Vec::new();
            run(&inv, &mut out, &mut err).unwrap();
            assert_eq!(out, b"2\n", "stdout unchanged by --profile");
            let err = String::from_utf8(err).unwrap();
            assert!(err.contains("bytes skipped"), "{err}");
            assert!(err.contains("stage times (ns)"), "{err}");
            assert!(!err.contains("classify"), "{err}");
        });
    }

    #[test]
    fn metrics_out_writes_prometheus_exposition() {
        with_temp_file(r#"{"a": [1, {"b": 2}], "b": 3}"#, |path| {
            let metrics_path = format!("{path}.prom");
            let inv = Invocation {
                mode: Mode::Count,
                query: "$..b".to_owned(),
                file: Some(path.to_owned()),
                options: EngineOptions::default(),
                stats: None,
                batch: None,
                threads: 0,
                profile: true,
                metrics_out: Some(metrics_path.clone()),
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut err = Vec::new();
            run(&inv, &mut Vec::new(), &mut err).unwrap();
            let text = std::fs::read_to_string(&metrics_path).unwrap();
            let _ = std::fs::remove_file(&metrics_path);
            assert!(text.contains("# TYPE rsq_matches_total counter"), "{text}");
            assert!(text.contains("rsq_matches_total 2"), "{text}");
            assert!(text.contains("rsq_bytes_skipped_total{"), "{text}");
        });
    }

    #[test]
    fn batch_profile_reports_latency_and_workers() {
        with_temp_file("{\"a\": 1}\n{\"b\": {\"a\": [2, 3]}}\n", |path| {
            let inv = |stats| Invocation {
                mode: Mode::Count,
                query: "$..a".to_owned(),
                file: None,
                options: EngineOptions::default(),
                stats,
                batch: Some(BatchSource::Ndjson(path.to_owned())),
                threads: 1,
                profile: true,
                metrics_out: None,
                serve: None,
                deadline_ms: None,
                telemetry_socket: None,
                mmap: MapPolicy::Auto,
            };
            let mut err = Vec::new();
            run(&inv(Some(StatsFormat::Json)), &mut Vec::new(), &mut err).unwrap();
            let json = String::from_utf8(err).unwrap();
            assert_eq!(json.lines().count(), 1, "{json}");
            for key in [
                "\"schema_version\":7,",
                "\"batch\":{",
                "\"profile\":{",
                "\"latency\":{",
                "\"workers\":[{",
                "\"queue_wait_ns\":",
            ] {
                assert!(json.contains(key), "{key} missing from {json}");
            }

            let mut err = Vec::new();
            run(&inv(None), &mut Vec::new(), &mut err).unwrap();
            let human = String::from_utf8(err).unwrap();
            assert!(human.contains("doc latency (ns)"), "{human}");
            assert!(human.contains("worker 0"), "{human}");
        });
    }

    #[test]
    fn compile_mode_emits_dot() {
        let inv = Invocation {
            mode: Mode::Compile,
            query: "$.a..b".to_owned(),
            file: None,
            options: EngineOptions::default(),
            stats: None,
            batch: None,
            threads: 0,
            profile: false,
            metrics_out: None,
            serve: None,
            deadline_ms: None,
            telemetry_socket: None,
            mmap: MapPolicy::Auto,
        };
        let out = run_to_string(&inv).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("doublecircle"));
    }

    #[test]
    fn parses_serve_flags() {
        let inv = parse(&["--serve", "--count", "$..b"]).unwrap();
        assert_eq!(inv.serve, Some(ServeTransport::Pipe));
        assert_eq!(inv.mode, Mode::Count);
        assert_eq!(inv.file, None);

        let inv = parse(&[
            "--serve-socket=/tmp/rsq.sock",
            "--deadline-ms",
            "250",
            "--threads",
            "2",
            "$..b",
        ])
        .unwrap();
        assert_eq!(
            inv.serve,
            Some(ServeTransport::Unix("/tmp/rsq.sock".to_owned()))
        );
        assert_eq!(inv.deadline_ms, Some(250));
        assert_eq!(inv.threads, 2);

        // Serve reads from its transport: exactly one positional.
        assert!(parse(&["--serve", "$..b", "f.json"]).is_err());
        assert!(parse(&["--serve"]).is_err());
        // Incompatible modes and flags.
        assert!(parse(&["--serve", "--batch-ndjson", "$..b"]).is_err());
        assert!(parse(&["--serve", "--verify", "$..b"]).is_err());
        assert!(parse(&["--serve", "--profile", "$..b"]).is_err());
        // Flag dependencies and ranges.
        assert!(parse(&["--deadline-ms", "5", "--batch-ndjson", "$..b"]).is_err());
        assert!(parse(&["--deadline-ms", "5", "--compile", "$.a"]).is_err());
        // Single-document runs may carry an ingest deadline.
        assert_eq!(
            parse(&["--deadline-ms", "5", "$..b", "f.json"])
                .unwrap()
                .deadline_ms,
            Some(5)
        );
    }

    #[test]
    fn parses_telemetry_flags() {
        let inv = parse(&[
            "--serve-socket=/tmp/rsq.sock",
            "--telemetry-socket=/tmp/rsq-telemetry.sock",
            "$..b",
        ])
        .unwrap();
        assert_eq!(
            inv.telemetry_socket.as_deref(),
            Some("/tmp/rsq-telemetry.sock")
        );
        assert_eq!(parse(&["--serve", "$..b"]).unwrap().telemetry_socket, None);
        // Telemetry rides on serve mode only.
        assert!(parse(&["--telemetry-socket", "/tmp/t.sock", "$..b"]).is_err());
    }

    fn serve_invocation(mode: Mode) -> Invocation {
        Invocation {
            mode,
            query: "$..b".to_owned(),
            file: None,
            options: EngineOptions::default(),
            stats: None,
            batch: None,
            threads: 2,
            profile: false,
            metrics_out: None,
            serve: Some(ServeTransport::Pipe),
            deadline_ms: None,
            telemetry_socket: None,
            mmap: MapPolicy::Auto,
        }
    }

    const SERVE_INPUT: &[u8] = b"{\"a\": {\"b\": 1}}\n{\"b\": [1, {\"b\": 2}]}\n";

    #[test]
    fn serve_pipe_counts_and_reports_stats_json() {
        let mut inv = serve_invocation(Mode::Count);
        inv.stats = Some(StatsFormat::Json);
        let mut out = Vec::new();
        let mut err = Vec::new();
        run_serve_pipe(&inv, SERVE_INPUT, &mut out, &mut err).unwrap();
        assert_eq!(out, b"1\n2\n");
        let stderr = String::from_utf8(err).unwrap();
        assert!(stderr.contains("\"serve\":{"), "{stderr}");
        assert!(stderr.contains("\"documents\":2"), "{stderr}");
        assert!(stderr.contains("\"responses_ok\":2"), "{stderr}");
    }

    #[test]
    fn serve_pipe_writes_metrics_exposition() {
        with_temp_file("", |path| {
            let mut inv = serve_invocation(Mode::Count);
            inv.metrics_out = Some(path.to_owned());
            let mut out = Vec::new();
            run_serve_pipe(&inv, SERVE_INPUT, &mut out, &mut Vec::new()).unwrap();
            let text = std::fs::read_to_string(path).unwrap();
            assert!(text.contains("rsq_serve_documents_total 2"), "{text}");
            assert!(
                text.contains("rsq_serve_document_latency_ns{quantile=\"0.99\"}"),
                "{text}"
            );
        });
    }

    #[test]
    fn serve_deadline_classifies_as_deadline_exit() {
        let mut inv = serve_invocation(Mode::Count);
        inv.deadline_ms = Some(0);
        let mut out = Vec::new();
        let mut err = Vec::new();
        let error = run_serve_pipe(&inv, SERVE_INPUT, &mut out, &mut err).unwrap_err();
        assert_eq!(error.kind, CliErrorKind::Deadline);
        assert_eq!(error.kind.exit_code(), 7);
        assert!(error.to_string().contains("2 of 2 documents failed"));
        assert!(out.is_empty());
        let stderr = String::from_utf8(err).unwrap();
        assert!(stderr.contains("[timeout]"), "{stderr}");
    }

    #[test]
    fn serve_limit_errors_answer_the_rest_and_set_exit_class() {
        let mut inv = serve_invocation(Mode::Count);
        inv.options.max_matches = Some(1);
        let mut out = Vec::new();
        let mut err = Vec::new();
        let error = run_serve_pipe(&inv, SERVE_INPUT, &mut out, &mut err).unwrap_err();
        assert_eq!(error.kind, CliErrorKind::Limit);
        // Document 1 (one match) still answers; document 2 trips the cap.
        assert_eq!(out, b"1\n");
        let stderr = String::from_utf8(err).unwrap();
        assert!(stderr.contains("document 2:"), "{stderr}");
        assert!(stderr.contains("[limit:matches]"), "{stderr}");
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "rsq-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// Connects to a Unix socket, retrying while the server starts up.
    fn poll_connect(path: &std::path::Path) -> std::os::unix::net::UnixStream {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match std::os::unix::net::UnixStream::connect(path) {
                Ok(s) => return s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("cannot connect to {}: {e}", path.display()),
            }
        }
    }

    /// One minimal HTTP GET against the telemetry socket.
    fn http_get(path: &std::path::Path, target: &str) -> String {
        let mut stream = poll_connect(path);
        stream
            .write_all(format!("GET {target} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serve_pipe_telemetry_reports_stats_json_object() {
        let tele_sock = temp_path("pipe-tele.sock");
        let mut inv = serve_invocation(Mode::Count);
        inv.stats = Some(StatsFormat::Json);
        inv.deadline_ms = Some(0);
        inv.telemetry_socket = Some(tele_sock.to_str().unwrap().to_owned());
        let mut out = Vec::new();
        let mut err = Vec::new();
        let error = run_serve_pipe(&inv, SERVE_INPUT, &mut out, &mut err).unwrap_err();
        assert_eq!(error.kind, CliErrorKind::Deadline);
        let stderr = String::from_utf8(err).unwrap();
        assert!(
            stderr.contains("\"telemetry\":{\"window_10s\":{\"secs\":10,\"docs\":2,"),
            "{stderr}"
        );
        assert!(stderr.contains("\"errors\":2,"), "{stderr}");
        let _ = std::fs::remove_file(&tele_sock);
    }

    #[test]
    fn serve_unix_scrapes_live_and_drains_gracefully_on_shutdown() {
        let serve_sock = temp_path("serve.sock");
        let tele_sock = temp_path("tele.sock");
        let metrics_path = temp_path("metrics.prom");
        let mut inv = serve_invocation(Mode::Count);
        inv.serve = Some(ServeTransport::Unix(
            serve_sock.to_str().unwrap().to_owned(),
        ));
        inv.metrics_out = Some(metrics_path.to_str().unwrap().to_owned());
        inv.telemetry_socket = Some(tele_sock.to_str().unwrap().to_owned());
        let server = std::thread::spawn({
            let inv = inv.clone();
            let serve_sock = serve_sock.clone();
            move || {
                let mut err = Vec::new();
                let result = run_serve_unix(&inv, serve_sock.to_str().unwrap(), &mut err);
                (result, err)
            }
        });

        // While serving: send documents and scrape until they show up.
        let mut conn = poll_connect(&serve_sock);
        conn.write_all(SERVE_INPUT).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut answers = String::new();
        conn.read_to_string(&mut answers).unwrap();
        assert_eq!(answers, "1\n2\n");
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(5);
        let scrape = loop {
            let scrape = http_get(&tele_sock, "/metrics");
            if scrape.contains("rsq_serve_documents_total 2") || Instant::now() >= deadline {
                break scrape;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(scrape.starts_with("HTTP/1.0 200"), "{scrape}");
        assert!(scrape.contains("rsq_serve_documents_total 2"), "{scrape}");
        assert!(
            scrape.contains("rsq_window_documents{window=\"10s\"}"),
            "{scrape}"
        );
        assert!(scrape.contains("rsq_queue_depth 0"), "{scrape}");
        let body = scrape.split("\r\n\r\n").nth(1).unwrap();
        rsq_obs::expo::check(body).expect("scrape passes the exposition lint");
        assert!(http_get(&tele_sock, "/healthz").starts_with("HTTP/1.0 200"));

        // Graceful drain: /shutdown flips /healthz and ends the loop.
        let shutdown = http_get(&tele_sock, "/shutdown");
        assert!(shutdown.contains("draining"), "{shutdown}");
        let (result, err) = server.join().unwrap();
        result.expect("graceful shutdown exits cleanly");
        assert!(err.is_empty(), "no --stats: nothing on stderr");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("rsq_serve_documents_total 2"), "{metrics}");
        for p in [&serve_sock, &tele_sock, &metrics_path] {
            let _ = std::fs::remove_file(p);
        }
    }
}
