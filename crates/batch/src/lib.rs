//! Sharded multi-document batch execution for the rsq engine.
//!
//! The single-document engine ([`rsq_engine::Engine`]) answers one query
//! over one buffer at peak per-byte throughput; this crate scales that
//! to *corpora* — a slice of in-memory documents, an NDJSON buffer (one
//! JSON document per line), or a directory of files — while preserving
//! the property the rest of the workspace is built on: **the output is
//! byte-identical to a sequential loop**, no matter how many threads
//! run.
//!
//! Three pieces, all dependency-free std:
//!
//! * a compiled-query LRU cache ([`QueryCache`]) keyed by normalized
//!   query text, so a working set of queries compiles once, not once
//!   per document;
//! * a document feed (windows of documents published while the run is
//!   under way, claimed a chunk at a time) feeding a fixed pool of
//!   [`std::thread::scope`] workers, each with its own [`DocRunner`] and
//!   reusable [`DocSink`] so steady-state workers allocate nothing per
//!   document beyond the output they keep;
//! * a deterministic merge: workers tag every result with its document
//!   index, the merge orders by index, and [`RunStats`] merge with the
//!   existing commutative `+` — so per-document outputs *and* aggregate
//!   statistics are independent of scheduling.
//!
//! Per-document failures (limit trips, strict-mode rejections) are
//! *reported*, not fatal: the batch completes and each document's slot
//! holds either its output or its [`DocError`].
//!
//! # Example
//!
//! ```
//! use rsq_batch::{BatchEngine, BatchOptions};
//!
//! let engine = BatchEngine::new(BatchOptions::default());
//! let docs: Vec<&[u8]> = vec![br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#];
//! let result = engine.run_slices("$..a", &docs).unwrap();
//! assert_eq!(result.outcomes.len(), 2);
//! assert_eq!(result.outcomes[0].as_ref().unwrap().count, 1);
//! assert_eq!(result.counters.documents, 2);
//! ```

mod cache;
mod ndjson;
mod queue;
mod runner;

pub use cache::QueryCache;
pub use ndjson::{split_ndjson, DocBuffers, Frame, NdjsonFramer, QuoteScan};
pub use runner::{DocRunner, DocSink, Matches, Record};

use ndjson::Windows;
use queue::Feed;
use rsq_engine::{
    Engine, EngineError, EngineOptions, LimitKind, LineScanner, ProfileStats, RunError,
};
use rsq_obs::{
    BatchCounters, BatchProfile, DocSpan, Histogram, RunStats, SpanRecord, Stopwatch, WorkerProfile,
};
use rsq_perf::{PerfMode, PerfStats};
use std::fs;
use std::io;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;
use std::thread;
use std::time::Instant;

/// Configuration for a [`BatchEngine`].
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads. `0` means auto: one per available CPU.
    pub threads: usize,
    /// Engine options applied to every compiled query. Fixed per
    /// `BatchEngine`, which keeps them out of the cache key.
    pub engine: EngineOptions,
    /// Gather per-run [`RunStats`] and merge them into
    /// [`BatchResult::stats`]. Off by default: the counting run costs a
    /// few percent of throughput.
    pub collect_stats: bool,
    /// Gather the Tier C batch profile — per-technique `bytes_skipped`,
    /// stage times, a per-document latency histogram, and per-worker
    /// busy/queue-wait accounting — into [`BatchResult::profile`].
    /// Implies stats collection (the profile recorder carries the Tier A
    /// counters). Off by default: the profiled run reads the monotonic
    /// clock around every fast-forward and document.
    pub profile: bool,
    /// Hardware-counter mode: with anything but [`PerfMode::Off`], each
    /// worker arms a per-thread counter group and brackets every
    /// document run, accumulating into [`BatchResult::perf`]. Denied
    /// hosts degrade to no report with zero behavior change.
    pub perf: PerfMode,
    /// Collect a per-document pipeline [`SpanRecord`] (worker, route,
    /// epoch offset, run time) into [`BatchResult::spans`] for
    /// timeline-trace export. Off by default: the plain path keeps its
    /// no-clock-reads guarantee.
    pub collect_spans: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            engine: EngineOptions::default(),
            collect_stats: false,
            profile: false,
            perf: PerfMode::Off,
            collect_spans: false,
        }
    }
}

/// Output for one successfully processed document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DocOutput {
    /// Number of matches.
    pub count: u64,
    /// Byte offset of each match, in document order.
    pub positions: Vec<usize>,
}

/// Failure class of a [`DocError`] — the batch-side mirror of
/// [`RunError`], minus the live `io::Error` payload so outcomes stay
/// clonable and comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DocErrorKind {
    /// The document could not be read (directory mode only).
    Io,
    /// A resource limit from [`EngineOptions`] tripped.
    Limit(LimitKind),
    /// Strict-mode structural validation rejected the document.
    Malformed,
    /// The per-document deadline passed before the work finished
    /// (serve mode's watchdog; see [`RunError::DeadlineExceeded`]).
    Timeout,
    /// The worker processing this document panicked. The panic was
    /// contained at the worker boundary; only this document failed.
    Panic,
}

impl DocErrorKind {
    /// Stable machine-readable code for this failure class, used in the
    /// serve protocol's per-document error lines and in metrics labels.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DocErrorKind::Io => "io",
            DocErrorKind::Limit(LimitKind::Depth) => "limit:depth",
            DocErrorKind::Limit(LimitKind::DocumentBytes) => "limit:document-bytes",
            DocErrorKind::Limit(LimitKind::LabelBytes) => "limit:label-bytes",
            DocErrorKind::Limit(LimitKind::Matches) => "limit:matches",
            DocErrorKind::Malformed => "malformed",
            DocErrorKind::Timeout => "timeout",
            DocErrorKind::Panic => "panic",
        }
    }
}

/// A per-document failure. Never fatal to the batch: the remaining
/// documents still run, and this slot records what went wrong here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DocError {
    /// Failure class.
    pub kind: DocErrorKind,
    /// Rendered error message (the underlying [`RunError`]'s `Display`).
    pub message: String,
}

impl DocError {
    /// Maps an engine [`RunError`] onto its batch-side mirror, rendering
    /// the message eagerly so the outcome stays clonable.
    #[must_use]
    pub fn from_run(err: &RunError) -> Self {
        let kind = match err {
            RunError::Io(_) => DocErrorKind::Io,
            RunError::LimitExceeded { kind, .. } => DocErrorKind::Limit(*kind),
            RunError::Malformed(_) => DocErrorKind::Malformed,
            RunError::DeadlineExceeded => DocErrorKind::Timeout,
        };
        DocError {
            kind,
            message: err.to_string(),
        }
    }

    /// This failure's stable machine-readable code (see
    /// [`DocErrorKind::code`]).
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DocError {}

/// The result of one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// One outcome per input document, **in input order** regardless of
    /// which shard processed it.
    pub outcomes: Vec<Result<DocOutput, DocError>>,
    /// Merged [`RunStats`] across all successful documents (all zeros
    /// unless [`BatchOptions::collect_stats`] is set).
    pub stats: RunStats,
    /// Batch-layer counters: documents, shards, queue claims, cache
    /// hits/misses/evictions.
    pub counters: BatchCounters,
    /// Merged Tier C batch profile (`None` unless
    /// [`BatchOptions::profile`] is set). Histograms and byte counters
    /// merge with saturating element-wise adds, so the merged values are
    /// independent of how documents were sharded; `workers` is ordered by
    /// worker index. Partial work from failed documents stays in the
    /// aggregate.
    pub profile: Option<BatchProfile>,
    /// Hardware-counter totals across all workers (`None` unless
    /// [`BatchOptions::perf`] armed counters the kernel granted).
    pub perf: Option<PerfStats>,
    /// Per-document pipeline spans ordered by document index (empty
    /// unless [`BatchOptions::collect_spans`] is set).
    pub spans: Vec<SpanRecord>,
}

impl BatchResult {
    /// Total matches across all successful documents.
    #[must_use]
    pub fn total_count(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .fold(0u64, |acc, o| acc.saturating_add(o.count))
    }
}

/// A multi-document batch executor: compiled-query cache + worker pool.
///
/// One `BatchEngine` owns one [`QueryCache`] and one fixed
/// [`BatchOptions`] configuration; it is cheap to keep alive across
/// many batches so the cache pays off. See the [crate
/// documentation](crate) for the determinism guarantees.
#[derive(Debug)]
pub struct BatchEngine {
    cache: QueryCache,
    options: BatchOptions,
}

impl BatchEngine {
    /// Distinct compiled queries the cache keeps resident.
    const CACHE_CAPACITY: usize = 32;

    /// A batch engine with the given configuration and an empty query
    /// cache.
    #[must_use]
    pub fn new(options: BatchOptions) -> Self {
        BatchEngine {
            cache: QueryCache::new(Self::CACHE_CAPACITY),
            options,
        }
    }

    /// The compiled-query cache (for hit/miss inspection).
    #[must_use]
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The configuration this engine runs with.
    #[must_use]
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// Worker count a run will actually use: the configured count, or
    /// one per available CPU when `threads == 0`.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.options.threads > 0 {
            self.options.threads
        } else {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs `query` over every document in `docs`, sharded across the
    /// worker pool. Outcomes come back in input order, byte-identical to
    /// a sequential loop over the same documents.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] only when the *query* fails to compile;
    /// per-document failures land in [`BatchResult::outcomes`].
    pub fn run_slices(&self, query: &str, docs: &[&[u8]]) -> Result<BatchResult, EngineError> {
        self.run_query(query, |engine| {
            self.run_windows(engine, std::iter::once(docs))
        })
    }

    /// Runs `query` over an NDJSON buffer (one JSON document per line,
    /// split with the quote-aware [`split_ndjson`] scan). Returns the
    /// byte range of each document alongside the batch result, so
    /// callers can map outcome `i` back to its line.
    ///
    /// The buffer is split a window at a time on the calling thread while
    /// the spawned workers already run the windows before it; the calling
    /// thread joins them as a worker once the last line is found.
    ///
    /// # Errors
    ///
    /// As [`run_slices`](Self::run_slices).
    pub fn run_ndjson(
        &self,
        query: &str,
        input: &[u8],
    ) -> Result<(Vec<Range<usize>>, BatchResult), EngineError> {
        let mut ranges = Vec::new();
        let windows = Windows::new(LineScanner::detect(), input, ndjson::WINDOW_BYTES);
        let result = self.run_query(query, |engine| {
            self.run_windows(
                engine,
                windows.map(|window| {
                    // PANIC-OK: the splitter's ranges are derived from input and lie in bounds
                    let docs: Vec<&[u8]> = window.iter().map(|r| &input[r.clone()]).collect();
                    ranges.extend(window);
                    docs
                }),
            )
        })?;
        Ok((ranges, result))
    }

    /// Compiles `query` (through the cache) and hands the engine to `run`,
    /// then books what the cache did for it on the result.
    fn run_query(
        &self,
        query: &str,
        run: impl FnOnce(&Engine) -> BatchResult,
    ) -> Result<BatchResult, EngineError> {
        let hits_before = self.cache.hits();
        let misses_before = self.cache.misses();
        let evictions_before = self.cache.evictions();
        let engine = self.cache.get_or_compile(query, &self.options.engine)?;
        let mut result = run(&engine);
        result.counters.cache_hits = self.cache.hits() - hits_before;
        result.counters.cache_misses = self.cache.misses() - misses_before;
        result.counters.cache_evictions = self.cache.evictions() - evictions_before;
        Ok(result)
    }

    /// Runs a compiled engine over the documents of `windows`, sharded.
    /// This is the core worker-pool loop shared by every entry point: a
    /// slice of documents is one window; the windows of an NDJSON buffer
    /// are pulled — split — on the calling thread while the spawned
    /// workers run the ones already published.
    fn run_windows<'d, W: AsRef<[&'d [u8]]>>(
        &self,
        engine: &Engine,
        windows: impl Iterator<Item = W>,
    ) -> BatchResult {
        // Two windows are pulled before anything is spawned: an input
        // that ends within the first is sharded by its document count, as
        // a slice is.
        let mut windows = windows.peekable();
        let first = windows.next();
        let first: &[&[u8]] = first.as_ref().map_or(&[], AsRef::as_ref);
        let threads = match windows.peek() {
            Some(_) => self.effective_threads(),
            None => self.effective_threads().min(first.len()).max(1),
        };
        let feed = Feed::default();
        feed.publish(first, Feed::auto_chunk(first.len(), threads));
        let collect_stats = self.options.collect_stats;
        let profile = self.options.profile;
        let perf_mode = self.options.perf;
        let collect_spans = self.options.collect_spans;
        // Clock zero for span placement; the route is a static property
        // of the compiled query, shared by every document.
        let epoch = Instant::now();
        let route = engine.route();

        // Each worker collects (index, outcome) pairs privately and
        // returns them with its local stats merge — no shared mutable
        // state, no locks on the hot path. The main thread merges by
        // index, which makes the output independent of scheduling.
        type ShardOutput = (
            Vec<(usize, Result<DocOutput, DocError>)>,
            RunStats,
            Option<ShardProfile>,
            Option<PerfStats>,
            Vec<SpanRecord>,
        );
        let shard = |worker: usize| -> ShardOutput {
            let mut local: Vec<(usize, Result<DocOutput, DocError>)> = Vec::new();
            let mut stats = RunStats::default();
            let mut sink = DocSink::new(true, None);
            let mut runner = DocRunner::open(perf_mode);
            let mut spans: Vec<SpanRecord> = Vec::new();
            let mut docs: Vec<&[u8]> = Vec::new();
            // Lap timer shared with the serve pipeline's spans: the lap
            // taken after `claim` returns is queue wait, the lap after
            // each document is busy time, and consecutive laps telescope
            // — the worker's wall clock partitions exactly into waits
            // and work. Only a profiled run starts the watch; the plain
            // path keeps its no-clock-reads guarantee.
            let mut prof = profile.then(|| (ShardProfile::default(), Stopwatch::start()));
            loop {
                if let Some((_, watch)) = prof.as_mut() {
                    watch.lap();
                }
                let Some(claimed) = feed.claim(&mut docs) else {
                    break;
                };
                if let Some((p, watch)) = prof.as_mut() {
                    p.worker.queue_wait_ns = p.worker.queue_wait_ns.saturating_add(watch.lap());
                    p.worker.claims += 1;
                }
                for (i, &doc) in (claimed..).zip(&docs) {
                    let mut span = collect_spans.then(|| {
                        let mut s = DocSpan::begin_at(
                            i as u64,
                            doc.len() as u64,
                            u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        s.worker(worker as u32);
                        s.route(route);
                        // Batch has no admission queue: the span starts
                        // at claim, so queue wait is ~zero by design.
                        s.claimed();
                        s
                    });
                    // A profile supersedes `collect_stats`: its recorder
                    // carries the Tier A counters.
                    let record = match prof.as_mut() {
                        Some((p, watch)) => {
                            watch.lap();
                            Record::Profile(&mut p.profile)
                        }
                        None if collect_stats => Record::Stats(&mut stats),
                        None => Record::Nothing,
                    };
                    sink.clear();
                    #[cfg(test)]
                    tests::worker_fault(worker, doc);
                    let outcome = runner
                        .run_doc(engine, doc, &mut sink, record, true)
                        .map(|()| DocOutput {
                            count: sink.matches().count(),
                            // Exact-size copy: the kept output never
                            // carries the sink's slack capacity.
                            positions: sink.matches().positions().to_vec(),
                        });
                    if let Some((p, watch)) = prof.as_mut() {
                        let ns = watch.lap();
                        p.latency.record(ns);
                        p.worker.busy_ns = p.worker.busy_ns.saturating_add(ns);
                        p.worker.documents += 1;
                    }
                    if let Some(mut s) = span.take() {
                        s.ran();
                        if let Err(e) = &outcome {
                            s.fault(e.kind.code());
                        }
                        s.released();
                        spans.push(s.finish());
                    }
                    local.push((i, outcome));
                }
            }
            (local, stats, prof.map(|(p, _)| p), runner.perf(), spans)
        };

        // The calling thread publishes the remaining windows, then is
        // worker 0; only `threads - 1` more are spawned. Were it to sleep
        // in `join` instead, every worker would be a new thread looking
        // for a CPU while the caller's falls idle, and where the
        // scheduler puts them differs from run to run: on a
        // quiet 2-CPU host that widened the spread of `--threads 2` wall
        // times by a third (DESIGN.md §10). One thread is the same path,
        // no spawn.
        let mut shards: Vec<ShardOutput> = thread::scope(|scope| {
            let shard = &shard;
            let handles: Vec<_> = (1..threads)
                .map(|w| scope.spawn(move || shard(w)))
                .collect();
            // Whatever ends the publishing — an unwinding splitter too —
            // closes the feed: a worker waits for a window or for this.
            let closing = CloseOnDrop(&feed);
            for window in windows {
                let window = window.as_ref();
                feed.publish(window, Feed::auto_chunk(window.len(), threads));
            }
            drop(closing);
            let mut shards = vec![shard(0)];
            // Per-document panics are contained inside the shard loop; a
            // join failure means the worker died outside it (e.g. an
            // allocator abort path that still unwound). Drop that shard's
            // results — its claimed documents stay at the "worker thread
            // lost" default below — and keep the batch alive.
            shards.extend(handles.into_iter().filter_map(|h| h.join().ok()));
            shards
        });

        let (documents, queue_claims) = feed.totals();
        let mut result = BatchResult {
            profile: profile.then(BatchProfile::default),
            ..BatchResult::default()
        };
        let mut outcomes: Vec<Option<Result<DocOutput, DocError>>> = Vec::new();
        outcomes.resize_with(documents, || None);
        // Shards come back in worker-index order (spawn order), so the
        // merged `workers` vec is stable across runs of the same shape.
        for (local, stats, shard_profile, shard_perf, shard_spans) in shards.drain(..) {
            result.stats += stats;
            if let Some(p) = shard_perf {
                *result.perf.get_or_insert_with(PerfStats::default) += p;
            }
            result.spans.extend(shard_spans);
            if let (Some(merged), Some(sp)) = (result.profile.as_mut(), shard_profile) {
                result.stats += sp.profile.stats;
                merged.bytes_skipped += sp.profile.bytes_skipped;
                merged.stages += sp.profile.stages;
                merged.latency += &sp.latency;
                merged.workers.push(sp.worker);
            }
            for (i, outcome) in local {
                // PANIC-OK: outcomes was sized to the documents published; the feed hands out no other index
                outcomes[i] = Some(outcome);
            }
        }
        // A slot nobody filled belongs to a shard that never reported back
        // (its worker died outside the contained region): that surfaces as
        // a per-document failure, not silence.
        let lost = || DocError {
            kind: DocErrorKind::Panic,
            message: "worker thread lost".to_owned(),
        };
        result.outcomes = outcomes
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|| Err(lost())))
            .collect();
        // Shards interleave document ranges; order the merged timeline
        // by document index so trace output is deterministic.
        result.spans.sort_by_key(|s| s.seq);
        result.counters.failed_documents =
            result.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        result.counters.documents = documents as u64;
        result.counters.shards = threads as u64;
        result.counters.queue_claims = queue_claims;
        result
    }

    /// Loads every regular file in `dir` (sorted by file name for a
    /// stable document order) for batch processing: ingest is sequential
    /// — one disk — and the compute stays parallel via
    /// [`run_slices`](Self::run_slices) on the returned buffers. Each
    /// file is loaded under the given [`rsq_mmap::MapPolicy`], so large
    /// documents are memory-mapped instead of copied into heap buffers
    /// (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Returns the first directory-walk or read error; per-file content
    /// problems surface later as per-document outcomes.
    pub fn load_dir_mapped(
        dir: &Path,
        policy: rsq_mmap::MapPolicy,
    ) -> io::Result<Vec<(String, rsq_mmap::MmapInput)>> {
        let mut files: Vec<(String, rsq_mmap::MmapInput)> = Vec::new();
        for (name, path) in Self::dir_entries(dir)? {
            files.push((name, rsq_mmap::load(&path, policy)?));
        }
        Ok(files)
    }

    /// The regular files of `dir`, sorted by file name.
    fn dir_entries(dir: &Path) -> io::Result<Vec<(String, std::path::PathBuf)>> {
        let mut names: Vec<(String, std::path::PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_file() {
                names.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Closes the feed when dropped.
struct CloseOnDrop<'f, 'd>(&'f Feed<'d>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One worker's accumulated Tier C profile: an engine-side profile shared
/// across the shard's documents (no per-document skip map), the
/// per-document latency histogram, and the worker's own busy/queue-wait
/// accounting.
#[derive(Debug, Default)]
struct ShardProfile {
    profile: ProfileStats,
    latency: Histogram,
    worker: WorkerProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn single_doc_matches_engine() {
        let doc: &[u8] = br#"{"a": {"b": 1}, "b": [2, {"b": 3}]}"#;
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..b", &[doc]).unwrap();
        let expected = Engine::from_text("$..b")
            .unwrap()
            .try_positions(doc)
            .unwrap();
        let out = result.outcomes[0].as_ref().unwrap();
        assert_eq!(out.positions, expected);
        assert_eq!(out.count, expected.len() as u64);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..a", &[]).unwrap();
        assert!(result.outcomes.is_empty());
        assert_eq!(result.counters.documents, 0);
        assert_eq!(result.total_count(), 0);
    }

    #[test]
    fn query_compile_error_is_batch_fatal() {
        let batch = BatchEngine::new(BatchOptions::default());
        assert!(batch.run_slices("nope", &[b"{}"]).is_err());
    }

    #[test]
    fn per_document_failure_does_not_abort() {
        let options = BatchOptions {
            engine: EngineOptions {
                max_matches: Some(2),
                ..EngineOptions::default()
            },
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let many: &[u8] = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;
        let few: &[u8] = br#"{"a": 1}"#;
        let result = batch.run_slices("$..a", &[many, few, many]).unwrap();
        assert!(matches!(
            result.outcomes[0],
            Err(DocError {
                kind: DocErrorKind::Limit(LimitKind::Matches),
                ..
            })
        ));
        assert_eq!(result.outcomes[1].as_ref().unwrap().count, 1);
        assert!(result.outcomes[2].is_err());
        assert_eq!(result.counters.failed_documents, 2);
        assert_eq!(result.counters.documents, 3);
    }

    #[test]
    fn cache_counters_are_per_batch() {
        let batch = BatchEngine::new(BatchOptions::default());
        let docs: [&[u8]; 1] = [br#"{"a": 1}"#];
        let first = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(
            (first.counters.cache_hits, first.counters.cache_misses),
            (0, 1)
        );
        let second = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(
            (second.counters.cache_hits, second.counters.cache_misses),
            (1, 0)
        );
    }

    #[test]
    fn stats_collection_merges_runs() {
        let options = BatchOptions {
            collect_stats: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let docs: [&[u8]; 3] = [br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#, b"[1, 2]"];
        let result = batch.run_slices("$..a", &docs).unwrap();
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
        assert_eq!(result.stats.bytes, total_bytes);
        assert_eq!(result.stats.matches, result.total_count());
    }

    #[test]
    fn profile_off_leaves_result_profile_empty() {
        let batch = BatchEngine::new(BatchOptions::default());
        let result = batch.run_slices("$..a", &[br#"{"a": 1}"#]).unwrap();
        assert!(result.profile.is_none());
    }

    #[test]
    fn profile_collects_latency_workers_and_spans() {
        let options = BatchOptions {
            threads: 2,
            profile: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let doc: &[u8] = br#"{"a": 1, "deep": {"nested": {"a": [1, 2, 3]}}, "pad": "xxxx"}"#;
        let docs: Vec<&[u8]> = vec![doc; 8];
        let result = batch.run_slices("$..a", &docs).unwrap();
        let profile = result.profile.as_ref().unwrap();
        assert_eq!(profile.latency.count(), 8);
        assert_eq!(profile.workers.len() as u64, result.counters.shards);
        let docs_run: u64 = profile.workers.iter().map(|w| w.documents).sum();
        assert_eq!(docs_run, 8);
        let claims: u64 = profile.workers.iter().map(|w| w.claims).sum();
        assert_eq!(claims, result.counters.queue_claims);
        // Profiling implies stats collection even with collect_stats off.
        let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
        assert_eq!(result.stats.bytes, total_bytes);
        assert!(result.stats.events > 0);
    }

    #[test]
    fn profile_does_not_change_outcomes() {
        let doc_a: &[u8] = br#"{"a": {"b": 1}, "b": [2, {"b": 3}]}"#;
        let doc_b: &[u8] = br#"[{"b": []}, {"c": {"b": 4}}]"#;
        let plain = BatchEngine::new(BatchOptions::default());
        let profiled = BatchEngine::new(BatchOptions {
            profile: true,
            ..BatchOptions::default()
        });
        let without = plain.run_slices("$..b", &[doc_a, doc_b]).unwrap();
        let with = profiled.run_slices("$..b", &[doc_a, doc_b]).unwrap();
        assert_eq!(without.outcomes, with.outcomes);
    }

    #[test]
    fn collect_spans_stamps_worker_route_and_epoch() {
        let options = BatchOptions {
            threads: 2,
            collect_spans: true,
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let doc: &[u8] = br#"{"a": 1, "b": {"a": 2}}"#;
        let docs: Vec<&[u8]> = vec![doc; 6];
        let result = batch.run_slices("$..a", &docs).unwrap();
        assert_eq!(result.spans.len(), 6, "one span per document");
        for (i, span) in result.spans.iter().enumerate() {
            assert_eq!(span.seq, i as u64, "spans sorted by document index");
            assert_eq!(span.bytes, doc.len() as u64);
            assert!(span.route.is_some());
            assert!(span.start_ns > 0);
            assert!(span.run_ns > 0);
            assert!(span.code.is_none());
        }
        let json = rsq_obs::chrome_trace_json(&result.spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        // Span collection never changes outcomes.
        let plain = BatchEngine::new(BatchOptions::default())
            .run_slices("$..a", &docs)
            .unwrap();
        assert_eq!(result.outcomes, plain.outcomes);
    }

    #[test]
    fn failed_documents_carry_codes_in_spans() {
        let options = BatchOptions {
            collect_spans: true,
            engine: EngineOptions {
                max_matches: Some(1),
                ..EngineOptions::default()
            },
            ..BatchOptions::default()
        };
        let batch = BatchEngine::new(options);
        let many: &[u8] = br#"{"a": 1, "b": {"a": 2}}"#;
        let result = batch.run_slices("$..a", &[many]).unwrap();
        assert!(result.outcomes[0].is_err());
        assert_eq!(result.spans[0].code, Some("limit:matches"));
    }

    #[test]
    fn perf_deny_and_auto_change_nothing_observable() {
        let docs: [&[u8]; 2] = [br#"{"a": 1}"#, br#"{"b": {"a": 2}}"#];
        let plain = BatchEngine::new(BatchOptions::default())
            .run_slices("$..a", &docs)
            .unwrap();
        for mode in [PerfMode::Deny, PerfMode::Auto] {
            let batch = BatchEngine::new(BatchOptions {
                perf: mode,
                ..BatchOptions::default()
            });
            let result = batch.run_slices("$..a", &docs).unwrap();
            assert_eq!(result.outcomes, plain.outcomes, "{mode:?}");
            if mode == PerfMode::Deny {
                assert!(result.perf.is_none(), "denied counters leave no report");
            }
        }
    }

    #[test]
    fn eviction_counter_is_per_batch() {
        let batch = BatchEngine::new(BatchOptions::default());
        let docs: [&[u8]; 1] = [br#"{"a": 1}"#];
        // Fill the cache exactly: nothing is evicted yet.
        for n in 0..BatchEngine::CACHE_CAPACITY {
            let result = batch.run_slices(&format!("$.k{n}"), &docs).unwrap();
            assert_eq!(result.counters.cache_evictions, 0);
        }
        let one_more = batch.run_slices("$.overflow", &docs).unwrap();
        assert_eq!(one_more.counters.cache_evictions, 1);
    }

    #[test]
    fn ndjson_entry_point_maps_lines_to_outcomes() {
        let input = b"{\"a\": 1}\n\n{\"a\": {\"a\": 2}}\n[3]\n";
        let batch = BatchEngine::new(BatchOptions::default());
        let (ranges, result) = batch.run_ndjson("$..a", input).unwrap();
        assert_eq!(ranges.len(), 3);
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.outcomes[0].as_ref().unwrap().count, 1);
        assert_eq!(result.outcomes[1].as_ref().unwrap().count, 2);
        assert_eq!(result.outcomes[2].as_ref().unwrap().count, 0);
        assert_eq!(&input[ranges[2].clone()], b"[3]");
    }

    /// A document that panics inside the contained region of whichever
    /// worker runs it ([`DocRunner::run`] calls [`contained_fault`]).
    const PANICS: &[u8] = br#"{"rsq-test": "this document panics"}"#;
    /// A document that takes the *spawned* worker claiming it down, outside
    /// the contained region (the shard loop calls [`worker_fault`]).
    const KILLS: &[u8] = br#"{"rsq-test": "this document kills its worker"}"#;
    /// Set just before a worker dies of [`KILLS`].
    static WORKER_KILLED: AtomicBool = AtomicBool::new(false);

    pub(crate) fn contained_fault(doc: &[u8]) {
        assert!(doc != PANICS, "document exploded");
    }

    pub(crate) fn worker_fault(worker: usize, doc: &[u8]) {
        if worker != 0 && doc == KILLS {
            WORKER_KILLED.store(true, Ordering::Release);
            panic!("worker {worker} exploded");
        }
    }

    /// Lines of a few shapes, a blank one among them, enough of them that
    /// small windows hold several chunks' worth.
    fn many_lines(n: usize) -> Vec<u8> {
        let mut input = Vec::new();
        for i in 0..n {
            match i % 4 {
                0 => input.extend_from_slice(br#"{"a": 1, "b": {"a": [2, 3]}}"#),
                1 => input.extend_from_slice(format!(r#"{{"k{i}": {{"a": {i}}}}}"#).as_bytes()),
                2 => input.extend_from_slice(b"[1, 2, 3]\r"),
                _ => {}
            }
            input.push(b'\n');
        }
        input
    }

    /// `run_windows` over `input` split at `window` bytes.
    fn windowed(batch: &BatchEngine, query: &str, input: &[u8], window: usize) -> BatchResult {
        let windows = Windows::new(LineScanner::detect(), input, window)
            .map(|w| w.into_iter().map(|r| &input[r]).collect::<Vec<&[u8]>>());
        batch
            .run_query(query, |engine| batch.run_windows(engine, windows))
            .unwrap()
    }

    #[test]
    fn many_windows_equal_one() {
        let input = many_lines(400);
        let docs: Vec<&[u8]> = split_ndjson(&input)
            .into_iter()
            .map(|r| &input[r])
            .collect();
        for threads in [1, 2, 4] {
            let batch = BatchEngine::new(BatchOptions {
                threads,
                collect_stats: true,
                ..BatchOptions::default()
            });
            let whole = batch.run_slices("$..a", &docs).unwrap();
            assert_eq!(whole.outcomes.len(), 300);
            for window in [1, 64, 100, 4096] {
                let result = windowed(&batch, "$..a", &input, window);
                assert_eq!(
                    result.outcomes, whole.outcomes,
                    "{threads} threads, {window}"
                );
                assert_eq!(result.stats, whole.stats, "{threads} threads, {window}");
                assert_eq!(result.counters.documents, 300);
            }
            // The public entry point cuts at `WINDOW_BYTES`: one window here.
            let (ranges, result) = batch.run_ndjson("$..a", &input).unwrap();
            assert_eq!(ranges, split_ndjson(&input));
            assert_eq!(result.outcomes, whole.outcomes);
            assert_eq!(result.counters.queue_claims, whole.counters.queue_claims);
            assert_eq!(result.counters.shards, whole.counters.shards);
        }
    }

    #[test]
    fn claims_depend_on_the_windows_not_on_timing() {
        let input = many_lines(400);
        let batch = BatchEngine::new(BatchOptions {
            threads: 4,
            ..BatchOptions::default()
        });
        let claims = windowed(&batch, "$..a", &input, 512).counters.queue_claims;
        for _ in 0..20 {
            let again = windowed(&batch, "$..a", &input, 512).counters.queue_claims;
            assert_eq!(again, claims);
        }
    }

    #[test]
    fn a_panicking_document_fails_alone() {
        let mut input = many_lines(40);
        input.extend_from_slice(PANICS);
        input.push(b'\n');
        input.extend_from_slice(&many_lines(40));
        for threads in [1, 2, 4] {
            let batch = BatchEngine::new(BatchOptions {
                threads,
                ..BatchOptions::default()
            });
            let result = windowed(&batch, "$..a", &input, 256);
            assert_eq!(result.outcomes.len(), 61);
            assert_eq!(result.counters.failed_documents, 1);
            let failure = result.outcomes[30].as_ref().unwrap_err();
            assert_eq!(failure.kind, DocErrorKind::Panic);
            assert_eq!(failure.message, "worker panicked: document exploded");
        }
    }

    /// A worker that dies outside the contained region loses the chunk it
    /// held and nothing else: the feed is not left locked, the other
    /// workers drain it, the lost documents say so. The interleaving is
    /// forced: the first window — the doomed document alone, so a chunk of
    /// one — is published before the workers are spawned, and the calling
    /// thread does not get past splitting until one of them has died of it.
    #[test]
    fn a_lost_worker_loses_only_its_chunk() {
        let rest = many_lines(40);
        let rest: Vec<&[u8]> = split_ndjson(&rest).into_iter().map(|r| &rest[r]).collect();
        for threads in [2, 4] {
            WORKER_KILLED.store(false, Ordering::Release);
            let windows = [vec![KILLS], rest[..10].to_vec(), rest[10..].to_vec()]
                .into_iter()
                .enumerate()
                .inspect(|(k, _)| {
                    // The third window is the first pulled after the spawn.
                    while *k == 2 && !WORKER_KILLED.load(Ordering::Acquire) {
                        thread::yield_now();
                    }
                })
                .map(|(_, window)| window);
            let batch = BatchEngine::new(BatchOptions {
                threads,
                ..BatchOptions::default()
            });
            let result = batch
                .run_query("$..a", |engine| batch.run_windows(engine, windows))
                .unwrap();
            assert_eq!(result.outcomes.len(), 31);
            let lost = result.outcomes[0].as_ref().unwrap_err();
            assert_eq!(lost.kind, DocErrorKind::Panic);
            assert_eq!(lost.message, "worker thread lost");
            assert_eq!(result.counters.failed_documents, 1);
            let expected = batch.run_slices("$..a", &rest).unwrap();
            assert_eq!(result.outcomes[1..], expected.outcomes[..]);
        }
    }

    #[test]
    fn doc_error_codes_are_distinct_and_stable() {
        let kinds = [
            DocErrorKind::Io,
            DocErrorKind::Limit(LimitKind::Depth),
            DocErrorKind::Limit(LimitKind::DocumentBytes),
            DocErrorKind::Limit(LimitKind::LabelBytes),
            DocErrorKind::Limit(LimitKind::Matches),
            DocErrorKind::Malformed,
            DocErrorKind::Timeout,
            DocErrorKind::Panic,
        ];
        let codes: Vec<&str> = kinds.iter().map(|k| k.code()).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes must be distinct");
        assert_eq!(codes[1], "limit:depth");
        assert_eq!(codes[6], "timeout");
    }

    #[test]
    fn deadline_error_maps_to_timeout_kind() {
        let err = DocError::from_run(&RunError::DeadlineExceeded);
        assert_eq!(err.kind, DocErrorKind::Timeout);
        assert_eq!(err.code(), "timeout");
        assert_eq!(err.message, "deadline exceeded");
    }

    #[test]
    fn load_dir_sorts_by_name() {
        let dir = std::env::temp_dir().join(format!("rsq-batch-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b.json"), b"[2]").unwrap();
        fs::write(dir.join("a.json"), b"[1]").unwrap();
        let files = BatchEngine::load_dir_mapped(&dir, rsq_mmap::MapPolicy::Off).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.json", "b.json"]);
        assert_eq!(files[0].1.as_bytes(), b"[1]");
    }
}
