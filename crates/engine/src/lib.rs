//! The `rsq` streaming JSONPath engine — the primary contribution of
//! *Supporting Descendants in SIMD-Accelerated JSONPath* (ASPLOS 2023),
//! reimplemented from scratch.
//!
//! The engine evaluates JSONPath queries with child (`.ℓ`), wildcard
//! (`.*`), and descendant (`..ℓ`) selectors over a raw JSON byte stream in
//! a single pass, without building a DOM, under **node semantics** (each
//! matched node reported exactly once, in document order). It combines:
//!
//! * a minimal deterministic query automaton (`rsq-query`, §3.1);
//! * the sparse **depth-stack** simulation (§3.2) — see [`DepthStack`];
//! * four **skipping** techniques (§3.3): leaves (comma/colon toggling),
//!   children (depth fast-forward on rejecting transitions), siblings
//!   (fast-forward after a unitary label is found), and skip-to-label
//!   (`memmem` leapfrogging for queries starting with `$..ℓ`);
//! * the SIMD multi-classifier pipeline (`rsq-classify`, §4).
//!
//! # Examples
//!
//! ```
//! use rsq_engine::Engine;
//!
//! let engine = Engine::from_text("$..price")?;
//! let doc = br#"{"store": {"book": {"price": 9}, "bike": {"price": 20}}}"#;
//! assert_eq!(engine.count(doc), 2);
//!
//! // Byte offsets of the matches, in document order:
//! let positions = engine.positions(doc);
//! assert_eq!(&doc[positions[0]..positions[0] + 1], b"9");
//! # Ok::<(), rsq_engine::EngineError>(())
//! ```
//!
//! For untrusted input, the fallible entry points add strict validation,
//! resource limits, and chunked [`std::io::Read`] ingest:
//!
//! ```
//! use rsq_engine::{Engine, EngineOptions, LimitKind, PositionsSink, RunError};
//! use rsq_query::Query;
//!
//! let options = EngineOptions {
//!     strict: true,
//!     max_matches: Some(10_000),
//!     ..EngineOptions::default()
//! };
//! let engine = Engine::with_options(&Query::parse("$..price")?, options)?;
//!
//! // Strict mode rejects structurally broken documents up front…
//! assert!(matches!(
//!     engine.try_count(br#"{"price": 9"#),
//!     Err(RunError::Malformed(_))
//! ));
//!
//! // …and the reader path enforces limits while bytes arrive.
//! let doc: &[u8] = br#"{"store": {"bike": {"price": 20}}}"#;
//! let mut sink = PositionsSink::new();
//! engine.run_reader(doc, &mut sink)?;
//! assert_eq!(sink.positions(), engine.try_positions(doc)?.as_slice());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Contained tier (DESIGN.md §14.2): a panic here is caught as one
// document's `panic` fault, but every site still says why it cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod depth_stack;
mod error;
mod fast_path;
mod input;
mod main_loop;
mod sink;

pub use depth_stack::{DepthStack, Frame};
pub use error::{LimitKind, RunError};
pub use input::read_to_end;
pub use sink::{CountSink, PositionsSink, Sink, SinkFull};

/// Where [`Engine::ingest`] lands a document (re-exported so callers need
/// not name `rsq-mmap` for the bound).
pub use rsq_mmap::Landing;

// The validation error vocabulary surfaces through `RunError::Malformed`.
pub use rsq_classify::{ValidationError, ValidationErrorKind};

// The line-boundary kernel of the NDJSON drivers (`rsq-batch`, and through
// it `rsq-serve`) and the scalar automaton it is specified against; the
// drivers depend on this crate and not on the classifier crates.
pub use rsq_classify::{LineScanner, QuoteScan};

// Tier A observability: run statistics and the recorder abstraction, from
// the dependency-free `rsq-obs` crate (see `try_run_with_stats`).
pub use rsq_obs::{BlockStats, ClassifierCounters, NoStats, Recorder, Route, RunStats, SkipStats};

// Compile-time query-shape routing (DESIGN.md §15): the plan the engine
// derives at compile time and executes on the fast path.
pub use rsq_query::{PlanStep, RoutePlan};

// Tier C observability: the profiling layer — byte-span accounting, stage
// timers and latency histograms (drive a run with a `ProfileStats` through
// `try_run_with_recorder`).
pub use rsq_obs::{Histogram, ProfileStage, ProfileStats, SkipBytes, SkipTechnique, StageTimes};

use error::Interrupt;
use input::{Fed, Feed, FilePages};
use rsq_classify::{LabelSeeker, Source, StructuralIterator, StructuralValidator};
use rsq_memmem::{Finder, Prefilter};
use rsq_query::{Automaton, CompileError, Query, QueryParseError, StateId};
use rsq_simd::{Backend, Simd, Task};
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::time::Instant;

/// States (and so routed-walker steps) whose per-run tables live on the
/// stack: a run of a query within it allocates nothing in the engine —
/// the seeker table and the walker's frames are inline up to here, the
/// depth, type and index stacks up to 128, 512 and 32 levels of nesting. A
/// query of `n` selectors compiles to about `n + 2` states; every query
/// of the catalog fits (`tests/public_api.rs` holds it to that).
#[doc(hidden)]
pub const RUN_TABLES_INLINE: usize = 16;

/// The window of a streamed run ([`Engine::run_reader`]): its ring holds
/// four — one of look-back before the current block, the rest read
/// ahead — and a label the automaton examines may be up to one window
/// long.
pub const STREAM_WINDOW: usize = 1 << 20;

/// The least input a routable query's run probes before it takes the
/// walker (DESIGN.md §15): one [`STREAM_WINDOW`], and the size from which
/// the CLI maps a file. A shorter input takes the walker on the query's
/// shape alone.
pub const PROBE_MIN_INPUT: usize = STREAM_WINDOW;

/// The bytes at the start of the input the probe runs the general loop
/// over.
const PROBE_BYTES: usize = 16 << 10;

/// The events per KiB the probe's general loop must deliver for the
/// walker to pay: what the walker saves is events, and below this it
/// saves too few to cover its `memmem` pass (EXPERIMENTS.md "Fast-path
/// routing").
const PROBE_EVENTS_PER_KIB: u64 = 3;

/// A document a streamed run takes in while it walks it.
pub enum Streamed<'d, R> {
    /// Read from `R` into a ring of windows the run owns
    /// ([`Engine::try_run_reader_with_recorder`]).
    Reader(R),
    /// The bytes `[start, start + len)` of a regular file, read in place
    /// ([`Engine::try_run_mapped_with_recorder`]).
    Mapped {
        /// The file.
        file: &'d File,
        /// The document's first byte in it.
        start: u64,
        /// The document's length.
        len: usize,
    },
}

/// What a run walks: one slice, or a document arriving from a source,
/// held in a ring of windows of the given size.
enum Input<'a> {
    Slice(&'a [u8]),
    Stream(Source<'a>, usize),
}

/// How the engine picks its evaluation strategy for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RouteChoice {
    /// Route eligible query shapes to the fast-path walker; everything
    /// else (and every ineligible option combination) runs the general
    /// main loop. The routes produce byte-identical results.
    #[default]
    Auto,
    /// Always run the general main loop — the ablation and parity
    /// baseline (`RSQ_ROUTE=general` in the CLI).
    General,
}

/// Tuning knobs for the engine.
///
/// The defaults enable everything the paper describes; individual features
/// can be disabled for the ablation study (§5's "identify improvement
/// opportunities" goal — see the `ablations` benchmark).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Toggle commas/colons on demand so that leaves are fast-forwarded
    /// over when the automaton cannot accept in one step (§3.3 *skipping
    /// leaves*). When disabled, every comma and colon is classified.
    pub skip_leaves: bool,
    /// Fast-forward over subtrees entered on a rejecting transition (§3.3
    /// *skipping children*).
    pub skip_children: bool,
    /// Fast-forward to the enclosing object's end once a unitary state's
    /// label has been matched (§3.3 *skipping siblings*).
    ///
    /// Rests on the JSON interoperability assumption (RFC 8259 §4) that
    /// labels are unique within an object: on documents with duplicate
    /// sibling labels, only the first member with a given label is
    /// reported while a DOM evaluator would report all of them. Disable
    /// for duplicate-faithful results on such documents.
    pub skip_siblings: bool,
    /// Leapfrog between `memmem` hits of the first label for queries
    /// starting with `$..ℓ` (§3.3 *skipping to a label*).
    pub head_start: bool,
    /// Fast-forward to the sought label *within the current element* when
    /// the automaton is in a waiting state that cannot accept in one step
    /// — the classifier extension §4.5 proposes and §5.6 identifies as
    /// the fix for C2ʳ-style queries.
    pub label_seek: bool,
    /// Validate `memmem` candidates with the quote scanner so that label
    /// lookalikes inside strings are rejected. Disable to mimic the
    /// paper's unchecked variant (unsound on adversarial strings).
    pub checked_head_start: bool,
    /// Push depth-stack frames only on state changes (§3.2). When
    /// disabled, a frame is pushed for every container, emulating the
    /// classical stack-based simulation (ablation baseline).
    pub sparse_stack: bool,
    /// Force a specific SIMD backend instead of the best detected one
    /// (ablation baseline; `None` = autodetect).
    pub backend: Option<rsq_simd::BackendKind>,
    /// Validate document structure before matching. With `true`, the
    /// fallible entry points reject malformed input with
    /// [`RunError::Malformed`] instead of processing it best-effort.
    /// Validation is structural (balanced, type-matched brackets outside
    /// strings; terminated strings; nothing after the root) — not a full
    /// JSON grammar check.
    pub strict: bool,
    /// Maximum nesting depth, always enforced. The default (1024) matches
    /// simdjson's; the deepest document in the paper's evaluation reaches
    /// 269 levels. On every input path the limit applies to the nesting
    /// the run traverses — a subtree it skips is never measured — and
    /// under [`strict`](Self::strict) to the whole document as well.
    pub max_depth: u32,
    /// Maximum document size in bytes for the fallible entry points
    /// (`None` = unlimited). [`Engine::run_reader`] enforces this while
    /// bytes arrive, bounding memory for unbounded inputs.
    pub max_document_bytes: Option<usize>,
    /// Maximum length in bytes of a member label the automaton examines
    /// (`None` = unlimited). Labels in skipped-over subtrees are never
    /// examined and do not count.
    pub max_label_bytes: Option<usize>,
    /// Maximum number of matches the fallible entry points may produce
    /// before aborting with [`RunError::LimitExceeded`] (`None` =
    /// unlimited).
    pub max_matches: Option<u64>,
    /// Evaluation-route selection (DESIGN.md §15). Under the default
    /// `Auto`, a run of a selective query — a label step before any
    /// descendant, with every skipping technique the walker's parity
    /// argument relies on enabled — takes the `memmem`-led walker on an
    /// input under [`PROBE_MIN_INPUT`]; on a longer one it takes the
    /// walker only when the general loop, run over the first 16 KiB,
    /// delivers enough events per KiB for the walker to save, and the
    /// general loop otherwise. `General` forces the main loop.
    pub route: RouteChoice,
}

impl EngineOptions {
    /// The default nesting-depth limit (simdjson parity).
    pub const DEFAULT_MAX_DEPTH: u32 = 1024;
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            skip_leaves: true,
            skip_children: true,
            skip_siblings: true,
            head_start: true,
            label_seek: true,
            checked_head_start: true,
            sparse_stack: true,
            backend: None,
            strict: false,
            max_depth: Self::DEFAULT_MAX_DEPTH,
            max_document_bytes: None,
            max_label_bytes: None,
            max_matches: None,
            route: RouteChoice::Auto,
        }
    }
}

/// Error constructing an [`Engine`] from query text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The query text does not parse.
    Parse(QueryParseError),
    /// The query parsed but its automaton is too large.
    Compile(CompileError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Compile(e) => Some(e),
        }
    }
}

impl From<QueryParseError> for EngineError {
    fn from(e: QueryParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

/// A compiled streaming JSONPath engine.
///
/// Compile once with [`Engine::from_text`] (or [`Engine::from_query`]),
/// then run over any number of documents with [`Engine::run`],
/// [`Engine::count`], or [`Engine::positions`].
///
/// There is one matching loop, [`Engine::try_run_with_recorder`]; what a
/// run observes is the recorder you pass, not a different entry point.
/// For a Tier C profile, call `try_run_with_recorder(doc, sink, &mut
/// profile)` with `profile = ProfileStats::new()`.
///
/// See the [crate documentation](crate) for an example.
#[derive(Clone, Debug)]
pub struct Engine {
    automaton: Automaton,
    plan: RoutePlan,
    /// By state: the prefilter of the state's single label transition
    /// ([`Automaton::single_explicit_needle`]), chosen here so that no
    /// run ranks a needle's bytes again.
    prefilters: Vec<Option<Prefilter>>,
    options: EngineOptions,
    simd: Simd,
    /// Whether a routable run on a long input probes before it takes the
    /// walker (off only through [`Engine::routed_by_shape`]).
    probe: bool,
}

impl Engine {
    /// Compiles an engine from JSONPath text with default options.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the query does not parse or its
    /// automaton exceeds the state cap.
    pub fn from_text(query: &str) -> Result<Self, EngineError> {
        Ok(Self::from_query(&Query::parse(query)?)?)
    }

    /// Compiles an engine from a parsed query with default options.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the query automaton exceeds the state
    /// cap (exponential blow-up).
    pub fn from_query(query: &Query) -> Result<Self, CompileError> {
        Self::with_options(query, EngineOptions::default())
    }

    /// Compiles an engine with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the query automaton exceeds the state
    /// cap.
    pub fn with_options(query: &Query, options: EngineOptions) -> Result<Self, CompileError> {
        let automaton = Automaton::compile(query)?;
        let plan = RoutePlan::analyze(&automaton);
        let prefilters = automaton
            .states()
            .map(|state| Some(Prefilter::of(automaton.single_explicit_needle(state)?.0)))
            .collect();
        let simd = match options.backend {
            Some(kind) => Simd::with_kind(kind),
            None => Simd::detect(),
        };
        Ok(Engine {
            automaton,
            plan,
            prefilters,
            options,
            simd,
            probe: true,
        })
    }

    /// This engine without the routing probe: a routable query's runs take
    /// the walker on every input, as they do on inputs under
    /// [`PROBE_MIN_INPUT`] (an experiment and test hook: the walker's
    /// column of `experiments fast-path`, and streams through windows
    /// smaller than the probe, which would otherwise read it whole first).
    #[doc(hidden)]
    #[must_use]
    pub fn routed_by_shape(mut self) -> Engine {
        self.probe = false;
        self
    }

    /// The ready-made prefilter of `state`'s single label transition, if it
    /// has exactly one (a test hook: the runs go through `finder`).
    #[doc(hidden)]
    #[must_use]
    pub fn prefilter(&self, state: StateId) -> Option<Prefilter> {
        *self.prefilters.get(state.index())?
    }

    /// The searcher for the label of `state`'s single label transition —
    /// the label between its quotes — and that transition's target; `None`
    /// for a state with any other number of label transitions.
    #[inline(always)]
    fn finder<B: Backend>(&self, state: StateId, backend: B) -> Option<(Finder<'_, B>, StateId)> {
        let (needle, target) = self.automaton.single_explicit_needle(state)?;
        let finder = Finder::with_prefilter(needle, self.prefilter(state)?, backend);
        Some((finder, target))
    }

    /// The compiled query automaton.
    #[must_use]
    pub fn automaton(&self) -> &Automaton {
        &self.automaton
    }

    /// The fast-path plan derived from the automaton at compile time
    /// (DESIGN.md §15). Its [`RoutePlan::route`] labels the query shape;
    /// whether a run actually takes the fast path additionally depends
    /// on the options and the input — see [`Engine::route`].
    #[must_use]
    pub fn plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The evaluation route runs of this engine take on inputs under
    /// [`PROBE_MIN_INPUT`]: the plan's route when the fast path is
    /// eligible under the configured options, [`Route::General`]
    /// otherwise. A longer input may take the general route all the same
    /// (the probe, DESIGN.md §15): what a run took is what
    /// [`try_run_with_recorder`](Self::try_run_with_recorder) returns.
    #[must_use]
    pub fn route(&self) -> Route {
        if self.fast_path_eligible() {
            self.plan.route
        } else {
            Route::General
        }
    }

    /// Whether runs are dispatched to the fast-path walker: the plan
    /// must route away from the general loop, routing must not be
    /// forced off, and every technique the walker's parity argument
    /// relies on must be enabled (the walker *is* those skips, fused;
    /// ablating any of them must ablate the walker too). Label-length
    /// limits fall back as well: the walker never examines labels, so
    /// it could not enforce them.
    fn fast_path_eligible(&self) -> bool {
        self.plan.is_fast()
            && self.options.route == RouteChoice::Auto
            && self.options.skip_leaves
            && self.options.skip_children
            && self.options.skip_siblings
            && self.options.label_seek
            && self.options.sparse_stack
            && self.options.max_label_bytes.is_none()
    }

    /// The options this engine runs with.
    #[must_use]
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The backend this engine's runs classify with.
    #[must_use]
    pub fn simd(&self) -> Simd {
        self.simd
    }

    /// Streams `input`, reporting every match to `sink`, with full error
    /// reporting.
    ///
    /// Matches are reported in document order, once per matched node (node
    /// semantics). The sink may stop the run early by returning
    /// [`SinkFull`]; that is a clean `Ok(())` exit, not an error.
    ///
    /// # Errors
    ///
    /// * [`RunError::LimitExceeded`] when a configured resource limit in
    ///   [`EngineOptions`] trips. Matches reported before the trip have
    ///   already reached the sink.
    /// * [`RunError::Malformed`] when [`EngineOptions::strict`] is set and
    ///   the document fails structural validation (checked up front; no
    ///   matches are reported).
    ///
    /// [`RunError::Io`] is never returned from the slice path.
    pub fn try_run<S: Sink>(&self, input: &[u8], sink: &mut S) -> Result<(), RunError> {
        self.try_run_with_recorder(input, sink, &mut NoStats)
            .map(drop)
    }

    /// Like [`try_run`](Self::try_run), but additionally returns Tier A
    /// [`RunStats`] for the run: bytes and blocks processed per classifier,
    /// structural events delivered, skip events by kind, `memmem` jumps
    /// taken and declined, maximum depth reached, and matches reported.
    ///
    /// The match output is byte-identical to [`try_run`](Self::try_run) on
    /// the same document: the statistics are gathered by monomorphising the
    /// engine's inner loops over a recorder parameter, so the plain entry
    /// points compile to the exact pre-instrumentation code (no branches,
    /// no atomics) and the counting variant adds only saturating integer
    /// increments.
    ///
    /// On a run that ends early — the sink declines a match, or
    /// `max_matches` trips — the statistics cover the work performed up to
    /// that point; for error returns the partial statistics are discarded
    /// with the run.
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_run_with_stats<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
    ) -> Result<RunStats, RunError> {
        let mut stats = RunStats::default();
        stats.route = self.try_run_with_recorder(input, sink, &mut stats)?;
        Ok(stats)
    }

    /// The spine: every other run method is a thin wrapper over this one.
    /// Like [`try_run`](Self::try_run), but drives a caller-supplied
    /// [`Recorder`] through the engine's monomorphized inner loops:
    ///
    /// * [`NoStats`] compiles to exactly [`try_run`](Self::try_run) — no
    ///   branches, no atomics, no clock reads;
    /// * a [`RunStats`] adds only saturating integer increments (Tier A);
    /// * a [`ProfileStats`] is the Tier C profile — the Tier A counters
    ///   plus per-technique `bytes_skipped` and wall-clock per pipeline
    ///   stage (the only recorder that reads the clock: once per stage
    ///   bracket, so twice per run with `strict` and once without, however
    ///   many skips the run takes);
    /// * composite recorders (the hardware-counter wrapper in `rsq-perf`)
    ///   observe stage brackets the same way, without the engine knowing
    ///   about them.
    ///
    /// ```
    /// use rsq_engine::{CountSink, Engine, ProfileStats};
    ///
    /// let engine = Engine::from_text("$..a")?;
    /// let doc = br#"{"a": 1, "b": {"a": 2}}"#;
    /// let mut profile = ProfileStats::new();
    /// engine.try_run_with_recorder(doc, &mut CountSink::new(), &mut profile)?;
    /// assert_eq!(profile.stats.bytes, doc.len() as u64);
    /// assert_eq!(profile.stats.matches, 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// The recorder accumulates: the engine reports the document length
    /// through [`Recorder::document`] and everything else through the
    /// other hooks, so one recorder may span many runs, and on an error
    /// return the partial work performed before the failure remains in it.
    ///
    /// Returns the route the run took (DESIGN.md §15), which no recorder
    /// hook sees: a caller that keeps [`RunStats`] sets
    /// [`RunStats::route`] from it.
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_run_with_recorder<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<Route, RunError> {
        rec.document(input.len());
        if let Some(limit) = self.options.max_document_bytes {
            if input.len() > limit {
                return Err(RunError::LimitExceeded {
                    kind: LimitKind::DocumentBytes,
                    limit: limit as u64,
                });
            }
        }
        if self.options.strict {
            let t = rec.clock();
            let mut validator =
                StructuralValidator::new(self.simd).with_max_depth(self.options.max_depth);
            let validated = validator
                .feed(input)
                .and_then(|()| validator.finish())
                .map_err(|e| input::map_validation(e, &self.options));
            rec.stage_ns(ProfileStage::Validate, t);
            validated?;
        }
        self.run_limited(input, sink, rec)
    }

    /// Streams a document pulled from `reader` in arbitrary-sized chunks,
    /// reporting every match to `sink`, in memory bounded by a ring of
    /// four [`STREAM_WINDOW`]s: the run walks the bytes while they arrive
    /// and drops them behind it.
    ///
    /// Transient read errors ([`Interrupted`](std::io::ErrorKind::Interrupted),
    /// [`WouldBlock`](std::io::ErrorKind::WouldBlock)) are retried; short
    /// reads of any size are reassembled. The size limit — and, in strict
    /// mode, structural validation and depth — are enforced *while bytes
    /// arrive*, over the whole document: a run that stops early (a sink
    /// stop, a tripped `max_matches`) still reads and checks the rest, and
    /// a failure there is the one reported. The matches are byte-identical
    /// to [`try_run`](Self::try_run) on the same document, no matter how
    /// the reader fragments it — but, unlike there, a document that fails
    /// validation may have reported matches to `sink` before the failure
    /// surfaced, so a caller that must not show them holds them until
    /// this returns. One outcome is the stream's own: a member label the
    /// automaton examines that begins more than a window before the
    /// structural character after it fails with a
    /// [`LabelBytes`](LimitKind::LabelBytes) limit of the window.
    ///
    /// # Errors
    ///
    /// Everything [`try_run`](Self::try_run) returns, plus
    /// [`RunError::Io`] when the reader fails with a non-transient error.
    pub fn run_reader<R: Read, S: Sink>(&self, reader: R, sink: &mut S) -> Result<(), RunError> {
        self.try_run_reader_with_recorder(reader, sink, &mut NoStats, None)
            .map(drop)
    }

    /// [`run_reader`](Self::run_reader) driving a [`Recorder`] as
    /// [`try_run_with_recorder`](Self::try_run_with_recorder) does — the
    /// document's length reaches it at the end of the input — and, with a
    /// `deadline`, aborting with [`RunError::DeadlineExceeded`] if it
    /// passes before the input ends (checked before every read, as
    /// [`ingest`](Self::ingest) does). Returns the document's length and
    /// the route the run took: the one a slice of the same bytes takes.
    ///
    /// # Errors
    ///
    /// As [`run_reader`](Self::run_reader), plus
    /// [`RunError::DeadlineExceeded`].
    pub fn try_run_reader_with_recorder<R: Read, S: Sink>(
        &self,
        reader: R,
        sink: &mut S,
        rec: &mut impl Recorder,
        deadline: Option<Instant>,
    ) -> Result<(usize, Route), RunError> {
        let feed = Feed::document(reader, &self.options, self.simd, deadline);
        let (feed, route) = self.run_feed(feed, sink, rec, STREAM_WINDOW)?;
        Ok((feed.len, route))
    }

    /// [`try_run_reader_with_recorder`](Self::try_run_reader_with_recorder)
    /// over the bytes `[start, start + len)` of a regular file, read in
    /// place: each window of the ring is a read-only mapping of exactly
    /// the bytes a copying ring would hold. Every byte passes the same
    /// checks in the same chunks, the rest too after a run that stops
    /// early, so the result, its [`RunStats`] and its error are those of
    /// reading the bytes — except that a file truncated during the run
    /// faults (`SIGBUS`), as any mapping of it does.
    ///
    /// # Errors
    ///
    /// As [`try_run_reader_with_recorder`](Self::try_run_reader_with_recorder),
    /// with [`RunError::Io`] when a window cannot be mapped.
    pub fn try_run_mapped_with_recorder<S: Sink>(
        &self,
        file: &File,
        start: u64,
        len: usize,
        sink: &mut S,
        rec: &mut impl Recorder,
        deadline: Option<Instant>,
    ) -> Result<(usize, Route), RunError> {
        let pages = FilePages { file, start, len };
        let feed = Feed::document(pages, &self.options, self.simd, deadline);
        let (feed, route) = self.run_feed(feed, sink, rec, STREAM_WINDOW)?;
        Ok((feed.len, route))
    }

    /// A streamed run of `doc` through windows of `window` bytes, with no
    /// deadline (a test hook: small windows put every edge case on a
    /// window edge). Returns the most bytes the stream held and the route
    /// the run took.
    ///
    /// # Errors
    ///
    /// As [`run_reader`](Self::run_reader).
    #[doc(hidden)]
    pub fn run_windowed<R: Read, S: Sink>(
        &self,
        doc: Streamed<'_, R>,
        sink: &mut S,
        rec: &mut impl Recorder,
        window: usize,
    ) -> Result<(usize, Route), RunError> {
        let (options, simd) = (&self.options, self.simd);
        let (high_water, route) = match doc {
            Streamed::Reader(reader) => {
                let feed = Feed::document(reader, options, simd, None);
                self.run_feed(feed, sink, rec, window)
                    .map(|(feed, route)| (feed.high_water, route))
            }
            Streamed::Mapped { file, start, len } => {
                let feed = Feed::document(FilePages { file, start, len }, options, simd, None);
                self.run_feed(feed, sink, rec, window)
                    .map(|(feed, route)| (feed.high_water, route))
            }
        }?;
        Ok((high_water, route))
    }

    /// Runs the query over the document `feed` takes in, then reports the
    /// first failure of the input — the bytes the run saw or the rest —
    /// before the run's own.
    fn run_feed<R, S: Sink>(
        &self,
        mut feed: Feed<R>,
        sink: &mut S,
        rec: &mut impl Recorder,
        window: usize,
    ) -> Result<(Feed<R>, Route), RunError>
    where
        Feed<R>: Fed,
    {
        let run = self.limited(sink, window, |sink| {
            self.dispatch(Input::Stream(feed.source(), window), sink, rec)
        });
        feed.finish()?;
        let route = run?;
        rec.document(feed.len);
        Ok((feed, route))
    }

    /// Reads a whole document from `reader` with the same protections as
    /// [`run_reader`](Self::run_reader) — chunk reassembly, transient-error
    /// retry, the incremental size limit, strict validation — but
    /// without running the query, into one buffer holding the whole
    /// document. Useful when the caller needs the document bytes
    /// afterwards, e.g. to extract matched node text: ingest once, then
    /// query the returned buffer with [`try_run`](Self::try_run).
    ///
    /// # Errors
    ///
    /// As [`run_reader`](Self::run_reader), minus match-time errors.
    pub fn read_document<R: Read>(&self, reader: R) -> Result<Vec<u8>, RunError> {
        self.ingest(reader, None)
    }

    /// [`read_document`](Self::read_document) into any [`Landing`] — the
    /// drivers land documents in an [`rsq_mmap::Region`], whose huge pages
    /// take a fraction of the page faults a fresh `Vec` does — and, with a
    /// `deadline`, aborting with [`RunError::DeadlineExceeded`] if it
    /// passes before ingest completes. The check runs before every read
    /// and on every transient-error retry — slow-loris protection for
    /// serving layers. A read already blocked inside the OS is not
    /// interrupted; pair the deadline with a read timeout on the
    /// underlying source.
    ///
    /// # Errors
    ///
    /// As [`read_document`](Self::read_document), plus
    /// [`RunError::DeadlineExceeded`].
    pub fn ingest<R: Read, B: Landing>(
        &self,
        mut reader: R,
        deadline: Option<std::time::Instant>,
    ) -> Result<B, RunError> {
        input::read_document(&mut reader, &self.options, self.simd, deadline)
    }

    /// [`ingest`](Self::ingest) of the bytes `[start, start + len)` of a
    /// regular file, mapped whole and checked in place in the same chunks.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest), or [`RunError::Io`] if unmappable.
    pub fn ingest_mapped(
        &self,
        file: &File,
        start: u64,
        len: usize,
        deadline: Option<Instant>,
    ) -> Result<rsq_mmap::Mapping, RunError> {
        Feed::document(
            FilePages { file, start, len },
            &self.options,
            self.simd,
            deadline,
        )
        .check_whole()
    }

    /// This engine minus the up-front [`strict`](EngineOptions::strict)
    /// pass of [`try_run`](Self::try_run) — for running documents that its
    /// [`ingest`](Self::ingest) or [`read_document`](Self::read_document)
    /// returned: those were validated while they arrived, and the verdict
    /// stands ([`run_reader`](Self::run_reader) validates as it runs).
    #[must_use]
    pub fn without_validation(mut self) -> Engine {
        self.options.strict = false;
        self
    }

    /// Streams `input`, reporting every match to `sink` — the lenient
    /// classic API.
    ///
    /// Equivalent to [`try_run`](Self::try_run) with the error discarded:
    /// malformed JSON is processed best-effort without panicking (results
    /// on such input are unspecified), and a tripped resource limit simply
    /// ends the run after the matches already reported.
    pub fn run<S: Sink>(&self, input: &[u8], sink: &mut S) {
        let _ = self.try_run(input, sink);
    }

    /// Counts the matches in `input`.
    #[must_use]
    pub fn count(&self, input: &[u8]) -> u64 {
        let mut sink = CountSink::new();
        self.run(input, &mut sink);
        sink.count()
    }

    /// Counts the matches in `input`, with full error reporting (see
    /// [`try_run`](Self::try_run)).
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_count(&self, input: &[u8]) -> Result<u64, RunError> {
        let mut sink = CountSink::new();
        self.try_run(input, &mut sink)?;
        Ok(sink.count())
    }

    /// Returns the byte offset of each match in `input`, in document
    /// order.
    #[must_use]
    pub fn positions(&self, input: &[u8]) -> Vec<usize> {
        let mut sink = PositionsSink::new();
        self.run(input, &mut sink);
        sink.into_positions()
    }

    /// Returns the byte offset of each match in `input`, with full error
    /// reporting (see [`try_run`](Self::try_run)).
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_positions(&self, input: &[u8]) -> Result<Vec<usize>, RunError> {
        let mut sink = PositionsSink::new();
        self.try_run(input, &mut sink)?;
        Ok(sink.into_positions())
    }

    /// Runs the matching loops over an already-validated document.
    fn run_limited<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<Route, RunError> {
        self.limited(sink, 0, |sink| {
            self.dispatch(Input::Slice(input), sink, rec)
        })
    }

    /// Runs `matching` into `sink`, enforcing `max_matches` and
    /// translating interrupts into the public error vocabulary (a label
    /// beyond a stream's `look_back` as a label-length limit of it). The sink
    /// is wrapped whether or not a limit is set (none is `u64::MAX`
    /// matches), so that the matching loops are compiled for one sink
    /// type per caller, not two.
    fn limited<S: Sink>(
        &self,
        sink: &mut S,
        look_back: usize,
        matching: impl FnOnce(&mut LimitSink<'_, S>) -> (Route, Result<(), Interrupt>),
    ) -> Result<Route, RunError> {
        let mut limited = LimitSink {
            inner: Some(sink),
            left: self.options.max_matches.unwrap_or(u64::MAX),
            tripped: false,
        };
        let (route, result) = matching(&mut limited);
        if limited.tripped {
            return Err(RunError::LimitExceeded {
                kind: LimitKind::Matches,
                limit: self.limit_value(LimitKind::Matches),
            });
        }
        match result {
            // A sink-initiated stop is a voluntary early exit.
            Ok(()) | Err(Interrupt::SinkStop) => Ok(route),
            Err(Interrupt::Limit(kind)) => Err(RunError::LimitExceeded {
                kind,
                limit: self.limit_value(kind),
            }),
            Err(Interrupt::LookBack) => Err(RunError::LimitExceeded {
                kind: LimitKind::LabelBytes,
                limit: look_back as u64,
            }),
        }
    }

    /// The configured value of a limit, for error reporting.
    fn limit_value(&self, kind: LimitKind) -> u64 {
        match kind {
            LimitKind::Depth => u64::from(self.options.max_depth),
            LimitKind::DocumentBytes => {
                self.options.max_document_bytes.unwrap_or(usize::MAX) as u64
            }
            LimitKind::LabelBytes => self.options.max_label_bytes.unwrap_or(usize::MAX) as u64,
            LimitKind::Matches => self.options.max_matches.unwrap_or(u64::MAX),
        }
    }

    /// Picks the evaluation strategy and runs it, bracketing the whole
    /// matching pass as the `automaton` stage (classification is fused
    /// into it, so it has no stage of its own).
    fn dispatch<S: Sink>(
        &self,
        input: Input<'_>,
        sink: &mut LimitSink<'_, S>,
        rec: &mut impl Recorder,
    ) -> (Route, Result<(), Interrupt>) {
        let t = rec.clock();
        let result = self.dispatch_inner(input, sink, rec);
        rec.stage_ns(ProfileStage::Automaton, t);
        result
    }

    /// The single backend dispatch of a run: everything below here —
    /// finders, classifiers, the walker and the main loop — is compiled
    /// once per instruction set and inlined into that backend's entry.
    fn dispatch_inner<S: Sink>(
        &self,
        input: Input<'_>,
        sink: &mut LimitSink<'_, S>,
        rec: &mut impl Recorder,
    ) -> (Route, Result<(), Interrupt>) {
        self.simd.dispatch(Run {
            engine: self,
            input,
            sink,
            rec,
        })
    }

    /// Runs the matching loops on `backend` directly. With the run-time
    /// [`Simd`] handle itself as the backend there is no dispatch: every
    /// block primitive is a `match` and a kernel call, which is how every
    /// run went before the pipeline became generic. The backend-parity
    /// tests compare that against the dispatched runs.
    ///
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run), except that `strict` and
    /// `max_document_bytes` are not applied.
    #[doc(hidden)]
    pub fn try_run_on<B: Backend, S: Sink>(
        &self,
        backend: B,
        input: &[u8],
        sink: &mut S,
    ) -> Result<(), RunError> {
        self.limited(sink, 0, |sink| {
            self.run_on(backend, Input::Slice(input), sink, &mut NoStats)
        })
        .map(drop)
    }

    /// Picks the evaluation strategy and runs it on `backend`.
    #[inline(always)]
    fn run_on<B: Backend, S: Sink>(
        &self,
        backend: B,
        input: Input<'_>,
        sink: &mut LimitSink<'_, S>,
        rec: &mut impl Recorder,
    ) -> (Route, Result<(), Interrupt>) {
        let mut it = match input {
            Input::Slice(bytes) => StructuralIterator::new(bytes, backend),
            Input::Stream(source, window) => {
                StructuralIterator::from_source(source, window, backend)
            }
        };
        let route = self.route_of::<B, S>(&mut it);
        // Fold the iterator's classifier counters before propagating an
        // interrupt: an early sink stop maps to `Ok` upstream and must keep
        // its stats.
        let result = self.walk(route, &mut it, sink, rec);
        rec.classifier(&it.counters());
        (route, result)
    }

    /// The route a run over `it` takes (DESIGN.md §15): the general one
    /// unless the fast path is eligible; on an input of at least
    /// [`PROBE_MIN_INPUT`], the walker only if the general loop over its
    /// first [`PROBE_BYTES`] delivers [`PROBE_EVENTS_PER_KIB`] — the
    /// events the walker would save. The probe's matches, limits and
    /// counters are thrown away; it goes through a sink of the caller's
    /// type `S` and a [`RunStats`] — a pair the drivers' runs already
    /// compile — so that it adds no copy of the loop. Out of line: it is
    /// once per run, and inlined it would copy the root block's
    /// classification into every entry.
    #[inline(never)]
    fn route_of<B: Backend, S: Sink>(&self, it: &mut StructuralIterator<'_, B>) -> Route {
        if !self.fast_path_eligible() {
            return Route::General;
        }
        let backend = it.backend();
        let head = if self.probe {
            it.head(PROBE_MIN_INPUT)
                .and_then(|head| head.get(..PROBE_BYTES))
        } else {
            None
        };
        let Some(head) = head else {
            return self.plan.route;
        };
        let mut probe = StructuralIterator::new(head, backend);
        let mut seekers = main_loop::seekers(self, backend);
        let mut stats = RunStats::default();
        let _ = main_loop::run_document(
            &mut probe,
            &self.automaton,
            &self.options,
            seekers.as_mut_slice(),
            None,
            &mut LimitSink::<S>::discarding(),
            &mut stats,
        );
        if stats.events.saturating_mul(1024) >= PROBE_EVENTS_PER_KIB * PROBE_BYTES as u64 {
            self.plan.route
        } else {
            Route::General
        }
    }

    /// Runs `route` over `it`.
    #[inline(always)]
    fn walk<B: Backend, S: Sink>(
        &self,
        route: Route,
        it: &mut StructuralIterator<'_, B>,
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(), Interrupt> {
        let initial = self.automaton.initial_state();
        let mut seekers = main_loop::seekers(self, it.backend());
        let seekers = seekers.as_mut_slice();
        if route != Route::General {
            // The query shape is selective and the input dense enough for
            // the walker to pay: drive it with memmem-led direct seeks.
            // Mutually exclusive with the head start by construction (a
            // waiting initial state is never a plan step: its fallback
            // loops instead of rejecting).
            return fast_path::run_fast_path(
                &self.automaton,
                &self.plan,
                &self.options,
                seekers,
                it,
                sink,
                rec,
            );
        }
        // The head start (§3.3 skipping to a label): a waiting initial
        // state has exactly one label transition; resolve it here so the
        // run needs no panicking lookup. If the invariant is ever
        // violated, the main loop handles the query correctly, just
        // without the head start. The seeker stays out of the by-state
        // table: the initial state is not internal, so the main loop must
        // not subtree-seek in it (that scope reports no atomic member).
        let head_start = if self.options.head_start && self.automaton.is_waiting(initial) {
            let seeker = self.finder(initial, it.backend());
            seeker.map(|(finder, target)| (LabelSeeker::new(finder), target))
        } else {
            None
        };
        main_loop::run_document(
            it,
            &self.automaton,
            &self.options,
            seekers,
            head_start,
            sink,
            rec,
        )
    }
}

/// One engine run as the [`Task`] [`Engine::dispatch_inner`] dispatches.
struct Run<'r, 'i, 's, S: Sink, R> {
    engine: &'r Engine,
    input: Input<'i>,
    sink: &'r mut LimitSink<'s, S>,
    rec: &'r mut R,
}

impl<S: Sink, R: Recorder> Task for Run<'_, '_, '_, S, R> {
    type Output = (Route, Result<(), Interrupt>);

    #[inline(always)]
    fn run<B: Backend>(self, backend: B) -> Self::Output {
        self.engine.run_on(backend, self.input, self.sink, self.rec)
    }
}

/// Wraps the user's sink to enforce `max_matches`, distinguishing the
/// engine-imposed trip from a voluntary [`SinkFull`] raised by the inner
/// sink. Without an inner sink it throws matches away (the probe's).
struct LimitSink<'a, S: Sink> {
    inner: Option<&'a mut S>,
    left: u64,
    tripped: bool,
}

impl<S: Sink> LimitSink<'_, S> {
    /// A sink of this type that keeps nothing and never stops a run.
    fn discarding() -> Self {
        LimitSink {
            inner: None,
            left: u64::MAX,
            tripped: false,
        }
    }
}

impl<S: Sink> Sink for LimitSink<'_, S> {
    #[inline]
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        if self.left == 0 {
            self.tripped = true;
            return Err(SinkFull);
        }
        // The inner sink's own stop propagates without tripping the limit.
        if let Some(inner) = &mut self.inner {
            inner.record(pos)?;
        }
        self.left -= 1;
        Ok(())
    }
}
