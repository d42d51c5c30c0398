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
//! For untrusted input, [`Engine::exec`] adds strict validation, resource
//! limits, and a document streamed from any [`std::io::Read`]:
//!
//! ```
//! use rsq_engine::{Engine, EngineOptions, Input, NoStats, PositionsSink, RunError};
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
//!     engine.try_positions(br#"{"price": 9"#),
//!     Err(RunError::Malformed(_))
//! ));
//!
//! // …and a streamed document is checked while its bytes arrive.
//! let mut doc: &[u8] = br#"{"store": {"bike": {"price": 20}}}"#;
//! let mut sink = PositionsSink::new();
//! let reader = Input::Reader { reader: &mut doc, deadline: None };
//! engine.exec(reader, &mut sink, &mut NoStats)?;
//! assert_eq!(sink.positions(), [29]);
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

/// Where [`read_to_end`] lands a document (re-exported so callers need
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
// `exec`).
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

/// The window of a streamed run ([`Input::Reader`]): its ring holds
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

/// A document as [`Engine::exec`] takes it: held whole, or streamed — its
/// bytes walked while they arrive, in memory bounded by a ring of four
/// [`STREAM_WINDOW`]s, and checked as they arrive.
pub enum Input<'a> {
    /// The whole document, checked by the run: the size limit, then (in
    /// [strict](EngineOptions::strict) mode) structure and depth, before
    /// anything is matched.
    Slice(&'a [u8]),
    /// A document read from `reader` in chunks of any size into a ring the
    /// run owns, with `deadline` checked before every read.
    Reader {
        /// The source; transient errors are retried.
        reader: &'a mut dyn Read,
        /// When the input must have ended.
        deadline: Option<Instant>,
    },
    /// The bytes `[start, start + len)` of a regular file, read in place:
    /// each window of the ring is a read-only mapping of exactly the bytes
    /// a copying ring would hold.
    Pages {
        /// The file.
        file: &'a File,
        /// The document's first byte in it.
        start: u64,
        /// The document's length.
        len: usize,
        /// When the input must have been checked to its end.
        deadline: Option<Instant>,
    },
}

/// What a run walks: one slice, or a document arriving from a source,
/// held in a ring of windows of the given size.
enum Walk<'a> {
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
    /// (`None` = unlimited). A streamed [`Input`] and [`read_to_end`]
    /// enforce it while bytes arrive, bounding memory for unbounded inputs.
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
/// then run over any number of documents with [`Engine::exec`],
/// [`Engine::count`], or [`Engine::positions`].
///
/// There is one entry, [`Engine::exec`]; what a run observes is the
/// recorder you pass, not a different entry point. For a Tier C profile,
/// call `exec(input, sink, &mut profile)` with `profile =
/// ProfileStats::new()`.
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
    /// [`exec`](Self::exec) returns.
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

    /// Runs the query over `input`, reporting every match to `sink` and
    /// what the run did to `rec`, and returns the route it took (DESIGN.md
    /// §15), which no recorder hook sees: a caller that keeps
    /// [`RunStats`] sets [`RunStats::route`] from it.
    ///
    /// Matches are reported in document order, once per matched node (node
    /// semantics), byte-identical on every [`Input`] of the same bytes, no
    /// matter how a reader fragments them. The sink may stop the run early
    /// by returning [`SinkFull`]; that is a clean exit, not an error.
    ///
    /// The recorder is the only thing that varies what a run observes:
    ///
    /// * [`NoStats`] compiles to the plain loops — no branches, no
    ///   atomics, no clock reads;
    /// * a [`RunStats`] adds only saturating integer increments (Tier A);
    /// * a [`ProfileStats`] is the Tier C profile — the Tier A counters
    ///   plus per-technique `bytes_skipped` and wall-clock per pipeline
    ///   stage: a slice's strict pass is `validate`, a stream's refills
    ///   (its strict pass among them) are `ingest`, the rest `automaton`.
    ///
    /// ```
    /// use rsq_engine::{CountSink, Engine, Input, ProfileStats};
    ///
    /// let engine = Engine::from_text("$..a")?;
    /// let doc = br#"{"a": 1, "b": {"a": 2}}"#;
    /// let mut profile = ProfileStats::new();
    /// engine.exec(Input::Slice(doc), &mut CountSink::new(), &mut profile)?;
    /// assert_eq!(profile.stats.bytes, doc.len() as u64);
    /// assert_eq!(profile.stats.matches, 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// The recorder accumulates, so one may span many runs, and on an
    /// error return the partial work performed before the failure remains
    /// in it. A slice's length reaches [`Recorder::document`] before its
    /// checks, a stream's at the end of a successful run.
    ///
    /// A streamed input is checked as it arrives — the size limit and, in
    /// strict mode, structure and depth over the whole document — and to
    /// its end: a run that stops early (a sink stop, a tripped
    /// `max_matches`) still takes in and checks the rest, and a failure of
    /// the input is reported before the run's own. Unlike a slice, a
    /// stream that fails validation may have reported matches to `sink`
    /// before the failure surfaced, so a caller that must not show them
    /// holds them until this returns. One outcome is the stream's own: a
    /// member label the automaton examines that begins more than a window
    /// before the structural character after it fails with a
    /// [`LabelBytes`](LimitKind::LabelBytes) limit of the window.
    ///
    /// # Errors
    ///
    /// * [`RunError::LimitExceeded`] when a configured resource limit in
    ///   [`EngineOptions`] trips. Matches reported before the trip have
    ///   already reached the sink.
    /// * [`RunError::Malformed`] when [`EngineOptions::strict`] is set and
    ///   the document fails structural validation.
    /// * [`RunError::Io`] when a reader fails with a non-transient error
    ///   or a window cannot be mapped; [`RunError::DeadlineExceeded`] when
    ///   a stream's deadline passes before its input ends. A slice
    ///   returns neither.
    pub fn exec<S: Sink>(
        &self,
        input: Input<'_>,
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<Route, RunError> {
        self.run_windowed(input, sink, rec, STREAM_WINDOW)
            .map(|(_, route)| route)
    }

    /// [`exec`](Self::exec) with a streamed input held in windows of
    /// `window` bytes (a test hook: small windows put every edge case on a
    /// window edge). Returns the most bytes the run held and the route it
    /// took.
    ///
    /// # Errors
    ///
    /// As [`exec`](Self::exec).
    #[doc(hidden)]
    pub fn run_windowed<S: Sink>(
        &self,
        input: Input<'_>,
        sink: &mut S,
        rec: &mut impl Recorder,
        window: usize,
    ) -> Result<(usize, Route), RunError> {
        let (options, simd) = (&self.options, self.simd);
        match input {
            Input::Slice(doc) => self.run_slice(doc, sink, rec).map(|r| (doc.len(), r)),
            Input::Reader { reader, deadline } => {
                let feed = Feed::document(reader, options, simd, deadline);
                self.run_feed(feed, sink, rec, window)
            }
            Input::Pages {
                file,
                start,
                len,
                deadline,
            } => {
                let feed = Feed::document(FilePages { file, start, len }, options, simd, deadline);
                self.run_feed(feed, sink, rec, window)
            }
        }
    }

    /// [`exec`](Self::exec) of a slice, returning Tier A [`RunStats`] for
    /// the run: bytes and blocks processed per classifier, structural
    /// events delivered, skip events by kind, `memmem` jumps taken and
    /// declined, maximum depth reached, matches reported, and the route.
    /// On a run that ends early the statistics cover the work performed
    /// up to that point; for error returns they are discarded with the
    /// run.
    ///
    /// # Errors
    ///
    /// As [`exec`](Self::exec).
    pub fn try_run_with_stats<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
    ) -> Result<RunStats, RunError> {
        let mut stats = RunStats::default();
        stats.route = self.exec(Input::Slice(input), sink, &mut stats)?;
        Ok(stats)
    }

    /// A slice's run: its checks, then the matching loops.
    fn run_slice<S: Sink>(
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
        let t = rec.clock();
        let run = self.limited(sink, 0, |sink| self.dispatch(Walk::Slice(input), sink, rec));
        rec.stage_ns(ProfileStage::Automaton, t);
        run
    }

    /// Runs the query over the document `feed` takes in, then reports the
    /// first failure of the input — the bytes the run saw or the rest —
    /// before the run's own. Returns the most bytes the run held and its
    /// route.
    fn run_feed<F, S: Sink, R: Recorder>(
        &self,
        mut feed: Feed<F>,
        sink: &mut S,
        rec: &mut R,
        window: usize,
    ) -> Result<(usize, Route), RunError>
    where
        Feed<F>: Fed,
    {
        if R::TIMED {
            feed.ingest_ns = Some(0);
        }
        let t = rec.clock();
        let mut exited = false;
        let run = self.limited(sink, window, |sink| {
            let (route, result) = self.dispatch(Walk::Stream(feed.source(), window), sink, rec);
            exited = matches!(result, Err(Interrupt::Exit));
            (route, result)
        });
        // The refills inside the run are the ingest stage's, not the
        // automaton's.
        let ran = rec.clock().saturating_sub(t);
        let refilled = feed.ingest_ns.unwrap_or(0);
        rec.add_stage_ns(ProfileStage::Automaton, ran.saturating_sub(refilled));
        let seen = feed.len;
        let finished = feed.finish();
        rec.add_stage_ns(ProfileStage::Ingest, feed.ingest_ns.unwrap_or(0));
        finished?;
        if exited {
            // The walker's exit elides the rest of the document, as on a
            // slice; it saw the input only as far as the run had read it.
            rec.skip_span(SkipTechnique::Exit, seen, feed.len);
        }
        let route = run?;
        rec.document(feed.len);
        Ok((feed.high_water, route))
    }

    /// Reads a whole document from `reader` through [`read_to_end`], held
    /// to [`max_document_bytes`](EngineOptions::max_document_bytes): for a
    /// caller that needs the bytes afterwards, e.g. to cut matched values
    /// out of them. Nothing looks inside the bytes here; the slice run of
    /// them applies [`strict`](EngineOptions::strict).
    ///
    /// # Errors
    ///
    /// As [`read_to_end`].
    pub fn read_document<R: Read>(&self, reader: R) -> Result<Vec<u8>, RunError> {
        read_to_end(reader, self.options.max_document_bytes, None)
    }

    /// Counts the matches in `input`; a failure ends the count with the
    /// matches reported before it (on malformed JSON, without
    /// [`strict`](EngineOptions::strict), results are unspecified but the
    /// run never panics).
    #[must_use]
    pub fn count(&self, input: &[u8]) -> u64 {
        let mut sink = CountSink::new();
        let _ = self.exec(Input::Slice(input), &mut sink, &mut NoStats);
        sink.count()
    }

    /// Returns the byte offset of each match in `input`, in document
    /// order, as leniently as [`count`](Self::count).
    #[must_use]
    pub fn positions(&self, input: &[u8]) -> Vec<usize> {
        let mut sink = PositionsSink::new();
        let _ = self.exec(Input::Slice(input), &mut sink, &mut NoStats);
        sink.into_positions()
    }

    /// Returns the byte offset of each match in `input`, with full error
    /// reporting.
    ///
    /// # Errors
    ///
    /// As [`exec`](Self::exec).
    pub fn try_positions(&self, input: &[u8]) -> Result<Vec<usize>, RunError> {
        let mut sink = PositionsSink::new();
        self.exec(Input::Slice(input), &mut sink, &mut NoStats)?;
        Ok(sink.into_positions())
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
            Ok(()) | Err(Interrupt::SinkStop | Interrupt::Exit) => Ok(route),
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

    /// The single backend dispatch of a run: everything below here —
    /// finders, classifiers, the walker and the main loop — is compiled
    /// once per instruction set and inlined into that backend's entry.
    /// The caller brackets it as the `automaton` stage (classification is
    /// fused into it, so it has no stage of its own).
    fn dispatch<S: Sink>(
        &self,
        input: Walk<'_>,
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
    /// As [`exec`](Self::exec) of a slice, except that `strict` and
    /// `max_document_bytes` are not applied.
    #[doc(hidden)]
    pub fn try_run_on<B: Backend, S: Sink>(
        &self,
        backend: B,
        input: &[u8],
        sink: &mut S,
    ) -> Result<(), RunError> {
        self.limited(sink, 0, |sink| {
            self.run_on(backend, Walk::Slice(input), sink, &mut NoStats)
        })
        .map(drop)
    }

    /// Picks the evaluation strategy and runs it on `backend`.
    #[inline(always)]
    fn run_on<B: Backend, S: Sink>(
        &self,
        backend: B,
        input: Walk<'_>,
        sink: &mut LimitSink<'_, S>,
        rec: &mut impl Recorder,
    ) -> (Route, Result<(), Interrupt>) {
        let mut it = match input {
            Walk::Slice(bytes) => StructuralIterator::new(bytes, backend),
            Walk::Stream(source, window) => {
                StructuralIterator::from_source(source, window, backend)
            }
        };
        let route = self.route_of::<B, S>(&mut it);
        // Fold the iterator's classifier counters before propagating an
        // interrupt: an early sink stop maps to `Ok` upstream and must keep
        // its stats.
        let mut result = self.walk(route, &mut it, sink, rec);
        if it.exited() {
            // The walker stopped a stream early: its driver attributes the
            // rest of the document, which it reads to check it.
            result = Err(Interrupt::Exit);
        }
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
        let _ = main_loop::run(
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
        main_loop::run(
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

/// One engine run as the [`Task`] [`Engine::dispatch`] dispatches.
struct Run<'r, 'i, 's, S: Sink, R> {
    engine: &'r Engine,
    input: Walk<'i>,
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
