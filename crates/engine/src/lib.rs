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
mod util;

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
// timers, latency histograms, and the document skip map (drive a run with
// a `ProfileStats` through `try_run_with_recorder`).
pub use rsq_obs::{
    Histogram, ProfileStage, ProfileStats, SkipBytes, SkipMap, SkipTechnique, StageTimes,
};

use error::Interrupt;
use rsq_classify::{LabelSeeker, StructuralIterator, StructuralValidator};
use rsq_memmem::{Finder, Prefilter};
use rsq_query::{Automaton, CompileError, Query, QueryParseError, StateId};
use rsq_simd::{Backend, Simd, Task};
use std::fmt;
use std::io::Read;

/// States (and so routed-walker steps) whose per-run tables live on the
/// stack: a run of a query within it allocates nothing in the engine —
/// the seeker table and the walker's frames are inline up to here, the
/// depth, type and index stacks up to 128, 512 and 32 levels of nesting. A
/// query of `n` selectors compiles to about `n + 2` states; every query
/// of the catalog fits (`tests/public_api.rs` holds it to that).
#[doc(hidden)]
pub const RUN_TABLES_INLINE: usize = 16;

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
    /// 269 levels. On the slice path the limit applies to nesting the
    /// engine actually traverses; the reader path validates the whole
    /// document's depth during ingest.
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
    /// Evaluation-route selection (DESIGN.md §15). The default `Auto`
    /// routes field-chain and selective query shapes to the `memmem`-led
    /// fast-path walker when every skipping technique its parity
    /// argument relies on is enabled; `General` forces the main loop.
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
/// For a Tier C profile (what `try_run_with_profile` used to return),
/// call `try_run_with_recorder(doc, sink, &mut profile)` with
/// `profile = ProfileStats::for_document(doc.len())`; to reuse buffers
/// across documents, clear and pass the same `Vec<usize>` as the sink.
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
        })
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
    /// on the options — see [`Engine::route`].
    #[must_use]
    pub fn plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The evaluation route runs of this engine take: the plan's route
    /// when the fast path is eligible under the configured options,
    /// [`Route::General`] otherwise.
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
        self.try_run_with_recorder(input, sink, &mut stats)?;
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
    ///   plus per-technique `bytes_skipped`, wall-clock per pipeline
    ///   stage (the only recorder that reads the clock: twice per
    ///   fast-forward plus twice per run) and, when built with
    ///   [`ProfileStats::for_document`], a bounded-resolution [`SkipMap`];
    /// * composite recorders (the hardware-counter wrapper in `rsq-perf`)
    ///   observe stage brackets and route decisions the same way, without
    ///   the engine knowing about them.
    ///
    /// ```
    /// use rsq_engine::{CountSink, Engine, ProfileStats};
    ///
    /// let engine = Engine::from_text("$..a")?;
    /// let doc = br#"{"a": 1, "b": {"a": 2}}"#;
    /// let mut profile = ProfileStats::for_document(doc.len());
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
    /// # Errors
    ///
    /// As [`try_run`](Self::try_run).
    pub fn try_run_with_recorder<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(), RunError> {
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
            let mut validator = StructuralValidator::new(self.simd)
                .strict(true)
                .with_max_depth(self.options.max_depth);
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
    /// reporting every match to `sink`.
    ///
    /// Transient read errors ([`Interrupted`](std::io::ErrorKind::Interrupted),
    /// [`WouldBlock`](std::io::ErrorKind::WouldBlock)) are retried; short
    /// reads of any size are reassembled. Size and depth limits — and, in
    /// strict mode, structural validation — are enforced *while bytes
    /// arrive*, so a hostile input fails before it is buffered whole. The
    /// match output is byte-identical to [`try_run`](Self::try_run) on the
    /// same document, no matter how the reader fragments it.
    ///
    /// # Errors
    ///
    /// Everything [`try_run`](Self::try_run) returns, plus
    /// [`RunError::Io`] when the reader fails with a non-transient error.
    pub fn run_reader<R: Read, S: Sink>(
        &self,
        mut reader: R,
        sink: &mut S,
    ) -> Result<(), RunError> {
        let doc: Vec<u8> = input::read_document(&mut reader, &self.options, self.simd, None)?;
        // Ingest already validated and size-checked; go straight to
        // matching.
        self.run_limited(&doc, sink, &mut NoStats)
    }

    /// Reads a whole document from `reader` with the same protections as
    /// [`run_reader`](Self::run_reader) — chunk reassembly, transient-error
    /// retry, incremental size/depth limits, strict validation — but
    /// without running the query. Useful when the caller needs the
    /// document bytes afterwards, e.g. to extract matched node text:
    /// ingest once, then query the returned buffer with
    /// [`try_run`](Self::try_run).
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

    /// This engine minus the up-front [`strict`](EngineOptions::strict)
    /// pass of [`try_run`](Self::try_run) — for running documents that its
    /// [`ingest`](Self::ingest) or [`read_document`](Self::read_document)
    /// returned: those were validated while they arrived, and the verdict
    /// stands ([`run_reader`](Self::run_reader) does the same in one call).
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
    ) -> Result<(), RunError> {
        self.limited(sink, |sink| self.dispatch(input, sink, rec))
    }

    /// Runs `matching` into `sink`, enforcing `max_matches` and
    /// translating interrupts into the public error vocabulary. The sink
    /// is wrapped whether or not a limit is set (none is `u64::MAX`
    /// matches), so that the matching loops are compiled for one sink
    /// type per caller, not two.
    fn limited<S: Sink>(
        &self,
        sink: &mut S,
        matching: impl FnOnce(&mut LimitSink<'_, S>) -> Result<(), Interrupt>,
    ) -> Result<(), RunError> {
        let mut limited = LimitSink {
            inner: sink,
            left: self.options.max_matches.unwrap_or(u64::MAX),
            tripped: false,
        };
        let result = matching(&mut limited);
        if limited.tripped {
            return Err(RunError::LimitExceeded {
                kind: LimitKind::Matches,
                limit: self.limit_value(LimitKind::Matches),
            });
        }
        match result {
            // A sink-initiated stop is a voluntary early exit.
            Ok(()) | Err(Interrupt::SinkStop) => Ok(()),
            Err(Interrupt::Limit(kind)) => Err(RunError::LimitExceeded {
                kind,
                limit: self.limit_value(kind),
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
    /// into it; the `classify` stage counts only the dedicated
    /// fast-forwards within).
    fn dispatch<S: Sink>(
        &self,
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(), Interrupt> {
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
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(), Interrupt> {
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
        self.limited(sink, |sink| self.run_on(backend, input, sink, &mut NoStats))
    }

    /// Picks the evaluation strategy and runs it on `backend`.
    #[inline(always)]
    fn run_on<B: Backend, S: Sink>(
        &self,
        backend: B,
        input: &[u8],
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(), Interrupt> {
        let initial = self.automaton.initial_state();
        let mut seekers = main_loop::seekers(self, backend);
        let seekers = seekers.as_mut_slice();
        if self.fast_path_eligible() {
            // Compile-time routing (DESIGN.md §15): the query shape is a
            // field chain or selective path — drive it with memmem-led
            // direct seeks. Mutually exclusive with the head start by
            // construction (a waiting initial state is never a plan
            // step: its fallback loops instead of rejecting).
            rec.route(self.plan.route);
            return fast_path::run_fast_path(
                &self.automaton,
                &self.plan,
                &self.options,
                seekers,
                backend,
                input,
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
            let seeker = self.finder(initial, backend);
            seeker.map(|(finder, target)| (LabelSeeker::new(finder), target))
        } else {
            None
        };
        let mut it = StructuralIterator::new(input, backend);
        // Fold the iterator's classifier counters before propagating an
        // interrupt: an early sink stop maps to `Ok` upstream and must keep
        // its stats.
        let result = main_loop::run_document(
            &mut it,
            &self.automaton,
            &self.options,
            seekers,
            head_start,
            sink,
            rec,
        );
        rec.classifier(&it.counters());
        result
    }
}

/// One engine run as the [`Task`] [`Engine::dispatch_inner`] dispatches.
struct Run<'r, S, R> {
    engine: &'r Engine,
    input: &'r [u8],
    sink: &'r mut S,
    rec: &'r mut R,
}

impl<S: Sink, R: Recorder> Task for Run<'_, S, R> {
    type Output = Result<(), Interrupt>;

    #[inline(always)]
    fn run<B: Backend>(self, backend: B) -> Self::Output {
        self.engine.run_on(backend, self.input, self.sink, self.rec)
    }
}

/// Wraps the user's sink to enforce `max_matches`, distinguishing the
/// engine-imposed trip from a voluntary [`SinkFull`] raised by the inner
/// sink.
struct LimitSink<'a, S: Sink> {
    inner: &'a mut S,
    left: u64,
    tripped: bool,
}

impl<S: Sink> Sink for LimitSink<'_, S> {
    #[inline]
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        if self.left == 0 {
            self.tripped = true;
            return Err(SinkFull);
        }
        // The inner sink's own stop propagates without tripping the limit.
        self.inner.record(pos)?;
        self.left -= 1;
        Ok(())
    }
}
