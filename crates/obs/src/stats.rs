//! Tier A: always-on run statistics.
//!
//! [`RunStats`] is the machine-readable report of one engine run; the
//! [`Recorder`] trait is the hot-path interface the engine's inner loops
//! are generic over. [`NoStats`] (the default recorder) has empty
//! `#[inline]` methods, so the unobserved path compiles to exactly the
//! code it would be without instrumentation; [`RunStats`] implements the
//! same trait with saturating `u64` increments.

use crate::series::Value;
use std::fmt;

#[inline]
fn bump(counter: &mut u64) {
    *counter = counter.saturating_add(1);
}

/// Block counters maintained by `rsq-classify`: every 64-byte block pulled
/// through the shared quote-classifying cursor, attributed to the
/// classifier that pulled it (§4's multi-classifier pipeline).
///
/// The counters are plain `u64` adds at block rate (one per 64 input
/// bytes), cheap enough to keep always on; the engine folds them into a
/// [`RunStats`] once per run via [`Recorder::classifier`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassifierCounters {
    /// Blocks consumed by the structural classifier (the ordinary event
    /// loop).
    pub blocks_structural: u64,
    /// Blocks consumed by the depth classifier during child/sibling
    /// fast-forwards.
    pub blocks_depth: u64,
    /// Blocks consumed by the label-seek classifier.
    pub blocks_seek: u64,
    /// Blocks quote-classified only: the head start's gaps between
    /// candidates, crossed by a document-scoped seek.
    pub blocks_quote: u64,
    /// Structural-table reconfigurations (comma/colon toggle flips that
    /// actually changed the tables and reclassified the current block).
    pub toggle_flips: u64,
}

/// Blocks classified per classifier kind, as reported in [`RunStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Structural classifier (the ordinary event loop).
    pub structural: u64,
    /// Depth classifier (child/sibling fast-forwards).
    pub depth: u64,
    /// Label-seek classifier (§4.5 extension).
    pub seek: u64,
    /// Quote classifier alone (the head start's gaps, where candidates
    /// are validated).
    pub quote: u64,
}

impl BlockStats {
    /// Total blocks classified across all classifier kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.structural
            .saturating_add(self.depth)
            .saturating_add(self.seek)
            .saturating_add(self.quote)
    }
}

/// The query-shape route the engine chose for a run: which driver
/// executed the query (see DESIGN.md §15).
///
/// Routes are decided at compile time from the automaton's shape; the
/// stats report carries the decision so fast-path work (and fallbacks)
/// are visible in Tier A. This enum lives in `rsq-obs` (dependency-free)
/// so both `rsq-query` (the analyzer) and the stats plumbing can share
/// it without cycles — and so future multi-query/sharding layers route
/// through the same stable seam.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Route {
    /// Descendant-free label chain (optional interior/trailing
    /// wildcards): driven by the memmem-led fast path.
    FieldChain,
    /// A rare anchor label exists: memmem jumps to its occurrences and
    /// validates locally.
    Selective,
    /// Everything else: the general block-classifying main loop.
    #[default]
    General,
}

impl Route {
    /// All routes, in display order (the label order of
    /// `rsq_route_docs_total`).
    pub const ALL: [Route; 3] = [Route::FieldChain, Route::Selective, Route::General];

    /// Dense index of this route in per-route arrays (`< ALL.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Route::FieldChain => 0,
            Route::Selective => 1,
            Route::General => 2,
        }
    }

    /// Stable machine-readable name, as emitted in `--stats-json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Route::FieldChain => "field_chain",
            Route::Selective => "selective",
            Route::General => "general",
        }
    }

    /// Parses a stable route name (the inverse of [`Route::as_str`]).
    #[must_use]
    pub fn from_str_opt(name: &str) -> Option<Self> {
        match name {
            "field_chain" => Some(Route::FieldChain),
            "selective" => Some(Route::Selective),
            "general" => Some(Route::General),
            _ => None,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Skip events by technique (§3.3 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Leaf-skip decisions: container entries where comma/colon
    /// classification was toggled off because atomic members cannot match.
    pub leaf: u64,
    /// Child skips: subtrees fast-forwarded over on a rejecting
    /// transition.
    pub child: u64,
    /// Sibling skips: fast-forwards to the enclosing object's end after a
    /// unitary label matched.
    pub sibling: u64,
    /// Label seeks: in-element skip-to-label engagements (§4.5).
    pub label: u64,
}

/// Statistics of one engine run — a struct of plain `u64` counters,
/// obtained from `Engine::try_run_with_stats`.
///
/// Counters saturate instead of wrapping, so accumulation can never panic
/// (even under `-C overflow-checks=on`) and merged totals are monotone.
/// Stats from multiple runs (e.g. chunked documents, per-shard runs) can
/// be merged with `+`/`+=`: counters add, [`max_depth`](Self::max_depth)
/// takes the maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// The query-shape route the engine executed (merged reports keep
    /// the first non-[`Route::General`] route seen).
    pub route: Route,
    /// Input bytes processed (document length).
    pub bytes: u64,
    /// 64-byte blocks classified, by classifier kind. A run moves one
    /// cursor over the document, so each block counts once, under the
    /// classifier that pulled it, and the total is at most the number of
    /// 64-byte blocks in the document — except under the unchecked head
    /// start, which restarts the cursor at each composite hit's value.
    pub blocks: BlockStats,
    /// Structural events consumed by the automaton loop.
    pub events: u64,
    /// Structural-table reconfigurations (comma/colon toggle flips).
    pub toggle_flips: u64,
    /// Skip events by technique.
    pub skips: SkipStats,
    /// `memmem` jumps taken — candidates accepted and processed — by the
    /// head start and by the routed walker's member seeks. (The general
    /// loop's within-element seeks count as `skips.label` only.)
    pub memmem_jumps: u64,
    /// `memmem` candidates the head start and the routed walker declined:
    /// a lookalike inside a string, no following colon, a malformed
    /// construct and, in the walker, an occurrence nested below the
    /// container being searched or a value kind that cannot match.
    pub memmem_declined: u64,
    /// Head-start handoffs (§4.5): composite hits whose value the cursor
    /// hands from the quote classifier (or, unchecked, a restart) to the
    /// structural classifier for a sub-run.
    pub resume_handoffs: u64,
    /// Maximum nesting depth reached by the automaton loop (relative to
    /// the element root for head-start sub-runs).
    pub max_depth: u64,
    /// Matches delivered to the sink.
    pub matches: u64,
}

crate::series_rows! {
    /// Every field, once: its `--stats-json` key, its merge rule and its
    /// series. Merged runs share one engine, so routes agree; the route
    /// rule only matters when folding into a default-initialized
    /// accumulator, which must not mask a fast-path route.
    impl RunStats, merged {
        "route" keep(|s| Value::Str(s.route.as_str()), |into, from| if into.route == Route::General { into.route = from.route });
        "bytes" sum(|s| s.bytes) => counter rsq_input_bytes_total "Input bytes processed.";
        "blocks_classified.structural" sum(|s| s.blocks.structural) => counter rsq_blocks_classified_total {classifier="structural"} "SIMD blocks classified, by classifier.";
        "blocks_classified.depth" sum(|s| s.blocks.depth) => counter rsq_blocks_classified_total {classifier="depth"} "SIMD blocks classified, by classifier.";
        "blocks_classified.seek" sum(|s| s.blocks.seek) => counter rsq_blocks_classified_total {classifier="seek"} "SIMD blocks classified, by classifier.";
        "blocks_classified.quote" sum(|s| s.blocks.quote) => counter rsq_blocks_classified_total {classifier="quote"} "SIMD blocks classified, by classifier.";
        "blocks_classified.total" get(|s| s.blocks.total());
        "events" sum(|s| s.events) => counter rsq_events_total "Structural events delivered to the automaton.";
        "toggle_flips" sum(|s| s.toggle_flips);
        "skips.leaf" sum(|s| s.skips.leaf) => counter rsq_skips_total {technique="leaf"} "Skip decisions taken, by technique.";
        "skips.child" sum(|s| s.skips.child) => counter rsq_skips_total {technique="child"} "Skip decisions taken, by technique.";
        "skips.sibling" sum(|s| s.skips.sibling) => counter rsq_skips_total {technique="sibling"} "Skip decisions taken, by technique.";
        "skips.label" sum(|s| s.skips.label) => counter rsq_skips_total {technique="label"} "Skip decisions taken, by technique.";
        "memmem_jumps" sum(|s| s.memmem_jumps) => counter rsq_memmem_jumps_total "Head-start memmem jumps taken.";
        "memmem_declined" sum(|s| s.memmem_declined) => counter rsq_memmem_declined_total "Head-start memmem opportunities declined.";
        "resume_handoffs" sum(|s| s.resume_handoffs);
        "max_depth" max(|s| s.max_depth) => gauge rsq_max_depth "Deepest nesting level observed." late;
        "matches" sum(|s| s.matches) => counter rsq_matches_total "Query matches reported.";
    }
}

impl RunStats {
    /// A zeroed report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Display for RunStats {
    /// Human-readable table (multi-line), for `--stats` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "route              {}", self.route)?;
        writeln!(f, "bytes              {}", self.bytes)?;
        writeln!(
            f,
            "blocks classified  {} (structural {}, depth {}, seek {}, quote {})",
            self.blocks.total(),
            self.blocks.structural,
            self.blocks.depth,
            self.blocks.seek,
            self.blocks.quote
        )?;
        writeln!(f, "structural events  {}", self.events)?;
        writeln!(f, "toggle flips       {}", self.toggle_flips)?;
        writeln!(
            f,
            "skips              leaf {}, child {}, sibling {}, label {}",
            self.skips.leaf, self.skips.child, self.skips.sibling, self.skips.label
        )?;
        writeln!(
            f,
            "memmem jumps       {} taken, {} declined",
            self.memmem_jumps, self.memmem_declined
        )?;
        writeln!(f, "resume handoffs    {}", self.resume_handoffs)?;
        writeln!(f, "max depth          {}", self.max_depth)?;
        write!(f, "matches            {}", self.matches)
    }
}

/// The hot-path recording interface the engine's inner loops are generic
/// over.
///
/// Every method has an empty `#[inline]` default, so a recorder only
/// overrides what it cares about, and the no-op recorder ([`NoStats`])
/// monomorphizes to nothing at all.
pub trait Recorder {
    /// A run over a `bytes`-long document begins (called once per run,
    /// before any limit check, so failed runs count their input too).
    #[inline]
    fn document(&mut self, bytes: usize) {
        let _ = bytes;
    }

    /// One structural event consumed by the automaton loop, at byte
    /// position `pos`.
    #[inline]
    fn event(&mut self, pos: usize) {
        let _ = pos;
    }

    /// One leaf-skip toggle decision (commas/colons disabled for the
    /// current container).
    #[inline]
    fn leaf_skip(&mut self) {}

    /// One child skip (subtree fast-forwarded on a rejecting transition).
    #[inline]
    fn child_skip(&mut self) {}

    /// One sibling skip (fast-forward to the enclosing object's end).
    #[inline]
    fn sibling_skip(&mut self) {}

    /// One label-seek engagement (§4.5 in-element skip-to-label).
    #[inline]
    fn label_seek(&mut self) {}

    /// One `memmem` jump taken (head start, routed walker).
    #[inline]
    fn memmem_jump(&mut self) {}

    /// `n` `memmem` candidates declined (by the head start, one at a
    /// time; by a routed walker's seek, however many it passed over).
    #[inline]
    fn memmem_declines(&mut self, _n: u64) {}

    /// The engine committed to an evaluation route for this run (called
    /// at most once per run, at dispatch; runs that never call it report
    /// the default [`Route::General`]).
    #[inline]
    fn route(&mut self, route: Route) {
        let _ = route;
    }

    /// One head-start handoff: a sub-run starts at a composite hit.
    #[inline]
    fn resume_handoff(&mut self) {}

    /// The automaton loop reached nesting depth `depth`.
    #[inline]
    fn depth(&mut self, depth: u32) {
        let _ = depth;
    }

    /// One match delivered to the sink.
    #[inline]
    fn matched(&mut self) {}

    /// Folds a structural iterator's block counters into the report
    /// (called once per iterator, after its run).
    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        let _ = counters;
    }

    /// Tier C: a skip fast-forward elided the byte range `[from, to)`
    /// for `technique` (no structural events were delivered from it).
    #[inline]
    fn skip_span(&mut self, technique: crate::SkipTechnique, from: usize, to: usize) {
        let _ = (technique, from, to);
    }

    /// Tier C: reads the recorder's monotonic clock, in nanoseconds.
    ///
    /// Non-profiling recorders return 0 without touching a clock, so
    /// the surrounding timing brackets fold away entirely.
    #[inline]
    fn clock(&mut self) -> u64 {
        0
    }

    /// Tier C: closes a timing bracket opened at `start` (a value
    /// previously returned by [`Recorder::clock`]), attributing the
    /// elapsed time to `stage`.
    #[inline]
    fn stage_ns(&mut self, stage: crate::ProfileStage, start: u64) {
        let _ = (stage, start);
    }
}

/// The no-op recorder: all methods are empty and inline away. Running the
/// engine with `NoStats` produces the same machine code as a build
/// without instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoStats;

impl Recorder for NoStats {}

impl Recorder for RunStats {
    #[inline]
    fn document(&mut self, bytes: usize) {
        self.bytes = self.bytes.saturating_add(bytes as u64);
    }

    #[inline]
    fn event(&mut self, _pos: usize) {
        bump(&mut self.events);
    }

    #[inline]
    fn leaf_skip(&mut self) {
        bump(&mut self.skips.leaf);
    }

    #[inline]
    fn child_skip(&mut self) {
        bump(&mut self.skips.child);
    }

    #[inline]
    fn sibling_skip(&mut self) {
        bump(&mut self.skips.sibling);
    }

    #[inline]
    fn label_seek(&mut self) {
        bump(&mut self.skips.label);
    }

    #[inline]
    fn memmem_jump(&mut self) {
        bump(&mut self.memmem_jumps);
    }

    #[inline]
    fn memmem_declines(&mut self, n: u64) {
        self.memmem_declined = self.memmem_declined.saturating_add(n);
    }

    #[inline]
    fn route(&mut self, route: Route) {
        self.route = route;
    }

    #[inline]
    fn resume_handoff(&mut self) {
        bump(&mut self.resume_handoffs);
    }

    #[inline]
    fn depth(&mut self, depth: u32) {
        self.max_depth = self.max_depth.max(u64::from(depth));
    }

    #[inline]
    fn matched(&mut self) {
        bump(&mut self.matches);
    }

    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        self.blocks.structural = self
            .blocks
            .structural
            .saturating_add(counters.blocks_structural);
        self.blocks.depth = self.blocks.depth.saturating_add(counters.blocks_depth);
        self.blocks.seek = self.blocks.seek.saturating_add(counters.blocks_seek);
        self.blocks.quote = self.blocks.quote.saturating_add(counters.blocks_quote);
        self.toggle_flips = self.toggle_flips.saturating_add(counters.toggle_flips);
    }
}
