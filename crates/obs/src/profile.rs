//! Tier C: the profiling recorder — byte-span accounting, stage timers,
//! and report rendering.
//!
//! [`ProfileStats`] wraps a [`RunStats`] and additionally consumes the
//! byte-span and timing hooks of the [`Recorder`] trait: every skip
//! reports the byte range it elided (accumulated into [`SkipBytes`] and
//! an optional [`SkipMap`]), and the engine brackets its pipeline stages
//! with [`Recorder::clock`] / [`Recorder::stage_ns`] pairs (accumulated
//! into [`StageTimes`]).
//!
//! Like Tier A this is pay-for-what-you-use: the hooks have empty
//! `#[inline]` defaults, `NoStats` overrides none of them, and
//! `RunStats` overrides only the counter hooks — so both the
//! uninstrumented path and the `--stats` path monomorphize to code with
//! no clock reads at all. Only a run driven by `ProfileStats` (the CLI's
//! `--profile` flag) reads the monotonic clock.
//!
//! Stage semantics (the classifier and automaton are *fused* in this
//! engine, so the stages overlap rather than partition wall-clock):
//!
//! * `validate` — strict pre-validation pass (disjoint);
//! * `automaton` — the whole matching pass, classification included;
//! * `classify` — the portion of `automaton` spent inside dedicated
//!   classifier fast-forwards (depth skips, label seeks, `memmem`
//!   searches);
//! * `ingest` / `sink` — input acquisition and output writing, recorded
//!   by the CLI driver (disjoint).

use crate::expo::Exposition;
use crate::hist::Histogram;
use crate::series::{self, Value};
use crate::skipmap::{SkipMap, SkipTechnique};
use crate::stats::{ClassifierCounters, Recorder, RunStats};
use std::fmt;
use std::time::Instant;

/// Version of the machine-readable stats JSON schema emitted by the CLI
/// (`--stats-json`, serve postmortems). Bumped when fields change meaning
/// or required fields are added; consumers should reject reports with a
/// different version.
///
/// Version 3 added the `route` field to [`RunStats`] (the query-shape
/// route chosen at compile time, DESIGN.md §15). Version 4 added the
/// hardware-counter layer (DESIGN.md §16): an optional `perf` object
/// (cycles/instructions per byte, per-stage attribution — absent when
/// counters are unavailable), per-route document counters in serve
/// reports, and `start_ns`/`worker`/`route` on pipeline span records.
pub const STATS_SCHEMA_VERSION: u64 = 4;

/// A pipeline stage bracketed by [`Recorder::clock`] /
/// [`Recorder::stage_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileStage {
    /// Input acquisition (CLI driver).
    Ingest,
    /// Strict pre-validation.
    Validate,
    /// Dedicated classifier fast-forwards (subset of `Automaton`).
    Classify,
    /// The whole matching pass (classification fused in).
    Automaton,
    /// Output writing (CLI driver).
    Sink,
}

impl ProfileStage {
    /// All stages, in display order.
    pub const ALL: [ProfileStage; 5] = [
        ProfileStage::Ingest,
        ProfileStage::Validate,
        ProfileStage::Classify,
        ProfileStage::Automaton,
        ProfileStage::Sink,
    ];

    /// Stable lowercase name (JSON key / metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfileStage::Ingest => "ingest",
            ProfileStage::Validate => "validate",
            ProfileStage::Classify => "classify",
            ProfileStage::Automaton => "automaton",
            ProfileStage::Sink => "sink",
        }
    }

    /// Dense index of this stage in per-stage arrays (`< ALL.len()`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ProfileStage::Ingest => 0,
            ProfileStage::Validate => 1,
            ProfileStage::Classify => 2,
            ProfileStage::Automaton => 3,
            ProfileStage::Sink => 4,
        }
    }
}

impl fmt::Display for ProfileStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Nanoseconds accumulated per pipeline stage. Merging is a saturating
/// element-wise add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    ns: [u64; 5],
}

crate::series_rows! {
    /// One row per stage: `<stage>_ns` in JSON, `rsq_stage_ns_total` by
    /// `stage` label.
    #[expect(
        clippy::indexing_slicing,
        reason = "`sum_at` indexes an array by the `index()` of the enum it is sized by"
    )]
    impl StageTimes, merged {
        "ingest_ns" sum_at(|s| s.ns, ProfileStage::Ingest) => counter rsq_stage_ns_total {stage="ingest"} "Wall-clock nanoseconds per pipeline stage.";
        "validate_ns" sum_at(|s| s.ns, ProfileStage::Validate) => counter rsq_stage_ns_total {stage="validate"} "Wall-clock nanoseconds per pipeline stage.";
        "classify_ns" sum_at(|s| s.ns, ProfileStage::Classify) => counter rsq_stage_ns_total {stage="classify"} "Wall-clock nanoseconds per pipeline stage.";
        "automaton_ns" sum_at(|s| s.ns, ProfileStage::Automaton) => counter rsq_stage_ns_total {stage="automaton"} "Wall-clock nanoseconds per pipeline stage.";
        "sink_ns" sum_at(|s| s.ns, ProfileStage::Sink) => counter rsq_stage_ns_total {stage="sink"} "Wall-clock nanoseconds per pipeline stage.";
    }
}

impl StageTimes {
    /// Adds `ns` nanoseconds to `stage`.
    #[inline]
    pub fn add_ns(&mut self, stage: ProfileStage, ns: u64) {
        #[expect(
            clippy::indexing_slicing,
            reason = "ProfileStage::index is < the per-stage array length (one slot per stage)"
        )]
        let slot = &mut self.ns[stage.index()];
        *slot = slot.saturating_add(ns);
    }

    /// Nanoseconds accumulated in `stage`.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "ProfileStage::index is < the per-stage array length (one slot per stage)"
    )]
    pub fn get(&self, stage: ProfileStage) -> u64 {
        self.ns[stage.index()]
    }
}

/// Bytes elided per skipping technique. Merging is a saturating add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipBytes {
    /// Bytes crossed without event delivery while leaf skipping had
    /// commas/colons toggled off.
    pub leaf: u64,
    /// Bytes fast-forwarded over by child skips (subtree spans).
    pub child: u64,
    /// Bytes fast-forwarded over by sibling skips.
    pub sibling: u64,
    /// Bytes absorbed by §4.5 label seeks.
    pub label: u64,
    /// Bytes between head-start sub-runs never structurally classified.
    pub memmem: u64,
    /// Bytes after a fast-path route exhaustion, never classified
    /// (DESIGN.md §15).
    pub exit: u64,
}

crate::series_rows! {
    /// One row per technique (`rsq_bytes_skipped_total` by `technique`
    /// label), plus the JSON-only `total`.
    impl SkipBytes, merged {
        "leaf" sum(|s| s.leaf) => counter rsq_bytes_skipped_total {technique="leaf"} "Bytes elided without event delivery, by technique.";
        "child" sum(|s| s.child) => counter rsq_bytes_skipped_total {technique="child"} "Bytes elided without event delivery, by technique.";
        "sibling" sum(|s| s.sibling) => counter rsq_bytes_skipped_total {technique="sibling"} "Bytes elided without event delivery, by technique.";
        "label" sum(|s| s.label) => counter rsq_bytes_skipped_total {technique="label"} "Bytes elided without event delivery, by technique.";
        "memmem" sum(|s| s.memmem) => counter rsq_bytes_skipped_total {technique="memmem"} "Bytes elided without event delivery, by technique.";
        "exit" sum(|s| s.exit) => counter rsq_bytes_skipped_total {technique="exit"} "Bytes elided without event delivery, by technique.";
        "total" get(|s| s.total());
    }
}

impl SkipBytes {
    /// Bytes for one technique.
    #[must_use]
    pub fn get(&self, technique: SkipTechnique) -> u64 {
        match technique {
            SkipTechnique::Leaf => self.leaf,
            SkipTechnique::Child => self.child,
            SkipTechnique::Sibling => self.sibling,
            SkipTechnique::Label => self.label,
            SkipTechnique::Memmem => self.memmem,
            SkipTechnique::Exit => self.exit,
        }
    }

    /// Total bytes elided across all techniques.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.leaf
            .saturating_add(self.child)
            .saturating_add(self.sibling)
            .saturating_add(self.label)
            .saturating_add(self.memmem)
            .saturating_add(self.exit)
    }
}

/// The Tier C profiling recorder: Tier A counters plus byte-span
/// accounting, stage timers, and an optional skip map.
#[derive(Clone, Debug, Default)]
pub struct ProfileStats {
    /// The Tier A counters of the run.
    pub stats: RunStats,
    /// Bytes elided per technique.
    pub bytes_skipped: SkipBytes,
    /// Wall-clock per pipeline stage.
    pub stages: StageTimes,
    /// Optional document skip map (built by [`ProfileStats::for_document`]).
    pub map: Option<SkipMap>,
    /// Monotonic clock epoch, established lazily on first
    /// [`Recorder::clock`] call.
    epoch: Option<Instant>,
}

crate::series_rows! {
    /// The profile extension (everything beyond the Tier A stats);
    /// `skip_map` only when the profile was built with one.
    impl ProfileStats {
        "bytes_skipped" calc(|p| Value::Json(p.bytes_skipped.to_json()));
        "skip_rate_pct" calc(|p| Value::F64(p.skip_rate_pct(), 2, 2));
        "stages" calc(|p| Value::Json(p.stages.to_json()));
        "skip_map" calc(|p| p.map.as_ref().map_or(Value::Absent, |map| Value::Json(map.to_json())));
    }
}

impl ProfileStats {
    /// An empty profile with no skip map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A profile for one `doc_bytes`-long document, with a
    /// bounded-resolution skip map attached.
    #[must_use]
    pub fn for_document(doc_bytes: usize) -> Self {
        Self {
            map: Some(SkipMap::new(doc_bytes)),
            ..Self::default()
        }
    }

    /// Nanoseconds since the profile's clock epoch (0 before the first
    /// call establishes the epoch).
    #[inline]
    fn now_ns(&mut self) -> u64 {
        match self.epoch {
            Some(epoch) => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => {
                self.epoch = Some(Instant::now());
                0
            }
        }
    }

    /// Adds externally measured time (CLI ingest/sink brackets) to a
    /// stage.
    pub fn add_stage_ns(&mut self, stage: ProfileStage, ns: u64) {
        self.stages.add_ns(stage, ns);
    }

    /// Skip rate: elided bytes as a percentage of document bytes (0 when
    /// the document is empty).
    #[must_use]
    pub fn skip_rate_pct(&self) -> f64 {
        if self.stats.bytes == 0 {
            0.0
        } else {
            self.bytes_skipped.total() as f64 / self.stats.bytes as f64 * 100.0
        }
    }
}

impl fmt::Display for ProfileStats {
    /// Human-readable profile table (multi-line), for `--profile`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.stats)?;
        writeln!(
            f,
            "bytes skipped      {} ({:.2}% of input)",
            self.bytes_skipped.total(),
            self.skip_rate_pct()
        )?;
        for t in SkipTechnique::ALL {
            let bytes = self.bytes_skipped.get(t);
            let pct = if self.stats.bytes == 0 {
                0.0
            } else {
                bytes as f64 / self.stats.bytes as f64 * 100.0
            };
            writeln!(f, "  {:<16} {bytes} ({pct:.2}%)", t.name())?;
        }
        write!(f, "stage times (ns)  ")?;
        for stage in ProfileStage::ALL {
            write!(f, " {} {}", stage.name(), self.stages.get(stage))?;
        }
        if let Some(map) = &self.map {
            writeln!(f)?;
            write!(
                f,
                "skip map           [{}] ({} B/cell)",
                map.render(64),
                map.granularity()
            )?;
        }
        Ok(())
    }
}

impl Recorder for ProfileStats {
    #[inline]
    fn document(&mut self, bytes: usize) {
        self.stats.document(bytes);
    }

    #[inline]
    fn event(&mut self, pos: usize) {
        self.stats.event(pos);
        if let Some(map) = &mut self.map {
            map.mark_event(pos);
        }
    }

    #[inline]
    fn leaf_skip(&mut self) {
        self.stats.leaf_skip();
    }

    #[inline]
    fn child_skip(&mut self) {
        self.stats.child_skip();
    }

    #[inline]
    fn sibling_skip(&mut self) {
        self.stats.sibling_skip();
    }

    #[inline]
    fn label_seek(&mut self) {
        self.stats.label_seek();
    }

    #[inline]
    fn memmem_jump(&mut self) {
        self.stats.memmem_jump();
    }

    #[inline]
    fn memmem_declines(&mut self, n: u64) {
        self.stats.memmem_declines(n);
    }

    #[inline]
    fn route(&mut self, route: crate::Route) {
        self.stats.route(route);
    }

    #[inline]
    fn resume_handoff(&mut self) {
        self.stats.resume_handoff();
    }

    #[inline]
    fn depth(&mut self, depth: u32) {
        self.stats.depth(depth);
    }

    #[inline]
    fn matched(&mut self) {
        self.stats.matched();
    }

    #[inline]
    fn classifier(&mut self, counters: &ClassifierCounters) {
        self.stats.classifier(counters);
    }

    #[inline]
    fn skip_span(&mut self, technique: SkipTechnique, from: usize, to: usize) {
        if to > from {
            let bytes = (to - from) as u64;
            let slot = match technique {
                SkipTechnique::Leaf => &mut self.bytes_skipped.leaf,
                SkipTechnique::Child => &mut self.bytes_skipped.child,
                SkipTechnique::Sibling => &mut self.bytes_skipped.sibling,
                SkipTechnique::Label => &mut self.bytes_skipped.label,
                SkipTechnique::Memmem => &mut self.bytes_skipped.memmem,
                SkipTechnique::Exit => &mut self.bytes_skipped.exit,
            };
            *slot = slot.saturating_add(bytes);
            if let Some(map) = &mut self.map {
                map.mark_span(technique, from, to);
            }
        }
    }

    #[inline]
    fn clock(&mut self) -> u64 {
        self.now_ns()
    }

    #[inline]
    fn stage_ns(&mut self, stage: ProfileStage, start: u64) {
        let elapsed = self.now_ns().saturating_sub(start);
        self.stages.add_ns(stage, elapsed);
    }
}

/// Per-worker accounting of one batch run. Workers report how long they
/// spent running documents (`busy_ns`) versus waiting on the shared
/// queue (`queue_wait_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Nanoseconds spent executing documents.
    pub busy_ns: u64,
    /// Nanoseconds spent in `Feed::claim`: taking the lock, and waiting
    /// for a window that is still being split.
    pub queue_wait_ns: u64,
    /// Documents this worker executed.
    pub documents: u64,
    /// Chunks this worker claimed from the queue.
    pub claims: u64,
}

crate::series_rows! {
    /// The per-worker rows; the exposition labels them `worker="<index>"`.
    impl WorkerProfile {
        "busy_ns" sum(|w| w.busy_ns) => counter rsq_batch_worker_busy_ns_total "Nanoseconds each worker spent running documents.";
        "queue_wait_ns" sum(|w| w.queue_wait_ns) => counter rsq_batch_worker_queue_wait_ns_total "Nanoseconds each worker spent waiting on the queue.";
        "documents" sum(|w| w.documents);
        "claims" sum(|w| w.claims);
    }
}

/// The merged profile of one batch run: aggregate byte spans and stage
/// times, the per-document latency histogram, and per-worker accounting.
#[derive(Clone, Debug, Default)]
pub struct BatchProfile {
    /// Bytes elided per technique, summed over all documents.
    pub bytes_skipped: SkipBytes,
    /// Stage times summed over all documents.
    pub stages: StageTimes,
    /// Per-document end-to-end run latency (nanoseconds).
    pub latency: Histogram,
    /// One entry per worker, in worker-index order.
    pub workers: Vec<WorkerProfile>,
}

crate::series_rows! {
    /// The members of the `profile` object of a batch report; the latency
    /// histogram is the one with a series.
    impl BatchProfile {
        "bytes_skipped" calc(|p| Value::Json(p.bytes_skipped.to_json()));
        "stages" calc(|p| Value::Json(p.stages.to_json()));
        "latency" calc(|p| Value::Histogram(&p.latency)) => gauge rsq_batch_document_latency_ns "Per-document latency quantiles (log2-bucket resolution).";
        "workers" calc(|p| Value::Json(series::to_json_array(WorkerProfile::ROWS, &p.workers)));
    }
}

impl BatchProfile {
    /// Appends the batch-profile series: the latency quantiles, then each
    /// worker's rows under its `worker` label.
    pub fn expose(&self, expo: &mut Exposition) {
        expo.rows(Self::ROWS, self, "");
        for (i, worker) in self.workers.iter().enumerate() {
            expo.rows(WorkerProfile::ROWS, worker, &format!("worker=\"{i}\""));
        }
    }
}

impl fmt::Display for BatchProfile {
    /// Human-readable batch profile summary (multi-line), for `--profile`
    /// in batch mode.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bytes skipped      {} total (leaf {}, child {}, sibling {}, label {}, memmem {}, exit {})",
            self.bytes_skipped.total(),
            self.bytes_skipped.leaf,
            self.bytes_skipped.child,
            self.bytes_skipped.sibling,
            self.bytes_skipped.label,
            self.bytes_skipped.memmem,
            self.bytes_skipped.exit,
        )?;
        writeln!(
            f,
            "doc latency (ns)   p50 {} p90 {} p99 {} max {} over {} documents",
            self.latency.p50(),
            self.latency.p90(),
            self.latency.p99(),
            self.latency.max(),
            self.latency.count(),
        )?;
        for (i, w) in self.workers.iter().enumerate() {
            writeln!(
                f,
                "worker {i:<11} busy {} ns, queue wait {} ns, {} docs in {} claims",
                w.busy_ns, w.queue_wait_ns, w.documents, w.claims
            )?;
        }
        write!(f, "stage times (ns)  ")?;
        for stage in ProfileStage::ALL {
            write!(f, " {} {}", stage.name(), self.stages.get(stage))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_span_accumulates_and_marks_map() {
        let mut p = ProfileStats::for_document(4096);
        p.skip_span(SkipTechnique::Child, 0, 640);
        p.skip_span(SkipTechnique::Child, 1024, 1088);
        assert_eq!(p.bytes_skipped.child, 704);
        assert_eq!(p.bytes_skipped.total(), 704);
        let map = p.map.as_ref().unwrap();
        assert_eq!(map.covered_bytes(SkipTechnique::Child), 704);
    }

    #[test]
    fn empty_span_is_ignored() {
        let mut p = ProfileStats::new();
        p.skip_span(SkipTechnique::Leaf, 100, 100);
        p.skip_span(SkipTechnique::Leaf, 100, 50);
        assert_eq!(p.bytes_skipped.total(), 0);
    }

    #[test]
    fn clock_is_monotone_and_stage_accumulates() {
        let mut p = ProfileStats::new();
        let t0 = p.clock();
        let t1 = p.clock();
        assert!(t1 >= t0);
        p.stage_ns(ProfileStage::Automaton, t0);
        // Elapsed since t0 is nonnegative; a later bracket adds on top.
        let before = p.stages.get(ProfileStage::Automaton);
        let t = p.clock();
        p.stage_ns(ProfileStage::Automaton, t);
        assert!(p.stages.get(ProfileStage::Automaton) >= before);
    }

    #[test]
    fn skip_rate_is_relative_to_bytes() {
        let mut p = ProfileStats::for_document(1000);
        p.document(1000);
        p.skip_span(SkipTechnique::Memmem, 0, 250);
        assert!((p.skip_rate_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn profile_json_has_stable_keys() {
        let p = ProfileStats::for_document(64);
        let json = p.to_json();
        for key in [
            "\"bytes_skipped\":",
            "\"skip_rate_pct\":",
            "\"stages\":",
            "\"skip_map\":",
            "\"automaton_ns\":",
            "\"total\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn batch_profile_json_lists_workers() {
        let bp = BatchProfile {
            workers: vec![WorkerProfile::default(), WorkerProfile::default()],
            ..BatchProfile::default()
        };
        let json = bp.to_json();
        assert!(json.contains("\"workers\":[{"), "{json}");
        assert_eq!(json.matches("\"busy_ns\":").count(), 2, "{json}");
    }
}
