//! Tier C: the profiling recorder — byte-span accounting, stage timers,
//! and report rendering.
//!
//! [`ProfileStats`] wraps a [`RunStats`] and additionally consumes the
//! byte-span and timing hooks of the [`Recorder`] trait: every skip
//! reports the byte range it elided (accumulated into [`SkipBytes`]), and
//! the engine brackets its pipeline stages with [`Recorder::clock`] /
//! [`Recorder::stage_ns`] pairs (accumulated into [`StageTimes`]).
//!
//! Like Tier A this is pay-for-what-you-use: the hooks have empty
//! `#[inline]` defaults, `NoStats` overrides none of them, and
//! `RunStats` overrides only the counter hooks — so both the
//! uninstrumented path and the `--stats` path monomorphize to code with
//! no clock reads at all. Only a run driven by `ProfileStats` (the CLI's
//! `--profile` flag) reads the monotonic clock.
//!
//! Stages are timed whole, never per skip: a run reads the clock once per
//! bracket, however many fast-forwards it takes, and no bracket nests in
//! another, so the stages partition the run and their sum cannot exceed
//! its wall time. The classifier and automaton are *fused* in this
//! engine, so classification has no stage of its own; what each skip
//! technique elided is counted in bytes ([`SkipBytes`]).
//!
//! * `ingest` — input acquisition, recorded by the CLI driver;
//! * `validate` — the strict pre-validation pass;
//! * `automaton` — the whole matching pass, classification included;
//! * `sink` — output writing, recorded by the CLI driver.

use crate::expo::Exposition;
use crate::hist::Histogram;
use crate::series::{self, Value};
use crate::stats::{ClassifierCounters, Recorder, RunStats};
use std::fmt;
use std::time::Instant;

/// Version of the machine-readable stats JSON schema emitted by the CLI
/// (`--stats-json`). Bumped when fields change meaning
/// or required fields are added; consumers should reject reports with a
/// different version.
///
/// Version 3 added the `route` field to [`RunStats`] (the query-shape
/// route chosen at compile time, DESIGN.md §15). Version 4 added an
/// optional hardware-counter `perf` object and per-route document
/// counters in serve reports. Version 5 removed the profile's `skip_map`
/// object and `stages.classify_ns`. Version 7 removed the `perf` object:
/// instruction counts are taken outside the product (DESIGN.md §16).
pub const STATS_SCHEMA_VERSION: u64 = 7;

/// The skipping technique that elided a byte range (§3.3 plus the
/// `memmem` head start of §4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipTechnique {
    /// Leaf skipping: commas/colons toggled off, atomic members crossed
    /// without event delivery.
    Leaf,
    /// Child skipping: a subtree fast-forwarded on a rejecting
    /// transition.
    Child,
    /// Sibling skipping: fast-forward to the enclosing object's end.
    Sibling,
    /// Skip-to-label: the §4.5 in-element label seek.
    Label,
    /// `memmem` head start: inter-candidate regions never structurally
    /// classified.
    Memmem,
    /// Route exhaustion (DESIGN.md §15): the fast-path walker proved
    /// nothing further in the document can match and stopped; the rest
    /// was never classified.
    Exit,
}

impl SkipTechnique {
    /// All techniques, in display order.
    pub const ALL: [SkipTechnique; 6] = [
        SkipTechnique::Leaf,
        SkipTechnique::Child,
        SkipTechnique::Sibling,
        SkipTechnique::Label,
        SkipTechnique::Memmem,
        SkipTechnique::Exit,
    ];

    /// Stable lowercase name (used as a JSON key and metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SkipTechnique::Leaf => "leaf",
            SkipTechnique::Child => "child",
            SkipTechnique::Sibling => "sibling",
            SkipTechnique::Label => "label",
            SkipTechnique::Memmem => "memmem",
            SkipTechnique::Exit => "exit",
        }
    }
}

/// A pipeline stage bracketed by [`Recorder::clock`] /
/// [`Recorder::stage_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileStage {
    /// Input acquisition (CLI driver).
    Ingest,
    /// Strict pre-validation.
    Validate,
    /// The whole matching pass (classification fused in).
    Automaton,
    /// Output writing (CLI driver).
    Sink,
}

impl ProfileStage {
    /// All stages, in display order.
    pub const ALL: [ProfileStage; 4] = [
        ProfileStage::Ingest,
        ProfileStage::Validate,
        ProfileStage::Automaton,
        ProfileStage::Sink,
    ];

    /// Stable lowercase name (JSON key / metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfileStage::Ingest => "ingest",
            ProfileStage::Validate => "validate",
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
            ProfileStage::Automaton => 2,
            ProfileStage::Sink => 3,
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
    ns: [u64; 4],
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
/// accounting and stage timers.
#[derive(Clone, Debug, Default)]
pub struct ProfileStats {
    /// The Tier A counters of the run.
    pub stats: RunStats,
    /// Bytes elided per technique.
    pub bytes_skipped: SkipBytes,
    /// Wall-clock per pipeline stage.
    pub stages: StageTimes,
    /// Monotonic clock epoch, established lazily on first
    /// [`Recorder::clock`] call.
    epoch: Option<Instant>,
}

crate::series_rows! {
    /// The profile extension (everything beyond the Tier A stats).
    impl ProfileStats {
        "bytes_skipped" calc(|p| Value::Json(p.bytes_skipped.to_json()));
        "skip_rate_pct" calc(|p| Value::F64(p.skip_rate_pct(), 2, 2));
        "stages" calc(|p| Value::Json(p.stages.to_json()));
    }
}

impl ProfileStats {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
    fn skip_span_accumulates_per_technique() {
        let mut p = ProfileStats::new();
        p.skip_span(SkipTechnique::Child, 0, 640);
        p.skip_span(SkipTechnique::Child, 1024, 1088);
        p.skip_span(SkipTechnique::Label, 2000, 2010);
        assert_eq!(p.bytes_skipped.child, 704);
        assert_eq!(p.bytes_skipped.get(SkipTechnique::Label), 10);
        assert_eq!(p.bytes_skipped.total(), 714);
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
        let mut p = ProfileStats::new();
        p.document(1000);
        p.skip_span(SkipTechnique::Memmem, 0, 250);
        assert!((p.skip_rate_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn profile_json_has_stable_keys() {
        let p = ProfileStats::new();
        let json = p.to_json();
        for key in [
            "\"bytes_skipped\":",
            "\"skip_rate_pct\":",
            "\"stages\":",
            "\"automaton_ns\":",
            "\"total\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(!json.contains("classify"), "{json}");
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
