//! Zero-overhead observability for the `rsq` engine.
//!
//! The paper's entire contribution is *where time goes* — which of the
//! four skipping techniques fires, how many blocks each classifier
//! touches, how often the `memmem` head start pays off. This crate makes
//! that visible without slowing the hot path down, in two tiers (lettered
//! A and C; `DESIGN.md` §8 has why there is no B):
//!
//! * **Tier A (always compiled, ~zero cost):** [`RunStats`], a struct of
//!   plain `u64` counters, filled in through the [`Recorder`] trait. The
//!   engine's inner loops are generic over a `Recorder`; the default
//!   [`NoStats`] recorder has empty inlined methods, so the non-observed
//!   path monomorphizes to exactly the code it had before this crate
//!   existed. Counter updates are saturating — they can never panic, even
//!   under `-C overflow-checks=on`.
//!
//! * **Tier C (always compiled, pay-per-use):** the profiling layer
//!   ([`ProfileStats`]) — per-technique byte-span accounting
//!   ([`SkipBytes`], [`SkipMap`]), monomorphized stage timers
//!   ([`StageTimes`]), and a log2-bucketed latency [`Histogram`]. The
//!   hooks are further defaulted `Recorder` methods, so `NoStats` *and*
//!   `RunStats` runs still compile to clock-free code; only a run
//!   driven by `ProfileStats` (the CLI's `--profile`) reads the clock.
//!
//! On top of the tiers sits the **live-telemetry layer** consumed by
//! serve mode's scrape endpoint: rolling-window aggregation
//! ([`WindowRing`]), per-document pipeline spans ([`DocSpan`] /
//! [`SpanRecord`]), and the per-worker fault flight recorder
//! ([`FlightRecorder`]). All of it follows the same discipline: no
//! clock reads and no ring writes unless telemetry is enabled.
//!
//! Every reported value of every counter set is declared once, as a row
//! of the **series registry** ([`series`]); `--stats-json`, the
//! Prometheus text exposition ([`expo`]) and `+=` are rendered from the
//! rows.
//!
//! This crate is dependency-free by design: every crate in the workspace
//! (including `rsq-classify`, which sits below the engine) can depend on
//! it without cycles.

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

mod batch;
pub mod expo;
mod flightrec;
mod hist;
mod profile;
pub mod series;
mod serve;
mod skipmap;
mod span;
mod stats;
mod timeline;
mod window;

pub use batch::BatchCounters;
pub use flightrec::{FlightRecorder, DEFAULT_FLIGHT_WINDOW};
pub use hist::Histogram;
pub use profile::{
    BatchProfile, ProfileStage, ProfileStats, SkipBytes, StageTimes, WorkerProfile,
    STATS_SCHEMA_VERSION,
};
pub use serve::ServeCounters;
pub use skipmap::{SkipMap, SkipTechnique};
pub use span::{DocSpan, SpanRecord, Stopwatch};
pub use stats::{BlockStats, ClassifierCounters, NoStats, Recorder, Route, RunStats, SkipStats};
pub use timeline::chrome_trace_json;
pub use window::{TelemetryGauges, WindowRing, WindowSnapshot};
