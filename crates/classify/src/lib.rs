//! Vectorised classification pipeline for streamed JSON (§4 of
//! *Supporting Descendants in SIMD-Accelerated JSONPath*, ASPLOS 2023).
//!
//! The pipeline turns a raw JSON byte stream into the sparse sequence of
//! events the query engine actually cares about:
//!
//! * the [quote classifier](quotes) marks characters inside strings,
//!   handling escapes with add-carry propagation and prefix-XOR (§4.2);
//! * the [structural classifier](StructuralTables) locates `{ } [ ] : ,`
//!   outside strings with the paper's nibble-lookup tables, and can toggle
//!   commas and colons on and off by XOR-ing the upper lookup table (§4.1);
//! * the [depth classifier](StructuralIterator::skip_past_close) tracks
//!   only one bracket pair and fast-forwards to the end of the current
//!   element, skipping whole blocks whenever a block holds fewer closers
//!   than the current relative depth (§4.4);
//! * the [label seek](StructuralIterator::seek) pairs SIMD substring search
//!   with that depth scan to fast-forward to a member by name, within the
//!   current object or subtree or anywhere in the rest of the document
//!   (§3.3, §4.5);
//! * the [`StructuralIterator`] stitches these into the `next`/`peek`/
//!   `label_before`/`toggle`/`skip`/`seek` interface consumed by the
//!   engine (§3.4). All of them move one block cursor, so a run
//!   quote-classifies each block once, whichever classifier the stream is
//!   stopped and resumed in (the multi-classifier pipeline, §4.5);
//! * [`LineScanner`] reuses the quote classifier outside the engine: the
//!   per-block mask of newlines outside strings that the NDJSON drivers
//!   split and frame documents with.
//!
//! Every classifier is generic over the [`rsq_simd::Backend`] its kernels
//! come from. With the run-time [`rsq_simd::Simd`] handle (the default
//! type parameter) each primitive is a `match` and a kernel call; inside a
//! dispatched pass ([`rsq_simd::Simd::dispatch`] — the engine makes one
//! per run, [`StructuralValidator::feed`] and [`LineScanner::scan_lines`]
//! one per chunk) the backend is static and the classifiers, all
//! `#[inline(always)]`, compile into the pass with its instruction set.
//!
//! See the [`StructuralIterator`] example for typical usage.

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

mod depth;
mod iterator;
mod pipeline;
pub mod quotes;
mod seek;
mod stream;
mod structural;
mod validate;

pub use iterator::{BracketType, LookBack, Structural, StructuralIterator};
pub use pipeline::{LineScanner, QuoteScan};
// The per-classifier block counters live in `rsq-obs` (the dependency-free
// observability layer); re-exported so classifier consumers need not name
// that crate.
pub use quotes::{classify_quotes, QuoteClassification, QuoteState};
pub use rsq_obs::ClassifierCounters;
pub use seek::{LabelSeeker, Member, Seek, SeekScope};
pub use stream::{Pages, Refill, Source};
pub use structural::StructuralTables;
pub use validate::{StructuralValidator, ValidationError, ValidationErrorKind};
