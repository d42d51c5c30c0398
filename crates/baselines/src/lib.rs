//! Baseline JSONPath engines for the `rsq` evaluation (§5.2 of the paper).
//!
//! Three independent implementations, each playing the role of one of the
//! paper's competitors or of the correctness oracle:
//!
//! * [`evaluate`] / [`positions`] — a naive DOM evaluator implementing the
//!   formal semantics of §2 under both **node** and **path** semantics
//!   ([`Semantics`]); the oracle every streaming engine is differentially
//!   tested against, and the reproduction of the Appendix D comparison.
//! * [`SurferEngine`] — a scalar streaming engine in the architecture of
//!   JsonSurfer: byte-at-a-time lexing, a full per-container state stack,
//!   no SIMD, no skipping. Supports the full query fragment.
//! * [`SkiEngine`] — a descendant-free fast-forwarding engine in the
//!   execution model of JSONSki, including its array-only wildcard
//!   assumption and its need to scan atomic values when the final selector
//!   is a label (the B2-vs-B3 asymmetry of §5.4).
//!
//! The original JsonSurfer (Java) and JSONSki (C++) are not redistributable
//! inside this repository; these stand-ins replicate their *algorithmic*
//! behaviour so that the paper's experiments can be regenerated. See
//! `DESIGN.md` for the substitution rationale.

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

mod reference;
mod ski;
mod surfer;

pub use reference::{count, evaluate, positions, Semantics};
pub use ski::{SkiEngine, UnsupportedQuery};
pub use surfer::SurferEngine;
