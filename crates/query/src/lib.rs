//! JSONPath query parsing and automaton compilation for `rsq`.
//!
//! Implements §3.1 of *Supporting Descendants in SIMD-Accelerated JSONPath*
//! (ASPLOS 2023). The supported fragment is
//!
//! ```text
//! e ::= $ | e.ℓ | e.* | e..ℓ | e..* | e[n] | e..[n]
//! ```
//!
//! with the usual bracket alternatives (`['ℓ']`, `["ℓ"]`, `[*]`). The
//! descendant wildcard `..*` and the array-index selectors `[n]` / `..[n]`
//! are extensions beyond the paper's grammar — the latter implement the
//! array-indexing support the paper names as future work in §6; everything
//! else follows the paper exactly.
//!
//! A parsed [`Query`] is compiled by [`Automaton::compile`] into a minimal
//! deterministic finite automaton over label words:
//!
//! 1. the query becomes an NFA whose states correspond to selectors, with
//!    *recursive* (self-looping) states for descendant selectors;
//! 2. subset determinization exploits the **greedy match property** (once a
//!    recursive state is reached, all earlier states can be forgotten —
//!    sound under node semantics only), which keeps the subsets small and
//!    produces the per-segment component structure described in the paper;
//! 3. Moore partition refinement minimizes the DFA;
//! 4. the state properties driving the engine's skipping decisions are
//!    precomputed: *accepting*, *rejecting* (trash), *internal*, *unitary*,
//!    and *waiting* states (§3.3).
//!
//! # Examples
//!
//! ```
//! use rsq_query::{Automaton, Query};
//!
//! let query = Query::parse("$.a..b.*")?;
//! let automaton = Automaton::compile(&query)?;
//! let s0 = automaton.initial_state();
//! let s1 = automaton.transition(s0, rsq_query::PathSymbol::Label(b"a"));
//! let s2 = automaton.transition(s1, rsq_query::PathSymbol::Label(b"b"));
//! let s3 = automaton.transition(s2, rsq_query::PathSymbol::Label(b"anything"));
//! assert!(automaton.is_accepting(s3));
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

mod automaton;
mod nfa;
mod parser;
mod route;

pub use automaton::{Automaton, CompileError, PathSymbol, StateId};
pub use parser::{ParseErrorKind, Query, QueryParseError, Selector};
pub use route::{PlanStep, Route, RoutePlan};
