//! # rsq — SIMD-accelerated streaming JSONPath with descendants
//!
//! A from-scratch Rust reproduction of *Supporting Descendants in
//! SIMD-Accelerated JSONPath* (Gienieczko, Murlak, Paperman — ASPLOS
//! 2023), the paper behind the `rsonpath` engine.
//!
//! `rsq` evaluates JSONPath queries with child (`.ℓ`), wildcard (`.*`),
//! and descendant (`..ℓ`) selectors over raw JSON bytes in a single
//! streaming pass — no DOM, memory linear in document depth — while
//! fast-forwarding over irrelevant input with SIMD classification:
//!
//! ```
//! use rsq::Engine;
//!
//! let engine = Engine::from_text("$..affiliation..name")?;
//! let document = br#"{
//!     "items": [
//!         {"author": [{"name": "Ada", "affiliation": [{"name": "ETH"}]}]},
//!         {"author": [{"name": "Alan", "affiliation": []}]}
//!     ]
//! }"#;
//! assert_eq!(engine.count(document), 1);
//! # Ok::<(), rsq::EngineError>(())
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role (paper section) |
//! |---|---|
//! | [`simd`] | nibble-lookup byte classification, masks, prefix-XOR (§4.1) |
//! | [`classify`] | quote/structural/depth classifiers, structural iterator, pipeline (§4.2–4.5) |
//! | [`query`] | JSONPath parser, NFA → minimal DFA, state properties (§3.1) |
//! | [`engine`] | depth-stack main loop, four skipping techniques (§3.2–3.4) |
//! | [`stackvec`] | inline-first vector backing the depth-stack (§3.2) |
//! | [`memmem`] | SIMD substring search for skip-to-label (§3.3) |
//! | [`json`] | DOM parser/serializer/stats substrate for the oracle |
//! | [`baselines`] | reference oracle (node & path semantics), JsonSurfer- and JSONSki-style engines (§5.2) |
//! | [`datagen`] | synthetic Table 3 datasets + the Appendix C query catalog |
//!
//! The most common entry points are re-exported at the root:
//! [`Engine`], [`EngineOptions`], [`Query`], [`Automaton`], and the sinks.

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

pub use rsq_baselines as baselines;
pub use rsq_classify as classify;
pub use rsq_datagen as datagen;
pub use rsq_engine as engine;
pub use rsq_json as json;
pub use rsq_memmem as memmem;
pub use rsq_query as query;
pub use rsq_simd as simd;
pub use rsq_stackvec as stackvec;

pub use rsq_engine::{
    CountSink, Engine, EngineError, EngineOptions, LimitKind, PositionsSink, RunError, Sink,
    SinkFull, ValidationError, ValidationErrorKind,
};
pub use rsq_query::{Automaton, Query, Selector};

/// Extracts the full text of the matched node starting at `pos`.
///
/// The engine reports byte offsets; this helper scans forward from one to
/// find the end of the matched value (balanced brackets for containers,
/// token end for atoms) and returns its text.
///
/// Returns `None` if `pos` does not start a JSON value (only possible on
/// malformed documents).
///
/// # Examples
///
/// ```
/// use rsq::{node_text, Engine};
///
/// let doc = br#"{"a": {"deep": [1, 2]}}"#;
/// let engine = Engine::from_text("$..deep")?;
/// let texts: Vec<&str> = engine
///     .positions(doc)
///     .into_iter()
///     .filter_map(|p| node_text(doc, p))
///     .collect();
/// assert_eq!(texts, ["[1, 2]"]);
/// # Ok::<(), rsq::EngineError>(())
/// ```
#[must_use]
pub fn node_text(document: &[u8], pos: usize) -> Option<&str> {
    let bytes = document.get(pos..)?;
    let end = match bytes.first()? {
        b'{' | b'[' => {
            let open = bytes[0];
            let close = if open == b'{' { b'}' } else { b']' };
            let mut depth = 0usize;
            let mut in_string = false;
            let mut escaped = false;
            let mut end = None;
            for (i, &b) in bytes.iter().enumerate() {
                if in_string {
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == b'"' {
                        in_string = false;
                    }
                    continue;
                }
                match b {
                    b'"' => in_string = true,
                    _ if b == open => depth += 1,
                    _ if b == close => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end?
        }
        b'"' => {
            let mut escaped = false;
            let mut end = None;
            for (i, &b) in bytes.iter().enumerate().skip(1) {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    end = Some(i + 1);
                    break;
                }
            }
            end?
        }
        _ => bytes
            .iter()
            .position(|&b| matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(bytes.len()),
    };
    std::str::from_utf8(&bytes[..end]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_text_atoms() {
        assert_eq!(node_text(b"42,", 0), Some("42"));
        assert_eq!(node_text(b"true}", 0), Some("true"));
        assert_eq!(node_text(br#""x\"y" ,"#, 0), Some(r#""x\"y""#));
        assert_eq!(node_text(b"12.5e3", 0), Some("12.5e3"));
    }

    #[test]
    fn node_text_containers() {
        let doc = br#"{"a": [1, {"b": "}"}]}"#;
        assert_eq!(node_text(doc, 0), Some(r#"{"a": [1, {"b": "}"}]}"#));
        assert_eq!(node_text(doc, 6), Some(r#"[1, {"b": "}"}]"#));
    }

    #[test]
    fn node_text_out_of_bounds() {
        assert_eq!(node_text(b"{}", 10), None);
        assert_eq!(node_text(b"{", 0), None);
    }
}
