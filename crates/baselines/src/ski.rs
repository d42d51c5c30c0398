//! A descendant-free fast-forwarding engine — the JSONSki stand-in.
//!
//! JSONSki (ASPLOS 2022; the paper's main SIMD competitor, §5.2) supports
//! JSONPath without descendants and with a *non-idiomatic* wildcard that
//! steps into every entry of an array but **not** into the fields of an
//! object. It relies on knowing whether each selector acts on objects or
//! arrays — the very assumption the paper shows blocks descendant support.
//!
//! This module reimplements that execution model on top of the shared
//! classifier substrate (JSONSki has equivalent bit-parallel primitives of
//! its own; sharing ours compares algorithms, not SIMD plumbing):
//!
//! * recursive descent over the selectors — no query automaton;
//! * wildcard selectors skip objects outright (the array-only assumption);
//! * label selectors skip the remaining siblings once their key is found;
//! * a **final label selector** must also match atomic member values, so
//!   colons stay enabled while scanning for it — this reproduces JSONSki
//!   being ≈3× slower on B3 than on B2 (§5.4);
//! * a non-final label selector only inspects composite values, keeping
//!   leaf skipping fully enabled.

use rsq_classify::{BracketType, Structural, StructuralIterator};
use rsq_engine::Sink;
use rsq_query::{Query, Selector};
use rsq_simd::{Backend, Simd, Task};
use std::fmt;

/// Error: the query uses features JSONSki does not support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedQuery {
    /// The offending selector, displayed.
    pub selector: String,
}

impl fmt::Display for UnsupportedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the JSONSki baseline does not support selector '{}' (descendants are unsupported)",
            self.selector
        )
    }
}

impl std::error::Error for UnsupportedQuery {}

#[derive(Clone, Debug)]
enum SkiSelector {
    Label(Vec<u8>),
    Wildcard,
    Index(u64),
}

/// The descendant-free fast-forwarding baseline engine.
///
/// # Examples
///
/// ```
/// use rsq_baselines::SkiEngine;
///
/// let engine = SkiEngine::from_text("$.items.*.name").unwrap();
/// let doc = br#"{"items": [{"name": "a"}, {"name": "b"}]}"#;
/// assert_eq!(engine.count(doc), 2);
///
/// // Descendants are rejected, as in JSONSki.
/// assert!(SkiEngine::from_text("$..name").is_err());
/// ```
#[derive(Clone, Debug)]
pub struct SkiEngine {
    selectors: Vec<SkiSelector>,
    simd: Simd,
}

impl SkiEngine {
    /// Compiles the engine from query text.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedQuery`] for queries with descendant selectors
    /// (boxed together with parse errors).
    pub fn from_text(query: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let query = Query::parse(query)?;
        Ok(Self::from_query(&query)?)
    }

    /// Compiles the engine from a parsed query.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedQuery`] for queries with descendant selectors.
    pub fn from_query(query: &Query) -> Result<Self, UnsupportedQuery> {
        let selectors = query
            .selectors()
            .iter()
            .map(|s| match s {
                Selector::Child(l) => Ok(SkiSelector::Label(l.as_bytes().to_vec())),
                Selector::ChildWildcard => Ok(SkiSelector::Wildcard),
                // JSONSki supports array indexing natively.
                Selector::Index(n) => Ok(SkiSelector::Index(*n)),
                other => Err(UnsupportedQuery {
                    selector: other.to_string(),
                }),
            })
            .collect::<Result<_, _>>()?;
        Ok(SkiEngine {
            selectors,
            simd: Simd::detect(),
        })
    }

    /// Streams `input`, reporting matches to `sink`: one backend
    /// dispatch per run, as [`rsq_engine::Engine`] does, so the whole
    /// descent is compiled once per instruction set.
    pub fn run<S: Sink>(&self, input: &[u8], sink: &mut S) {
        self.simd.dispatch(SkiRun {
            engine: self,
            input,
            sink,
        });
    }

    /// Counts matches in `input`.
    #[must_use]
    pub fn count(&self, input: &[u8]) -> u64 {
        let mut sink = rsq_engine::CountSink::new();
        self.run(input, &mut sink);
        sink.count()
    }

    /// The recursive descent over the selectors, on `backend`. Frame
    /// `idx` searches the element just opened for `selectors[idx]`, and
    /// the frames under it wait for their child to close; the descent is
    /// a loop over `idx` so that all of it inlines into the backend's
    /// entry.
    #[inline(always)]
    fn run_on<B: Backend, S: Sink>(&self, backend: B, input: &[u8], sink: &mut S) {
        let mut it = StructuralIterator::new(input, backend);
        let bracket = match it.next() {
            Some(Structural::Opening(bracket, pos)) => {
                if self.selectors.is_empty() {
                    sink.report(pos);
                    return;
                }
                bracket
            }
            Some(_) => return,
            None => {
                if self.selectors.is_empty() {
                    if let Some(v) = input.iter().position(|b| !b.is_ascii_whitespace()) {
                        sink.report(v);
                    }
                }
                return;
            }
        };
        let mut idx = 0;
        let mut scan = self.enter(&mut it, idx, bracket, sink);
        loop {
            scan = match scan {
                Scan::Descend(bracket) => {
                    idx += 1;
                    self.enter(&mut it, idx, bracket, sink)
                }
                Scan::Done => {
                    let Some(parent) = idx.checked_sub(1) else {
                        return;
                    };
                    idx = parent;
                    match self.selectors[idx] {
                        // Sibling skipping: keys do not repeat, and an
                        // index names one entry.
                        SkiSelector::Label(_) => {
                            skip_element(&mut it, BracketType::Brace);
                            Scan::Done
                        }
                        SkiSelector::Index(_) => {
                            skip_element(&mut it, BracketType::Bracket);
                            Scan::Done
                        }
                        SkiSelector::Wildcard => {
                            it.set_toggles(false, false);
                            wildcard_entries(&mut it, false, sink)
                        }
                    }
                }
            };
        }
    }

    /// Opens frame `idx` on the element whose opening character has just
    /// been consumed and scans it for `selectors[idx]`, until a child to
    /// descend into opens or the element has been consumed through its
    /// closing character.
    #[inline(always)]
    fn enter<B: Backend, S: Sink>(
        &self,
        it: &mut StructuralIterator<'_, B>,
        idx: usize,
        bracket: BracketType,
        sink: &mut S,
    ) -> Scan {
        let last = idx + 1 == self.selectors.len();
        match (&self.selectors[idx], bracket) {
            // JSONSki's array-only wildcard: objects under a wildcard or an
            // index selector are skipped wholesale, as are arrays under a
            // label selector (array entries have no labels).
            (SkiSelector::Wildcard, BracketType::Brace)
            | (SkiSelector::Index(_), BracketType::Brace)
            | (SkiSelector::Label(_), BracketType::Bracket) => {
                skip_element(it, bracket);
                Scan::Done
            }
            (SkiSelector::Label(label), BracketType::Brace) => {
                it.set_toggles(false, last);
                while let Some(event) = it.next() {
                    match event {
                        Structural::Opening(b, pos) => {
                            if it.label_before(pos) == Some(label.as_slice()) {
                                if !last {
                                    return Scan::Descend(b);
                                }
                                sink.report(pos);
                                it.skip_past_close(b);
                                skip_element(it, BracketType::Brace);
                                return Scan::Done;
                            }
                            it.skip_past_close(b);
                        }
                        Structural::Colon(pos) => {
                            // Only reachable when `last`: atomic values of
                            // the target key (composite values are handled
                            // at their Opening).
                            let Some(v) = value_start(it.input(), pos) else {
                                continue;
                            };
                            if it.label_before(pos) == Some(label.as_slice()) {
                                sink.report(v);
                                skip_element(it, BracketType::Brace);
                                return Scan::Done;
                            }
                        }
                        Structural::Closing(..) => return Scan::Done,
                        Structural::Comma(_) => {}
                    }
                }
                Scan::Done
            }
            (SkiSelector::Index(n), BracketType::Bracket) => {
                let n = *n;
                // Commas must be observed to count entries.
                it.set_toggles(true, false);
                let mut entry = 0u64;
                if n == 0 && last {
                    // An atomic first entry is not preceded by a comma.
                    if let Some(v) = value_start(it.input(), it.position() - 1) {
                        sink.report(v);
                        skip_element(it, BracketType::Bracket);
                        return Scan::Done;
                    }
                }
                while let Some(event) = it.next() {
                    match event {
                        Structural::Opening(b, pos) => {
                            if entry == n {
                                if !last {
                                    return Scan::Descend(b);
                                }
                                sink.report(pos);
                                it.skip_past_close(b);
                                skip_element(it, BracketType::Bracket);
                                return Scan::Done;
                            }
                            it.skip_past_close(b);
                        }
                        Structural::Comma(pos) => {
                            entry += 1;
                            if entry == n && last {
                                if let Some(v) = value_start(it.input(), pos) {
                                    sink.report(v);
                                    skip_element(it, BracketType::Bracket);
                                    return Scan::Done;
                                }
                            } else if entry > n {
                                // The target entry was atomic and a deeper
                                // selector remains: it cannot match.
                                skip_element(it, BracketType::Bracket);
                                return Scan::Done;
                            }
                        }
                        Structural::Closing(..) => return Scan::Done,
                        Structural::Colon(_) => {}
                    }
                }
                Scan::Done
            }
            (SkiSelector::Wildcard, BracketType::Bracket) => {
                it.set_toggles(last, false);
                if last {
                    // The first entry is not preceded by a comma; match it
                    // here if atomic.
                    if let Some(v) = value_start(it.input(), it.position() - 1) {
                        sink.report(v);
                    }
                }
                wildcard_entries(it, last, sink)
            }
        }
    }
}

/// How a frame's scan ended.
enum Scan {
    /// A child matching a non-final selector opened: descend into it.
    Descend(BracketType),
    /// The frame's element was consumed through its closing character.
    Done,
}

/// One [`SkiEngine`] run as the [`Task`] [`SkiEngine::run`] dispatches.
struct SkiRun<'r, S> {
    engine: &'r SkiEngine,
    input: &'r [u8],
    sink: &'r mut S,
}

impl<S: Sink> Task for SkiRun<'_, S> {
    type Output = ();

    #[inline(always)]
    fn run<B: Backend>(self, backend: B) {
        self.engine.run_on(backend, self.input, self.sink);
    }
}

/// Scans an array's entries under a wildcard: every entry matches when
/// the wildcard is the last selector, and an opening child is descended
/// into otherwise.
#[inline(always)]
fn wildcard_entries<B: Backend, S: Sink>(
    it: &mut StructuralIterator<'_, B>,
    last: bool,
    sink: &mut S,
) -> Scan {
    while let Some(event) = it.next() {
        match event {
            Structural::Opening(b, pos) => {
                if !last {
                    return Scan::Descend(b);
                }
                sink.report(pos);
                it.skip_past_close(b);
            }
            Structural::Comma(pos) => {
                if last {
                    if let Some(v) = value_start(it.input(), pos) {
                        sink.report(v);
                    }
                }
            }
            Structural::Closing(..) => return Scan::Done,
            Structural::Colon(_) => {}
        }
    }
    Scan::Done
}

/// Consumes the rest of the current element, including its closer.
#[inline(always)]
fn skip_element<B: Backend>(it: &mut StructuralIterator<'_, B>, bracket: BracketType) {
    if it.fast_forward_to_close(bracket).is_some() {
        let _ = it.next();
    }
}

fn value_start(input: &[u8], pos: usize) -> Option<usize> {
    let v = input[pos + 1..]
        .iter()
        .position(|b| !b.is_ascii_whitespace())?
        + pos
        + 1;
    match input[v] {
        b'{' | b'[' | b'}' | b']' | b',' | b':' => None,
        _ => Some(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(query: &str, doc: &str) -> u64 {
        SkiEngine::from_text(query).unwrap().count(doc.as_bytes())
    }

    #[test]
    fn rejects_descendants() {
        assert!(SkiEngine::from_text("$..a").is_err());
        assert!(SkiEngine::from_text("$.a..b").is_err());
        assert!(SkiEngine::from_text("$.a.b").is_ok());
    }

    #[test]
    fn label_chains() {
        let doc = r#"{"a": {"b": {"c": 42}}, "x": {"b": 0}}"#;
        assert_eq!(count("$.a.b.c", doc), 1);
        assert_eq!(count("$.a.b", doc), 1);
        assert_eq!(count("$.x.c", doc), 0);
    }

    #[test]
    fn final_label_matches_atoms_and_composites() {
        let doc = r#"{"p": {"v": [1, 2]}, "q": {"v": 3}, "r": {"w": 4}}"#;
        assert_eq!(count("$.p.v", doc), 1);
        assert_eq!(count("$.q.v", doc), 1);
        assert_eq!(count("$.r.v", doc), 0);
    }

    #[test]
    fn wildcard_steps_into_arrays_only() {
        // Idiomatic wildcard would also match the object fields; JSONSki's
        // does not (the paper's §1.1 point).
        assert_eq!(count("$.*", r#"[1, 2, 3]"#), 3);
        assert_eq!(count("$.*", r#"{"a": 1, "b": 2}"#), 0);
        assert_eq!(count("$.a.*", r#"{"a": {"b": 1}}"#), 0);
        assert_eq!(count("$.a.*", r#"{"a": [1, {"x": 2}]}"#), 2);
    }

    #[test]
    fn jsonski_benchmark_shapes() {
        let doc = r#"{"products": [
            {"categoryPath": [{"id": 1}, {"id": 2}], "name": "tv"},
            {"categoryPath": [{"id": 3}], "videoChapters": [{"chapter": "x"}]}
        ]}"#;
        assert_eq!(count("$.products.*.categoryPath.*.id", doc), 3);
        assert_eq!(count("$.products.*.videoChapters.*.chapter", doc), 1);
        assert_eq!(count("$.products.*.videoChapters", doc), 1);
        assert_eq!(count("$.products.*.name", doc), 1);
    }

    #[test]
    fn root_query() {
        assert_eq!(count("$", r#"{"a": 1}"#), 1);
        assert_eq!(count("$", "7"), 1);
    }

    #[test]
    fn strings_with_lookalikes() {
        let doc = r#"{"s": "fake \"a\": {1}", "a": [5]}"#;
        assert_eq!(count("$.a", doc), 1);
        assert_eq!(count("$.a.*", doc), 1);
    }
}
