//! A scalar streaming JSONPath engine — the JsonSurfer stand-in.
//!
//! JsonSurfer (the paper's non-SIMD baseline, §5.2) is a Java streaming
//! library: a byte-at-a-time tokenizer materializes every token (keys and
//! string values are decoded into fresh `String`s, numbers are parsed)
//! and feeds a stream of events through a listener interface to the query
//! matcher, which keeps a full per-container stack of automaton states.
//! This module reimplements that architecture in Rust: no SIMD, no
//! skipping, no toggling — every byte is inspected, every token is
//! materialized, every event goes through dynamic dispatch, exactly the
//! classical simulation of §3.2 that the depth-stack engine improves on.
//!
//! It evaluates the same query automata as the main engine (full node
//! semantics, descendants and idiomatic wildcards included) and serves
//! both as a performance baseline and as an independent implementation for
//! differential testing.

use rsq_engine::Sink;
use rsq_query::{Automaton, CompileError, PathSymbol, Query, StateId};

/// The scalar streaming baseline engine.
///
/// # Examples
///
/// ```
/// use rsq_baselines::SurferEngine;
///
/// let engine = SurferEngine::from_text("$..b").unwrap();
/// assert_eq!(engine.count(br#"{"a": {"b": 1}, "b": 2}"#), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SurferEngine {
    automaton: Automaton,
}

impl SurferEngine {
    /// Compiles the engine from query text.
    ///
    /// # Errors
    ///
    /// Returns an error when the query does not parse or compile.
    pub fn from_text(query: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let query = Query::parse(query)?;
        Ok(Self::from_query(&query)?)
    }

    /// Compiles the engine from a parsed query.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on automaton blow-up.
    pub fn from_query(query: &Query) -> Result<Self, CompileError> {
        Ok(SurferEngine {
            automaton: Automaton::compile(query)?,
        })
    }

    /// Streams `input`, reporting matches to `sink` (node semantics, in
    /// document order). Malformed input is processed best-effort.
    pub fn run<S: Sink>(&self, input: &[u8], sink: &mut S) {
        let mut matcher = Matcher {
            automaton: &self.automaton,
            stack: Vec::new(),
            state: self.automaton.initial_state(),
            pending_key: None,
            sink,
        };
        let mut tokenizer = Tokenizer { input, pos: 0 };
        // The listener indirection models JsonSurfer's content-handler
        // interface: every event crosses a virtual call.
        tokenizer.run(&mut matcher);
    }

    /// Counts matches in `input`.
    #[must_use]
    pub fn count(&self, input: &[u8]) -> u64 {
        let mut sink = rsq_engine::CountSink::new();
        self.run(input, &mut sink);
        sink.count()
    }

    /// Returns the byte offsets of the matches, in document order.
    #[must_use]
    pub fn positions(&self, input: &[u8]) -> Vec<usize> {
        let mut sink = rsq_engine::PositionsSink::new();
        self.run(input, &mut sink);
        sink.into_positions()
    }
}

/// One fully materialized stream event (JsonSurfer materializes tokens
/// before dispatching them to listeners). The payloads exist to model the
/// materialization cost; the matcher only needs positions and keys.
#[allow(dead_code, reason = "the payloads are built, never read")]
enum StreamEvent {
    ObjectStart(usize),
    ObjectEnd,
    ArrayStart(usize),
    ArrayEnd,
    /// A member key, materialized into an owned buffer (raw bytes,
    /// escapes kept, so label matching stays byte-exact).
    Key(Vec<u8>),
    /// A string value, materialized into an owned buffer.
    Str(usize, Vec<u8>),
    /// A numeric value, parsed.
    Num(usize, f64),
    Bool(usize, bool),
    Null(usize),
}

/// The listener interface events are dispatched through (dynamically, as
/// in the Java original).
trait StreamListener {
    fn event(&mut self, event: StreamEvent);
}

/// Byte-at-a-time tokenizer with full token materialization.
struct Tokenizer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Tokenizer<'_> {
    fn run(&mut self, listener: &mut dyn StreamListener) {
        self.skip_ws();
        self.value(listener);
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses one value, emitting its events. Containers recurse; the
    /// recursion depth equals the document depth, as in the Java library.
    fn value(&mut self, listener: &mut dyn StreamListener) {
        let start = self.pos;
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                listener.event(StreamEvent::ObjectStart(start));
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let Some(key) = self.string_token() else {
                            return;
                        };
                        listener.event(StreamEvent::Key(key));
                        self.skip_ws();
                        if self.peek() != Some(b':') {
                            return;
                        }
                        self.pos += 1;
                        self.skip_ws();
                        self.value(listener);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return,
                        }
                    }
                }
                listener.event(StreamEvent::ObjectEnd);
            }
            Some(b'[') => {
                self.pos += 1;
                listener.event(StreamEvent::ArrayStart(start));
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        self.value(listener);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return,
                        }
                    }
                }
                listener.event(StreamEvent::ArrayEnd);
            }
            Some(b'"') => {
                if let Some(s) = self.string_token() {
                    listener.event(StreamEvent::Str(start, s));
                }
            }
            Some(b't') => {
                self.pos += 4.min(self.input.len() - self.pos);
                listener.event(StreamEvent::Bool(start, true));
            }
            Some(b'f') => {
                self.pos += 5.min(self.input.len() - self.pos);
                listener.event(StreamEvent::Bool(start, false));
            }
            Some(b'n') => {
                self.pos += 4.min(self.input.len() - self.pos);
                listener.event(StreamEvent::Null(start));
            }
            Some(b'-' | b'0'..=b'9') => {
                while let Some(b) = self.peek() {
                    if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                        break;
                    }
                    self.pos += 1;
                }
                // Materialize the number, as the Java tokenizer does.
                let parsed = std::str::from_utf8(&self.input[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .unwrap_or(f64::NAN);
                listener.event(StreamEvent::Num(start, parsed));
            }
            _ => {}
        }
    }

    /// Parses a quoted string token into an owned buffer (per-token
    /// allocation plus a UTF-8 validation pass, modelling the per-token
    /// decoding the Java original performs). Escapes are kept raw so that
    /// label matching stays byte-exact with the raw-comparison engines.
    fn string_token(&mut self) -> Option<Vec<u8>> {
        if self.peek() != Some(b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    // Decoding cost: the Java tokenizer produces a UTF-16
                    // string here; we at least validate UTF-8.
                    let _ = std::str::from_utf8(&out);
                    return Some(out);
                }
                b'\\' => {
                    out.push(b'\\');
                    self.pos += 1;
                    if let Some(next) = self.peek() {
                        out.push(next);
                        self.pos += 1;
                    }
                }
                b => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

/// One stack frame per open container: the state to restore at its end
/// and, for arrays, the index of the next entry.
enum Frame {
    Object(StateId),
    Array(StateId, u64),
}

/// The query matcher: a listener keeping one stack frame per container —
/// the classical DFA simulation of §3.2.
struct Matcher<'a, S> {
    automaton: &'a Automaton,
    stack: Vec<Frame>,
    state: StateId,
    pending_key: Option<Vec<u8>>,
    sink: &'a mut S,
}

impl<S: Sink> Matcher<'_, S> {
    fn enter_value(&mut self, pos: usize) -> StateId {
        let target = match self.stack.last_mut() {
            None => self.state, // the document root has no incoming transition
            Some(Frame::Object(_)) => {
                let label = self.pending_key.take();
                self.automaton.transition(
                    self.state,
                    PathSymbol::Label(label.as_deref().unwrap_or(b"")),
                )
            }
            Some(Frame::Array(_, index)) => {
                let i = *index;
                *index += 1;
                self.automaton.transition(self.state, PathSymbol::Index(i))
            }
        };
        if self.automaton.is_accepting(target) {
            self.sink.report(pos);
        }
        target
    }
}

impl<S: Sink> StreamListener for Matcher<'_, S> {
    fn event(&mut self, event: StreamEvent) {
        match event {
            StreamEvent::ObjectStart(pos) => {
                let target = self.enter_value(pos);
                self.stack.push(Frame::Object(self.state));
                self.state = target;
            }
            StreamEvent::ArrayStart(pos) => {
                let target = self.enter_value(pos);
                self.stack.push(Frame::Array(self.state, 0));
                self.state = target;
            }
            StreamEvent::ObjectEnd | StreamEvent::ArrayEnd => {
                if let Some(restored) = self.stack.pop() {
                    self.state = match restored {
                        Frame::Object(s) | Frame::Array(s, _) => s,
                    };
                }
            }
            StreamEvent::Key(key) => {
                self.pending_key = Some(key);
            }
            StreamEvent::Str(pos, _)
            | StreamEvent::Num(pos, _)
            | StreamEvent::Bool(pos, _)
            | StreamEvent::Null(pos) => {
                if self.stack.is_empty() {
                    // Atomic document root: only `$` matches.
                    if self.automaton.is_accepting(self.state) {
                        self.sink.report(pos);
                    }
                } else {
                    let _ = self.enter_value(pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(query: &str, doc: &str) -> u64 {
        SurferEngine::from_text(query)
            .unwrap()
            .count(doc.as_bytes())
    }

    #[test]
    fn matches_basic_queries() {
        let doc = r#"{"a": {"b": 1, "c": [2, {"b": 3}]}, "b": 4}"#;
        assert_eq!(count("$..b", doc), 3);
        assert_eq!(count("$.a.b", doc), 1);
        assert_eq!(count("$.a.*", doc), 2);
        assert_eq!(count("$.a.c.*", doc), 2);
        assert_eq!(count("$", doc), 1);
        assert_eq!(count("$.z", doc), 0);
    }

    #[test]
    fn atomic_and_empty_documents() {
        assert_eq!(count("$", "42"), 1);
        assert_eq!(count("$..a", "42"), 0);
        assert_eq!(count("$", ""), 0);
        assert_eq!(count("$.a", "{}"), 0);
    }

    #[test]
    fn strings_with_lookalikes() {
        let doc = r#"{"s": "a\" {,:[", "b": 1}"#;
        assert_eq!(count("$.b", doc), 1);
        assert_eq!(count("$..b", doc), 1);
    }

    #[test]
    fn duplicate_keys_both_reported() {
        // No sibling skipping in the scalar baseline.
        assert_eq!(count("$.k", r#"{"k": 1, "k": 2}"#), 2);
    }

    #[test]
    fn positions_are_value_starts() {
        let engine = SurferEngine::from_text("$..b").unwrap();
        let doc = br#"{"a": 1, "b": [2], "c": {"b": "x"}}"#;
        let pos = engine.positions(doc);
        assert_eq!(pos.len(), 2);
        assert_eq!(doc[pos[0]], b'[');
        assert_eq!(doc[pos[1]], b'"');
    }
}
