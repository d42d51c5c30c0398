//! Streaming structural validation.
//!
//! The engine's classifiers (§4) assume well-formed input; on garbage they
//! merely guarantee absence of panics, not meaningful results. For inputs
//! from untrusted sources the engine offers a *strict* mode, and for the
//! chunked-reader path it enforces a nesting-depth limit while bytes
//! arrive. Both are powered by [`StructuralValidator`]: an incremental,
//! SIMD-backed checker that consumes arbitrary-sized chunks, carries the
//! quote-classifier state across chunk boundaries (§4.5's stop/resume
//! handoff, between chunks instead of classifiers), and tracks one
//! bracket-type bit per nesting level.
//!
//! The validator checks *structure*, not full JSON grammar:
//!
//! * brackets outside strings balance and types match (`[` closes with
//!   `]`, `{` with `}`);
//! * strings terminate (escape-aware, via the quote classifier);
//! * nothing but whitespace follows a bracket-closed root value;
//! * nesting depth stays within a configurable limit.
//!
//! Token-level mistakes (`{:1}`, `[,]`, misplaced literals) pass — the
//! engine's event loop tolerates them by construction, so rejecting them
//! is a parser's job, not this validator's. Depth accounting always runs;
//! malformation *reporting* is opt-in (`strict`), so the lenient reader
//! path can enforce the depth limit alone.

use crate::quotes::QuoteState;
use rsq_simd::{
    Backend, BitIter, Block, ByteClassifier, ByteSet, Simd, Superblock, Task, BLOCK_SIZE,
    SUPERBLOCK_SIZE,
};
use std::fmt;

/// What a [`StructuralValidator`] found wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationErrorKind {
    /// A closing bracket with no container open.
    UnexpectedCloser,
    /// A closing bracket of the wrong type for the innermost container.
    MismatchedCloser,
    /// A non-whitespace byte after the root container closed.
    TrailingContent,
    /// The input ended inside a string.
    UnclosedString,
    /// The input ended with containers still open.
    UnclosedBrackets {
        /// How many containers were open at end of input.
        open: u32,
    },
    /// Nesting exceeded the configured depth limit.
    DepthLimitExceeded {
        /// The configured limit.
        limit: u32,
    },
}

/// A structural defect, located at the byte offset that revealed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// Byte offset of the offending character (end of input for
    /// `Unclosed*` kinds).
    pub pos: usize,
    /// The defect.
    pub kind: ValidationErrorKind,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ValidationErrorKind::UnexpectedCloser => {
                write!(f, "unexpected closing bracket at byte {}", self.pos)
            }
            ValidationErrorKind::MismatchedCloser => {
                write!(f, "mismatched closing bracket at byte {}", self.pos)
            }
            ValidationErrorKind::TrailingContent => {
                write!(
                    f,
                    "trailing content after document root at byte {}",
                    self.pos
                )
            }
            ValidationErrorKind::UnclosedString => {
                write!(f, "unterminated string at end of input (byte {})", self.pos)
            }
            ValidationErrorKind::UnclosedBrackets { open } => {
                write!(
                    f,
                    "{open} unclosed bracket(s) at end of input (byte {})",
                    self.pos
                )
            }
            ValidationErrorKind::DepthLimitExceeded { limit } => {
                write!(
                    f,
                    "nesting depth exceeds limit {limit} at byte {}",
                    self.pos
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Incremental structural validator over arbitrary-sized input chunks.
///
/// Feed bytes with [`feed`](Self::feed) (any chunk sizes, including one
/// byte at a time), then call [`finish`](Self::finish) once at end of
/// input. Both fail fast: after an error is detected, further feeding
/// returns the same error immediately.
///
/// # Examples
///
/// ```
/// use rsq_classify::{StructuralValidator, ValidationErrorKind};
/// use rsq_simd::Simd;
///
/// let simd = Simd::detect();
/// let mut ok = StructuralValidator::new(simd);
/// ok.feed(br#"{"a": [1, "]"]}"#).unwrap();
/// ok.finish().unwrap();
///
/// let mut bad = StructuralValidator::new(simd);
/// bad.feed(br#"{"a": [1, 2}"#).unwrap();
/// let err = bad.finish().unwrap_err();
/// assert_eq!(err.kind, ValidationErrorKind::MismatchedCloser);
/// assert_eq!(err.pos, 11);
/// ```
#[derive(Clone, Debug)]
pub struct StructuralValidator {
    simd: Simd,
    whitespace: ByteClassifier,
    quote_state: QuoteState,
    /// One bit per open container: 1 = array (`[`), 0 = object (`{`).
    stack: Vec<u64>,
    depth: u32,
    max_depth: Option<u32>,
    strict: bool,
    /// Absolute offset of the first byte of `staging`.
    consumed: usize,
    staging: Block,
    staged: usize,
    root_closed: bool,
    error: Option<ValidationError>,
}

impl StructuralValidator {
    /// A validator reporting every structural defect (strict), with no
    /// depth limit.
    #[must_use]
    pub fn new(simd: Simd) -> Self {
        StructuralValidator {
            simd,
            whitespace: ByteClassifier::new(&ByteSet::from_bytes(b" \t\n\r")),
            quote_state: QuoteState::default(),
            stack: Vec::new(),
            depth: 0,
            max_depth: None,
            strict: true,
            consumed: 0,
            staging: [0; BLOCK_SIZE],
            staged: 0,
            root_closed: false,
            error: None,
        }
    }

    /// Caps nesting depth; exceeding it is reported even when malformation
    /// reporting is off.
    #[must_use]
    pub fn with_max_depth(mut self, limit: u32) -> Self {
        self.max_depth = Some(limit);
        self
    }

    /// Enables or disables malformation reporting. With `false`, only
    /// [`DepthLimitExceeded`](ValidationErrorKind::DepthLimitExceeded) is
    /// ever reported; depth bookkeeping continues best-effort through
    /// malformed structure (extra closers are ignored).
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Consumes the next chunk of input.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect detected so far (possibly from
    /// an earlier chunk; detection is at block granularity, so an error may
    /// also surface one call late).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ValidationError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        // One backend dispatch per chunk; the block loop runs inlined
        // under it.
        self.simd.dispatch(Feed {
            validator: self,
            bytes,
        })
    }

    #[inline(always)]
    fn feed_on<B: Backend>(&mut self, backend: B, mut bytes: &[u8]) -> Result<(), ValidationError> {
        // Top up the staging block first. If the chunk doesn't fill it,
        // the input is exhausted and the bytes stay staged.
        if self.staged > 0 {
            let take = bytes.len().min(BLOCK_SIZE - self.staged);
            self.staging[self.staged..self.staged + take].copy_from_slice(&bytes[..take]);
            self.staged += take;
            bytes = &bytes[take..];
            if self.staged < BLOCK_SIZE {
                return Ok(());
            }
            let block = self.staging;
            let within = backend.classify_quotes(&block, &mut self.quote_state);
            self.staged = 0;
            self.settle_block(backend, &block, within, BLOCK_SIZE)?;
        }
        // Superblocks straight from the input: one quote-classifier
        // kernel per 256 bytes (as `BlockCursor` does), then the four
        // blocks' brackets.
        let mut superblocks = bytes.chunks_exact(SUPERBLOCK_SIZE);
        for chunk in superblocks.by_ref() {
            // PANIC-OK: chunks_exact yields exactly SUPERBLOCK_SIZE-byte chunks
            let chunk: &Superblock = chunk.try_into().expect("exact chunk");
            let (within, _) = backend.classify_quotes4(chunk, &mut self.quote_state);
            for (block, within) in chunk.chunks_exact(BLOCK_SIZE).zip(within) {
                // PANIC-OK: chunks_exact yields exactly BLOCK_SIZE-byte chunks
                let block: &Block = block.try_into().expect("exact chunk");
                self.settle_block(backend, block, within, BLOCK_SIZE)?;
            }
        }
        // The up to three whole blocks left, one at a time.
        let mut blocks = superblocks.remainder().chunks_exact(BLOCK_SIZE);
        for block in blocks.by_ref() {
            // PANIC-OK: chunks_exact yields exactly BLOCK_SIZE-byte chunks
            let block: &Block = block.try_into().expect("exact chunk");
            let within = backend.classify_quotes(block, &mut self.quote_state);
            self.settle_block(backend, block, within, BLOCK_SIZE)?;
        }
        // Stage the remainder.
        let rest = blocks.remainder();
        self.staging[..rest.len()].copy_from_slice(rest);
        self.staged = rest.len();
        Ok(())
    }

    /// Signals end of input and reports the verdict.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect of the whole input.
    pub fn finish(&mut self) -> Result<(), ValidationError> {
        if self.error.is_none() && self.staged > 0 {
            let mut block = self.staging;
            let len = self.staged;
            // Zero the tail: stale bytes past `len` would otherwise leak
            // into the quote classifier's carried state.
            block[len..].fill(0);
            let within = self.simd.classify_quotes(&block, &mut self.quote_state);
            self.staged = 0;
            self.settle_block(self.simd, &block, within, len)?;
        }
        if let Some(err) = self.error {
            return Err(err);
        }
        if self.strict {
            if self.quote_state.in_string {
                return Err(self.set_error(self.consumed, ValidationErrorKind::UnclosedString));
            }
            if self.depth > 0 {
                return Err(self.set_error(
                    self.consumed,
                    ValidationErrorKind::UnclosedBrackets { open: self.depth },
                ));
            }
        }
        Ok(())
    }

    /// Nesting depth at the current frontier.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    fn set_error(&mut self, pos: usize, kind: ValidationErrorKind) -> ValidationError {
        let err = ValidationError { pos, kind };
        self.error = Some(err);
        err
    }

    /// Accounts for the brackets of one block, `within` being its
    /// inside-string mask and `len` its valid prefix (whole but for the
    /// final block). An error is recorded as well as returned.
    #[inline(always)]
    fn settle_block<B: Backend>(
        &mut self,
        backend: B,
        block: &Block,
        within: u64,
        len: usize,
    ) -> Result<(), ValidationError> {
        let valid = if len == BLOCK_SIZE {
            !0u64
        } else {
            (1u64 << len) - 1
        };
        let outside = !within & valid;
        let (open_brace, close_brace) = backend.eq_mask2(block, b'{', b'}');
        let (open_bracket, close_bracket) = backend.eq_mask2(block, b'[', b']');
        let opens = (open_brace | open_bracket) & outside;
        let closes = (close_brace | close_bracket) & outside;

        // Lenient mode keeps nothing but the depth counter, and when
        // neither the limit nor the zero floor can be reached inside this
        // block the order of its brackets does not matter: count them.
        // A block that could reach either goes bracket by bracket below,
        // so the limit error keeps its exact byte offset.
        if !self.strict {
            let (opened, closed) = (opens.count_ones(), closes.count_ones());
            let limit = self.max_depth.unwrap_or(u32::MAX);
            if closed <= self.depth && opened <= limit.saturating_sub(self.depth) {
                self.depth = self.depth + opened - closed;
                self.consumed += len;
                return Ok(());
            }
        }

        let array_bits = open_bracket | close_bracket;
        // `trailing_from` is the bit after which non-whitespace bytes are
        // trailing content (the root closed there), if any.
        let mut trailing_from: Option<u32> = if self.root_closed { Some(0) } else { None };

        for bit in BitIter::new(opens | closes) {
            let pos = self.consumed + bit as usize;
            let is_array = array_bits >> bit & 1 == 1;
            if opens >> bit & 1 == 1 {
                if let Some(limit) = self.max_depth {
                    if self.depth >= limit {
                        return Err(
                            self.set_error(pos, ValidationErrorKind::DepthLimitExceeded { limit })
                        );
                    }
                }
                // The bracket-type stack only ever answers `strict`'s
                // mismatch check.
                if self.strict {
                    let (word, level_bit) = (self.depth as usize / 64, self.depth % 64);
                    if word == self.stack.len() {
                        self.stack.push(0);
                    }
                    if is_array {
                        self.stack[word] |= 1 << level_bit;
                    } else {
                        self.stack[word] &= !(1 << level_bit);
                    }
                }
                self.depth += 1;
            } else if self.depth == 0 {
                if self.strict {
                    return Err(self.set_error(pos, ValidationErrorKind::UnexpectedCloser));
                }
                // Lenient: ignore the extra closer.
            } else {
                self.depth -= 1;
                if self.strict {
                    let (word, level_bit) = (self.depth as usize / 64, self.depth % 64);
                    let opened_array = self.stack[word] >> level_bit & 1 == 1;
                    if opened_array != is_array {
                        return Err(self.set_error(pos, ValidationErrorKind::MismatchedCloser));
                    }
                    if self.depth == 0 && !self.root_closed {
                        self.root_closed = true;
                        trailing_from = Some(bit + 1);
                    }
                }
            }
        }

        if self.strict {
            if let Some(from) = trailing_from {
                // Any non-whitespace byte after the root closed is trailing
                // content — including string bytes, so use `valid`, not
                // `outside`.
                let after = if from >= 64 { 0 } else { !0u64 << from };
                let nonws = !self.whitespace.classify_block(backend, block) & valid;
                let trailing = nonws & after;
                if trailing != 0 {
                    let pos = self.consumed + trailing.trailing_zeros() as usize;
                    return Err(self.set_error(pos, ValidationErrorKind::TrailingContent));
                }
            }
        }

        self.consumed += len;
        Ok(())
    }
}

/// [`StructuralValidator::feed`] as the [`Task`] it dispatches.
struct Feed<'v, 'b> {
    validator: &'v mut StructuralValidator,
    bytes: &'b [u8],
}

impl Task for Feed<'_, '_> {
    type Output = Result<(), ValidationError>;

    #[inline(always)]
    fn run<B: Backend>(self, backend: B) -> Self::Output {
        self.validator.feed_on(backend, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simd() -> Simd {
        Simd::detect()
    }

    fn validate(input: &[u8]) -> Result<(), ValidationError> {
        let mut v = StructuralValidator::new(simd());
        v.feed(input)?;
        v.finish()
    }

    /// Every chunking of the input must yield the identical verdict.
    fn validate_chunked(input: &[u8], chunk: usize) -> Result<(), ValidationError> {
        let mut v = StructuralValidator::new(simd());
        for piece in input.chunks(chunk.max(1)) {
            v.feed(piece)?;
        }
        v.finish()
    }

    #[test]
    fn accepts_well_formed() {
        for doc in [
            br#"{"a": [1, 2, {"b": "]}"}]}"#.as_slice(),
            b"[]",
            b"{}",
            br#"  {"x": "\"{["}  "#,
            b"123",
            br#""just a string""#,
            b"",
            b"   ",
        ] {
            assert_eq!(validate(doc), Ok(()), "{:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn rejects_structural_garbage() {
        let cases: &[(&[u8], ValidationErrorKind)] = &[
            (b"}}}}", ValidationErrorKind::UnexpectedCloser),
            (b"]]]]{{{{", ValidationErrorKind::UnexpectedCloser),
            (b"{{{{", ValidationErrorKind::UnclosedBrackets { open: 4 }),
            (b"[[[[", ValidationErrorKind::UnclosedBrackets { open: 4 }),
            (b"{\"a\"", ValidationErrorKind::UnclosedBrackets { open: 1 }),
            (b"\"unterminated", ValidationErrorKind::UnclosedString),
            (b"{\"a\": [1, 2}", ValidationErrorKind::MismatchedCloser),
            (b"[{\"x\": ]1}", ValidationErrorKind::MismatchedCloser),
            (b"{} {}", ValidationErrorKind::TrailingContent),
            (b"{}x", ValidationErrorKind::TrailingContent),
            (b"[] \"s\"", ValidationErrorKind::TrailingContent),
        ];
        for &(doc, want) in cases {
            let got = validate(doc).unwrap_err();
            assert_eq!(got.kind, want, "{:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn brackets_inside_strings_are_ignored() {
        assert_eq!(validate(br#"{"s": "}}}]]]["}"#), Ok(()));
        assert_eq!(validate(br#"["a\"]", "]"]"#), Ok(()));
    }

    #[test]
    fn chunking_is_invisible() {
        let mut doc = br#"{"pad": ""#.to_vec();
        doc.extend(std::iter::repeat_n(b'x', 200));
        doc.extend_from_slice(br#"", "deep": [[[{"a": 1}]]]}"#);
        let whole = validate(&doc);
        for chunk in [1, 2, 3, 7, 63, 64, 65, 256] {
            assert_eq!(validate_chunked(&doc, chunk), whole, "chunk {chunk}");
        }
        let mut bad = doc.clone();
        let len = bad.len();
        bad[len - 1] = b')'; // drop the final closer
        let whole = validate(&bad);
        assert!(whole.is_err());
        for chunk in [1, 5, 64, 100] {
            assert_eq!(validate_chunked(&bad, chunk), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn depth_limit_trips_exactly() {
        let doc = b"[[[[[[[[]]]]]]]]"; // depth 8
        let v = |limit| {
            let mut v = StructuralValidator::new(simd()).with_max_depth(limit);
            v.feed(doc).and_then(|()| v.finish())
        };
        assert_eq!(v(8), Ok(()));
        let err = v(7).unwrap_err();
        assert_eq!(
            err.kind,
            ValidationErrorKind::DepthLimitExceeded { limit: 7 }
        );
        assert_eq!(err.pos, 7);
    }

    #[test]
    fn lenient_mode_reports_only_depth() {
        let mut v = StructuralValidator::new(simd())
            .strict(false)
            .with_max_depth(4);
        v.feed(b"}}}} [1, 2").unwrap();
        v.finish().unwrap();

        let mut v = StructuralValidator::new(simd())
            .strict(false)
            .with_max_depth(4);
        let err = v
            .feed(b"]]] [[[[[ 1")
            .and_then(|()| v.finish())
            .unwrap_err();
        assert_eq!(
            err.kind,
            ValidationErrorKind::DepthLimitExceeded { limit: 4 }
        );
    }

    #[test]
    fn deep_document_fails_fast_without_memory_blowup() {
        // One million openers, fed in chunks: the validator must stop at
        // the limit, long before buffering the rest.
        let chunk = vec![b'['; 4096];
        let mut v = StructuralValidator::new(simd()).with_max_depth(1024);
        let mut result = Ok(());
        for _ in 0..250 {
            result = v.feed(&chunk);
            if result.is_err() {
                break;
            }
        }
        let err = result.unwrap_err();
        assert_eq!(
            err.kind,
            ValidationErrorKind::DepthLimitExceeded { limit: 1024 }
        );
        assert_eq!(err.pos, 1024);
    }

    /// The validator as it was before superblocks and the popcount path:
    /// one block at a time, every bracket visited in order — here with
    /// scalar string tracking instead of the SIMD quote classifier, so the
    /// differential below checks that too. Verdicts surface per complete
    /// 64-byte block, as the real one's do.
    struct PerBracket {
        strict: bool,
        max_depth: Option<u32>,
        in_string: bool,
        escaped: bool,
        stack: Vec<bool>,
        depth: u32,
        consumed: usize,
        pending: Vec<u8>,
        root_closed: bool,
        error: Option<ValidationError>,
    }

    impl PerBracket {
        fn new(strict: bool, max_depth: Option<u32>) -> Self {
            PerBracket {
                strict,
                max_depth,
                in_string: false,
                escaped: false,
                stack: Vec::new(),
                depth: 0,
                consumed: 0,
                pending: Vec::new(),
                root_closed: false,
                error: None,
            }
        }

        fn fail(&mut self, at: usize, kind: ValidationErrorKind) -> Result<(), ValidationError> {
            let err = ValidationError {
                pos: self.consumed + at,
                kind,
            };
            self.error = Some(err);
            Err(err)
        }

        fn block(&mut self, bytes: &[u8]) -> Result<(), ValidationError> {
            let mut trailing_from = self.root_closed.then_some(0);
            for (at, &byte) in bytes.iter().enumerate() {
                if self.in_string {
                    if self.escaped {
                        self.escaped = false;
                    } else if byte == b'\\' {
                        self.escaped = true;
                    } else if byte == b'"' {
                        self.in_string = false;
                    }
                    continue;
                }
                match byte {
                    b'"' => self.in_string = true,
                    b'{' | b'[' => {
                        if let Some(limit) = self.max_depth.filter(|&l| self.depth >= l) {
                            return self
                                .fail(at, ValidationErrorKind::DepthLimitExceeded { limit });
                        }
                        self.stack.truncate(self.depth as usize);
                        self.stack.push(byte == b'[');
                        self.depth += 1;
                    }
                    b'}' | b']' if self.depth == 0 && self.strict => {
                        return self.fail(at, ValidationErrorKind::UnexpectedCloser);
                    }
                    // Lenient: a surplus closer is ignored.
                    b'}' | b']' if self.depth == 0 => {}
                    b'}' | b']' => {
                        self.depth -= 1;
                        if self.strict && self.stack[self.depth as usize] != (byte == b']') {
                            return self.fail(at, ValidationErrorKind::MismatchedCloser);
                        }
                        if self.depth == 0 && !self.root_closed {
                            self.root_closed = true;
                            trailing_from = Some(at + 1);
                        }
                    }
                    _ => {}
                }
            }
            if let (true, Some(from)) = (self.strict, trailing_from) {
                let content = |b: &u8| !b" \t\n\r".contains(b);
                if let Some(at) = bytes.iter().skip(from).position(content) {
                    return self.fail(from + at, ValidationErrorKind::TrailingContent);
                }
            }
            self.consumed += bytes.len();
            Ok(())
        }

        fn feed(&mut self, bytes: &[u8]) -> Result<(), ValidationError> {
            self.error.map_or(Ok(()), Err)?;
            self.pending.extend_from_slice(bytes);
            while self.pending.len() >= BLOCK_SIZE {
                let block: Vec<u8> = self.pending.drain(..BLOCK_SIZE).collect();
                self.block(&block)?;
            }
            Ok(())
        }

        fn finish(&mut self) -> Result<(), ValidationError> {
            self.error.map_or(Ok(()), Err)?;
            let rest = std::mem::take(&mut self.pending);
            self.block(&rest)?;
            if self.strict && self.in_string {
                return self.fail(0, ValidationErrorKind::UnclosedString);
            }
            if self.strict && self.depth > 0 {
                return self.fail(
                    0,
                    ValidationErrorKind::UnclosedBrackets { open: self.depth },
                );
            }
            Ok(())
        }
    }

    /// `depth` containers deep, alternating arrays and objects, with `pad`
    /// bytes of whitespace after every bracket so the nesting spreads over
    /// many blocks.
    fn nested(depth: usize, pad: usize) -> Vec<u8> {
        let pad = " ".repeat(pad);
        let mut doc = String::new();
        for level in 0..depth {
            doc += if level % 2 == 0 { "[" } else { "{\"k\":" };
            doc += &pad;
        }
        doc += "1";
        for level in (0..depth).rev() {
            doc += if level % 2 == 0 { "]" } else { "}" };
            doc += &pad;
        }
        doc.into_bytes()
    }

    /// A string full of brackets and escaped quotes, placed so that it
    /// straddles the block boundary at 64 and the superblock boundary at
    /// 256 once `lead` bytes precede it — with an escape's backslash as the
    /// last byte before the boundary for some `lead`s.
    fn hostile_strings(lead: usize) -> Vec<u8> {
        let mut doc = b"[".to_vec();
        doc.extend(std::iter::repeat_n(b' ', lead));
        for _ in 0..6 {
            doc.extend_from_slice(br#""]}\"{[\\\"]]\\", {"a\"]": ["}{\\"]}, "#);
        }
        doc.extend_from_slice(b"0]");
        doc
    }

    #[test]
    fn popcount_and_superblock_paths_match_the_per_bracket_reference() {
        const LIMIT: u32 = 40;
        let mut docs: Vec<(String, Vec<u8>)> = Vec::new();
        for depth in [LIMIT - 1, LIMIT, LIMIT + 1] {
            for pad in [0, 3, 17] {
                let name = format!("depth {depth} pad {pad}");
                docs.push((name, nested(depth as usize, pad)));
            }
        }
        // Surplus closers: the lenient depth floors at zero, mid-block and
        // across blocks, and climbs again afterwards.
        let mut surplus = b"]]}} ".to_vec();
        surplus.extend(nested(5, 9));
        surplus.extend(std::iter::repeat_n(b'}', 70));
        surplus.extend(nested(LIMIT as usize, 1));
        surplus.extend_from_slice(b"]] [[[ ]]]");
        // One closer too many and an opener after it, alone in a block, at
        // depths 0..4: the count of the block is fine, its order is not.
        for depth in 0..4 {
            surplus.resize(surplus.len().next_multiple_of(BLOCK_SIZE), b' ');
            surplus.extend(std::iter::repeat_n(b'[', depth));
            surplus.resize(surplus.len().next_multiple_of(BLOCK_SIZE), b' ');
            surplus.extend(std::iter::repeat_n(b']', depth + 1));
            surplus.extend_from_slice(b" [");
            surplus.resize(surplus.len().next_multiple_of(BLOCK_SIZE), b' ');
            surplus.push(b']');
        }
        surplus.extend(nested(LIMIT as usize + 1, 2));
        docs.push(("surplus closers".to_owned(), surplus));
        for lead in [0, 40, 55, 56, 57, 200, 247, 248, 249] {
            docs.push((format!("strings lead {lead}"), hostile_strings(lead)));
        }
        let mut unclosed = hostile_strings(60);
        unclosed.extend_from_slice(br#" {"open": ["never closed\"#);
        docs.push(("unclosed string".to_owned(), unclosed));
        let mut trailing = nested(7, 11);
        trailing.extend_from_slice(b"  \n x ] [");
        docs.push(("trailing content".to_owned(), trailing));
        let mut mismatched = nested(9, 30);
        let last = mismatched.iter().rposition(|&b| b == b']').unwrap();
        mismatched[last] = b'}';
        docs.push(("mismatched closer".to_owned(), mismatched));

        for (name, doc) in &docs {
            for strict in [false, true] {
                for limit in [Some(LIMIT), None] {
                    for chunk in 1..=300 {
                        let context = format!("{name}, strict {strict}, {limit:?}, chunk {chunk}");
                        let mut real = StructuralValidator::new(simd()).strict(strict);
                        real.max_depth = limit;
                        let mut reference = PerBracket::new(strict, limit);
                        for piece in doc.chunks(chunk) {
                            assert_eq!(real.feed(piece), reference.feed(piece), "{context}");
                            if reference.error.is_none() {
                                assert_eq!(real.depth(), reference.depth, "{context}");
                            }
                        }
                        assert_eq!(real.finish(), reference.finish(), "{context}");
                        assert_eq!(real.finish(), reference.finish(), "{context}: sticky");
                    }
                }
            }
        }
        // The matrix met every verdict it was built to meet.
        let verdict = |doc: &[u8], strict| {
            let mut v = PerBracket::new(strict, Some(LIMIT));
            v.feed(doc).and_then(|()| v.finish()).map_err(|e| e.kind)
        };
        let depth = ValidationErrorKind::DepthLimitExceeded { limit: LIMIT };
        assert_eq!(verdict(&nested(40, 3), false), Ok(()));
        assert_eq!(verdict(&nested(41, 3), false), Err(depth));
        assert_eq!(
            verdict(&docs[9].1, false),
            Err(depth),
            "floor, then the limit"
        );
        assert_eq!(
            verdict(&docs[9].1, true),
            Err(ValidationErrorKind::UnexpectedCloser)
        );
        assert_eq!(verdict(&hostile_strings(56), true), Ok(()));
    }

    #[test]
    fn error_positions_are_absolute() {
        let mut doc = vec![b'['; 1];
        doc.extend(std::iter::repeat_n(b' ', 100));
        doc.push(b'}');
        let err = validate(&doc).unwrap_err();
        assert_eq!(err.kind, ValidationErrorKind::MismatchedCloser);
        assert_eq!(err.pos, 101);
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let err = validate(br#""ends with escape \""#).unwrap_err();
        assert_eq!(err.kind, ValidationErrorKind::UnclosedString);
    }
}
