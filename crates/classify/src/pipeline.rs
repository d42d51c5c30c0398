//! Multi-classifier pipeline handoff (§4.5).
//!
//! Every classifier in the pipeline sits on top of the quote classifier,
//! whose state must be threaded through whenever one classifier stops and
//! another resumes. [`ResumeState`] is that handoff token: a block
//! boundary plus the quote state at it. Rust's ownership makes the
//! handoff zero-copy and statically ensures a single writer — the point
//! the paper makes about implementing the pipeline in Rust.
//!
//! [`QuoteScanner`] is the cheapest member of the pipeline: it runs *only*
//! the quote classifier, answering "is this position inside a string?" for
//! monotonically increasing positions. The engine's skip-to-label uses it
//! to validate `memmem` candidates without paying for full structural
//! classification. [`LineScanner`] is its sibling for the NDJSON drivers:
//! the quote classifier plus one newline mask, block by block, with the
//! byte-at-a-time [`QuoteScan`] it is specified against for what the
//! block kernel cannot take.

use crate::quotes::QuoteState;
use rsq_simd::{Backend, Block, Simd, Superblock, Task, BLOCK_SIZE, SUPERBLOCK_SIZE};

/// A point in the input where classification can be resumed: a 64-byte
/// block boundary and the quote state entering it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeState {
    /// Block-aligned offset of the first unclassified block.
    pub block_start: usize,
    /// Quote classifier state at `block_start`.
    pub quote_state: QuoteState,
}

impl Default for ResumeState {
    /// The start of the document.
    fn default() -> Self {
        ResumeState {
            block_start: 0,
            quote_state: QuoteState::default(),
        }
    }
}

/// A forward-only scanner answering in-string queries at increasing
/// positions.
///
/// # Examples
///
/// ```
/// use rsq_classify::QuoteScanner;
/// use rsq_simd::Simd;
///
/// let input = br#"{"key": "a {fake} brace"}"#;
/// let mut scanner = QuoteScanner::new(input, Simd::detect());
/// assert!(!scanner.in_string_at(0));  // '{'
/// assert!(scanner.in_string_at(2));   // 'k'
/// assert!(scanner.in_string_at(12));  // '{' inside the string
/// assert!(!scanner.in_string_at(24)); // closing '}'
/// ```
#[derive(Clone, Debug)]
pub struct QuoteScanner<'a, B: Backend = Simd> {
    input: &'a [u8],
    backend: B,
    /// Start of the current (not yet committed) block.
    block_start: usize,
    /// Quote state entering `block_start`.
    state_before: QuoteState,
    /// Blocks quote-classified so far, recomputations of the uncommitted
    /// trailing block included (Tier A observability).
    blocks: u64,
}

impl<'a, B: Backend> QuoteScanner<'a, B> {
    /// Creates a scanner at the start of the input.
    #[must_use]
    pub fn new(input: &'a [u8], backend: B) -> Self {
        QuoteScanner {
            input,
            backend,
            block_start: 0,
            state_before: QuoteState::default(),
            blocks: 0,
        }
    }

    /// Returns `true` if byte `pos` lies inside a string (opening quote
    /// inclusive, closing quote exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds or *before* the scanner's current
    /// block — the scanner only moves forward.
    #[inline(always)]
    #[must_use]
    pub fn in_string_at(&mut self, pos: usize) -> bool {
        assert!(pos < self.input.len(), "position out of bounds");
        assert!(pos >= self.block_start, "scanner cannot move backwards");
        // Commit whole blocks before the one containing `pos`, superblock
        // kernel first, block by block for the remainder.
        let pos_block = pos - pos % BLOCK_SIZE;
        while self.block_start + SUPERBLOCK_SIZE <= pos_block
            && self.block_start + SUPERBLOCK_SIZE <= self.input.len()
        {
            let chunk: &Superblock = self.input
                [self.block_start..self.block_start + SUPERBLOCK_SIZE]
                .try_into()
                // PANIC-OK: the slice is exactly SUPERBLOCK_SIZE bytes, so try_into cannot fail
                .expect("superblock sized");
            let _ = self.backend.classify_quotes4(chunk, &mut self.state_before);
            self.block_start += SUPERBLOCK_SIZE;
            self.blocks = self
                .blocks
                .saturating_add((SUPERBLOCK_SIZE / BLOCK_SIZE) as u64);
        }
        while self.block_start + BLOCK_SIZE <= pos {
            let block = self.load(self.block_start);
            let _ = self.backend.classify_quotes(&block, &mut self.state_before);
            self.block_start += BLOCK_SIZE;
            self.blocks = self.blocks.saturating_add(1);
        }
        // Classify the containing block without committing its state, so
        // later queries within the same block recompute consistently.
        let block = self.load(self.block_start);
        let mut state = self.state_before;
        let within = self.backend.classify_quotes(&block, &mut state);
        self.blocks = self.blocks.saturating_add(1);
        within >> (pos - self.block_start) & 1 == 1
    }

    /// Number of 64-byte blocks quote-classified so far. Repeated queries
    /// within one uncommitted trailing block re-classify it and count each
    /// time — the counter measures work performed, not bytes covered.
    #[must_use]
    pub fn blocks_classified(&self) -> u64 {
        self.blocks
    }

    /// The scanner's frontier as a [`ResumeState`].
    #[must_use]
    pub fn resume_state(&self) -> ResumeState {
        ResumeState {
            block_start: self.block_start,
            quote_state: self.state_before,
        }
    }

    /// Fast-forwards the scanner to a later frontier (obtained from a
    /// structural iterator that already classified the region in between).
    /// A frontier at or before the current one is ignored.
    pub fn catch_up(&mut self, resume: ResumeState) {
        if resume.block_start > self.block_start {
            self.block_start = resume.block_start;
            self.state_before = resume.quote_state;
        }
    }

    #[inline(always)]
    fn load(&self, start: usize) -> [u8; BLOCK_SIZE] {
        let mut block = [0u8; BLOCK_SIZE];
        let end = (start + BLOCK_SIZE).min(self.input.len());
        block[..end - start].copy_from_slice(&self.input[start..end]);
        block
    }
}

/// The quote/escape automaton the NDJSON drivers are specified against:
/// tracks whether the scan is inside a JSON string, honoring backslash
/// escapes (a `"` preceded by an odd run of backslashes does not close
/// the string). [`LineScanner::scan_lines`] runs it directly only where
/// the block kernel cannot: a scan's sub-block tail, and a block with a
/// backslash outside a string.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuoteScan {
    in_string: bool,
    escaped: bool,
}

impl QuoteScan {
    /// Advances over one byte. Returns `true` exactly when `b` is a
    /// document boundary: a newline outside any string.
    #[inline]
    pub fn boundary(&mut self, b: u8) -> bool {
        if self.in_string {
            if self.escaped {
                self.escaped = false;
            } else if b == b'\\' {
                self.escaped = true;
            } else if b == b'"' {
                self.in_string = false;
            }
            return false;
        }
        match b {
            b'"' => {
                self.in_string = true;
                false
            }
            b'\n' => true,
            _ => false,
        }
    }

    /// True while the scan is inside an (unterminated) string.
    #[must_use]
    pub fn in_string(&self) -> bool {
        self.in_string
    }
}

/// The line-boundary kernel of the NDJSON drivers: per 64-byte block,
/// the newlines that lie outside every string.
///
/// A boundary mask is `eq_mask('\n') & !within_quotes` — the quote
/// classifier (§4.2) does the work 64 bytes per step that the
/// byte-at-a-time [`QuoteScan`] does one byte per step. The two differ in
/// one place: the classifier's add-carry escapes *through* any odd
/// backslash run, while the scalar automaton the drivers are specified
/// against honors backslashes only inside strings. A block holding a
/// backslash outside a string (`eq_mask('\\') & !within_quotes != 0`) is
/// therefore refused — [`boundaries`](Self::boundaries) returns `None`
/// with the state untouched — and goes through [`QuoteScan`] instead. Up
/// to the first such backslash both automata agree (escape marks depend
/// only on lower positions), so a block that is not refused is classified
/// exactly as the scalar automaton would.
///
/// The carried state is the scalar automaton's own two bits, so
/// [`scan_lines`](Self::scan_lines) moves between the kernel and
/// [`QuoteScan`] freely.
///
/// # Examples
///
/// ```
/// use rsq_classify::LineScanner;
/// use rsq_simd::Simd;
///
/// let mut block = [b' '; 64];
/// block[..11].copy_from_slice(b"[1]\n\"a\nb\"\n0");
/// let mut lines = LineScanner::new(Simd::detect());
/// // The newline inside the string is not a boundary.
/// assert_eq!(lines.boundaries(&block), Some(1 << 3 | 1 << 9));
/// assert!(!lines.in_string());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LineScanner<B: Backend = Simd> {
    backend: B,
    state: QuoteState,
}

impl LineScanner {
    /// [`new`](Self::new) on the backend [`Simd::detect`] selects — for
    /// callers that do not otherwise name the SIMD crate.
    #[must_use]
    pub fn detect() -> Self {
        Self::new(Simd::detect())
    }

    /// Advances over `bytes`, calling `boundary` with the offset of every
    /// document boundary in it, in ascending order, and returns the
    /// advanced scanner: one backend dispatch for the whole of `bytes`.
    /// Whole 64-byte blocks go through the block kernel; the blocks it
    /// refuses and the tail go through [`QuoteScan`]. (The scanner travels
    /// by value so its state stays in registers across the blocks.)
    #[inline]
    #[must_use]
    pub fn scan_lines(self, bytes: &[u8], boundary: impl FnMut(usize)) -> Self {
        let state = self.backend.dispatch(ScanLines {
            state: self.state,
            bytes,
            boundary,
        });
        LineScanner { state, ..self }
    }
}

/// [`LineScanner::scan_lines`] as the [`Task`] it dispatches.
struct ScanLines<'a, F> {
    state: QuoteState,
    bytes: &'a [u8],
    boundary: F,
}

impl<F: FnMut(usize)> Task for ScanLines<'_, F> {
    type Output = QuoteState;

    #[inline(always)]
    fn run<B: Backend>(mut self, backend: B) -> QuoteState {
        let mut kernel = LineScanner {
            backend,
            state: self.state,
        };
        let mut blocks = self.bytes.chunks_exact(BLOCK_SIZE);
        let mut base = 0usize;
        for chunk in blocks.by_ref() {
            // PANIC-OK: chunks_exact yields exactly BLOCK_SIZE bytes, so try_into cannot fail
            let block: &Block = chunk.try_into().expect("block sized");
            if let Some(mut mask) = kernel.boundaries(block) {
                while mask != 0 {
                    (self.boundary)(base + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
            } else {
                kernel.scan_scalar(chunk, base, &mut self.boundary);
            }
            base += BLOCK_SIZE;
        }
        kernel.scan_scalar(blocks.remainder(), base, &mut self.boundary);
        kernel.state
    }
}

impl<B: Backend> LineScanner<B> {
    /// A scanner at a line start: outside strings, nothing escaped.
    #[must_use]
    pub fn new(backend: B) -> Self {
        LineScanner {
            backend,
            state: QuoteState::default(),
        }
    }

    /// True when the scan stands inside an (unterminated) string.
    #[must_use]
    pub fn in_string(&self) -> bool {
        self.state.in_string
    }

    /// True when the next byte is escaped by a backslash inside a string.
    #[must_use]
    pub fn escaped(&self) -> bool {
        self.state.next_escaped
    }

    /// Repositions the scan. `escaped` is only meaningful inside a string.
    pub fn set_state(&mut self, in_string: bool, escaped: bool) {
        self.state = QuoteState {
            in_string,
            next_escaped: in_string && escaped,
        };
    }

    /// Classifies one block: the mask of newlines outside strings, with
    /// the state advanced past the block — or `None`, state untouched,
    /// when the block holds a backslash outside a string and must go
    /// through [`QuoteScan`].
    #[inline(always)]
    #[must_use]
    pub fn boundaries(&mut self, block: &Block) -> Option<u64> {
        let mut state = self.state;
        let within = self.backend.classify_quotes(block, &mut state);
        if self.backend.eq_mask(block, b'\\') & !within != 0 {
            return None;
        }
        self.state = state;
        Some(self.backend.eq_mask(block, b'\n') & !within)
    }

    /// [`QuoteScan`] over `run` (which starts at offset `base`), entered
    /// from and leaving to the kernel's two bits of state.
    #[inline(always)]
    fn scan_scalar(&mut self, run: &[u8], base: usize, boundary: &mut impl FnMut(usize)) {
        let mut scan = QuoteScan {
            in_string: self.in_string(),
            escaped: self.escaped(),
        };
        for (i, &b) in run.iter().enumerate() {
            if scan.boundary(b) {
                boundary(base + i);
            }
        }
        self.set_state(scan.in_string, scan.escaped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_in_string(input: &[u8]) -> Vec<bool> {
        let mut out = Vec::with_capacity(input.len());
        let mut inside = false;
        let mut escaped = false;
        for &b in input {
            if inside {
                if escaped {
                    escaped = false;
                    out.push(true);
                } else if b == b'\\' {
                    escaped = true;
                    out.push(true);
                } else if b == b'"' {
                    inside = false;
                    out.push(false);
                } else {
                    out.push(true);
                }
            } else if b == b'"' {
                inside = true;
                out.push(true);
            } else {
                out.push(false);
            }
        }
        out
    }

    #[test]
    fn matches_scalar_reference_across_blocks() {
        let mut input = br#"{"a": "x", "long": ""#.to_vec();
        input.extend(std::iter::repeat_n(b'y', 100));
        input.extend_from_slice(br#"", "z": [1, "q\"w"]}"#);
        let expected = scalar_in_string(&input);
        let mut scanner = QuoteScanner::new(&input, Simd::detect());
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(scanner.in_string_at(i), want, "pos {i}");
        }
    }

    #[test]
    fn sparse_queries_skip_blocks() {
        let mut input = vec![b' '; 300];
        input[0] = b'{';
        input[150] = b'"';
        input[200] = b'"';
        input[299] = b'}';
        let mut scanner = QuoteScanner::new(&input, Simd::detect());
        assert!(!scanner.in_string_at(10));
        assert!(scanner.in_string_at(160));
        assert!(!scanner.in_string_at(250));
        assert!(!scanner.in_string_at(299));
    }

    #[test]
    fn catch_up_moves_forward_only() {
        let input = vec![b'x'; 256];
        let mut scanner = QuoteScanner::new(&input, Simd::detect());
        let early = scanner.resume_state();
        let _ = scanner.in_string_at(130);
        let mid = scanner.resume_state();
        assert_eq!(mid.block_start, 128);
        scanner.catch_up(early); // ignored
        assert_eq!(scanner.resume_state().block_start, 128);
        scanner.catch_up(ResumeState {
            block_start: 192,
            quote_state: QuoteState::default(),
        });
        assert_eq!(scanner.resume_state().block_start, 192);
    }

    #[test]
    fn line_scanner_refuses_a_backslash_outside_a_string() {
        let mut block = [b' '; BLOCK_SIZE];
        block[..6].copy_from_slice(b"a\" \\\n\n");
        let mut lines = LineScanner::new(Simd::detect());
        // Entered inside a string, the quote closes it and the backslash
        // stands outside: the scalar automaton ignores it, the classifier
        // would escape the newline after it.
        lines.set_state(true, false);
        assert_eq!(lines.boundaries(&block), None);
        assert!(lines.in_string(), "a refused block leaves the state alone");
        // Entered outside, the same quote opens a string that never
        // closes: an ordinary escape, and no newline is a boundary.
        lines.set_state(false, false);
        assert_eq!(lines.boundaries(&block), Some(0));
        assert!(lines.in_string() && !lines.escaped());
    }

    #[test]
    #[should_panic(expected = "cannot move backwards")]
    fn backwards_query_panics() {
        let input = vec![b'x'; 256];
        let mut scanner = QuoteScanner::new(&input, Simd::detect());
        let _ = scanner.in_string_at(200);
        let _ = scanner.in_string_at(10);
    }
}
