//! The quote classifier outside the engine (§4.2): [`LineScanner`], the
//! line-boundary kernel of the NDJSON drivers — the quote classifier plus
//! one newline mask, block by block — with the byte-at-a-time
//! [`QuoteScan`] it is specified against for what the block kernel cannot
//! take.
//!
//! Inside the engine the quote classifier has one user, the
//! [`StructuralIterator`](crate::StructuralIterator)'s block cursor, which
//! every other classifier of the run (structural, depth, seek) consumes
//! in turn, so no quote state is ever handed from one to another.

use crate::quotes::QuoteState;
use rsq_simd::{Backend, Block, Simd, Task, BLOCK_SIZE};

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
        // A newline after every byte but a backslash of a document whose
        // strings cross block edges: each is a boundary exactly where the
        // scalar reference stands outside a string.
        let mut doc = br#"{"a": "x", "long": ""#.to_vec();
        doc.extend(std::iter::repeat_n(b'y', 100));
        doc.extend_from_slice(br#"", "z": [1, "q\"w"]}"#);
        let input: Vec<u8> = doc
            .iter()
            .flat_map(|&b| if b == b'\\' { vec![b] } else { vec![b, b'\n'] })
            .collect();
        let inside = scalar_in_string(&input);
        let expected: Vec<usize> = (0..input.len())
            .filter(|&i| input[i] == b'\n' && !inside[i])
            .collect();
        let mut found = Vec::new();
        let lines = LineScanner::detect().scan_lines(&input, |i| found.push(i));
        assert_eq!(found, expected);
        assert!(!lines.in_string());
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
}
