//! Quote-aware NDJSON splitting — one-shot and incremental.
//!
//! NDJSON (newline-delimited JSON) carries one document per line. A
//! syntactically valid JSON document cannot contain a raw newline inside
//! a string (control characters must be escaped), but a batch layer that
//! serves untrusted corpora cannot assume validity: a lenient engine run
//! over a document with a raw `\n` inside a string must still see the
//! same bytes the producer wrote. The splitter therefore follows the
//! quote/escape automaton the engine's scalar paths use — a `"` toggles
//! string state unless preceded by an odd run of backslashes — and treats
//! a newline as a document boundary *only outside strings*. Braces,
//! brackets, and anything else inside strings never confuse it, because
//! it never looks at them.
//!
//! Blank lines (empty or whitespace-only) are skipped; a trailing `\r`
//! (CRLF input) is trimmed from each document. Offsets returned are
//! ranges into the original buffer, so callers can borrow each document
//! as a subslice without copying.
//!
//! # One scan, two automata
//!
//! [`QuoteScan`] is the specification: a two-bit automaton advanced one
//! byte at a time. Both front-ends run it 64 bytes per step instead,
//! through the engine's quote classifier (§4.2 of the paper; the
//! [`LineScanner`] kernel): per block, `boundaries = eq_mask('\n') &
//! !within_quotes`, and everything *between* boundaries — copying line
//! bytes, the byte cap, blank-line and `\r` bookkeeping — is done once per
//! segment, not once per byte. The classifier and `QuoteScan` disagree in
//! exactly one situation, a backslash *outside* a string (`QuoteScan`
//! ignores it, the classifier escapes through it); the kernel detects
//! that per block and refuses the block, which then goes through
//! `QuoteScan` byte by byte. So do the last `len % 64` bytes of every
//! scan. The result is byte-identical to the scalar automaton on every
//! input, which the differential tests below check against a verbatim
//! copy of the old per-byte loops on all three SIMD backends.
//!
//! The two front-ends:
//!
//! * [`split_ndjson`] — the one-shot batch splitter over a fully
//!   resident buffer, returning borrowed ranges;
//! * [`NdjsonFramer`] — the incremental serve-side framer, fed
//!   arbitrarily fragmented chunks (a 1-byte chunk may split an escape
//!   sequence or a CRLF pair), carrying string/escape state across chunk
//!   boundaries and never buffering more than a configured byte cap. Its
//!   line buffers can come from, and go back to, a [`DocBuffers`] free
//!   list, so a long-lived connection stops allocating per document.
//!
//! The two are differentially tested against each other: for any input
//! and any chunk plan, the framer's documents are byte-identical to the
//! splitter's.

use crate::sync::Lock;
use rsq_engine::LineScanner;
use std::ops::Range;
use std::sync::Arc;

pub use rsq_engine::QuoteScan;

/// Splits an NDJSON buffer into one byte range per document.
///
/// Newlines inside JSON strings (tracked with a quote/escape scan) do
/// not split; blank lines are skipped; a trailing `\r` is trimmed from
/// each line. An unterminated string swallows the rest of the input into
/// the final document — deterministic, and the lenient engine will
/// process it best-effort like any other malformed input.
///
/// # Examples
///
/// ```
/// let input = b"{\"a\": 1}\n\n{\"b\": \"x\\ny\"}\n";
/// let docs = rsq_batch::split_ndjson(input);
/// assert_eq!(docs.len(), 2);
/// assert_eq!(&input[docs[0].clone()], b"{\"a\": 1}");
/// ```
#[must_use]
pub fn split_ndjson(input: &[u8]) -> Vec<Range<usize>> {
    Windows::new(LineScanner::detect(), input, usize::MAX)
        .next()
        .unwrap_or_default()
}

/// Input bytes per window of [`Windows`] as the batch run splits them:
/// small enough that the workers start after a fraction of a millisecond
/// of splitting, large enough (hundreds of 2 KB documents) that
/// publishing a window costs nothing next to running it.
pub(crate) const WINDOW_BYTES: usize = 1 << 20;

/// [`split_ndjson`] a window at a time: each item holds the ranges of the
/// documents whose line *ends* within the next `window` bytes of input
/// (the unterminated last line ends with the input), so the items,
/// concatenated, are `split_ndjson`'s ranges whatever the window — the
/// scanner's string state and the start of the open line are carried
/// across the edges. At least one item, possibly empty.
#[derive(Debug)]
pub(crate) struct Windows<'a> {
    scan: LineScanner,
    input: &'a [u8],
    window: usize,
    /// Bytes scanned so far; `None` once the last window has been yielded.
    at: Option<usize>,
    /// Where the line the scan stands in began.
    line_start: usize,
}

impl<'a> Windows<'a> {
    pub(crate) fn new(kernel: LineScanner, input: &'a [u8], window: usize) -> Self {
        Windows {
            scan: kernel,
            input,
            window: window.max(1),
            at: Some(0),
            line_start: 0,
        }
    }
}

impl Iterator for Windows<'_> {
    type Item = Vec<Range<usize>>;

    fn next(&mut self) -> Option<Vec<Range<usize>>> {
        let input = self.input;
        let from = self.at?;
        let to = from.saturating_add(self.window).min(input.len());
        let mut docs = Vec::new();
        let mut start = self.line_start;
        #[expect(
            clippy::indexing_slicing,
            reason = "from <= to <= input.len(): `at` only ever holds an earlier `to`"
        )]
        let window = &input[from..to];
        self.scan = self.scan.scan_lines(window, |i| {
            push_line(input, start, from + i, &mut docs);
            start = from + i + 1;
        });
        self.line_start = start;
        self.at = (to < input.len()).then_some(to);
        if self.at.is_none() {
            push_line(input, start, input.len(), &mut docs);
        }
        Some(docs)
    }
}

/// Appends `input[start..end]` (trailing `\r` trimmed) unless the line is
/// blank.
fn push_line(input: &[u8], start: usize, mut end: usize, docs: &mut Vec<Range<usize>>) {
    #[expect(
        clippy::indexing_slicing,
        reason = "end > start on the same line guards end - 1; end <= input.len() is the scanner's invariant"
    )]
    if end > start && input[end - 1] == b'\r' {
        end -= 1;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "start <= end <= input.len() by the scanner's invariant"
    )]
    if input[start..end].iter().any(|b| !b.is_ascii_whitespace()) {
        docs.push(start..end);
    }
}

/// A bounded free list of document buffers, shared between the thread
/// that frames documents and the threads that finish with them.
///
/// [`Frame::Doc`] hands each line out as an owned `Vec<u8>`; without
/// this, every document costs a fresh vector grown by doubling. A
/// consumer that is done with a document [`put`](Self::put)s the vector
/// back and the framer [`take`](Self::take)s it for a later line, most
/// recently returned first (the warm one). The list holds at most
/// `max_bytes` of capacity; a buffer that would exceed that is dropped,
/// so one huge document does not pin its allocation for the rest of the
/// connection.
#[derive(Debug)]
pub struct DocBuffers {
    free: Lock<Vec<Vec<u8>>>,
    max_bytes: usize,
}

impl DocBuffers {
    /// An empty list that will park at most `max_bytes` of capacity.
    #[must_use]
    pub fn new(max_bytes: usize) -> Self {
        DocBuffers {
            free: Lock::new(Vec::new()),
            max_bytes,
        }
    }

    /// Returns a buffer its holder is done with. Dropped instead when
    /// parking it would exceed the list's byte bound.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        // The list is a handful of buffers (a connection's window).
        let parked: usize = free.iter().map(Vec::capacity).sum();
        if parked.saturating_add(buf.capacity()) <= self.max_bytes {
            free.push(buf);
        }
    }

    /// The most recently returned buffer (empty, capacity retained), if
    /// any is parked.
    #[must_use]
    pub fn take(&self) -> Option<Vec<u8>> {
        self.free.lock().pop()
    }
}

/// One framed unit produced by [`NdjsonFramer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete document line (trailing `\r` already trimmed), owned
    /// because the source chunks are gone by the time the line closes.
    Doc(Vec<u8>),
    /// A line that exceeded the framer's byte cap. Its bytes were
    /// discarded as they arrived — the framer never buffers more than
    /// the cap (plus one slack byte for `\r` trimming) — so only the
    /// running length is known.
    Oversize {
        /// Bytes of the line seen so far (at least `limit + 1`,
        /// counting a trailing `\r` if present).
        bytes_seen: u64,
        /// The configured cap that tripped.
        limit: usize,
    },
}

/// Incremental, quote-aware NDJSON framer for chunk streams.
///
/// The serve-side counterpart of [`split_ndjson`]: bytes arrive in
/// arbitrarily fragmented chunks (a chunk boundary may fall between a
/// backslash and the byte it escapes, or inside a CRLF pair) and the
/// framer carries the [`QuoteScan`] state across them. Semantics are
/// byte-identical to the one-shot splitter on the concatenated input:
/// newlines inside strings don't split, blank lines are skipped, one
/// trailing `\r` is trimmed per line, and [`finish`](Self::finish)
/// treats end-of-stream like the splitter's final unterminated line.
///
/// The one divergence is deliberate: with a byte cap set, a line longer
/// than the cap is emitted as [`Frame::Oversize`] and its bytes are
/// *discarded on arrival*, so a hostile client streaming an unbounded
/// line costs O(cap) memory, not O(line). A whitespace-only line that
/// exceeds the cap is still silently skipped — the splitter would have
/// skipped it too, and an error there would break parity.
#[derive(Debug)]
pub struct NdjsonFramer {
    scan: LineScanner,
    buf: Vec<u8>,
    max_document_bytes: Option<usize>,
    /// Where line buffers come from once `buf` has been handed out.
    buffers: Option<Arc<DocBuffers>>,
    /// The current line overflowed the cap: discard until boundary.
    overflowing: bool,
    /// Total bytes of the current line.
    line_bytes: u64,
    /// The current line is all-whitespace so far.
    blank: bool,
}

impl NdjsonFramer {
    /// A fresh framer. `max_document_bytes` bounds the per-line buffer;
    /// `None` means unbounded (memory grows with the longest line).
    #[must_use]
    pub fn new(max_document_bytes: Option<usize>) -> Self {
        Self::with_kernel(LineScanner::detect(), max_document_bytes)
    }

    /// [`new`](Self::new) on an explicit kernel (the tests pin each
    /// backend).
    fn with_kernel(kernel: LineScanner, max_document_bytes: Option<usize>) -> Self {
        NdjsonFramer {
            scan: kernel,
            buf: Vec::new(),
            max_document_bytes,
            buffers: None,
            overflowing: false,
            line_bytes: 0,
            blank: true,
        }
    }

    /// Takes the buffer for each new line from `buffers` (when one is
    /// parked there) instead of growing a fresh vector. The consumer of
    /// the [`Frame::Doc`]s is expected to [`DocBuffers::put`] them back.
    #[must_use]
    pub fn recycling(mut self, buffers: Arc<DocBuffers>) -> Self {
        self.buffers = Some(buffers);
        self
    }

    /// Bytes currently buffered for the in-progress line. Never exceeds
    /// the configured cap plus one (the one slack byte lets a line whose
    /// *trimmed* length is exactly the cap keep its trailing `\r` until
    /// the boundary decides).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feeds one chunk, invoking `emit` once per completed frame, in
    /// input order. Chunks may be any size, including empty; state is
    /// carried so fragmentation never changes the emitted frames.
    pub fn push(&mut self, chunk: &[u8], emit: &mut impl FnMut(Frame)) {
        let mut start = 0usize;
        self.scan = self.scan.scan_lines(chunk, |i| {
            #[expect(
                clippy::indexing_slicing,
                reason = "boundaries ascend within the chunk, so start <= i < chunk.len()"
            )]
            self.append(&chunk[start..i]);
            self.close_line(emit);
            start = i + 1;
        });
        #[expect(
            clippy::indexing_slicing,
            reason = "start is at most one past the last boundary, so start <= chunk.len()"
        )]
        self.append(&chunk[start..]);
    }

    /// Ends the stream: a non-empty trailing line (no final newline) is
    /// framed exactly like [`split_ndjson`]'s last line. Returns the
    /// final frame, if any, and resets the framer for reuse.
    pub fn finish(&mut self) -> Option<Frame> {
        let mut last = None;
        if self.line_bytes > 0 {
            let mut emit = |f: Frame| last = Some(f);
            self.close_line(&mut emit);
        }
        self.scan.set_state(false, false);
        last
    }

    /// Adds a boundary-free run of bytes to the current line: what the
    /// per-byte loop did for each of them, once. That loop let the buffer
    /// reach `limit + 1` bytes (one byte of slack: a line of exactly
    /// `limit` content bytes plus a trailing `\r` must not trip — the
    /// `\r` is trimmed at the boundary, and whether the cap really tripped
    /// is decided in `close_line`) and discarded the line at the byte
    /// after that.
    fn append(&mut self, segment: &[u8]) {
        if segment.is_empty() {
            return;
        }
        self.blank = self.blank && segment.iter().all(u8::is_ascii_whitespace);
        self.line_bytes += segment.len() as u64;
        if self.overflowing {
            return;
        }
        if let Some(limit) = self.max_document_bytes {
            if segment.len() > limit.saturating_add(1) - self.buf.len() {
                self.overflowing = true;
                self.buf.clear();
                return;
            }
        }
        if self.buf.capacity() == 0 {
            if let Some(spare) = self.buffers.as_ref().and_then(|b| b.take()) {
                self.buf = spare;
            }
        }
        self.buf.extend_from_slice(segment);
    }

    /// Closes the current line at a boundary (or at end of stream):
    /// skips it if blank, emits `Oversize` if the cap tripped, otherwise
    /// trims one trailing `\r` and emits the document.
    fn close_line(&mut self, emit: &mut impl FnMut(Frame)) {
        if !self.overflowing {
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
            // The slack byte may still be resident: a trimmed line one
            // byte over the cap is oversize, decided here not in push.
            if self
                .max_document_bytes
                .is_some_and(|limit| self.buf.len() > limit)
            {
                self.overflowing = true;
            }
        }
        if self.overflowing {
            if !self.blank {
                emit(Frame::Oversize {
                    bytes_seen: self.line_bytes,
                    limit: self.max_document_bytes.unwrap_or(0),
                });
            }
        } else if !self.blank {
            emit(Frame::Doc(std::mem::take(&mut self.buf)));
        }
        self.buf.clear();
        self.overflowing = false;
        self.line_bytes = 0;
        self.blank = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8]) -> Vec<&[u8]> {
        split_ndjson(input).into_iter().map(|r| &input[r]).collect()
    }

    /// Frames `input` through the framer in chunks of `step` bytes.
    fn frames(input: &[u8], step: usize, cap: Option<usize>) -> Vec<Frame> {
        let mut out = Vec::new();
        let mut framer = NdjsonFramer::new(cap);
        for chunk in input.chunks(step.max(1)) {
            framer.push(chunk, &mut |f| out.push(f));
        }
        out.extend(framer.finish());
        out
    }

    #[test]
    fn plain_lines_split_on_newlines() {
        assert_eq!(
            lines(b"{\"a\":1}\n[2,3]\ntrue"),
            [&b"{\"a\":1}"[..], b"[2,3]", b"true"]
        );
    }

    #[test]
    fn blank_lines_and_trailing_newline_are_skipped() {
        assert_eq!(lines(b"\n\n{\"a\":1}\n   \n\t\n"), [&b"{\"a\":1}"[..]]);
        assert_eq!(lines(b""), Vec::<&[u8]>::new());
        assert_eq!(lines(b"\n"), Vec::<&[u8]>::new());
    }

    #[test]
    fn crlf_is_trimmed() {
        assert_eq!(
            lines(b"{\"a\":1}\r\n{\"b\":2}\r\n"),
            [&b"{\"a\":1}"[..], b"{\"b\":2}"]
        );
    }

    #[test]
    fn newline_inside_string_does_not_split() {
        let input = b"{\"a\": \"x\ny\"}\n{\"b\": 2}";
        assert_eq!(lines(input), [&b"{\"a\": \"x\ny\"}"[..], b"{\"b\": 2}"]);
    }

    #[test]
    fn escaped_quote_keeps_string_open_across_newline() {
        // The string `"x\"` is still open at the newline: no split there.
        let input = b"{\"a\": \"x\\\"\n\"}\n[1]";
        assert_eq!(lines(input), [&b"{\"a\": \"x\\\"\n\"}"[..], b"[1]"]);
    }

    #[test]
    fn braces_inside_strings_are_ignored() {
        let input = b"{\"a\": \"}{][\"}\n{\"b\": 1}";
        assert_eq!(lines(input), [&b"{\"a\": \"}{][\"}"[..], b"{\"b\": 1}"]);
    }

    #[test]
    fn even_backslash_run_closes_string() {
        // `"x\\"` — the backslash is itself escaped, the quote closes.
        let input = b"{\"a\": \"x\\\\\"}\n[2]";
        assert_eq!(lines(input), [&b"{\"a\": \"x\\\\\"}"[..], b"[2]"]);
    }

    #[test]
    fn unterminated_string_swallows_the_rest() {
        let input = b"{\"a\": \"open\nstill\nsame doc";
        assert_eq!(lines(input), [&input[..]]);
    }

    /// The shared oracle: for a corpus of tricky inputs and every chunk
    /// granularity, the incremental framer must produce exactly the
    /// documents the one-shot splitter does. This is the batch/serve
    /// parity contract the serve layer leans on.
    #[test]
    fn framer_matches_splitter_for_all_chunk_plans() {
        let corpus: &[&[u8]] = &[
            b"{\"a\":1}\n[2,3]\ntrue",
            b"\n\n{\"a\":1}\n   \n\t\n",
            b"",
            b"\n",
            b"{\"a\":1}\r\n{\"b\":2}\r\n",
            b"{\"a\": \"x\ny\"}\n{\"b\": 2}",
            b"{\"a\": \"x\\\"\n\"}\n[1]",
            b"{\"a\": \"}{][\"}\n{\"b\": 1}",
            b"{\"a\": \"x\\\\\"}\n[2]",
            b"{\"a\": \"open\nstill\nsame doc",
            b"no newline at end",
            b"trailing cr\r",
            b"\r\n\r\n{\"x\": \"\\r\\n\"}\r\n",
            b"{\"s\": \"a\\\\\\\"b\"}\n{\"t\": 1}\n",
        ];
        for input in corpus {
            let expect: Vec<Vec<u8>> = split_ndjson(input)
                .into_iter()
                .map(|r| input[r].to_vec())
                .collect();
            for step in 1..=input.len().max(1) {
                let got: Vec<Vec<u8>> = frames(input, step, None)
                    .into_iter()
                    .map(|f| match f {
                        Frame::Doc(d) => d,
                        Frame::Oversize { .. } => panic!("no cap set, no oversize"),
                    })
                    .collect();
                assert_eq!(got, expect, "input {input:?} step {step}");
            }
        }
    }

    #[test]
    fn framer_caps_memory_and_reports_oversize() {
        let long_line: &[u8] = b"{\"long\": \"xxxxxxxxxxxxxxxxxxxxxxxx\"}";
        let mut input = b"{\"short\": 1}\n".to_vec();
        input.extend_from_slice(long_line);
        input.extend_from_slice(b"\n[7]\n");
        for step in [1, 3, input.len()] {
            let got = frames(&input, step, Some(16));
            assert_eq!(
                got,
                vec![
                    Frame::Doc(b"{\"short\": 1}".to_vec()),
                    Frame::Oversize {
                        bytes_seen: long_line.len() as u64,
                        limit: 16
                    },
                    Frame::Doc(b"[7]".to_vec()),
                ],
                "step {step}"
            );
        }
    }

    #[test]
    fn framer_never_buffers_more_than_cap() {
        let mut framer = NdjsonFramer::new(Some(8));
        let mut sink = Vec::new();
        for _ in 0..1000 {
            framer.push(b"xxxxxxxxxxxxxxxx", &mut |f| sink.push(f));
            assert!(framer.buffered() <= 8 + 1, "buffered {}", framer.buffered());
        }
        assert!(sink.is_empty(), "line never closed");
        assert_eq!(
            framer.finish(),
            Some(Frame::Oversize {
                bytes_seen: 16_000,
                limit: 8
            })
        );
    }

    #[test]
    fn oversize_whitespace_only_line_is_skipped() {
        // The splitter would skip it; an Oversize error here would break
        // batch/serve parity.
        let input = b"                \n[1]\n";
        assert_eq!(frames(input, 1, Some(4)), vec![Frame::Doc(b"[1]".to_vec())]);
    }

    #[test]
    fn finish_resets_for_reuse() {
        let mut framer = NdjsonFramer::new(None);
        let mut out = Vec::new();
        framer.push(b"{\"a\": \"open", &mut |f| out.push(f));
        assert_eq!(
            framer.finish(),
            Some(Frame::Doc(b"{\"a\": \"open".to_vec()))
        );
        // The unterminated string must not leak into the next stream.
        framer.push(b"[1]\n", &mut |f| out.push(f));
        assert_eq!(out, vec![Frame::Doc(b"[1]".to_vec())]);
        assert_eq!(framer.finish(), None);
    }

    #[test]
    fn exact_cap_length_line_is_not_oversize() {
        let input = b"[1,2,34]\n";
        assert_eq!(
            frames(input, 1, Some(8)),
            vec![Frame::Doc(b"[1,2,34]".to_vec())]
        );
        assert!(matches!(
            frames(b"[1,2,345]\n", 1, Some(8)).as_slice(),
            [Frame::Oversize {
                bytes_seen: 9,
                limit: 8
            }]
        ));
    }

    // ---- The block kernel against the per-byte loops it replaced ----

    /// The splitter as it was before the block kernel, verbatim: one
    /// `QuoteScan::boundary` call per byte. The oracle.
    fn scalar_split(input: &[u8]) -> Vec<Range<usize>> {
        let mut docs = Vec::new();
        let mut start = 0usize;
        let mut scan = QuoteScan::default();
        for (i, &b) in input.iter().enumerate() {
            if scan.boundary(b) {
                push_line(input, start, i, &mut docs);
                start = i + 1;
            }
        }
        push_line(input, start, input.len(), &mut docs);
        docs
    }

    /// The framer as it was before the block kernel, verbatim: every
    /// byte through `QuoteScan`, the cap check and a `Vec::push`.
    struct ScalarFramer {
        scan: QuoteScan,
        buf: Vec<u8>,
        max_document_bytes: Option<usize>,
        overflowing: bool,
        line_bytes: u64,
        blank: bool,
    }

    impl ScalarFramer {
        fn new(max_document_bytes: Option<usize>) -> Self {
            ScalarFramer {
                scan: QuoteScan::default(),
                buf: Vec::new(),
                max_document_bytes,
                overflowing: false,
                line_bytes: 0,
                blank: true,
            }
        }

        fn push(&mut self, chunk: &[u8], emit: &mut impl FnMut(Frame)) {
            for &b in chunk {
                if self.scan.boundary(b) {
                    self.close_line(emit);
                    continue;
                }
                self.blank = self.blank && b.is_ascii_whitespace();
                self.line_bytes += 1;
                if self.overflowing {
                    continue;
                }
                if let Some(limit) = self.max_document_bytes {
                    if self.buf.len() > limit {
                        self.overflowing = true;
                        self.buf.clear();
                        continue;
                    }
                }
                self.buf.push(b);
            }
        }

        fn finish(&mut self) -> Option<Frame> {
            let mut last = None;
            if self.line_bytes > 0 {
                let mut emit = |f: Frame| last = Some(f);
                self.close_line(&mut emit);
            }
            self.scan = QuoteScan::default();
            last
        }

        fn close_line(&mut self, emit: &mut impl FnMut(Frame)) {
            if !self.overflowing {
                if self.buf.last() == Some(&b'\r') {
                    self.buf.pop();
                }
                if self
                    .max_document_bytes
                    .is_some_and(|limit| self.buf.len() > limit)
                {
                    self.overflowing = true;
                }
            }
            if self.overflowing {
                if !self.blank {
                    emit(Frame::Oversize {
                        bytes_seen: self.line_bytes,
                        limit: self.max_document_bytes.unwrap_or(0),
                    });
                }
            } else if !self.blank {
                emit(Frame::Doc(std::mem::take(&mut self.buf)));
            }
            self.buf.clear();
            self.overflowing = false;
            self.line_bytes = 0;
            self.blank = true;
        }
    }

    /// One kernel per backend this host can run, plus whatever
    /// `RSQ_BACKEND` (or detection) selects — the one `split_ndjson` and
    /// `NdjsonFramer::new` use.
    fn kernels() -> Vec<(String, LineScanner)> {
        use rsq_simd::{BackendKind, Simd};
        let mut out = vec![("detected".to_owned(), LineScanner::detect())];
        for kind in BackendKind::supported() {
            out.push((kind.to_string(), LineScanner::new(Simd::with_kind(kind))));
        }
        out
    }

    /// Inputs dense in the bytes the automata care about, so that quotes,
    /// escapes, CRLF pairs and odd backslash runs land on every offset
    /// relative to the 64-byte block edges — including backslashes
    /// outside strings (the scalar-fallback case) and strings that never
    /// close.
    fn dense_input(rng: &mut rsq_difftest::XorShift64, len: usize) -> Vec<u8> {
        const ALPHABET: &[u8] = b"\"\"\\\\\n\n\r ax{";
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            match rng.below(12) {
                0 => {
                    let run = 1 + rng.below(5);
                    out.extend(std::iter::repeat_n(b'\\', run));
                }
                1 => out.extend_from_slice(b"\r\n"),
                2 => {
                    // A plain stretch, so some blocks hold nothing special.
                    let run = 1 + rng.below(90);
                    out.extend(std::iter::repeat_n(b'y', run));
                }
                _ => out.push(ALPHABET[rng.below(ALPHABET.len())]),
            }
        }
        out.truncate(len);
        out
    }

    fn dense_corpus() -> Vec<Vec<u8>> {
        let mut rng = rsq_difftest::XorShift64::new(0x5EED_0012);
        let mut corpus: Vec<Vec<u8>> = (1..=700).map(|len| dense_input(&mut rng, len)).collect();
        // Hand-placed edges: an escape pair, a CRLF pair and an odd
        // backslash run straddling the first block edge, in and out of a
        // string.
        for pad in 60..=66 {
            for tail in [
                &b"\\\"\n\"\n"[..],
                b"\r\n[1]\r\n",
                b"\\\\\\\"\n\"\n",
                b"\"\\\\\\\"\n\"\n[2]\n",
                b"\"never closed\n\n",
            ] {
                let mut v = vec![b'x'; pad];
                v.extend_from_slice(tail);
                v.extend(std::iter::repeat_n(b'z', 70));
                v.extend_from_slice(b"\n");
                corpus.push(v);
            }
        }
        corpus
    }

    /// Every window size against the scalar loop (and so against each
    /// other, the whole-input window being `split_ndjson`). The hand-placed
    /// inputs of the corpus put a string, an odd backslash run and a CRLF
    /// pair across byte 64, which the windows of 63, 64 and 65 bytes make a
    /// window edge as well as a block edge; a 1-byte window makes every
    /// byte one.
    #[test]
    fn block_splitter_matches_the_scalar_loop_on_every_backend() {
        let corpus = dense_corpus();
        for (name, kernel) in kernels() {
            for input in &corpus {
                let expect = scalar_split(input);
                for window in [1, 63, 64, 65, 4096, usize::MAX] {
                    let windows: Vec<_> = Windows::new(kernel, input, window).collect();
                    assert_eq!(windows.len(), input.len().div_ceil(window).max(1));
                    assert_eq!(
                        windows.concat(),
                        expect,
                        "backend {name}, window {window}, input {:?}",
                        String::from_utf8_lossy(input)
                    );
                }
            }
        }
    }

    /// What the differential test drives: both framers, old and new.
    trait Framing {
        fn feed(&mut self, chunk: &[u8], out: &mut Vec<Frame>);
        fn end(&mut self) -> Option<Frame>;
        fn held(&self) -> usize;
    }

    impl Framing for NdjsonFramer {
        fn feed(&mut self, chunk: &[u8], out: &mut Vec<Frame>) {
            self.push(chunk, &mut |f| out.push(f));
        }
        fn end(&mut self) -> Option<Frame> {
            self.finish()
        }
        fn held(&self) -> usize {
            self.buffered()
        }
    }

    impl Framing for ScalarFramer {
        fn feed(&mut self, chunk: &[u8], out: &mut Vec<Frame>) {
            self.push(chunk, &mut |f| out.push(f));
        }
        fn end(&mut self) -> Option<Frame> {
            self.finish()
        }
        fn held(&self) -> usize {
            self.buf.len()
        }
    }

    /// Frames `input` in chunks of `step` bytes, checking the bytes held
    /// against the cap after every push.
    fn framed(
        mut framer: impl Framing,
        input: &[u8],
        step: usize,
        cap: Option<usize>,
    ) -> Vec<Frame> {
        let mut out = Vec::new();
        for chunk in input.chunks(step) {
            framer.feed(chunk, &mut out);
            if let Some(limit) = cap {
                assert!(
                    framer.held() <= limit + 1,
                    "held {} > cap {limit} + 1",
                    framer.held()
                );
            }
        }
        out.extend(framer.end());
        out
    }

    #[test]
    fn block_framer_matches_the_scalar_framer_for_every_plan_and_cap() {
        let corpus = dense_corpus();
        for (name, kernel) in kernels() {
            // Every fifth input keeps the matrix (backends x plans x caps)
            // quick while still covering all residues of length mod 64.
            for input in corpus.iter().step_by(5) {
                for cap in [None, Some(5), Some(40), Some(100)] {
                    let expect = framed(ScalarFramer::new(cap), input, 1, cap);
                    for step in [1, 63, 64, 65, 200, input.len()] {
                        assert_eq!(
                            framed(NdjsonFramer::with_kernel(kernel, cap), input, step, cap),
                            expect,
                            "backend {name}, cap {cap:?}, step {step}, input {:?}",
                            String::from_utf8_lossy(input)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recycled_buffers_carry_no_bytes_between_documents() {
        let buffers = Arc::new(DocBuffers::new(1 << 10));
        let mut framer = NdjsonFramer::new(None).recycling(Arc::clone(&buffers));
        let mut docs = Vec::new();
        framer.push(b"{\"first\": \"a long enough line\"}\n", &mut |f| {
            docs.push(f)
        });
        let Some(Frame::Doc(first)) = docs.pop() else {
            panic!("one document framed");
        };
        let allocation = first.as_ptr();
        buffers.put(first);
        framer.push(b"[2]\n", &mut |f| docs.push(f));
        let Some(Frame::Doc(second)) = docs.pop() else {
            panic!("one document framed");
        };
        assert_eq!(second, b"[2]");
        assert_eq!(second.as_ptr(), allocation, "the parked buffer was reused");
        assert!(buffers.take().is_none());
    }

    #[test]
    fn doc_buffers_park_at_most_their_byte_bound() {
        let buffers = DocBuffers::new(100);
        buffers.put(Vec::with_capacity(60));
        buffers.put(Vec::with_capacity(60)); // would make 120: dropped
        buffers.put(Vec::new()); // nothing to reuse: dropped
        assert!(buffers.take().is_some_and(|b| b.capacity() >= 60));
        assert!(buffers.take().is_none());
        // Taking gives the room back.
        buffers.put(Vec::with_capacity(60));
        assert!(buffers.take().is_some());
    }
}
