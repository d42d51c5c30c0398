//! The window a [`StructuralIterator`](crate::StructuralIterator) walks
//! when the document arrives from a source instead of as one slice: a
//! bounded buffer of a few windows, refilled at its far edge.
//!
//! Offsets stay global. The buffer holds the bytes `[base, base +
//! filled)`; a refill drops what lies more than one window (the
//! *look-back*) before the oldest byte the cursor still needs, moves the
//! rest to the front and reads until the buffer holds its ring of four
//! windows again. A source that is a regular file is not copied: each
//! refill maps exactly the new window's bytes of it and checks the ones
//! it adds, so the cursor reads the page cache in place and holds the
//! same window it would have read. Either way the pipeline's state
//! between blocks — the quote carry, the depth, the toggles — is all that
//! crosses a refill, as in simdjson's stage 1. What reaches further is
//! bounded explicitly:
//!
//! * a backward probe (`label_before`) looks back no further than the
//!   buffer's start, and says so when the label's opening quote lies
//!   before it;
//! * a forward probe (`first_nonws`, `member_after`) refills until it
//!   finds its byte — the one case that grows the buffer past the ring,
//!   by the length of a run of whitespace;
//! * a label search covers only buffered bytes, with a needle-length
//!   overlap across refills, and the blocks it leaps over are
//!   quote-classified before they are dropped.

use rsq_mmap::Mapping;
use std::fmt;

/// Where a stream's bytes come from: the engine's checked reader, which
/// runs validation, limits and the deadline on each chunk before the
/// cursor sees it.
pub trait Refill {
    /// Reads the next bytes of the document into `buf` and returns how
    /// many: 0 at the end of the input — and after a failure, which the
    /// source keeps for its caller to report.
    fn refill(&mut self, buf: &mut [u8]) -> usize;

    /// Told the size of the stream's buffer whenever it is allocated or
    /// grows: the memory the stream holds.
    fn held(&mut self, bytes: usize) {
        let _ = bytes;
    }
}

/// Where a mapped stream's windows come from: a file whose pages the
/// cursor reads in place, each window a mapping of its own, with the
/// engine's checks run on every byte before the cursor sees it.
pub trait Pages {
    /// Maps the document's bytes `[from, to)`, cut at its end, or `None`
    /// when that fails — which the source keeps for its caller to
    /// report.
    fn map(&mut self, from: usize, to: usize) -> Option<Mapping>;

    /// Checks the first bytes of `piece`, the next of the document, and
    /// returns how many passed: 0 at the end of the input (where `piece`
    /// is empty) and after a failure, which the source keeps.
    fn check(&mut self, piece: &[u8]) -> usize;
}

/// A streamed document's source: bytes copied into the stream's ring, or
/// a file's pages mapped window by window.
pub enum Source<'a> {
    /// Read into a ring the stream owns.
    Read(&'a mut dyn Refill),
    /// Mapped in place.
    Pages(&'a mut dyn Pages),
}

/// The bytes the block cursor holds: all of a slice,
/// a copied stream's window, owned, or a mapped stream's window. The
/// slice is the one-window case — the whole input, never refilled — so
/// the pipeline is compiled once for all three (DESIGN.md §7). Each is a
/// pointer and a length in the same place, so reading the window does not
/// branch on which it is.
#[derive(Debug)]
pub(crate) enum Bytes<'a> {
    Slice(&'a [u8]),
    Window(Box<[u8]>),
    Mapped(Mapping),
}

impl Bytes<'_> {
    #[inline(always)]
    pub(crate) fn window(&self) -> &[u8] {
        match self {
            Bytes::Slice(input) => input,
            Bytes::Window(window) => window,
            Bytes::Mapped(window) => window,
        }
    }
}

/// Windows in the ring: one of look-back, the rest read ahead.
const RING_WINDOWS: usize = 4;

/// A streamed input: where its window is refilled from. The window
/// itself, `[base, base + len)`, is the cursor's.
pub(crate) struct Stream<'a> {
    source: Source<'a>,
    /// The look-back and the refill granularity, in bytes.
    window: usize,
    eof: bool,
    /// Global offset of the document's first non-whitespace byte, once
    /// read: the value of an atomic document, which a long one may have
    /// dropped by the time the walk ends.
    first_nonws: Option<usize>,
    /// The walk stopped early: nothing in the rest can match.
    pub(crate) exited: bool,
}

impl fmt::Debug for Stream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stream")
            .field("window", &self.window)
            .field("eof", &self.eof)
            .finish_non_exhaustive()
    }
}

impl<'a> Stream<'a> {
    pub(crate) fn new(source: Source<'a>, window: usize) -> Self {
        Stream {
            source,
            window: window.max(1),
            eof: false,
            first_nonws: None,
            exited: false,
        }
    }

    #[inline(always)]
    pub(crate) fn exhausted(&self) -> bool {
        self.eof
    }

    pub(crate) fn first_nonws(&self) -> Option<usize> {
        self.first_nonws
    }

    /// Takes the window `held`, which starts at `base`: drops its bytes
    /// more than a window before `keep`, then takes in bytes until it
    /// holds `need` (a global offset) and a full ring, or the input ends.
    /// Returns the new window and its base.
    ///
    /// A copied window moves its bytes to the front of its allocation
    /// and reads after them; once the ring is full the allocation only
    /// moves bytes. An empty window's allocation is zeroed by the
    /// allocator (`calloc`), whose fresh pages fault in only as bytes
    /// arrive, so an input shorter than the ring never touches the rest
    /// of it. A mapped window is replaced by a mapping of exactly the new
    /// window's bytes, and only the bytes it adds are checked.
    /// Either way the new window is the same `[base, end)`.
    #[inline(never)]
    pub(crate) fn fetch(
        &mut self,
        held: Bytes<'a>,
        base: usize,
        keep: usize,
        need: usize,
    ) -> (Bytes<'a>, usize) {
        let end = base + held.window().len();
        let keep = keep.saturating_sub(self.window).clamp(base, end);
        let want = need.saturating_sub(keep).max(RING_WINDOWS * self.window);
        let mut filled = end - keep;
        let first_nonws = &mut self.first_nonws;
        let mut arrived = |eof: &mut bool, at: usize, chunk: &[u8]| {
            if chunk.is_empty() {
                *eof = true;
            } else if first_nonws.is_none() {
                if let Some(i) = chunk.iter().position(|&b| !is_ws(b)) {
                    *first_nonws = Some(keep + at + i);
                }
            }
        };
        match &mut self.source {
            Source::Read(source) => {
                let mut buf = match held {
                    Bytes::Window(held) => Vec::from(held),
                    // Before the first fetch.
                    Bytes::Slice(_) | Bytes::Mapped(_) => Vec::new(),
                };
                buf.copy_within(keep - base.., 0);
                if buf.len() < want {
                    if buf.is_empty() {
                        buf = vec![0; want];
                    } else {
                        buf.resize(want, 0);
                    }
                    source.held(want);
                }
                while !self.eof && filled < want {
                    let n = source.refill(&mut buf[filled..want]);
                    arrived(&mut self.eof, filled, &buf[filled..filled + n]);
                    filled += n;
                }
                buf.truncate(filled);
                (Bytes::Window(buf.into_boxed_slice()), keep)
            }
            Source::Pages(pages) => {
                if self.eof && keep == base {
                    return (held, base);
                }
                let to = if self.eof { end } else { keep + want };
                let Some(mut window) = pages.map(keep, to) else {
                    self.eof = true;
                    return (held, base);
                };
                drop(held);
                while !self.eof && filled < want {
                    let n = pages.check(&window[filled..]);
                    arrived(&mut self.eof, filled, &window[filled..filled + n]);
                    filled += n;
                }
                if filled < window.len() {
                    // A failure ended the input inside the window: the
                    // cursor sees only the bytes that passed, as from a
                    // copy (and should this mapping fail as well, the run
                    // ends with the first failure all the same).
                    if let Some(passed) = pages.map(keep, keep + filled) {
                        window = passed;
                    }
                }
                (Bytes::Mapped(window), keep)
            }
        }
    }
}

/// JSON insignificant whitespace.
#[inline(always)]
pub(crate) fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}
