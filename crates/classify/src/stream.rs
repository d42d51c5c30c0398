//! The window a [`StructuralIterator`](crate::StructuralIterator) walks
//! when the document arrives from a source instead of as one slice: a
//! bounded buffer of a few windows, refilled at its far edge.
//!
//! Offsets stay global. The buffer holds the bytes `[base, base +
//! filled)`; a refill drops what lies more than one window (the
//! *look-back*) before the oldest byte the cursor still needs, moves the
//! rest to the front and reads until the buffer holds its ring of four
//! windows again. So the pipeline's state between blocks — the quote
//! carry, the depth, the toggles — is all that crosses a refill, as in
//! simdjson's stage 1. What reaches further is bounded explicitly:
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

/// Windows in the ring: one of look-back, the rest read ahead.
const RING_WINDOWS: usize = 4;

/// A streamed input: where its window is refilled from. The window
/// itself, `[base, base + len)`, is the cursor's.
pub(crate) struct Stream<'a> {
    source: &'a mut dyn Refill,
    /// The look-back and the refill granularity, in bytes.
    window: usize,
    eof: bool,
    /// Global offset of the document's first non-whitespace byte, once
    /// read: the value of an atomic document, which a long one may have
    /// dropped by the time the walk ends.
    first_nonws: Option<usize>,
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
    pub(crate) fn new(source: &'a mut dyn Refill, window: usize) -> Self {
        Stream {
            source,
            window: window.max(1),
            eof: false,
            first_nonws: None,
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
    /// more than a window before `keep`, then reads until it holds `need`
    /// (a global offset) and a full ring, or the input ends. Returns the
    /// new window and its base. Once the ring is full its allocation only
    /// moves bytes: its length is the ring's until the input ends.
    #[inline(never)]
    pub(crate) fn fetch(
        &mut self,
        held: Box<[u8]>,
        base: usize,
        keep: usize,
        need: usize,
    ) -> (Box<[u8]>, usize) {
        let mut buf = Vec::from(held);
        let keep = keep
            .saturating_sub(self.window)
            .clamp(base, base + buf.len());
        let dropped = keep - base;
        buf.copy_within(dropped.., 0);
        let mut filled = buf.len() - dropped;
        let want = need.saturating_sub(keep).max(RING_WINDOWS * self.window);
        if buf.len() < want {
            buf.resize(want, 0);
            self.source.held(want);
        }
        while !self.eof && filled < want {
            let n = self.source.refill(&mut buf[filled..want]);
            if n == 0 {
                self.eof = true;
            } else if self.first_nonws.is_none() {
                let chunk = &buf[filled..filled + n];
                if let Some(i) = chunk.iter().position(|&b| !is_ws(b)) {
                    self.first_nonws = Some(keep + filled + i);
                }
            }
            filled += n;
        }
        buf.truncate(filled);
        (buf.into_boxed_slice(), keep)
    }
}

/// JSON insignificant whitespace.
#[inline(always)]
pub(crate) fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}
