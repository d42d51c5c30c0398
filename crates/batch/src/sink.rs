//! What a run gathers and how every front end prints it: [`DocSink`],
//! the one sink they run the engine into, and [`render`], the one
//! writer of its [`Matches`] for the CLI, `--batch-*` and serve alike.
//!
//! In [`ResponseMode::Values`] a value is cut while its bytes are hot
//! (DESIGN.md §15.5): at record time one 64-byte load at the match finds
//! the end of a short atom or of a string with no escape, and the value's
//! bytes are copied to the held output then, from L1.
//! Any other match is held as its start and spanned by
//! [`rsq_json::node_span`] when it is written, after the run.

use rsq_engine::{Engine, Sink, SinkFull};
use rsq_simd::{AcceptanceGroups, BackendKind, Block, ByteSet, Simd, TablePair, BLOCK_SIZE};
use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// What the front ends write back for each processed document:
/// the CLI, `--batch-*` and serve have the same three output modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseMode {
    /// One line per document: the match count.
    Count,
    /// One line per match: the byte offset.
    Positions,
    /// One line per match: the matched node's text.
    Values,
}

/// What a run found, in the form its output mode renders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Matches {
    /// Only the number of matches.
    Count(u64),
    /// Every match offset, in document order.
    Positions(Vec<usize>),
    /// Every matched value (boxed: a batch keeps one per document).
    Values(Box<Values>),
}

impl Matches {
    /// The number of matches.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            Matches::Count(count) => *count,
            Matches::Positions(positions) => positions.len() as u64,
            Matches::Values(values) => values.count,
        }
    }

    /// The match offsets (empty unless positions were gathered).
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        match self {
            Matches::Positions(positions) => positions,
            Matches::Count(_) | Matches::Values(_) => &[],
        }
    }
}

/// The matched values of one run, held until they are written: the bytes
/// of each value one 64-byte load at its start shows whole, the start of
/// any other; no more, as each fresh page costs a fault (DESIGN.md §15.5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Values {
    /// The copied values, each followed by `\n`, back to back.
    lines: Vec<u8>,
    /// The other matches: where in `lines` each one's line goes, its start.
    deferred: Vec<(usize, usize)>,
    /// Matches held, copied or not.
    count: u64,
}

impl Values {
    /// Holds the match at `pos` of `doc`; out of line, so that the other
    /// arms of [`DocSink::record`] compile as they would without it.
    #[inline(never)]
    fn hold(&mut self, simd: Simd, doc: &[u8], pos: usize) {
        self.count += 1;
        let filled = self.lines.len();
        let Some((block, len)) = cut(simd, doc, pos) else {
            self.deferred.push((filled, pos));
            return;
        };
        // One fixed-size move of the load, cut back to the value.
        self.lines.extend_from_slice(block);
        self.lines.truncate(filled + len);
        self.lines.push(b'\n');
    }

    /// Forgets what was held, keeping the buffers.
    fn clear(&mut self) {
        self.lines.clear();
        self.deferred.clear();
        self.count = 0;
    }

    /// Writes the held values, each deferred match spanned from `doc`.
    fn write(&self, out: &mut impl Write, doc: &[u8]) -> io::Result<()> {
        let mut at = 0;
        for &(line, pos) in &self.deferred {
            write_blocks(out, self.lines.get(at..line).unwrap_or_default())?;
            // Raw passthrough (DESIGN.md §15): the document's own bytes;
            // an unterminated span (truncated input) is `<malformed>`.
            match rsq_json::node_span(doc, pos).and_then(|span| doc.get(span)) {
                Some(value) => out.write_all(value)?,
                None => out.write_all(b"<malformed>")?,
            }
            out.write_all(b"\n")?;
            at = line;
        }
        write_blocks(out, self.lines.get(at..).unwrap_or_default())
    }
}

/// Writes `bytes` in blocks of 64 KiB, stdout's.
fn write_blocks(out: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    bytes.chunks(64 * 1024).try_for_each(|b| out.write_all(b))
}

/// The bytes that end an atom, as [`rsq_json::node_span`] reads them.
fn atom_ends() -> &'static TablePair {
    static ENDS: OnceLock<TablePair> = OnceLock::new();
    ENDS.get_or_init(|| {
        let groups = AcceptanceGroups::compute(&ByteSet::from_bytes(b",}] \t\n\r"));
        TablePair::few_groups(groups.groups())
    })
}

/// The block-wide cut: the 64-byte load at `pos` of `doc` and the length
/// of the value there (`node_span`'s) when the load shows a string's
/// closing quote with no backslash before it, or an atom's delimiter.
/// `None` (spanned later) for a composite, an escape, a longer value, and
/// a load past the end of the document.
fn cut(simd: Simd, doc: &[u8], pos: usize) -> Option<(&Block, usize)> {
    let block: &Block = doc
        .get(pos..pos.checked_add(BLOCK_SIZE)?)?
        .try_into()
        .ok()?;
    let [first, ..] = *block;
    let len = match first {
        b'{' | b'[' => return None,
        b'"' => {
            let (backslash, quote) = simd.eq_mask2(block, b'\\', b'"');
            // Bit 0 is the opening quote; 64 is no closing one.
            let close = (quote & !1).trailing_zeros();
            if close == 64 || backslash.trailing_zeros() < close {
                return None;
            }
            close as usize + 1
        }
        _ => match simd.lookup_or_mask(block, atom_ends()).trailing_zeros() {
            64 => return None,
            end => end as usize,
        },
    };
    Some((block, len))
}

/// Writes what one document matched — exactly the bytes every front end
/// prints for it: the count, one offset per line, or one matched value
/// per line. `doc` is read only for values the cut left to be spanned.
///
/// # Errors
///
/// The writer's.
pub fn render(out: &mut impl Write, doc: &[u8], matches: &Matches) -> io::Result<()> {
    crate::sync::assert_no_lock_held();
    match matches {
        Matches::Count(count) => writeln!(out, "{count}"),
        Matches::Positions(positions) => positions
            .iter()
            .try_for_each(|&p| out.write_all(decimal_line(p, &mut [0; DECIMAL_LINE]))),
        Matches::Values(values) => values.write(out, doc),
    }
}

/// The longest [`decimal_line`]: `usize::MAX`'s 20 digits and the newline.
pub(crate) const DECIMAL_LINE: usize = 21;

/// `n` in decimal and a newline, formatted into the end of `buf` — what
/// `writeln!` writes, without its formatting machinery per line.
pub(crate) fn decimal_line(mut n: usize, buf: &mut [u8; DECIMAL_LINE]) -> &[u8] {
    let mut len = 1;
    let mut bytes = buf.iter_mut().rev();
    if let Some(newline) = bytes.next() {
        *newline = b'\n';
    }
    for digit in bytes {
        *digit = b'0' + (n % 10) as u8;
        len += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.get(DECIMAL_LINE - len..).unwrap_or_default()
}

/// The one sink the front ends run the engine into — one type, so the
/// engine's loops are instantiated once per recorder however many output
/// modes and deadline settings there are (its lifetime, the document's,
/// is no type of its own). It counts, records positions, or holds values
/// as its [`ResponseMode`] renders them, and with a deadline set it
/// checks the wall clock every few records: the matching-phase half of a
/// per-document deadline. Tripping reports [`SinkFull`] — a *clean* early
/// stop for the engine — and [`runner::run`](crate::runner::run)
/// turns the flag into a timeout outcome.
#[derive(Debug)]
pub struct DocSink<'d> {
    matches: Matches,
    /// What a values sink cuts from, and with: set by `runner::run`.
    doc: &'d [u8],
    simd: Simd,
    pub(crate) deadline: Option<Instant>,
    since_check: u32,
    pub(crate) expired: bool,
}

impl<'d> DocSink<'d> {
    /// Records between clock reads. The engine can emit matches at
    /// hundreds of millions per second; reading the clock every record
    /// would dominate. 64 keeps the deadline granular to microseconds
    /// of overrun at worst.
    const CHECK_EVERY: u32 = 64;

    /// A sink gathering what `mode` renders, giving up once `deadline`
    /// has passed.
    #[must_use]
    pub fn new(mode: ResponseMode, deadline: Option<Instant>) -> Self {
        DocSink {
            matches: match mode {
                ResponseMode::Count => Matches::Count(0),
                ResponseMode::Positions => Matches::Positions(Vec::new()),
                ResponseMode::Values => Matches::Values(Box::default()),
            },
            doc: &[],
            simd: Simd::with_kind(BackendKind::Swar),
            deadline,
            since_check: 0,
            expired: false,
        }
    }

    /// Points the sink at the run of `engine` over `doc`.
    pub(crate) fn bind(&mut self, engine: &Engine, doc: &'d [u8]) {
        self.doc = doc;
        self.simd = engine.simd();
    }

    /// What has been gathered so far.
    #[must_use]
    pub fn matches(&self) -> &Matches {
        &self.matches
    }

    /// Consumes the sink, returning what it gathered.
    #[must_use]
    pub fn into_matches(self) -> Matches {
        self.matches
    }

    /// Forgets the gathered matches, keeping the buffers' capacity, so a
    /// worker reuses one sink across its documents.
    pub fn clear(&mut self) {
        match &mut self.matches {
            Matches::Count(count) => *count = 0,
            Matches::Positions(positions) => positions.clear(),
            Matches::Values(values) => values.clear(),
        }
        self.since_check = 0;
        self.expired = false;
    }
}

impl Sink for DocSink<'_> {
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        if let Some(deadline) = self.deadline {
            self.since_check += 1;
            if self.since_check >= Self::CHECK_EVERY {
                self.since_check = 0;
                if Instant::now() >= deadline {
                    self.expired = true;
                    return Err(SinkFull);
                }
            }
        }
        match &mut self.matches {
            Matches::Count(count) => *count += 1,
            Matches::Positions(positions) => positions.push(pos),
            Matches::Values(values) => values.hold(self.simd, self.doc, pos),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The post-pass render the held form replaces: every match spanned
    /// by `node_span` after the run.
    fn spanned(doc: &[u8], positions: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        for &p in positions {
            match rsq_json::node_span(doc, p) {
                Some(span) => out.extend_from_slice(&doc[span]),
                None => out.extend_from_slice(b"<malformed>"),
            }
            out.push(b'\n');
        }
        out
    }

    /// Holds every offset of `doc` in a values sink on `simd`.
    fn held(simd: Simd, doc: &[u8], positions: &[usize]) -> Values {
        let mut values = Values::default();
        for &p in positions {
            values.hold(simd, doc, p);
        }
        values
    }

    /// A document of `len` bytes drawn from an alphabet dense in what ends
    /// a value: quotes, backslashes (and `\\"`), digits, literals,
    /// whitespace, brackets; an xorshift stream keeps it reproducible.
    fn document(seed: u64, len: usize) -> Vec<u8> {
        const PIECES: [&[u8]; 16] = [
            b"\"", b"\\", b"\\\\\"", b"1", b"-2.5e3", b"true", b"null", b" ", b"\n", b"\t", b",",
            b"]", b"}", b"[", b"{", b"ab",
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut doc = Vec::with_capacity(len + 8);
        while doc.len() < len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            doc.extend_from_slice(PIECES[(state % 16) as usize]);
            // Long runs put value ends at and past the load's edge.
            if state.is_multiple_of(29) {
                doc.extend(std::iter::repeat_n(b'x', (state >> 8) as usize % 80));
            }
        }
        doc.truncate(len);
        doc
    }

    fn backends() -> impl Iterator<Item = Simd> {
        BackendKind::supported().map(Simd::with_kind)
    }

    #[test]
    fn the_cut_agrees_with_node_span_at_every_offset_on_every_backend() {
        let mut docs: Vec<Vec<u8>> = (0..40).map(|seed| document(seed, 300)).collect();
        // Values ending at bytes 62–65 of the load, and at the document's
        // last byte; atoms longer than the load; unterminated tails.
        for end in 60..68 {
            let string = [b"\"".as_slice(), &vec![b'a'; end - 2], b"\""].concat();
            docs.push([string.as_slice(), b", 1"].concat());
            docs.push(string.clone());
            docs.push([b"1".as_slice(), &vec![b'0'; end - 1], b"]"].concat());
            docs.push(vec![b'7'; end]);
            docs.push([b"\"".as_slice(), &vec![b'a'; end - 2], b"\\\""].concat());
        }
        docs.push(b"\"unterminated".to_vec());
        docs.push(b"[\"a\", {\"b\": \"c".to_vec());
        for simd in backends() {
            for doc in &docs {
                let all: Vec<usize> = (0..doc.len()).collect();
                for &p in &all {
                    if let Some((block, len)) = cut(simd, doc, p) {
                        let span = rsq_json::node_span(doc, p);
                        assert_eq!(span, Some(p..p + len), "{simd:?} at {p} of {doc:?}");
                        assert_eq!(&block[..], &doc[p..p + BLOCK_SIZE]);
                    }
                }
                let mut out = Vec::new();
                let values = Matches::Values(Box::new(held(simd, doc, &all)));
                render(&mut out, doc, &values).unwrap();
                assert!(out == spanned(doc, &all), "{simd:?}: {doc:?}");
            }
        }
    }

    #[test]
    fn what_the_load_cannot_show_is_deferred() {
        let simd = Simd::detect();
        let pad = |v: &[u8]| [v, &[b' '; 80]].concat();
        let inline = |v: &[u8]| cut(simd, &pad(v), 0).map(|(_, len)| len);
        assert_eq!(inline(b"\"abc\""), Some(5));
        assert_eq!(inline(b"-12.5e3"), Some(7));
        assert_eq!(inline(b"true"), Some(4));
        assert_eq!(inline(b"\"a\\\"b\""), None, "an escape");
        assert_eq!(inline(b"{\"a\": 1}"), None, "a composite");
        assert_eq!(inline(b"[1]"), None, "a composite");
        assert_eq!(inline(&[b'9'; 70]), None, "longer than the load");
        assert_eq!(cut(simd, b"\"abc\"", 0), None, "the load crosses the end");
    }

    #[test]
    fn no_match_holds_more_than_one_load() {
        let simd = Simd::detect();
        let big = format!(
            "{{\"v\": [{}\"{}\", 1e400, \"{}\"]}}",
            "[1, 2], ".repeat(500),
            "s".repeat(5000),
            "t".repeat(10)
        );
        let doc = big.as_bytes();
        let all: Vec<usize> = (0..doc.len()).collect();
        let values = held(simd, doc, &all);
        let copied = values.count as usize - values.deferred.len();
        assert!(values.lines.len() <= copied * (BLOCK_SIZE + 1));
        // The root composite alone is held as its start.
        let root = held(simd, doc, &[0]);
        assert_eq!((root.lines.len(), root.deferred.len()), (0, 1));
        let mut out = Vec::new();
        render(&mut out, doc, &Matches::Values(Box::new(root))).unwrap();
        assert_eq!(out, [doc, b"\n"].concat());
    }

    #[test]
    fn a_reused_sink_forgets_and_keeps_its_mode() {
        let doc = br#"[1, "a", {"b": 2}]"#;
        let engine = Engine::from_text("$.*").unwrap();
        let mut sink = DocSink::new(ResponseMode::Values, None);
        for _ in 0..2 {
            sink.clear();
            sink.bind(&engine, doc);
            for p in engine.positions(doc) {
                sink.report(p);
            }
            let mut out = Vec::new();
            render(&mut out, doc, sink.matches()).unwrap();
            assert_eq!(out, b"1\n\"a\"\n{\"b\": 2}\n");
            assert_eq!(sink.matches().count(), 3);
        }
    }
}
