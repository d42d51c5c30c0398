//! Document input: the one loop that reads a document out of an
//! [`io::Read`], whether a run walks it while it arrives or it is copied
//! whole first.
//!
//! [`Feed`] is that loop. Each pass asks the reader for at most one
//! 64 KiB chunk and applies three protections to it before anything else
//! sees it:
//!
//! * transient read errors ([`Interrupted`](io::ErrorKind::Interrupted)
//!   and [`WouldBlock`](io::ErrorKind::WouldBlock)) are retried, other
//!   I/O errors abort with [`RunError::Io`];
//! * [`max_document_bytes`](crate::EngineOptions::max_document_bytes) is
//!   enforced incrementally — no read asks for more than one byte past
//!   the limit — so an unbounded input cannot exhaust memory;
//! * in a streamed run under [strict](crate::EngineOptions::strict) mode,
//!   an incremental [`StructuralValidator`] runs over every chunk,
//!   enforcing structure and [`max_depth`](crate::EngineOptions::max_depth)
//!   over the whole document — a pathological one (e.g. a million
//!   unclosed openers) fails while its bytes stream past;
//!
//! and the wall-clock deadline, if any, is checked before every read.
//! Without strict mode nothing looks inside the bytes here: `max_depth`
//! bounds the nesting the run traverses, on every input path as on a
//! slice, and a skipped subtree is never measured.
//!
//! A streamed run ([`Input::Reader`](crate::Input::Reader)) hands the feed
//! to the structural iterator as its [`Refill`] source: the cursor walks a
//! ring of windows the feed refills (`rsq_classify`'s `stream` module), so
//! memory stays bounded whatever the document's size. A failure ends the
//! input for the run and is reported in its place; a run that stops early
//! still reads and checks the rest, so an input error takes precedence
//! over a run error, as when the whole document was read first. A copy
//! ([`read_to_end`]) reads straight into the tail of a [`Landing`] — a
//! `Vec<u8>` for the library's
//! [`Engine::read_document`](crate::Engine::read_document), the
//! huge-page [`Region`](rsq_mmap::Region) for the drivers' modes that
//! need the whole document — and leaves the bytes' checks to the slice
//! run of them.
//!
//! Note on `WouldBlock`: retrying it makes the call spin-wait on a
//! non-blocking source. The engine has no event loop to yield to; callers
//! integrating with async I/O should buffer the document themselves and
//! use the slice API.

use crate::error::{LimitKind, RunError};
use crate::EngineOptions;
use rsq_classify::{
    Pages, Refill, Source, StructuralValidator, ValidationError, ValidationErrorKind,
};
use rsq_mmap::{Landing, Mapping};
use rsq_simd::Simd;
use std::fs::File;
use std::io::{self, Read};
use std::time::Instant;

/// Bytes asked of the reader per pass. Large enough to amortize syscalls,
/// small enough that the validator finds the chunk still in cache and
/// limit enforcement stays responsive.
const CHUNK: usize = 64 * 1024;

/// Maps a validator verdict onto the engine's error vocabulary: the depth
/// limit is a resource limit, everything else is a malformation.
pub(crate) fn map_validation(err: ValidationError, options: &EngineOptions) -> RunError {
    match err.kind {
        ValidationErrorKind::DepthLimitExceeded { .. } => RunError::LimitExceeded {
            kind: LimitKind::Depth,
            limit: u64::from(options.max_depth),
        },
        _ => RunError::Malformed(err),
    }
}

/// A reader read chunk by chunk, each chunk checked as it lands.
pub(crate) struct Feed<R> {
    reader: R,
    max_bytes: Option<usize>,
    deadline: Option<Instant>,
    /// The strict validator and the options its verdicts are mapped with;
    /// `None` without strict mode, and for input that is not one document.
    validator: Option<(StructuralValidator, EngineOptions)>,
    /// Bytes read so far.
    pub(crate) len: usize,
    /// The reader has ended and the validator has finished.
    ended: bool,
    /// The failure that ended a stream's input.
    failed: Option<RunError>,
    /// The most bytes the stream reading from this feed has held.
    pub(crate) high_water: usize,
    /// Nanoseconds spent taking bytes in, when a profile times them.
    pub(crate) ingest_ns: Option<u64>,
}

impl<R> Feed<R> {
    /// A feed checking one document against `options`, and the
    /// `deadline` before each read.
    pub(crate) fn document(
        reader: R,
        options: &EngineOptions,
        simd: Simd,
        deadline: Option<Instant>,
    ) -> Self {
        let validator = options.strict.then(|| {
            let validator = StructuralValidator::new(simd).with_max_depth(options.max_depth);
            (validator, *options)
        });
        Feed {
            validator,
            ..Feed::new(reader, options.max_document_bytes, deadline)
        }
    }

    /// A feed held to `max_bytes` and `deadline`, with no validation.
    fn new(reader: R, max_bytes: Option<usize>, deadline: Option<Instant>) -> Self {
        Feed {
            reader,
            max_bytes,
            deadline,
            validator: None,
            len: 0,
            ended: false,
            failed: None,
            high_water: 0,
            ingest_ns: None,
        }
    }

    /// Runs `f`, adding its wall time to `ingest_ns` when a profile asks.
    fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let Some(before) = self.ingest_ns else {
            return f(self);
        };
        let t = Instant::now();
        let out = f(self);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ingest_ns = Some(before.saturating_add(ns));
        out
    }

    /// How much of `room` the next chunk may fill: a chunk at most, and
    /// one byte past the size limit at most — all it takes to know that
    /// it is passed.
    fn want(&self, room: usize) -> usize {
        let want = CHUNK.min(room);
        self.max_bytes
            .map_or(want, |limit| want.min((limit - self.len).saturating_add(1)))
    }

    fn check_deadline(&self) -> Result<(), RunError> {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            return Err(RunError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Takes in `chunk`, the input's next bytes, once they pass the size
    /// limit and the validator, and returns its length. An empty chunk
    /// is the end of the input, which passes the validator's final check
    /// or fails.
    fn accept(&mut self, chunk: &[u8]) -> Result<usize, RunError> {
        if chunk.is_empty() {
            if let Some((validator, options)) = &mut self.validator {
                validator.finish().map_err(|e| map_validation(e, options))?;
            }
            self.ended = true;
            return Ok(0);
        }
        if let Some(limit) = self
            .max_bytes
            .filter(|&limit| self.len + chunk.len() > limit)
        {
            return Err(RunError::LimitExceeded {
                kind: LimitKind::DocumentBytes,
                limit: limit as u64,
            });
        }
        if let Some((validator, options)) = &mut self.validator {
            validator
                .feed(chunk)
                .map_err(|e| map_validation(e, options))?;
        }
        self.len += chunk.len();
        Ok(chunk.len())
    }
}

impl<R: Read> Feed<R> {
    /// Reads the next chunk into the front of `buf` and returns its
    /// length, 0 once the input has ended (and, for a document, passed
    /// the validator's final check).
    ///
    /// The wall clock is checked before every read and on every
    /// transient-error retry: a source that trickles bytes (or spins on
    /// `WouldBlock`) past the deadline aborts with
    /// [`RunError::DeadlineExceeded`] instead of holding the input open
    /// indefinitely. A single read blocked inside the OS cannot be
    /// interrupted this way — callers serving sockets should pair the
    /// deadline with a read timeout so blocked reads surface as
    /// `WouldBlock`.
    fn next_chunk(&mut self, buf: &mut [u8]) -> Result<usize, RunError> {
        if self.ended {
            return Ok(0);
        }
        let want = self.want(buf.len());
        loop {
            self.check_deadline()?;
            match self.reader.read(&mut buf[..want]) {
                Ok(n) => return self.accept(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::WouldBlock =>
                {
                    // With a deadline armed, a WouldBlock retry yields the
                    // CPU so a stalled non-blocking source counts down the
                    // clock instead of burning a core.
                    if self.deadline.is_some() && e.kind() == io::ErrorKind::WouldBlock {
                        std::thread::yield_now();
                    }
                }
                Err(e) => return Err(RunError::Io(e)),
            }
        }
    }

    /// Copies everything left into a fresh `B`.
    fn fill<B: Landing>(&mut self) -> Result<B, RunError> {
        let mut doc = B::default();
        let mut filled = 0usize;
        loop {
            let n = self.next_chunk(&mut doc.tail(filled, CHUNK)[..CHUNK])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        doc.finish(filled);
        Ok(doc)
    }
}

impl<R> Feed<R> {
    /// What a source of the stream makes of a chunk's verdict: its
    /// length, or 0 with the failure kept for [`finish`](Feed::finish).
    fn kept(&mut self, chunk: Result<usize, RunError>) -> usize {
        chunk.unwrap_or_else(|e| {
            self.failed.get_or_insert(e);
            0
        })
    }
}

impl<R: Read> Refill for Feed<R> {
    fn refill(&mut self, buf: &mut [u8]) -> usize {
        if self.failed.is_some() {
            return 0;
        }
        let chunk = self.timed(|feed| feed.next_chunk(buf));
        self.kept(chunk)
    }

    fn held(&mut self, bytes: usize) {
        self.high_water = self.high_water.max(bytes);
    }
}

/// The bytes `[start, start + len)` of a regular file: a document that a
/// streamed run reads in place, one mapping per window.
pub(crate) struct FilePages<'f> {
    pub(crate) file: &'f File,
    pub(crate) start: u64,
    pub(crate) len: usize,
}

impl FilePages<'_> {
    /// Maps the document's bytes `[from, to)`, cut at its end.
    fn map(&self, from: usize, to: usize) -> Result<Mapping, RunError> {
        let to = to.min(self.len);
        let from = from.min(to);
        Mapping::of_file(self.file, self.start + from as u64, to - from).map_err(RunError::Io)
    }
}

impl Feed<FilePages<'_>> {
    /// Checks the first bytes of `piece`, the document's next, as
    /// [`next_chunk`](Feed::next_chunk) checks what it reads: at most a
    /// chunk, after the deadline, and an empty `piece` is the end.
    fn next_piece(&mut self, piece: &[u8]) -> Result<usize, RunError> {
        if self.ended {
            return Ok(0);
        }
        self.check_deadline()?;
        let want = self.want(piece.len());
        self.accept(&piece[..want])
    }
}

impl Pages for Feed<FilePages<'_>> {
    fn map(&mut self, from: usize, to: usize) -> Option<Mapping> {
        let window = self.timed(|feed| feed.reader.map(from, to));
        let window = window.map_err(|e| self.kept(Err(e))).ok()?;
        self.high_water = self.high_water.max(window.len());
        Some(window)
    }

    fn check(&mut self, piece: &[u8]) -> usize {
        if self.failed.is_some() {
            return 0;
        }
        let chunk = self.timed(|feed| feed.next_piece(piece));
        self.kept(chunk)
    }
}

/// A feed a streamed run walks: the source it hands the cursor, and how
/// it takes in what the run left of the document.
pub(crate) trait Fed {
    fn source(&mut self) -> Source<'_>;

    /// Takes in (and checks) the next stretch of the input.
    fn rest(&mut self) -> Result<(), RunError>;
}

impl<R> Feed<R>
where
    Feed<R>: Fed,
{
    /// After a streamed run: the failure that ended its input, or else
    /// the first in the rest of the input, which is taken in (and
    /// validated) to its end and dropped — a run that stopped early does
    /// not skip the checks the whole document is owed.
    pub(crate) fn finish(&mut self) -> Result<(), RunError> {
        if let Some(failed) = self.failed.take() {
            return Err(failed);
        }
        while !self.ended {
            self.timed(Fed::rest)?;
        }
        Ok(())
    }
}

impl<R: Read> Fed for Feed<R> {
    fn source(&mut self) -> Source<'_> {
        Source::Read(self)
    }

    fn rest(&mut self) -> Result<(), RunError> {
        let mut scratch = vec![0; CHUNK];
        while self.next_chunk(&mut scratch)? > 0 {}
        Ok(())
    }
}

impl Fed for Feed<FilePages<'_>> {
    fn source(&mut self) -> Source<'_> {
        Source::Pages(self)
    }

    /// Maps as much as a streamed run's ring holds, and checks it.
    fn rest(&mut self) -> Result<(), RunError> {
        let rest = self
            .reader
            .map(self.len, self.len + 4 * crate::STREAM_WINDOW)?;
        let mut at = 0;
        loop {
            let n = self.next_piece(&rest[at..])?;
            at += n;
            if n == 0 || at == rest.len() {
                return Ok(());
            }
        }
    }
}

/// Copies `reader` to its end into a `B`, the one copy loop — transient
/// errors retried, bytes read in place, no read asking for more than one
/// byte past `max_bytes`, `deadline` checked before every read. Nothing
/// looks inside the bytes: a document's are checked by the slice run of
/// them, and an NDJSON input's lines are the documents.
///
/// # Errors
///
/// [`RunError::Io`] on the reader's first non-transient error; a
/// [`DocumentBytes`](LimitKind::DocumentBytes) limit past `max_bytes`;
/// [`RunError::DeadlineExceeded`].
pub fn read_to_end<R: Read, B: Landing>(
    reader: R,
    max_bytes: Option<usize>,
    deadline: Option<Instant>,
) -> Result<B, RunError> {
    Feed::new(reader, max_bytes, deadline).fill()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Input, NoStats, Route};
    use rsq_mmap::Region;
    use std::time::Duration;

    /// Copies through both landings and requires them to agree: on the
    /// bytes, or on the error's text.
    fn copy<R: Read>(
        reader: impl Fn() -> R,
        max_bytes: Option<usize>,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, RunError> {
        let heap: Result<Vec<u8>, _> = read_to_end(reader(), max_bytes, deadline);
        let region: Result<Region, _> = read_to_end(reader(), max_bytes, deadline);
        match (&heap, &region) {
            (Ok(heap), Ok(region)) => assert!(heap[..] == region[..], "landings differ"),
            (Err(heap), Err(region)) => assert_eq!(heap.to_string(), region.to_string()),
            _ => panic!(
                "one landing failed: {:?} / {:?}",
                heap.is_ok(),
                region.is_ok()
            ),
        }
        heap
    }

    /// A streamed run of `$..a` under `options` over what `reader` yields.
    fn exec(options: EngineOptions, mut reader: impl Read) -> Result<Route, RunError> {
        let query = rsq_query::Query::parse("$..a").unwrap();
        let engine = Engine::with_options(&query, options).unwrap();
        let input = Input::Reader {
            reader: &mut reader,
            deadline: None,
        };
        engine.exec(input, &mut crate::CountSink::new(), &mut NoStats)
    }

    /// A reader that yields its data `step` bytes at a time, with a
    /// transient error — `Interrupted` and `WouldBlock` in turn — before
    /// every read that succeeds, and counts the bytes it handed out.
    struct Stutter<'a> {
        data: &'a [u8],
        step: usize,
        at: usize,
        calls: usize,
    }

    impl<'a> Stutter<'a> {
        fn new(data: &'a [u8], step: usize) -> Self {
            Stutter {
                data,
                step,
                at: 0,
                calls: 0,
            }
        }
    }

    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            match self.calls % 4 {
                1 => return Err(io::Error::new(io::ErrorKind::Interrupted, "signal")),
                3 => return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet")),
                _ => {}
            }
            let n = self.step.min(buf.len()).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A few hundred KiB of nested JSON: several passes of the loop and,
    /// in the region, several `mremap` growths.
    fn big_document() -> Vec<u8> {
        let mut doc = b"[".to_vec();
        for i in 0..20_000 {
            doc.extend_from_slice(format!(r#"{{"id": {i}, "tags": ["a", "b]"]}}, "#).as_bytes());
        }
        doc.extend_from_slice(b"0]");
        doc
    }

    #[test]
    fn any_fragmentation_reassembles_byte_identically_in_both_landings() {
        let small = br#"{"a": [1, 2, 3]}"#;
        let got = copy(|| Stutter::new(small, 1), None, None).unwrap();
        assert_eq!(got, small);
        let big = big_document();
        for step in [1, 7, 4096, CHUNK - 1, CHUNK, usize::MAX] {
            // One byte at a time over the big document is the slow case:
            // give it the first 10 000 bytes only.
            let doc = if step == 1 { &big[..10_000] } else { &big[..] };
            let got = copy(|| Stutter::new(doc, step), None, None).unwrap();
            assert!(got == doc, "step {step}");
        }
        assert_eq!(copy(|| &b""[..], None, None).unwrap(), b"");
    }

    #[test]
    fn document_size_limit_is_exact_and_never_reads_far_past_it() {
        let doc = big_document();
        for step in [1000, usize::MAX] {
            let fits = copy(|| Stutter::new(&doc, step), Some(doc.len()), None);
            assert!(fits.unwrap() == doc, "a limit of exactly the length passes");
            for limit in [doc.len() - 1, doc.len() / 2, 0] {
                let err = copy(|| Stutter::new(&doc, step), Some(limit), None).unwrap_err();
                assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");
                // What the reader handed out before the verdict: nothing is
                // asked for beyond one byte past the limit.
                let mut reader = Stutter::new(&doc, step);
                read_to_end::<_, Region>(&mut reader, Some(limit), None).unwrap_err();
                assert_eq!(reader.at, limit + 1, "limit {limit}, step {step}");
            }
        }
        // An endless source is cut off at the limit, not at memory's end.
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b' ');
                Ok(buf.len())
            }
        }
        let err = copy(|| Endless, Some(1 << 20), None).unwrap_err();
        assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");
    }

    #[test]
    fn genuine_io_error_aborts() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "pipe gone"))
            }
        }
        let err = copy(|| Broken, None, None).unwrap_err();
        assert!(
            matches!(&err, RunError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn read_to_end_applies_no_limit_and_no_validation() {
        // Deeper than `max_depth`, unbalanced, several documents: all the
        // same to a plain copy.
        let mut bytes = vec![b'['; 5000];
        bytes.extend_from_slice(b"\n}}}\n{\"a\": 1}\n");
        assert_eq!(
            copy(|| Stutter::new(&bytes, 999), None, None).unwrap(),
            bytes
        );
    }

    #[test]
    fn expired_deadline_stops_a_trickling_reader_before_its_next_read() {
        /// One byte per read; the deadline passes during the third.
        struct Trickle {
            reads: usize,
            deadline: Instant,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.reads += 1;
                if self.reads == 3 {
                    while Instant::now() < self.deadline {
                        std::thread::yield_now();
                    }
                }
                buf[0] = b' ';
                Ok(1)
            }
        }
        let deadline = Instant::now() + Duration::from_millis(20);
        let mut reader = Trickle { reads: 0, deadline };
        let err = read_to_end::<_, Region>(&mut reader, None, Some(deadline)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
        assert_eq!(reader.reads, 3, "no read is started after the deadline");

        // Already expired: not even the first read happens.
        let doc = br#"{"a": 1}"#;
        let past = Instant::now() - Duration::from_millis(1);
        let mut reader = Stutter::new(doc, 1);
        let err = read_to_end::<_, Vec<u8>>(&mut reader, None, Some(past)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
        assert_eq!(reader.calls, 0);
    }

    #[test]
    fn would_block_source_respects_deadline() {
        // A source that never delivers a byte: only the deadline, checked
        // on every retry, stops it.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
        let deadline = Instant::now() + Duration::from_millis(5);
        let err = copy(|| Stalled, None, Some(deadline)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let doc = br#"{"a": [1, 2, 3]}"#;
        let deadline = Instant::now() + Duration::from_secs(60);
        let got = copy(|| Stutter::new(doc, 1), None, Some(deadline)).unwrap();
        assert_eq!(got, doc);
    }

    #[test]
    fn depth_limit_trips_during_ingest() {
        struct Openers;
        impl Read for Openers {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'[');
                Ok(buf.len())
            }
        }
        // Strict: the validator trips depth while the openers arrive.
        let strict = EngineOptions {
            strict: true,
            ..EngineOptions::default()
        };
        let err = exec(strict, Openers).unwrap_err();
        assert!(err.is_limit(LimitKind::Depth), "{err}");
        // Lenient: the run trips depth in what it traverses, but the input
        // goes on to its size limit, whose failure is reported first.
        let lenient = EngineOptions {
            max_document_bytes: Some(1 << 20),
            ..EngineOptions::default()
        };
        let err = exec(lenient, Openers).unwrap_err();
        assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");
    }

    #[test]
    fn strict_verdicts_carry_the_offset_of_the_offending_byte() {
        let options = EngineOptions {
            strict: true,
            ..EngineOptions::default()
        };
        let mut doc = big_document();
        let at = doc.iter().rposition(|&b| b == b'}').unwrap();
        doc[at] = b']';
        for step in [1000, usize::MAX] {
            let err = exec(options, Stutter::new(&doc, step)).unwrap_err();
            match err {
                RunError::Malformed(e) => assert_eq!(e.pos, at),
                other => panic!("{other}"),
            }
        }
    }
}
