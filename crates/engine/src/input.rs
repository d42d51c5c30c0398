//! Document ingest: the one loop that copies a document out of an
//! [`io::Read`], whatever it lands in.
//!
//! The engine's query algorithm needs the whole document in memory: both
//! skip-to-label (`memmem` over the full input, §3.3) and the backward
//! `label_before` probes assume random access. Whatever cannot be mapped
//! is therefore *ingested* rather than streamed: [`fill`] reads straight
//! into the tail of a [`Landing`] — a `Vec<u8>` for the library's
//! [`Engine::read_document`](crate::Engine::read_document), the
//! huge-page [`Region`](rsq_mmap::Region) for the drivers — one `read`
//! per pass, no intermediate chunk buffer. [`read_document`] applies
//! three protections while the bytes arrive, before the document is
//! buffered whole:
//!
//! * transient read errors ([`Interrupted`](io::ErrorKind::Interrupted)
//!   and [`WouldBlock`](io::ErrorKind::WouldBlock)) are retried, other
//!   I/O errors abort with [`RunError::Io`];
//! * [`max_document_bytes`](crate::EngineOptions::max_document_bytes) is
//!   enforced incrementally — no read asks for more than one byte past
//!   the limit — so an unbounded input cannot exhaust memory;
//! * an incremental [`StructuralValidator`] runs over every chunk,
//!   enforcing [`max_depth`](crate::EngineOptions::max_depth) always and
//!   full structural validation in [strict](crate::EngineOptions::strict)
//!   mode — a pathological document (e.g. a million unclosed openers)
//!   fails while its bytes stream past, not after buffering.
//!
//! Once ingest completes, the slice engine runs over the buffer, so the
//! reader path is byte-identical to [`Engine::try_run`](crate::Engine::try_run)
//! on the same document by construction — regardless of how the reader
//! fragments its chunks.
//!
//! Note on `WouldBlock`: retrying it makes the call spin-wait on a
//! non-blocking source. The engine has no event loop to yield to; callers
//! integrating with async I/O should buffer the document themselves and
//! use the slice API.

use crate::error::{LimitKind, RunError};
use crate::EngineOptions;
use rsq_classify::{StructuralValidator, ValidationError, ValidationErrorKind};
use rsq_mmap::Landing;
use rsq_simd::Simd;
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

/// Copies everything `reader` yields into a fresh `B`, showing each chunk
/// to `check` as it lands, and giving up once more than `max_bytes` have
/// arrived or `deadline` has passed.
///
/// The wall clock is checked before every read and on every
/// transient-error retry: a source that trickles bytes (or spins on
/// `WouldBlock`) past the deadline aborts with
/// [`RunError::DeadlineExceeded`] instead of holding the buffer open
/// indefinitely. A single read blocked inside the OS cannot be
/// interrupted this way — callers serving sockets should pair the
/// deadline with a read timeout so blocked reads surface as `WouldBlock`.
pub(crate) fn fill<R: Read, B: Landing>(
    reader: &mut R,
    max_bytes: Option<usize>,
    deadline: Option<Instant>,
    mut check: impl FnMut(&[u8]) -> Result<(), RunError>,
) -> Result<B, RunError> {
    let mut doc = B::default();
    let mut filled = 0usize;
    loop {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(RunError::DeadlineExceeded);
        }
        // One byte past the limit is all it takes to know it is passed.
        let want = max_bytes.map_or(CHUNK, |limit| CHUNK.min((limit - filled).saturating_add(1)));
        let tail = &mut doc.tail(filled, want)[..want];
        match reader.read(tail) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(limit) = max_bytes.filter(|&limit| filled + n > limit) {
                    return Err(RunError::LimitExceeded {
                        kind: LimitKind::DocumentBytes,
                        limit: limit as u64,
                    });
                }
                check(&tail[..n])?;
                filled += n;
            }
            Err(e)
                if e.kind() == io::ErrorKind::Interrupted
                    || e.kind() == io::ErrorKind::WouldBlock =>
            {
                // With a deadline armed, a WouldBlock retry yields the
                // CPU so a stalled non-blocking source counts down the
                // clock instead of burning a core.
                if deadline.is_some() && e.kind() == io::ErrorKind::WouldBlock {
                    std::thread::yield_now();
                }
            }
            Err(e) => return Err(RunError::Io(e)),
        }
    }
    doc.finish(filled);
    Ok(doc)
}

/// Copies `reader` to its end into a `B` through the ingest loop —
/// transient errors retried, bytes read in place — with no limit, deadline
/// or validation: for input that is not one document of an engine's (an
/// NDJSON file whose lines are the documents).
///
/// # Errors
///
/// The reader's first non-transient error.
pub fn read_to_end<R: Read, B: Landing>(mut reader: R) -> io::Result<B> {
    // With no limit, no deadline and a check that accepts everything, a
    // read error is the only one `fill` has to return.
    fill(&mut reader, None, None, |_| Ok(())).map_err(|e| match e {
        RunError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    })
}

/// Reads a whole document from `reader` into a `B`, enforcing size,
/// depth, and (in strict mode) structural validity while the bytes
/// arrive, and the `deadline` as [`fill`] does.
pub(crate) fn read_document<R: Read, B: Landing>(
    reader: &mut R,
    options: &EngineOptions,
    simd: Simd,
    deadline: Option<Instant>,
) -> Result<B, RunError> {
    let mut validator = StructuralValidator::new(simd)
        .strict(options.strict)
        .with_max_depth(options.max_depth);
    let doc = fill(reader, options.max_document_bytes, deadline, |chunk| {
        validator
            .feed(chunk)
            .map_err(|e| map_validation(e, options))
    })?;
    validator.finish().map_err(|e| map_validation(e, options))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_mmap::Region;
    use std::time::Duration;

    /// Ingests through both landings and requires them to agree: on the
    /// bytes, or on the error's text.
    fn ingest<R: Read>(
        reader: impl Fn() -> R,
        options: &EngineOptions,
        deadline: Option<Instant>,
    ) -> Result<Vec<u8>, RunError> {
        let simd = Simd::detect();
        let heap: Result<Vec<u8>, _> = read_document(&mut reader(), options, simd, deadline);
        let region: Result<Region, _> = read_document(&mut reader(), options, simd, deadline);
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
        let options = EngineOptions::default();
        let small = br#"{"a": [1, 2, 3]}"#;
        let got = ingest(|| Stutter::new(small, 1), &options, None).unwrap();
        assert_eq!(got, small);
        let big = big_document();
        for step in [1, 7, 4096, CHUNK - 1, CHUNK, usize::MAX] {
            // One byte at a time over the big document is the slow case:
            // give it the first 10 000 bytes only.
            let doc = if step == 1 { &big[..10_000] } else { &big[..] };
            let got = ingest(|| Stutter::new(doc, step), &options, None).unwrap();
            assert!(got == doc, "step {step}");
        }
        assert_eq!(ingest(|| &b""[..], &options, None).unwrap(), b"");
    }

    #[test]
    fn document_size_limit_is_exact_and_never_reads_far_past_it() {
        let doc = big_document();
        for step in [1000, usize::MAX] {
            let options = |limit| EngineOptions {
                max_document_bytes: Some(limit),
                ..EngineOptions::default()
            };
            let fits = ingest(|| Stutter::new(&doc, step), &options(doc.len()), None);
            assert!(fits.unwrap() == doc, "a limit of exactly the length passes");
            for limit in [doc.len() - 1, doc.len() / 2, 0] {
                let err = ingest(|| Stutter::new(&doc, step), &options(limit), None).unwrap_err();
                assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");
                // What the reader handed out before the verdict: nothing is
                // asked for beyond one byte past the limit.
                let mut reader = Stutter::new(&doc, step);
                let simd = Simd::detect();
                read_document::<_, Region>(&mut reader, &options(limit), simd, None).unwrap_err();
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
        let options = EngineOptions {
            max_document_bytes: Some(1 << 20),
            ..EngineOptions::default()
        };
        let err = ingest(|| Endless, &options, None).unwrap_err();
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
        let options = EngineOptions::default();
        let err = ingest(|| Broken, &options, None).unwrap_err();
        assert!(matches!(err, RunError::Io(_)), "{err}");
        let err = read_to_end::<_, Vec<u8>>(Broken).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_to_end_applies_no_limit_and_no_validation() {
        // Deeper than `max_depth`, unbalanced, several documents: all the
        // same to a plain copy.
        let mut bytes = vec![b'['; 5000];
        bytes.extend_from_slice(b"\n}}}\n{\"a\": 1}\n");
        let heap: Vec<u8> = read_to_end(Stutter::new(&bytes, 999)).unwrap();
        let region: Region = read_to_end(Stutter::new(&bytes, 999)).unwrap();
        assert_eq!(heap, bytes);
        assert!(region[..] == bytes[..]);
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
        let options = EngineOptions::default();
        let deadline = Instant::now() + Duration::from_millis(20);
        let mut reader = Trickle { reads: 0, deadline };
        let err = read_document::<_, Region>(&mut reader, &options, Simd::detect(), Some(deadline))
            .unwrap_err();
        assert!(err.is_deadline(), "{err}");
        assert_eq!(reader.reads, 3, "no read is started after the deadline");

        // Already expired: not even the first read happens.
        let doc = br#"{"a": 1}"#;
        let past = Instant::now() - Duration::from_millis(1);
        let mut reader = Stutter::new(doc, 1);
        let err = read_document::<_, Vec<u8>>(&mut reader, &options, Simd::detect(), Some(past))
            .unwrap_err();
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
        let options = EngineOptions::default();
        let deadline = Instant::now() + Duration::from_millis(5);
        let err = ingest(|| Stalled, &options, Some(deadline)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let doc = br#"{"a": [1, 2, 3]}"#;
        let options = EngineOptions::default();
        let deadline = Instant::now() + Duration::from_secs(60);
        let got = ingest(|| Stutter::new(doc, 1), &options, Some(deadline)).unwrap();
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
        let options = EngineOptions::default(); // lenient: depth still enforced
        let err = ingest(|| Openers, &options, None).unwrap_err();
        assert!(err.is_limit(LimitKind::Depth), "{err}");
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
            let err = ingest(|| Stutter::new(&doc, step), &options, None).unwrap_err();
            match err {
                RunError::Malformed(e) => assert_eq!(e.pos, at),
                other => panic!("{other}"),
            }
        }
    }
}
