//! Chunked document ingest for [`Engine::run_reader`](crate::Engine::run_reader).
//!
//! The engine's query algorithm needs the whole document in memory: both
//! skip-to-label (`memmem` over the full input, §3.3) and the backward
//! `label_before` probes assume random access. The reader path therefore
//! *ingests* rather than streams the query: bytes are pulled through an
//! [`io::Read`] in arbitrary-sized chunks, with three protections applied
//! while they arrive — before the document is buffered whole:
//!
//! * transient read errors ([`Interrupted`](io::ErrorKind::Interrupted)
//!   and [`WouldBlock`](io::ErrorKind::WouldBlock)) are retried, other
//!   I/O errors abort with [`RunError::Io`];
//! * [`max_document_bytes`](crate::EngineOptions::max_document_bytes) is
//!   enforced incrementally, so an unbounded input cannot exhaust memory;
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
use rsq_simd::Simd;
use std::io::{self, Read};
use std::time::Instant;

/// Ingest chunk size. Large enough to amortize syscalls, small enough to
/// keep limit enforcement responsive.
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

/// Reads a whole document from `reader`, enforcing size, depth, and
/// (in strict mode) structural validity while the bytes arrive.
///
/// When `deadline` is set, the read loop checks the wall clock before
/// every read and on every transient-error retry: a source that trickles
/// bytes (or spins on `WouldBlock`) past the deadline aborts with
/// [`RunError::DeadlineExceeded`] instead of holding the buffer open
/// indefinitely. A single read blocked inside the OS cannot be
/// interrupted this way — callers serving sockets should pair the
/// deadline with a read timeout so blocked reads surface as `WouldBlock`.
pub(crate) fn read_document<R: Read>(
    reader: &mut R,
    options: &EngineOptions,
    simd: Simd,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, RunError> {
    let mut validator = StructuralValidator::new(simd)
        .strict(options.strict)
        .with_max_depth(options.max_depth);
    let mut doc = Vec::new();
    let mut chunk = vec![0u8; CHUNK];
    loop {
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(RunError::DeadlineExceeded);
            }
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(limit) = options.max_document_bytes {
                    if doc.len() + n > limit {
                        return Err(RunError::LimitExceeded {
                            kind: LimitKind::DocumentBytes,
                            limit: limit as u64,
                        });
                    }
                }
                validator
                    .feed(&chunk[..n])
                    .map_err(|e| map_validation(e, options))?;
                doc.extend_from_slice(&chunk[..n]);
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
                continue;
            }
            Err(e) => return Err(RunError::Io(e)),
        }
    }
    validator.finish().map_err(|e| map_validation(e, options))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields its data one byte at a time, with an
    /// `Interrupted` error before every byte.
    struct OneByteInterrupted<'a> {
        data: &'a [u8],
        at: usize,
        interrupt_next: bool,
    }

    impl Read for OneByteInterrupted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.interrupt_next = true;
            if self.at == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn retries_interrupted_and_reassembles() {
        let doc = br#"{"a": [1, 2, 3]}"#;
        let mut reader = OneByteInterrupted {
            data: doc,
            at: 0,
            interrupt_next: true,
        };
        let options = EngineOptions::default();
        let got = read_document(&mut reader, &options, Simd::detect(), None).unwrap();
        assert_eq!(got, doc);
    }

    #[test]
    fn document_size_limit_is_incremental() {
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
        let err = read_document(&mut Endless, &options, Simd::detect(), None).unwrap_err();
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
        let err = read_document(&mut Broken, &options, Simd::detect(), None).unwrap_err();
        assert!(matches!(err, RunError::Io(_)), "{err}");
    }

    #[test]
    fn expired_deadline_aborts_ingest() {
        let doc = br#"{"a": 1}"#;
        let options = EngineOptions::default();
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let err =
            read_document(&mut &doc[..], &options, Simd::detect(), Some(deadline)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }

    #[test]
    fn would_block_source_respects_deadline() {
        // A source that never delivers a byte: only the deadline stops it.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
            }
        }
        let options = EngineOptions::default();
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        let err =
            read_document(&mut Stalled, &options, Simd::detect(), Some(deadline)).unwrap_err();
        assert!(err.is_deadline(), "{err}");
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let doc = br#"{"a": [1, 2, 3]}"#;
        let mut reader = OneByteInterrupted {
            data: doc,
            at: 0,
            interrupt_next: true,
        };
        let options = EngineOptions::default();
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        let buf = read_document(&mut reader, &options, Simd::detect(), Some(deadline)).unwrap();
        assert_eq!(buf, doc);
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
        let err = read_document(&mut Openers, &options, Simd::detect(), None).unwrap_err();
        assert!(err.is_limit(LimitKind::Depth), "{err}");
    }
}
