//! Failure modes of a fallible engine run.
//!
//! The classic slice API ([`Engine::count`](crate::Engine::count),
//! [`Engine::positions`](crate::Engine::positions)) is lenient: it
//! processes malformed input best-effort and never reports failure.
//! [`Engine::exec`](crate::Engine::exec) surfaces three distinct failure
//! classes as [`RunError`]:
//!
//! * **I/O** — the reader failed (streamed input only);
//! * **resource limits** — a configured cap in
//!   [`EngineOptions`](crate::EngineOptions) tripped, identified by
//!   [`LimitKind`];
//! * **malformed input** — structural validation rejected the document
//!   (strict mode only).

use rsq_classify::ValidationError;
use std::fmt;
use std::io;

/// Which resource limit a run exceeded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// Nesting exceeded [`EngineOptions::max_depth`](crate::EngineOptions::max_depth).
    Depth,
    /// The document grew past
    /// [`EngineOptions::max_document_bytes`](crate::EngineOptions::max_document_bytes).
    DocumentBytes,
    /// A member label examined by the automaton exceeded
    /// [`EngineOptions::max_label_bytes`](crate::EngineOptions::max_label_bytes).
    LabelBytes,
    /// More matches were produced than
    /// [`EngineOptions::max_matches`](crate::EngineOptions::max_matches) allows.
    Matches,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LimitKind::Depth => "nesting depth",
            LimitKind::DocumentBytes => "document size",
            LimitKind::LabelBytes => "label length",
            LimitKind::Matches => "match count",
        })
    }
}

/// Error from a fallible engine run.
#[derive(Debug)]
pub enum RunError {
    /// The input reader failed. Never produced by the slice entry points.
    Io(io::Error),
    /// A resource limit from [`EngineOptions`](crate::EngineOptions)
    /// tripped.
    LimitExceeded {
        /// Which limit.
        kind: LimitKind,
        /// Its configured value (bytes, levels, or matches, per `kind`).
        limit: u64,
    },
    /// Structural validation rejected the document (strict mode only).
    Malformed(ValidationError),
    /// A caller-supplied wall-clock deadline passed before the work
    /// finished. Produced by a streamed [`Input`](crate::Input) and by
    /// [`read_to_end`](crate::read_to_end) with a deadline — slow-loris
    /// protection for serving layers: a client that trickles
    /// bytes slower than the deadline allows is cut off mid-ingest
    /// instead of holding a buffer open forever.
    DeadlineExceeded,
}

impl RunError {
    /// True if this is a limit error of the given kind.
    #[must_use]
    pub fn is_limit(&self, kind: LimitKind) -> bool {
        matches!(self, RunError::LimitExceeded { kind: k, .. } if *k == kind)
    }

    /// True if this is a deadline expiry.
    #[must_use]
    pub fn is_deadline(&self) -> bool {
        matches!(self, RunError::DeadlineExceeded)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io(e) => write!(f, "input error: {e}"),
            RunError::LimitExceeded { kind, limit } => {
                write!(f, "{kind} limit exceeded (limit: {limit})")
            }
            RunError::Malformed(e) => write!(f, "malformed document: {e}"),
            RunError::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Io(e) => Some(e),
            RunError::LimitExceeded { .. } => None,
            RunError::Malformed(e) => Some(e),
            RunError::DeadlineExceeded => None,
        }
    }
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Why the engine's inner loops unwound before end of input. Internal —
/// the public API surfaces these as [`RunError`] (limits) or a clean
/// return ([`SinkFull`](crate::SinkFull)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Interrupt {
    /// The sink declined further matches: a voluntary early stop.
    SinkStop,
    /// An engine-enforced resource limit tripped.
    Limit(LimitKind),
    /// A member label began before the bytes a streamed input still
    /// holds: reported as a label-length limit of the look-back.
    LookBack,
    /// The walker found that nothing in the rest of a streamed document
    /// can match ([`StructuralIterator::exited`]), and attributed the rest
    /// it held to the `exit` bucket: a clean early stop.
    ///
    /// [`StructuralIterator::exited`]: rsq_classify::StructuralIterator::exited
    Exit,
}

impl From<crate::sink::SinkFull> for Interrupt {
    fn from(_: crate::sink::SinkFull) -> Self {
        Interrupt::SinkStop
    }
}
