//! Match sinks: where the engine reports query matches.
//!
//! The engine streams; it never materializes matched nodes itself. A
//! [`Sink`] receives the byte offset at which each matched node's text
//! starts (in document order). [`CountSink`] mirrors the match counter
//! used in the paper's benchmarks; [`PositionsSink`] records the offsets,
//! for verification and tests. The CLI, batch and serve run their own,
//! `rsq_batch::DocSink`, which also cuts matched values as they are
//! recorded (DESIGN.md §15.5).
//!
//! A sink can stop a run early: [`Sink::record`] returns
//! `Err(`[`SinkFull`]`)` when the sink declines further matches, and the
//! engine unwinds promptly — [`Engine::exec`](crate::Engine::exec)
//! treats this as a successful (voluntary) early exit, not an error.

use std::fmt;

/// The signal a [`Sink`] raises to stop the run: it will not accept more
/// matches. Not an error — the engine exits cleanly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkFull;

impl fmt::Display for SinkFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sink declined further matches")
    }
}

/// Receiver of match reports.
pub trait Sink {
    /// Called once per matched node, in document order, with the byte
    /// offset of the first character of the node's text.
    ///
    /// # Errors
    ///
    /// Return `Err(SinkFull)` to stop the run early; the engine will not
    /// deliver further matches.
    fn record(&mut self, pos: usize) -> Result<(), SinkFull>;

    /// Infallible convenience wrapper around [`record`](Self::record) that
    /// discards the early-stop signal. Useful for callers that always
    /// consume the whole document (e.g. the baseline engines, which have
    /// no early-exit machinery).
    #[inline]
    fn report(&mut self, pos: usize) {
        let _ = self.record(pos);
    }
}

impl<S: Sink + ?Sized> Sink for &mut S {
    #[inline]
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        (**self).record(pos)
    }
}

/// Counts matches — the benchmark sink (the paper replaced JSONSki's
/// `std::vector` result gathering with a plain counter; this is ours).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of matches reported so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Sink for CountSink {
    #[inline]
    fn record(&mut self, _pos: usize) -> Result<(), SinkFull> {
        self.count += 1;
        Ok(())
    }
}

/// Records the byte offset of every match, in document order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PositionsSink {
    positions: Vec<usize>,
}

impl PositionsSink {
    /// A fresh, empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded match offsets.
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Consumes the sink, returning the offsets.
    #[must_use]
    pub fn into_positions(self) -> Vec<usize> {
        self.positions
    }
}

impl Sink for PositionsSink {
    #[inline]
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        self.positions.push(pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::new();
        s.report(3);
        s.report(8);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn positions_sink_records_in_order() {
        let mut s = PositionsSink::new();
        s.report(3);
        s.report(8);
        assert_eq!(s.positions(), &[3, 8]);
        assert_eq!(s.into_positions(), vec![3, 8]);
    }

    #[test]
    fn mut_ref_forwards() {
        fn takes_sink<S: Sink>(mut s: S) {
            s.report(1);
        }
        let mut c = CountSink::new();
        takes_sink(&mut c);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn full_sink_signals_without_erroring_report() {
        struct One {
            got: Option<usize>,
        }
        impl Sink for One {
            fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
                if self.got.is_some() {
                    return Err(SinkFull);
                }
                self.got = Some(pos);
                Ok(())
            }
        }
        let mut s = One { got: None };
        assert_eq!(s.record(5), Ok(()));
        assert_eq!(s.record(9), Err(SinkFull));
        s.report(11); // provided wrapper swallows the signal
        assert_eq!(s.got, Some(5));
    }
}
