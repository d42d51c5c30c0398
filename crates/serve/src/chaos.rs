//! `ChaosStream`: a deterministic hostile client for the serve layer.
//!
//! The counterpart of the test suite's `ChaosReader` (which exercises
//! the engine's reader path): it replays a fixed byte stream through a
//! seeded RNG that fragments it into pathological chunk sizes (down to
//! one byte), injects transient stalls (`WouldBlock` / `Interrupted`),
//! and optionally ends the stream with a mid-document truncation (a
//! client that hung up politely at the TCP level) or a hard disconnect
//! (a read error mid-stream). Every behaviour is a pure function of
//! [`ChaosPlan`], so a failing plan replays exactly.

use std::io::{self, Read};

/// How the chaos stream ends, beyond ordinary exhaustion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Deliver the whole stream, then clean EOF.
    None,
    /// Deliver only the first `n` bytes, then clean EOF — a client that
    /// vanished between (or in the middle of) documents without an
    /// error at the transport level.
    TruncateAt(usize),
    /// Deliver only the first `n` bytes, then fail every subsequent
    /// read with `ConnectionReset` — a mid-stream disconnect.
    DisconnectAt(usize),
}

/// A complete, replayable description of one hostile client.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPlan {
    /// RNG seed; same seed, same byte-for-byte behaviour.
    pub seed: u64,
    /// Largest chunk a single `read` may deliver (1 = pathological
    /// one-byte fragmentation).
    pub max_chunk: usize,
    /// Out of 8: how often a read stalls with a transient error before
    /// delivering bytes (0 = never, 8 = every read stalls once).
    pub stall_octile: u8,
    /// How the stream ends.
    pub fault: ChaosFault,
}

impl ChaosPlan {
    /// A smooth plan: whole-buffer reads, no stalls, clean EOF.
    #[must_use]
    pub fn smooth(seed: u64) -> Self {
        ChaosPlan {
            seed,
            max_chunk: usize::MAX,
            stall_octile: 0,
            fault: ChaosFault::None,
        }
    }
}

/// A [`Read`] over a byte slice that misbehaves per its [`ChaosPlan`].
#[derive(Debug)]
pub struct ChaosStream<'a> {
    data: &'a [u8],
    at: usize,
    rng: u64,
    plan: ChaosPlan,
    /// Alternates the transient error kind so retry loops see both.
    flip: bool,
    /// Set once the stall for the current position has been taken, so a
    /// stall delays a read but never livelocks it.
    stalled_here: bool,
}

impl<'a> ChaosStream<'a> {
    /// Wraps `data` in a stream that follows `plan`.
    #[must_use]
    pub fn new(data: &'a [u8], plan: ChaosPlan) -> Self {
        ChaosStream {
            data,
            at: 0,
            rng: plan.seed,
            plan,
            flip: false,
            stalled_here: false,
        }
    }

    /// Bytes the plan will deliver in total (the fault cut, if sooner
    /// than the end of the data).
    #[must_use]
    pub fn deliverable(&self) -> usize {
        match self.plan.fault {
            ChaosFault::None => self.data.len(),
            ChaosFault::TruncateAt(n) | ChaosFault::DisconnectAt(n) => self.data.len().min(n),
        }
    }

    /// SplitMix64 step: deterministic, seed-derived.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Read for ChaosStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let end = self.deliverable();
        if self.at >= end {
            return match self.plan.fault {
                ChaosFault::DisconnectAt(_) => Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "chaos: mid-stream disconnect",
                )),
                // Truncation is indistinguishable from clean EOF at the
                // transport level — that is the point of the fault.
                ChaosFault::None | ChaosFault::TruncateAt(_) => Ok(0),
            };
        }
        if !self.stalled_here && self.next_u64() % 8 < u64::from(self.plan.stall_octile) {
            self.stalled_here = true;
            self.flip = !self.flip;
            let kind = if self.flip {
                io::ErrorKind::WouldBlock
            } else {
                io::ErrorKind::Interrupted
            };
            return Err(io::Error::new(kind, "chaos: stall"));
        }
        self.stalled_here = false;
        let cap = self.plan.max_chunk.max(1).min(buf.len()).min(end - self.at);
        let n = 1 + (self.next_u64() as usize) % cap;
        #[expect(
            clippy::indexing_slicing,
            reason = "n <= cap, and cap was clamped to both buf.len() and end - at on the line above"
        )]
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(stream: &mut ChaosStream<'_>) -> (Vec<u8>, io::Result<()>) {
        let mut out = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return (out, Ok(())),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return (out, Err(e)),
            }
        }
    }

    #[test]
    fn delivers_everything_despite_fragmentation_and_stalls() {
        let data: Vec<u8> = (0..=255u8).collect();
        for seed in 0..16 {
            let plan = ChaosPlan {
                seed,
                max_chunk: 3,
                stall_octile: 4,
                fault: ChaosFault::None,
            };
            let (out, end) = drain(&mut ChaosStream::new(&data, plan));
            assert_eq!(out, data, "seed {seed}");
            assert!(end.is_ok());
        }
    }

    #[test]
    fn truncation_is_clean_eof_at_the_cut() {
        let data = b"abcdefghij";
        let plan = ChaosPlan {
            seed: 7,
            max_chunk: 4,
            stall_octile: 0,
            fault: ChaosFault::TruncateAt(6),
        };
        let (out, end) = drain(&mut ChaosStream::new(data, plan));
        assert_eq!(out, b"abcdef");
        assert!(end.is_ok());
    }

    #[test]
    fn disconnect_is_a_hard_error_at_the_cut() {
        let data = b"abcdefghij";
        let plan = ChaosPlan {
            seed: 7,
            max_chunk: 4,
            stall_octile: 2,
            fault: ChaosFault::DisconnectAt(6),
        };
        let (out, end) = drain(&mut ChaosStream::new(data, plan));
        assert_eq!(out, b"abcdef");
        assert_eq!(end.unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn same_plan_replays_identically() {
        let data: Vec<u8> = (0..200u8).collect();
        let plan = ChaosPlan {
            seed: 42,
            max_chunk: 5,
            stall_octile: 3,
            fault: ChaosFault::None,
        };
        let trace = |mut s: ChaosStream<'_>| {
            let mut events = Vec::new();
            let mut buf = [0u8; 8];
            loop {
                match s.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => events.push(format!("ok{n}")),
                    Err(e) => events.push(format!("{:?}", e.kind())),
                }
            }
            events
        };
        assert_eq!(
            trace(ChaosStream::new(&data, plan)),
            trace(ChaosStream::new(&data, plan))
        );
    }

    #[test]
    fn stalls_never_livelock_a_position() {
        let data = b"xy";
        let plan = ChaosPlan {
            seed: 1,
            max_chunk: 1,
            stall_octile: 8,
            fault: ChaosFault::None,
        };
        // Every read stalls once, but the follow-up read at the same
        // position must deliver.
        let (out, end) = drain(&mut ChaosStream::new(data, plan));
        assert_eq!(out, b"xy");
        assert!(end.is_ok());
    }
}
