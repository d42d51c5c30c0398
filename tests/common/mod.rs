//! Shared test infrastructure: a deterministic fault-injecting reader,
//! the slice and streamed runs the suites compare, and the engines the
//! robustness suites feed garbage.

use rsq::engine::NoStats;
use rsq::{CountSink, Engine, EngineOptions, Input, Query, RunError, Sink};
use std::io::{self, Read};

/// The count of a slice run of `doc`, or its error.
#[allow(dead_code)]
pub fn count_slice(engine: &Engine, doc: &[u8]) -> Result<u64, RunError> {
    let mut sink = CountSink::new();
    engine.exec(Input::Slice(doc), &mut sink, &mut NoStats)?;
    Ok(sink.count())
}

/// Six queries, each under six configurations: the defaults, three
/// with one technique off or forced, strict mode, and tight limits.
#[allow(dead_code)]
pub fn engines() -> Vec<Engine> {
    let d = EngineOptions::default();
    let queries = ["$..a", "$.a.b", "$.*.*", "$..a.b[1]", "$", "$..[0]..x"];
    let mut out = Vec::new();
    for q in queries {
        let query = Query::parse(q).unwrap();
        for options in [
            d,
            EngineOptions {
                skip_leaves: false,
                ..d
            },
            EngineOptions {
                checked_head_start: false,
                ..d
            },
            EngineOptions {
                backend: Some(rsq::simd::BackendKind::Swar),
                ..d
            },
            EngineOptions { strict: true, ..d },
            EngineOptions {
                max_depth: 4,
                max_label_bytes: Some(8),
                max_matches: Some(2),
                ..d
            },
        ] {
            out.push(Engine::with_options(&query, options).unwrap());
        }
    }
    out
}

/// A streamed run of what `reader` yields, into `sink`.
#[allow(dead_code)]
pub fn stream(
    engine: &Engine,
    mut reader: impl Read,
    sink: &mut impl Sink,
) -> Result<(), RunError> {
    let input = Input::Reader {
        reader: &mut reader,
        deadline: None,
    };
    engine.exec(input, sink, &mut NoStats).map(drop)
}

/// A reader that delivers its data in pseudo-random short reads (1 to 64
/// bytes), interleaved with transient errors, and optionally truncated —
/// simulating a hostile or flaky byte source. Fully deterministic per
/// seed.
pub struct ChaosReader<'a> {
    data: &'a [u8],
    at: usize,
    state: u64,
    /// Probability (in 1/8ths) that a read returns a transient error.
    error_octile: u64,
    /// Alternates which transient error kind is injected.
    next_would_block: bool,
}

impl<'a> ChaosReader<'a> {
    pub fn new(data: &'a [u8], seed: u64) -> Self {
        ChaosReader {
            data,
            at: 0,
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            error_octile: 2, // every fourth read errors, on average
            next_would_block: false,
        }
    }

    /// A reader that fails with a transient error on (almost) every other
    /// read.
    #[allow(dead_code)]
    pub fn hostile(data: &'a [u8], seed: u64) -> Self {
        let mut r = Self::new(data, seed);
        r.error_octile = 4;
        r
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: deterministic, no external dependency.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Read for ChaosReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.at == self.data.len() {
            return Ok(0);
        }
        let roll = self.next_u64();
        if roll % 8 < self.error_octile {
            self.next_would_block = !self.next_would_block;
            let kind = if self.next_would_block {
                io::ErrorKind::WouldBlock
            } else {
                io::ErrorKind::Interrupted
            };
            return Err(io::Error::new(kind, "injected transient failure"));
        }
        let want = (roll >> 8) as usize % 64 + 1;
        let n = want.min(buf.len()).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}
