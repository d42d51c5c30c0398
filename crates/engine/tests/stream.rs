//! A streamed run holds a ring of windows of the document, however long
//! the document is.

use rsq_engine::{CountSink, Engine, Input, NoStats, STREAM_WINDOW};
use std::io::{self, Read};

/// `[{"a": {"b": 0}, "pad": "…"}, …]`, made up as it is read: `records`
/// records of 128 bytes, never more than one of them in memory.
struct Records {
    record: Vec<u8>,
    left: usize,
    /// Bytes of the current piece (`[`, a record, `,`, `]`) still to hand out.
    piece: Vec<u8>,
    at: usize,
    closed: bool,
}

impl Records {
    fn new(records: usize) -> Self {
        let mut record = br#"{"a": {"b": 0}, "pad": ""#.to_vec();
        record.resize(126, b'x');
        record.extend_from_slice(br#""}"#);
        Records {
            record,
            left: records,
            piece: b"[".to_vec(),
            at: 0,
            closed: false,
        }
    }
}

impl Read for Records {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut n = 0;
        while n < buf.len() {
            if self.at == self.piece.len() {
                self.at = 0;
                self.piece = match self.left {
                    0 if self.closed => break,
                    0 => {
                        self.closed = true;
                        b"]".to_vec()
                    }
                    left => {
                        self.left -= 1;
                        let mut piece = self.record.clone();
                        if left > 1 {
                            piece.push(b',');
                        }
                        piece
                    }
                };
            }
            let take = (self.piece.len() - self.at).min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&self.piece[self.at..self.at + take]);
            self.at += take;
            n += take;
        }
        Ok(n)
    }
}

#[test]
fn a_long_stream_holds_no_more_than_the_ring() {
    // 32 MiB of records: eight times the ring.
    let records = (32 << 20) / 128;
    // The ring is four windows; it grows only for a probe that must see
    // further ahead (a run of whitespace, a needle longer than it), which
    // these records never ask for. The slack allowed is one read.
    let bound = 4 * STREAM_WINDOW + (64 << 10);
    for query in ["$..b", "$.*.a.b", "$[*].pad"] {
        let engine = Engine::from_text(query).unwrap();
        let mut sink = CountSink::new();
        let reader = Input::Reader {
            reader: &mut Records::new(records),
            deadline: None,
        };
        let (held, _) = engine
            .run_windowed(reader, &mut sink, &mut NoStats, STREAM_WINDOW)
            .unwrap();
        assert_eq!(sink.count(), records as u64, "{query}");
        assert!(held <= bound, "{query}: the stream held {held} bytes");
    }
}
