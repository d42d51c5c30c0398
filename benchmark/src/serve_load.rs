//! The load generator for `serve-socket-b1`: one connection, one sender
//! thread, one receiver thread, against a fresh `rsq --serve-socket`
//! process per rep.
//!
//! Phase A is an **open loop**: document `i` is due at `i / RATE` seconds
//! whether or not earlier answers have come back, and its latency is
//! counted from when it was *due*, so a stall is charged to every
//! document it delays. Phase B floods the same documents and drains.

use crate::child::{cli_args, Env, Reaped};
use crate::corpus::Corpus;
use crate::stat;
use crate::workload::Workload;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::Stdio;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Phase A's send rate, documents per second. A constant of the
/// benchmark — about 0.3 × the ~3 200 docs/s the seed commit sustains
/// when flooded on the reference host — never derived from the code
/// under test, so a slower server sees the same load, not less.
pub const OPEN_LOOP_DOCS_PER_S: u64 = 1_000;

/// When document `i` of an open loop at `rate` docs/s is due, in ns
/// after the loop's start.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate)) as u64
}

/// A silent server must fail the rep, not hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One rep: both phases over `docs` documents of the corpus.
pub struct ServeRep {
    /// Phase A, per document, ms from due time to response arrival.
    pub latency_ms: Vec<f64>,
    /// Phase A, per document, µs the sender started late.
    pub gen_late_us: Vec<f64>,
    /// Phase A high-water mark of documents sent but not yet answered.
    pub backlog_max: usize,
    /// Phase B: first byte sent → last response line received.
    pub flood_secs: f64,
    /// Spawn → connection accepted by the kernel.
    pub ready_ms: f64,
    /// Bytes sent over both phases.
    pub bytes_sent: usize,
    pub docs_sent: usize,
    /// Response lines missing, extra or different from the oracle's, plus
    /// one if the server wrote to stderr or died on its own.
    pub failed: usize,
    pub server: Reaped,
}

/// Response `arrivals[k]` is when line `k` was complete on the client.
struct Received {
    bytes: Vec<u8>,
    arrivals: Vec<Instant>,
}

fn receive(
    mut stream: UnixStream,
    lines_per_phase: usize,
    sent: &AtomicUsize,
    phase_a_done: &mpsc::Sender<()>,
) -> (Received, usize) {
    let mut got = Received {
        bytes: Vec::new(),
        arrivals: Vec::with_capacity(2 * lines_per_phase),
    };
    let mut backlog_max = 0;
    let mut buf = vec![0u8; 64 * 1024];
    while got.arrivals.len() < 2 * lines_per_phase {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let now = Instant::now();
        let lines = buf[..n].iter().filter(|&&b| b == b'\n').count();
        if got.arrivals.len() < lines_per_phase {
            backlog_max = backlog_max.max(sent.load(Ordering::Relaxed) - got.arrivals.len());
        }
        let before = got.arrivals.len();
        got.arrivals.extend(std::iter::repeat_n(now, lines));
        got.bytes.extend_from_slice(&buf[..n]);
        if before < lines_per_phase && got.arrivals.len() >= lines_per_phase {
            let _ = phase_a_done.send(());
        }
    }
    (got, backlog_max)
}

/// Runs one rep against a fresh server over the first `docs` documents.
pub fn rep(env: &Env, w: &Workload, corpus: &Corpus, docs: usize) -> io::Result<ServeRep> {
    let socket = env.socket_path();
    let _ = std::fs::remove_file(&socket);
    let (args, _) = cli_args(w.kind, w.query, &socket);
    let spawned = Instant::now();
    // The server lives until the wrapper's stdin (held here) closes.
    let mut server = env
        .reaped_command("until-eof", &args)
        .stdin(Stdio::piped())
        .spawn()?;
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(e) if spawned.elapsed() > IO_TIMEOUT || server.try_wait()?.is_some() => {
                let _ = server.kill();
                return Err(io::Error::other(format!("server never listened: {e}")));
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    let ready_ms = spawned.elapsed().as_secs_f64() * 1e3;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Phase A only: the flood keeps the CPU busy by itself.
    let awake = env.keep_awake()?;
    let sent = AtomicUsize::new(0);
    let (phase_a_done, phase_a_wait) = mpsc::channel();
    let reader = stream.try_clone()?;
    let mut writer = &stream;
    let mut gen_late_us = Vec::with_capacity(docs);
    let mut bytes_sent = 0;
    let lines = |i: usize| &corpus.bytes[corpus.docs[i].start..=corpus.docs[i].end];

    let (phase_a_start, flood_start, (received, backlog_max)) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(reader, docs, &sent, &phase_a_done));
        // A failed write is not handled here: the responses it costs are
        // counted as missing by the line check below.
        let phase_a_start = Instant::now();
        for i in 0..docs {
            let due = phase_a_start + Duration::from_nanos(due_ns(i as u64, OPEN_LOOP_DOCS_PER_S));
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            gen_late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            let _ = writer.write_all(lines(i));
            sent.fetch_add(1, Ordering::Relaxed);
            bytes_sent += lines(i).len();
        }
        // Phase B starts once every phase A answer is in (or the
        // receiver gave up, which the line check reports too).
        let _ = phase_a_wait.recv_timeout(IO_TIMEOUT);
        drop(awake);
        let flood_start = Instant::now();
        for i in 0..docs {
            let _ = writer.write_all(lines(i));
            bytes_sent += lines(i).len();
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let received = receiver.join().expect("receiver thread does not panic");
        (phase_a_start, flood_start, received)
    });
    drop(server.stdin.take());
    let server = Reaped::collect(server)?;
    let _ = std::fs::remove_file(&socket);

    // Expected: the oracle's count line of each document, once per phase.
    let expected_phase: Vec<&[u8]> = corpus
        .expected
        .split_inclusive(|&b| b == b'\n')
        .take(docs)
        .collect();
    let got: Vec<&[u8]> = received.bytes.split_inclusive(|&b| b == b'\n').collect();
    let wrong = (0..2 * docs)
        .filter(|&k| got.get(k) != Some(&expected_phase[k % docs]))
        .count();
    let extra = got.len().saturating_sub(2 * docs);
    // SIGTERM from the wrapper is how a healthy server ends.
    let server_fault = usize::from(server.exit != -15 || !server.stderr.is_empty());

    let latency_ms = (0..docs.min(received.arrivals.len()))
        .map(|i| {
            let due = phase_a_start + Duration::from_nanos(due_ns(i as u64, OPEN_LOOP_DOCS_PER_S));
            received.arrivals[i]
                .saturating_duration_since(due)
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let flood_secs = received.arrivals.last().map_or(0.0, |end| {
        end.saturating_duration_since(flood_start).as_secs_f64()
    });
    Ok(ServeRep {
        latency_ms,
        gen_late_us,
        backlog_max,
        flood_secs,
        ready_ms,
        bytes_sent,
        docs_sent: 2 * docs,
        failed: wrong + extra + server_fault,
        server,
    })
}

impl ServeRep {
    /// One line saying how many responses were wrong, if any were.
    pub fn fault(&self, workload: &str) -> Option<String> {
        (self.failed > 0).then(|| {
            format!(
                "{workload}: {} of {} responses wrong",
                self.failed, self.docs_sent
            )
        })
    }

    /// A percentile over all of the rep's documents, ms.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        stat::percentile(&stat::sorted(self.latency_ms.clone()), p)
    }

    pub fn gen_late_p99_us(&self) -> f64 {
        stat::percentile(&stat::sorted(self.gen_late_us.clone()), 99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_and_do_not_drift() {
        assert_eq!(due_ns(0, 1_000), 0);
        assert_eq!(due_ns(1, 1_000), 1_000_000);
        assert_eq!(due_ns(999, 1_000), 999_000_000);
        // A rate that does not divide 1e9: no accumulated rounding error.
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        assert_eq!(due_ns(3_000_000, 3), 1_000_000_000_000_000);
        assert_eq!(due_ns(1, 3), 333_333_333);
    }
}
