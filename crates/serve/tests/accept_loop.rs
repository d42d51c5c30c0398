//! The Unix accept loop's per-connection callback, and its handling of a
//! connection that is lost between `accept` and socket setup.
//!
//! Alone in its own test binary on purpose: it runs the process out of
//! file descriptors for a moment, which would fail any test running
//! beside it.

#![cfg(unix)]

use rsq_batch::sync::Flag;
use rsq_serve::{serve_unix_with, ServeOptions};
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// Most descriptors the test will hoard before giving up on reaching the
/// limit (a host with a huge `RLIMIT_NOFILE` skips instead of thrashing).
const HOARD_MAX: usize = 100_000;

#[test]
fn a_connection_lost_during_setup_is_counted_and_the_next_client_is_served() {
    let dir = std::env::temp_dir().join(format!("rsq-accept-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let shutdown = Flag::new(false);
    let mut options = ServeOptions::new("$..b");
    options.threads = 1;

    // The first client connects before the loop runs: it waits in the
    // listen backlog, and its own descriptor already exists.
    // The read timeout is set now, while descriptors are plentiful: a
    // broken setup must fail the test, not hang it.
    let mut lost = UnixStream::connect(&path).unwrap();
    lost.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Leave exactly one free descriptor: `accept` takes it, and cloning
    // the accepted stream for the response writers then fails.
    let mut hoard: Vec<File> = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
        if hoard.len() == HOARD_MAX {
            eprintln!("SKIP: no descriptor limit within {HOARD_MAX} open files");
            return;
        }
    }
    hoard.pop();

    let mut seen: Vec<(u64, u64)> = Vec::new();
    let report = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            serve_unix_with(&options, None, &listener, &shutdown, |aggregate| {
                seen.push((aggregate.counters.connections, aggregate.counters.io_errors));
                false // one served connection is enough: stop the loop
            })
        });

        // The server drops the stream it could not set up; this end then
        // reads end-of-file, which is also the signal to give the
        // descriptors back.
        let mut buf = [0u8; 8];
        let eof = lost.read(&mut buf);
        hoard.clear();
        if !matches!(eof, Ok(0)) {
            // The loop never dropped the connection (say `accept` itself
            // ran out of descriptors): stop it and report what it said.
            shutdown.set(true);
            panic!("lost connection read {eof:?}; server: {:?}", server.join());
        }

        let mut client = UnixStream::connect(&path).unwrap();
        client
            .write_all(b"{\"b\": 1}\n{\"a\": {\"b\": [2, {\"b\": 3}]}}\n")
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert_eq!(response, "1\n2\n");

        server.join().unwrap().unwrap()
    });

    assert_eq!(seen, [(1, 1)], "one callback, after the served connection");
    assert_eq!(
        report.counters.io_errors, 1,
        "the lost connection is counted"
    );
    assert_eq!(report.counters.connections, 1);
    assert_eq!(report.counters.responses_ok, 2);
    assert!(report.clean);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
