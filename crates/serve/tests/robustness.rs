//! The serve-mode robustness suite.
//!
//! Core invariant under test: for every document that survives, serve
//! output is **byte-identical** to a batch run over the same NDJSON
//! lines — under every chunk fragmentation the chaos stream can
//! produce, with every failure class answered per-document and the
//! connection left serving. The fast suite runs deterministic plans;
//! the `slow-tests` feature adds a seeded random sweep.

use rsq_batch::{BatchEngine, BatchOptions, DocErrorKind};
use rsq_engine::EngineOptions;
use rsq_serve::{
    serve_connection, ChaosFault, ChaosPlan, ChaosStream, ResponseMode, ServeOptions, ServeReport,
};
use std::time::Duration;

/// A mixed corpus: matches, non-matches, escapes and brackets inside
/// strings (framing hazards), CRLF lines, blank lines, and a trailing
/// document without a newline.
const CORPUS: &[u8] = b"{\"a\": {\"b\": 1}}\n\
    {\"b\": [1, 2, 3]}\r\n\
    \n\
    {\"s\": \"newline \\\\\\\" } ] inside\", \"b\": {\"c\": 2}}\n\
    {\"x\": [true, null]}\n\
    {\"b\": \"deep\"}";

fn serve_opts(query: &str) -> ServeOptions {
    let mut o = ServeOptions::new(query);
    o.threads = 3;
    o
}

/// Renders what batch mode prints for `input`: per-document stdout in
/// `mode` plus `document N: message` stderr labels (without serve's
/// ` [code]` suffix).
fn batch_oracle(
    query: &str,
    engine: EngineOptions,
    input: &[u8],
    mode: ResponseMode,
) -> (Vec<u8>, Vec<String>) {
    use std::fmt::Write as _;
    let batch = BatchEngine::new(BatchOptions {
        engine,
        ..BatchOptions::default()
    });
    let (ranges, result) = batch.run_ndjson(query, input).expect("query compiles");
    let mut out = String::new();
    let mut errs = Vec::new();
    for (i, outcome) in result.outcomes.iter().enumerate() {
        match outcome {
            Ok(doc_out) => match mode {
                ResponseMode::Count => {
                    let _ = writeln!(out, "{}", doc_out.count);
                }
                ResponseMode::Positions => {
                    for p in doc_out.matches.positions() {
                        let _ = writeln!(out, "{p}");
                    }
                }
                ResponseMode::Values => {
                    let doc = &input[ranges[i].clone()];
                    for &p in doc_out.matches.positions() {
                        let _ = writeln!(
                            out,
                            "{}",
                            rsq_json::node_text(doc, p).unwrap_or("<malformed>")
                        );
                    }
                }
            },
            Err(e) => errs.push(format!("document {}: {e}", i + 1)),
        }
    }
    (out.into_bytes(), errs)
}

fn serve_chaos(
    options: &ServeOptions,
    input: &[u8],
    plan: ChaosPlan,
) -> (Vec<u8>, Vec<u8>, ServeReport) {
    let mut out = Vec::new();
    let mut err = Vec::new();
    let report = serve_connection(options, ChaosStream::new(input, plan), &mut out, &mut err)
        .expect("serve");
    (out, err, report)
}

#[test]
fn output_is_byte_identical_to_batch_under_fragmentation() {
    // One thread runs every document on the connection's thread; two and
    // three add helpers, so responses finish out of order.
    for threads in 1..=3 {
        for query in ["$..b", "$..b..c", "$.x"] {
            for mode in [
                ResponseMode::Count,
                ResponseMode::Positions,
                ResponseMode::Values,
            ] {
                let mut o = serve_opts(query);
                o.threads = threads;
                o.mode = mode;
                let (expected, expected_errs) = batch_oracle(query, o.engine, CORPUS, mode);
                assert!(expected_errs.is_empty());
                for max_chunk in [1, 2, 3, 7, usize::MAX] {
                    let plan = ChaosPlan {
                        seed: 0xC0FFEE ^ max_chunk as u64,
                        max_chunk,
                        stall_octile: 3,
                        fault: ChaosFault::None,
                    };
                    let (out, err, report) = serve_chaos(&o, CORPUS, plan);
                    assert_eq!(
                        out, expected,
                        "threads {threads}, query {query}, mode {mode:?}, max_chunk {max_chunk}"
                    );
                    assert!(err.is_empty());
                    assert!(report.clean);
                    assert_eq!(report.counters.responses_ok, 5);
                }
            }
        }
    }
}

#[test]
fn limit_exhaustion_answers_the_document_and_keeps_serving() {
    // Each case: (configure limits, input, expected error code, which
    // document fails). The documents before and after the failing one
    // must still be answered — that is the fault-isolation contract.
    struct Case {
        name: &'static str,
        tweak: fn(&mut EngineOptions),
        input: &'static [u8],
        code: &'static str,
        failing_doc: usize,
    }
    let cases = [
        Case {
            name: "match-count cap",
            tweak: |e| e.max_matches = Some(2),
            input: b"{\"b\": 1}\n{\"v\": [{\"b\": 1}, {\"b\": 2}, {\"b\": 3}]}\n{\"b\": 2}\n",
            code: "limit:matches",
            failing_doc: 2,
        },
        Case {
            // With the default sparse depth stack, slice-path depth
            // only counts frames the automaton actually pushes; strict
            // mode validates the whole document's nesting, which is the
            // serving-appropriate cap for hostile deep inputs.
            name: "depth cap",
            tweak: |e| {
                e.strict = true;
                e.max_depth = 3;
            },
            input: b"{\"b\": 1}\n{\"a\": {\"a\": {\"a\": {\"b\": 1}}}}\n{\"b\": 2}\n",
            code: "limit:depth",
            failing_doc: 2,
        },
        Case {
            name: "document byte cap (framer)",
            tweak: |e| e.max_document_bytes = Some(16),
            input: b"{\"b\": 1}\n{\"filler\": \"xxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"b\": 2}\n",
            code: "limit:document-bytes",
            failing_doc: 2,
        },
        Case {
            name: "strict-mode rejection",
            tweak: |e| e.strict = true,
            input: b"{\"b\": 1}\n{\"b\": [}\n{\"b\": 2}\n",
            code: "malformed",
            failing_doc: 2,
        },
    ];
    for case in cases {
        let mut o = serve_opts("$..b");
        (case.tweak)(&mut o.engine);
        // Fragment pathologically: limits must behave identically no
        // matter how the stream was chunked.
        for max_chunk in [1, 5, usize::MAX] {
            let plan = ChaosPlan {
                seed: 7,
                max_chunk,
                stall_octile: 2,
                fault: ChaosFault::None,
            };
            let (out, err, report) = serve_chaos(&o, case.input, plan);
            assert_eq!(
                out, b"1\n1\n",
                "{}: surviving documents must both answer (chunk {max_chunk})",
                case.name
            );
            let err = String::from_utf8(err).unwrap();
            assert!(
                err.starts_with(&format!("document {}: ", case.failing_doc)),
                "{}: {err}",
                case.name
            );
            assert!(
                err.trim_end().ends_with(&format!("[{}]", case.code)),
                "{}: expected code {} in {err}",
                case.name,
                case.code
            );
            assert_eq!(report.counters.responses_ok, 2, "{}", case.name);
            assert_eq!(report.counters.failed_documents(), 1, "{}", case.name);
            assert!(report.clean, "{}: connection must survive", case.name);
        }
    }
}

#[test]
fn oversize_rejection_matches_batch_error_text() {
    let mut o = serve_opts("$..b");
    o.engine.max_document_bytes = Some(16);
    let input: &[u8] = b"{\"b\": 1}\n{\"filler\": \"xxxxxxxxxxxxxxxxxxxxxxxx\"}\n";
    let (_, expected_errs) = batch_oracle("$..b", o.engine, input, ResponseMode::Count);
    assert_eq!(expected_errs.len(), 1);
    let (_, err, report) = serve_chaos(&o, input, ChaosPlan::smooth(1));
    let err = String::from_utf8(err).unwrap();
    // Serve's line is batch's line plus the machine-readable code.
    assert_eq!(
        err.trim_end(),
        format!("{} [limit:document-bytes]", expected_errs[0])
    );
    assert_eq!(report.counters.oversize_rejections, 1);
    assert_eq!(report.counters.limit_errors, 0);
}

#[test]
fn truncation_behaves_like_clean_eof_at_the_cut() {
    // Cut mid-document: the partial final line is processed exactly as
    // batch processes a trailing line without a newline.
    let cut = CORPUS.len() - 4;
    let plan = ChaosPlan {
        seed: 11,
        max_chunk: 3,
        stall_octile: 2,
        fault: ChaosFault::TruncateAt(cut),
    };
    let o = serve_opts("$..b");
    let truncated = &CORPUS[..cut];
    let (expected, _) = batch_oracle("$..b", o.engine, truncated, ResponseMode::Count);
    let (out, err, report) = serve_chaos(&o, CORPUS, plan);
    assert_eq!(out, expected);
    assert!(err.is_empty());
    assert!(report.clean, "truncation is not a transport error");
    assert_eq!(report.counters.io_errors, 0);
}

#[test]
fn disconnect_drains_admitted_documents_and_reports_io() {
    // Cut right after the second document's newline: documents 1–2 are
    // framed and must be answered; the bytes after the cut are lost.
    let cut = 34; // after "{\"b\": [1, 2, 3]}\r\n"
    assert_eq!(&CORPUS[cut - 2..cut], b"\r\n");
    let plan = ChaosPlan {
        seed: 5,
        max_chunk: 4,
        stall_octile: 2,
        fault: ChaosFault::DisconnectAt(cut),
    };
    let o = serve_opts("$..b");
    let (out, err, report) = serve_chaos(&o, CORPUS, plan);
    assert_eq!(out, b"1\n1\n", "admitted documents drain before teardown");
    assert!(err.is_empty());
    assert!(!report.clean);
    assert_eq!(report.counters.io_errors, 1);
    assert_eq!(report.counters.documents, 2);
}

#[test]
fn deadline_zero_with_faults_still_answers_every_framed_document() {
    let mut o = serve_opts("$..b");
    o.deadline = Some(Duration::ZERO);
    let plan = ChaosPlan {
        seed: 3,
        max_chunk: 2,
        stall_octile: 4,
        fault: ChaosFault::None,
    };
    let (out, err, report) = serve_chaos(&o, CORPUS, plan);
    assert!(out.is_empty());
    let err = String::from_utf8(err).unwrap();
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 5, "{err}");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            *line,
            format!("document {}: deadline exceeded [timeout]", i + 1)
        );
    }
    assert_eq!(report.counters.timeouts, 5);
    assert_eq!(report.first_failure, Some(DocErrorKind::Timeout));
}

#[test]
fn generous_deadline_does_not_interfere() {
    let mut o = serve_opts("$..b");
    o.deadline = Some(Duration::from_secs(3600));
    let (expected, _) = batch_oracle("$..b", o.engine, CORPUS, ResponseMode::Count);
    let (out, _, report) = serve_chaos(&o, CORPUS, ChaosPlan::smooth(9));
    assert_eq!(out, expected);
    assert_eq!(report.counters.timeouts, 0);
}

#[cfg(unix)]
#[test]
fn unix_socket_roundtrip_with_graceful_drain() {
    use std::io::{Read as _, Write as _};
    use std::os::unix::net::UnixListener;

    let dir = std::env::temp_dir().join(format!("rsq-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let shutdown = rsq_batch::sync::Flag::new(false);
    let options = serve_opts("$..b");

    let report = std::thread::scope(|scope| {
        let server = scope
            .spawn(|| rsq_serve::serve_unix_with(&options, None, &listener, &shutdown, |_| true));

        let mut client = std::os::unix::net::UnixStream::connect(&path).unwrap();
        // Drip the corpus in small writes to cross chunk boundaries.
        for piece in CORPUS.chunks(5) {
            client.write_all(piece).unwrap();
        }
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert_eq!(response, "1\n1\n1\n0\n1\n");
        drop(client);

        shutdown.set(true);
        server.join().unwrap().unwrap()
    });
    assert_eq!(report.counters.connections, 1);
    assert_eq!(report.counters.responses_ok, 5);
    assert!(report.clean);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// The full chaos sweep: seeded random plans across fragmentation,
/// stalls, and every fault kind, asserting the byte-parity invariant
/// for surviving documents on each. Gated behind `slow-tests` with a
/// trimmed version inline above.
#[cfg(feature = "slow-tests")]
#[test]
fn chaos_sweep_holds_parity_across_random_plans() {
    let o = serve_opts("$..b");
    let (full_expected, _) = batch_oracle("$..b", o.engine, CORPUS, ResponseMode::Count);
    for seed in 0..200u64 {
        let max_chunk = 1 + (seed as usize % 9);
        let stall_octile = (seed % 6) as u8;
        let fault = match seed % 4 {
            0 | 1 => ChaosFault::None,
            2 => ChaosFault::TruncateAt(seed as usize % (CORPUS.len() + 1)),
            _ => ChaosFault::DisconnectAt(seed as usize % (CORPUS.len() + 1)),
        };
        let plan = ChaosPlan {
            seed,
            max_chunk,
            stall_octile,
            fault,
        };
        let (out, _, report) = serve_chaos(&o, CORPUS, plan);
        match fault {
            ChaosFault::None => {
                assert_eq!(out, full_expected, "plan {plan:?}");
                assert!(report.clean, "plan {plan:?}");
            }
            ChaosFault::TruncateAt(n) => {
                let (expected, _) = batch_oracle(
                    "$..b",
                    o.engine,
                    &CORPUS[..n.min(CORPUS.len())],
                    ResponseMode::Count,
                );
                assert_eq!(out, expected, "plan {plan:?}");
                assert!(report.clean, "plan {plan:?}");
            }
            ChaosFault::DisconnectAt(n) => {
                // Only fully framed lines before the cut are answered:
                // parity against the input up to the last newline.
                let delivered = &CORPUS[..n.min(CORPUS.len())];
                let framed_end = delivered
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                let (expected, _) = batch_oracle(
                    "$..b",
                    o.engine,
                    &delivered[..framed_end],
                    ResponseMode::Count,
                );
                assert_eq!(out, expected, "plan {plan:?}");
                if n < CORPUS.len() {
                    assert_eq!(report.counters.io_errors, 1, "plan {plan:?}");
                }
            }
        }
    }
}
