//! End-to-end tests of the `rsq` binary: exit codes per failure class,
//! stderr-only diagnostics, and chunked stdin consumption.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_rsq");

fn rsq(args: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    if let Some(bytes) = stdin {
        // Feed the document in small fragments so the reader sees many
        // short reads rather than one big one. The child may exit before
        // draining stdin (bad query, tripped limit) — a broken pipe here
        // is expected, not a test failure.
        let mut pipe = child.stdin.take().expect("stdin piped");
        for chunk in bytes.chunks(7) {
            if pipe.write_all(chunk).and_then(|()| pipe.flush()).is_err() {
                break;
            }
        }
        drop(pipe);
    }
    child.wait_with_output().expect("binary exits")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("utf-8 stderr")
}

const DOC: &[u8] = br#"{"a": [1, {"b": 2}], "b": 3}"#;

#[test]
fn matches_from_chunked_stdin() {
    let out = rsq(&["--count", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n");

    let out = rsq(&["$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), "2\n3\n");
}

#[test]
fn usage_errors_exit_2() {
    let out = rsq(&["--nope", "$..a"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));
    assert!(stdout(&out).is_empty(), "diagnostics must not reach stdout");
}

#[test]
fn bad_query_exits_3() {
    let out = rsq(&["--count", "definitely not jsonpath"], Some(DOC));
    assert_eq!(out.status.code(), Some(3));
    assert!(stdout(&out).is_empty());
    assert!(!stderr(&out).is_empty());
}

#[test]
fn unreadable_input_exits_4() {
    let out = rsq(&["--count", "$..a", "/nonexistent/rsq-it.json"], None);
    assert_eq!(out.status.code(), Some(4));
    assert!(stdout(&out).is_empty());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn tripped_limit_exits_5() {
    let out = rsq(&["--count", "--max-matches", "1", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("limit"));

    let out = rsq(&["--count", "--max-bytes", "10", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5));

    let out = rsq(&["--count", "--max-depth", "1", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn strict_mode_rejects_malformed_with_6() {
    let out = rsq(&["--count", "--strict", "$..b"], Some(br#"{"a": [1, 2}"#));
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("malformed"));
    assert!(stdout(&out).is_empty());

    // The same document passes without --strict (lenient best-effort).
    let out = rsq(&["--count", "$..b"], Some(br#"{"a": [1, 2}"#));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn strict_well_formed_still_matches() {
    let out = rsq(&["--count", "--strict", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n");
}

/// `--strict` validates a document once: a copied one while it arrives
/// (the profile books that under ingest, and the run's own validation
/// stage stays at zero), a mapped one — first seen by the run — there.
#[test]
fn strict_validates_once_on_every_input_path() {
    let path = std::env::temp_dir().join(format!("rsq-cli-strict-{}.json", std::process::id()));
    std::fs::write(&path, DOC).expect("temp document");
    let file = path.to_str().expect("utf-8 temp path");
    let validate_ns = |args: &[&str], stdin: Option<&[u8]>| {
        let out = rsq(args, stdin);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), "2\n");
        let err = stderr(&out);
        let (_, rest) = err.split_once("\"validate_ns\":").expect("a profile");
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.expect("a number").parse::<u64>().expect("a number")
    };
    let flags = ["--count", "--strict", "--profile", "--stats-json"];
    let stdin = validate_ns(&[&flags[..], &["$..b"]].concat(), Some(DOC));
    let copied = validate_ns(
        &[&flags[..], &["--mmap", "off", "$..b", file]].concat(),
        None,
    );
    let mapped = validate_ns(
        &[&flags[..], &["--mmap", "on", "$..b", file]].concat(),
        None,
    );
    let _ = std::fs::remove_file(&path);
    assert_eq!((stdin, copied), (0, 0), "the ingest verdict stands");
    assert!(mapped > 0, "a mapped document is validated by the run");

    // The verdict itself is the same on every path.
    let broken = br#"{"a": [1, 2}"#;
    std::fs::write(&path, broken).expect("temp document");
    let runs = [
        rsq(&["--count", "--strict", "$..a"], Some(broken)),
        rsq(
            &["--count", "--strict", "--mmap", "off", "$..a", file],
            None,
        ),
        rsq(&["--count", "--strict", "--mmap", "on", "$..a", file], None),
    ];
    let _ = std::fs::remove_file(&path);
    for run in &runs {
        assert_eq!(run.status.code(), Some(6), "stderr: {}", stderr(run));
        assert!(stderr(run).contains("mismatched closing bracket at byte 11"));
    }
}

/// The profile's stages (ingest, validate, automaton, sink) are disjoint
/// brackets, so on a document that takes thousands of skips their sum
/// stays within the wall time of the whole process, on both routes and
/// with validation.
#[test]
fn profile_stages_sum_to_at_most_the_wall_time() {
    let mut doc = String::from("[");
    for i in 0..20_000 {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            r#"{{"id": {i}, "tags": [1, 2], "meta": {{"x": {{"y": 1}}}}, "name": "n{i}"}}"#
        ));
    }
    doc.push(']');
    let path = std::env::temp_dir().join(format!("rsq-cli-stages-{}.json", std::process::id()));
    std::fs::write(&path, &doc).expect("temp document");
    let file = path.to_str().expect("utf-8 temp path");
    for route in ["auto", "general"] {
        for strict in [&[][..], &["--strict"][..]] {
            let args = [
                &["--count", "--profile", "--stats-json", "--mmap", "on"][..],
                strict,
                &["$[*].name", file][..],
            ]
            .concat();
            let started = std::time::Instant::now();
            let out = Command::new(BIN)
                .args(&args)
                .env("RSQ_ROUTE", route)
                .output()
                .expect("binary runs");
            let wall_ns = started.elapsed().as_nanos();
            assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
            assert_eq!(stdout(&out), "20000\n");
            let err = stderr(&out);
            let (_, profile) = err.split_once("\"profile\":").expect("a profile");
            let (_, stages) = profile.split_once("\"stages\":{").expect("stage times");
            let (stages, _) = stages.split_once('}').expect("a closed object");
            let sum: u128 = stages
                .split(',')
                .map(|member| {
                    let (key, ns) = member.split_once(':').expect("a member");
                    assert!(key.ends_with("_ns\""), "{key} in {stages}");
                    ns.parse::<u128>().expect("nanoseconds")
                })
                .sum();
            assert!(
                sum <= wall_ns,
                "RSQ_ROUTE={route} {strict:?}: stages {stages} sum to {sum} ns, \
                 the process took {wall_ns} ns"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stats_json_goes_to_stderr_and_leaves_stdout_identical() {
    let plain = rsq(&["$..b"], Some(DOC));
    let with_stats = rsq(&["--stats-json", "$..b"], Some(DOC));
    assert_eq!(with_stats.status.code(), Some(0));
    // Stdout must be byte-identical to a run without the flag.
    assert_eq!(with_stats.stdout, plain.stdout);

    // Stderr carries exactly one line of valid JSON with the stable keys.
    let err = stderr(&with_stats);
    assert_eq!(err.lines().count(), 1, "single-line JSON: {err}");
    let parsed = rsq_json::parse(err.trim().as_bytes()).expect("valid JSON");
    let text = format!("{parsed:?}");
    for key in [
        "bytes",
        "blocks_classified",
        "skips",
        "leaf",
        "child",
        "sibling",
        "label",
        "memmem_jumps",
        "matches",
    ] {
        assert!(text.contains(key), "missing key {key} in {err}");
    }
}

#[test]
fn stats_table_goes_to_stderr() {
    let out = rsq(&["--count", "--stats", "$..b"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "2\n", "results stay on stdout");
    let err = stderr(&out);
    assert!(err.contains("bytes"), "table on stderr: {err}");
    assert!(err.contains("matches"), "table on stderr: {err}");
}

const NDJSON: &[u8] = b"{\"a\": 1, \"b\": {\"a\": 2}}\n{\"c\": 0}\n{\"a\": [3, {\"a\": 4}]}\n";

fn with_temp_ndjson(f: impl FnOnce(&str)) {
    let path = std::env::temp_dir().join(format!(
        "rsq-e2e-batch-{}-{:?}.ndjson",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, NDJSON).unwrap();
    f(path.to_str().unwrap());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn batch_ndjson_matches_sequential_loop_across_thread_counts() {
    with_temp_ndjson(|path| {
        // Expected stdout: each line run through rsq individually.
        let mut expected = String::new();
        for line in NDJSON.split(|&b| b == b'\n') {
            if line.is_empty() {
                continue;
            }
            let one = rsq(&["--count", "$..a"], Some(line));
            assert_eq!(one.status.code(), Some(0));
            expected.push_str(&stdout(&one));
        }
        for threads in ["1", "2", "8"] {
            let out = rsq(
                &[
                    "--count",
                    "--batch-ndjson",
                    path,
                    "--threads",
                    threads,
                    "$..a",
                ],
                None,
            );
            assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
            assert_eq!(stdout(&out), expected, "threads={threads}");
        }
    });
}

#[test]
fn batch_stats_json_exposes_batch_counters() {
    with_temp_ndjson(|path| {
        let out = rsq(
            &["--count", "--stats-json", "--batch-ndjson", path, "$..a"],
            None,
        );
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "single-line JSON: {err}");
        let parsed = rsq_json::parse(err.trim().as_bytes()).expect("valid JSON");
        let text = format!("{parsed:?}");
        for key in ["batch", "documents", "queue_claims", "stats", "matches"] {
            assert!(text.contains(key), "missing key {key} in {err}");
        }
    });
}

#[test]
fn batch_failing_document_reports_but_does_not_abort() {
    with_temp_ndjson(|path| {
        let out = rsq(
            &[
                "--count",
                "--max-matches",
                "1",
                "--batch-ndjson",
                path,
                "$..a",
            ],
            None,
        );
        // Docs 1 and 3 trip the 1-match limit; doc 2 still prints its 0.
        assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out), "0\n");
        let err = stderr(&out);
        assert!(err.contains("document 1: "), "{err}");
        assert!(err.contains("document 3: "), "{err}");
        assert!(err.contains("2 of 3 documents failed"), "{err}");
    });
}

#[test]
fn batch_good_lines_reach_stdout_when_the_batch_fails() {
    // Stdout leaves in 64 KiB blocks, and a batch with a failed document
    // returns its error *after* printing: the block must be flushed on
    // that path too, with good lines on both sides of the failure.
    let out = rsq(
        &["--strict", "--batch-ndjson", "-", "$..a"],
        Some(b"{\"a\": 1}\n{\"a\": [2}\n{\"a\": 3}\n"),
    );
    assert_eq!(out.status.code(), Some(6), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "1\n3\n");
    let err = stderr(&out);
    assert!(err.contains("document 2: "), "{err}");
    assert!(err.contains("1 of 3 documents failed"), "{err}");
}

#[test]
fn stats_does_not_corrupt_count_exit_codes() {
    // A tripped limit must still exit 5, with no stats report (the run
    // failed) and nothing extra on stdout.
    let out = rsq(
        &["--count", "--stats-json", "--max-matches", "1", "$..b"],
        Some(DOC),
    );
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stdout(&out).is_empty());
    assert!(!stderr(&out).contains("blocks_classified"));

    // Legacy document-statistics mode is untouched by the overload.
    let out = rsq(&["--stats"], Some(DOC));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("nodes"));
}

/// Forty thousand `{"a": 1, …}` members, 4.8 MB — more than a streamed
/// run's ring of four 1 MiB windows holds, so its run trips long before
/// the end of the input is read.
fn many_members(tail: &[u8]) -> Vec<u8> {
    let member = format!(r#"{{"a": 1, "pad": "{}"}}"#, "x".repeat(100));
    let mut doc = format!("[{}", vec![member; 40_000].join(",")).into_bytes();
    doc.extend_from_slice(tail);
    doc
}

/// A streamed document is checked to its end whatever its run does, and
/// a failure of the input is reported before one of the run: the exit
/// code and stderr are those of a document read whole before it runs —
/// as they are in values mode, which holds the document whole (copied
/// from the pipe, mapped from the file).
#[test]
fn stdin_failures_keep_their_order_while_streaming() {
    let cases: [(&[&str], Vec<u8>, i32, &str); 4] = [
        // `--max-matches` trips on the second member, the malformation
        // is 4.8 MB later.
        (
            &["--count", "--strict", "--max-matches", "1", "$..a"],
            many_members(br#",{"a": [}]"#),
            6,
            "rsq: stdin: malformed document: mismatched closing bracket at byte 4800008\n",
        ),
        // The only match is found first; the nesting too deep comes after.
        (
            &["--count", "$.a"],
            [
                &br#"{"a": 1, "p": ""#[..],
                &[b'x'; 5 << 20],
                br#"", "b": "#,
                &[b'['; 2000],
                &[b']'; 2000],
                b"}",
            ]
            .concat(),
            5,
            "rsq: stdin: nesting depth limit exceeded (limit: 1024)\n",
        ),
        (
            &["--count", "--max-bytes", "4500000", "$..a"],
            many_members(b"]"),
            5,
            "rsq: stdin: document size limit exceeded (limit: 4500000)\n",
        ),
        // A run's own failure, on a well-formed document, names no input.
        (
            &["--positions", "--max-matches", "3", "$..a"],
            many_members(b"]"),
            5,
            "rsq: match count limit exceeded (limit: 3)\n",
        ),
    ];
    for (args, doc, code, message) in cases {
        // Through a pipe, and redirected from a file (mapped: each
        // document is over 1 MiB).
        let file = TempFile::new("failures", &doc);
        let values: Vec<&str> = args
            .iter()
            .copied()
            .filter(|a| !matches!(*a, "--count" | "--positions"))
            .collect();
        for args in [args, &values[..]] {
            for out in [rsq(args, Some(&doc)), rsq_from_file(args, file.open())] {
                assert_eq!(out.status.code(), Some(code), "{args:?}: {}", stderr(&out));
                assert_eq!(stderr(&out), message, "{args:?}");
                assert_eq!(
                    stdout(&out),
                    "",
                    "{args:?}: nothing is printed before the end"
                );
            }
        }
    }
}

/// A file that removes itself on drop.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(tag: &str, bytes: &[u8]) -> TempFile {
        let path = std::env::temp_dir().join(format!("rsq-cli-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).expect("temp file written");
        TempFile(path)
    }

    fn open(&self) -> std::fs::File {
        std::fs::File::open(&self.0).expect("temp file opens")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the binary with `stdin` as its standard input.
fn rsq_from_file(args: &[&str], stdin: impl Into<Stdio>) -> Output {
    Command::new(BIN)
        .args(args)
        .stdin(stdin)
        .output()
        .expect("binary runs")
}

/// Stdin redirected from a regular file is read from its offset, whichever
/// way it is taken in — mapped window by window (`--mmap on`, or `auto`
/// from 1 MiB) or read (`off`, smaller files, anything not a regular
/// file) — and left at the file's end; the answers are the pipe's.
#[test]
fn redirected_stdin_is_read_from_its_offset_either_way() {
    use std::io::{Seek, SeekFrom};
    let doc = many_members(b"]");
    let junk = br#"{"a": "not this document"} "#;
    let file = TempFile::new("offset", &[&junk[..], &doc].concat());
    let expected = |args: &[&str]| stdout(&rsq(args, Some(&doc)));
    for args in [
        &["--count", "$..a"][..],
        &["--positions", "$[2].a"],
        &["$..a"],
        &["$[*]"],
        &["--verify", "$..a"],
        &["--profile", "--count", "$..a"],
    ] {
        let want = expected(args);
        for policy in ["auto", "on", "off"] {
            let mut stdin = file.open();
            stdin.seek(SeekFrom::Start(junk.len() as u64)).unwrap();
            let flags = [&["--mmap", policy][..], args].concat();
            let out = rsq_from_file(&flags, stdin.try_clone().unwrap());
            assert_eq!(out.status.code(), Some(0), "{flags:?}: {}", stderr(&out));
            assert_eq!(stdout(&out), want, "{flags:?}");
            let end = stdin.stream_position().unwrap();
            assert_eq!(
                end,
                (junk.len() + doc.len()) as u64,
                "{flags:?}: offset left"
            );
        }
    }

    // Empty, small under `auto`, a pipe and /dev/null are read.
    let small = TempFile::new("small", DOC);
    let empty = TempFile::new("empty", b"");
    for mode in ["--count", "--verify", "--positions"] {
        for (policy, stdin, bytes) in [
            ("auto", Stdio::from(small.open()), DOC),
            ("on", Stdio::from(small.open()), DOC),
            ("on", Stdio::from(empty.open()), b""),
            ("on", Stdio::null(), b""),
        ] {
            let args = ["--mmap", policy, mode, "$..b"];
            let out = rsq_from_file(&args, stdin);
            let piped = rsq(&args, Some(bytes));
            assert_eq!(out.status.code(), piped.status.code(), "{args:?}");
            assert_eq!(stdout(&out), stdout(&piped), "{args:?}");
            assert_eq!(stderr(&out), stderr(&piped), "{args:?}");
        }
    }
}
