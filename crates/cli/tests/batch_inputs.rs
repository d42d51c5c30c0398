//! Batch input-path parity: however an NDJSON corpus reaches
//! `rsq --batch-ndjson` — the file mapped, the file copied, `--mmap auto`
//! on either side of its threshold, stdin redirected from the file, stdin
//! a pipe — stdout, the stderr diagnostics (`document N: …` ordinals
//! included) and the exit status are the same, in every output mode and
//! at one and two threads. `--batch-dir` answers the same under every
//! `--mmap` policy.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_rsq");

/// A corpus file that is removed when the test is done with it.
struct Corpus(PathBuf);

impl Corpus {
    fn new(name: &str, bytes: &[u8]) -> Corpus {
        let path =
            std::env::temp_dir().join(format!("rsq-batch-inputs-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).expect("temp corpus");
        Corpus(path)
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The ways in. `Mmap(policy)` names the file; the other two pass `-`.
#[derive(Clone, Copy, Debug)]
enum Way {
    Mmap(&'static str),
    Redirect,
    Pipe,
}

const WAYS: [Way; 5] = [
    Way::Mmap("off"),
    Way::Mmap("on"),
    Way::Mmap("auto"),
    Way::Redirect,
    Way::Pipe,
];

fn run(way: Way, flags: &[&str], file: &Path) -> Output {
    let mut command = Command::new(BIN);
    command.args(flags).arg("--batch-ndjson");
    command.stdout(Stdio::piped()).stderr(Stdio::piped());
    match way {
        Way::Mmap(policy) => command.arg(file).args(["--mmap", policy]),
        Way::Redirect => command
            .arg("-")
            .stdin(File::open(file).expect("corpus opens")),
        Way::Pipe => command.arg("-").stdin(Stdio::piped()),
    };
    let mut child = command.arg("$..b").spawn().expect("binary spawns");
    if let Some(mut pipe) = child.stdin.take() {
        // Short writes, so the reader sees many reads, not one.
        for chunk in std::fs::read(file).expect("corpus reads").chunks(4099) {
            pipe.write_all(chunk).expect("the child reads all of stdin");
        }
    }
    child.wait_with_output().expect("binary exits")
}

/// Every way, mode and thread count over one corpus; returns the count
/// mode's stdout and stderr and the exit status for the caller to pin.
fn assert_parity(bytes: &[u8], name: &str, extra: &[&str]) -> (String, String, Option<i32>) {
    let corpus = Corpus::new(name, bytes);
    let mut counted = None;
    for mode in [&["--count"][..], &["--positions"], &[]] {
        let mut by_threads = Vec::new();
        for threads in ["1", "2"] {
            let flags = [mode, &["--threads", threads], extra].concat();
            let reference = run(WAYS[0], &flags, &corpus.0);
            for way in &WAYS[1..] {
                let got = run(*way, &flags, &corpus.0);
                let context = format!("{name}: {way:?} {flags:?}");
                assert_eq!(got.stdout, reference.stdout, "stdout, {context}");
                assert_eq!(got.stderr, reference.stderr, "stderr, {context}");
                assert_eq!(got.status.code(), reference.status.code(), "{context}");
            }
            by_threads.push(reference);
        }
        assert_eq!(
            by_threads[0].stdout, by_threads[1].stdout,
            "{name} {mode:?}"
        );
        assert_eq!(
            by_threads[0].stderr, by_threads[1].stderr,
            "{name} {mode:?}"
        );
        counted.get_or_insert_with(|| by_threads.swap_remove(0));
    }
    let counted = counted.expect("count mode ran");
    (
        String::from_utf8(counted.stdout).expect("utf-8 stdout"),
        String::from_utf8(counted.stderr).expect("utf-8 stderr"),
        counted.status.code(),
    )
}

/// CRLF, blank and whitespace-only lines, a raw newline inside a string,
/// a document that trips the match limit mid-file, no trailing newline.
const EDGES: &[u8] = b"{\"b\": 1}\r\n\r\n   \t\n{\"a\": \"x\ny\", \"b\": 2}\n\
    {\"b\": {\"b\": 3}}\n\n[{\"b\": 4}]\r\n{\"c\": \"b\"}\n{\"b\": 5}";

#[test]
fn edge_lines_agree_on_every_path() {
    let (stdout, stderr, status) = assert_parity(EDGES, "edges", &["--max-matches", "1"]);
    assert_eq!(stdout, "1\n1\n1\n0\n1\n");
    // The failing document is the third of six; blank lines do not count.
    assert_eq!(
        stderr,
        "document 3: match count limit exceeded (limit: 1)\n\
         rsq: 1 of 6 documents failed\n"
    );
    assert_eq!(status, Some(5));

    let (stdout, stderr, status) = assert_parity(EDGES, "edges-unlimited", &[]);
    assert_eq!(stdout, "1\n1\n2\n1\n0\n1\n");
    assert_eq!((stderr.as_str(), status), ("", Some(0)));
}

/// Length 0 cannot be mapped: `--mmap on` falls back to the copy.
#[test]
fn an_empty_file_agrees_on_every_path() {
    let (stdout, stderr, status) = assert_parity(b"", "empty", &[]);
    assert_eq!(
        (stdout.as_str(), stderr.as_str(), status),
        ("", "", Some(0))
    );
}

/// `{"b": [0, …]}` lines (one match each) filling exactly `len` bytes;
/// with `newline` the last byte is a line feed, without it a brace.
fn exactly(len: usize, newline: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let body = len - usize::from(newline);
    while out.len() < body {
        // Lines of 101 bytes, the last stretched or shrunk to fit.
        let left = body - out.len();
        let line = if left < 140 { left } else { 100 };
        let pad = line - br#"{"b": []}"#.len();
        out.extend_from_slice(br#"{"b": ["#);
        out.extend(std::iter::repeat_n(b' ', pad));
        out.extend_from_slice(b"]}");
        if out.len() < body {
            out.push(b'\n');
        }
    }
    if newline {
        out.push(b'\n');
    }
    assert_eq!(out.len(), len);
    out
}

/// A mapping of a whole number of pages has no zero tail behind it, and
/// one of a whole number of blocks ends where a block does: the last
/// document must be read without reading past either.
#[test]
fn page_and_block_multiples_agree_on_every_path() {
    for (len, newline) in [(8192, false), (8192, true), (4160, false), (4160, true)] {
        let corpus = exactly(len, newline);
        let name = format!("exact-{len}-{newline}");
        let (stdout, stderr, status) = assert_parity(&corpus, &name, &[]);
        let lines = corpus.split(|&b| b == b'\n').filter(|l| !l.is_empty());
        assert_eq!(stdout, "1\n".repeat(lines.count()));
        assert_eq!((stderr.as_str(), status), ("", Some(0)));
    }
}

/// `--mmap auto` copies below its 1 MiB threshold and maps from it; the
/// larger corpus also spans three splitting windows, with failing
/// documents in the first two.
#[test]
fn auto_agrees_on_either_side_of_its_threshold() {
    let line = br#"{"a": {"b": [1, 2]}, "pad": "                                        "}"#;
    let failing = br#"{"b": {"b": 0}}"#;
    for (name, lines) in [("below", 9_000usize), ("above", 31_000)] {
        let mut corpus = Vec::new();
        for i in 0..lines {
            corpus.extend_from_slice(if i % 8_000 == 7_999 { failing } else { line });
            corpus.push(b'\n');
        }
        let threshold = 1 << 20;
        assert_eq!(corpus.len() >= threshold, name == "above");
        let (stdout, stderr, status) = assert_parity(&corpus, name, &["--max-matches", "1"]);
        assert_eq!(stdout.len(), 2 * (lines - lines / 8_000));
        let first = "document 8000: match count limit exceeded (limit: 1)\n";
        assert!(stderr.starts_with(first), "{stderr}");
        assert_eq!(stderr.lines().count(), lines / 8_000 + 1);
        assert_eq!(status, Some(5));
    }
}

/// Three documents above the 1 MiB `--mmap auto` threshold through
/// `--batch-dir`: mapped (`on`, and `auto` at this size) and copied
/// (`off`), the output is the same bytes.
#[test]
fn batch_dir_answers_alike_mapped_and_copied() {
    let dir = std::env::temp_dir().join(format!("rsq-batch-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let records = |record: &dyn Fn(usize) -> String| {
        let mut doc = String::from("[");
        for i in 0.. {
            if doc.len() > (1 << 20) + 4096 {
                break;
            }
            doc += &format!("{}{}", if i > 0 { "," } else { "" }, record(i));
        }
        doc + "]"
    };
    // Flat, nested, and with ids only inside strings and escapes.
    let docs = [
        records(&|i| format!(r#"{{"id": {i}, "name": "n{i}", "tags": [1, 2]}}"#)),
        records(&|i| {
            format!(r#"{{"item": {{"meta": {{"id": "{i}"}}, "list": [{{"id": [{i}]}}]}}}}"#)
        }),
        records(&|i| format!(r#"{{"s": "\"id\": {i}", "v": {{"x": [{i}, "id"]}}, "id": null}}"#)),
    ];
    for (name, doc) in ["a.json", "b.json", "c.json"].iter().zip(&docs) {
        std::fs::write(dir.join(name), doc).expect("document written");
    }
    let run = |policy: &str| {
        let out = Command::new(BIN)
            .args(["--count", "--mmap", policy, "--batch-dir"])
            .arg(&dir)
            .arg("$..id")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "--mmap {policy}: {out:?}");
        out.stdout
    };
    let (copied, mapped, auto) = (run("off"), run("on"), run("auto"));
    let _ = std::fs::remove_dir_all(&dir);
    let counts = String::from_utf8(copied.clone()).expect("utf-8 stdout");
    assert_eq!(counts.lines().filter(|n| *n != "0").count(), 3, "{counts}");
    assert_eq!(mapped, copied);
    assert_eq!(auto, copied);
}
