//! Golden outputs: stdout, the `--stats`/`--stats-json`/`--profile`
//! block on stderr, and the `--metrics-out` file of single-document,
//! `--batch-ndjson`/`--batch-dir` and `--serve` runs must stay
//! byte-identical to the fixtures in `tests/golden/`, which
//! `tests/golden/capture.sh` recorded from the binary of the commit
//! before the three drivers were folded onto one runner, one renderer and
//! one report writer. Hardware counters are off (`RSQ_PERF=off`), so the
//! fixtures hold on hosts that grant `perf_event_open` too.
//!
//! The `doc-deep-skipped-*` pair (recorded from the commit before copied
//! documents moved into the huge-page region) pins a known divergence
//! between input paths rather than an agreement: 2 000 levels under a
//! member the query skips pass when the file is mapped and trip
//! `--max-depth` when it is copied (DESIGN.md §7).
//!
//! Only values that depend on the clock or on thread scheduling are
//! masked (on both sides, by [`mask`]): `*_ns` timings, the latency
//! histogram, and serve's `backpressure_waits`/`max_inflight`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_rsq");

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Replaces every digit run in `text` with `#`.
fn blank_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// Masks the clock- and scheduling-dependent values of one JSON line:
/// the number after a `"…_ns":`, `"backpressure_waits":` or
/// `"max_inflight":` key, and the whole `"latency":{…}` histogram.
fn mask_json(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(quote) = rest.find('"') {
        let (before, from_key) = rest.split_at(quote);
        out.push_str(before);
        let Some(len) = from_key[1..].find("\":") else {
            break;
        };
        let key = &from_key[1..=len];
        let value = &from_key[len + 3..];
        out.push_str(&from_key[..len + 3]);
        let volatile = key.ends_with("_ns") || key == "backpressure_waits" || key == "max_inflight";
        rest = if key == "latency" {
            // The histogram is flat apart from its bucket list, which
            // sits last: it ends at the first `]}`.
            let end = value.find("]}").map_or(value.len(), |at| at + 2);
            out.push('#');
            &value[end..]
        } else if volatile {
            out.push('#');
            value.trim_start_matches(|c: char| c.is_ascii_digit())
        } else {
            value
        };
    }
    out.push_str(rest);
    out
}

/// Masks one report: JSON lines by key, table and exposition lines whole
/// when they carry timings or scheduling-dependent counters.
fn mask(text: &str) -> String {
    let volatile_line = |line: &str| {
        let name = line.split(['{', ' ']).next().unwrap_or("");
        name.contains("_ns")
            || name == "rsq_serve_backpressure_waits_total"
            || name == "rsq_serve_max_inflight"
            || [
                "stage times (ns)",
                "doc latency (ns)",
                "worker ",
                "backpressure ",
            ]
            .iter()
            .any(|prefix| line.starts_with(prefix))
    };
    text.split_inclusive('\n')
        .map(|line| {
            if line.starts_with('{') {
                mask_json(line)
            } else if volatile_line(line) {
                blank_numbers(line)
            } else {
                line.to_owned()
            }
        })
        .collect()
}

#[test]
fn masking_hides_timings_and_nothing_else() {
    assert_eq!(
        mask("{\"bytes\":50,\"stages\":{\"ingest_ns\":41267,\"sink_ns\":0},\"matches\":3}\n"),
        "{\"bytes\":50,\"stages\":{\"ingest_ns\":#,\"sink_ns\":#},\"matches\":3}\n"
    );
    assert_eq!(
        mask(
            "{\"latency\":{\"count\":4,\"p50\":4095,\"buckets\":[[8,1],[13,1]]},\
             \"workers\":[{\"busy_ns\":7,\"claims\":4}]}"
        ),
        "{\"latency\":#,\"workers\":[{\"busy_ns\":#,\"claims\":4}]}"
    );
    assert_eq!(
        mask("{\"io_errors\":0,\"backpressure_waits\":2,\"max_inflight\":4,\"route_docs\":{}}"),
        "{\"io_errors\":0,\"backpressure_waits\":#,\"max_inflight\":#,\"route_docs\":{}}"
    );
    assert_eq!(
        mask(
            "matches            3\nstage times (ns)   ingest 39073 validate 0\n\
             rsq_stage_ns_total{stage=\"sink\"} 796\nrsq_matches_total 3\n"
        ),
        "matches            3\nstage times (ns)   ingest # validate #\n\
         rsq_stage_ns_total{stage=\"sink\"} #\nrsq_matches_total 3\n"
    );
}

#[test]
fn reports_are_byte_identical_to_the_fixtures() {
    let dir = golden_dir();
    let cases = std::fs::read_to_string(dir.join("cases.tsv")).expect("case table");
    let scratch = std::env::temp_dir().join(format!("rsq-golden-{}.metrics", std::process::id()));
    let fixture = |name: &str, kind: &str| {
        let path = dir.join(format!("{name}.{kind}"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 report");
    let mut ran = 0;
    for case in cases.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = case.split('\t').collect();
        let [name, exit, stdin, args] = fields[..] else {
            panic!("malformed case line: {case:?}");
        };
        let _ = std::fs::remove_file(&scratch);
        let mut child = Command::new(BIN)
            .args(args.split(' ').map(|arg| match arg {
                "@METRICS" => scratch.to_str().expect("utf-8 temp path"),
                other => other,
            }))
            .current_dir(&dir)
            .env("RSQ_PERF", "off")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut pipe = child.stdin.take().expect("stdin piped");
        if stdin != "-" {
            // A run that fails early may close its stdin first.
            let _ = pipe.write_all(&std::fs::read(dir.join(stdin)).expect("stdin fixture"));
        }
        drop(pipe);
        let output = child.wait_with_output().expect("binary exits");

        assert_eq!(
            output.status.code(),
            Some(exit.parse().expect("exit code")),
            "{name}: exit code"
        );
        assert_eq!(output.stdout, fixture(name, "stdout"), "{name}: stdout");
        assert_eq!(
            mask(&text(output.stderr)),
            mask(&text(fixture(name, "stderr"))),
            "{name}: stderr"
        );
        if args.contains("@METRICS") {
            let written = std::fs::read(&scratch).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                mask(&text(written)),
                mask(&text(fixture(name, "metrics"))),
                "{name}: metrics file"
            );
        }
        ran += 1;
    }
    let _ = std::fs::remove_file(&scratch);
    assert!(ran >= 28, "the case table shrank to {ran} cases");
}
