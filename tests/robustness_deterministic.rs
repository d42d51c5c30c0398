//! Deterministic, dependency-free robustness suite — always on, so tier-1
//! covers it offline (the randomized `robustness` suite needs the
//! `slow-tests` feature). Ported structural-garbage cases plus the
//! resource-limit and strict-mode acceptance checks of the hardened input
//! layer.

mod common;

use common::ChaosReader;
use rsq::{CountSink, Engine, EngineOptions, LimitKind, Query, RunError, Sink, SinkFull};

fn engines() -> Vec<Engine> {
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

/// Deterministic nasty inputs exercising unbalanced structure (ported
/// from the feature-gated randomized suite, where it sat behind
/// `slow-tests`).
const GARBAGE: &[&[u8]] = &[
    b"}}}}}}",
    b"]]]]{{{{",
    b"{{{{",
    b"[[[[",
    b"{\"a\"",
    b"{\"a\":}",
    b"{:1}",
    b"[,]",
    b"\"unterminated",
    b"\\\\\\\"",
    b"{\"a\": [1, 2}",
    b"[{\"x\": ]1}",
    b"\x00\x01\x02{\"a\":1}\xff\xfe",
];

#[test]
fn structural_only_garbage() {
    for engine in engines() {
        for case in GARBAGE {
            // Lenient API: never panics, whatever the bytes.
            let _ = engine.count(case);
            // Fallible API: never panics, and errors (if any) are the
            // structured kind, not unwinds.
            let _ = engine.try_count(case);
            // Reader path, chunked adversarially.
            let mut sink = CountSink::new();
            let _ = engine.run_reader(ChaosReader::new(case, 17), &mut sink);
        }
    }
}

#[test]
fn strict_mode_returns_structured_errors_on_garbage() {
    let engine = Engine::with_options(
        &Query::parse("$..a").unwrap(),
        EngineOptions {
            strict: true,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    // Structurally broken inputs are rejected with Malformed.
    for case in [
        b"}}}}}}".as_slice(),
        b"]]]]{{{{",
        b"{{{{",
        b"{\"a\"",
        b"\"unterminated",
        b"{\"a\": [1, 2}",
        b"[{\"x\": ]1}",
        b"\x00\x01\x02{\"a\":1}\xff\xfe", // leading garbage = no bracketed root + trailing bytes
    ] {
        let err = engine.try_count(case).unwrap_err();
        assert!(
            matches!(err, RunError::Malformed(_)),
            "{:?} gave {err}",
            String::from_utf8_lossy(case)
        );
    }
    // Token-level mistakes are beyond structural validation's scope and
    // pass through to best-effort matching.
    for case in [b"{\"a\":}".as_slice(), b"{:1}", b"[,]"] {
        assert!(
            engine.try_count(case).is_ok(),
            "{:?}",
            String::from_utf8_lossy(case)
        );
    }
}

#[test]
fn million_deep_document_trips_default_depth_limit() {
    let mut doc = vec![b'['; 1_000_000];
    doc.extend(std::iter::repeat_n(b']', 1_000_000));

    // Slice path: `$..*` traverses every level, so the main loop's own
    // depth accounting must trip at the default limit.
    let engine = Engine::from_text("$..*").unwrap();
    let err = engine.try_count(&doc).unwrap_err();
    assert!(err.is_limit(LimitKind::Depth), "{err}");
    match err {
        RunError::LimitExceeded { limit, .. } => {
            assert_eq!(limit, u64::from(EngineOptions::DEFAULT_MAX_DEPTH));
        }
        other => panic!("unexpected: {other}"),
    }

    // Reader path: ingest-time validation trips for ANY query, including
    // ones whose skip-to-label path never tracks absolute depth.
    let engine = Engine::from_text("$..a").unwrap();
    let mut sink = CountSink::new();
    let err = engine
        .run_reader(ChaosReader::new(&doc, 23), &mut sink)
        .unwrap_err();
    assert!(err.is_limit(LimitKind::Depth), "{err}");

    // The lenient API survives the same document without panicking.
    let lenient = Engine::from_text("$..*").unwrap();
    let _ = lenient.count(&doc);
}

#[test]
fn depth_limit_is_configurable_and_exact() {
    // depth 3: {"a": {"b": {"c": 1}}}
    let doc = br#"{"a": {"b": {"c": 1}}}"#;
    let query = Query::parse("$..*").unwrap();
    let at = |max_depth| {
        Engine::with_options(
            &query,
            EngineOptions {
                max_depth,
                ..EngineOptions::default()
            },
        )
        .unwrap()
        .try_count(doc)
    };
    assert_eq!(at(3).unwrap(), 3);
    assert!(at(2).unwrap_err().is_limit(LimitKind::Depth));
}

#[test]
fn label_limit_guards_examined_labels() {
    let doc = br#"{"short": 1, "averyveryverylonglabel": {"x": 2}}"#;
    let query = Query::parse("$.*.x").unwrap();
    let engine = Engine::with_options(
        &query,
        EngineOptions {
            max_label_bytes: Some(10),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let err = engine.try_count(doc).unwrap_err();
    assert!(err.is_limit(LimitKind::LabelBytes), "{err}");

    // Generous limit: passes.
    let engine = Engine::with_options(
        &query,
        EngineOptions {
            max_label_bytes: Some(100),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(engine.try_count(doc).unwrap(), 1);
}

#[test]
fn match_limit_counts_only_delivered_matches() {
    let doc = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;
    let query = Query::parse("$..a").unwrap();
    let at = |max_matches| {
        Engine::with_options(
            &query,
            EngineOptions {
                max_matches: Some(max_matches),
                ..EngineOptions::default()
            },
        )
        .unwrap()
        .try_positions(doc)
    };
    assert_eq!(at(3).unwrap().len(), 3);
    let err = at(2).unwrap_err();
    assert!(err.is_limit(LimitKind::Matches), "{err}");
}

#[test]
fn sink_early_stop_is_clean_not_an_error() {
    struct FirstN {
        left: usize,
        got: Vec<usize>,
    }
    impl Sink for FirstN {
        fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
            if self.left == 0 {
                return Err(SinkFull);
            }
            self.left -= 1;
            self.got.push(pos);
            Ok(())
        }
    }
    let doc = br#"{"a": 1, "b": {"a": 2}, "c": {"a": 3}}"#;
    let engine = Engine::from_text("$..a").unwrap();
    let mut sink = FirstN {
        left: 2,
        got: Vec::new(),
    };
    engine.try_run(doc, &mut sink).unwrap(); // NOT an error
    assert_eq!(sink.got, engine.positions(doc)[..2].to_vec());
}

#[test]
fn document_byte_limit_applies_to_slices_up_front() {
    let engine = Engine::with_options(
        &Query::parse("$..a").unwrap(),
        EngineOptions {
            max_document_bytes: Some(8),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let err = engine.try_count(br#"{"a": [1, 2, 3]}"#).unwrap_err();
    assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");
    assert_eq!(engine.try_count(b"{...a..}").unwrap(), 0); // exactly 8 bytes: allowed
}

/// Regression guards for the two `expect`s removed from the hot paths
/// (`main_loop` label seek, `head_start` dispatch): the invariant-holding
/// paths they sat on must keep producing correct results under the
/// configurations that exercise them hardest.
#[test]
fn label_seek_and_head_start_paths_stay_correct() {
    // Deep homogeneous nesting drives the waiting-state streak that
    // engages the label-seek classifier (the former expect at the seek).
    let mut doc = String::new();
    for _ in 0..12 {
        doc.push_str(r#"{"pad1": [1, 2], "pad2": {"q": 0}, "inner": "#);
    }
    doc.push_str(r#"{"needle": 42}"#);
    for _ in 0..12 {
        doc.push('}');
    }
    let d = EngineOptions::default();
    let query = Query::parse("$..needle").unwrap();
    for options in [
        d,
        EngineOptions {
            label_seek: false,
            ..d
        },
        EngineOptions {
            head_start: false,
            ..d
        },
        EngineOptions {
            head_start: false,
            label_seek: false,
            ..d
        },
    ] {
        let engine = Engine::with_options(&query, options).unwrap();
        assert_eq!(engine.try_count(doc.as_bytes()).unwrap(), 1, "{options:?}");
    }
}

/// Hang detector for the label seeks: containers that lack the sought
/// label, each of which ends its seek at its own closing character, with
/// the label's next occurrence at the far end of the document or nowhere.
/// A seek that searches for that occurrence afresh every time makes the
/// run quadratic (minutes in this build); one `memmem` frontier per label
/// keeps it linear (well under a second). The bound is generous — it tells
/// those apart, it is not a benchmark.
#[test]
fn label_seeks_over_label_free_siblings_stay_linear() {
    const SIBLINGS: usize = 50_000;
    let sibling = r#"{"a":{"x":{"y":{"z":{"w":{"v":1}}}}}}"#;
    let siblings = vec![sibling; SIBLINGS].join(",");
    for (query, doc) in [
        // General route: the head start on `a`, a subtree seek for `b`.
        (
            "$..a..b.c",
            format!(r#"[{siblings},{{"a":{{"x":{{"b":{{"c":7}}}}}}}}]"#),
        ),
        // Routed walker: a member seek for `b` in every `a`.
        ("$.r.*.a.b", format!(r#"{{"r":[{siblings}]}}"#)),
    ] {
        let query = Query::parse(query).unwrap();
        let dom = rsq::json::parse(doc.as_bytes()).unwrap();
        let expected = rsq::baselines::positions(&query, &dom);
        let engine = Engine::from_query(&query).unwrap();
        let started = std::time::Instant::now();
        let got = engine.try_positions(doc.as_bytes()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(got, expected, "{query:?}");
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "{query:?} took {elapsed:?} over {SIBLINGS} label-free siblings"
        );
    }
}
