//! Fault injection for the chunked-reader input layer: whatever chunk
//! sizes and transient errors the reader produces, a streamed run must
//! report exactly the matches the slice API reports — and never panic.

mod common;

use common::{stream, ChaosReader};
use rsq::datagen::{Dataset, GenConfig};
use rsq::{Engine, EngineOptions, LimitKind, PositionsSink, Query, RunError};

const QUERIES: &[&str] = &["$..a", "$..user.id", "$.statuses[0]..id", "$.*.*", "$"];

fn corpus() -> Vec<Vec<u8>> {
    let datasets = [Dataset::TwitterSmall, Dataset::Crossref, Dataset::Wikimedia];
    let mut docs: Vec<Vec<u8>> = datasets
        .iter()
        .map(|d| {
            d.generate(&GenConfig {
                target_bytes: 3_000,
                seed: 7,
            })
            .into_bytes()
        })
        .collect();
    // Edge-shaped documents: empty, atomic, tiny, block-aligned padding.
    docs.push(Vec::new());
    docs.push(b"42".to_vec());
    docs.push(br#"{"a": 1}"#.to_vec());
    docs.push({
        let mut d = br#"{"pad": ""#.to_vec();
        d.extend(std::iter::repeat_n(b'x', 119)); // total 128 = 2 blocks
        d.extend_from_slice(br#"""#);
        d.extend_from_slice(br#", "a": [1, 2]}"#);
        d
    });
    docs
}

fn reader_positions(engine: &Engine, reader: ChaosReader<'_>) -> Result<Vec<usize>, RunError> {
    let mut sink = PositionsSink::new();
    stream(engine, reader, &mut sink)?;
    Ok(sink.into_positions())
}

#[test]
fn chaos_reader_is_byte_identical_to_slice() {
    for doc in corpus() {
        for query in QUERIES {
            let engine = Engine::from_text(query).unwrap();
            let expected = engine.try_positions(&doc).unwrap();
            for seed in 0..8 {
                let got = reader_positions(&engine, ChaosReader::new(&doc, seed)).unwrap();
                assert_eq!(got, expected, "query {query}, seed {seed}");
            }
            // A reader failing on (almost) every other read still
            // converges to the same result.
            let got = reader_positions(&engine, ChaosReader::hostile(&doc, 99)).unwrap();
            assert_eq!(got, expected, "query {query}, hostile reader");
        }
    }
}

#[test]
fn truncation_at_block_boundaries_is_equivalent_to_truncated_slice() {
    for doc in corpus() {
        let engine = Engine::from_text("$..a").unwrap();
        for cut in (0..=doc.len()).step_by(64) {
            let prefix = &doc[..cut];
            let expected = engine.try_positions(prefix).unwrap();
            for seed in [1, 13] {
                let got = reader_positions(&engine, ChaosReader::new(prefix, seed)).unwrap();
                assert_eq!(got, expected, "cut {cut}, seed {seed}");
            }
        }
    }
}

#[test]
fn strict_reader_rejects_garbage_with_structured_errors() {
    let engine = Engine::with_options(
        &Query::parse("$..a").unwrap(),
        EngineOptions {
            strict: true,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    for garbage in [
        b"}}}}}}".as_slice(),
        b"{\"a\": [1, 2}",
        b"\"unterminated",
        b"{} trailing",
    ] {
        for seed in 0..4 {
            let err = reader_positions(&engine, ChaosReader::new(garbage, seed)).unwrap_err();
            assert!(
                matches!(err, RunError::Malformed(_)),
                "{:?}: {err}",
                String::from_utf8_lossy(garbage)
            );
        }
    }
}

#[test]
fn reader_enforces_limits_mid_stream() {
    // Depth: a pathological all-openers stream trips where the run
    // traverses it, as the slice does; under strict mode it trips while
    // the bytes arrive, for ANY query — including ones whose run would
    // not track depth.
    let deep = vec![b'['; 100_000];
    let engine = Engine::from_text("$..*").unwrap();
    let err = reader_positions(&engine, ChaosReader::new(&deep, 3)).unwrap_err();
    assert!(err.is_limit(LimitKind::Depth), "{err}");
    let engine = Engine::from_text("$..a").unwrap();
    let got = reader_positions(&engine, ChaosReader::new(&deep, 3));
    assert_eq!(got.unwrap(), engine.try_positions(&deep).unwrap());
    let engine = Engine::with_options(
        &Query::parse("$..a").unwrap(),
        EngineOptions {
            strict: true,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let err = reader_positions(&engine, ChaosReader::new(&deep, 3)).unwrap_err();
    assert!(err.is_limit(LimitKind::Depth), "{err}");

    // Document size.
    let engine = Engine::with_options(
        &Query::parse("$..a").unwrap(),
        EngineOptions {
            max_document_bytes: Some(1_000),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let doc = Dataset::TwitterSmall
        .generate(&GenConfig {
            target_bytes: 3_000,
            seed: 1,
        })
        .into_bytes();
    let err = reader_positions(&engine, ChaosReader::new(&doc, 5)).unwrap_err();
    assert!(err.is_limit(LimitKind::DocumentBytes), "{err}");

    // Matches.
    let engine = Engine::with_options(
        &Query::parse("$..id").unwrap(),
        EngineOptions {
            max_matches: Some(3),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let err = reader_positions(&engine, ChaosReader::new(&doc, 5)).unwrap_err();
    assert!(err.is_limit(LimitKind::Matches), "{err}");
}

#[test]
fn lenient_reader_never_panics_on_garbage() {
    let engine = Engine::from_text("$..a").unwrap();
    for garbage in [
        b"\x00\x01\x02{\"a\":1}\xff\xfe".as_slice(),
        b"{:1}",
        b"[,]",
        b"\\\\\\\"",
        b"]]]]{{{{",
    ] {
        for seed in 0..4 {
            // Lenient mode must either succeed or fail cleanly (depth
            // limit) — never panic.
            let _ = reader_positions(&engine, ChaosReader::new(garbage, seed));
        }
    }
}
