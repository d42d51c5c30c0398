//! Batch determinism: for any thread count (and so any chunk size) and any
//! backend, `BatchEngine` output must be byte-identical to a sequential
//! `Engine` loop over the same documents. This is the batch layer's
//! contract — parallelism is an implementation detail the results must
//! not leak.

use rsq_batch::{BatchEngine, BatchOptions, DocOutput, Matches};
use rsq_engine::{Engine, EngineOptions};
use rsq_query::Query;
use rsq_simd::BackendKind;

/// A corpus mixing the difftest seed documents with handwritten shapes
/// that exercise matches, empties, deep nesting, and arrays.
fn corpus() -> Vec<Vec<u8>> {
    let mut docs: Vec<Vec<u8>> = rsq_difftest::load_corpus(rsq_difftest::Target::Engine)
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect();
    docs.extend(
        [
            &br#"{"a": 1}"#[..],
            br#"{"a": {"a": {"a": {"a": 1}}}}"#,
            br#"[{"a": 1}, {"b": {"a": 2}}, [3, [4, {"a": 5}]]]"#,
            br#"{}"#,
            br#"[]"#,
            br#"{"x": [1, 2, 3], "a": "no {braces} here"}"#,
            br#"{"products": [{"id": 1, "categoryPath": [{"id": 7}]}]}"#,
        ]
        .iter()
        .map(|d| d.to_vec()),
    );
    // Replicate so the corpus is larger than any chunk, forcing several
    // queue claims per worker.
    let base = docs.clone();
    for _ in 0..3 {
        docs.extend(base.iter().cloned());
    }
    docs
}

/// The expected outcome list: a plain sequential loop with a fresh
/// single-document engine.
fn sequential(query: &str, options: EngineOptions, docs: &[&[u8]]) -> Vec<Option<DocOutput>> {
    let parsed = Query::parse(query).unwrap();
    let engine = Engine::with_options(&parsed, options).unwrap();
    docs.iter()
        .map(|doc| {
            engine.try_positions(doc).ok().map(|positions| DocOutput {
                count: positions.len() as u64,
                matches: Matches::Positions(positions),
            })
        })
        .collect()
}

/// Asserts batch output equals the sequential loop for every thread
/// count. The queue's chunk is derived from the thread count (about four
/// claims per worker, at least one document), so the sweep also walks the
/// chunk from one document up to a quarter of the corpus.
fn assert_deterministic(query: &str, options: EngineOptions) {
    let docs = corpus();
    let doc_refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let expected = sequential(query, options, &doc_refs);
    let mut claims = Vec::new();
    for threads in [1, 2, 3, 8, 64] {
        let batch = BatchEngine::new(BatchOptions {
            threads,
            engine: options,
            ..BatchOptions::default()
        });
        let result = batch.run_slices(query, &doc_refs).unwrap();
        assert_eq!(result.outcomes.len(), expected.len());
        for (i, (got, want)) in result.outcomes.iter().zip(&expected).enumerate() {
            match (got, want) {
                (Ok(g), Some(w)) => {
                    assert_eq!(g, w, "doc {i} diverged ({query}, threads={threads})");
                }
                (Err(_), None) => {}
                (got, want) => panic!(
                    "doc {i} outcome class diverged ({query}, threads={threads}): \
                     batch={got:?} sequential={want:?}"
                ),
            }
        }
        assert_eq!(result.counters.documents, doc_refs.len() as u64);
        assert!(result.counters.shards >= 1 && result.counters.shards <= threads as u64);
        claims.push(result.counters.queue_claims);
    }
    assert!(
        claims.first() < claims.last(),
        "the sweep must vary the chunk size: claims per run {claims:?}"
    );
}

#[test]
fn determinism_across_threads_default_backend() {
    for query in ["$..a", "$.a", "$..*", "$.products.*.categoryPath.*.id"] {
        assert_deterministic(query, EngineOptions::default());
    }
}

#[test]
fn determinism_swar_backend() {
    let options = EngineOptions {
        backend: Some(BackendKind::Swar),
        ..EngineOptions::default()
    };
    assert_deterministic("$..a", options);
}

#[test]
fn determinism_avx2_backend_when_supported() {
    if !BackendKind::Avx2.is_supported() {
        eprintln!("skipping: AVX2 not supported on this host");
        return;
    }
    let options = EngineOptions {
        backend: Some(BackendKind::Avx2),
        ..EngineOptions::default()
    };
    assert_deterministic("$..a", options);
}

#[test]
fn ndjson_batch_matches_sequential() {
    // Build an NDJSON corpus out of single-line documents, including one
    // with an escaped-newline string that must not split.
    let lines: Vec<&[u8]> = vec![
        br#"{"a": 1}"#,
        br#"{"b": {"a": 2}, "s": "newline \n inside"}"#,
        br#"[{"a": 3}, 4]"#,
        br#"{"nope": 0}"#,
    ];
    let mut input = Vec::new();
    for line in &lines {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    let expected = sequential("$..a", EngineOptions::default(), &lines);
    for threads in [1, 2, 8] {
        let batch = BatchEngine::new(BatchOptions {
            threads,
            ..BatchOptions::default()
        });
        let (ranges, result) = batch.run_ndjson("$..a", &input).unwrap();
        assert_eq!(ranges.len(), lines.len());
        for (i, range) in ranges.iter().enumerate() {
            assert_eq!(&input[range.clone()], lines[i], "line {i} range drifted");
        }
        for (i, (got, want)) in result.outcomes.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.as_ref().ok(),
                want.as_ref(),
                "doc {i}, threads={threads}"
            );
        }
    }
}

#[test]
fn merged_stats_match_sequential_totals() {
    let docs = corpus();
    let doc_refs: Vec<&[u8]> = docs.iter().map(Vec::as_slice).collect();
    let engine = Engine::from_text("$..a").unwrap();
    let mut expected = rsq_engine::RunStats::default();
    for doc in &doc_refs {
        let mut sink = rsq_engine::CountSink::new();
        if let Ok(stats) = engine.try_run_with_stats(doc, &mut sink) {
            expected += stats;
        }
    }
    for threads in [1, 2, 8] {
        let batch = BatchEngine::new(BatchOptions {
            threads,
            collect_stats: true,
            ..BatchOptions::default()
        });
        let result = batch.run_slices("$..a", &doc_refs).unwrap();
        assert_eq!(result.stats, expected, "threads={threads}");
    }
}
