//! Exhaustive truncation: a corpus document cut at EVERY byte offset must
//! never panic the engine — under several ablation configurations and on
//! the chunked-reader path. Deterministic and dependency-free, so it runs
//! in every tier-1 invocation (unlike the randomized `robustness` suite).

mod common;

use common::{count_slice, stream, ChaosReader};
use rsq::datagen::{Dataset, GenConfig};
use rsq::{Engine, EngineOptions, PositionsSink, Query};

fn configs() -> [EngineOptions; 4] {
    let d = EngineOptions::default();
    [
        d,
        EngineOptions {
            skip_leaves: false,
            skip_children: false,
            ..d
        },
        EngineOptions {
            head_start: false,
            label_seek: false,
            ..d
        },
        EngineOptions {
            backend: Some(rsq::simd::BackendKind::Swar),
            sparse_stack: false,
            ..d
        },
    ]
}

#[test]
fn every_cut_offset_is_survivable() {
    // TwitterSmall ends in the search_metadata object, so late cuts land
    // inside labels, strings, and numbers; early cuts inside the array.
    let doc = Dataset::TwitterSmall.generate(&GenConfig {
        target_bytes: 2_000,
        seed: 3,
    });
    let doc = doc.as_bytes();
    let queries: Vec<Vec<Engine>> = ["$..id", "$.statuses[0].user.id", "$..*"]
        .iter()
        .map(|q| {
            let query = Query::parse(q).unwrap();
            configs()
                .iter()
                .map(|o| Engine::with_options(&query, *o).unwrap())
                .collect()
        })
        .collect();
    for cut in 0..=doc.len() {
        let truncated = &doc[..cut];
        for engines in &queries {
            for engine in engines {
                // Lenient slice path: must not panic; the error channel
                // (if a limit trips) must be clean.
                let _ = count_slice(engine, truncated);
            }
        }
    }
}

#[test]
fn every_cut_offset_reader_path_matches_slice() {
    let doc = Dataset::Crossref.generate(&GenConfig {
        target_bytes: 1_200,
        seed: 11,
    });
    let doc = doc.as_bytes();
    let engine = Engine::from_text("$..DOI").unwrap();
    for cut in 0..=doc.len() {
        let truncated = &doc[..cut];
        let expected = engine.try_positions(truncated).unwrap();
        let mut sink = PositionsSink::new();
        stream(&engine, ChaosReader::new(truncated, cut as u64), &mut sink).unwrap();
        assert_eq!(sink.into_positions(), expected, "cut {cut}");
    }
}
