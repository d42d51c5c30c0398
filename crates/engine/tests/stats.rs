//! Tier A observability: `try_run_with_stats` must report the work the
//! engine actually performed, without changing what it reports to the sink.

use rsq_engine::{Engine, EngineOptions, Input, NoStats, PositionsSink, RunStats};
use rsq_query::Query;

/// A document exercising every skipping technique: decoy subtrees for
/// child skipping, unique labels for sibling skipping, atomic members for
/// leaf skipping, and `"price"` occurrences (one a string *value*, not a
/// label) for the memmem head start.
const RICH: &[u8] = br#"{
  "decoy": {"deep": {"deeper": {"deepest": [1, 2, 3]}}},
  "note": "price",
  "store": {
    "book": {"price": 9, "title": "x"},
    "bike": {"price": {"amount": 20, "currency": "EUR"}},
    "misc": [10, 20, 30]
  }
}"#;

fn engine(query: &str, options: EngineOptions) -> Engine {
    Engine::with_options(&Query::parse(query).unwrap(), options).unwrap()
}

fn positions_with_stats(engine: &Engine, doc: &[u8]) -> (Vec<usize>, RunStats) {
    let mut sink = PositionsSink::new();
    let stats = engine.try_run_with_stats(doc, &mut sink).unwrap();
    (sink.into_positions(), stats)
}

#[test]
fn stats_variant_reports_identical_positions() {
    for query in ["$..price", "$.store.book.price", "$.store.*", "$..*"] {
        let engine = engine(query, EngineOptions::default());
        let plain = engine.try_positions(RICH).unwrap();
        let (with_stats, stats) = positions_with_stats(&engine, RICH);
        assert_eq!(plain, with_stats, "query {query}");
        assert_eq!(stats.matches, plain.len() as u64, "query {query}");
        assert_eq!(stats.bytes, RICH.len() as u64, "query {query}");
    }
}

#[test]
fn head_start_stats_count_jumps_declines_and_handoffs() {
    let engine = engine("$..price", EngineOptions::default());
    let (positions, stats) = positions_with_stats(&engine, RICH);
    assert_eq!(positions.len(), 2);
    // Two genuine labels (one atomic, one composite value)…
    assert_eq!(stats.memmem_jumps, 2);
    // …one lookalike — `"price"` as a string value, declined because no
    // colon follows it…
    assert_eq!(stats.memmem_declined, 1);
    // …and one handoff to the structural classifier for the composite
    // value's sub-run.
    assert_eq!(stats.resume_handoffs, 1);
    assert!(stats.blocks.quote > 0, "the seek quote-classified the gaps");
    assert!(stats.blocks.total() > 0);
}

#[test]
fn head_start_classifies_each_block_once() {
    // One cursor walks the document: the gaps the head start crosses are
    // quote-classified, the sub-runs structurally, and no block twice.
    let sub = r#"{"price": {"amount": 20, "tags": ["a", "price"]}, "x": [1, 2]}"#;
    let doc = format!(
        r#"{{"note": "price", "items": [{}], "price": 3}}"#,
        vec![sub; 40].join(", ")
    );
    for options in [
        EngineOptions::default(),
        EngineOptions {
            label_seek: false,
            ..EngineOptions::default()
        },
    ] {
        for doc in [RICH, doc.as_bytes()] {
            let (positions, stats) = positions_with_stats(&engine("$..price", options), doc);
            assert!(!positions.is_empty());
            assert!(stats.resume_handoffs > 0);
            assert!(
                stats.blocks.total() <= (doc.len() as u64).div_ceil(64),
                "{} blocks classified over {} bytes: {:?}",
                stats.blocks.total(),
                doc.len(),
                stats.blocks
            );
            assert_eq!(stats.blocks.seek, 0, "the head start is not a subtree seek");
        }
    }
}

#[test]
fn main_loop_stats_count_skips_and_depth() {
    // Force the general route so `$.store.book.price` drives the main
    // loop over the whole document instead of the fast-path walker.
    let engine = engine(
        "$.store.book.price",
        EngineOptions {
            route: rsq_engine::RouteChoice::General,
            ..EngineOptions::default()
        },
    );
    let (positions, stats) = positions_with_stats(&engine, RICH);
    assert_eq!(positions.len(), 1);
    // The `decoy` subtree enters on a rejecting transition.
    assert!(stats.skips.child > 0, "child skips: {:?}", stats.skips);
    // Labels are unique at every level, so unitary sibling skipping fires.
    assert!(stats.skips.sibling > 0, "sibling skips: {:?}", stats.skips);
    // Levels whose members cannot match in one step toggle leaves off.
    assert!(stats.skips.leaf > 0, "leaf skips: {:?}", stats.skips);
    assert!(stats.events > 0);
    assert!(stats.max_depth >= 3, "max depth {}", stats.max_depth);
    assert!(stats.blocks.structural > 0);
}

#[test]
fn fast_path_stats_report_route_and_memmem_counters() {
    use rsq_engine::{Route, RouteChoice};

    // A label chain routes to the fast-path walker: the route is
    // reported and the direct seeks surface as memmem jumps/declines —
    // previously always zero for non-descendant queries.
    let fast = engine("$.store.book.price", EngineOptions::default());
    assert_eq!(fast.route(), Route::Selective);
    let (positions, stats) = positions_with_stats(&fast, RICH);
    assert_eq!(positions.len(), 1);
    assert_eq!(stats.route, Route::Selective);
    assert!(stats.memmem_jumps > 0, "direct seeks count as jumps");
    // The `"price"` string *value* under `note` sits outside the sought
    // containers, so it is never even a candidate here; declines are
    // exercised by the seek oracle (`rsq-classify`'s `seek_proptest.rs`).
    assert!(stats.skips.label > 0, "each seek is a label engagement");
    // No sibling skips here: once the single match is recorded every
    // frame is waiting out its container, and the walker stops instead
    // of fast-forwarding to each closing brace (the `exit` elision).
    assert_eq!(stats.skips.sibling, 0, "early exit preempts sibling skips");

    // Forcing the general route must not change the positions, and the
    // stats must say so.
    let general = engine(
        "$.store.book.price",
        EngineOptions {
            route: RouteChoice::General,
            ..EngineOptions::default()
        },
    );
    assert_eq!(general.route(), Route::General);
    let (gen_positions, gen_stats) = positions_with_stats(&general, RICH);
    assert_eq!(gen_positions, positions);
    assert_eq!(gen_stats.route, Route::General);

    // A selective shape reports its own route.
    let selective = engine("$.store.*.price", EngineOptions::default());
    assert_eq!(selective.route(), Route::Selective);
    let (sel_positions, sel_stats) = positions_with_stats(&selective, RICH);
    assert_eq!(sel_stats.route, Route::Selective);
    assert_eq!(sel_positions.len(), 2);

    // Descendant queries keep the head start; their route stays general.
    let descendant = engine("$..price", EngineOptions::default());
    assert_eq!(descendant.route(), Route::General);
    let (_, desc_stats) = positions_with_stats(&descendant, RICH);
    assert_eq!(desc_stats.route, Route::General);
}

#[test]
fn label_seek_stats_count_engagements() {
    let options = EngineOptions {
        head_start: false,
        ..EngineOptions::default()
    };
    // The seek engages only in *internal* waiting states (cannot accept in
    // one step), so the query needs a child step after the descendant.
    let engine = engine("$..target.value", options);
    // Enough stale openings in the waiting state to engage the seek
    // classifier (the engine waits out a streak before switching).
    let doc = br#"{"a": {"b": {"c": {"d": {"e": {"target": {"value": 42}}}}}}}"#;
    let (positions, stats) = positions_with_stats(&engine, doc);
    assert_eq!(positions.len(), 1);
    assert!(stats.skips.label > 0, "label seeks: {:?}", stats.skips);
}

#[test]
fn disabled_techniques_report_exactly_zero() {
    let base = EngineOptions::default();

    let no_leaves = engine(
        "$.store.book.price",
        EngineOptions {
            skip_leaves: false,
            ..base
        },
    );
    assert_eq!(positions_with_stats(&no_leaves, RICH).1.skips.leaf, 0);

    let no_children = engine(
        "$.store.book.price",
        EngineOptions {
            skip_children: false,
            ..base
        },
    );
    assert_eq!(positions_with_stats(&no_children, RICH).1.skips.child, 0);

    let no_siblings = engine(
        "$.store.book.price",
        EngineOptions {
            skip_siblings: false,
            ..base
        },
    );
    assert_eq!(positions_with_stats(&no_siblings, RICH).1.skips.sibling, 0);

    let no_seek = engine(
        "$..price",
        EngineOptions {
            head_start: false,
            label_seek: false,
            ..base
        },
    );
    let stats = positions_with_stats(&no_seek, RICH).1;
    assert_eq!(stats.skips.label, 0);
    assert_eq!(stats.memmem_jumps, 0);
    assert_eq!(stats.memmem_declined, 0);
    assert_eq!(stats.resume_handoffs, 0);
}

#[test]
fn reader_ingest_then_stats_run_matches_slice_path() {
    // The reader path is ingest + the slice engine: a document pulled
    // through `read_document` one byte at a time reports the same
    // matches and the same counters (`bytes` = the assembled length) as
    // the slice it was read from, and a streamed run the same matches.
    struct OneByte<'a>(&'a [u8]);
    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    let engine = engine("$..price", EngineOptions::default());
    let (slice_positions, slice_stats) = positions_with_stats(&engine, RICH);
    let doc = engine.read_document(OneByte(RICH)).unwrap();
    let (reader_positions, reader_stats) = positions_with_stats(&engine, &doc);
    assert_eq!(reader_positions, slice_positions);
    assert_eq!(reader_stats, slice_stats);
    assert_eq!(reader_stats.bytes, RICH.len() as u64);
    let mut sink = PositionsSink::new();
    let reader = Input::Reader {
        reader: &mut OneByte(RICH),
        deadline: None,
    };
    engine.exec(reader, &mut sink, &mut NoStats).unwrap();
    assert_eq!(sink.positions(), slice_positions.as_slice());
}

#[test]
fn stats_merge_across_chunked_runs() {
    let engine = engine("$..price", EngineOptions::default());
    let docs: [&[u8]; 2] = [RICH, br#"{"price": 1}"#];
    let mut merged = RunStats::default();
    let mut total_matches = 0u64;
    for doc in docs {
        let (positions, stats) = positions_with_stats(&engine, doc);
        total_matches += positions.len() as u64;
        merged += stats;
    }
    assert_eq!(merged.matches, total_matches);
    assert_eq!(
        merged.bytes,
        docs.iter().map(|d| d.len() as u64).sum::<u64>()
    );
    // `max_depth` merges as a maximum, not a sum.
    let single = positions_with_stats(&engine, RICH).1;
    assert_eq!(merged.max_depth, single.max_depth);
}

#[test]
fn early_stop_keeps_partial_stats() {
    let engine = engine(
        "$..price",
        EngineOptions {
            max_matches: Some(1),
            ..EngineOptions::default()
        },
    );
    let mut sink = PositionsSink::new();
    // The limit trips after one match: the run errors, but a voluntary
    // sink stop (SinkFull from a bounded sink) is the clean variant.
    assert!(engine.try_run_with_stats(RICH, &mut sink).is_err());
}
