//! Dispatch-boundary tests at the engine level (DESIGN.md §9): the same
//! query over the same document must yield identical match positions no
//! matter which instruction set the pipeline was compiled for, which route
//! ran it, and whether the backend was chosen once for the run or once per
//! block primitive.

use rsq_engine::{Engine, EngineOptions, RouteChoice};
use rsq_query::Query;
use rsq_simd::{BackendKind, Simd};

/// Smaller than one 256-byte superblock: the cursor's tail path only.
const SMALL: &str = r#"{
  "a": {"b": [1, 2, {"a": "x\"y{z[", "b": null}], "c": true},
  "list": [{"a": 3}, {"a": {"b": 4}}, "tail"],
  "deep": {"a": {"a": {"a": {"b": [false, {"a": 7}]}}}}
}"#;

const SMALL_QUERIES: &[&str] = &["$..a", "$.a.b", "$..a..b", "$..*", "$.list[1]", "$..a[1]"];

/// Routed (`$.items…` field chains, a selective path) and general
/// (descendants, an index, a wildcard tail) queries over [`generated`].
const GENERATED_QUERIES: &[&str] = &[
    "$.items.*.target.id",
    "$.items.*.target",
    "$.items.*.meta.*.target",
    "$..target",
    "$..target..id",
    "$..meta..target",
    "$.items[7].target.id",
    "$.items.*.*",
];

/// A document of some 70 superblocks in which the label `"target"` (and
/// the memmem needle the routes search for it with) starts at every
/// offset modulo 64 and crosses many 64- and 256-byte boundaries: element
/// `i` is preceded by `i % 80` bytes of padding. Each element also holds
/// escaped quotes, an even and an odd backslash run before a quote, and a
/// string whose contents look like the member being sought.
fn generated() -> Vec<u8> {
    let mut doc = br#"{"items": ["#.to_vec();
    for i in 0..240 {
        if i > 0 {
            doc.push(b',');
        }
        doc.extend(std::iter::repeat_n(b' ', i % 80));
        doc.extend_from_slice(
            format!(
                r#"{{"note": "say \"target\": {{\"id\": {i}}} \\\\", "odd": "\\\"target\"", "target": {{"id": {i}, "tags": ["a,b", "]"]}}, "meta": {{"deep": {{"target": [{i}, {{"id": "x"}}]}}}}}}"#
            )
            .as_bytes(),
        );
    }
    doc.extend_from_slice(br#"], "target": {"id": "root"}}"#);
    doc
}

#[test]
fn generated_document_straddles_block_and_superblock_boundaries() {
    let doc = generated();
    let needle = b"\"target\"";
    let starts: Vec<usize> = doc
        .windows(needle.len())
        .enumerate()
        .filter_map(|(at, window)| (window == needle).then_some(at))
        .collect();
    for boundary in [64, 256] {
        let crossing = starts
            .iter()
            .filter(|&&at| at / boundary != (at + needle.len() - 1) / boundary)
            .count();
        assert!(
            crossing >= 8,
            "{crossing} needles cross a {boundary}-byte edge"
        );
    }
    assert!(doc.len() > 64 * 256, "only {} bytes", doc.len());
}

/// Every way this host can run `query` over `doc`, by name: each
/// supported backend pinned — one dispatch per run, the backend static
/// below it — on the route the engine picks and on the general route, and
/// the run-time `Simd` handle itself as the backend, a `match` on every
/// block primitive and no dispatch at all.
fn runs(query: &Query, doc: &[u8]) -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for kind in BackendKind::supported() {
        for route in [RouteChoice::Auto, RouteChoice::General] {
            let options = EngineOptions {
                backend: Some(kind),
                route,
                ..EngineOptions::default()
            };
            let engine = Engine::with_options(query, options).expect("query compiles");
            out.push((
                format!("{kind} dispatched, {route:?}"),
                engine.try_positions(doc).expect("document is valid"),
            ));
            let mut per_call = Vec::new();
            engine
                .try_run_on(Simd::with_kind(kind), doc, &mut per_call)
                .expect("document is valid");
            out.push((format!("{kind} per call, {route:?}"), per_call));
        }
    }
    out
}

#[test]
fn every_backend_route_and_dispatch_granularity_agrees() {
    let generated = generated();
    let cases = [
        (SMALL.as_bytes(), SMALL_QUERIES),
        (generated.as_slice(), GENERATED_QUERIES),
    ];
    for (doc, queries) in cases {
        for query_text in queries {
            let query = Query::parse(query_text).expect("query parses");
            let runs = runs(&query, doc);
            let (baseline_name, baseline) = &runs[0];
            for (name, positions) in &runs[1..] {
                assert_eq!(
                    positions, baseline,
                    "{query_text}: {name} diverges from {baseline_name}"
                );
            }
        }
    }
}

#[test]
fn generated_queries_match_on_both_routes() {
    let doc = generated();
    let routed = GENERATED_QUERIES
        .iter()
        .filter(|text| {
            let engine = Engine::from_text(text).expect("query compiles");
            assert_ne!(engine.count(&doc), 0, "{text} matches nothing");
            engine.route() != rsq_engine::Route::General
        })
        .count();
    assert!(routed >= 3, "{routed} routed");
    assert!(GENERATED_QUERIES.len() - routed >= 3);
}

#[test]
fn auto_detected_backend_matches_pinned_detection() {
    let detected = Simd::detect().kind();
    for query_text in SMALL_QUERIES {
        let query = Query::parse(query_text).expect("query parses");
        let positions = |backend| {
            let options = EngineOptions {
                backend,
                ..EngineOptions::default()
            };
            Engine::with_options(&query, options)
                .expect("query compiles")
                .try_positions(SMALL.as_bytes())
                .expect("document is valid")
        };
        assert_eq!(
            positions(None),
            positions(Some(detected)),
            "{query_text}: auto-dispatch diverges from pinned {detected}"
        );
    }
}
