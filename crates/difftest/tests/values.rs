//! The values lane: values mode cuts a short value at record time from
//! one 64-byte load (DESIGN.md §15.5), and what it prints must be what
//! spanning every match with `node_span` after the run prints — for every
//! catalog query on its dataset, and for documents built to put value
//! ends on the load's edge, on every backend and on both routes (as
//! routed, and forced onto the general loop).

use rsq_batch::{render, runner, DocSink, Record, ResponseMode};
use rsq_datagen::catalog::catalog;
use rsq_datagen::GenConfig;
use rsq_difftest::{backends, engine_queries, random_json, XorShift64};
use rsq_engine::{Engine, EngineOptions, Input, RouteChoice};

/// Requires the cut render of `query` over `doc` to equal the post-pass
/// render — every match offset spanned by `node_span` after the run,
/// `<malformed>` where it finds no end. Inputs the engine rejects are
/// skipped: values mode prints nothing for them.
fn check_values(query: &str, doc: &[u8]) {
    let parsed = rsq_query::Query::parse(query).unwrap();
    for simd in backends() {
        for route in [RouteChoice::Auto, RouteChoice::General] {
            let options = EngineOptions {
                backend: Some(simd.kind()),
                route,
                ..EngineOptions::default()
            };
            let engine = Engine::with_options(&parsed, options).unwrap();
            let Ok(positions) = engine.try_positions(doc) else {
                continue;
            };
            let mut spanned = Vec::new();
            for p in positions {
                match rsq_json::node_span(doc, p) {
                    Some(span) => spanned.extend_from_slice(&doc[span]),
                    None => spanned.extend_from_slice(b"<malformed>"),
                }
                spanned.push(b'\n');
            }
            let mut sink = DocSink::new(ResponseMode::Values, None);
            runner::run(&engine, Input::Slice(doc), &mut sink, Record::Nothing).unwrap();
            let mut cut = Vec::new();
            render(&mut cut, doc, sink.matches()).unwrap();
            if let Some((line, (c, s))) = cut
                .split(|&b| b == b'\n')
                .zip(spanned.split(|&b| b == b'\n'))
                .enumerate()
                .find(|(_, (c, s))| c != s)
            {
                panic!(
                    "{query} on {:?} route {route:?}, line {line}: cut {:?}, spanned {:?} \
                     (document {:?})",
                    simd.kind(),
                    String::from_utf8_lossy(c),
                    String::from_utf8_lossy(s),
                    String::from_utf8_lossy(&doc[..doc.len().min(200)]),
                );
            }
            assert_eq!(cut.len(), spanned.len(), "{query} on {:?}", simd.kind());
        }
    }
}

/// Documents whose values end at every byte around the edge of the load:
/// strings (plain, with an escaped quote, ending in `\\`) and numbers of
/// 0–130 bytes under `a` in an object, an array and a nested member, each
/// also as a document of its own that ends with it, and strings that the
/// document's end leaves unterminated.
fn value_edge_documents() -> Vec<Vec<u8>> {
    let mut docs = Vec::new();
    for len in 0..=130usize {
        let (half, rest) = ("e".repeat(len / 2), "e".repeat(len - len / 2));
        for value in [
            format!("\"{}\"", "s".repeat(len)),
            format!("\"{half}\\\"{rest}\""),
            format!("\"{}\\\\\"", "b".repeat(len)),
            format!("1{}", "0".repeat(len)),
        ] {
            let nested = format!(
                r#"{{"a": {value}, "b": [{value},{value} , {{"a":{value}}}], "c": {{"a": [{value}]}}}}"#
            );
            docs.extend([nested.into_bytes(), value.into_bytes()]);
        }
        docs.push(format!("[\"{}", "u".repeat(len)).into_bytes());
    }
    docs
}

#[test]
fn catalog_values_render_as_the_post_pass() {
    let config = GenConfig {
        target_bytes: 48 * 1024,
        seed: 0x5eed_cafe,
    };
    let mut docs = Vec::new();
    for entry in catalog() {
        let i = match docs.iter().position(|(d, _)| *d == entry.dataset) {
            Some(i) => i,
            None => {
                docs.push((entry.dataset, entry.dataset.generate(&config)));
                docs.len() - 1
            }
        };
        check_values(entry.query, docs[i].1.as_bytes());
    }
}

#[test]
fn edge_values_render_as_the_post_pass() {
    let mut docs = value_edge_documents();
    let mut rng = XorShift64::new(40);
    docs.extend((0..40).map(|_| random_json(&mut rng, 4)));
    for doc in &docs {
        for query in engine_queries().iter().copied().chain(["$", "$..b[*]"]) {
            check_values(query, doc);
        }
    }
}
