//! The backbone of the correctness story: the SIMD engine, the scalar
//! surfer baseline, and the DOM reference oracle must agree on the exact
//! match positions for arbitrary documents and arbitrary queries from the
//! grammar. The JSONSki baseline is checked on the fragment it supports
//! (descendant-free queries, against an oracle with its non-idiomatic
//! wildcard).
//!
//! Generated documents have unique keys per object, matching the
//! assumption behind sibling skipping (RFC 8259 SHOULD; see §3.3).

use proptest::prelude::*;
use rsq_baselines::{positions as oracle_positions, SkiEngine, SurferEngine};
use rsq_engine::{Engine, EngineOptions, PositionsSink};
use rsq_json::{Key, Span, ValueKind, ValueNode};
use rsq_query::{Query, Selector};

const LABELS: [&str; 5] = ["a", "b", "c", "dd", "a b"];

fn leaf() -> impl Strategy<Value = ValueNode> {
    let kind = prop_oneof![
        Just(ValueKind::Null),
        any::<bool>().prop_map(ValueKind::Bool),
        (-99i64..100).prop_map(|n| ValueKind::Number(rsq_json::Number::from_raw(n.to_string()))),
        // Strings with structural lookalikes, escaped quotes and label text.
        prop_oneof![
            Just(r#"x"#.to_owned()),
            Just(r#"{\"a\": 1}"#.to_owned()),
            Just(r#"[,:]}"#.to_owned()),
            Just(r#"\\"#.to_owned()),
            Just(r#"\"b\":"#.to_owned()),
            Just("żółć".to_owned()),
        ]
        .prop_map(ValueKind::String),
    ];
    kind.prop_map(|kind| ValueNode {
        kind,
        span: Span { start: 0, end: 0 },
    })
}

fn arb_doc() -> impl Strategy<Value = ValueNode> {
    leaf().prop_recursive(5, 80, 5, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(|items| ValueNode {
                kind: ValueKind::Array(items),
                span: Span { start: 0, end: 0 },
            }),
            // Unique keys per object: sample a subset of the label pool.
            proptest::collection::btree_map(0usize..LABELS.len(), inner, 0..5).prop_map(
                |members| ValueNode {
                    kind: ValueKind::Object(
                        members
                            .into_iter()
                            .map(|(k, v)| {
                                (
                                    Key {
                                        text: LABELS[k].to_owned(),
                                        span: Span { start: 0, end: 0 },
                                    },
                                    v,
                                )
                            })
                            .collect(),
                    ),
                    span: Span { start: 0, end: 0 },
                }
            ),
        ]
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    let label = prop_oneof![Just("a"), Just("b"), Just("c"), Just("dd"), Just("zz")];
    let selector = prop_oneof![
        3 => label.clone().prop_map(|l| Selector::Child(l.to_owned())),
        2 => Just(Selector::ChildWildcard),
        3 => label.prop_map(|l| Selector::Descendant(l.to_owned())),
        1 => Just(Selector::DescendantWildcard),
        2 => (0u64..4).prop_map(Selector::Index),
        1 => (0u64..3).prop_map(Selector::DescendantIndex),
    ];
    proptest::collection::vec(selector, 0..5).prop_map(Query::from_selectors)
}

/// Serializes with random-ish whitespace so block boundaries move around.
fn serialize_spaced(doc: &ValueNode, pad: usize) -> String {
    let compact = rsq_json::to_string(doc);
    if pad == 0 {
        return compact;
    }
    // Insert spaces after commas/colons outside strings.
    let mut out = String::with_capacity(compact.len() * 2);
    let mut in_string = false;
    let mut escaped = false;
    for c in compact.chars() {
        out.push(c);
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            ',' | ':' | '{' | '[' => out.push_str(&" ".repeat(pad)),
            _ => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn engines_agree_with_oracle(
        doc in arb_doc(),
        query in arb_query(),
        pad in 0usize..3,
    ) {
        let text = serialize_spaced(&doc, pad);
        let bytes = text.as_bytes();
        let parsed = rsq_json::parse(bytes).expect("generated JSON is valid");
        let expected = oracle_positions(&query, &parsed);

        // The SIMD engine under default options and with each feature off.
        let d = EngineOptions::default();
        for options in [
            d,
            EngineOptions { skip_leaves: false, ..d },
            EngineOptions { skip_children: false, ..d },
            EngineOptions { skip_siblings: false, ..d },
            EngineOptions { head_start: false, ..d },
            EngineOptions { sparse_stack: false, ..d },
            EngineOptions { backend: Some(rsq_simd::BackendKind::Swar), ..d },
        ] {
            let engine = Engine::with_options(&query, options).unwrap();
            prop_assert_eq!(
                engine.positions(bytes),
                expected.as_slice(),
                "engine {:?} on {} with {}",
                options, text, query
            );
        }

        // The scalar surfer baseline.
        let surfer = SurferEngine::from_query(&query).unwrap();
        prop_assert_eq!(
            surfer.positions(bytes),
            expected.as_slice(),
            "surfer on {} with {}",
            text, query
        );
    }

    /// JSONSki-style engine agrees with an oracle restricted to its
    /// non-idiomatic wildcard (array entries only).
    #[test]
    fn ski_agrees_with_restricted_oracle(
        doc in arb_doc(),
        query in arb_query(),
        pad in 0usize..2,
    ) {
        if query.has_descendants() {
            prop_assert!(SkiEngine::from_query(&query).is_err());
            return Ok(());
        }
        let text = serialize_spaced(&doc, pad);
        let bytes = text.as_bytes();
        let parsed = rsq_json::parse(bytes).expect("generated JSON is valid");
        let expected = ski_oracle(&query, &parsed);
        let ski = SkiEngine::from_query(&query).unwrap();
        let mut sink = PositionsSink::new();
        ski.run(bytes, &mut sink);
        prop_assert_eq!(
            sink.positions(),
            expected.as_slice(),
            "ski on {} with {}",
            text, query
        );
    }
}

/// DOM oracle with JSONSki's wildcard semantics: wildcards step into array
/// entries only.
fn ski_oracle(query: &Query, doc: &ValueNode) -> Vec<usize> {
    let mut current: Vec<&ValueNode> = vec![doc];
    for sel in query.selectors() {
        let mut next = Vec::new();
        for node in current {
            match (sel, &node.kind) {
                (Selector::Child(l), ValueKind::Object(members)) => {
                    // First match only: sibling skipping assumes unique keys.
                    if let Some((_, v)) = members.iter().find(|(k, _)| k.text == *l) {
                        next.push(v);
                    }
                }
                (Selector::ChildWildcard, ValueKind::Array(items)) => {
                    next.extend(items.iter());
                }
                (Selector::Index(n), ValueKind::Array(items)) => {
                    if let Some(item) = items.get(*n as usize) {
                        next.push(item);
                    }
                }
                _ => {}
            }
        }
        current = next;
    }
    let mut pos: Vec<usize> = current.iter().map(|n| n.span.start).collect();
    pos.sort_unstable();
    pos
}
