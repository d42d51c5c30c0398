//! The backbone of the correctness story: the SIMD engine, the scalar
//! surfer baseline, and the DOM reference oracle must agree on the exact
//! match positions for arbitrary documents and arbitrary queries from the
//! grammar. The JSONSki baseline is checked on the fragment it supports
//! (descendant-free queries, against an oracle with its non-idiomatic
//! wildcard).
//!
//! Generated documents have unique keys per object, matching the
//! assumption behind sibling skipping (RFC 8259 SHOULD; see §3.3).
//!
//! Case `n` draws its document and query from `StdRng::seed_from_u64(n)`,
//! so a failure names the seed that replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_baselines::{positions as oracle_positions, SkiEngine, SurferEngine};
use rsq_engine::{Engine, EngineOptions, PositionsSink};
use rsq_json::{Key, Number, Span, ValueKind, ValueNode};
use rsq_query::{Query, Selector};
use std::collections::BTreeMap;

const LABELS: [&str; 5] = ["a", "b", "c", "dd", "a b"];

const NO_SPAN: Span = Span { start: 0, end: 0 };

/// A document at most `depth` containers deep: a leaf one time in three,
/// else an array or object of up to four members.
fn doc(rng: &mut StdRng, depth: u32) -> ValueNode {
    let kind = if depth == 0 || rng.gen_range(0..3) == 0 {
        match rng.gen_range(0..4) {
            0 => ValueKind::Null,
            1 => ValueKind::Bool(rng.gen()),
            2 => ValueKind::Number(Number::from_raw(rng.gen_range(-99i64..100).to_string())),
            // Strings with structural lookalikes, escaped quotes and label
            // text.
            _ => ValueKind::String(
                [
                    r#"x"#,
                    r#"{\"a\": 1}"#,
                    r#"[,:]}"#,
                    r#"\\"#,
                    r#"\"b\":"#,
                    "żółć",
                ][rng.gen_range(0..6)]
                .to_owned(),
            ),
        }
    } else if rng.gen() {
        ValueKind::Array(
            (0..rng.gen_range(0..5))
                .map(|_| doc(rng, depth - 1))
                .collect(),
        )
    } else {
        // Unique keys per object: a subset of the label pool.
        let mut members = BTreeMap::new();
        for _ in 0..rng.gen_range(0..5) {
            members.insert(rng.gen_range(0..LABELS.len()), doc(rng, depth - 1));
        }
        let members = members.into_iter().map(|(k, v)| {
            let text = LABELS[k].to_owned();
            (
                Key {
                    text,
                    span: NO_SPAN,
                },
                v,
            )
        });
        ValueKind::Object(members.collect())
    };
    ValueNode {
        kind,
        span: NO_SPAN,
    }
}

fn query(rng: &mut StdRng) -> Query {
    let selectors = (0..rng.gen_range(0..5)).map(|_| {
        let label = ["a", "b", "c", "dd", "zz"][rng.gen_range(0..5)].to_owned();
        match rng.gen_range(0..12) {
            0..=2 => Selector::Child(label),
            3..=4 => Selector::ChildWildcard,
            5..=7 => Selector::Descendant(label),
            8 => Selector::DescendantWildcard,
            9..=10 => Selector::Index(rng.gen_range(0..4)),
            _ => Selector::DescendantIndex(rng.gen_range(0..3)),
        }
    });
    Query::from_selectors(selectors.collect())
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

#[test]
fn engines_agree_with_oracle() {
    for case in 0..256 {
        let rng = &mut StdRng::seed_from_u64(case);
        let (doc, query) = (doc(rng, 5), query(rng));
        let text = serialize_spaced(&doc, rng.gen_range(0..3));
        let bytes = text.as_bytes();
        let what = format!("case {case}: {query} on {text}");
        let parsed = rsq_json::parse(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        let expected = oracle_positions(&query, &parsed);

        // The SIMD engine under default options and with each feature off.
        let d = EngineOptions::default();
        for options in [
            d,
            EngineOptions {
                skip_leaves: false,
                ..d
            },
            EngineOptions {
                skip_children: false,
                ..d
            },
            EngineOptions {
                skip_siblings: false,
                ..d
            },
            EngineOptions {
                head_start: false,
                ..d
            },
            EngineOptions {
                sparse_stack: false,
                ..d
            },
            EngineOptions {
                backend: Some(rsq_simd::BackendKind::Swar),
                ..d
            },
        ] {
            let engine = Engine::with_options(&query, options);
            let engine = engine.unwrap_or_else(|e| panic!("{what}: {e}"));
            let got = engine.positions(bytes);
            assert_eq!(got, expected, "{what}: engine {options:?}");
        }

        // The scalar surfer baseline.
        let surfer = SurferEngine::from_query(&query);
        let surfer = surfer.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(surfer.positions(bytes), expected, "{what}: surfer");
    }
}

/// JSONSki-style engine agrees with an oracle restricted to its
/// non-idiomatic wildcard (array entries only).
#[test]
fn ski_agrees_with_restricted_oracle() {
    for case in 0..256 {
        let rng = &mut StdRng::seed_from_u64(case);
        let (doc, query) = (doc(rng, 5), query(rng));
        if query.has_descendants() {
            let refused = SkiEngine::from_query(&query).is_err();
            assert!(refused, "case {case}: ski ran {query}");
            continue;
        }
        let text = serialize_spaced(&doc, rng.gen_range(0..2));
        let bytes = text.as_bytes();
        let what = format!("case {case}: {query} on {text}");
        let parsed = rsq_json::parse(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        let expected = ski_oracle(&query, &parsed);
        let ski = SkiEngine::from_query(&query).unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut sink = PositionsSink::new();
        ski.run(bytes, &mut sink);
        assert_eq!(sink.positions(), expected, "{what}: ski");
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
