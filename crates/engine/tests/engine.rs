//! Engine behaviour tests with hand-verified expectations, under every
//! option configuration (each skipping technique disabled in turn — the
//! results must never change, only the speed).

use rsq_engine::{Engine, EngineOptions};
use rsq_query::Query;

/// All option configurations that must produce identical results.
fn configurations() -> Vec<EngineOptions> {
    let d = EngineOptions::default();
    vec![
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
            checked_head_start: false,
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
        EngineOptions {
            label_seek: false,
            ..d
        },
        EngineOptions {
            skip_leaves: false,
            skip_children: false,
            skip_siblings: false,
            head_start: false,
            label_seek: false,
            checked_head_start: false,
            sparse_stack: false,
            backend: Some(rsq_simd::BackendKind::Swar),
            ..d
        },
    ]
}

/// Asserts the query returns exactly the given node texts (prefix-matched
/// at the reported positions), under every configuration.
#[track_caller]
fn assert_matches(query: &str, doc: &str, expected: &[&str]) {
    let parsed = Query::parse(query).expect(query);
    for options in configurations() {
        let engine = Engine::with_options(&parsed, options).unwrap();
        let positions = engine.positions(doc.as_bytes());
        let got: Vec<&str> = positions
            .iter()
            .map(|&p| {
                let rest = &doc[p..];
                let end = expected
                    .iter()
                    .map(|e| e.len())
                    .find(|&l| rest.len() >= l && expected.contains(&&rest[..l]))
                    .unwrap_or(rest.len().min(20));
                &rest[..end.min(rest.len())]
            })
            .collect();
        assert_eq!(
            got, expected,
            "query {query} on {doc} with options {options:?} (positions {positions:?})"
        );
        assert_eq!(engine.count(doc.as_bytes()), expected.len() as u64);
    }
}

#[track_caller]
fn assert_count(query: &str, doc: &str, expected: u64) {
    let parsed = Query::parse(query).expect(query);
    for options in configurations() {
        let engine = Engine::with_options(&parsed, options).unwrap();
        assert_eq!(
            engine.count(doc.as_bytes()),
            expected,
            "query {query} on {doc} with options {options:?}"
        );
    }
}

#[test]
fn simple_child_chain() {
    assert_matches("$.a.b", r#"{"a": {"b": 42}}"#, &["42"]);
    assert_matches("$.a.b", r#"{"x": {"b": 1}, "a": {"c": 2}}"#, &[]);
    assert_matches("$.a.b", r#"{"a": {"b": {"c": 1}}}"#, &[r#"{"c": 1}"#]);
}

#[test]
fn root_query_matches_whole_document() {
    assert_count("$", r#"{"a": 1}"#, 1);
    assert_count("$", r#"[1, 2]"#, 1);
    assert_count("$", "42", 1);
    assert_count("$", r#""string root""#, 1);
    assert_count("$", "  null  ", 1);
}

#[test]
fn wildcard_idiomatic_objects_and_arrays() {
    // JSONSki would only step into arrays here; idiomatic wildcard also
    // matches object members (the paper's B3 discussion).
    assert_matches(
        "$.*",
        r#"{"a": 1, "b": [2], "c": {"d": 3}}"#,
        &["1", "[2]", r#"{"d": 3}"#],
    );
    assert_matches(
        "$.*",
        r#"[10, [20], {"x": 30}]"#,
        &["10", "[20]", r#"{"x": 30}"#],
    );
    assert_count("$.*.*", r#"{"a": {"b": 1}, "c": [2, 3]}"#, 3);
}

#[test]
fn paper_node_semantics_example() {
    // §2: in {"a":[{"b":{"c":1}},{"b":[2]}]}, the query $..b.* returns 1 and 2... wait:
    // the paper says query a..b.* returns 1 and 2.
    assert_count("$.a..b.*", r#"{"a":[{"b":{"c":1}},{"b":[2]}]}"#, 2);
    assert_matches(
        "$.a..b.*",
        r#"{"a":[{"b":{"c":1}},{"b":[2]}]}"#,
        &["1", "2"],
    );
}

#[test]
fn descendant_finds_all_depths() {
    let doc = r#"{"b": 1, "x": {"b": 2, "y": [{"b": 3}, 4]}, "z": [[{"b": 5}]]}"#;
    assert_matches("$..b", doc, &["1", "2", "3", "5"]);
}

#[test]
fn nested_same_label_descendants() {
    // Node semantics: every b node matches, including nested ones.
    let doc = r#"{"b": {"b": {"b": 1}}}"#;
    assert_count("$..b", doc, 3);
    // The §2 path-semantics witness: node semantics yields 1 match.
    let doc2 = r#"{"a":{"a":{"a":{"b":"Yay!"}}}}"#;
    assert_count("$..a..b", doc2, 1);
}

#[test]
fn greedy_match_example_from_paper() {
    // §3.1: query $..b.*..c.* on {a:{b:{b:{b:{c:[42]}}}}} — under node
    // semantics there is exactly one match (the 42 inside the array).
    let doc = r#"{"a":{"b":{"b":{"b":{"c":[42]}}}}}"#;
    assert_count("$..b.*..c.*", doc, 1);
}

#[test]
fn figure2_query_on_document() {
    let doc = r#"{"a": {"b": {"x": {"c": {"y": 1}}}, "c": 2}}"#;
    // $.a..b.*..c.* : a→b, wildcard x, c, wildcard y → matches 1.
    assert_count("$.a..b.*..c.*", doc, 1);
}

#[test]
fn head_start_query_with_nested_occurrences() {
    // $..label with label values both composite and atomic, and nested.
    let doc = r#"{"label": {"label": 1, "x": {"label": [2, {"label": 3}]}}, "y": {"label": 4}}"#;
    assert_count("$..label", doc, 5);
}

#[test]
fn head_start_rejects_lookalikes_in_strings() {
    // The string value contains '"label":' — must not be counted by the
    // checked head start (the default).
    let doc = r#"{"s": "fake \"label\": 1 end", "label": 2}"#;
    let engine = Engine::from_text("$..label").unwrap();
    assert_eq!(engine.count(doc.as_bytes()), 1);

    // Even trickier: unescaped structural lookalikes inside the string.
    let doc2 = r#"{"s": "x{,}[1] \\", "label": {"label": true}}"#;
    assert_eq!(engine.count(doc2.as_bytes()), 2);
}

#[test]
fn head_start_label_value_is_string_not_key() {
    // "label" appearing as a string *value* (no colon after) must not match.
    let doc = r#"{"a": "label", "arr": ["label", "label"], "label": 9}"#;
    assert_count("$..label", doc, 1);
}

/// `$..first.rest…` evaluated on the DOM: the values of every member
/// labelled `first` at any depth, then of each further label as a direct
/// member, as sorted, deduplicated start offsets (node semantics).
fn dom_positions(doc: &[u8], first: &str, rest: &[&str]) -> Vec<usize> {
    use rsq_json::{ValueKind, ValueNode};
    fn members<'n>(node: &'n ValueNode, label: &str, out: &mut Vec<&'n ValueNode>) {
        if let ValueKind::Object(members) = &node.kind {
            out.extend(
                members
                    .iter()
                    .filter(|(k, _)| k.text == label)
                    .map(|(_, v)| v),
            );
        }
    }
    fn descendants<'n>(node: &'n ValueNode, label: &str, out: &mut Vec<&'n ValueNode>) {
        members(node, label, out);
        for child in node.children() {
            descendants(child, label, out);
        }
    }
    let root = rsq_json::parse(doc).expect("oracle input parses");
    let mut nodes = Vec::new();
    descendants(&root, first, &mut nodes);
    for label in rest {
        let mut next = Vec::new();
        for node in nodes {
            members(node, label, &mut next);
        }
        nodes = next;
    }
    let mut positions: Vec<usize> = nodes.iter().map(|n| n.span.start).collect();
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// `doc` with the closers its open containers still owe appended, so that
/// a document truncated inside a value can be handed to the DOM oracle.
fn completed(doc: &str) -> String {
    let (mut open, mut in_string, mut escaped) = (Vec::new(), false, false);
    for b in doc.bytes() {
        match (in_string, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (true, b'"') | (false, b'"') => in_string = !in_string,
            (false, b'{') => open.push('}'),
            (false, b'[') => open.push(']'),
            (false, b'}' | b']') => {
                open.pop();
            }
            _ => {}
        }
    }
    doc.chars().chain(open.into_iter().rev()).collect()
}

#[test]
fn head_start_edges_agree_with_the_dom_oracle() {
    use rsq_simd::BackendKind;
    let d = EngineOptions::default();
    let variants = [
        ("checked", d),
        (
            "off",
            EngineOptions {
                head_start: false,
                ..d
            },
        ),
        (
            "unchecked",
            EngineOptions {
                checked_head_start: false,
                ..d
            },
        ),
    ];
    let runs_of_a_values = format!(
        r#"{{"k": [{}], "m": "a", "a": {{"b": "a"}}, "n": "a"}}"#,
        vec![r#""a""#; 40].join(", ")
    );
    let split_member = format!(
        r#"{{"p": 0, "a"{}:{}{{"b": 1}}}}"#,
        " ".repeat(70),
        " ".repeat(70)
    );
    // (document, holds a lookalike inside a string, is truncated)
    let cases: [(&str, bool, bool); 9] = [
        // A hit in the first block, with nested occurrences.
        (r#"{"a": {"a": 1, "b": [2]}, "b": 3}"#, false, false),
        // An atomic hit as the document's last value.
        (r#"{"x": {"b": 0}, "a": 7}"#, false, false),
        // Composite hits truncated at EOF.
        (r#"{"x": 1, "a": {"b": [1, {"a": 2"#, false, true),
        (r#"{"x": 1, "a": ["#, false, true),
        // The next hit inside the block where the previous sub-run ended.
        (
            r#"[{"a": {"b": 1}}, {"a": {"b": 2}}, {"a": 3}, {"a": [{"b": 4}]}]"#,
            false,
            false,
        ),
        // Runs of `"a"` string values, none followed by a colon.
        (&runs_of_a_values, false, false),
        // Label, colon and value in three different blocks.
        (&split_member, false, false),
        // Lookalikes inside strings: only the checked head start is sound.
        (
            r#"{"s": "fake \"a\": {\"b\": 1} end", "a": {"b": 2}}"#,
            true,
            false,
        ),
        (
            r#"{"s": "x{,}[1] \\", "t": "\"a\"", "a": {"a": true}}"#,
            true,
            false,
        ),
    ];
    // Leading whitespace slides every needle, colon and value across a
    // 64-byte block edge and a 256-byte superblock edge.
    let pads = (0..=72).chain(184..=264);
    for pad in pads {
        for &(body, lookalikes, truncated) in &cases {
            let doc = format!("{}{body}", " ".repeat(pad));
            let oracle_doc = if truncated {
                completed(&doc)
            } else {
                doc.clone()
            };
            for (query, first, rest) in [("$..a", "a", &[][..]), ("$..a.b", "a", &["b"][..])] {
                let expected: Vec<usize> = dom_positions(oracle_doc.as_bytes(), first, rest)
                    .into_iter()
                    .filter(|&p| p < doc.len())
                    .collect();
                let parsed = Query::parse(query).unwrap();
                for backend in BackendKind::supported() {
                    for (name, options) in variants {
                        if lookalikes && name == "unchecked" {
                            continue;
                        }
                        let options = EngineOptions {
                            backend: Some(backend),
                            ..options
                        };
                        let engine = Engine::with_options(&parsed, options).unwrap();
                        assert_eq!(
                            engine.positions(doc.as_bytes()),
                            expected,
                            "{query} head start {name} on {backend:?}, pad {pad}: {body}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn descendant_then_child() {
    // $..a.b — the depth-register-insufficient case (§3.2): children of
    // shallower a's can appear before and after children of deeper a's.
    let doc = r#"{"a": {"x": {"a": {"b": 1}}, "b": 2}}"#;
    assert_matches("$..a.b", doc, &["1", "2"]);
}

#[test]
fn unitary_sibling_skipping_does_not_lose_matches() {
    // After finding "a" (unitary), remaining siblings are skipped; matches
    // inside the skipped region must not exist by the labels-don't-repeat
    // assumption, but matches in the a-subtree must all be found.
    let doc = r#"{"a": {"b": 1, "c": {"b": 2}}, "z1": 1, "z2": {"b": 99}}"#;
    assert_matches("$.a..b", doc, &["1", "2"]);
}

#[test]
fn leaf_matching_in_arrays() {
    assert_matches("$.a.*", r#"{"a": [1, 2, 3]}"#, &["1", "2", "3"]);
    assert_matches("$.a.*", r#"{"a": []}"#, &[]);
    assert_matches("$.a.*", r#"{"a": [42]}"#, &["42"]);
    assert_matches("$.a.*", r#"{"a": [[1], 2]}"#, &["[1]", "2"]);
    assert_matches("$.a.*", r#"{"a": [1, [2], 3]}"#, &["1", "[2]", "3"]);
}

#[test]
fn leaf_matching_in_objects() {
    assert_matches(
        "$.a.*",
        r#"{"a": {"x": 1, "y": "s", "z": {"w": 0}}}"#,
        &["1", "\"s\"", r#"{"w": 0}"#],
    );
}

#[test]
fn strings_with_structural_lookalikes() {
    let doc = r#"{"a": "}{][,:", "b": {"a": "\"}"}}"#;
    assert_count("$..a", doc, 2);
    assert_count("$.a", doc, 1);
}

#[test]
fn deep_document_spills_depth_stack() {
    // 300 nested objects under alternating labels; query forces a state
    // change at every level so the depth-stack grows past its inline 128.
    let mut doc = String::new();
    let mut query = String::from("$");
    for i in 0..300 {
        doc.push_str(&format!("{{\"k{}\":", i % 2));
        query.push_str(&format!(".k{}", i % 2));
    }
    doc.push_str("42");
    doc.push_str(&"}".repeat(300));
    assert_count(&query, &doc, 1);
}

#[test]
fn deep_recursive_label_nesting() {
    // The A2-style pathological case: label nested in itself.
    let mut doc = String::new();
    for _ in 0..50 {
        doc.push_str("{\"inner\":");
    }
    doc.push_str("\"leaf\"");
    doc.push_str(&"}".repeat(50));
    assert_count("$..inner", &doc, 50);
    assert_count("$..inner..inner", &doc, 49);
}

#[test]
fn duplicate_keys_and_sibling_skipping() {
    // Sibling skipping (§3.3) is justified by "labels do not repeat among
    // siblings" (RFC 8259 SHOULD). With duplicate keys present, the
    // engine — like the paper's — reports only the first sibling for a
    // unitary query; disabling skip_siblings restores all of them.
    let doc = r#"{"k": 1, "k": {"k": 2}}"#;
    let q = Query::parse("$.k").unwrap();
    let default = Engine::from_query(&q).unwrap();
    assert_eq!(default.count(doc.as_bytes()), 1);
    let no_skip = Engine::with_options(
        &q,
        EngineOptions {
            skip_siblings: false,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert_eq!(no_skip.count(doc.as_bytes()), 2);
    // Descendant queries have no unitary states, so nothing is skipped.
    assert_count("$..k", doc, 3);
}

#[test]
fn empty_containers() {
    assert_count("$.a", r#"{"a": {}}"#, 1);
    assert_count("$.a", r#"{"a": []}"#, 1);
    assert_count("$.a.*", r#"{"a": {}}"#, 0);
    assert_count("$..x", r#"{}"#, 0);
    assert_count("$..x", r#"[]"#, 0);
    assert_count("$.*", r#"{}"#, 0);
    assert_count("$.*", r#"[]"#, 0);
}

#[test]
fn whitespace_everywhere() {
    let doc = "  {  \"a\"  :  [  1  ,  {  \"b\"  :  2  }  ]  }  ";
    assert_count("$.a.*", doc, 2);
    assert_count("$.a.*.b", doc, 1);
    assert_count("$..b", doc, 1);
}

#[test]
fn escaped_label_bytes_match_raw() {
    // Query labels are raw bytes: a query for the raw text a\"b matches the
    // document's raw key text exactly.
    let doc = r#"{"a\"b": 7}"#;
    let q = Query::parse(r#"$['a\"b']"#).unwrap();
    let engine = Engine::from_query(&q).unwrap();
    assert_eq!(engine.count(doc.as_bytes()), 1);
}

#[test]
fn unicode_labels_and_values() {
    let doc = r#"{"żółć": {"名前": "value", "x": ["名前"]}}"#;
    assert_count("$..名前", doc, 1);
    assert_count("$.żółć.名前", doc, 1);
}

#[test]
fn label_prefix_confusion() {
    let doc = r#"{"ab": 1, "a": 2, "abc": 3}"#;
    assert_matches("$.a", doc, &["2"]);
    assert_matches("$..ab", doc, &["1"]);
}

#[test]
fn document_larger_than_many_blocks() {
    // A few thousand members; count must be exact.
    let mut doc = String::from("{");
    for i in 0..3000 {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "\"m{i}\": {{\"target\": {i}, \"pad\": \"{}\"}}",
            "x".repeat(i % 37)
        ));
    }
    doc.push('}');
    assert_count("$..target", &doc, 3000);
    assert_count("$.*.target", &doc, 3000);
    assert_count("$.m17.target", &doc, 1);
}

#[test]
fn array_of_arrays_wildcards() {
    let doc = r#"[[1, 2], [3], [], [[4]]]"#;
    assert_count("$.*", doc, 4);
    assert_count("$.*.*", doc, 4);
    assert_count("$.*.*.*", doc, 1);
    assert_count("$..*", doc, 9);
}

#[test]
fn descendant_wildcard_extension() {
    let doc = r#"{"a": {"b": 1}, "c": [2, 3]}"#;
    // ..* matches every node except the root: a, b-value, 1... — nodes:
    // {"b":1}, 1, [2,3], 2, 3 → 5.
    assert_count("$..*", doc, 5);
}

#[test]
fn atomic_root_edge_cases() {
    assert_count("$..a", "42", 0);
    assert_count("$.a", "\"a\"", 0);
    assert_count("$.*", "true", 0);
}

#[test]
fn trailing_content_in_last_block() {
    // Exercise the padded partial final block: match at the very end.
    for pad in 0..130 {
        let doc = format!("{}{{\"k\": 1}}", " ".repeat(pad));
        let engine = Engine::from_text("$.k").unwrap();
        assert_eq!(engine.count(doc.as_bytes()), 1, "pad {pad}");
    }
}

#[test]
fn engine_is_shared_across_threads() {
    // The batch and serve pools share one compiled engine across all of
    // their workers.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
}

#[test]
fn a_reused_vec_sink_matches_a_fresh_run() {
    // `Vec<usize>` is a sink: a caller that clears and refills one
    // vector across documents gets the positions of a fresh run each
    // time, and keeps the buffer's capacity.
    let engine = Engine::from_text("$..b").unwrap();
    let doc1: &[u8] = br#"{"a": [1, {"b": 2}], "b": 3}"#;
    let doc2: &[u8] = br#"{"b": {"b": 1}}"#;
    let mut buf: Vec<usize> = Vec::new();
    engine.try_run(doc1, &mut buf).unwrap();
    assert_eq!(buf, engine.try_positions(doc1).unwrap());
    let cap = buf.capacity();
    buf.clear();
    engine.try_run(doc2, &mut buf).unwrap();
    assert_eq!(buf, engine.try_positions(doc2).unwrap());
    assert_eq!(buf.capacity(), cap);
}
