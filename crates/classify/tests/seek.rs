//! Direct tests of the within-element label-seek classifier (§4.5
//! extension): candidates, boundaries, string lookalikes, straddles.

use rsq_classify::{BracketType, LabelSeek, Structural, StructuralIterator};
use rsq_memmem::Finder;
use rsq_simd::Simd;

fn iter(input: &[u8]) -> StructuralIterator<'_> {
    StructuralIterator::new(input, Simd::detect())
}

/// The finder `seek_label` takes, over the label between its quotes.
fn seeker(needle: &'static str) -> Finder<'static> {
    assert!(needle.starts_with('"') && needle.ends_with('"'));
    Finder::with_simd(needle.as_bytes(), Simd::detect())
}

#[test]
fn finds_composite_member_at_depth() {
    let input = br#"{"x": {"y": 1}, "target": {"z": 2}}"#;
    let mut it = iter(input);
    it.next(); // consume root {
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => {
            // x's subtree was absorbed; the candidate's parent is the root
            // element itself, so no net depth change.
            assert_eq!(depth_delta, 0);
        }
        other => panic!("expected candidate, got {other:?}"),
    }
    // The next event is the value's opening brace.
    let next = it.next().unwrap();
    assert!(matches!(next, Structural::Opening(BracketType::Brace, _)));
    assert_eq!(it.label_before(next.position()), Some(&b"target"[..]));
}

#[test]
fn finds_nested_candidate_with_positive_delta() {
    let input = br#"{"a": {"b": {"target": [1]}}}"#;
    let mut it = iter(input);
    it.next(); // root {
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 2),
        other => panic!("{other:?}"),
    }
    let next = it.next().unwrap();
    assert!(matches!(next, Structural::Opening(BracketType::Bracket, _)));
}

#[test]
fn boundary_when_label_absent() {
    let input = br#"{"a": {"b": 1}, "c": [2, 3]} tail"#;
    let mut it = iter(input);
    it.next(); // root {
    assert_eq!(it.seek_label(&seeker("\"nope\""), 0), LabelSeek::Boundary);
    // The pending event is the root's closing brace.
    let next = it.next().unwrap();
    assert_eq!(next, Structural::Closing(BracketType::Brace, 27));
}

#[test]
fn boundary_respects_levels() {
    // Starting two levels deep, allow ascending one level.
    let input = br#"{"o": {"i": {"x": 1}, "y": 2}, "target": {}}"#;
    let mut it = iter(input);
    it.next(); // root {
    it.next(); // o's {
    it.next(); // i's {
               // From inside i, allow climbing out of i (one level) but not out of o.
    match it.seek_label(&seeker("\"target\""), 1) {
        LabelSeek::Boundary => {}
        other => panic!("{other:?}"),
    }
    // Pending closing is o's }, not i's } (i's was absorbed).
    let next = it.next().unwrap();
    assert_eq!(next, Structural::Closing(BracketType::Brace, 28));
}

#[test]
fn atomic_valued_candidates_are_skipped() {
    let input = br#"{"target": 1, "target": "s", "target": {"hit": 2}}"#;
    let mut it = iter(input);
    it.next();
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 0),
        other => panic!("{other:?}"),
    }
    let next = it.next().unwrap();
    assert_eq!(it.label_before(next.position()), Some(&b"target"[..]));
    assert_eq!(next.position(), 39);
}

#[test]
fn lookalikes_inside_strings_are_rejected() {
    let input = br#"{"s": "fake \"target\": {1}", "target": {"k": 1}}"#;
    let mut it = iter(input);
    it.next();
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 0),
        other => panic!("{other:?}"),
    }
    let next = it.next().unwrap();
    assert_eq!(input[next.position()], b'{');
    assert!(
        next.position() > 30,
        "must be the real target, not the fake"
    );
}

#[test]
fn string_value_of_label_is_not_a_member() {
    // "target" as a VALUE (no colon after) must not be a candidate.
    let input = br#"{"a": "target", "target": [0]}"#;
    let mut it = iter(input);
    it.next();
    assert!(matches!(
        it.seek_label(&seeker("\"target\""), 0),
        LabelSeek::Candidate { .. }
    ));
    let next = it.next().unwrap();
    assert!(matches!(next, Structural::Opening(BracketType::Bracket, _)));
}

#[test]
fn needle_straddling_block_boundary() {
    // Place the label so that `"target"` spans the 64-byte boundary.
    for pad in 50..70 {
        let mut doc = String::from("{");
        doc.push_str(&format!("\"p\": \"{}\",", "x".repeat(pad)));
        doc.push_str("\"target\": {\"k\": 1}}");
        let bytes = doc.as_bytes();
        let mut it = iter(bytes);
        it.next();
        match it.seek_label(&seeker("\"target\""), 0) {
            LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 0, "pad {pad}"),
            other => panic!("pad {pad}: {other:?}"),
        }
        let next = it.next().unwrap();
        assert_eq!(bytes[next.position()], b'{', "pad {pad}");
    }
}

#[test]
fn end_on_truncated_input() {
    let input = br#"{"a": {"b": "#;
    let mut it = iter(input);
    it.next();
    assert_eq!(it.seek_label(&seeker("\"nope\""), 0), LabelSeek::End);
}

#[test]
fn seek_across_many_blocks() {
    let mut doc = String::from("{\"pad\": [");
    for i in 0..200 {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!("{{\"k{i}\": [{i}]}}"));
    }
    doc.push_str("], \"target\": {\"deep\": true}}");
    let bytes = doc.as_bytes();
    let mut it = iter(bytes);
    it.next();
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 0),
        other => panic!("{other:?}"),
    }
    let next = it.next().unwrap();
    assert_eq!(it.label_before(next.position()), Some(&b"target"[..]));
}

#[test]
fn candidate_labels_inside_absorbed_subtrees_are_found() {
    // The candidate may itself be nested inside subtrees the seek walks
    // through — it must still be found with the right depth delta.
    let input = br#"[[{"target": {"v": 1}}]]"#;
    let mut it = iter(input);
    it.next(); // outer [
    match it.seek_label(&seeker("\"target\""), 0) {
        LabelSeek::Candidate { depth_delta } => assert_eq!(depth_delta, 2),
        other => panic!("{other:?}"),
    }
}
