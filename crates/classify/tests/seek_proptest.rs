//! Differential test of the label seek ([`StructuralIterator::seek`]):
//! under every scope — the direct members of an object, a subtree with
//! the boundary 0…3 levels up, and the rest of the document (the checked
//! head start) — it must agree with a scalar oracle that walks the
//! document token by token, on every supported backend, with a cold
//! seeker and with one whose memo an earlier search has warmed.
//!
//! The generator is adversarial where the memmem-led candidate search is
//! weakest: `"target"` lookalikes inside string values, escaped-quote
//! prefixes, trailing backslashes, structural bytes inside strings,
//! genuine `"target"` members nested below the current container, members
//! with atomic values, and variable-length padding that sweeps the needle
//! across 64-byte block (and 256-byte superblock) edges. Whatever the seek
//! passes over it must *decline*, exactly once: the decline count is the
//! number of raw needle occurrences between where the seek started and
//! where it ended, on every backend and memo state.
//!
//! Labels never contain escaped quotes: a label whose raw bytes *end*
//! with `\"target` is ambiguous under the paper's memmem candidate
//! convention (the escaped quote reads as a needle-opening quote), and
//! both routes resolve it the same way — that corner belongs to the
//! `fast_path_diff` fuzz lane, not to this oracle.

use proptest::prelude::*;
use rsq_classify::{LabelSeeker, Seek, SeekScope, Structural, StructuralIterator};
use rsq_memmem::Finder;
use rsq_simd::{BackendKind, Simd};

// ---------------------------------------------------------------------
// Scalar oracle: walks the document from the seek's starting position,
// strings skipped whole, counting depth in the scope's bracket pairs.
// ---------------------------------------------------------------------

/// A scope as the oracle sees it (`SeekScope` keeps its fields private).
#[derive(Clone, Copy, Debug)]
struct Scope {
    seek: SeekScope,
    /// Both bracket pairs count towards the depth, not braces alone.
    both_pairs: bool,
    /// `None`: no boundary, and no depth change is reported.
    levels: Option<u32>,
    direct_only: bool,
    atomic: bool,
}

impl Scope {
    fn member(atomic: bool) -> Scope {
        Scope {
            seek: SeekScope::member(atomic),
            both_pairs: false,
            levels: Some(0),
            direct_only: true,
            atomic,
        }
    }

    fn subtree(levels: u32) -> Scope {
        Scope {
            seek: SeekScope::subtree(levels),
            both_pairs: true,
            levels: Some(levels),
            direct_only: false,
            atomic: false,
        }
    }

    fn document() -> Scope {
        Scope {
            seek: SeekScope::document(true),
            both_pairs: true,
            levels: None,
            direct_only: false,
            atomic: true,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expected {
    outcome: Seek,
    /// Where the seek stops looking at candidates: the reported member's
    /// label, the boundary's closing character, or the end of the input.
    stop: usize,
    /// The position of the event left pending (`Composite`, `Boundary`).
    pending: Option<usize>,
}

fn skip_ws(doc: &[u8], mut i: usize) -> usize {
    while i < doc.len() && matches!(doc[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// `i` sits on the opening quote; returns the raw (still-escaped) string
/// contents and the index just past the closing quote (the end of the
/// input for a string that never closes).
fn scan_string(doc: &[u8], i: usize) -> (&[u8], usize) {
    let start = i + 1;
    let mut j = start;
    loop {
        match doc.get(j) {
            Some(b'\\') => j += 2,
            Some(b'"') => return (&doc[start..j], j + 1),
            Some(_) => j += 1,
            None => return (&doc[start..], doc.len()),
        }
    }
}

fn oracle(doc: &[u8], label: &[u8], from: usize, scope: Scope) -> Expected {
    let mut depth = 0i32;
    let mut i = from;
    while i < doc.len() {
        match doc[i] {
            b'"' => {
                let (raw, after) = scan_string(doc, i);
                let colon = skip_ws(doc, after);
                let reportable = depth == 0 || !scope.direct_only;
                if raw == label && doc.get(colon) == Some(&b':') && reportable {
                    let v = skip_ws(doc, colon + 1);
                    if v == doc.len() {
                        // Truncated after the colon: not a member.
                    } else if matches!(doc[v], b'{' | b'[') {
                        return Expected {
                            outcome: Seek::Composite {
                                depth_delta: if scope.levels.is_some() { depth } else { 0 },
                            },
                            stop: i,
                            pending: Some(v),
                        };
                    } else if scope.atomic {
                        return Expected {
                            outcome: Seek::Atomic { pos: v },
                            stop: i,
                            pending: None,
                        };
                    }
                }
                i = after;
                continue;
            }
            b'{' => depth += 1,
            b'[' if scope.both_pairs => depth += 1,
            b'}' => depth -= 1,
            b']' if scope.both_pairs => depth -= 1,
            _ => {}
        }
        if scope.levels.is_some_and(|levels| depth < -(levels as i32)) {
            return Expected {
                outcome: Seek::Boundary,
                stop: i,
                pending: Some(i),
            };
        }
        i += 1;
    }
    Expected {
        outcome: Seek::End,
        stop: doc.len(),
        pending: None,
    }
}

// ---------------------------------------------------------------------
// The harness: one document, every scope × backend × memo state.
// ---------------------------------------------------------------------

/// Seeks `label` after consuming `openings` opening characters (which must
/// be the document's first events), under the member scope and the subtree
/// scope at every level the starting depth allows.
fn check(doc: &[u8], label: &str, openings: usize) -> Result<(), TestCaseError> {
    let needle = format!("\"{label}\"");
    let needle = needle.as_bytes();
    let mut scopes = vec![Scope::member(false), Scope::member(true), Scope::document()];
    scopes.extend((0..openings.min(4) as u32).map(Scope::subtree));
    for scope in scopes {
        for simd in BackendKind::supported().map(Simd::with_kind) {
            for prewarm in [false, true] {
                let mut seeker = LabelSeeker::new(Finder::with_backend(needle, simd));
                if prewarm {
                    seeker.candidate_from(doc, 0);
                }
                let mut it = StructuralIterator::new(doc, simd);
                for _ in 0..openings {
                    prop_assert!(matches!(it.next(), Some(Structural::Opening(..))));
                }
                let from = it.position();
                let expect = oracle(doc, label.as_bytes(), from, scope);
                let (got, declined) = it.seek(scope.seek, &mut seeker);
                let context = format!(
                    "{scope:?} backend={:?} prewarm={prewarm} doc={}",
                    simd.kind(),
                    String::from_utf8_lossy(doc)
                );
                prop_assert_eq!(got, expect.outcome, "{}", context);
                match got {
                    Seek::Composite { .. } => {
                        let next = it.next().expect("value opening pending");
                        prop_assert!(next.is_opening(), "{}", context);
                        prop_assert_eq!(Some(next.position()), expect.pending, "{}", context);
                    }
                    Seek::Atomic { pos } => prop_assert_eq!(it.position(), pos, "{}", context),
                    Seek::Boundary => {
                        let next = it.next().expect("closing character pending");
                        prop_assert!(matches!(next, Structural::Closing(..)), "{}", context);
                        prop_assert_eq!(Some(next.position()), expect.pending, "{}", context);
                    }
                    Seek::End => prop_assert_eq!(it.next(), None, "{}", context),
                }
                let passed_over = doc[from..expect.stop]
                    .windows(needle.len())
                    .filter(|w| *w == needle)
                    .count();
                prop_assert_eq!(declined, passed_over as u64, "{}", context);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------

/// Labels deliberately free of escaped quotes (see module docs); `tar`,
/// `target2`, and `ta\rget` are near-misses the memmem search must not
/// even surface as candidates.
const DECOY_LABELS: &[&str] = &["a", "b", "dd", "x y", "tar", "target2", "ta\\rget"];

fn arb_adversarial_string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(r#""plain value""#.to_string()),
        // Escaped-quote prefix: the raw bytes `"target"` appear, with the
        // needle's closing quote doubling as the string's terminator — a
        // candidate that must fail the colon check.
        Just(r#""x\"target""#.to_string()),
        Just(r#""\"target\" in quotes""#.to_string()),
        // JSON-shaped text inside a string: label-with-colon lookalike.
        Just(r#""{\"target\": 1}, \"y\": 2""#.to_string()),
        // The label as a string *value*: no colon follows.
        Just(r#""target""#.to_string()),
        // Structural noise the depth scan must ignore.
        Just(r#""}}}{{{,,::[[]]""#.to_string()),
        Just(r#""trailing backslash\\""#.to_string()),
        // Padding sweeps later members across block edges.
        (0usize..150).prop_map(|n| format!("\"{}\"", "q".repeat(n))),
    ]
}

fn arb_atomic() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("1".to_string()),
        Just("-3.5e2".to_string()),
        Just("true".to_string()),
        Just("null".to_string()),
        arb_adversarial_string(),
    ]
}

/// Composite values, several of which bury a genuine `"target"` member
/// one or two levels down.
fn arb_composite() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{}".to_string()),
        Just("[]".to_string()),
        Just(r#"{"target": {"n": 1}}"#.to_string()),
        Just(r#"{"deep": {"target": [1, 2]}}"#.to_string()),
        Just(r#"[{"target": 7}, "x\"target", 3]"#.to_string()),
        Just(r#"[[{"k": [0]}], {"target": {"v": 1}}]"#.to_string()),
        (arb_atomic(), arb_atomic()).prop_map(|(a, b)| format!(r#"{{"k": {a}, "target": {b}}}"#)),
        proptest::collection::vec(arb_atomic(), 0..3).prop_map(|xs| format!("[{}]", xs.join(", "))),
    ]
}

fn arb_member() -> impl Strategy<Value = String> {
    (
        0u32..10,
        0usize..DECOY_LABELS.len(),
        prop_oneof![arb_atomic(), arb_composite()],
        0usize..3,
    )
        .prop_map(|(roll, decoy, value, gap)| {
            // ~30% of members are genuine `"target"` members.
            let label = if roll < 3 {
                "target"
            } else {
                DECOY_LABELS[decoy]
            };
            format!("\"{label}\":{}{value}", &"  "[..gap.min(2)])
        })
}

/// The members of one object, separated, without the braces.
fn arb_members() -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_member(), 0..5), 0usize..3)
        .prop_map(|(members, sep)| members.join([", ", ",", ",\n "][sep]))
}

/// Wraps `inner` (a value) as the *first* member of an object — directly,
/// or as the first entry of an array — followed by `siblings`.
fn nest(inner: &str, siblings: &str, in_array: bool) -> String {
    let first = if in_array {
        format!("\"n\": [{inner}, 0]")
    } else {
        format!("\"n\": {inner}")
    };
    if siblings.is_empty() {
        format!("{{{first}}}")
    } else {
        format!("{{{first}, {siblings}}}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// A chain of up to three objects (some through an array) around the
    /// object the seek starts in: climbing `levels` finds the outer
    /// objects' later members, at a negative depth delta.
    #[test]
    fn seek_agrees_with_oracle(
        members in proptest::collection::vec(arb_members(), 1..4),
        arrays in proptest::collection::vec(any::<bool>(), 3..4),
    ) {
        let mut doc = format!("{{{}}}", members[0]);
        let mut openings = 1;
        for (siblings, &in_array) in members[1..].iter().zip(&arrays) {
            doc = nest(&doc, siblings, in_array);
            openings += 1 + usize::from(in_array);
        }
        check(doc.as_bytes(), "target", openings)?;
    }
}

/// Hand-written cases: (document, openings consumed before the seek).
const CASES: &[(&str, usize)] = &[
    (r#"{"x": {"y": 1}, "target": {"z": 2}}"#, 1),
    (r#"{"a": {"b": {"target": [1]}}}"#, 1),
    (r#"{"a": {"b": 1}, "c": [2, 3]} tail"#, 1),
    // From inside `i`: one level up is `o`, whose end is the boundary.
    (r#"{"o": {"i": {"x": 1}, "y": 2}, "target": {}}"#, 3),
    (r#"{"target": 1, "target": "s", "target": {"hit": 2}}"#, 1),
    (
        r#"{"target": 1, "x": {"target": 2}, "target": {"k": 3}}"#,
        1,
    ),
    (r#"{"s": "fake \"target\": {1}", "target": {"k": 1}}"#, 1),
    (r#"{"a": "target", "target": [0]}"#, 1),
    (r#"[[{"target": {"v": 1}}]]"#, 1),
    (r#"[[{"target": {"v": 1}}]]"#, 3),
    // Unbalanced quotes: the candidate's closing quote opens a string. (In
    // valid JSON `memmem` itself rules lookalikes inside strings out — an
    // escaped closing quote is not the needle's.)
    (r#"{"s": "abc, "target": {"k": 1}, "z": "}"}"#, 1),
    // Truncated input: the seek runs off the end.
    (r#"{"a": {"b": "#, 1),
    (r#"{"a": {"target""#, 2),
    (r#"{"a": {"target":   "#, 2),
];

#[test]
fn hand_written_cases() {
    for &(doc, openings) in CASES {
        check(doc.as_bytes(), "target", openings).unwrap();
    }
}

/// The needle crosses every alignment of a 64-byte block and a 256-byte
/// superblock (straddling the edges included), as a member of the object
/// the seek starts in and of the one above it.
#[test]
fn straddle_sweep() {
    for pad in 0..=330 {
        let q = "q".repeat(pad);
        let hit = format!(r#"{{"p": "{q}", "target": {{"v": 1}}, "z": 0}}"#);
        check(hit.as_bytes(), "target", 1).unwrap();
        let atomic = format!(r#"{{"p": "{q}", "target": 1, "target": [2]}}"#);
        check(atomic.as_bytes(), "target", 1).unwrap();
        let above = format!(r#"{{"n": {{"p": "{q}"}}, "target"  : {{"v": 1}}}}"#);
        check(above.as_bytes(), "target", 2).unwrap();
    }
}

/// A label longer than a block: validation is deferred across more than
/// one block edge.
#[test]
fn label_longer_than_a_block() {
    let label = "k".repeat(150);
    for pad in 0..130 {
        let doc = format!(
            r#"{{"p": "{}", "s": "\"{label}\": {{", "{label}": {{"v": 1}}}}"#,
            "q".repeat(pad)
        );
        check(doc.as_bytes(), &label, 1).unwrap();
    }
}

/// Many seeks through one seeker: sibling containers that lack the label
/// each stop at their own end, whatever the memo holds (the label's only
/// occurrence is in the last container, hundreds of blocks away).
#[test]
fn sibling_seeks_stop_at_their_own_end() {
    let mut doc = String::from("[");
    for i in 0..200 {
        doc.push_str(&format!(
            r#"{{"k{i}": [{i}], "pad": "{}"}},"#,
            "x".repeat(i)
        ));
    }
    doc.push_str(r#"{"target": {"deep": true}}]"#);
    let bytes = doc.as_bytes();
    for simd in BackendKind::supported().map(Simd::with_kind) {
        for scope in [SeekScope::member(false), SeekScope::subtree(0)] {
            let mut seeker = LabelSeeker::new(Finder::with_backend(b"\"target\"", simd));
            let mut it = StructuralIterator::new(bytes, simd);
            it.next(); // the array
            for _ in 0..200 {
                assert!(matches!(it.next(), Some(Structural::Opening(..))));
                assert_eq!(it.seek(scope, &mut seeker), (Seek::Boundary, 0));
                assert!(matches!(it.next(), Some(Structural::Closing(..))));
            }
            it.next(); // the last object
            assert_eq!(
                it.seek(scope, &mut seeker),
                (Seek::Composite { depth_delta: 0 }, 0)
            );
        }
    }
}
