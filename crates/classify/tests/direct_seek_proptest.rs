//! Differential property test for the fast-path member seek (DESIGN.md
//! §15): [`StructuralIterator::seek_direct_member`] must agree with a
//! trivial recursive-descent oracle on generated documents, on every
//! supported backend, with and without a pre-warmed candidate memo.
//!
//! The generator is adversarial where the memmem-led candidate search is
//! weakest: `"target"` lookalikes inside string values, escaped-quote
//! prefixes, trailing backslashes, structural bytes inside strings,
//! genuine `"target"` members nested below the current container (never
//! direct), and variable-length padding that sweeps the needle across
//! 64-byte block boundaries. None of these may ever be *accepted*; they
//! may only bump the `declined` counter, which itself must be identical
//! across backends (the decline decisions are structural, not vectorised).
//!
//! Labels never contain escaped quotes: a label whose raw bytes *end*
//! with `\"target` is ambiguous under the paper's memmem candidate
//! convention (the escaped quote reads as a needle-opening quote), and
//! both routes resolve it the same way — that corner belongs to the
//! `fast_path_diff` fuzz lane, not to this oracle.

use proptest::prelude::*;
use rsq_classify::{BracketType, CandidateMemo, DirectSeek, Structural, StructuralIterator};
use rsq_memmem::Finder;
use rsq_simd::{BackendKind, Simd};

const NEEDLE: &[u8] = b"\"target\"";

/// Every backend this CPU can run.
fn backends() -> Vec<Simd> {
    BackendKind::supported().map(Simd::with_kind).collect()
}

// ---------------------------------------------------------------------
// Scalar oracle: a recursive-descent scan of the (valid) generated
// document that finds the first direct member named `target`.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Oracle {
    /// First direct `"target"` member has a composite value opening here.
    Composite(usize),
    /// First direct `"target"` member has an atomic value starting here
    /// (only reachable when the caller accepts atomics).
    Atomic(usize),
    /// No acceptable direct member; the root closes at this position.
    Boundary(usize),
}

fn skip_ws(doc: &[u8], mut i: usize) -> usize {
    while i < doc.len() && matches!(doc[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

/// `i` sits on the opening quote; returns the raw (still-escaped) string
/// contents and the index just past the closing quote.
fn scan_string(doc: &[u8], i: usize) -> (&[u8], usize) {
    let start = i + 1;
    let mut j = start;
    loop {
        match doc[j] {
            b'\\' => j += 2,
            b'"' => return (&doc[start..j], j + 1),
            _ => j += 1,
        }
    }
}

/// Index just past the value starting at `i`.
fn skip_value(doc: &[u8], i: usize) -> usize {
    match doc[i] {
        b'"' => scan_string(doc, i).1,
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match doc[j] {
                    b'"' => {
                        j = scan_string(doc, j).1;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while j < doc.len() && !matches!(doc[j], b',' | b'}' | b']' | b' ' | b'\n') {
                j += 1;
            }
            j
        }
    }
}

fn oracle(doc: &[u8], accept_atomic: bool) -> Oracle {
    let mut i = skip_ws(doc, 0);
    assert_eq!(doc[i], b'{', "generator always emits a root object");
    i = skip_ws(doc, i + 1);
    if doc[i] == b'}' {
        return Oracle::Boundary(i);
    }
    loop {
        assert_eq!(doc[i], b'"', "member must start with a label");
        let (label, after) = scan_string(doc, i);
        let is_target = label == b"target";
        i = skip_ws(doc, after);
        assert_eq!(doc[i], b':');
        let v = skip_ws(doc, i + 1);
        match doc[v] {
            b'{' | b'[' => {
                if is_target {
                    return Oracle::Composite(v);
                }
            }
            _ => {
                if is_target && accept_atomic {
                    return Oracle::Atomic(v);
                }
            }
        }
        i = skip_ws(doc, skip_value(doc, v));
        match doc[i] {
            b',' => i = skip_ws(doc, i + 1),
            b'}' => return Oracle::Boundary(i),
            other => panic!("malformed generated document at {i}: {}", other as char),
        }
    }
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
        // Structural noise the depth scan must ignore.
        Just(r#""}}}{{{,,::[[]]""#.to_string()),
        Just(r#""trailing backslash\\""#.to_string()),
        // Padding sweeps later members across 64-byte block boundaries.
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
/// one level down — nested occurrences must be declined, never accepted.
fn arb_composite() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{}".to_string()),
        Just("[]".to_string()),
        Just(r#"{"target": {"n": 1}}"#.to_string()),
        Just(r#"{"deep": {"target": [1, 2]}}"#.to_string()),
        Just(r#"[{"target": 7}, "x\"target", 3]"#.to_string()),
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

fn arb_doc() -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_member(), 0..6), 0usize..3)
        .prop_map(|(members, sep)| format!("{{{}}}", members.join([", ", ",", ",\n "][sep])))
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The seek agrees with the oracle on every backend, leaves the
    /// promised event pending, and declines deterministically — with a
    /// fresh memo and with one pre-warmed by an unrelated earlier search.
    #[test]
    fn direct_seek_agrees_with_oracle(doc in arb_doc(), accept_atomic in any::<bool>()) {
        let bytes = doc.as_bytes();
        let expect = oracle(bytes, accept_atomic);
        let mut declines: Vec<u64> = Vec::new();
        for simd in backends() {
            let finder = Finder::with_simd(NEEDLE, simd);
            for prewarm in [false, true] {
                let mut memo = CandidateMemo::default();
                if prewarm {
                    memo.find_from(&finder, bytes, 0);
                }
                let mut it = StructuralIterator::new(bytes, simd);
                let root = it.next();
                prop_assert!(
                    matches!(root, Some(Structural::Opening(BracketType::Brace, _))),
                    "root object must open: {:?}", root
                );
                let mut declined = 0u64;
                let got =
                    it.seek_direct_member(&finder, NEEDLE, &mut memo, accept_atomic, &mut declined);
                match expect {
                    Oracle::Composite(pos) => {
                        prop_assert_eq!(got, DirectSeek::Composite { pos });
                        let next = it.next().expect("value opening pending after Composite");
                        prop_assert!(matches!(next, Structural::Opening(_, _)));
                        prop_assert_eq!(next.position(), pos);
                    }
                    Oracle::Atomic(pos) => {
                        prop_assert_eq!(got, DirectSeek::Atomic { pos });
                    }
                    Oracle::Boundary(close) => {
                        prop_assert_eq!(got, DirectSeek::Boundary);
                        let next = it.next().expect("closing brace pending after Boundary");
                        prop_assert!(matches!(next, Structural::Closing(BracketType::Brace, _)));
                        prop_assert_eq!(next.position(), close);
                    }
                }
                declines.push(declined);
            }
        }
        prop_assert!(
            declines.windows(2).all(|w| w[0] == w[1]),
            "declined counts diverge across backends/memo states: {:?}", declines
        );
    }
}

/// Deterministic sweep: the needle crosses every 64-byte block alignment
/// (including straddling the boundary itself) and is found at the exact
/// value position each time, on every backend.
#[test]
fn straddle_sweep_finds_target_at_every_alignment() {
    for pad in 0..=192 {
        let doc = format!(
            "{{\"p\": \"{}\", \"target\": {{\"v\": 1}}, \"z\": 0}}",
            "q".repeat(pad)
        );
        let bytes = doc.as_bytes();
        let expect = oracle(bytes, false);
        for simd in backends() {
            let finder = Finder::with_simd(NEEDLE, simd);
            let mut memo = CandidateMemo::default();
            let mut declined = 0;
            let mut it = StructuralIterator::new(bytes, simd);
            it.next();
            let got = it.seek_direct_member(&finder, NEEDLE, &mut memo, false, &mut declined);
            let Oracle::Composite(pos) = expect else {
                panic!("sweep document always has a composite target");
            };
            assert_eq!(
                got,
                DirectSeek::Composite { pos },
                "pad={pad} backend={:?}",
                simd.kind()
            );
            assert_eq!(declined, 0, "pad={pad}");
        }
    }
}

/// An atomic direct member is skipped when the caller does not accept
/// atomics, and the seek continues to a later composite duplicate.
#[test]
fn atomic_member_is_skipped_then_composite_duplicate_found() {
    let doc = br#"{"target": 1, "x": {"target": 2}, "target": {"k": 3}}"#;
    for simd in backends() {
        let finder = Finder::with_simd(NEEDLE, simd);
        let mut memo = CandidateMemo::default();
        let mut declined = 0;
        let mut it = StructuralIterator::new(doc, simd);
        it.next();
        let got = it.seek_direct_member(&finder, NEEDLE, &mut memo, false, &mut declined);
        assert_eq!(got, oracle_as_seek(oracle(doc, false)));
        // The atomic first member and the nested duplicate were declined.
        assert_eq!(declined, 2, "backend={:?}", simd.kind());
    }
}

fn oracle_as_seek(o: Oracle) -> DirectSeek {
    match o {
        Oracle::Composite(pos) => DirectSeek::Composite { pos },
        Oracle::Atomic(pos) => DirectSeek::Atomic { pos },
        Oracle::Boundary(_) => DirectSeek::Boundary,
    }
}
