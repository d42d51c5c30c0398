//! Differential test: the SIMD structural iterator must agree with a
//! trivial scalar lexer on random (valid and invalid) inputs, under every
//! toggle configuration. Case `n` draws its input from
//! `StdRng::seed_from_u64(n)`, so a failure names the seed that replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_classify::{Structural, StructuralIterator};
use rsq_simd::Simd;

/// Scalar reference lexer: structural characters outside strings.
///
/// Backslash escaping is modelled *globally*, as the bit-parallel quote
/// classifier does (and simdjson before it): a backslash escapes the next
/// character even outside a string. Valid JSON never has a backslash
/// outside a string, so the two models only differ on garbage input.
fn scalar_lex(input: &[u8], commas: bool, colons: bool) -> Vec<(u8, usize)> {
    let mut out = Vec::new();
    let mut in_string = false;
    let mut escaped = false; // current character is escaped by a backslash
    for (i, &b) in input.iter().enumerate() {
        let is_escaped = escaped;
        escaped = b == b'\\' && !is_escaped;
        if b == b'"' && !is_escaped {
            in_string = !in_string;
            continue;
        }
        if in_string {
            continue;
        }
        match b {
            b'{' | b'}' | b'[' | b']' => out.push((b, i)),
            b',' if commas => out.push((b, i)),
            b':' if colons => out.push((b, i)),
            _ => {}
        }
    }
    out
}

fn simd_lex(input: &[u8], commas: bool, colons: bool) -> Vec<(u8, usize)> {
    let mut it = StructuralIterator::new(input, Simd::detect());
    it.set_toggles(commas, colons);
    let mut out = Vec::new();
    while let Some(s) = it.next() {
        let b = match s {
            Structural::Opening(t, _) => t.opening(),
            Structural::Closing(t, _) => t.closing(),
            Structural::Colon(_) => b':',
            Structural::Comma(_) => b',',
        };
        out.push((b, s.position()));
    }
    out
}

/// Up to 299 bytes weighted towards JSON-ish content, including escapes
/// and quotes.
fn jsonish(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(0..300))
        .map(|_| match rng.gen_range(0..13) {
            0..=2 => b"{}[]:,"[rng.gen_range(0..6)],
            3..=5 => b'"',
            6..=7 => b'\\',
            8..=11 => b"a 1\n"[rng.gen_range(0..4)],
            _ => rng.gen(),
        })
        .collect()
}

const CASES: u64 = 300;

#[test]
fn iterator_matches_scalar_lexer() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let input = jsonish(rng);
        let (commas, colons) = (rng.gen(), rng.gen());
        assert_eq!(
            simd_lex(&input, commas, colons),
            scalar_lex(&input, commas, colons),
            "case {case}: commas {commas} colons {colons} input {:?}",
            String::from_utf8_lossy(&input)
        );
    }
}

/// A case that an earlier property-test run shrank and recorded: eight
/// quotes, then `\{\"{`.
#[test]
fn recorded_case_matches_scalar_lexer() {
    let input = [34, 34, 34, 34, 34, 34, 34, 34, 92, 123, 92, 34, 123];
    assert_eq!(
        simd_lex(&input, false, false),
        scalar_lex(&input, false, false)
    );
}

#[test]
fn peek_is_transparent() {
    for case in 0..CASES {
        let input = jsonish(&mut StdRng::seed_from_u64(case));
        let what = format!("case {case}: {:?}", String::from_utf8_lossy(&input));
        let simd = Simd::detect();
        let mut plain = StructuralIterator::new(&input, simd);
        let mut peeky = StructuralIterator::new(&input, simd);
        loop {
            let expected = plain.next();
            assert_eq!(peeky.peek(), expected, "{what}");
            assert_eq!(peeky.next(), expected, "{what}");
            if expected.is_none() {
                break;
            }
        }
    }
}

/// Skipping a subtree must land on the bracket a scalar depth counter
/// finds, for valid nested-array/object soup.
#[test]
fn skip_agrees_with_scalar_depth() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let mut text = String::from("[");
        let mut depth = 1;
        for _ in 0..rng.gen_range(1..40) {
            match rng.gen_range(0..16) {
                0..=3 if depth < 12 => {
                    text.push('[');
                    depth += 1;
                }
                4..=5 if depth > 1 => {
                    text.push_str("0],");
                    depth -= 1;
                }
                6..=9 => text.push_str("\"s[]{}\","),
                _ => text.push_str("7,"),
            }
        }
        while depth > 0 {
            text.push_str("0]");
            depth -= 1;
        }
        let text = text.replace(",]", "]").replace(",,", ",");
        if rsq_json::parse(text.as_bytes()).is_err() {
            // The soup occasionally is not JSON; only valid documents are
            // interesting here.
            continue;
        }
        let bytes = text.as_bytes();
        let mut it = StructuralIterator::new(bytes, Simd::detect());
        let first = it.next().map(|s| s.position());
        assert_eq!(first, Some(0), "case {case}: {text}");
        let close = it.skip_past_close(rsq_classify::BracketType::Bracket);
        assert_eq!(close, Some(bytes.len() - 1), "case {case}: {text}");
        assert_eq!(it.next(), None, "case {case}: {text}");
    }
}
