//! Integration tests for the structural iterator: toggling, skipping,
//! label backtracking, and block-boundary behaviour.

use rsq_classify::{BracketType, Structural, StructuralIterator};
use rsq_simd::Simd;

fn iter(input: &[u8]) -> StructuralIterator<'_> {
    StructuralIterator::new(input, Simd::detect())
}

/// Collects (char, position) pairs from the iterator.
fn drain(it: &mut StructuralIterator<'_>) -> Vec<(char, usize)> {
    let mut out = Vec::new();
    while let Some(s) = it.next() {
        let c = match s {
            Structural::Opening(b, _) => b.opening() as char,
            Structural::Closing(b, _) => b.closing() as char,
            Structural::Colon(_) => ':',
            Structural::Comma(_) => ',',
        };
        out.push((c, s.position()));
    }
    out
}

#[test]
fn default_mode_yields_only_brackets() {
    let input = br#"{"a": [1, {"b": 2}], "c": 3}"#;
    let got = drain(&mut iter(input));
    let chars: String = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(chars, "{[{}]}");
}

#[test]
fn structural_chars_inside_strings_are_ignored() {
    let input = br#"{"s": "a{b}[c],:\" d", "t": []}"#;
    let got = drain(&mut iter(input));
    let chars: String = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(chars, "{[]}");
}

#[test]
fn toggled_commas_and_colons_appear() {
    let input = br#"{"a": 1, "b": [2, 3]}"#;
    let mut it = iter(input);
    it.set_toggles(true, true);
    let got = drain(&mut it);
    let chars: String = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(chars, "{:,:[,]}");
}

#[test]
fn toggle_mid_stream_reclassifies_current_block() {
    let input = br#"{"a": 1, "b": 2}"#;
    let mut it = iter(input);
    assert!(matches!(
        it.next(),
        Some(Structural::Opening(BracketType::Brace, 0))
    ));
    // Nothing but the closing brace is classified yet.
    it.set_toggles(false, true);
    let got = drain(&mut it);
    let chars: String = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(chars, "::}");
}

#[test]
fn toggle_off_hides_remaining_symbols() {
    let input = br#"[1, 2, 3, 4]"#;
    let mut it = iter(input);
    it.set_toggles(true, false);
    assert!(matches!(it.next(), Some(Structural::Opening(..))));
    assert!(matches!(it.next(), Some(Structural::Comma(2))));
    it.set_toggles(false, false);
    let got = drain(&mut it);
    let chars: String = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(chars, "]");
}

#[test]
fn peek_does_not_consume() {
    let input = br#"[[]]"#;
    let mut it = iter(input);
    assert_eq!(it.peek(), it.peek());
    let first = it.next().unwrap();
    assert_eq!(first.position(), 0);
    assert_eq!(it.peek().unwrap().position(), 1);
    assert_eq!(it.next().unwrap().position(), 1);
}

#[test]
fn label_before_openings() {
    let input = br#"{"alpha": {"beta": [1]}, "g": [{}]}"#;
    let mut it = iter(input);
    let mut labels = Vec::new();
    while let Some(s) = it.next() {
        if s.is_opening() {
            labels.push(it.label_before(s.position()).map(<[u8]>::to_vec));
        }
    }
    assert_eq!(
        labels,
        vec![
            None,                    // root {
            Some(b"alpha".to_vec()), // {"beta"...
            Some(b"beta".to_vec()),  // [1]
            Some(b"g".to_vec()),     // [{}]
            None,                    // {} inside array
        ]
    );
}

#[test]
fn label_before_handles_whitespace_and_escapes() {
    let input = b"{ \"a\\\"b\"  :   { } }";
    let mut it = iter(input);
    it.next(); // root
    let inner = it.next().unwrap();
    assert_eq!(it.label_before(inner.position()), Some(&b"a\\\"b"[..]));
}

#[test]
fn label_before_array_entry_is_none() {
    let input = br#"[ {"x": 1}, {"y": 2} ]"#;
    let mut it = iter(input);
    it.next(); // [
    let first = it.next().unwrap();
    assert_eq!(it.label_before(first.position()), None);
    it.skip_past_close(BracketType::Brace);
    let second = it.next().unwrap();
    assert!(second.is_opening());
    assert_eq!(it.label_before(second.position()), None);
}

#[test]
fn skip_past_close_consumes_subtree() {
    let input = br#"{"a": {"deep": [{}, {}]}, "b": []}"#;
    let mut it = iter(input);
    it.next(); // root {
    let a = it.next().unwrap(); // { of a
    assert_eq!(it.label_before(a.position()), Some(&b"a"[..]));
    let close = it.skip_past_close(BracketType::Brace).unwrap();
    assert_eq!(input[close], b'}');
    // Next event: the [ of b.
    let b = it.next().unwrap();
    assert!(matches!(b, Structural::Opening(BracketType::Bracket, _)));
    assert_eq!(it.label_before(b.position()), Some(&b"b"[..]));
}

#[test]
fn fast_forward_leaves_close_pending() {
    let input = br#"{"a": 1, "b": {"c": 2}, "d": 3}"#;
    let mut it = iter(input);
    it.next(); // root {
    let end = it.fast_forward_to_close(BracketType::Brace).unwrap();
    assert_eq!(input[end], b'}');
    assert_eq!(end, input.len() - 1);
    // The closing brace is still delivered.
    let last = it.next().unwrap();
    assert_eq!(last, Structural::Closing(BracketType::Brace, end));
    assert_eq!(it.next(), None);
}

#[test]
fn skip_tracks_only_requested_bracket_kind() {
    // Nested arrays inside the object must not confuse brace counting.
    let input = br#"{"a": [ { "x": [1, 2] } ], "b": 1}end"#;
    let mut it = iter(input);
    it.next(); // root {
    let close = it.skip_past_close(BracketType::Brace).unwrap();
    assert_eq!(input[close], b'}');
    assert_eq!(close, input.len() - 4);
    assert_eq!(it.next(), None);
}

#[test]
fn skip_ignores_brackets_in_strings() {
    let input = br#"{"s": "}}}}", "t": {"u": "{{{"}}"#;
    let mut it = iter(input);
    it.next(); // root
    let close = it.skip_past_close(BracketType::Brace).unwrap();
    assert_eq!(close, input.len() - 1);
}

#[test]
fn skip_across_many_blocks() {
    // A subtree much larger than one 64-byte block.
    let mut inner = String::from("[");
    for i in 0..200 {
        if i > 0 {
            inner.push(',');
        }
        inner.push_str(&format!("{{\"k{i}\": [{i}, {i}]}}"));
    }
    inner.push(']');
    let input = format!("{{\"big\": {inner}, \"next\": {{}}}}");
    let bytes = input.as_bytes();
    let mut it = iter(bytes);
    it.next(); // root {
    it.next(); // [ of big
    let close = it.skip_past_close(BracketType::Bracket).unwrap();
    assert_eq!(bytes[close], b']');
    let next = it.next().unwrap();
    assert!(matches!(next, Structural::Opening(BracketType::Brace, _)));
    assert_eq!(it.label_before(next.position()), Some(&b"next"[..]));
}

#[test]
fn skip_on_malformed_input_returns_none() {
    let input = br#"{"a": [1, 2"#;
    let mut it = iter(input);
    it.next();
    it.next();
    assert_eq!(it.skip_past_close(BracketType::Bracket), None);
    assert_eq!(it.next(), None);
}

#[test]
fn block_boundary_structurals() {
    // Put structural characters exactly at positions 63, 64, 127, 128.
    let mut input = vec![b' '; 200];
    input[0] = b'[';
    input[63] = b'[';
    input[64] = b']';
    input[127] = b'[';
    input[128] = b']';
    input[199] = b']';
    let got = drain(&mut iter(&input));
    assert_eq!(
        got,
        vec![
            ('[', 0),
            ('[', 63),
            (']', 64),
            ('[', 127),
            (']', 128),
            (']', 199)
        ]
    );
}

#[test]
fn resume_starts_mid_document() {
    use rsq_classify::{LabelSeeker, Seek, SeekScope};
    use rsq_memmem::Finder;
    // The unchecked head start trusts the hit and restarts classification
    // at the { of "from"'s value (position 26), as if the input began
    // there: no block before it is classified.
    let input = br#"{"skip": [1,2,3], "from": {"x": [42]}}"#;
    let pos = 26;
    assert_eq!(input[pos], b'{');
    let simd = Simd::detect();
    let mut seeker = LabelSeeker::new(Finder::with_backend(b"\"from\"", simd));
    let mut it = StructuralIterator::new(input, simd);
    let outcome = it.seek(SeekScope::document(false), &mut seeker);
    assert_eq!(outcome, (Seek::Composite { depth_delta: 0 }, 0));
    assert_eq!(it.counters(), rsq_classify::ClassifierCounters::default());
    let first = it.next().unwrap();
    assert_eq!(first, Structural::Opening(BracketType::Brace, pos));
    let chars: String = std::iter::once(first)
        .chain(std::iter::from_fn(|| it.next()))
        .map(|s| input[s.position()] as char)
        .collect();
    assert_eq!(chars, "{[]}}");
}

#[test]
fn empty_and_tiny_inputs() {
    assert_eq!(iter(b"").next(), None);
    assert_eq!(iter(b"42").next(), None);
    assert_eq!(iter(b"\"string\"").next(), None);
    let got = drain(&mut iter(b"{}"));
    assert_eq!(got, vec![('{', 0), ('}', 1)]);
}

#[test]
fn resume_state_round_trips_through_iterator() {
    use rsq_classify::{LabelSeeker, Seek, SeekScope};
    use rsq_memmem::Finder;
    // A document seek hands the cursor over at a value in mid-document —
    // checked, with the quote state it carried there; unchecked, restarted
    // with a fresh one — and either way the continuation is the one a walk
    // from the start sees.
    let mut input = br#"{"s": "}{", "a": "#.to_vec();
    input.extend(std::iter::repeat_n(b' ', 100));
    input.extend_from_slice(br#"[1, "]"], "b": {}}"#);
    let mut walked = iter(&input);
    walked.next(); // {
    let continuation = drain(&mut walked);
    for checked in [true, false] {
        let mut seeker = LabelSeeker::new(Finder::with_backend(b"\"a\"", Simd::detect()));
        let mut it = iter(&input);
        let (outcome, _) = it.seek(SeekScope::document(checked), &mut seeker);
        assert_eq!(outcome, Seek::Composite { depth_delta: 0 });
        assert_eq!(drain(&mut it), continuation, "checked: {checked}");
    }
}
