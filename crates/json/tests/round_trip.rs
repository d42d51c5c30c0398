//! Randomized tests of the JSON substrate: generated DOMs must round-trip
//! through serialization and parsing, and the streaming statistics must
//! agree with the DOM. Case `n` draws its input from
//! `StdRng::seed_from_u64(n)`, so a failure names the seed that replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_json::{document_stats, parse, to_string, to_string_pretty};
use rsq_json::{Key, Number, Span, ValueKind, ValueNode};

const CASES: u64 = 256;

const NO_SPAN: Span = Span { start: 0, end: 0 };

/// `len` characters drawn from `pool`, `len` in `lens`.
fn string_from(rng: &mut StdRng, pool: &[char], lens: std::ops::Range<usize>) -> String {
    let len = rng.gen_range(lens);
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

/// A DOM at most `depth` containers deep: a leaf one time in three, else
/// an array or object of up to five members.
fn value(rng: &mut StdRng, depth: u32) -> ValueNode {
    let kind = if depth == 0 || rng.gen_range(0..3) == 0 {
        match rng.gen_range(0..4) {
            0 => ValueKind::Null,
            1 => ValueKind::Bool(rng.gen()),
            2 => ValueKind::Number(Number::from_raw(rng.gen_range(-1000i64..1000).to_string())),
            _ => {
                let pool: Vec<char> = "abcdefghijklmnopqrstuvwxyz :,{}[]".chars().collect();
                let mut raw = String::new();
                rsq_json::escape_into(&string_from(rng, &pool, 0..13), &mut raw);
                ValueKind::String(raw)
            }
        }
    } else if rng.gen() {
        ValueKind::Array(
            (0..rng.gen_range(0..6))
                .map(|_| value(rng, depth - 1))
                .collect(),
        )
    } else {
        let letters: Vec<char> = ('a'..='z').collect();
        let members = (0..rng.gen_range(0..6)).map(|_| {
            let text = string_from(rng, &letters, 1..9);
            (
                Key {
                    text,
                    span: NO_SPAN,
                },
                value(rng, depth - 1),
            )
        });
        ValueKind::Object(members.collect())
    };
    ValueNode {
        kind,
        span: NO_SPAN,
    }
}

/// Runs `check` on a fresh DOM for every case.
fn each_value(check: impl Fn(&str, &ValueNode)) {
    for case in 0..CASES {
        let value = value(&mut StdRng::seed_from_u64(case), 4);
        check(&format!("case {case}: {}", to_string(&value)), &value);
    }
}

#[test]
fn serialize_parse_round_trip() {
    each_value(|what, value| {
        let text = to_string(value);
        let reparsed = parse(text.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(to_string(&reparsed), text, "{what}");
    });
}

#[test]
fn pretty_and_compact_agree() {
    each_value(|what, value| {
        let pretty = to_string_pretty(value);
        let from_pretty = parse(pretty.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(to_string(&from_pretty), to_string(value), "{what}");
    });
}

#[test]
fn stats_agree_with_dom() {
    each_value(|what, value| {
        let text = to_string(value);
        let dom = parse(text.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}"));
        let stats = document_stats(text.as_bytes());
        assert_eq!(stats.node_count, dom.node_count(), "{what}");
        assert_eq!(stats.max_depth, dom.depth(), "{what}");
        assert_eq!(stats.size_bytes, text.len(), "{what}");
    });
}

#[test]
fn parser_never_panics_on_garbage() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let bytes: Vec<u8> = (0..rng.gen_range(0..256)).map(|_| rng.gen()).collect();
        // A panic here is reported with the case that caused it.
        let outcome = std::panic::catch_unwind(|| parse(&bytes).is_ok());
        assert!(outcome.is_ok(), "case {case}: parse panicked on {bytes:?}");
    }
}

#[test]
fn unescape_escape_round_trip() {
    // Printable characters, some of them multi-byte.
    let mut pool: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
    pool.extend(['ż', 'ó', 'ł', 'ć', 'λ', '€', '好', '𝄞']);
    for case in 0..CASES {
        let s = string_from(&mut StdRng::seed_from_u64(case), &pool, 0..33);
        let mut raw = String::new();
        rsq_json::escape_into(&s, &mut raw);
        let unescaped = std::panic::catch_unwind(|| rsq_json::unescape(&raw)).ok();
        assert_eq!(unescaped, Some(Ok(s.clone())), "case {case}: {s:?}");
    }
}
