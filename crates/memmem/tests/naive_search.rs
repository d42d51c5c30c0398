//! The SIMD searcher must agree with a naive scalar search on random
//! haystacks and needles, including needles sampled from the haystack
//! (guaranteeing matches deep in the vector loop). Case `n` draws its
//! input from `StdRng::seed_from_u64(n)`, so a failure names the seed that
//! replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_memmem::Finder;

const CASES: u64 = 256;

fn naive_all(haystack: &[u8], needle: &[u8]) -> Vec<usize> {
    if needle.is_empty() {
        return (0..=haystack.len()).collect();
    }
    if haystack.len() < needle.len() {
        return Vec::new();
    }
    (0..=haystack.len() - needle.len())
        .filter(|&i| &haystack[i..i + needle.len()] == needle)
        .collect()
}

/// Up to `max - 1` bytes drawn from `alphabet`.
fn over(rng: &mut StdRng, alphabet: &[u8], max: usize) -> Vec<u8> {
    (0..rng.gen_range(0..max))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

#[test]
fn all_matches_agree_with_naive() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let hay = over(rng, b"abc", 400);
        let needle = over(rng, b"abc", 6);
        let got: Vec<usize> = Finder::new(&needle).find_iter(&hay).collect();
        let (h, n) = (
            String::from_utf8_lossy(&hay),
            String::from_utf8_lossy(&needle),
        );
        assert_eq!(got, naive_all(&hay, &needle), "case {case}: {n:?} in {h:?}");
    }
}

#[test]
fn needle_sampled_from_haystack_is_found() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let hay: Vec<u8> = (0..rng.gen_range(10..600)).map(|_| rng.gen()).collect();
        let start = rng.gen_range(0..500) % hay.len();
        let len = rng.gen_range(1..10).min(hay.len() - start);
        let needle = &hay[start..start + len];
        let what = format!("case {case}: {needle:?} from {start} of {hay:?}");
        let pos = Finder::new(needle).find(&hay);
        let pos = pos.unwrap_or_else(|| panic!("{what}: not found"));
        assert!(pos <= start, "{what}");
        assert_eq!(&hay[pos..pos + len], needle, "{what}");
    }
}

#[test]
fn find_from_never_reports_before_start() {
    let f = Finder::new(b"xy");
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let hay = over(rng, b"xy", 300);
        let start = rng.gen_range(0..320);
        let what = format!(
            "case {case}: from {start} in {:?}",
            String::from_utf8_lossy(&hay)
        );
        if let Some(pos) = f.find_from(&hay, start) {
            assert!(pos >= start, "{what}");
            assert_eq!(&hay[pos..pos + 2], b"xy", "{what}");
        } else if start < hay.len() {
            // No match after start: verify naively.
            assert!(naive_all(&hay, b"xy").iter().all(|&p| p < start), "{what}");
        }
    }
}
