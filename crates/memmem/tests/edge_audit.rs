//! Edge-case audit of `Finder` against a naive scalar oracle.
//!
//! The vector prefilter has three regimes with distinct failure modes:
//! the 64-position block loop, the handoff (`Err(resume)`) into the
//! scalar tail, and the degenerate shapes that never reach the vector
//! loop at all (empty needle, needle longer than the remaining
//! haystack). This suite pins each regime on every backend the host
//! supports, with matches placed at the exact offsets where an
//! off-by-one would hide: block edges, the final tail, and `start`
//! values at or past the end.

use rsq_memmem::Finder;
use rsq_simd::{BackendKind, Simd};

fn backends() -> Vec<Simd> {
    BackendKind::supported().map(Simd::with_kind).collect()
}

fn naive_find(haystack: &[u8], needle: &[u8], start: usize) -> Option<usize> {
    if needle.is_empty() {
        return (start <= haystack.len()).then_some(start);
    }
    if haystack.len() < needle.len() || start > haystack.len() - needle.len() {
        return None;
    }
    (start..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
}

/// Checks `find_from` against the oracle for every start position (plus
/// a few past the end) on every supported backend.
fn assert_agrees(haystack: &[u8], needle: &[u8]) {
    for simd in backends() {
        let f = Finder::with_simd(needle, simd);
        for start in 0..=haystack.len() + 2 {
            assert_eq!(
                f.find_from(haystack, start),
                naive_find(haystack, needle, start),
                "backend {:?}, needle {:?}, start {start}, haystack len {}",
                simd.kind(),
                String::from_utf8_lossy(needle),
                haystack.len()
            );
        }
    }
}

#[test]
fn degenerate_shapes() {
    // Empty haystack: nothing but the empty needle matches, and only at 0.
    assert_agrees(b"", b"x");
    assert_agrees(b"", b"xy");
    assert_agrees(b"", b"");
    // Haystack equals needle: exactly one match, at 0.
    assert_agrees(b"needle", b"needle");
    // Needle one byte longer than the haystack.
    assert_agrees(b"needl", b"needle");
}

#[test]
fn empty_needle_matches_every_gap() {
    for simd in backends() {
        let f = Finder::with_simd(b"", simd);
        let hits: Vec<usize> = f.find_iter(b"ab").collect();
        assert_eq!(hits, [0, 1, 2], "backend {:?}", simd.kind());
        assert_eq!(f.find_from(b"ab", 2), Some(2));
        assert_eq!(f.find_from(b"ab", 3), None);
    }
}

#[test]
fn needle_spanning_final_block_tail() {
    // A match whose last byte is the last haystack byte, for lengths that
    // straddle the 64-position window and for haystack sizes around the
    // block boundary: the prefilter's shifted load must not read (or
    // demand) bytes past the end.
    for needle_len in [1usize, 2, 3, 8, 63, 64, 65] {
        let needle: Vec<u8> = (0..needle_len).map(|i| b'A' + (i % 26) as u8).collect();
        for hay_len in [needle_len, needle_len + 1, 63, 64, 65, 127, 128, 129, 200] {
            if hay_len < needle_len {
                continue;
            }
            let mut hay = vec![b'.'; hay_len];
            let pos = hay_len - needle_len;
            hay[pos..].copy_from_slice(&needle);
            assert_agrees(&hay, &needle);
        }
    }
}

#[test]
fn match_straddling_block_boundaries() {
    // Matches that begin in one 64-byte window and end in the next.
    for pos in [60usize, 61, 62, 63, 124, 125, 126, 127] {
        let mut hay = vec![b'-'; 192];
        hay[pos..pos + 8].copy_from_slice(b"abcdefgh");
        assert_agrees(&hay, b"abcdefgh");
    }
}

#[test]
fn periodic_and_overlapping_needles() {
    // All-same-byte data defeats the two-byte prefilter's selectivity:
    // every window position is a candidate and verification carries the
    // whole search.
    let hay = vec![b'a'; 150];
    assert_agrees(&hay, b"aaa");
    assert_agrees(&hay, &[b'a'; 64]);
    for simd in backends() {
        let f = Finder::with_simd(b"aa", simd);
        let hits: Vec<usize> = f.find_iter(&hay[..10]).collect();
        assert_eq!(
            hits,
            (0..9).collect::<Vec<_>>(),
            "backend {:?}",
            simd.kind()
        );
    }
}

#[test]
fn false_candidates_across_the_handoff() {
    // First/last filter bytes line up but the middle differs, repeatedly,
    // with the only real match in the scalar tail after the vector loop
    // hands off.
    let mut hay = Vec::new();
    for _ in 0..20 {
        hay.extend_from_slice(b"aXc...");
    }
    hay.extend_from_slice(b"abc");
    assert_agrees(&hay, b"abc");
}

#[test]
fn randomized_cross_backend_agreement() {
    // Deterministic xorshift sweep over a small alphabet so matches are
    // dense; every backend must agree with the oracle at every start.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..40 {
        let hay_len = (next() % 300) as usize;
        let hay: Vec<u8> = (0..hay_len)
            .map(|_| b"abAB"[(next() % 4) as usize])
            .collect();
        let needle_len = (next() % 7) as usize;
        let needle: Vec<u8> = if needle_len > 0 && !hay.is_empty() && round % 2 == 0 {
            // Sample from the haystack so deep-in-the-loop matches exist.
            let at = (next() as usize) % hay.len();
            let take = needle_len.min(hay.len() - at);
            hay[at..at + take].to_vec()
        } else {
            (0..needle_len)
                .map(|_| b"abAB"[(next() % 4) as usize])
                .collect()
        };
        assert_agrees(&hay, &needle);
    }
}
