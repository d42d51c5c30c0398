//! SIMD-accelerated substring search.
//!
//! This crate is a from-scratch substitute for `memchr::memmem`, which the
//! paper (*Supporting Descendants in SIMD-Accelerated JSONPath*, ASPLOS
//! 2023, §3.4) uses to implement *skipping to a label*: when a query starts
//! with a descendant selector `$..ℓ`, the engine jumps between occurrences
//! of `"ℓ"` in the raw stream instead of classifying every block.
//!
//! The algorithm is the same two-byte SIMD prefilter used by
//! `memchr::memmem`'s generic vector searcher: for a window of 64 haystack
//! positions, compute the equality mask of the needle's first byte against
//! the window and of the needle's last byte against the window shifted by
//! `needle.len() - 1`; the AND of the two masks yields candidate positions,
//! each verified with a full comparison. Candidates are rare in realistic
//! data, so the search runs at near-`memcpy` speed.
//!
//! # Examples
//!
//! ```
//! use rsq_memmem::Finder;
//!
//! let haystack = br#"{"products":[{"name":"tv","price":499}]}"#;
//! let finder = Finder::new(b"\"price\"");
//! assert_eq!(finder.find(haystack), Some(26));
//! assert_eq!(finder.find_from(haystack, 27), None);
//! ```

#![warn(missing_docs)]
// Contained tier (DESIGN.md §14.2): a panic here is caught as one
// document's `panic` fault, but every site still says why it cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

use rsq_simd::{Backend, Simd};

/// Approximate commonness rank of each byte in JSON-ish text (higher =
/// more common). Used to pick the two *rarest* needle bytes as the vector
/// prefilter, so that candidate verification stays off the hot path —
/// the same heuristic `memchr::memmem` applies with its frequency table.
fn byte_rank(b: u8) -> u8 {
    match b {
        b' ' | b'"' => 255,
        b',' | b':' | b'e' | b't' | b'a' | b'o' | b'i' | b'n' => 240,
        b's' | b'r' | b'l' | b'h' | b'd' | b'u' | b'c' | b'm' => 220,
        b'0'..=b'9' => 200,
        b'{' | b'}' | b'[' | b']' | b'.' | b'_' | b'-' | b'/' => 180,
        b'f' | b'g' | b'p' | b'w' | b'y' | b'b' | b'v' | b'k' => 170,
        b'A'..=b'Z' => 120,
        b'a'..=b'z' => 150,
        0x80..=0xFF => 60,
        _ => 90,
    }
}

/// The offsets of a needle's two prefilter bytes: its two rarest, first
/// offset below the second (equal for a single-byte needle). Ranking the
/// bytes is the whole cost of building a [`Finder`], so a caller that
/// searches many haystacks for one needle ranks once ([`Prefilter::of`])
/// and hands the result to every [`Finder::with_prefilter`] — the engine
/// does so when it compiles a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prefilter(usize, usize);

impl Prefilter {
    /// Ranks `needle`'s bytes and picks the two rarest (at distinct
    /// offsets whenever the needle has two).
    #[must_use]
    pub fn of(needle: &[u8]) -> Self {
        if needle.len() <= 1 {
            return Prefilter(0, 0);
        }
        let mut best = 0usize;
        let mut second = 1usize;
        if byte_rank(needle[second]) < byte_rank(needle[best]) {
            core::mem::swap(&mut best, &mut second);
        }
        for (i, &b) in needle.iter().enumerate().skip(2) {
            if byte_rank(b) < byte_rank(needle[best]) {
                second = best;
                best = i;
            } else if byte_rank(b) < byte_rank(needle[second]) {
                second = i;
            }
        }
        Prefilter(best.min(second), best.max(second))
    }
}

/// A compiled searcher for a fixed needle.
///
/// Construction ranks the needle's bytes to pick the two rarest as the
/// vector prefilter; reuse a `Finder` when searching one haystack for the
/// same needle repeatedly, as the engine's skip-to-label loop does, and a
/// [`Prefilter`] across haystacks.
///
/// Generic over the [`Backend`] whose `find_pair` kernel it scans with:
/// by default the run-time [`Simd`] handle (one out-of-line kernel call
/// per search), inside a dispatched pass the static backend, kernel
/// inlined.
#[derive(Clone, Debug)]
pub struct Finder<'n, B: Backend = Simd> {
    needle: &'n [u8],
    backend: B,
    filter: Prefilter,
}

impl<'n> Finder<'n> {
    /// Creates a finder for `needle` using the best available SIMD backend.
    #[must_use]
    pub fn new(needle: &'n [u8]) -> Self {
        Self::with_simd(needle, Simd::detect())
    }

    /// Creates a finder with an explicit SIMD backend (used by ablation
    /// benchmarks).
    #[must_use]
    pub fn with_simd(needle: &'n [u8], simd: Simd) -> Self {
        Self::with_backend(needle, simd)
    }
}

impl<'n, B: Backend> Finder<'n, B> {
    /// Creates a finder scanning with `backend`'s kernel.
    #[inline]
    #[must_use]
    pub fn with_backend(needle: &'n [u8], backend: B) -> Self {
        Self::with_prefilter(needle, Prefilter::of(needle), backend)
    }

    /// Creates a finder from a prefilter chosen earlier for this needle.
    ///
    /// # Panics
    ///
    /// If `filter` was not made [of](Prefilter::of) a needle this long.
    #[inline]
    #[must_use]
    pub fn with_prefilter(needle: &'n [u8], filter: Prefilter, backend: B) -> Self {
        // A caller bug, caught here so that `find_from` indexes the needle in bounds.
        assert!(
            filter.0 <= filter.1 && filter.1 < needle.len().max(1),
            "prefilter of another needle"
        );
        Finder {
            needle,
            backend,
            filter,
        }
    }

    /// The needle this finder searches for.
    #[must_use]
    pub fn needle(&self) -> &'n [u8] {
        self.needle
    }

    /// Returns the index of the first occurrence of the needle in
    /// `haystack`, or `None`.
    ///
    /// An empty needle matches at index 0.
    #[inline(always)]
    #[must_use]
    pub fn find(&self, haystack: &[u8]) -> Option<usize> {
        self.find_from(haystack, 0)
    }

    /// Returns the index of the first occurrence of the needle at or after
    /// position `start`, or `None`.
    ///
    /// `start` past the end of the haystack yields `None` (except for the
    /// empty needle with `start == haystack.len()`, which matches there).
    #[inline(always)]
    #[must_use]
    pub fn find_from(&self, haystack: &[u8], start: usize) -> Option<usize> {
        let n = self.needle;
        if n.is_empty() {
            return (start <= haystack.len()).then_some(start);
        }
        if start >= haystack.len() || haystack.len() - start < n.len() {
            return None;
        }

        let Prefilter(off_a, off_b) = self.filter;
        let byte_a = n[off_a];
        let byte_b = n[off_b];
        let gap = off_b - off_a;
        let mut at = start;

        // Vector phase: the backend kernel scans for positions of the two
        // (rare) filter bytes at their relative distance; each candidate
        // is verified with a full comparison. The kernel searches for the
        // *first filter byte's* position, i.e. match position + off_a.
        loop {
            match self
                .backend
                .find_pair(haystack, at + off_a, byte_a, byte_b, gap)
            {
                Ok(hit) => {
                    let pos = hit - off_a;
                    if pos + n.len() <= haystack.len() && &haystack[pos..pos + n.len()] == n {
                        return Some(pos);
                    }
                    at = pos + 1;
                }
                Err(resume) => {
                    at = at.max(resume.saturating_sub(off_a));
                    break;
                }
            }
        }

        // Scalar tail.
        let first = n[0];
        while at + n.len() <= haystack.len() {
            if haystack[at] == first && &haystack[at..at + n.len()] == n {
                return Some(at);
            }
            at += 1;
        }
        None
    }

    /// Returns an iterator over the starting indices of all (possibly
    /// overlapping) occurrences of the needle.
    ///
    /// # Examples
    ///
    /// ```
    /// let finder = rsq_memmem::Finder::new(b"aa");
    /// let hits: Vec<usize> = finder.find_iter(b"aaaa").collect();
    /// assert_eq!(hits, [0, 1, 2]);
    /// ```
    pub fn find_iter<'f, 'h>(&'f self, haystack: &'h [u8]) -> FindIter<'f, 'n, 'h, B> {
        FindIter {
            finder: self,
            haystack,
            at: 0,
            done: false,
        }
    }
}

/// Iterator returned by [`Finder::find_iter`].
#[derive(Debug)]
pub struct FindIter<'f, 'n, 'h, B: Backend = Simd> {
    finder: &'f Finder<'n, B>,
    haystack: &'h [u8],
    at: usize,
    done: bool,
}

impl<B: Backend> Iterator for FindIter<'_, '_, '_, B> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        match self.finder.find_from(self.haystack, self.at) {
            Some(pos) => {
                // Advance by one to also report overlapping occurrences.
                self.at = pos + 1;
                if self.finder.needle().is_empty() && self.at > self.haystack.len() {
                    self.done = true;
                }
                Some(pos)
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

/// Convenience one-shot search: index of the first occurrence of `needle`
/// in `haystack`.
///
/// Prefer [`Finder`] when searching repeatedly with the same needle.
///
/// # Examples
///
/// ```
/// assert_eq!(rsq_memmem::find(b"hello world", b"world"), Some(6));
/// assert_eq!(rsq_memmem::find(b"hello world", b"worlds"), None);
/// ```
#[must_use]
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    Finder::new(needle).find(haystack)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_find(haystack: &[u8], needle: &[u8], start: usize) -> Option<usize> {
        if needle.is_empty() {
            return (start <= haystack.len()).then_some(start);
        }
        if haystack.len() < needle.len() {
            return None;
        }
        (start..=haystack.len() - needle.len()).find(|&i| &haystack[i..i + needle.len()] == needle)
    }

    #[test]
    fn empty_needle_matches_everywhere() {
        assert_eq!(find(b"abc", b""), Some(0));
        assert_eq!(Finder::new(b"").find_from(b"abc", 3), Some(3));
        assert_eq!(Finder::new(b"").find_from(b"abc", 4), None);
    }

    #[test]
    fn needle_longer_than_haystack() {
        assert_eq!(find(b"ab", b"abc"), None);
        assert_eq!(find(b"", b"a"), None);
    }

    #[test]
    fn single_byte_needle() {
        let hay = vec![b'x'; 200];
        let mut hay2 = hay.clone();
        hay2[130] = b'y';
        assert_eq!(find(&hay2, b"y"), Some(130));
        assert_eq!(find(&hay, b"y"), None);
    }

    #[test]
    fn match_at_every_boundary_region() {
        // Place the needle at positions around the 64-byte block boundary.
        for pos in [0usize, 1, 62, 63, 64, 65, 126, 127, 128, 190] {
            let mut hay = vec![b'.'; 256];
            hay[pos..pos + 6].copy_from_slice(b"needle");
            assert_eq!(find(&hay, b"needle"), Some(pos), "pos {pos}");
        }
    }

    #[test]
    fn match_in_scalar_tail() {
        let mut hay = vec![b'.'; 70];
        hay[66..69].copy_from_slice(b"abc");
        assert_eq!(find(&hay, b"abc"), Some(66));
    }

    #[test]
    fn false_candidates_are_rejected() {
        // first and last bytes match but the middle differs
        let hay = b"aXc...abc";
        assert_eq!(find(hay, b"abc"), Some(6));
    }

    #[test]
    fn find_from_skips_earlier_matches() {
        let hay = b"abc...abc...abc";
        let f = Finder::new(b"abc");
        assert_eq!(f.find_from(hay, 0), Some(0));
        assert_eq!(f.find_from(hay, 1), Some(6));
        assert_eq!(f.find_from(hay, 7), Some(12));
        assert_eq!(f.find_from(hay, 13), None);
        assert_eq!(f.find_from(hay, 1000), None);
    }

    #[test]
    fn find_iter_collects_overlapping() {
        let f = Finder::new(b"aba");
        let hits: Vec<usize> = f.find_iter(b"ababa").collect();
        assert_eq!(hits, [0, 2]);
    }

    #[test]
    fn agrees_with_naive_on_periodic_data() {
        let hay: Vec<u8> = (0..1000).map(|i| b"aabaabbb"[i % 8]).collect();
        for needle in [&b"aab"[..], b"abb", b"bbb", b"baa", b"aabaabbbaab"] {
            let f = Finder::new(needle);
            let mut at = 0;
            loop {
                let got = f.find_from(&hay, at);
                assert_eq!(got, naive_find(&hay, needle, at));
                match got {
                    Some(p) => at = p + 1,
                    None => break,
                }
            }
        }
    }

    #[test]
    fn prefilter_picks_the_two_rarest_bytes() {
        assert_eq!(Prefilter::of(b""), Prefilter(0, 0));
        assert_eq!(Prefilter::of(b"x"), Prefilter(0, 0));
        assert_eq!(Prefilter::of(b"ab"), Prefilter(0, 1));
        assert_eq!(Prefilter::of(b"\"\""), Prefilter(0, 1));
        // All bytes alike: the first two, never one offset twice.
        assert_eq!(Prefilter::of(b"aaaaaa"), Prefilter(0, 1));
        // The quotes and vowels are common, `q` and `Z` rare.
        assert_eq!(Prefilter::of(b"\"eqaZ\""), Prefilter(2, 4));
        // Non-ASCII bytes rank rarest of all.
        assert_eq!(Prefilter::of("\"aé\"".as_bytes()), Prefilter(2, 3));
    }

    #[test]
    fn ready_made_prefilter_finds_what_a_fresh_finder_finds() {
        let hay: Vec<u8> = (0..2000).map(|i| b"\"url\":{}a\xc3\xa9 "[i % 11]).collect();
        for needle in [&b"\"url\""[..], b"l", b"\":", b"    ", "aé".as_bytes()] {
            let filter = Prefilter::of(needle);
            let ready = Finder::with_prefilter(needle, filter, Simd::detect());
            let fresh = Finder::new(needle);
            assert_eq!(
                ready.find_iter(&hay).collect::<Vec<_>>(),
                fresh.find_iter(&hay).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[should_panic(expected = "prefilter of another needle")]
    fn a_prefilter_of_a_longer_needle_is_refused() {
        let _ = Finder::with_prefilter(b"ab", Prefilter::of(b"\"label\""), Simd::detect());
    }

    #[test]
    fn json_label_scenario() {
        let hay = br#"{"a":{"deep":{"label":1}},"label":2}"#;
        let f = Finder::new(b"\"label\"");
        let hits: Vec<usize> = f.find_iter(hay).collect();
        assert_eq!(hits, [14, 26]);
    }
}
