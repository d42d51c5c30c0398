//! Skipping to a label *within an element* (§4.5's proposed classifier
//! extension, §5.6's "improvement opportunity" for C2ʳ-style queries).
//!
//! When the automaton sits in a *waiting* state that cannot accept in one
//! step (single label transition, looping fallback), the main loop would
//! visit every opening character, backtrack for its label, and compare —
//! only to stay in the same state almost every time. This classifier
//! instead fast-forwards: SIMD substring search locates candidate
//! occurrences of `"label"` while a depth scan (both bracket pairs at
//! once) watches for the boundary where the depth-stack would pop and the
//! state would change.
//!
//! Candidates are validated exactly like the global skip-to-label (§3.3):
//! the closing quote must lie outside a string (free here — the quote
//! masks are already computed) and a colon must follow; only candidates
//! whose member value is *composite* are reported, because in an internal
//! state an atomic value can never match.

use crate::depth::{low_bits, scan_block};
use crate::iterator::{BracketType, GapScan, StructuralIterator};
use rsq_memmem::Finder;
use rsq_simd::{Backend, BLOCK_SIZE};

/// Outcome of [`StructuralIterator::seek_label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelSeek {
    /// A member with the sought label and a composite value was found.
    /// The iterator will yield the value's opening character next;
    /// `depth_delta` is the net container-depth change absorbed by the
    /// seek (the candidate's parent object sits that many levels away
    /// from where the seek started).
    Candidate {
        /// Net depth change relative to where the seek started.
        depth_delta: i32,
    },
    /// The depth dropped below the allowed window: the closing character
    /// crossing the boundary is left pending and will be yielded next.
    /// The absorbed depth change is exactly `-levels`.
    Boundary,
    /// The input ended (malformed document).
    End,
}

/// Memoized `memmem` frontier for one needle over one input.
///
/// [`StructuralIterator::seek_direct_member`] runs once per container,
/// and containers that do *not* hold the sought label would each pay a
/// substring search all the way to the next occurrence elsewhere in the
/// document — megabytes away, or clean through EOF for a rare label —
/// only for the result to be discarded at the container boundary and
/// re-derived by the next sibling's seek, turning a linear walk
/// quadratic. Since seeks only ever move forward, the first occurrence
/// at-or-after an already-searched position stays valid: the memo
/// remembers it (or the proven absence of one) and answers later
/// lookups from positions it covers without touching the haystack.
#[derive(Clone, Copy, Debug, Default)]
pub struct CandidateMemo {
    /// `(covered_from, next)`: the first occurrence at or after
    /// `covered_from` is `next` (`None` = no occurrence through EOF).
    /// `None` until the first search.
    state: Option<(usize, Option<usize>)>,
}

impl CandidateMemo {
    /// The first occurrence of `finder`'s needle at or after `pos`,
    /// searching only when the memo does not already cover `pos`.
    #[inline(always)]
    pub fn find_from<B: Backend>(
        &mut self,
        finder: &Finder<'_, B>,
        input: &[u8],
        pos: usize,
    ) -> Option<usize> {
        if let Some((covered_from, next)) = self.state {
            if pos >= covered_from {
                match next {
                    None => return None,
                    Some(c) if c >= pos => return Some(c),
                    Some(_) => {}
                }
            }
        }
        let found = finder.find_from(input, pos);
        self.state = Some((pos, found));
        found
    }
}

/// Outcome of [`StructuralIterator::seek_direct_member`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectSeek {
    /// A *direct* member named `"label"` with a composite value was
    /// found; the iterator will yield the value's opening character
    /// next.
    Composite {
        /// Position of the value's opening `{` / `[`.
        pos: usize,
    },
    /// A direct member with an atomic value was found (only reported
    /// when `accept_atomic` is set); the iterator is positioned at the
    /// value's first byte.
    Atomic {
        /// Position of the atomic value's first byte.
        pos: usize,
    },
    /// The current container closed before another direct member named
    /// `"label"`: the closing character is left pending and will be
    /// yielded by the next `next` call.
    Boundary,
    /// The input ended (malformed document).
    End,
}

impl<'a, B: Backend> StructuralIterator<'a, B> {
    /// Fast-forwards to the next *direct* member of the current container
    /// named by `needle` (a `"label"` byte string searched by `finder`),
    /// or to the container's closing character — whichever comes first.
    ///
    /// This is the fast-path variant of [`seek_label`](Self::seek_label)
    /// (DESIGN.md §15): the depth scan runs with the boundary one level
    /// up (`levels = 0`), and candidates found *nested* below the current
    /// container are declined in-scan without validation, so the caller
    /// only ever sees members whose automaton transition it precomputed.
    ///
    /// The current container must be an **object** (the caller skips
    /// array containers whole — a label step cannot match inside one),
    /// which lets the depth scan track the brace pair alone, exactly
    /// like [`skip_past_close`](Self::skip_past_close) tracks a single
    /// pair: every labelled member sits directly inside some object, so
    /// a candidate nested anywhere below this container is separated
    /// from it by at least one brace, and the container's own closing
    /// brace is the first position where the brace depth drops to zero.
    /// Candidate validation is identical to the head start's: the closing
    /// quote must lie outside a string (an escaped-quote lookalike reads
    /// as inside), a colon must follow, and the member value decides the
    /// outcome — composite values are always reported, atomic values only
    /// when `accept_atomic` is set (the caller's state accepts), and
    /// malformed constructs (`}`/`]`/`,`/`:` after the colon) are
    /// declined. Every declined candidate bumps `declined`.
    ///
    /// `finder` must search for exactly the bytes of `needle`; the two
    /// are passed separately so the caller can build the finder once per
    /// run instead of once per seek. `memo` must likewise persist across
    /// the seeks of one run (one per needle) — it is what keeps repeated
    /// seeks over label-free sibling containers linear.
    #[inline(always)]
    pub fn seek_direct_member(
        &mut self,
        finder: &Finder<'_, B>,
        needle: &[u8],
        memo: &mut CandidateMemo,
        accept_atomic: bool,
        declined: &mut u64,
    ) -> DirectSeek {
        // One function per backend, whatever the number of call sites.
        self.backend().enter(
            #[inline(always)]
            || self.seek_direct_member_in_place(finder, needle, memo, accept_atomic, declined),
        )
    }

    #[inline(always)]
    fn seek_direct_member_in_place(
        &mut self,
        finder: &Finder<'_, B>,
        needle: &[u8],
        memo: &mut CandidateMemo,
        accept_atomic: bool,
        declined: &mut u64,
    ) -> DirectSeek {
        self.clear_peeked();
        let input = self.input();
        debug_assert!(
            needle.len() >= 2 && needle[0] == b'"' && needle[needle.len() - 1] == b'"',
            "needle must be a quoted label"
        );

        // `sim` is the simulated *brace* depth with the boundary at
        // zero: the current object is level 1; a candidate is a direct
        // member exactly when `sim == 1` at its position.
        let mut sim = 1usize;
        let mut cand = memo.find_from(finder, input, self.position());
        // A candidate whose depth scan is complete but whose closing
        // quote lies in a block not yet quote-classified.
        let mut deferred: Option<usize> = None;

        loop {
            let Some((start, within)) = self.seek_current_block() else {
                return DirectSeek::End;
            };
            let block_end = start + BLOCK_SIZE;

            if let Some(c) = deferred {
                // The needle spans into this block; the bytes between the
                // candidate and its closing quote are the needle text
                // itself (no structural characters), so no depth scanning
                // is owed for the skipped region and `sim` is still the
                // candidate's depth.
                let closing_quote = c + needle.len() - 1;
                if closing_quote >= block_end {
                    if !self.consume_rest_of_block() {
                        return DirectSeek::End;
                    }
                    continue;
                }
                deferred = None;
                match self.direct_validate(c, needle, within, start, sim, accept_atomic) {
                    Some(outcome) => return outcome,
                    None => {
                        *declined = declined.saturating_add(1);
                        self.reposition_within_current(closing_quote, true);
                        cand = memo.find_from(finder, input, c + 1);
                        continue;
                    }
                }
            }

            let keep = !low_bits(self.position_in_current());
            let Some((opens, closes)) = self.pair_in_current(BracketType::Brace) else {
                return DirectSeek::End;
            };

            match cand {
                Some(c) if c < block_end => {
                    debug_assert!(c >= self.position(), "candidate behind the scan");
                    // Scan depth only up to the candidate.
                    let cand_bit = (c - start) as u32;
                    let below = low_bits(cand_bit) & keep;
                    if let Some(rel) = scan_block(opens & below, closes & below, &mut sim) {
                        // Boundary crossing before the candidate.
                        self.reposition_within_current(start + rel as usize, false);
                        return DirectSeek::Boundary;
                    }
                    self.reposition_within_current(c, true);
                    if sim != 1 {
                        // Nested occurrence: not a direct member, decline
                        // without validating.
                        *declined = declined.saturating_add(1);
                        cand = memo.find_from(finder, input, c + 1);
                        continue;
                    }
                    let closing_quote = c + needle.len() - 1;
                    if closing_quote >= block_end {
                        // Needle straddles the block boundary: defer the
                        // validation until its block is classified.
                        deferred = Some(c);
                        if !self.consume_rest_of_block() {
                            return DirectSeek::End;
                        }
                        continue;
                    }
                    match self.direct_validate(c, needle, within, start, sim, accept_atomic) {
                        Some(outcome) => return outcome,
                        None => {
                            *declined = declined.saturating_add(1);
                            cand = memo.find_from(finder, input, c + 1);
                            continue;
                        }
                    }
                }
                _ => {
                    // No candidate in this block: full-depth scan of the
                    // remainder, then a tight block loop across the gap
                    // to the candidate (or the boundary, or EOF).
                    if let Some(rel) = scan_block(opens & keep, closes & keep, &mut sim) {
                        self.reposition_within_current(start + rel as usize, false);
                        return DirectSeek::Boundary;
                    }
                    match self.seek_gap_scan(cand.unwrap_or(usize::MAX), &mut sim) {
                        GapScan::Boundary => return DirectSeek::Boundary,
                        GapScan::Reached => {}
                        GapScan::End => return DirectSeek::End,
                    }
                }
            }
        }
    }

    /// Validates the direct-member candidate at `c` whose closing quote
    /// lies in the current block (`start`/`within`). Returns the outcome
    /// for a valid member, or `None` to decline and continue seeking.
    #[inline(always)]
    fn direct_validate(
        &mut self,
        c: usize,
        needle: &[u8],
        within: u64,
        start: usize,
        sim: usize,
        accept_atomic: bool,
    ) -> Option<DirectSeek> {
        let input = self.input();
        // A deferred candidate's directness is checked here (its depth
        // could not change while the needle text was being skipped).
        if sim != 1 {
            return None;
        }
        // A genuine label's closing quote lies outside a string; a
        // lookalike with escaped quotes reads as inside.
        let closing_quote = c + needle.len() - 1;
        debug_assert!((start..start + BLOCK_SIZE).contains(&closing_quote));
        if within >> (closing_quote - start) & 1 == 1 {
            return None;
        }
        let colon = first_nonws(input, c + needle.len())?;
        if input[colon] != b':' {
            return None;
        }
        let v = first_nonws(input, colon + 1)?;
        match input[v] {
            b'{' | b'[' => {
                // Position the iterator so the value's opening is the next
                // event. The gap [c, v) holds only the label string,
                // whitespace, and the colon — no structural characters
                // survive the masks there.
                if !self.advance_to(v) {
                    return None;
                }
                Some(DirectSeek::Composite { pos: v })
            }
            b'}' | b']' | b',' | b':' => None, // malformed construct
            _ if accept_atomic => {
                // Atomic value: the bytes in [c, v) are non-structural, and
                // the value itself contains structural characters only
                // inside strings, so positioning at `v` keeps the depth
                // scan consistent for the caller's follow-up fast-forward.
                if !self.advance_to(v) {
                    return None;
                }
                Some(DirectSeek::Atomic { pos: v })
            }
            _ => None, // atomic value cannot match in an internal state
        }
    }

    /// Fast-forwards to the next member whose quoted label `"label"` is
    /// `finder`'s needle (with a composite value) within the current
    /// element and its subtree, or to the closing character that would
    /// drop the depth more than `levels` levels below the current one —
    /// whichever comes first.
    ///
    /// Callers must ensure the automaton state cannot change on any event
    /// the seek absorbs: in the engine this means a *waiting, internal*
    /// state (fallback loops; no transition accepts in one step), with
    /// the boundary set to the topmost depth-stack frame. A waiting
    /// state's label is fixed when the query is compiled, so the engine
    /// builds each finder once per run, not once per seek.
    #[inline(always)]
    pub fn seek_label(&mut self, finder: &Finder<'_, B>, levels: u32) -> LabelSeek {
        // One function per backend, whatever the number of call sites.
        self.backend().enter(
            #[inline(always)]
            || self.seek_label_in_place(finder, levels),
        )
    }

    #[inline(always)]
    fn seek_label_in_place(&mut self, finder: &Finder<'_, B>, levels: u32) -> LabelSeek {
        self.clear_peeked();
        let input = self.input();
        let needle = finder.needle();
        debug_assert!(
            needle.len() >= 2 && needle[0] == b'"' && needle[needle.len() - 1] == b'"',
            "needle must be a quoted label"
        );

        // `sim` is the simulated depth with the boundary at zero: it
        // starts at `levels + 1`; the closing that would take it to 0 is
        // the boundary crossing and is left pending.
        let mut sim = levels as usize + 1;
        let mut cand = finder.find_from(input, self.position());
        // A candidate whose depth scan is complete but whose closing quote
        // lies in a block not yet quote-classified.
        let mut deferred: Option<usize> = None;

        loop {
            let Some((start, within)) = self.seek_current_block() else {
                return LabelSeek::End;
            };
            let block_end = start + BLOCK_SIZE;

            if let Some(c) = deferred {
                // The needle spans into this block; the bytes between the
                // candidate and its closing quote are the needle text
                // itself, which contains no structural characters, so no
                // depth scanning is owed for the skipped region.
                let closing_quote = c + needle.len() - 1;
                if closing_quote >= block_end {
                    if !self.consume_rest_of_block() {
                        return LabelSeek::End;
                    }
                    continue;
                }
                deferred = None;
                match self.seek_validate(c, needle, within, start, sim, levels) {
                    Some(outcome) => return outcome,
                    None => {
                        self.reposition_within_current(closing_quote, true);
                        cand = finder.find_from(input, c + 1);
                        continue;
                    }
                }
            }

            let keep = !low_bits(self.position_in_current());
            let (Some(braces), Some(brackets)) = (
                self.pair_in_current(BracketType::Brace),
                self.pair_in_current(BracketType::Bracket),
            ) else {
                return LabelSeek::End;
            };
            let (opens, closes) = (braces.0 | brackets.0, braces.1 | brackets.1);

            match cand {
                Some(c) if c < block_end => {
                    debug_assert!(c >= self.position(), "candidate behind the scan");
                    // Scan depth only up to the candidate.
                    let cand_bit = (c - start) as u32;
                    let below = low_bits(cand_bit) & keep;
                    if let Some(rel) = scan_block(opens & below, closes & below, &mut sim) {
                        // Boundary crossing before the candidate.
                        self.reposition_within_current(start + rel as usize, false);
                        return LabelSeek::Boundary;
                    }
                    self.reposition_within_current(c, true);
                    let closing_quote = c + needle.len() - 1;
                    if closing_quote >= block_end {
                        // Needle straddles the block boundary: defer the
                        // validation until its block is classified.
                        deferred = Some(c);
                        if !self.consume_rest_of_block() {
                            return LabelSeek::End;
                        }
                        continue;
                    }
                    match self.seek_validate(c, needle, within, start, sim, levels) {
                        Some(outcome) => return outcome,
                        None => {
                            cand = finder.find_from(input, c + 1);
                            continue;
                        }
                    }
                }
                _ => {
                    // No candidate in this block: full-depth scan.
                    if let Some(rel) = scan_block(opens & keep, closes & keep, &mut sim) {
                        self.reposition_within_current(start + rel as usize, false);
                        return LabelSeek::Boundary;
                    }
                    if !self.seek_advance_block() {
                        return LabelSeek::End;
                    }
                }
            }
        }
    }

    /// Validates the candidate at `c` whose closing quote lies in the
    /// current block (`start`/`within`). Returns the outcome for a valid
    /// composite-valued member, or `None` to continue seeking.
    #[inline(always)]
    fn seek_validate(
        &mut self,
        c: usize,
        needle: &[u8],
        within: u64,
        start: usize,
        sim: usize,
        levels: u32,
    ) -> Option<LabelSeek> {
        let input = self.input();
        // A genuine label's closing quote lies outside a string; a
        // lookalike with escaped quotes reads as inside.
        let closing_quote = c + needle.len() - 1;
        debug_assert!((start..start + BLOCK_SIZE).contains(&closing_quote));
        if within >> (closing_quote - start) & 1 == 1 {
            return None;
        }
        let colon = first_nonws(input, c + needle.len())?;
        if input[colon] != b':' {
            return None;
        }
        let v = first_nonws(input, colon + 1)?;
        if !matches!(input[v], b'{' | b'[') {
            // Atomic value: cannot match in an internal state.
            return None;
        }
        // Position the iterator so the value's opening is the next event.
        // The gap [c, v) holds only the label string, whitespace, and the
        // colon — no structural characters survive the masks there.
        if !self.advance_to(v) {
            return None;
        }
        Some(LabelSeek::Candidate {
            depth_delta: sim as i32 - (levels as i32 + 1),
        })
    }
}

fn first_nonws(input: &[u8], pos: usize) -> Option<usize> {
    input[pos.min(input.len())..]
        .iter()
        .position(|&b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        .map(|off| pos + off)
}
