//! Seeking a label (§3.3's *skipping to a label*, and §4.5's proposed
//! extension of it to seeking *within an element*): one forward seek,
//! [`StructuralIterator::seek`], in the shape of On-Demand JSON's field
//! access — find this key in the current scope, else stop at the scope's
//! end. The document is one forward-only cursor, and the seek is one more
//! way of moving it.
//!
//! SIMD substring search locates candidate occurrences of `"label"` and
//! each candidate is validated by [`member_after`] (the quote masks are
//! already computed, so the in-string check is free), then reported or
//! declined. A [`SeekScope`] names one of the engine's three callers.
//!
//! Two seek within the current element — the routed walker's label steps
//! ([`SeekScope::member`]) and the main loop's waiting states
//! ([`SeekScope::subtree`]) — while the depth classifier's block scan
//! watches for the closing character that ends the scope. They differ in
//! four things:
//!
//! * which bracket pairs the depth scan counts — braces alone inside an
//!   object (every labelled member sits directly inside some object, so a
//!   nested candidate is separated from it by at least one brace, and the
//!   object's own closing brace is the first position where the brace
//!   depth drops to zero), or both pairs when the depth itself matters;
//! * how many `levels` above the starting one the boundary lies;
//! * whether candidates that are not *direct* members of the starting
//!   container are declined unvalidated;
//! * whether members with an atomic value are reported.
//!
//! The head start ([`SeekScope::document`]) seeks the rest of the
//! document, which has no boundary: it leapfrogs from candidate to
//! candidate, reports every member, and the blocks in between are
//! quote-classified and nothing more. Unchecked — the paper's variant —
//! it trusts every candidate's quotes, classifies nothing between hits,
//! and restarts the cursor at each hit with a fresh quote state.
//!
//! The search is memoized in the [`LabelSeeker`], and that is not
//! optional. Seeks run once per container, and a container that does
//! *not* hold the label would pay a substring search all the way to the
//! next occurrence elsewhere in the document — megabytes away, or clean
//! through EOF for a rare label — only for the result to be discarded at
//! the container boundary and re-derived by the next seek, turning a
//! linear walk quadratic. Since the iterator only moves forward, the first
//! occurrence at or after an already-searched position stays valid; the
//! seeker remembers it (or the proven absence of one).

use crate::iterator::{BlockScan, BracketType, Pairs, StructuralIterator};
use rsq_memmem::Finder;
use rsq_simd::{Backend, Simd, BLOCK_SIZE};

/// What a `memmem` candidate for a quoted label turns out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Member {
    /// A member whose value is the container opening at this position.
    Composite(usize),
    /// A member whose atomic value starts at this position.
    Atomic(usize),
    /// A lookalike inside a string, a string *value* (no colon follows),
    /// or a malformed construct (`}`/`]`/`,`/`:`, or nothing, after the
    /// colon).
    NotAMember,
}

/// Where the next occurrence of a needle is, as far as the bytes held
/// tell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Candidate {
    /// It starts here.
    At(usize),
    /// None starts before this offset, and the stream holds no further
    /// byte to search: refill, then search on from here.
    Beyond(usize),
    /// None through the end of the input.
    Absent,
}

/// One sought label over **one input**: the `memmem` finder for its
/// quoted bytes and the memoized search frontier (see the module
/// documentation). A label is fixed when the query is compiled, and so
/// is its finder's prefilter; the memo is what makes a seeker per-run.
#[derive(Clone, Debug)]
pub struct LabelSeeker<'n, B: Backend = Simd> {
    finder: Finder<'n, B>,
    /// `(covered_from, covered_to, next)`: the first occurrence at or
    /// after `covered_from` is `next`, or with `None` there is none that
    /// starts before `covered_to` (`usize::MAX`: through EOF). `None`
    /// until the first search.
    memo: Option<(usize, usize, Option<usize>)>,
}

impl<'n, B: Backend> LabelSeeker<'n, B> {
    /// A seeker driving `finder`, whose needle is the label *including*
    /// its quotes.
    #[inline]
    #[must_use]
    pub fn new(finder: Finder<'n, B>) -> Self {
        let needle = finder.needle();
        debug_assert!(
            needle.len() >= 2 && needle[0] == b'"' && needle[needle.len() - 1] == b'"',
            "needle must be a quoted label"
        );
        LabelSeeker { finder, memo: None }
    }

    /// The first occurrence of the needle in `input` at or after `pos`,
    /// searching only when the memo does not already cover `pos`.
    #[inline]
    pub fn candidate_from(&mut self, input: &[u8], pos: usize) -> Option<usize> {
        match self.candidate_in(input, 0, true, pos) {
            Candidate::At(c) => Some(c),
            Candidate::Beyond(_) | Candidate::Absent => None,
        }
    }

    /// [`candidate_from`](Self::candidate_from) over the bytes held from
    /// global offset `base`, which are the rest of the input when `eof`.
    /// The memo never claims more than they cover: up to where a needle
    /// could still straddle their end.
    #[inline(always)]
    pub(crate) fn candidate_in(
        &mut self,
        window: &[u8],
        base: usize,
        eof: bool,
        pos: usize,
    ) -> Candidate {
        let mut from = pos;
        if let Some((covered_from, covered_to, next)) = self.memo {
            if pos >= covered_from {
                match next {
                    Some(c) if c >= pos => return Candidate::At(c),
                    Some(_) => {}
                    None if covered_to == usize::MAX => return Candidate::Absent,
                    None => from = pos.max(covered_to),
                }
            }
        }
        debug_assert!(
            from >= base,
            "search from {from}, before the window at {base}"
        );
        let found = self
            .finder
            .find_from(window, from.saturating_sub(base))
            .map(|i| base + i);
        let covered_to = if eof {
            usize::MAX
        } else {
            (base + window.len() + 1)
                .saturating_sub(self.finder.needle().len())
                .max(from)
        };
        self.memo = Some((pos, covered_to, found));
        match found {
            Some(c) => Candidate::At(c),
            None if eof => Candidate::Absent,
            None => Candidate::Beyond(covered_to),
        }
    }
}

/// Where a [seek](StructuralIterator::seek) looks and what it reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeekScope(Scope);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    Element(ElementScope),
    Document { checked: bool },
}

/// A scope inside the current element; the module documentation explains
/// the four fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ElementScope {
    pairs: Pairs,
    levels: u32,
    direct_only: bool,
    atomic: bool,
}

impl SeekScope {
    /// The *direct* members of the current container, which must be an
    /// **object**, up to its closing brace. `atomic` reports a member
    /// with an atomic value too (finding the member is itself the match).
    #[must_use]
    pub fn member(atomic: bool) -> Self {
        SeekScope(Scope::Element(ElementScope {
            pairs: Pairs::One(BracketType::Brace),
            levels: 0,
            direct_only: true,
            atomic,
        }))
    }

    /// Every composite-valued member in the rest of the current element
    /// and its subtree, up to the closing character that would drop the
    /// depth more than `levels` levels below the current one.
    #[must_use]
    pub fn subtree(levels: u32) -> Self {
        SeekScope(Scope::Element(ElementScope {
            pairs: Pairs::Both,
            levels,
            direct_only: false,
            atomic: false,
        }))
    }

    /// Every member, composite or atomic, in the rest of the document: the
    /// head start's leapfrog (§3.3 *skipping to a label*). The blocks
    /// crossed are quote-classified only
    /// ([`ClassifierCounters::blocks_quote`](crate::ClassifierCounters)).
    /// Unchecked — the paper's variant, unsound on label lookalikes inside
    /// strings — nothing is classified between hits, and each hit restarts
    /// classification at its value with a fresh quote state.
    #[must_use]
    pub fn document(checked: bool) -> Self {
        SeekScope(Scope::Document { checked })
    }
}

/// Outcome of [`StructuralIterator::seek`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seek {
    /// A member with the sought label and a composite value: the iterator
    /// will yield the value's opening character next. `depth_delta` is
    /// the net depth change (in the scope's bracket pairs) the seek
    /// absorbed — the member's parent object sits that many levels away
    /// from where the seek started (always 0 under a document scope,
    /// which counts no pairs).
    Composite {
        /// Net depth change relative to where the seek started.
        depth_delta: i32,
    },
    /// A member with an atomic value starting at `pos`, where the
    /// iterator now stands (only under an `atomic` scope).
    Atomic {
        /// Position of the atomic value's first byte.
        pos: usize,
    },
    /// The scope ended first: the closing character crossing its boundary
    /// is left pending and will be yielded next. The absorbed depth
    /// change is exactly `-levels`. Never under a document scope.
    Boundary,
    /// The input ended: a malformed document, or no further candidate
    /// under a document scope, whose seek then moves the iterator to the
    /// end of the input without classifying what it crosses.
    End,
}

impl<'a, B: Backend> StructuralIterator<'a, B> {
    /// Fast-forwards to the next member named by `seeker` that `scope`
    /// reports, or to the closing character that ends `scope` — whichever
    /// comes first. Also returns how many candidates it declined on the
    /// way.
    ///
    /// Callers must ensure the automaton state cannot change on any event
    /// the seek absorbs. In the engine that is a *unitary* state under
    /// [`SeekScope::member`] (only the one member can leave the state),
    /// a *waiting, internal* state under [`SeekScope::subtree`] (the
    /// fallback loops and no transition accepts in one step), with the
    /// boundary at the topmost depth-stack frame, and the *waiting*
    /// initial state outside any element under [`SeekScope::document`].
    #[inline(always)]
    pub fn seek(&mut self, scope: SeekScope, seeker: &mut LabelSeeker<'_, B>) -> (Seek, u64) {
        let mut declined = 0;
        let outcome = match scope.0 {
            // One function per backend, whatever the number of call sites.
            Scope::Element(scope) => self.backend().enter(
                #[inline(always)]
                || self.seek_in_place(scope, seeker, &mut declined),
            ),
            // One call site, once per hit: inline, so a hit costs no call.
            Scope::Document { checked } => self.seek_document(checked, seeker, &mut declined),
        };
        (outcome, declined)
    }

    #[inline(always)]
    fn seek_in_place(
        &mut self,
        scope: ElementScope,
        seeker: &mut LabelSeeker<'_, B>,
        declined: &mut u64,
    ) -> Seek {
        self.clear_peeked();
        let needle_len = seeker.finder.needle().len();

        // `sim` is the simulated depth with the boundary at zero: the
        // closing character that would take it there is left pending. A
        // candidate is a direct member exactly when `sim == home` there.
        let home = scope.levels as usize + 1;
        let mut sim = home;
        // The offset the current candidate was asked for from.
        let mut asked = self.position();
        let mut cand = self.candidate(seeker, asked);
        // The depth scan has reached `cand`, but its closing quote lies in
        // a block not yet quote-classified.
        let mut deferred = false;

        loop {
            let Some((start, within)) = self.seek_current_block() else {
                return Seek::End;
            };
            let block_end = start + BLOCK_SIZE;
            let c = match cand {
                Candidate::At(c) if c < block_end => c,
                Candidate::Beyond(resume) if resume < block_end => {
                    // The search ran out of buffered bytes: refill past
                    // them, keeping this block, and search on.
                    self.refill_window();
                    cand = self.candidate(seeker, asked);
                    continue;
                }
                _ => {
                    // No candidate in this block: scan the rest of it,
                    // then whole blocks across the gap to the candidate
                    // (or to where the search stopped, or the boundary,
                    // or EOF).
                    let until = match cand {
                        Candidate::At(c) | Candidate::Beyond(c) => c,
                        Candidate::Absent => usize::MAX,
                    };
                    match self.scan_blocks(scope.pairs, until, &mut sim, |c| &mut c.blocks_seek) {
                        BlockScan::Closed(pos) => {
                            self.reposition_within_current(pos, false);
                            return Seek::Boundary;
                        }
                        BlockScan::Reached => continue,
                        BlockScan::End => return Seek::End,
                    }
                }
            };

            if !deferred {
                debug_assert!(c >= self.position(), "candidate behind the scan");
                // Scan depth only up to the candidate.
                if let Some(pos) = self.scan_current(scope.pairs, (c - start) as u32, &mut sim) {
                    self.reposition_within_current(pos, false);
                    return Seek::Boundary;
                }
                self.reposition_within_current(c, true);
                if scope.direct_only && sim != home {
                    // Nested occurrence: declined without validating.
                    *declined += 1;
                    asked = c + 1;
                    cand = self.candidate(seeker, asked);
                    continue;
                }
            }
            let closing_quote = c + needle_len - 1;
            if closing_quote >= block_end {
                // The needle straddles the block edge: validate once its
                // last block is classified. The bytes up to the closing
                // quote are the needle text itself (no structural
                // characters), so no depth scanning is owed for them and
                // `sim` is still the candidate's depth.
                deferred = true;
                if !self.consume_rest_of_block() {
                    return Seek::End;
                }
                continue;
            }
            let in_string = within >> (closing_quote - start) & 1 == 1;
            // On a hit the iterator moves to the value `v`: the gap [c, v)
            // holds only the label string, whitespace and the colon — no
            // structural characters survive the masks there — and an
            // atomic value holds them only inside strings.
            match self.member_after(closing_quote + 1, in_string) {
                Member::Composite(v) if self.advance_to(v) => {
                    return Seek::Composite {
                        depth_delta: sim as i32 - home as i32,
                    };
                }
                Member::Atomic(v) if scope.atomic && self.advance_to(v) => {
                    return Seek::Atomic { pos: v };
                }
                _ => {
                    *declined += 1;
                    if deferred {
                        deferred = false;
                        self.reposition_within_current(closing_quote, true);
                    }
                    asked = c + 1;
                    cand = self.candidate(seeker, asked);
                }
            }
        }
    }

    /// The head start's seek: candidate to candidate, with no boundary and
    /// no depth to watch. Checked, a candidate is looked up in the quote
    /// mask of its closing quote's block — the blocks before that one owe
    /// only their quote state and are loaded by nobody — and the iterator
    /// stops at a hit's value: pending there for a composite one, which
    /// the main loop takes over, parked for an atomic one. Unchecked, a
    /// hit restarts the cursor at its value.
    ///
    /// On a stream, a search that runs out of buffered bytes moves the
    /// cursor to where it stopped — checked, by quote-classifying the
    /// blocks up to there, which a later candidate's lookup would cross
    /// anyway — so that the refill can drop them. Those blocks count only
    /// once a candidate's lookup does cross them, as they would on a
    /// slice.
    #[inline(always)]
    fn seek_document(
        &mut self,
        checked: bool,
        seeker: &mut LabelSeeker<'_, B>,
        declined: &mut u64,
    ) -> Seek {
        self.clear_peeked();
        let needle_len = seeker.finder.needle().len();
        let mut from = self.position();
        // The quote-block count before the first such stop since the last
        // candidate lookup.
        let mut uncounted = None;
        loop {
            let c = match self.candidate(seeker, from) {
                Candidate::At(c) => c,
                Candidate::Absent => break,
                Candidate::Beyond(resume) => {
                    if checked {
                        uncounted.get_or_insert(self.counters().blocks_quote);
                        if self.quote_block_at(resume).is_none() {
                            break;
                        }
                    } else {
                        self.restart_at(resume);
                    }
                    self.refill_window();
                    continue;
                }
            };
            let closing_quote = c + needle_len - 1;
            let in_string = if checked {
                let Some((start, within)) = self.quote_block_at(closing_quote) else {
                    break;
                };
                uncounted = None;
                within >> (closing_quote - start) & 1 == 1
            } else {
                false
            };
            let (v, hit) = match self.member_after(closing_quote + 1, in_string) {
                Member::Composite(v) => (v, Seek::Composite { depth_delta: 0 }),
                Member::Atomic(v) => (v, Seek::Atomic { pos: v }),
                Member::NotAMember => {
                    *declined += 1;
                    from = c + 1;
                    continue;
                }
            };
            if !checked {
                self.restart_at(v);
            } else if self.quote_block_at(v).is_none() {
                break;
            } else if matches!(hit, Seek::Atomic { .. }) {
                self.park_within_current(v);
            } else {
                self.reposition_within_current(v, false);
            }
            return hit;
        }
        if let Some(blocks) = uncounted {
            self.uncount_quote_blocks(blocks);
        }
        // Nothing left to find: the rest of the input stays unclassified.
        self.restart_at(self.end());
        Seek::End
    }

    /// The next occurrence of `seeker`'s needle at or after `pos` in the
    /// bytes held.
    #[inline(always)]
    fn candidate(&mut self, seeker: &mut LabelSeeker<'_, B>, pos: usize) -> Candidate {
        let (window, base, eof) = self.held_bytes();
        seeker.candidate_in(window, base, eof, pos)
    }

    /// Validates the candidate whose closing quote sits just before
    /// `label_end`. `in_string` is what the quote classifier says of that
    /// closing quote: a label's lies *outside* the string (the prefix-XOR
    /// convention marks opening quotes inside and closing quotes
    /// outside), so one that reads as inside belongs to a candidate whose
    /// quotes do not pair up as a label's do — its first quote closed an
    /// earlier string.
    #[inline(always)]
    pub fn member_after(&mut self, label_end: usize, in_string: bool) -> Member {
        if in_string {
            return Member::NotAMember;
        }
        let Some(colon) = self
            .first_nonws(label_end)
            .filter(|&i| self.byte(i) == b':')
        else {
            return Member::NotAMember;
        };
        match self.first_nonws(colon + 1).map(|v| (v, self.byte(v))) {
            Some((v, b'{' | b'[')) => Member::Composite(v),
            Some((v, b)) if !matches!(b, b'}' | b']' | b',' | b':') => Member::Atomic(v),
            _ => Member::NotAMember,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_nonws_skips_whitespace() {
        let first = |doc: &[u8], pos| StructuralIterator::new(doc, Simd::detect()).first_nonws(pos);
        assert_eq!(first(b"  \t\nx", 0), Some(4));
        assert_eq!(first(b"x", 0), Some(0));
        assert_eq!(first(b"   ", 0), None);
        assert_eq!(first(b"ab", 5), None);
    }

    #[test]
    fn member_after_tells_the_value_kinds_apart() {
        let doc = br#""k" : {"k":[ "k": 7,"k" ,"k":}"k": "#;
        let member = |end, in_string| {
            StructuralIterator::new(doc, Simd::detect()).member_after(end, in_string)
        };
        assert_eq!(member(3, false), Member::Composite(6));
        assert_eq!(member(3, true), Member::NotAMember);
        assert_eq!(member(10, false), Member::Composite(11));
        assert_eq!(member(16, false), Member::Atomic(18));
        assert_eq!(member(23, false), Member::NotAMember); // a value
        assert_eq!(member(28, false), Member::NotAMember); // `:}`
        assert_eq!(member(33, false), Member::NotAMember); // EOF
        assert_eq!(member(doc.len(), false), Member::NotAMember);
    }
}
