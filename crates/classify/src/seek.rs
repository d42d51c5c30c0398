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

/// Index of the first non-whitespace byte at or after `pos`.
#[inline]
#[must_use]
pub fn first_nonws(input: &[u8], pos: usize) -> Option<usize> {
    input[pos.min(input.len())..]
        .iter()
        .position(|&b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        .map(|off| pos + off)
}

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

/// Validates the candidate whose closing quote sits just before
/// `label_end`. `in_string` is what the quote classifier says of that
/// closing quote: a label's lies *outside* the string (the prefix-XOR
/// convention marks opening quotes inside and closing quotes outside), so
/// one that reads as inside belongs to a candidate whose quotes do not
/// pair up as a label's do — its first quote closed an earlier string.
#[inline(always)]
#[must_use]
pub fn member_after(input: &[u8], label_end: usize, in_string: bool) -> Member {
    if in_string {
        return Member::NotAMember;
    }
    let Some(colon) = first_nonws(input, label_end).filter(|&i| input[i] == b':') else {
        return Member::NotAMember;
    };
    match first_nonws(input, colon + 1) {
        Some(v) if matches!(input[v], b'{' | b'[') => Member::Composite(v),
        Some(v) if !matches!(input[v], b'}' | b']' | b',' | b':') => Member::Atomic(v),
        _ => Member::NotAMember,
    }
}

/// One sought label over **one input**: the `memmem` finder for its
/// quoted bytes and the memoized search frontier (see the module
/// documentation). A label is fixed when the query is compiled, and so
/// is its finder's prefilter; the memo is what makes a seeker per-run.
#[derive(Clone, Debug)]
pub struct LabelSeeker<'n, B: Backend = Simd> {
    finder: Finder<'n, B>,
    /// `(covered_from, next)`: the first occurrence at or after
    /// `covered_from` is `next` (`None` = no occurrence through EOF).
    /// `None` until the first search.
    memo: Option<(usize, Option<usize>)>,
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

    /// The first occurrence of the needle at or after `pos`, searching
    /// only when the memo does not already cover `pos`.
    #[inline(always)]
    pub fn candidate_from(&mut self, input: &[u8], pos: usize) -> Option<usize> {
        if let Some((covered_from, next)) = self.memo {
            if pos >= covered_from {
                match next {
                    None => return None,
                    Some(c) if c >= pos => return Some(c),
                    Some(_) => {}
                }
            }
        }
        let found = self.finder.find_from(input, pos);
        self.memo = Some((pos, found));
        found
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
        let input = self.input();
        let needle_len = seeker.finder.needle().len();

        // `sim` is the simulated depth with the boundary at zero: the
        // closing character that would take it there is left pending. A
        // candidate is a direct member exactly when `sim == home` there.
        let home = scope.levels as usize + 1;
        let mut sim = home;
        let mut cand = seeker.candidate_from(input, self.position());
        // The depth scan has reached `cand`, but its closing quote lies in
        // a block not yet quote-classified.
        let mut deferred = false;

        loop {
            let Some((start, within)) = self.seek_current_block() else {
                return Seek::End;
            };
            let block_end = start + BLOCK_SIZE;
            let c = match cand {
                Some(c) if c < block_end => c,
                _ => {
                    // No candidate in this block: scan the rest of it,
                    // then whole blocks across the gap to the candidate
                    // (or the boundary, or EOF).
                    let until = cand.unwrap_or(usize::MAX);
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
                    cand = seeker.candidate_from(input, c + 1);
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
            match member_after(input, closing_quote + 1, in_string) {
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
                    cand = seeker.candidate_from(input, c + 1);
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
    #[inline(always)]
    fn seek_document(
        &mut self,
        checked: bool,
        seeker: &mut LabelSeeker<'_, B>,
        declined: &mut u64,
    ) -> Seek {
        self.clear_peeked();
        let input = self.input();
        let needle_len = seeker.finder.needle().len();
        let mut from = self.position();
        while let Some(c) = seeker.candidate_from(input, from) {
            let closing_quote = c + needle_len - 1;
            let in_string = if checked {
                let Some((start, within)) = self.quote_block_at(closing_quote) else {
                    break;
                };
                within >> (closing_quote - start) & 1 == 1
            } else {
                false
            };
            let (v, hit) = match member_after(input, closing_quote + 1, in_string) {
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
        // Nothing left to find: the rest of the input stays unclassified.
        self.restart_at(input.len());
        Seek::End
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_nonws_skips_whitespace() {
        assert_eq!(first_nonws(b"  \t\nx", 0), Some(4));
        assert_eq!(first_nonws(b"x", 0), Some(0));
        assert_eq!(first_nonws(b"   ", 0), None);
        assert_eq!(first_nonws(b"ab", 5), None);
    }

    #[test]
    fn member_after_tells_the_value_kinds_apart() {
        let doc = br#""k" : {"k":[ "k": 7,"k" ,"k":}"k": "#;
        assert_eq!(member_after(doc, 3, false), Member::Composite(6));
        assert_eq!(member_after(doc, 3, true), Member::NotAMember);
        assert_eq!(member_after(doc, 10, false), Member::Composite(11));
        assert_eq!(member_after(doc, 16, false), Member::Atomic(18));
        assert_eq!(member_after(doc, 23, false), Member::NotAMember); // a value
        assert_eq!(member_after(doc, 28, false), Member::NotAMember); // `:}`
        assert_eq!(member_after(doc, 33, false), Member::NotAMember); // EOF
        assert_eq!(member_after(doc, doc.len(), false), Member::NotAMember);
    }
}
