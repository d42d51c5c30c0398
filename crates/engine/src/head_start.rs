//! Skipping to a label (§3.3, §3.4): when the query starts with a
//! descendant selector `$..ℓ`, the engine leapfrogs between occurrences of
//! `"ℓ"` located by SIMD substring search, running the main algorithm only
//! on the subdocuments associated with them.
//!
//! Each candidate found by `memmem` is validated before use, by the
//! function the within-element seeks use ([`member_after`]): a colon must
//! follow it — otherwise the occurrence is a string value, not a member
//! label — and it must lie outside any string. There being no classified
//! block under a document-level candidate, that is asked of the
//! [`QuoteScanner`] (cheap: quote classification only). The check makes
//! skip-to-label sound even on documents whose string *values* contain
//! text like `"label":`; it can be turned off (`checked_head_start =
//! false`) to mimic the paper's rawer variant.
//!
//! After processing a composite subdocument the search resumes *after* it,
//! so nested occurrences of `ℓ` (already handled by the automaton during
//! the sub-run) are never double-counted, and the scanner is fast-forwarded
//! to the sub-run's classification frontier so no byte is quote-classified
//! twice.

use crate::error::Interrupt;
use crate::main_loop::{run_element, Seekers};
use crate::sink::Sink;
use crate::EngineOptions;
use rsq_classify::{
    member_after, BracketType, Member, QuoteScanner, ResumeState, StructuralIterator,
};
use rsq_memmem::Finder;
use rsq_obs::{ProfileStage, Recorder, SkipTechnique};
use rsq_query::{Automaton, StateId};
use rsq_simd::Backend;

/// Runs a query whose initial state is *waiting* (single label transition,
/// looping fallback) using memmem-based skip-to-label. The caller resolves
/// the waiting state's sole transition and passes it as `(finder, target)`
/// — the searcher for the label between its quotes — so an automaton
/// violating the waiting-state invariant is handled at the dispatch site
/// (by falling back to the main loop) instead of panicking here.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // internal: a context struct would obscure the hot path
pub(crate) fn run_head_start<B: Backend>(
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    backend: B,
    input: &[u8],
    finder: &Finder<'_, B>,
    target: StateId,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let mut scanner = QuoteScanner::new(input, backend);

    // Quote-classification work must be folded into the recorder on every
    // exit path, early unwinds (sink stop, tripped limit) included.
    let result = scan_candidates(
        automaton,
        options,
        seekers,
        backend,
        input,
        finder,
        target,
        &mut scanner,
        sink,
        rec,
    );
    rec.quote_blocks(scanner.blocks_classified());
    result
}

/// The candidate loop proper, split out so the caller can fold the quote
/// scanner's block counter regardless of how this returns.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scan_candidates<B: Backend>(
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    backend: B,
    input: &[u8],
    finder: &Finder<'_, B>,
    target: StateId,
    scanner: &mut QuoteScanner<'_, B>,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let mut at = 0usize;
    // End of the last structurally-classified region (Tier C byte-span
    // accounting): everything between `frontier` and the next sub-run's
    // value start is elided by the memmem head start — the automaton
    // never sees those bytes, only the quote scanner (in checked mode)
    // and the substring search touch them.
    let mut frontier = 0usize;
    loop {
        let t = rec.clock();
        let found = finder.find_from(input, at);
        rec.stage_ns(ProfileStage::Classify, t);
        let Some(p) = found else { break };
        let after = p + finder.needle().len();
        let in_string = options.checked_head_start && scanner.in_string_at(after - 1);
        match member_after(input, after, in_string) {
            Member::NotAMember => {
                rec.memmem_declines(1);
                at = p + 1;
            }
            Member::Composite(v) => {
                let bracket = if input[v] == b'{' {
                    BracketType::Brace
                } else {
                    BracketType::Bracket
                };
                rec.memmem_jump();
                rec.skip_span(SkipTechnique::Memmem, frontier, v);
                frontier = v;
                let resume = if options.checked_head_start {
                    scanner.resume_state()
                } else {
                    // Paper-faithful unchecked variant: assume the value
                    // start lies outside any string and classify from it
                    // with a fresh quote state (blocks counted from `v`).
                    ResumeState {
                        block_start: v,
                        quote_state: Default::default(),
                    }
                };
                let mut it = StructuralIterator::resume(input, backend, resume, v);
                rec.resume_handoff();
                let Some(first) = it.next() else {
                    rec.classifier(&it.counters());
                    break;
                };
                rec.event(v);
                debug_assert_eq!(first.position(), v);
                if automaton.is_accepting(target) {
                    sink.record(v)?;
                    rec.matched();
                }
                // Fold the sub-run's classifier counters before
                // propagating an interrupt: an early sink stop maps to a
                // clean `Ok` upstream and must keep its stats.
                let sub = run_element(
                    &mut it, automaton, options, seekers, target, bracket, v, sink, &mut *rec,
                );
                rec.classifier(&it.counters());
                sub?;
                if options.checked_head_start {
                    // The sub-run advanced the quote classification on the
                    // scanner's grid; skip re-scanning that region.
                    scanner.catch_up(it.resume_state());
                }
                frontier = it.position();
                at = it.position().max(p + 1);
            }
            Member::Atomic(v) => {
                rec.memmem_jump();
                if automaton.is_accepting(target) {
                    sink.record(v)?;
                    rec.matched();
                }
                at = after;
            }
        }
    }
    // Tail: from the last classification frontier to end-of-input, no
    // structural classification happened.
    rec.skip_span(SkipTechnique::Memmem, frontier, input.len());
    Ok(())
}
