//! The main algorithm (§3.4): depth-stack DFA simulation over the
//! structural iterator, with leaf, child, and sibling skipping.

use crate::depth_stack::DepthStack;
use crate::error::{Interrupt, LimitKind};
use crate::sink::Sink;
use crate::util::value_start_after;
use crate::{Engine, EngineOptions, RUN_TABLES_INLINE};
use rsq_classify::{
    first_nonws, BracketType, LabelSeeker, Seek, SeekScope, Structural, StructuralIterator,
};
use rsq_obs::{ProfileStage, Recorder, SkipTechnique};
use rsq_query::{Automaton, PathSymbol, StateId};
use rsq_simd::Backend;
use rsq_stackvec::StackVec;

/// The label seekers of one run, by state: one for every state whose
/// only way forward is a single label — *unitary* states, which the routed
/// walker seeks a direct member in, and *waiting, internal* ones, which
/// [`run_element`] seeks a subtree in. Such a state's label is fixed when
/// the query is compiled, and so is its finder's prefilter
/// ([`Engine::finder`]); what a run adds is each seeker's `memmem`
/// frontier, kept across the run's seeks.
pub(crate) type Seekers<'q, B> = [Option<LabelSeeker<'q, B>>];

/// Builds a run's [`Seekers`] — on the stack: only a query of more than
/// [`RUN_TABLES_INLINE`] states allocates. The run takes the slice once,
/// so that no seek asks where the table lives. Empty when `label_seek` is
/// off.
#[inline(always)]
pub(crate) fn seekers<B: Backend>(
    engine: &Engine,
    backend: B,
) -> StackVec<Option<LabelSeeker<'_, B>>, RUN_TABLES_INLINE> {
    let automaton = &engine.automaton;
    let mut seekers = StackVec::new();
    if engine.options.label_seek {
        for state in automaton.states() {
            let seeks = automaton.is_unitary(state)
                || automaton.is_waiting(state) && automaton.is_internal(state);
            // Both kinds of state have exactly one label transition by
            // construction; if the automaton violates that invariant
            // the state simply gets no seeker.
            let finder = engine.finder(state, backend).filter(|_| seeks);
            seekers.push(finder.map(|(finder, _)| LabelSeeker::new(finder)));
        }
    }
    seekers
}

/// The seeker of `state`, if it has one.
#[inline(always)]
pub(crate) fn seeker<'s, 'q, B: Backend>(
    seekers: &'s mut Seekers<'q, B>,
    state: StateId,
) -> Option<&'s mut LabelSeeker<'q, B>> {
    seekers.get_mut(state.index()).and_then(Option::as_mut)
}

/// A 1-bit-per-level record of container types along the current path.
///
/// The paper's pseudocode approximates the container type after a pop
/// (`toggle(state, '{')`); we instead track it exactly, at one bit per
/// depth level — negligible memory, and required for idiomatic wildcard
/// semantics in arrays nested under objects (and vice versa).
#[derive(Debug, Default)]
struct TypeStack {
    words: StackVec<u64, 8>,
}

impl TypeStack {
    fn set(&mut self, depth: u32, bracket: BracketType) {
        let word = (depth / 64) as usize;
        let bit = depth % 64;
        while self.words.len() <= word {
            self.words.push(0);
        }
        let w = &mut self.words.as_mut_slice()[word];
        match bracket {
            BracketType::Bracket => *w |= 1 << bit,
            BracketType::Brace => *w &= !(1 << bit),
        }
    }

    fn get(&self, depth: u32) -> BracketType {
        let word = (depth / 64) as usize;
        let bit = depth % 64;
        if self.words.as_slice().get(word).copied().unwrap_or(0) >> bit & 1 == 1 {
            BracketType::Bracket
        } else {
            BracketType::Brace
        }
    }
}

/// Per-depth array entry counters, used when the automaton distinguishes
/// specific array indices (`[n]` selectors — the paper's §6 future work).
/// Counters are only maintained exactly at levels whose state forces comma
/// classification (`Automaton::needs_indices`); elsewhere they may be
/// stale, which is harmless because all entries then share the index
/// fallback transition.
#[derive(Debug, Default)]
struct IndexStack {
    counters: StackVec<u32, 32>,
}

impl IndexStack {
    #[inline]
    fn reset(&mut self, depth: u32) {
        let d = depth as usize;
        while self.counters.len() <= d {
            self.counters.push(0);
        }
        self.counters.as_mut_slice()[d] = 0;
    }

    #[inline]
    fn increment(&mut self, depth: u32) {
        if let Some(c) = self.counters.as_mut_slice().get_mut(depth as usize) {
            *c += 1;
        }
    }

    #[inline]
    fn get(&self, depth: u32) -> u64 {
        u64::from(
            self.counters
                .as_slice()
                .get(depth as usize)
                .copied()
                .unwrap_or(0),
        )
    }
}

/// How comma events at the current level report array-entry matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CommaMode {
    /// Entries cannot match in one step: nothing to report.
    Off,
    /// Every entry matches (the index fallback is accepting).
    All,
    /// Specific indices match: consult the automaton per entry.
    Indexed,
}

/// Applies the state-driven toggle policy (§3.4): commas in arrays whose
/// entries can match (or must be counted for `[n]` selectors), colons in
/// objects whose members can match. Returns the comma reporting mode,
/// cached so the hot comma path needs no automaton lookups, and whether
/// leaf skipping is active in the current container (used by Tier C
/// byte-span accounting: while active, inter-event gaps are bytes the
/// technique crossed without event delivery).
#[inline(always)]
fn apply_toggles<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    options: &EngineOptions,
    state: StateId,
    container: BracketType,
    rec: &mut impl Recorder,
) -> (CommaMode, bool) {
    let mode = if container != BracketType::Bracket {
        CommaMode::Off
    } else if automaton.needs_indices(state) {
        CommaMode::Indexed
    } else if automaton.is_fallback_accepting(state) {
        CommaMode::All
    } else {
        CommaMode::Off
    };
    // One `set_toggles` call for every case: it holds a block
    // reclassification, inlined where it is called.
    let (commas, colons) = if !options.skip_leaves {
        // Leaf skipping disabled: classify every comma and colon, always.
        (true, true)
    } else {
        match container {
            BracketType::Bracket => (mode != CommaMode::Off, false),
            BracketType::Brace => (false, automaton.is_object_accepting(state)),
        }
    };
    it.set_toggles(commas, colons);
    // Leaf skipping is active when the container's own separator is off:
    // its atomic entries (member values) are skipped over.
    let leaf_active = options.skip_leaves
        && match container {
            BracketType::Bracket => !commas,
            BracketType::Brace => !colons,
        };
    if leaf_active {
        rec.leaf_skip();
    }
    (mode, leaf_active)
}

/// The corner case of §3.4: the first entry of an array is not preceded by
/// a comma, so an atomic first entry must be matched when the array opens.
#[inline(always)]
fn try_match_first_item<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    state: StateId,
    open_pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if !automaton.is_accepting(automaton.transition(state, PathSymbol::Index(0))) {
        return Ok(());
    }
    // A structural byte after the `[` means the first entry is composite
    // (handled at its Opening) or the array is empty.
    if let Some(v) = value_start_after(it.input(), open_pos) {
        sink.record(v)?;
        rec.matched();
    }
    Ok(())
}

/// Enforces [`EngineOptions::max_label_bytes`] on a label the automaton is
/// about to examine. Only examined labels are guarded: labels the engine
/// skips over (fast-forwarded subtrees, toggled-off colons) cost nothing
/// and are not measured.
#[inline]
fn check_label(options: &EngineOptions, label: Option<&[u8]>) -> Result<(), Interrupt> {
    if let (Some(limit), Some(label)) = (options.max_label_bytes, label) {
        if label.len() > limit {
            return Err(Interrupt::Limit(LimitKind::LabelBytes));
        }
    }
    Ok(())
}

/// Runs the DFA over one element: the opening character at `root_pos` (of
/// type `root_bracket`) has already been consumed from `it`, and the
/// automaton is in `state0` — the state *after* the transition into this
/// element. Returns when the element's closing character has been
/// consumed (or at EOF on malformed input).
///
/// Used both for whole documents (element = root, `state0` = initial
/// state) and for the head start's sub-runs (element = the value of a
/// matched label, `state0` = the target of the label transition).
///
/// Unwinds with an [`Interrupt`] when the sink declines a match or a
/// resource limit trips. `max_depth` is enforced relative to the element's
/// root — exact for whole-document runs; for head-start sub-runs it
/// bounds nesting below the matched value (the document-scoped seek
/// counts no brackets, so the candidate's absolute depth is unknown).
///
/// The loop is one function per backend ([`Backend::enter`]), shared by
/// its three callers: the general route, the head start's sub-runs and
/// the routed walker's tail.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "internal: a context struct would obscure the hot path"
)]
pub(crate) fn run_element<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    state0: StateId,
    root_bracket: BracketType,
    root_pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    it.backend().enter(
        #[inline(always)]
        || {
            element_loop(
                it,
                automaton,
                options,
                seekers,
                state0,
                root_bracket,
                root_pos,
                sink,
                rec,
            )
        },
    )
}

#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "internal: a context struct would obscure the hot path"
)]
fn element_loop<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    state0: StateId,
    root_bracket: BracketType,
    root_pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let mut state = state0;
    let mut depth: u32 = 1;
    let mut stack = DepthStack::new();
    let mut types = TypeStack::default();
    let mut indices = IndexStack::default();
    types.set(1, root_bracket);
    if root_bracket == BracketType::Bracket {
        indices.reset(1);
    }
    rec.depth(depth);

    let (mut comma_mode, mut leaf_active) =
        apply_toggles(it, automaton, options, state, root_bracket, rec);
    if root_bracket == BracketType::Bracket {
        try_match_first_item(it, automaton, state, root_pos, sink, rec)?;
    }

    // §1.3 of the paper: "the cost of switching often exceeds the gain…
    // we do not switch whenever a state change occurs, but only when the
    // expected benefits justify it". The label-seek classifier is engaged
    // only after this many consecutive no-op openings in the same waiting
    // state — small regions stay on the ordinary event loop.
    const SEEK_AFTER_STALE_OPENINGS: u32 = 3;
    let mut waiting_streak: u32 = 0;

    loop {
        // Skipping to a label within the element (§4.5 extension): in a
        // waiting state that cannot accept in one step, every event the
        // seek absorbs is a no-op for the automaton, so fast-forward to
        // the next candidate label or to the depth-stack pop boundary.
        if waiting_streak >= SEEK_AFTER_STALE_OPENINGS && automaton.is_waiting(state) {
            if let Some(seeker) = seeker(seekers, state) {
                let boundary = stack.top_depth().map_or(1, |d| d + 1);
                let levels = depth.saturating_sub(boundary);
                rec.label_seek();
                let seek_from = it.position();
                let t = rec.clock();
                // What the seek declines is not reported: the memmem
                // counters follow the head start and the walker.
                let (outcome, _) = it.seek(SeekScope::subtree(levels), seeker);
                rec.stage_ns(ProfileStage::Classify, t);
                rec.skip_span(SkipTechnique::Label, seek_from, it.position());
                match outcome {
                    Seek::Composite { depth_delta } => {
                        depth = (i64::from(depth) + i64::from(depth_delta)) as u32;
                        if depth > options.max_depth {
                            return Err(Interrupt::Limit(LimitKind::Depth));
                        }
                        rec.depth(depth);
                        // The candidate's parent is necessarily an object.
                        types.set(depth, BracketType::Brace);
                    }
                    Seek::Boundary => {
                        depth -= levels;
                    }
                    // A subtree scope reports no atomic member.
                    Seek::Atomic { .. } | Seek::End => break,
                }
            }
        }

        let gap_from = it.position();
        let Some(event) = it.next() else { break };
        rec.event(event.position());
        if leaf_active {
            // Bytes crossed in one step because commas/colons were
            // toggled off (atomic members elided by leaf skipping).
            rec.skip_span(SkipTechnique::Leaf, gap_from, event.position());
        }
        match event {
            Structural::Opening(bracket, pos) => {
                let label = it.label_before(pos);
                check_label(options, label)?;
                let symbol = match label {
                    Some(label) => PathSymbol::Label(label),
                    None => PathSymbol::Index(indices.get(depth)),
                };
                let target = automaton.transition(state, symbol);
                if automaton.is_rejecting(target) && options.skip_children {
                    // Skipping children (§3.3): nothing below can match.
                    rec.child_skip();
                    let t = rec.clock();
                    let close = it.skip_past_close(bracket);
                    rec.stage_ns(ProfileStage::Classify, t);
                    // Elided: everything after the (delivered) opening
                    // through the consumed closing character.
                    let end = close.map_or_else(|| it.position(), |c| c + 1);
                    rec.skip_span(SkipTechnique::Child, pos + 1, end);
                    continue;
                }
                if depth >= options.max_depth {
                    return Err(Interrupt::Limit(LimitKind::Depth));
                }
                if target != state || !options.sparse_stack {
                    stack.push(state, depth);
                    state = target;
                    waiting_streak = 0;
                } else {
                    waiting_streak += 1;
                }
                depth += 1;
                rec.depth(depth);
                types.set(depth, bracket);
                if bracket == BracketType::Bracket {
                    indices.reset(depth);
                }
                if automaton.is_accepting(state) {
                    sink.record(pos)?;
                    rec.matched();
                }
                (comma_mode, leaf_active) =
                    apply_toggles(it, automaton, options, state, bracket, &mut *rec);
                if bracket == BracketType::Bracket {
                    try_match_first_item(it, automaton, state, pos, sink, &mut *rec)?;
                }
            }
            Structural::Closing(..) => {
                if depth == 0 {
                    break; // malformed: more closers than openers
                }
                depth -= 1;
                let before_pop = state;
                if let Some(restored) = stack.pop_if_at_depth(depth) {
                    state = restored;
                    waiting_streak = 0;
                    if depth >= 1
                        && options.skip_siblings
                        && automaton.is_unitary(state)
                        && !automaton.is_rejecting(before_pop)
                    {
                        // Skipping siblings (§3.3): the unitary label was
                        // found; labels do not repeat among siblings, so
                        // fast-forward to the enclosing object's end. The
                        // closing brace is delivered as the next event.
                        rec.sibling_skip();
                        let from = it.position();
                        let t = rec.clock();
                        let close = it.fast_forward_to_close(BracketType::Brace);
                        rec.stage_ns(ProfileStage::Classify, t);
                        // The closing brace is left pending (and will be
                        // delivered), so the span excludes it.
                        let end = close.unwrap_or_else(|| it.position());
                        rec.skip_span(SkipTechnique::Sibling, from, end);
                        continue;
                    }
                }
                if depth == 0 {
                    break; // the element this run was started on has closed
                }
                (comma_mode, leaf_active) =
                    apply_toggles(it, automaton, options, state, types.get(depth), &mut *rec);
            }
            Structural::Colon(pos) => {
                // Composite member values are handled at their Opening; a
                // direct byte probe is cheaper than peeking the iterator.
                let Some(v) = value_start_after(it.input(), pos) else {
                    continue;
                };
                let label = it.label_before(pos);
                check_label(options, label)?;
                let target = automaton.transition_label(state, label);
                if automaton.is_accepting(target) {
                    sink.record(v)?;
                    rec.matched();
                }
                if options.skip_siblings
                    && automaton.is_unitary(state)
                    && !automaton.is_rejecting(target)
                {
                    // The unitary label matched an atomic value; skip the
                    // remaining siblings.
                    rec.sibling_skip();
                    let from = it.position();
                    let t = rec.clock();
                    let close = it.fast_forward_to_close(BracketType::Brace);
                    rec.stage_ns(ProfileStage::Classify, t);
                    let end = close.unwrap_or_else(|| it.position());
                    rec.skip_span(SkipTechnique::Sibling, from, end);
                }
            }
            Structural::Comma(pos) => {
                match comma_mode {
                    CommaMode::Off => {
                        // Commas can still arrive with leaf skipping
                        // disabled; keep entry counters exact in arrays.
                        if types.get(depth) == BracketType::Bracket {
                            indices.increment(depth);
                        }
                    }
                    CommaMode::All => {
                        indices.increment(depth);
                        if let Some(v) = value_start_after(it.input(), pos) {
                            sink.record(v)?;
                            rec.matched();
                        }
                    }
                    CommaMode::Indexed => {
                        indices.increment(depth);
                        let target =
                            automaton.transition(state, PathSymbol::Index(indices.get(depth)));
                        if automaton.is_accepting(target) {
                            if let Some(v) = value_start_after(it.input(), pos) {
                                sink.record(v)?;
                                rec.matched();
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs a query over a whole document: from the root element, or — given
/// the initial waiting state's seeker and the target of its label
/// transition — from the head start's hits.
#[inline(always)]
pub(crate) fn run_document<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    head_start: Option<(LabelSeeker<'_, B>, StateId)>,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if let Some((seeker, target)) = head_start {
        return leapfrog(it, automaton, options, seekers, seeker, target, sink, rec);
    }
    let initial = automaton.initial_state();
    match it.next() {
        Some(Structural::Opening(bracket, pos)) => {
            rec.event(pos);
            if automaton.is_accepting(initial) {
                sink.record(pos)?; // query `$` on a composite document
                rec.matched();
            }
            run_element(
                it, automaton, options, seekers, initial, bracket, pos, sink, rec,
            )?;
        }
        Some(other) => {
            // Malformed document (starts with a closer/comma/colon).
            rec.event(other.position());
        }
        None => {
            // Atomic document: only `$` can match it.
            if automaton.is_accepting(initial) {
                if let Some(v) = first_nonws(it.input(), 0) {
                    sink.record(v)?;
                    rec.matched();
                }
            }
        }
    }
    Ok(())
}

/// Skipping to a label (§3.3): a query starting with `$..ℓ` leapfrogs
/// between the members named `ℓ` anywhere in the document — the one
/// cursor of the run seeking under [`SeekScope::document`] — and runs the
/// main algorithm only on their values. A candidate must be followed by a
/// colon (otherwise it is a string value) and, unless
/// `checked_head_start` is off (the paper's rawer variant), lie outside
/// any string; the seek declines the others.
///
/// A sub-run leaves the cursor past its value, so the next seek starts
/// there: nested occurrences, which the automaton already handled, are
/// never counted twice, and no block is classified twice.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "internal: a context struct would obscure the hot path"
)]
fn leapfrog<B: Backend>(
    it: &mut StructuralIterator<'_, B>,
    automaton: &Automaton,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    mut seeker: LabelSeeker<'_, B>,
    target: StateId,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let scope = SeekScope::document(options.checked_head_start);
    // End of the last structurally classified region (Tier C byte-span
    // accounting): everything from here to the next hit's value is
    // elided by the head start — only the substring search and, when
    // checked, the quote classifier touch those bytes.
    let mut frontier = 0;
    loop {
        let t = rec.clock();
        let (outcome, declined) = it.seek(scope, &mut seeker);
        rec.stage_ns(ProfileStage::Classify, t);
        rec.memmem_declines(declined);
        match outcome {
            Seek::Composite { .. } => {
                rec.memmem_jump();
                let Some(Structural::Opening(bracket, v)) = it.next() else {
                    break; // defensive: the seek left an opening pending
                };
                rec.skip_span(SkipTechnique::Memmem, frontier, v);
                rec.resume_handoff();
                rec.event(v);
                if automaton.is_accepting(target) {
                    sink.record(v)?;
                    rec.matched();
                }
                run_element(
                    it, automaton, options, seekers, target, bracket, v, sink, &mut *rec,
                )?;
                frontier = it.position();
            }
            Seek::Atomic { pos } => {
                rec.memmem_jump();
                if automaton.is_accepting(target) {
                    sink.record(pos)?;
                    rec.matched();
                }
            }
            // A document scope has no boundary.
            Seek::Boundary | Seek::End => break,
        }
    }
    // Tail: from the last classification frontier to the end of the
    // input, nothing was structurally classified.
    rec.skip_span(SkipTechnique::Memmem, frontier, it.input().len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteChoice;
    use rsq_query::Query;
    use rsq_simd::Simd;

    /// The run tables are inline up to the documented bound — the repo
    /// benchmark's batch query is well within it — and a query beyond it
    /// spills, on both routes, without changing what it finds.
    #[test]
    fn run_tables_spill_only_beyond_the_documented_bound() {
        let within = Engine::from_text("$.*.entities.urls.*.url").unwrap();
        assert!(!seekers(&within, Simd::detect()).spilled());

        let chain = ".b".repeat(RUN_TABLES_INLINE);
        let query = Query::parse(&format!("$.a{chain}")).unwrap();
        let doc = format!(
            r#"{{"b": 0, "a": {}7{}}}"#,
            r#"{"x": [], "b": "#.repeat(RUN_TABLES_INLINE),
            "}".repeat(RUN_TABLES_INLINE)
        );
        for route in [RouteChoice::Auto, RouteChoice::General] {
            let options = EngineOptions {
                route,
                ..EngineOptions::default()
            };
            let beyond = Engine::with_options(&query, options).unwrap();
            assert!(beyond.automaton.state_count() > RUN_TABLES_INLINE);
            assert_eq!(beyond.plan.steps.len(), RUN_TABLES_INLINE + 1);
            assert!(seekers(&beyond, Simd::detect()).spilled());
            let found = beyond.try_positions(doc.as_bytes()).unwrap();
            assert_eq!(found, [doc.find('7').unwrap()], "{route:?}");
        }
    }
}
