//! The raw-speed routed walker (DESIGN.md §15): executes a fast-path
//! [`RoutePlan`] — the query-shape prefix extracted at compile time —
//! with `memmem`-led direct seeks instead of block-by-block structural
//! classification.
//!
//! The walker keeps one frame per plan step on an explicit stack; each
//! frame corresponds to one container on the current match path, entered
//! with its opening character already consumed:
//!
//! * a **label step** issues [`StructuralIterator::seek`] — the seek the
//!   general loop makes in its waiting states — under
//!   [`SeekScope::member`]: SIMD substring search jumps between candidate
//!   occurrences of `"label"` while a brace-depth scan tracks the
//!   container boundary, and nested occurrences and lookalikes inside
//!   string values are declined. After the single possible match, the
//!   frame fast-forwards to the container's end — the same move the
//!   general loop's sibling skip makes for unitary states;
//! * a **wildcard step** iterates the container's children by structural
//!   events only: with commas and colons toggled off, atomic children
//!   are invisible, which is sound because the route analyzer only emits
//!   wildcard steps whose target state cannot accept;
//! * the **tail** — everything past the analyzed prefix — runs through
//!   the general [`run_element`] on the same iterator, so results are
//!   byte-identical with the general route by construction.
//!
//! Every decision here mirrors a `main_loop` decision on the same
//! document (see the step conditions in `rsq_query::route`); the fast
//! path only changes *how* the bytes in between are crossed. Like the
//! `memmem` head start, tail sub-runs enforce `max_depth` relative to
//! the matched value rather than the document root.

use crate::error::{Interrupt, LimitKind};
use crate::main_loop::{run_element, seeker, Seekers};
use crate::sink::Sink;
use crate::{EngineOptions, RUN_TABLES_INLINE};
use rsq_classify::{BracketType, Seek, SeekScope, Structural, StructuralIterator};
use rsq_obs::{ProfileStage, Recorder, SkipTechnique};
use rsq_query::{Automaton, PlanStep, RoutePlan, StateId};
use rsq_simd::Backend;
use rsq_stackvec::StackVec;

/// What the frame at a given plan step is currently doing. The frame's
/// index in the walker stack *is* its step index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Frame {
    /// Label step: seeking the container's single relevant member, the
    /// one this (unitary) state has a transition for.
    Seek(StateId),
    /// Wildcard step: iterating the container's composite children.
    Iter,
    /// The label step's member was found and handled; fast-forward to
    /// the container's closing character (sibling skipping, §3.3).
    AwaitExit,
}

impl Frame {
    fn for_step(step: &PlanStep) -> Frame {
        match *step {
            PlanStep::Label { state, .. } => Frame::Seek(state),
            PlanStep::Wild { .. } => Frame::Iter,
        }
    }
}

/// The walker's stack: `frames[k]` is the frame of plan step `k`, the
/// first `height` of them are on the stack. One slot per step, made when
/// the walk starts — inline, like the run's [`Seekers`], up to
/// [`RUN_TABLES_INLINE`] steps — and taken as a slice once, so that no
/// push or pop asks where the slots live.
struct Frames<'w> {
    frames: &'w mut [Frame],
    height: usize,
}

impl Frames<'_> {
    #[inline(always)]
    fn top(&self) -> Option<Frame> {
        // `height <= frames.len()`: `descend` pushes only below the last step.
        self.height.checked_sub(1).map(|top| self.frames[top])
    }

    #[inline(always)]
    fn set_top(&mut self, frame: Frame) {
        if let Some(top) = self.height.checked_sub(1) {
            self.frames[top] = frame;
        }
    }

    #[inline(always)]
    fn push(&mut self, frame: Frame) {
        self.frames[self.height] = frame;
        self.height += 1;
    }

    #[inline(always)]
    fn pop(&mut self) {
        self.height = self.height.saturating_sub(1);
    }
}

/// Runs a routed query over a whole document. The caller guarantees
/// `plan.is_fast()` and that the options keep every skipping technique
/// the plan's parity argument relies on enabled (see
/// `Engine::fast_path_eligible`).
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "internal: mirrors the other drivers' shape"
)]
pub(crate) fn run_fast_path<B: Backend>(
    automaton: &Automaton,
    plan: &RoutePlan,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    backend: B,
    input: &[u8],
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    let mut it = StructuralIterator::new(input, backend);
    // Fold the iterator's classifier counters before propagating an
    // interrupt: an early sink stop maps to `Ok` upstream and must keep
    // its stats.
    let result = walk(automaton, plan, options, seekers, &mut it, sink, rec);
    rec.classifier(&it.counters());
    result
}

#[inline(always)]
fn walk<B: Backend>(
    automaton: &Automaton,
    plan: &RoutePlan,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    it: &mut StructuralIterator<'_, B>,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    debug_assert!(!plan.steps.is_empty(), "general routes never reach here");
    // Root handling mirrors `run_document`: the plan is non-empty, so
    // the initial state is non-accepting and an atomic document cannot
    // match.
    let Some(first) = it.next() else {
        return Ok(());
    };
    rec.event(first.position());
    let Structural::Opening(bracket, _) = first else {
        // Malformed document (starts with a closer/comma/colon).
        return Ok(());
    };
    if matches!(plan.steps[0], PlanStep::Label { .. }) && bracket == BracketType::Bracket {
        // A label step cannot match inside an array, and nothing follows
        // the root container: done without scanning a byte.
        rec.skip_span(SkipTechnique::Exit, it.position(), it.input().len());
        return Ok(());
    }

    // `stack.frames[k]` is the frame for plan step `k`; its container's
    // opening has been consumed and the iterator sits inside it.
    let mut slots: StackVec<Frame, RUN_TABLES_INLINE> =
        plan.steps.iter().map(Frame::for_step).collect();
    let mut stack = Frames {
        frames: slots.as_mut_slice(),
        height: 1,
    };
    rec.depth(1);
    if stack.top() == Some(Frame::Iter) {
        rec.leaf_skip();
    }

    while let Some(frame) = stack.top() {
        let step = stack.height - 1;
        let last = step + 1 == plan.steps.len();
        match frame {
            Frame::Seek(state) => {
                // A label step's state is unitary, and the walker runs
                // only with `label_seek` on: the seeker exists.
                let Some(seeker) = seeker(seekers, state) else {
                    break;
                };
                // An atomic member value can only match when this is the
                // final step and finding the member is itself the match.
                let accept_atomic = last && plan.tail_accepting;
                rec.label_seek();
                let seek_from = it.position();
                let t = rec.clock();
                let (outcome, declined) = it.seek(SeekScope::member(accept_atomic), seeker);
                rec.stage_ns(ProfileStage::Classify, t);
                rec.skip_span(SkipTechnique::Label, seek_from, it.position());
                rec.memmem_declines(declined);
                match outcome {
                    Seek::Composite { depth_delta } => {
                        debug_assert_eq!(depth_delta, 0, "a direct member");
                        rec.memmem_jump();
                        let Some(ev) = it.next() else { break };
                        rec.event(ev.position());
                        let Structural::Opening(bracket, pos) = ev else {
                            break; // defensive: the seek left an opening pending
                        };
                        // The single possible member of this container is
                        // handled; on return, skip its remaining siblings.
                        stack.set_top(Frame::AwaitExit);
                        if last {
                            enter_tail(
                                automaton, plan, options, seekers, it, bracket, pos, sink, rec,
                            )?;
                        } else {
                            descend(plan, options, it, &mut stack, bracket, pos, rec)?;
                        }
                    }
                    Seek::Atomic { pos } => {
                        rec.memmem_jump();
                        debug_assert!(accept_atomic);
                        sink.record(pos)?;
                        rec.matched();
                        stack.set_top(Frame::AwaitExit);
                    }
                    Seek::Boundary => {
                        // The container closed; consume the pending
                        // closing character and return to the parent.
                        let Some(ev) = it.next() else { break };
                        rec.event(ev.position());
                        stack.pop();
                    }
                    Seek::End => break, // malformed: ran off the input
                }
            }
            Frame::Iter => {
                let gap_from = it.position();
                let Some(ev) = it.next() else { break };
                rec.event(ev.position());
                // Atomic children crossed in one step (commas and colons
                // are toggled off).
                rec.skip_span(SkipTechnique::Leaf, gap_from, ev.position());
                match ev {
                    Structural::Opening(bracket, pos) => {
                        if last {
                            enter_tail(
                                automaton, plan, options, seekers, it, bracket, pos, sink, rec,
                            )?;
                        } else {
                            descend(plan, options, it, &mut stack, bracket, pos, rec)?;
                        }
                    }
                    Structural::Closing(..) => {
                        stack.pop();
                    }
                    // Commas and colons are toggled off in walker-owned
                    // containers; ignore strays defensively.
                    Structural::Colon(_) | Structural::Comma(_) => {}
                }
            }
            Frame::AwaitExit => {
                // When every frame below is also just waiting out its
                // container, nothing anywhere in the rest of the
                // document can match: stop without scanning it (the
                // remainder is attributed to the `exit` elision bucket).
                if stack.frames[..stack.height]
                    .iter()
                    .all(|f| *f == Frame::AwaitExit)
                {
                    rec.skip_span(SkipTechnique::Exit, it.position(), it.input().len());
                    break;
                }
                // Sibling skipping (§3.3): the unitary label was found;
                // labels do not repeat among siblings, so fast-forward to
                // the enclosing object's end. The closing brace is
                // delivered as the next event and consumed here.
                rec.sibling_skip();
                let from = it.position();
                let t = rec.clock();
                let close = it.fast_forward_to_close(BracketType::Brace);
                rec.stage_ns(ProfileStage::Classify, t);
                let end = close.unwrap_or_else(|| it.position());
                rec.skip_span(SkipTechnique::Sibling, from, end);
                let Some(ev) = it.next() else { break };
                rec.event(ev.position());
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Enters the child container opened at `pos` as the next plan step:
/// pushes its frame, except that a label step entered on an *array* is
/// skipped whole — arrays hold no labelled members, so nothing below can
/// match (the general loop child-skips each element to the same effect,
/// and the brace-only depth scan of [`SeekScope::member`] relies on the
/// container being an object). The walker's own nesting is checked
/// against `max_depth` exactly like the general loop checks examined
/// openings.
#[inline(always)]
fn descend<B: Backend>(
    plan: &RoutePlan,
    options: &EngineOptions,
    it: &mut StructuralIterator<'_, B>,
    stack: &mut Frames<'_>,
    bracket: BracketType,
    pos: usize,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if matches!(plan.steps[stack.height], PlanStep::Label { .. }) && bracket == BracketType::Bracket
    {
        rec.child_skip();
        let t = rec.clock();
        let close = it.skip_past_close(bracket);
        rec.stage_ns(ProfileStage::Classify, t);
        let end = close.map_or_else(|| it.position(), |c| c + 1);
        rec.skip_span(SkipTechnique::Child, pos + 1, end);
        return Ok(());
    }
    if stack.height as u32 >= options.max_depth {
        return Err(Interrupt::Limit(LimitKind::Depth));
    }
    let frame = Frame::for_step(&plan.steps[stack.height]);
    stack.push(frame);
    rec.depth(stack.height as u32);
    if frame == Frame::Iter {
        rec.leaf_skip();
    }
    Ok(())
}

/// Handles a composite value entering the tail state: record it if the
/// tail accepts, then either run the general loop over the subtree (when
/// matches below are still possible) or skip it outright. The value's
/// opening character has already been consumed.
#[inline(always)]
#[expect(
    clippy::too_many_arguments,
    reason = "internal: mirrors the other drivers' shape"
)]
fn enter_tail<B: Backend>(
    automaton: &Automaton,
    plan: &RoutePlan,
    options: &EngineOptions,
    seekers: &mut Seekers<'_, B>,
    it: &mut StructuralIterator<'_, B>,
    bracket: BracketType,
    pos: usize,
    sink: &mut impl Sink,
    rec: &mut impl Recorder,
) -> Result<(), Interrupt> {
    if plan.tail_accepting {
        sink.record(pos)?;
        rec.matched();
    }
    if plan.tail_run {
        let sub = run_element(
            it,
            automaton,
            options,
            seekers,
            plan.tail_state,
            bracket,
            pos,
            sink,
            &mut *rec,
        );
        // The sub-run leaves the comma/colon toggles wherever its last
        // container put them; the walker's own phases need them off.
        it.set_toggles(false, false);
        sub
    } else {
        // Nothing below the tail can match (all successor states are
        // rejecting): skip the subtree like the general loop's child
        // skip would.
        rec.child_skip();
        let t = rec.clock();
        let close = it.skip_past_close(bracket);
        rec.stage_ns(ProfileStage::Classify, t);
        let end = close.map_or_else(|| it.position(), |c| c + 1);
        rec.skip_span(SkipTechnique::Child, pos + 1, end);
        Ok(())
    }
}
