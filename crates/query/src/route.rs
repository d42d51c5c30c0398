//! Compile-time query-shape routing for the raw-speed tier (DESIGN.md
//! §15).
//!
//! The general engine classifies every block of the document, even when
//! the query's shape guarantees that almost all of them are irrelevant.
//! This module inspects the compiled [`Automaton`] *once, at compile
//! time*, and extracts the longest prefix of the query that can be
//! driven by `memmem`-led direct seeks instead of block-by-block
//! classification:
//!
//! * a **label step** — a unitary state (single concrete label, rejecting
//!   fallback): inside the current container, only one member can change
//!   the state, so the engine may jump straight to candidate occurrences
//!   of `"label"` and skip everything in between;
//! * a **wild step** — a pure wildcard state (no explicit transitions,
//!   matching label and index fallbacks, non-accepting target): every
//!   *composite* child advances the state identically, and atomic
//!   children can never contribute a match, so the engine only needs the
//!   children's opening/closing characters.
//!
//! The walk stops at the first state that does not fit either shape
//! (accepting, rejecting, descendant loop, index-distinguishing, multiple
//! labels, …); everything from there on — the *tail* — is handled by the
//! general `main_loop` as a sub-run, so results stay byte-identical with
//! the general route by construction. The resulting [`RoutePlan`] is
//! labelled with a [`Route`]: `Selective` when a label step exists, and
//! `General` when none does (the fast path is then not worth entering
//! and the plan must not be executed). Whether a run of a selective plan
//! takes the walker is the engine's call, made per input (DESIGN.md
//! §15).

use crate::automaton::{Automaton, StateId};
pub use rsq_obs::Route;

/// Upper bound on the number of plan steps. The fast-path walker keeps
/// one frame per step on an explicit stack; real queries are far below
/// this, and anything longer gains nothing from routing.
const MAX_PLAN_LEN: usize = 64;

/// One step of a [`RoutePlan`] prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// Seek the one member `state` has a transition for (its
    /// [`Automaton::single_explicit_needle`]) directly within the current
    /// container; on success the automaton moves to `target`.
    Label {
        /// The unitary state the step seeks in.
        state: StateId,
        /// State after taking the label transition.
        target: StateId,
    },
    /// Iterate the composite children of the current container (a `*`
    /// selector); each child moves the automaton to `target`.
    Wild {
        /// State after taking the fallback transition.
        target: StateId,
    },
}

impl PlanStep {
    /// The state the automaton is in after this step.
    #[must_use]
    pub fn target(&self) -> StateId {
        match *self {
            PlanStep::Label { target, .. } | PlanStep::Wild { target } => target,
        }
    }
}

/// The fast-path execution plan derived from a compiled [`Automaton`].
///
/// Produced by [`RoutePlan::analyze`]; consumed by the engine's fast-path
/// walker. When [`route`](Self::route) is [`Route::General`] the plan
/// must not be executed (the `steps` may be empty or label-free).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutePlan {
    /// The prefix steps, outermost first.
    pub steps: Vec<PlanStep>,
    /// The automaton state after the last step — the entry state of the
    /// general-engine tail sub-run.
    pub tail_state: StateId,
    /// Entering the tail state reports a match (the value found by the
    /// final step is itself a result).
    pub tail_accepting: bool,
    /// Matches are still possible *below* the tail state, so composite
    /// values found by the final step must be run through the general
    /// `main_loop`; when `false` they can be skipped outright.
    pub tail_run: bool,
    /// The route classification; [`Route::General`] means "do not take
    /// the fast path".
    pub route: Route,
}

impl RoutePlan {
    /// Derives the fast-path plan for `automaton`.
    ///
    /// Walks from the initial state, collecting label and wild steps while
    /// the state shape allows the walker to reproduce `main_loop`'s
    /// decisions exactly; see the module docs for the step conditions.
    #[must_use]
    pub fn analyze(automaton: &Automaton) -> RoutePlan {
        let a = automaton;
        let mut state = a.initial_state();
        let mut steps = Vec::new();

        while steps.len() < MAX_PLAN_LEN {
            // A step state must be non-accepting (a match *at* the step
            // would be invisible to the walker) and non-rejecting, and
            // must not distinguish array indices (the walker never counts
            // commas, so `transition(state, Index(i))` must be the index
            // fallback for every `i`; `try_match_first_item` is then a
            // no-op because that fallback is rejecting or non-accepting).
            if a.is_accepting(state)
                || a.is_rejecting(state)
                || a.needs_indices(state)
                || a.explicit_index_transitions(state).next().is_some()
            {
                break;
            }
            if a.is_unitary(state) {
                // Single concrete label, rejecting label fallback. The
                // index fallback must also reject: otherwise array entries
                // could advance the state without any label present.
                let Some((_, target)) = a.single_explicit_needle(state) else {
                    break;
                };
                if !a.is_rejecting(a.fallback_index(state)) || a.is_rejecting(target) {
                    break;
                }
                steps.push(PlanStep::Label { state, target });
                state = target;
            } else if a.explicit_transitions(state).next().is_none() {
                // Pure wildcard: label and index fallbacks agree, the
                // target cannot accept (atomic children — invisible to
                // the walker because commas and colons stay off — can
                // then never contribute a match), and the state does not
                // loop on itself (a descendant `..*`).
                let target = a.fallback(state);
                if target != a.fallback_index(state)
                    || a.is_rejecting(target)
                    || a.is_accepting(target)
                    || target == state
                {
                    break;
                }
                steps.push(PlanStep::Wild { target });
                state = target;
            } else {
                break;
            }
        }

        let tail_accepting = a.is_accepting(state);
        // Matches strictly below the tail exist only if some one-step
        // successor is non-rejecting (rejecting is closed under
        // transitions, so this one-step check is exact).
        let tail_run = !a.is_rejecting(state)
            && (!a.is_rejecting(a.fallback(state))
                || !a.is_rejecting(a.fallback_index(state))
                || a.explicit_transitions(state)
                    .any(|(_, t)| !a.is_rejecting(t))
                || a.explicit_index_transitions(state)
                    .any(|(_, t)| !a.is_rejecting(t)));

        let route = if steps.iter().any(|s| matches!(s, PlanStep::Label { .. })) {
            Route::Selective
        } else {
            Route::General
        };

        RoutePlan {
            steps,
            tail_state: state,
            tail_accepting,
            tail_run,
            route,
        }
    }

    /// Whether the plan routes away from the general engine.
    #[must_use]
    pub fn is_fast(&self) -> bool {
        self.route != Route::General
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Query;

    fn compile(query: &str) -> Automaton {
        let q = Query::parse(query).expect("parse");
        Automaton::compile(&q).expect("compile")
    }

    fn plan(query: &str) -> RoutePlan {
        RoutePlan::analyze(&compile(query))
    }

    /// The plan's steps, each label step by the needle its state seeks.
    fn shape(query: &str) -> String {
        let a = compile(query);
        RoutePlan::analyze(&a)
            .steps
            .iter()
            .map(|s| match *s {
                PlanStep::Label { state, .. } => {
                    let (needle, _) = a.single_explicit_needle(state).expect("unitary");
                    format!("L({})", String::from_utf8_lossy(needle))
                }
                PlanStep::Wild { .. } => "W".to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn pure_chain_is_selective() {
        let p = plan("$.a.b.c");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(shape("$.a.b.c"), r#"L("a") L("b") L("c")"#);
        assert!(p.tail_accepting, "final value is the match");
        assert!(!p.tail_run, "nothing below the match can match");
    }

    #[test]
    fn catalog_queries_route_as_expected() {
        // B1: labels mixed with wildcards — selective.
        let p = plan("$.products.*.categoryPath.*.id");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(
            shape("$.products.*.categoryPath.*.id"),
            r#"L("products") W L("categoryPath") W L("id")"#
        );
        assert!(p.tail_accepting && !p.tail_run);

        // G1: leading wildcard, long chain — selective.
        let p = plan("$.*.routes.*.legs.*.steps.*.distance.text");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(
            shape("$.*.routes.*.legs.*.steps.*.distance.text"),
            r#"W L("routes") W L("legs") W L("steps") W L("distance") L("text")"#
        );
        assert!(p.tail_accepting && !p.tail_run);

        // N1: chain, one wildcard, chain.
        let p = plan("$.meta.view.columns.*.name");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(
            shape("$.meta.view.columns.*.name"),
            r#"L("meta") L("view") L("columns") W L("name")"#
        );
    }

    #[test]
    fn trailing_wildcards_stop_before_the_accepting_target() {
        // $.data.*.*.*: the final wildcard's target is accepting, so the
        // walk must stop *before* it and hand the rest to the tail run —
        // atomic children of that container do match.
        let p = plan("$.data.*.*.*");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(shape("$.data.*.*.*"), r#"L("data") W W"#);
        assert!(!p.tail_accepting);
        assert!(p.tail_run, "matches exist below the tail");
    }

    #[test]
    fn descendant_and_wildcard_only_queries_stay_general() {
        for q in ["$..a", "$..*", "$.*", "$.*.*", "$"] {
            let p = plan(q);
            assert_eq!(p.route, Route::General, "{q} must stay general");
            assert!(!p.is_fast());
        }
    }

    #[test]
    fn descendant_tail_keeps_the_prefix_fast() {
        // The fast prefix composes with a descendant tail: the walk stops
        // at the descendant state and `tail_run` hands it to main_loop.
        let p = plan("$.a.b..c");
        assert_eq!(p.route, Route::Selective);
        assert_eq!(shape("$.a.b..c"), r#"L("a") L("b")"#);
        assert!(!p.tail_accepting);
        assert!(p.tail_run);
    }

    #[test]
    fn index_selectors_break_the_walk() {
        // `[0]` distinguishes indices: the walker never counts commas, so
        // the state cannot be a step.
        let p = plan("$.a[0].b");
        assert_eq!(shape("$.a[0].b"), r#"L("a")"#);
        assert_eq!(p.route, Route::Selective);
        assert!(p.tail_run);
    }

    #[test]
    fn plans_match_recompiled_automata() {
        // Analysis is a pure function of the automaton.
        let q = Query::parse("$.products.*.categoryPath.*.id").unwrap();
        let a = Automaton::compile(&q).unwrap();
        assert_eq!(RoutePlan::analyze(&a), RoutePlan::analyze(&a));
    }
}
