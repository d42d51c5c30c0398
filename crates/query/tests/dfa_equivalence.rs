//! The compiled minimal DFA (built with the greedy-match subset reduction)
//! must recognize exactly the same language as a naive full-subset NFA
//! simulation of the query, on arbitrary path words over labels *and*
//! array indices. This validates the greedy match property (§3.1), the
//! minimization, and the array-index alphabet extension. Case `n` draws
//! its query and words from `StdRng::seed_from_u64(n)`, so a failure names
//! the seed that replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_query::{Automaton, PathSymbol, Query, Selector};

/// A symbol of a generated path word.
#[derive(Clone, Copy, Debug)]
enum Sym {
    Label(&'static str),
    Index(u64),
}

/// Naive NFA simulation: full subsets, no greedy reduction.
fn nfa_accepts(query: &Query, word: &[Sym]) -> bool {
    let sels = query.selectors();
    let accept = sels.len();
    let mut set: Vec<usize> = vec![0];
    for &symbol in word {
        let mut next: Vec<usize> = Vec::new();
        for &s in &set {
            if s == accept {
                continue;
            }
            let (recursive, advances) = match (&sels[s], symbol) {
                (Selector::Child(l), Sym::Label(x)) => (false, l == x),
                (Selector::Child(_), Sym::Index(_)) => (false, false),
                (Selector::ChildWildcard, _) => (false, true),
                (Selector::Index(n), Sym::Index(k)) => (false, *n == k),
                (Selector::Index(_), Sym::Label(_)) => (false, false),
                (Selector::Descendant(l), Sym::Label(x)) => (true, l == x),
                (Selector::Descendant(_), Sym::Index(_)) => (true, false),
                (Selector::DescendantWildcard, _) => (true, true),
                (Selector::DescendantIndex(n), Sym::Index(k)) => (true, *n == k),
                (Selector::DescendantIndex(_), Sym::Label(_)) => (true, false),
            };
            if recursive {
                next.push(s);
            }
            if advances {
                next.push(s + 1);
            }
        }
        next.sort_unstable();
        next.dedup();
        set = next;
    }
    set.contains(&accept)
}

fn symbol(sym: Sym) -> PathSymbol<'static> {
    match sym {
        Sym::Label(l) => PathSymbol::Label(l.as_bytes()),
        Sym::Index(n) => PathSymbol::Index(n),
    }
}

fn compile(query: &Query, case: u64) -> Automaton {
    Automaton::compile(query).unwrap_or_else(|e| panic!("case {case}: {query}: {e}"))
}

fn dfa_accepts(automaton: &Automaton, word: &[Sym]) -> bool {
    let mut state = automaton.initial_state();
    for &sym in word {
        state = automaton.transition(state, symbol(sym));
    }
    automaton.is_accepting(state)
}

/// A query of `lens` selectors over the labels `a`, `b`, `c` and the
/// indices 0, 1 and 5.
fn query(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Query {
    let selectors = (0..rng.gen_range(lens)).map(|_| {
        let label = ["a", "b", "c"][rng.gen_range(0..3)].to_owned();
        match rng.gen_range(0..12) {
            0..=2 => Selector::Child(label),
            3..=4 => Selector::ChildWildcard,
            5..=7 => Selector::Descendant(label),
            8 => Selector::DescendantWildcard,
            9..=10 => Selector::Index([0, 1, 5][rng.gen_range(0..3)]),
            _ => Selector::DescendantIndex(rng.gen_range(0..2)),
        }
    });
    Query::from_selectors(selectors.collect())
}

/// A path word of up to 11 symbols, with a label (`z`) and an index (7)
/// outside every query.
fn word(rng: &mut StdRng) -> Vec<Sym> {
    const SYMBOLS: [Sym; 8] = [
        Sym::Label("a"),
        Sym::Label("b"),
        Sym::Label("c"),
        Sym::Label("z"),
        Sym::Index(0),
        Sym::Index(1),
        Sym::Index(5),
        Sym::Index(7),
    ];
    (0..rng.gen_range(0..12))
        .map(|_| SYMBOLS[rng.gen_range(0..SYMBOLS.len())])
        .collect()
}

#[test]
fn dfa_equals_nfa() {
    for case in 0..512 {
        let rng = &mut StdRng::seed_from_u64(case);
        let query = query(rng, 0..6);
        let automaton = compile(&query, case);
        for _ in 0..rng.gen_range(1..20) {
            let word = word(rng);
            assert_eq!(
                dfa_accepts(&automaton, &word),
                nfa_accepts(&query, &word),
                "case {case}: query {query} word {word:?}"
            );
        }
    }
}

#[test]
fn rejecting_states_never_recover() {
    for case in 0..512 {
        let rng = &mut StdRng::seed_from_u64(case);
        let query = query(rng, 1..5);
        let word = word(rng);
        let automaton = compile(&query, case);
        let mut state = automaton.initial_state();
        let mut rejected = false;
        for &sym in &word {
            state = automaton.transition(state, symbol(sym));
            if rejected {
                let what = format!("case {case}: query {query} word {word:?}");
                assert!(automaton.is_rejecting(state), "{what}");
            }
            rejected |= automaton.is_rejecting(state);
        }
    }
}

#[test]
fn internal_states_cannot_accept_next() {
    for case in 0..512 {
        let rng = &mut StdRng::seed_from_u64(case);
        let query = query(rng, 1..5);
        let word = word(rng);
        let automaton = compile(&query, case);
        let mut state = automaton.initial_state();
        for &sym in &word {
            let was_internal = automaton.is_internal(state);
            state = automaton.transition(state, symbol(sym));
            if was_internal {
                let what = format!("case {case}: query {query} word {word:?}");
                assert!(!automaton.is_accepting(state), "{what}");
            }
        }
    }
}
