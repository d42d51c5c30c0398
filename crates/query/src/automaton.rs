//! Deterministic query automaton: subset construction, minimization, and
//! state-property analysis (§3.1, §3.3).

use crate::nfa::{Nfa, Symbol};
use crate::parser::Query;
use std::collections::HashMap;
use std::fmt;

/// Hard cap on DFA size. Queries like `..a.*.*.….*` blow up exponentially
/// (§3.1); compilation fails cleanly instead of exhausting memory.
const MAX_STATES: usize = 1 << 13;

/// A state of the compiled [`Automaton`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u16);

impl StateId {
    /// The numeric index of the state.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Error returned by [`Automaton::compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Determinization exceeded the state cap (exponential blow-up).
    TooManyStates {
        /// The cap that was hit.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyStates { limit } => {
                write!(
                    f,
                    "query automaton exceeds {limit} states (exponential blow-up)"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

mod flags {
    pub const ACCEPTING: u8 = 1 << 0;
    pub const REJECTING: u8 = 1 << 1;
    pub const UNITARY: u8 = 1 << 2;
    pub const INTERNAL: u8 = 1 << 3;
    pub const WAITING: u8 = 1 << 4;
    pub const FALLBACK_ACCEPTING: u8 = 1 << 5;
    pub const OBJECT_ACCEPTING: u8 = 1 << 6;
    pub const NEEDS_INDICES: u8 = 1 << 7;
}

#[derive(Clone, Debug)]
struct State {
    /// Transitions over concrete query labels whose target differs from the
    /// label fallback, sorted by label id.
    explicit: Vec<(u16, StateId)>,
    /// Transitions over concrete array indices whose target differs from
    /// the index fallback, as `(index value, target)`.
    explicit_indices: Vec<(u64, StateId)>,
    /// Target for labels without an explicit entry.
    fallback: StateId,
    /// Target for array-entry indices without an explicit entry.
    fallback_index: StateId,
    flags: u8,
}

/// A symbol of a path word: the edge into a node is either an object
/// member label or an array-entry index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathSymbol<'a> {
    /// An object member label (raw bytes between the quotes).
    Label(&'a [u8]),
    /// A zero-based array-entry index.
    Index(u64),
}

/// The minimal deterministic query automaton.
///
/// Runs over *path words*: the sequence of member labels and array-entry
/// indices on a path from the document root to a node.
///
/// See the [crate documentation](crate) for the compilation pipeline and
/// an example.
#[derive(Clone, Debug)]
pub struct Automaton {
    labels: Vec<Vec<u8>>,
    /// `labels`, each between double quotes: what a substring search for
    /// a member of that name looks for.
    needles: Vec<Vec<u8>>,
    states: Vec<State>,
    initial: StateId,
}

impl Automaton {
    /// Compiles a query into a minimal DFA with precomputed state
    /// properties.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooManyStates`] if determinization exceeds
    /// the internal state cap (only possible for adversarial queries with
    /// long wildcard runs after a descendant).
    pub fn compile(query: &Query) -> Result<Self, CompileError> {
        let nfa = Nfa::from_query(query);
        let (transitions, accepting, initial) = determinize(&nfa)?;
        let (transitions, accepting, initial) = minimize(&transitions, &accepting, initial);
        Ok(build(&nfa, transitions, accepting, initial))
    }

    /// The initial state (corresponding to `$`, with the root not yet
    /// entered).
    #[must_use]
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// Number of states, including the rejecting sink if present.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The distinct labels mentioned by the query, as raw bytes.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(Vec::as_slice)
    }

    /// Takes the transition for a path symbol: a member label or an
    /// array-entry index.
    #[inline]
    #[must_use]
    pub fn transition(&self, state: StateId, symbol: PathSymbol<'_>) -> StateId {
        let s = &self.states[state.index()];
        match symbol {
            PathSymbol::Label(bytes) => {
                for &(label_id, target) in &s.explicit {
                    if self.labels[label_id as usize] == bytes {
                        return target;
                    }
                }
                s.fallback
            }
            PathSymbol::Index(n) => {
                for &(index, target) in &s.explicit_indices {
                    if index == n {
                        return target;
                    }
                }
                s.fallback_index
            }
        }
    }

    /// Convenience form used where array-entry indices are irrelevant:
    /// `Some(bytes)` for an object member label, `None` for an array entry
    /// whose index is unknown (only valid when the state has no explicit
    /// index transitions).
    #[inline]
    #[must_use]
    pub fn transition_label(&self, state: StateId, label: Option<&[u8]>) -> StateId {
        match label {
            Some(bytes) => self.transition(state, PathSymbol::Label(bytes)),
            None => self.states[state.index()].fallback_index,
        }
    }

    /// The fallback target over labels without an explicit entry.
    #[must_use]
    pub fn fallback(&self, state: StateId) -> StateId {
        self.states[state.index()].fallback
    }

    /// The fallback target over array-entry indices without an explicit
    /// entry.
    #[must_use]
    pub fn fallback_index(&self, state: StateId) -> StateId {
        self.states[state.index()].fallback_index
    }

    /// The explicit array-index transitions of a state.
    pub fn explicit_index_transitions(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (u64, StateId)> + '_ {
        self.states[state.index()].explicit_indices.iter().copied()
    }

    /// The state distinguishes specific array-entry indices; engines must
    /// then observe every entry boundary (commas) to keep an exact entry
    /// counter in arrays.
    #[inline]
    #[must_use]
    pub fn needs_indices(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::NEEDS_INDICES != 0
    }

    /// Some member-label transition (explicit or fallback) out of this
    /// state is accepting — drives colon toggling in objects (§3.4).
    #[inline]
    #[must_use]
    pub fn is_object_accepting(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::OBJECT_ACCEPTING != 0
    }

    /// The explicit transitions of a state as `(label bytes, target)`.
    pub fn explicit_transitions(&self, state: StateId) -> impl Iterator<Item = (&[u8], StateId)> {
        self.states[state.index()]
            .explicit
            .iter()
            .map(|&(l, t)| (self.labels[l as usize].as_slice(), t))
    }

    /// Reaching this state reports a match (§3.1).
    #[inline]
    #[must_use]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::ACCEPTING != 0
    }

    /// No accepting state is reachable from this state (the trash state);
    /// subtrees entered here can be skipped entirely (*skipping children*,
    /// §3.3).
    #[inline]
    #[must_use]
    pub fn is_rejecting(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::REJECTING != 0
    }

    /// The state has a single concrete-label transition and its fallback is
    /// rejecting; once the label is found among siblings, the rest can be
    /// skipped (*skipping siblings*, §3.3). Such states correspond to
    /// non-wildcard selectors before the first descendant.
    #[inline]
    #[must_use]
    pub fn is_unitary(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::UNITARY != 0
    }

    /// No transition out of this state reaches an accepting state, so
    /// leaves cannot match and can be fast-forwarded over (*skipping
    /// leaves*, §3.3).
    #[inline]
    #[must_use]
    pub fn is_internal(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::INTERNAL != 0
    }

    /// The state has exactly one concrete-label transition and loops on
    /// everything else — it corresponds to a descendant selector `..ℓ` and
    /// enables *skipping to a label* (§3.3) when it is the initial state.
    #[inline]
    #[must_use]
    pub fn is_waiting(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::WAITING != 0
    }

    /// The index-fallback transition leads to an accepting state; array
    /// entries of an element in this state match regardless of position
    /// (drives comma toggling, §3.4).
    #[inline]
    #[must_use]
    pub fn is_fallback_accepting(&self, state: StateId) -> bool {
        self.states[state.index()].flags & flags::FALLBACK_ACCEPTING != 0
    }

    /// Some transition (explicit or fallback) out of this state is
    /// accepting — the automaton "can accept in a single step" (drives
    /// colon toggling, §3.4). Equivalent to `!is_internal`.
    #[inline]
    #[must_use]
    pub fn any_transition_accepting(&self, state: StateId) -> bool {
        !self.is_internal(state)
    }

    /// For states with exactly one explicit transition, its label as a
    /// substring-search needle — the label bytes between double quotes —
    /// and its target. The label seeks (skip-to-label from the initial
    /// waiting state, the in-element seek of every other waiting state,
    /// the routed walker's label steps) all search for it; it is built
    /// once, when the query is compiled.
    #[must_use]
    pub fn single_explicit_needle(&self, state: StateId) -> Option<(&[u8], StateId)> {
        match self.states[state.index()].explicit.as_slice() {
            [(l, t)] => Some((self.needles[*l as usize].as_slice(), *t)),
            _ => None,
        }
    }

    /// Every state, in index order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len()).map(|s| StateId(s as u16))
    }

    /// Renders the automaton in Graphviz DOT format (for debugging and
    /// documentation).
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph query {\n  rankdir=LR;\n");
        for (i, s) in self.states.iter().enumerate() {
            let shape = if s.flags & flags::ACCEPTING != 0 {
                "doublecircle"
            } else if s.flags & flags::REJECTING != 0 {
                "point"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  q{i} [shape={shape}];");
            for &(l, t) in &s.explicit {
                let label = String::from_utf8_lossy(&self.labels[l as usize]).into_owned();
                let _ = writeln!(out, "  q{i} -> q{} [label=\"{label}\"];", t.0);
            }
            for &(idx, t) in &s.explicit_indices {
                let _ = writeln!(out, "  q{i} -> q{} [label=\"[{idx}]\"];", t.0);
            }
            let _ = writeln!(
                out,
                "  q{i} -> q{} [label=\"*\", style=dashed];",
                s.fallback.0
            );
            if s.fallback_index != s.fallback {
                let _ = writeln!(
                    out,
                    "  q{i} -> q{} [label=\"[*]\", style=dotted];",
                    s.fallback_index.0
                );
            }
        }
        let _ = writeln!(out, "  init [shape=none, label=\"\"];");
        let _ = writeln!(out, "  init -> q{};", self.initial.0);
        out.push_str("}\n");
        out
    }
}

/// Raw DFA transitions: per state, one target per alphabet symbol. The
/// alphabet is laid out as `labels(k) ++ indices(m) ++ [other-label,
/// other-index]`.
type RawTransitions = Vec<Vec<usize>>;

/// Subset construction over the full path alphabet.
fn determinize(nfa: &Nfa) -> Result<(RawTransitions, Vec<bool>, usize), CompileError> {
    let k = nfa.label_count();
    let m = nfa.index_count();
    let width = k + m + 2;
    let symbol_of = |i: usize| -> Symbol {
        if i < k {
            Symbol::Label(i as u16)
        } else if i < k + m {
            Symbol::Index((i - k) as u16)
        } else if i == k + m {
            Symbol::OtherLabel
        } else {
            Symbol::OtherIndex
        }
    };
    let mut subset_ids: HashMap<Vec<u16>, usize> = HashMap::new();
    let mut subsets: Vec<Vec<u16>> = Vec::new();
    let mut transitions: RawTransitions = Vec::new();

    // State 0 is the empty subset: the rejecting sink.
    subset_ids.insert(Vec::new(), 0);
    subsets.push(Vec::new());
    transitions.push(vec![0; width]);

    let initial_subset = vec![0u16]; // {0}, or {accept} for `$`
    let initial = intern(
        initial_subset,
        &mut subset_ids,
        &mut subsets,
        &mut transitions,
        width,
    )?;

    let mut work = initial;
    while work < subsets.len() {
        let subset = subsets[work].clone();
        for symbol in 0..width {
            let succ = nfa.successors(&subset, symbol_of(symbol));
            let id = intern(succ, &mut subset_ids, &mut subsets, &mut transitions, width)?;
            transitions[work][symbol] = id;
        }
        work += 1;
    }

    let accepting: Vec<bool> = subsets
        .iter()
        .map(|s| s.binary_search(&nfa.accept()).is_ok())
        .collect();
    Ok((transitions, accepting, initial))
}

fn intern(
    subset: Vec<u16>,
    subset_ids: &mut HashMap<Vec<u16>, usize>,
    subsets: &mut Vec<Vec<u16>>,
    transitions: &mut RawTransitions,
    width: usize,
) -> Result<usize, CompileError> {
    if let Some(&id) = subset_ids.get(&subset) {
        return Ok(id);
    }
    let id = subsets.len();
    if id >= MAX_STATES {
        return Err(CompileError::TooManyStates { limit: MAX_STATES });
    }
    subset_ids.insert(subset.clone(), id);
    subsets.push(subset);
    transitions.push(vec![0; width]);
    Ok(id)
}

/// Moore partition refinement.
fn minimize(
    transitions: &RawTransitions,
    accepting: &[bool],
    initial: usize,
) -> (RawTransitions, Vec<bool>, usize) {
    let n = transitions.len();
    let mut class: Vec<usize> = accepting.iter().map(|&a| usize::from(a)).collect();
    loop {
        // Signature: own class + classes of all targets.
        let mut sig_ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut next: Vec<usize> = vec![0; n];
        for s in 0..n {
            let mut sig = Vec::with_capacity(transitions[s].len() + 1);
            sig.push(class[s]);
            sig.extend(transitions[s].iter().map(|&t| class[t]));
            let id = sig_ids.len();
            let id = *sig_ids.entry(sig).or_insert(id);
            next[s] = id;
        }
        if next == class {
            break;
        }
        class = next;
    }
    let class_count = class.iter().max().map_or(0, |m| m + 1);
    let mut new_transitions: RawTransitions = vec![Vec::new(); class_count];
    let mut new_accepting = vec![false; class_count];
    for s in 0..n {
        let c = class[s];
        new_accepting[c] = accepting[s];
        if new_transitions[c].is_empty() {
            new_transitions[c] = transitions[s].iter().map(|&t| class[t]).collect();
        }
    }
    (new_transitions, new_accepting, class[initial])
}

/// Builds the final `Automaton` with compressed transitions and state
/// property flags.
fn build(
    nfa: &Nfa,
    transitions: RawTransitions,
    accepting: Vec<bool>,
    initial: usize,
) -> Automaton {
    let n = transitions.len();
    let k = nfa.label_count();

    // Co-reachability of accepting states (rejecting = not co-reachable).
    let mut co_reachable = accepting.clone();
    loop {
        let mut changed = false;
        for s in 0..n {
            if !co_reachable[s] && transitions[s].iter().any(|&t| co_reachable[t]) {
                co_reachable[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let m = nfa.index_count();
    let states: Vec<State> = (0..n)
        .map(|s| {
            let fallback = transitions[s][k + m];
            let fallback_index = transitions[s][k + m + 1];
            let explicit: Vec<(u16, StateId)> = (0..k)
                .filter(|&l| transitions[s][l] != fallback)
                .map(|l| (l as u16, StateId(transitions[s][l] as u16)))
                .collect();
            let explicit_indices: Vec<(u64, StateId)> = (0..m)
                .filter(|&j| transitions[s][k + j] != fallback_index)
                .map(|j| (nfa.indices[j], StateId(transitions[s][k + j] as u16)))
                .collect();
            let mut f = 0u8;
            if accepting[s] {
                f |= flags::ACCEPTING;
            }
            if !co_reachable[s] {
                f |= flags::REJECTING;
            }
            let fallback_rejecting = !co_reachable[fallback];
            if explicit.len() == 1 && fallback_rejecting {
                f |= flags::UNITARY;
            }
            if explicit.len() == 1
                && explicit_indices.is_empty()
                && fallback == s
                && fallback_index == s
            {
                f |= flags::WAITING;
            }
            let any_accepting = (0..k + m + 2).any(|sym| accepting[transitions[s][sym]]);
            if !any_accepting {
                f |= flags::INTERNAL;
            }
            // Array entries match through their index transitions.
            if accepting[fallback_index] {
                f |= flags::FALLBACK_ACCEPTING;
            }
            // Object members match through label transitions.
            if accepting[fallback] || (0..k).any(|l| accepting[transitions[s][l]]) {
                f |= flags::OBJECT_ACCEPTING;
            }
            if !explicit_indices.is_empty() {
                f |= flags::NEEDS_INDICES;
            }
            State {
                explicit,
                explicit_indices,
                fallback: StateId(fallback as u16),
                fallback_index: StateId(fallback_index as u16),
                flags: f,
            }
        })
        .collect();

    Automaton {
        labels: nfa.labels.clone(),
        needles: nfa
            .labels
            .iter()
            .map(|label| [b"\"", label.as_slice(), b"\""].concat())
            .collect(),
        states,
        initial: StateId(initial as u16),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(text: &str) -> Automaton {
        Automaton::compile(&Query::parse(text).unwrap()).unwrap()
    }

    /// Runs the automaton over a word of labels (`None` = array entry /
    /// non-query label).
    fn run(a: &Automaton, word: &[Option<&[u8]>]) -> StateId {
        word.iter()
            .fold(a.initial_state(), |s, l| a.transition_label(s, *l))
    }

    #[test]
    fn root_query_accepts_empty_word() {
        let a = compile("$");
        assert!(a.is_accepting(a.initial_state()));
    }

    #[test]
    fn child_chain_recognizes_exact_paths() {
        let a = compile("$.a.b");
        assert!(a.is_accepting(run(&a, &[Some(b"a"), Some(b"b")])));
        assert!(!a.is_accepting(run(&a, &[Some(b"a")])));
        assert!(a.is_rejecting(run(&a, &[Some(b"b")])));
        assert!(a.is_rejecting(run(&a, &[Some(b"a"), Some(b"b"), Some(b"c")])));
        assert!(a.is_rejecting(run(&a, &[None])));
    }

    #[test]
    fn wildcard_accepts_any_label_and_array_entries() {
        let a = compile("$.*.b");
        assert!(a.is_accepting(run(&a, &[Some(b"x"), Some(b"b")])));
        assert!(a.is_accepting(run(&a, &[None, Some(b"b")])));
        assert!(!a.is_accepting(run(&a, &[Some(b"x"), Some(b"c")])));
    }

    #[test]
    fn descendant_accepts_at_any_depth() {
        let a = compile("$..b");
        for depth in 0..5 {
            let mut word: Vec<Option<&[u8]>> = vec![Some(b"x"); depth];
            word.push(Some(b"b"));
            assert!(a.is_accepting(run(&a, &word)), "depth {depth}");
        }
        assert!(!a.is_accepting(run(&a, &[Some(b"x")])));
        // Nested matches keep accepting below an accepted node.
        assert!(a.is_accepting(run(&a, &[Some(b"b"), Some(b"x"), Some(b"b")])));
    }

    #[test]
    fn figure2_query_structure() {
        // $.a..b.*..c.* from Figure 2 of the paper.
        let a = compile("$.a..b.*..c.*");
        let accept = run(
            &a,
            &[Some(b"a"), Some(b"b"), Some(b"x"), Some(b"c"), Some(b"y")],
        );
        assert!(a.is_accepting(accept));
        // A longer path that re-matches ..c.* later also accepts.
        let deeper = run(
            &a,
            &[
                Some(b"a"),
                Some(b"z"),
                Some(b"b"),
                Some(b"x"),
                Some(b"z"),
                Some(b"c"),
                Some(b"y"),
            ],
        );
        assert!(a.is_accepting(deeper));
        // Missing the leading .a rejects forever.
        assert!(a.is_rejecting(run(&a, &[Some(b"b")])));
    }

    #[test]
    fn state_properties_for_child_prefix() {
        // $.a.b: both selector states are unitary; the initial state is
        // internal (needs two more levels).
        let a = compile("$.a.b");
        let s0 = a.initial_state();
        assert!(a.is_unitary(s0));
        assert!(a.is_internal(s0));
        assert!(!a.is_waiting(s0));
        let s1 = a.transition(s0, PathSymbol::Label(b"a"));
        assert!(a.is_unitary(s1));
        assert!(!a.is_internal(s1), "can accept in one step via b");
        assert!(!a.is_fallback_accepting(s1));
    }

    #[test]
    fn state_properties_for_descendant() {
        // $..a: initial state is waiting (single label transition, fallback
        // loops), not unitary, not internal (accepts in one step on a).
        let a = compile("$..a");
        let s0 = a.initial_state();
        assert!(a.is_waiting(s0));
        assert!(!a.is_unitary(s0));
        assert!(!a.is_internal(s0));
        let (needle, target) = a.single_explicit_needle(s0).unwrap();
        assert_eq!(needle, b"\"a\"");
        assert!(a.is_accepting(target));
        // The accepting state still waits for nested a's.
        assert!(a.is_waiting(target) || a.transition(target, PathSymbol::Label(b"a")) == target);
    }

    #[test]
    fn wildcard_fallback_is_accepting() {
        let a = compile("$.*");
        let s0 = a.initial_state();
        assert!(a.is_fallback_accepting(s0));
        assert!(a.any_transition_accepting(s0));
    }

    #[test]
    fn rejecting_sink_is_terminal() {
        let a = compile("$.a");
        let trash = a.transition(a.initial_state(), PathSymbol::Label(b"nope"));
        assert!(a.is_rejecting(trash));
        assert_eq!(a.transition(trash, PathSymbol::Label(b"a")), trash);
        assert_eq!(a.transition_label(trash, None), trash);
        assert!(a.is_internal(trash));
    }

    #[test]
    fn exponential_blowup_is_caught() {
        // ..a followed by many wildcards reconstructs the classic 2^n
        // subset blow-up (§3.1).
        let query = format!("$..a{}", ".*".repeat(20));
        let q = Query::parse(&query).unwrap();
        assert!(matches!(
            Automaton::compile(&q),
            Err(CompileError::TooManyStates { .. })
        ));
        // A modest number of wildcards still compiles.
        let ok = format!("$..a{}", ".*".repeat(8));
        assert!(Automaton::compile(&Query::parse(&ok).unwrap()).is_ok());
    }

    #[test]
    fn minimization_merges_equivalent_states() {
        // $..a..a: after the first a, looking for another a — the DFA needs
        // only 3 live states (searching-first, searching-second, accepting)
        // plus possibly none rejecting.
        let a = compile("$..a..a");
        assert!(a.state_count() <= 4);
    }

    #[test]
    fn transition_compares_raw_bytes() {
        let a = compile("$.ab");
        assert!(!a.is_rejecting(a.transition(a.initial_state(), PathSymbol::Label(b"ab"))));
        assert!(a.is_rejecting(a.transition(a.initial_state(), PathSymbol::Label(b"a"))));
        assert!(a.is_rejecting(a.transition(a.initial_state(), PathSymbol::Label(b"abc"))));
    }

    #[test]
    fn dot_output_mentions_all_states() {
        let a = compile("$.a..b");
        let dot = a.to_dot();
        assert!(dot.starts_with("digraph"));
        for i in 0..a.state_count() {
            assert!(dot.contains(&format!("q{i} ")), "missing q{i}");
        }
    }
}
