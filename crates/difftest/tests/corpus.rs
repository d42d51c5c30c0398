//! Tier-1 differential gate: every corpus seed must produce bit-identical
//! results across every backend the host supports, for every target.
//!
//! This is the deterministic slice of the fuzzing setup (DESIGN.md §9) —
//! fast enough for `cargo test -q`, with the corpus doubling as the
//! regression store: every input that ever exposed a divergence gets a
//! seed file under `fuzz/corpus/<target>/`.

use rsq_difftest::{load_corpus, run_corpus, Target};

#[test]
fn corpus_is_nonempty_for_every_target() {
    for target in Target::ALL {
        let seeds = load_corpus(target);
        assert!(
            !seeds.is_empty(),
            "no corpus seeds for target `{}` — fuzz/corpus/ missing?",
            target.name()
        );
    }
}

#[test]
fn classifier_corpus_runs_clean() {
    let n = run_corpus(Target::Classifier).unwrap_or_else(|m| panic!("{m:?}"));
    assert!(n > 0);
}

#[test]
fn quotes_corpus_runs_clean() {
    let n = run_corpus(Target::Quotes).unwrap_or_else(|m| panic!("{m:?}"));
    assert!(n > 0);
}

#[test]
fn depth_corpus_runs_clean() {
    let n = run_corpus(Target::Depth).unwrap_or_else(|m| panic!("{m:?}"));
    assert!(n > 0);
}

#[test]
fn engine_corpus_runs_clean() {
    let n = run_corpus(Target::Engine).unwrap_or_else(|m| panic!("{m:?}"));
    assert!(n > 0);
}

#[test]
fn reader_corpus_runs_clean() {
    let n = run_corpus(Target::Reader).unwrap_or_else(|m| panic!("{m:?}"));
    assert!(n > 0);
}

#[test]
fn window_edges_stream_like_the_slice() {
    // Every offset of the features against the smallest windows' edges.
    for doc in rsq_difftest::window_edge_documents(0..40) {
        assert!(
            rsq_json::parse(&doc).is_ok(),
            "{}",
            String::from_utf8_lossy(&doc)
        );
        rsq_difftest::check_windows(&doc).unwrap_or_else(|m| panic!("{m:?}"));
    }
}
