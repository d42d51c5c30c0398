//! Batch determinism under the `RSQ_BACKEND` environment override.
//!
//! The override is read once per process, so this test lives in its own
//! integration-test binary: it sets the variable before anything latches
//! the detection result, then asserts that a multi-threaded batch run on
//! the forced portable backend is byte-identical to a sequential loop
//! (which latches the same override — the point is that sharding adds no
//! divergence on top of whatever backend the process runs).

use rsq_batch::{BatchEngine, BatchOptions};
use rsq_engine::Engine;
use rsq_simd::{BackendKind, Simd};

#[test]
fn batch_is_deterministic_under_env_override() {
    // Latch the override before the first `detect()` in this process.
    std::env::set_var("RSQ_BACKEND", "swar");
    assert_eq!(Simd::detect().kind(), BackendKind::Swar);

    let docs: Vec<&[u8]> = vec![
        br#"{"a": 1, "b": {"a": [2, {"a": 3}]}}"#,
        br#"[{"a": "x"}, {"c": 0}]"#,
        br#"{"deep": {"deep": {"a": true}}}"#,
        br#"{}"#,
    ];
    let engine = Engine::from_text("$..a").unwrap();
    let expected: Vec<Vec<usize>> = docs
        .iter()
        .map(|doc| engine.try_positions(doc).unwrap())
        .collect();

    for threads in [1, 2, 8] {
        let batch = BatchEngine::new(BatchOptions {
            threads,
            ..BatchOptions::default()
        });
        let result = batch.run_slices("$..a", &docs).unwrap();
        for (i, (got, want)) in result.outcomes.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.as_ref().unwrap().matches.positions(),
                want,
                "doc {i} diverged under RSQ_BACKEND=swar, threads={threads}"
            );
        }
    }
}
