//! The `RSQ_BACKEND` override is read once per process, so this test
//! lives in its own integration-test binary: it must set the variable
//! before anything latches the detection result.
//!
//! Forcing `swar` on a SIMD-capable host is the supported way to get a
//! portable-path run (CI uses it for the differential lanes); the outputs
//! must be bit-identical to the auto-detected backend's.

use rsq_simd::{BackendKind, QuoteState, Simd, SUPERBLOCK_SIZE};

#[test]
fn rsq_backend_swar_forces_portable_backend_with_identical_output() {
    // Latch the override before the first `detect()` in this process.
    std::env::set_var("RSQ_BACKEND", "swar");
    let forced = Simd::detect();
    assert_eq!(forced.kind(), BackendKind::Swar, "RSQ_BACKEND=swar honored");

    // `with_kind` bypasses the env var — these are the backends the host
    // would otherwise pick, for the output comparison.
    let natives = BackendKind::supported().filter(|&kind| kind != BackendKind::Swar);

    let mut chunk = [0u8; SUPERBLOCK_SIZE];
    for (i, b) in chunk.iter_mut().enumerate() {
        *b = [b'"', b'\\', b'{', b'}', b'[', b']', b':', b'x'][i % 8];
    }
    let mut forced_state = QuoteState::default();
    let forced_masks = forced.classify_quotes4(&chunk, &mut forced_state);

    for kind in natives {
        let native = Simd::with_kind(kind);
        let mut state = QuoteState::default();
        assert_eq!(
            native.classify_quotes4(&chunk, &mut state),
            forced_masks,
            "forced swar output differs from {kind}"
        );
        assert_eq!(state, forced_state);
    }
}
