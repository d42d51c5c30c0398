//! Robustness: the streaming engines must never panic, whatever bytes they
//! are fed — malformed JSON, truncations, binary garbage — under every
//! configuration. Results on invalid input are unspecified; crashes are
//! bugs. Case `n` draws its input from `StdRng::seed_from_u64(n)`, and a
//! panic is reported with that case and its input. The deterministic
//! structural-garbage cases are in `tests/robustness_deterministic.rs`.

mod common;

use common::engines;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq::baselines::{SkiEngine, SurferEngine};
use rsq::datagen::{Dataset, GenConfig};
use rsq::Engine;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 128;

/// Counts `bytes` with every engine, and fails naming `case` if one
/// panics.
fn count_all(engines: &[Engine], bytes: &[u8], case: &str) {
    let counted = catch_unwind(AssertUnwindSafe(|| {
        for engine in engines {
            let _ = engine.count(bytes);
        }
    }));
    let input = String::from_utf8_lossy(bytes);
    assert!(counted.is_ok(), "{case}: an engine panicked on {input:?}");
}

#[test]
fn never_panics_on_garbage() {
    let engines = engines();
    let surfer = SurferEngine::from_text("$..a").unwrap();
    let ski = SkiEngine::from_text("$.a.*").unwrap();
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let bytes: Vec<u8> = (0..rng.gen_range(0..512)).map(|_| rng.gen()).collect();
        count_all(&engines, &bytes, &format!("case {case}"));
        let baselines = catch_unwind(AssertUnwindSafe(|| {
            (surfer.count(&bytes), ski.count(&bytes))
        }));
        assert!(
            baselines.is_ok(),
            "case {case}: a baseline panicked on {bytes:?}"
        );
    }
}

#[test]
fn never_panics_on_truncated_json() {
    let engines = engines();
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        // Truncate a VALID document anywhere in its first 200 bytes.
        let cut = rng.gen_range(0..200);
        let seed = rng.gen();
        let doc = Dataset::TwitterSmall.generate(&GenConfig {
            target_bytes: 2_000,
            seed,
        });
        let truncated = &doc.as_bytes()[..cut.min(doc.len())];
        count_all(&engines, truncated, &format!("case {case}"));
    }
}

#[test]
fn never_panics_on_json_with_bit_flips() {
    let engines = engines();
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let seed = rng.gen();
        let doc = Dataset::Crossref.generate(&GenConfig {
            target_bytes: 1_500,
            seed,
        });
        let mut bytes = doc.into_bytes();
        for _ in 0..rng.gen_range(1..8) {
            let pos = rng.gen_range(0..2000) % bytes.len();
            bytes[pos] ^= 1 << rng.gen_range(0..8);
        }
        count_all(&engines, &bytes, &format!("case {case}"));
    }
}
