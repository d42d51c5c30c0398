//! Randomized differential sweep — the slow companion to `corpus.rs`.
//!
//! Gated behind `--features slow-tests` so tier-1 stays fast; ci.sh's
//! fuzz lane runs it in release (`cargo test -p rsq-difftest --release
//! --features slow-tests --test random`).
#![cfg(feature = "slow-tests")]

use rsq_difftest::{random_input, random_json, Target, XorShift64};

/// Fixed seed so a failure here reproduces byte-for-byte.
const SEED: u64 = 0x0DD5_EED5_0F_F00D;

/// Random inputs per target, alternating raw bytes and structured JSON:
/// 70 000 in all, more than the 60 291 the time-boxed driver this sweep
/// replaced ran in its 30 s.
const ROUNDS: u32 = 10_000;

#[test]
fn random_inputs_agree_across_backends() {
    for target in Target::ALL {
        let mut rng = XorShift64::new(SEED ^ target.name().len() as u64);
        for round in 0..ROUNDS {
            let input = if round % 2 == 0 {
                random_input(&mut rng, 2048)
            } else {
                random_json(&mut rng, 8)
            };
            if let Err(m) = target.check(&input) {
                panic!("target {} round {round}: {m:?}", target.name());
            }
        }
    }
}
