//! Randomized differential sweep — the companion to `corpus.rs`: every
//! target over seeded random inputs, alternating raw bytes and structured
//! JSON. Tier-1 runs a short sweep in a debug build; with `--features
//! slow-tests` the sweep is 10 000 rounds a target, which ci.sh's fuzz
//! lane runs in release (`cargo test -p rsq-difftest --release --features
//! slow-tests --test random`).

use rsq_difftest::{random_input, random_json, Target, XorShift64};

/// Fixed seed so a failure here reproduces byte-for-byte.
const SEED: u64 = 0x000D_D5EE_D50F_F00D;

/// Random inputs per target. The long sweep's 70 000 in all are more than
/// the 60 291 the time-boxed driver it replaced ran in its 30 s.
const ROUNDS: u32 = if cfg!(feature = "slow-tests") {
    10_000
} else if cfg!(miri) {
    2
} else {
    TIER1_ROUNDS
};

/// The tier-1 sweep: about two seconds of a debug build's time, three
/// quarters of them `reader_diff`'s.
const TIER1_ROUNDS: u32 = 64;

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
