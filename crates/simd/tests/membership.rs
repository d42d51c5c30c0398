//! Every strategy and backend must agree with the scalar set-membership
//! semantics on random byte sets and random blocks. Case `n` draws its
//! input from `StdRng::seed_from_u64(n)`, so a failure names the seed that
//! replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsq_simd::{BackendKind, ByteClassifier, ByteSet, Simd, BLOCK_SIZE};

/// Few cases under Miri, which interprets every one.
const CASES: u64 = if cfg!(miri) { 4 } else { 256 };

fn backends() -> Vec<Simd> {
    BackendKind::supported().map(Simd::with_kind).collect()
}

/// A block of 32 random bytes, repeated.
fn mirrored_block(rng: &mut StdRng) -> [u8; BLOCK_SIZE] {
    let half: Vec<u8> = (0..BLOCK_SIZE / 2).map(|_| rng.gen()).collect();
    let mut full = [0u8; BLOCK_SIZE];
    full[..32].copy_from_slice(&half);
    full[32..].copy_from_slice(&half);
    full
}

#[test]
fn classifier_matches_membership() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let accepted: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
        let full = mirrored_block(rng);
        let set = ByteSet::from_bytes(&accepted);
        for classifier in [ByteClassifier::new(&set), ByteClassifier::naive(&set)] {
            for simd in backends() {
                let mask = classifier.classify_block(simd, &full);
                for (i, &b) in full.iter().enumerate() {
                    assert_eq!(
                        mask >> i & 1 == 1,
                        set.contains(b),
                        "case {case}: byte {b:#04x} at {i} (strategy {}, backend {}), set {accepted:?}",
                        classifier.strategy(),
                        simd.kind()
                    );
                }
            }
        }
    }
}

#[test]
fn prefix_xor_is_running_parity() {
    let simd = Simd::detect();
    for case in 0..CASES {
        let m: u64 = StdRng::seed_from_u64(case).gen();
        let result = simd.prefix_xor(m);
        let mut parity = 0u64;
        for i in 0..64 {
            parity ^= (m >> i) & 1;
            assert_eq!(result >> i & 1, parity, "case {case}: bit {i} of {m:#018x}");
        }
    }
}

#[test]
fn eq_mask_matches_scalar() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let full = mirrored_block(rng);
        let needle: u8 = rng.gen();
        for simd in backends() {
            let mask = simd.eq_mask(&full, needle);
            for (i, &b) in full.iter().enumerate() {
                assert_eq!(
                    mask >> i & 1 == 1,
                    b == needle,
                    "case {case}: {needle:#04x} at {i} (backend {}) in {full:?}",
                    simd.kind()
                );
            }
        }
    }
}

#[test]
fn bit_iter_round_trips() {
    for case in 0..CASES {
        let m: u64 = StdRng::seed_from_u64(case).gen();
        let rebuilt = rsq_simd::BitIter::new(m).fold(0u64, |acc, i| acc | (1 << i));
        assert_eq!(rebuilt, m, "case {case}");
    }
}
