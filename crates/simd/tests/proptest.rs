//! Property tests: every strategy and backend must agree with the scalar
//! set-membership semantics on arbitrary byte sets and arbitrary blocks.

use proptest::prelude::*;
use rsq_simd::{BackendKind, ByteClassifier, ByteSet, Simd, BLOCK_SIZE};

fn backends() -> Vec<Simd> {
    BackendKind::supported().map(Simd::with_kind).collect()
}

proptest! {
    #[test]
    fn classifier_matches_membership(
        accepted in proptest::collection::vec(any::<u8>(), 0..40),
        block in proptest::array::uniform32(any::<u8>()),
    ) {
        // Build a full 64-byte block from the 32 sampled bytes, mirrored.
        let mut full = [0u8; BLOCK_SIZE];
        full[..32].copy_from_slice(&block);
        full[32..].copy_from_slice(&block);

        let set = ByteSet::from_bytes(&accepted);
        for classifier in [ByteClassifier::new(&set), ByteClassifier::naive(&set)] {
            for simd in backends() {
                let mask = classifier.classify_block(simd, &full);
                for (i, &b) in full.iter().enumerate() {
                    prop_assert_eq!(
                        mask >> i & 1 == 1,
                        set.contains(b),
                        "byte {:#04x} at {} (strategy {}, backend {})",
                        b, i, classifier.strategy(), simd.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_xor_is_running_parity(m in any::<u64>()) {
        let simd = Simd::detect();
        let result = simd.prefix_xor(m);
        let mut parity = 0u64;
        for i in 0..64 {
            parity ^= (m >> i) & 1;
            prop_assert_eq!(result >> i & 1, parity, "bit {}", i);
        }
    }

    #[test]
    fn eq_mask_matches_scalar(block in proptest::array::uniform32(any::<u8>()), needle in any::<u8>()) {
        let mut full = [0u8; BLOCK_SIZE];
        full[..32].copy_from_slice(&block);
        full[32..].copy_from_slice(&block);
        for simd in backends() {
            let mask = simd.eq_mask(&full, needle);
            for (i, &b) in full.iter().enumerate() {
                prop_assert_eq!(mask >> i & 1 == 1, b == needle);
            }
        }
    }

    #[test]
    fn bit_iter_round_trips(m in any::<u64>()) {
        let rebuilt = rsq_simd::BitIter::new(m).fold(0u64, |acc, i| acc | (1 << i));
        prop_assert_eq!(rebuilt, m);
    }
}
