//! The general byte classifier: strategy selection per §4.1.
//!
//! [`ByteClassifier::new`] analyses the acceptance groups of a byte set and
//! picks the cheapest correct strategy: non-overlapping tables when the
//! groups are disjoint, few-groups tables when there are at most 7 groups,
//! and a partition of few-groups lookups in the general case. Bytes with the
//! high bit set (which the `shuffle`-based lookups cannot accept) are
//! handled with supplemental equality comparisons.

use crate::groups::{AcceptanceGroups, ByteSet, TablePair};
use crate::{Backend, Block};

/// How a [`ByteClassifier`] classifies a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// One `cmpeq` per accepted byte value, OR-ed together. This is the
    /// baseline of Table 2 of the paper: cheap for very few values, linear
    /// in the number of values.
    Naive,
    /// Two nibble lookups combined with byte equality (§4.1,
    /// non-overlapping groups; ~4 cycles/block).
    NonOverlapping,
    /// Two nibble lookups combined with OR against all-ones (§4.1, few
    /// groups; ~5 cycles/block).
    FewGroups,
    /// Few-groups lookups over a partition of the groups, OR-combined
    /// (§4.1, general case; ~7 cycles/block for two parts).
    General,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Naive => "naive",
            Strategy::NonOverlapping => "non-overlapping",
            Strategy::FewGroups => "few-groups",
            Strategy::General => "general",
        };
        f.write_str(s)
    }
}

#[derive(Clone, Debug)]
enum Plan {
    Naive,
    NonOverlapping(TablePair),
    FewGroups(TablePair),
    General(Vec<TablePair>),
}

/// A compiled classifier for an arbitrary set of byte values.
///
/// Solves Problem 1 of the paper for `k = 2` buckets: given a 64-byte
/// block, produce the bitmask of positions holding accepted bytes.
///
/// # Examples
///
/// ```
/// use rsq_simd::{ByteClassifier, ByteSet, Simd, Strategy};
///
/// let whitespace = ByteClassifier::new(&ByteSet::from_bytes(b" \t\n\r"));
/// let simd = Simd::detect();
/// let mut block = [b'a'; 64];
/// block[5] = b' ';
/// block[9] = b'\n';
/// assert_eq!(whitespace.classify_block(simd, &block), (1 << 5) | (1 << 9));
/// ```
#[derive(Clone, Debug)]
pub struct ByteClassifier {
    set: ByteSet,
    plan: Plan,
    /// Accepted bytes handled by per-value `cmpeq` (all of them for the
    /// naive strategy; only bytes `>= 0x80` otherwise).
    cmpeq_bytes: Vec<u8>,
}

impl ByteClassifier {
    /// Compiles a classifier for `set`, choosing the cheapest strategy.
    #[must_use]
    pub fn new(set: &ByteSet) -> Self {
        let low_set: ByteSet = set.iter().filter(|&b| b < 0x80).collect();
        let high_bytes: Vec<u8> = set.iter().filter(|&b| b >= 0x80).collect();
        let groups = AcceptanceGroups::compute(&low_set);

        // Very small sets are cheapest with plain comparisons (Table 2:
        // the naive method wins below 5 values).
        if set.len() < 5 {
            return ByteClassifier {
                set: *set,
                plan: Plan::Naive,
                cmpeq_bytes: set.iter().collect(),
            };
        }

        let plan = if groups.is_empty() {
            Plan::Naive
        } else if !groups.any_overlapping() {
            Plan::NonOverlapping(TablePair::non_overlapping(&groups))
        } else if groups.len() <= 7 {
            Plan::FewGroups(TablePair::few_groups(groups.groups()))
        } else {
            let parts = groups
                .groups()
                .chunks(7)
                .map(TablePair::few_groups)
                .collect();
            Plan::General(parts)
        };
        ByteClassifier {
            set: *set,
            plan,
            cmpeq_bytes: high_bytes,
        }
    }

    /// Compiles a classifier that always uses the naive one-`cmpeq`-per-value
    /// strategy, regardless of set structure. Used to reproduce Table 2.
    #[must_use]
    pub fn naive(set: &ByteSet) -> Self {
        ByteClassifier {
            set: *set,
            plan: Plan::Naive,
            cmpeq_bytes: set.iter().collect(),
        }
    }

    /// The strategy this classifier was compiled to.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        match &self.plan {
            Plan::Naive => Strategy::Naive,
            Plan::NonOverlapping(_) => Strategy::NonOverlapping,
            Plan::FewGroups(_) => Strategy::FewGroups,
            Plan::General(_) => Strategy::General,
        }
    }

    /// The byte set this classifier accepts.
    #[must_use]
    pub fn byte_set(&self) -> &ByteSet {
        &self.set
    }

    /// Scalar classification of a single byte (the reference semantics).
    #[inline]
    #[must_use]
    pub fn classify(&self, byte: u8) -> bool {
        self.set.contains(byte)
    }

    /// Classifies a 64-byte block, returning the acceptance bitmask.
    #[inline(always)]
    #[must_use]
    pub fn classify_block<B: Backend>(&self, backend: B, block: &Block) -> u64 {
        let mut mask = match &self.plan {
            Plan::Naive => 0,
            Plan::NonOverlapping(t) => backend.lookup_eq_mask(block, t),
            Plan::FewGroups(t) => backend.lookup_or_mask(block, t),
            Plan::General(parts) => {
                let mut m = 0u64;
                for t in parts {
                    m |= backend.lookup_or_mask(block, t);
                }
                m
            }
        };
        for &b in &self.cmpeq_bytes {
            mask |= backend.eq_mask(block, b);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, Simd};

    fn exhaustive_check(set: &ByteSet, classifier: &ByteClassifier) {
        for simd in BackendKind::supported().map(Simd::with_kind) {
            // Lay all 256 byte values out over four blocks.
            for blk in 0..4u16 {
                let mut block = [0u8; 64];
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (blk * 64 + i as u16) as u8;
                }
                let mask = classifier.classify_block(simd, &block);
                for (i, &b) in block.iter().enumerate() {
                    assert_eq!(
                        mask >> i & 1 == 1,
                        set.contains(b),
                        "byte {b:#04x} backend {:?} strategy {}",
                        simd.kind(),
                        classifier.strategy()
                    );
                }
            }
        }
    }

    #[test]
    fn json_structural_uses_non_overlapping() {
        let set = ByteSet::from_bytes(b"{}[]:,");
        let c = ByteClassifier::new(&set);
        assert_eq!(c.strategy(), Strategy::NonOverlapping);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn tiny_sets_use_naive() {
        let set = ByteSet::from_bytes(b"{}");
        let c = ByteClassifier::new(&set);
        assert_eq!(c.strategy(), Strategy::Naive);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn overlapping_groups_use_few_groups() {
        // 0x21,0x22,0x31,0x32,0x42 — low(2) = low(3) = {1,2}, low(4) = {2}:
        // two overlapping groups.
        let set = ByteSet::from_bytes(&[0x21, 0x22, 0x31, 0x32, 0x42]);
        let c = ByteClassifier::new(&set);
        assert_eq!(c.strategy(), Strategy::FewGroups);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn many_groups_use_general() {
        // Give every upper nibble 0..=9 a distinct overlapping lower set.
        let mut set = ByteSet::new();
        for u in 0..10u8 {
            set.insert(u << 4); // shared lower nibble forces overlap
            set.insert((u << 4) | (u + 1));
        }
        let c = ByteClassifier::new(&set);
        assert_eq!(c.strategy(), Strategy::General);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn high_bytes_are_classified() {
        let set = ByteSet::from_bytes(&[b'{', b'}', b'[', b']', b':', b',', 0xE2, 0x80]);
        let c = ByteClassifier::new(&set);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn naive_strategy_is_forced() {
        let set = ByteSet::from_bytes(b"{}[]:,");
        let c = ByteClassifier::naive(&set);
        assert_eq!(c.strategy(), Strategy::Naive);
        exhaustive_check(&set, &c);
    }

    #[test]
    fn empty_set_accepts_nothing() {
        let set = ByteSet::new();
        let c = ByteClassifier::new(&set);
        let block = [b'{'; 64];
        assert_eq!(c.classify_block(Simd::detect(), &block), 0);
    }

    #[test]
    fn full_set_accepts_everything() {
        let set: ByteSet = (0u16..=255).map(|b| b as u8).collect();
        let c = ByteClassifier::new(&set);
        exhaustive_check(&set, &c);
    }
}
