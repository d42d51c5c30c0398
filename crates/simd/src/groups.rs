//! Acceptance-set and acceptance-group analysis (Definitions 1–3 of §4.1).
//!
//! A binary classification function over bytes is represented as a
//! [`ByteSet`]. Splitting each byte into an upper and lower nibble induces
//! *acceptance groups*: maximal sets of upper nibbles that accept the same
//! set of lower nibbles. The structure of these groups decides which
//! classification strategy applies (see [`crate::ByteClassifier`]).

/// A set of byte values, i.e. a binary classification function
/// `f : {0x00, …, 0xFF} → {0, 1}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ByteSet([u64; 4]);

impl ByteSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        ByteSet([0; 4])
    }

    /// Builds a set from a slice of byte values (duplicates are fine).
    ///
    /// # Examples
    ///
    /// ```
    /// let set = rsq_simd::ByteSet::from_bytes(b"{}[]:,");
    /// assert!(set.contains(b'{'));
    /// assert!(!set.contains(b'x'));
    /// assert_eq!(set.len(), 6);
    /// ```
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut set = Self::new();
        for &b in bytes {
            set.insert(b);
        }
        set
    }

    /// Adds a byte to the set.
    pub fn insert(&mut self, byte: u8) {
        self.0[(byte >> 6) as usize] |= 1u64 << (byte & 63);
    }

    /// Removes a byte from the set.
    pub fn remove(&mut self, byte: u8) {
        self.0[(byte >> 6) as usize] &= !(1u64 << (byte & 63));
    }

    /// Tests membership.
    #[inline]
    #[must_use]
    pub fn contains(&self, byte: u8) -> bool {
        self.0[(byte >> 6) as usize] & (1u64 << (byte & 63)) != 0
    }

    /// Number of bytes in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Iterates over the member bytes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..=255).map(|b| b as u8).filter(|&b| self.contains(b))
    }

    /// The *acceptance set* `low(u)` of upper nibble `u` (Definition 1): the
    /// set of lower nibbles `l` such that `(u, l)` is accepted, as a 16-bit
    /// mask.
    #[must_use]
    pub fn low(&self, upper: u8) -> u16 {
        debug_assert!(upper < 16);
        let mut mask = 0u16;
        for l in 0..16u8 {
            if self.contains((upper << 4) | l) {
                mask |= 1 << l;
            }
        }
        mask
    }
}

impl std::fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|b| format!("{b:#04x}")))
            .finish()
    }
}

impl FromIterator<u8> for ByteSet {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut set = Self::new();
        for b in iter {
            set.insert(b);
        }
        set
    }
}

/// An acceptance group (Definition 2): a maximal set of upper nibbles with
/// identical acceptance sets, paired with that acceptance set.
///
/// Both fields are 16-bit nibble masks (bit *n* set ⇔ nibble *n* is in the
/// set). Only groups with a non-empty acceptance set are materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Group {
    /// Upper nibbles in the group (`U` in the paper).
    pub uppers: u16,
    /// Accepted lower nibbles (`L` in the paper).
    pub lowers: u16,
}

/// The set of all non-empty acceptance groups of a [`ByteSet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptanceGroups {
    groups: Vec<Group>,
}

impl AcceptanceGroups {
    /// Computes the acceptance groups of `set`.
    ///
    /// # Examples
    ///
    /// The example from §4.1 of the paper — bytes `a1, a2, b1, b2, c2` form
    /// two overlapping groups:
    ///
    /// ```
    /// use rsq_simd::{AcceptanceGroups, ByteSet};
    /// let set = ByteSet::from_bytes(&[0xa1, 0xa2, 0xb1, 0xb2, 0xc2]);
    /// let groups = AcceptanceGroups::compute(&set);
    /// assert_eq!(groups.len(), 2);
    /// assert!(groups.any_overlapping());
    /// ```
    #[must_use]
    pub fn compute(set: &ByteSet) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        for u in 0..16u8 {
            let lowers = set.low(u);
            if lowers == 0 {
                continue;
            }
            match groups.iter_mut().find(|g| g.lowers == lowers) {
                Some(g) => g.uppers |= 1 << u,
                None => groups.push(Group {
                    uppers: 1 << u,
                    lowers,
                }),
            }
        }
        AcceptanceGroups { groups }
    }

    /// Number of non-empty groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Returns `true` if there are no non-empty groups (empty byte set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The groups, in order of first appearance by upper nibble.
    #[must_use]
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Returns `true` if any two groups are *overlapping* (Definition 3):
    /// distinct upper-nibble sets whose acceptance sets intersect.
    #[must_use]
    pub fn any_overlapping(&self) -> bool {
        for (i, a) in self.groups.iter().enumerate() {
            for b in &self.groups[i + 1..] {
                if a.lowers & b.lowers != 0 {
                    return true;
                }
            }
        }
        false
    }
}

/// A pair of 16-entry nibble lookup tables, the precomputed constants of a
/// shuffle-based classifier.
///
/// `ltab` is indexed by the lower nibble of an input byte, `utab` by its
/// upper nibble. How the two lookups combine depends on the strategy:
/// equality for [`crate::Backend::lookup_eq_mask`], OR-to-all-ones for
/// [`crate::Backend::lookup_or_mask`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TablePair {
    /// Lower-nibble lookup table.
    pub ltab: [u8; 16],
    /// Upper-nibble lookup table.
    pub utab: [u8; 16],
}

impl TablePair {
    /// Builds non-overlapping-case tables from groups (which must not
    /// overlap). Group *i* (0-based) is encoded as value `i + 1`; unused
    /// `utab` entries get `0xFE` and unused `ltab` entries `0xFF`, as in
    /// the paper.
    ///
    /// # Panics
    ///
    /// Panics if the groups overlap (two groups share a lower nibble).
    #[must_use]
    pub fn non_overlapping(groups: &AcceptanceGroups) -> Self {
        assert!(
            !groups.any_overlapping(),
            "non-overlapping table construction requires disjoint acceptance sets"
        );
        assert!(groups.len() <= 253, "too many groups");
        let mut ltab = [0xFFu8; 16];
        let mut utab = [0xFEu8; 16];
        for (i, g) in groups.groups().iter().enumerate() {
            let id = (i + 1) as u8;
            for n in 0..16 {
                if g.uppers & (1 << n) != 0 {
                    utab[n as usize] = id;
                }
                if g.lowers & (1 << n) != 0 {
                    ltab[n as usize] = id;
                }
            }
        }
        TablePair { ltab, utab }
    }

    /// Builds few-groups-case tables from at most 7 groups.
    ///
    /// Group *i* uses bit *i*: `utab[u] = 0xFF ^ (1 << i)` for `u ∈ Uᵢ`,
    /// `ltab[l]` ORs `1 << i` for every `i` with `l ∈ Lᵢ`. A byte is
    /// accepted iff the OR of its two lookups is `0xFF`.
    ///
    /// The paper allows 8 groups; we cap at 7 so that upper nibbles outside
    /// every group (mapped to `0x00`) can never combine with a full `ltab`
    /// entry to produce a false positive, and so that bit 7 acts as an
    /// unforgeable "has a group" marker.
    ///
    /// # Panics
    ///
    /// Panics if more than 7 groups are supplied.
    #[must_use]
    pub fn few_groups(groups: &[Group]) -> Self {
        assert!(
            groups.len() <= 7,
            "few-groups tables support at most 7 groups"
        );
        let mut ltab = [0u8; 16];
        let mut utab = [0u8; 16];
        for (i, g) in groups.iter().enumerate() {
            for n in 0..16 {
                if g.uppers & (1 << n) != 0 {
                    utab[n as usize] = 0xFF ^ (1 << i);
                }
                if g.lowers & (1 << n) != 0 {
                    ltab[n as usize] |= 1 << i;
                }
            }
        }
        TablePair { ltab, utab }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byteset_roundtrip() {
        let mut set = ByteSet::new();
        assert!(set.is_empty());
        set.insert(0);
        set.insert(255);
        set.insert(b'{');
        assert_eq!(set.len(), 3);
        assert!(set.contains(0) && set.contains(255) && set.contains(b'{'));
        set.remove(255);
        assert!(!set.contains(255));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, b'{']);
    }

    #[test]
    fn low_acceptance_sets() {
        // Bytes 0x3a (colon) and 0x2c (comma).
        let set = ByteSet::from_bytes(&[0x3a, 0x2c]);
        assert_eq!(set.low(0x3), 1 << 0xa);
        assert_eq!(set.low(0x2), 1 << 0xc);
        assert_eq!(set.low(0x5), 0);
    }

    #[test]
    fn json_structural_groups_are_non_overlapping() {
        // Table 1 of the paper: { } [ ] : ,  →  groups
        // ⟨{5,7},{b,d}⟩, ⟨{2},{c}⟩, ⟨{3},{a}⟩ — non-overlapping.
        let set = ByteSet::from_bytes(b"{}[]:,");
        let groups = AcceptanceGroups::compute(&set);
        assert_eq!(groups.len(), 3);
        assert!(!groups.any_overlapping());
        let expect = [
            Group {
                uppers: (1 << 2),
                lowers: 1 << 0xc,
            },
            Group {
                uppers: (1 << 3),
                lowers: 1 << 0xa,
            },
            Group {
                uppers: (1 << 5) | (1 << 7),
                lowers: (1 << 0xb) | (1 << 0xd),
            },
        ];
        let mut got = groups.groups().to_vec();
        got.sort_by_key(|g| g.uppers);
        assert_eq!(got, expect);
    }

    #[test]
    fn paper_overlapping_example() {
        let set = ByteSet::from_bytes(&[0xa1, 0xa2, 0xb1, 0xb2, 0xc2]);
        let groups = AcceptanceGroups::compute(&set);
        assert_eq!(groups.len(), 2);
        assert!(groups.any_overlapping());
    }

    #[test]
    fn non_overlapping_tables_match_paper_for_json() {
        let set = ByteSet::from_bytes(b"{}[]:,");
        let groups = AcceptanceGroups::compute(&set);
        let t = TablePair::non_overlapping(&groups);
        // Check classification semantics byte-by-byte rather than the exact
        // enumeration (group numbering order differs from the paper's).
        for b in 0u16..=255 {
            let b = b as u8;
            let accepted = b < 0x80 && t.ltab[(b & 0xF) as usize] == t.utab[(b >> 4) as usize];
            assert_eq!(accepted, set.contains(b), "byte {b:#04x}");
        }
    }

    #[test]
    #[should_panic(expected = "non-overlapping")]
    fn non_overlapping_rejects_overlap() {
        let set = ByteSet::from_bytes(&[0xa1, 0xa2, 0xb1, 0xb2, 0xc2]);
        let groups = AcceptanceGroups::compute(&set);
        let _ = TablePair::non_overlapping(&groups);
    }

    #[test]
    fn few_groups_tables_classify_correctly() {
        let set = ByteSet::from_bytes(&[0x11, 0x12, 0x21, 0x22, 0x32]);
        let groups = AcceptanceGroups::compute(&set);
        assert!(groups.len() <= 7);
        let t = TablePair::few_groups(groups.groups());
        for b in 0u16..=255 {
            let b = b as u8;
            let accepted =
                b < 0x80 && (t.ltab[(b & 0xF) as usize] | t.utab[(b >> 4) as usize]) == 0xFF;
            assert_eq!(accepted, set.contains(b), "byte {b:#04x}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 7")]
    fn few_groups_rejects_too_many() {
        let groups: Vec<Group> = (0..8)
            .map(|i| Group {
                uppers: 1 << i,
                lowers: 1 << i,
            })
            .collect();
        let _ = TablePair::few_groups(&groups);
    }
}
