//! The structural classifier (§4.1, §4.3): locates `{ } [ ] : ,` outside
//! strings, with commas and colons toggleable on the fly.
//!
//! Uses the exact non-overlapping nibble lookup tables from the paper.
//! Because commas and colons do not share their upper nibble with any other
//! accepted symbol, each can be disabled independently by XOR-ing the upper
//! table with a precomputed mask, zeroing its group id (the lower table
//! contains only non-zero ids, so a zeroed entry can never compare equal).

use rsq_simd::{Backend, Block, TablePair};

/// The paper's upper-nibble table: group 1 = braces/brackets (uppers 5, 7),
/// group 2 = comma (upper 2), group 3 = colon (upper 3).
const UTAB: [u8; 16] = [
    0xFE, 0xFE, 0x02, 0x03, 0xFE, 0x01, 0xFE, 0x01, //
    0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE,
];

/// The paper's lower-nibble table: `:` = 0x?A → 3, `[`/`{` = 0x?B → 1,
/// `,` = 0x?C → 2, `]`/`}` = 0x?D → 1.
const LTAB: [u8; 16] = [
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, //
    0xFF, 0xFF, 0x03, 0x01, 0x02, 0x01, 0xFF, 0xFF,
];

/// XOR mask that toggles the comma group (upper nibble 2) on or off.
const TOGGLE_COMMA: [u8; 16] = [
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// XOR mask that toggles the colon group (upper nibble 3) on or off.
const TOGGLE_COLON: [u8; 16] = [
    0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// The structural classifier's current table configuration.
///
/// Fresh classifiers start with commas and colons disabled — the default
/// iteration mode of the engine, which amounts to *skipping leaves* (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StructuralTables {
    tables: TablePair,
    commas: bool,
    colons: bool,
}

impl Default for StructuralTables {
    fn default() -> Self {
        Self::new()
    }
}

impl StructuralTables {
    /// Tables with commas and colons disabled (brackets and braces only).
    #[must_use]
    pub fn new() -> Self {
        let mut utab = UTAB;
        // Start disabled: XOR the toggle masks once.
        for (u, t) in utab.iter_mut().zip(TOGGLE_COMMA) {
            *u ^= t;
        }
        for (u, t) in utab.iter_mut().zip(TOGGLE_COLON) {
            *u ^= t;
        }
        StructuralTables {
            tables: TablePair { ltab: LTAB, utab },
            commas: false,
            colons: false,
        }
    }

    /// Whether commas are currently classified.
    #[must_use]
    pub fn commas_enabled(&self) -> bool {
        self.commas
    }

    /// Whether colons are currently classified.
    #[must_use]
    pub fn colons_enabled(&self) -> bool {
        self.colons
    }

    /// Enables or disables comma classification. Returns `true` if the
    /// setting changed (the current block must then be reclassified).
    pub fn set_commas(&mut self, enabled: bool) -> bool {
        if self.commas == enabled {
            return false;
        }
        for (u, t) in self.tables.utab.iter_mut().zip(TOGGLE_COMMA) {
            *u ^= t;
        }
        self.commas = enabled;
        true
    }

    /// Enables or disables colon classification. Returns `true` if the
    /// setting changed.
    pub fn set_colons(&mut self, enabled: bool) -> bool {
        if self.colons == enabled {
            return false;
        }
        for (u, t) in self.tables.utab.iter_mut().zip(TOGGLE_COLON) {
            *u ^= t;
        }
        self.colons = enabled;
        true
    }

    /// Classifies a block: the bitmask of enabled structural characters
    /// outside strings.
    #[inline(always)]
    #[must_use]
    pub fn classify<B: Backend>(&self, backend: B, block: &Block, within_quotes: u64) -> u64 {
        backend.lookup_eq_mask(block, &self.tables) & !within_quotes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_simd::{Simd, BLOCK_SIZE};

    fn block_of(text: &[u8]) -> Block {
        let mut b = [b' '; BLOCK_SIZE];
        b[..text.len()].copy_from_slice(text);
        b
    }

    fn positions(mask: u64) -> Vec<usize> {
        (0..64).filter(|i| mask >> i & 1 == 1).collect()
    }

    #[test]
    fn default_tracks_only_brackets() {
        let simd = Simd::detect();
        let t = StructuralTables::new();
        let block = block_of(b"{\"a\": [1, 2]}x");
        // quotes mask: "a" spans 1..=2 (opening quote inside, closing out)
        let mask = t.classify(simd, &block, 0b110);
        assert_eq!(positions(mask), vec![0, 6, 11, 12]);
    }

    #[test]
    fn toggling_commas_and_colons() {
        let simd = Simd::detect();
        let mut t = StructuralTables::new();
        let block = block_of(b"{a: [1, 2]}");
        assert_eq!(positions(t.classify(simd, &block, 0)), vec![0, 4, 9, 10]);

        assert!(t.set_commas(true));
        assert!(!t.set_commas(true), "no change reported when already on");
        assert_eq!(positions(t.classify(simd, &block, 0)), vec![0, 4, 6, 9, 10]);

        assert!(t.set_colons(true));
        assert_eq!(
            positions(t.classify(simd, &block, 0)),
            vec![0, 2, 4, 6, 9, 10]
        );

        assert!(t.set_commas(false));
        assert_eq!(positions(t.classify(simd, &block, 0)), vec![0, 2, 4, 9, 10]);

        assert!(t.set_colons(false));
        assert_eq!(positions(t.classify(simd, &block, 0)), vec![0, 4, 9, 10]);
        assert!(!t.commas_enabled() && !t.colons_enabled());
    }

    #[test]
    fn quoted_characters_are_ignored() {
        let simd = Simd::detect();
        let mut t = StructuralTables::new();
        t.set_commas(true);
        t.set_colons(true);
        // Simulate the quote classifier having marked a string region.
        let block = block_of(b"\"{,:]\" : 1");
        let within = 0b011111; // positions 0..=4 inside the string
        assert_eq!(positions(t.classify(simd, &block, within)), vec![7]);
    }

    #[test]
    fn all_256_bytes_classify_like_membership() {
        let simd = Simd::detect();
        for (commas, colons) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut t = StructuralTables::new();
            t.set_commas(commas);
            t.set_colons(colons);
            for blk in 0..4u16 {
                let mut block = [0u8; BLOCK_SIZE];
                for (i, b) in block.iter_mut().enumerate() {
                    *b = (blk * 64 + i as u16) as u8;
                }
                let mask = t.classify(simd, &block, 0);
                for (i, &b) in block.iter().enumerate() {
                    let expected = matches!(b, b'{' | b'}' | b'[' | b']')
                        || (b == b',' && commas)
                        || (b == b':' && colons);
                    assert_eq!(
                        mask >> i & 1 == 1,
                        expected,
                        "byte {b:#04x} commas={commas} colons={colons}"
                    );
                }
            }
        }
    }
}
