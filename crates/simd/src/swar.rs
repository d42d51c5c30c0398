//! Portable scalar/SWAR fallback implementations of the block primitives.
//!
//! These are the reference semantics for the vector implementations in
//! [`crate::avx2`] and [`crate::avx512`]; the backends are differentially
//! tested against each other. The simple per-byte loops below are written so that LLVM can
//! autovectorize them on targets with any vector ISA, but correctness never
//! depends on that.

use crate::groups::TablePair;
use crate::Block;

/// Positions in `block` equal to `byte`, as a 64-bit mask.
#[inline(never)]
pub(crate) fn eq_mask(block: &Block, byte: u8) -> u64 {
    let mut mask = 0u64;
    for (i, &b) in block.iter().enumerate() {
        mask |= u64::from(b == byte) << i;
    }
    mask
}

/// Non-overlapping-groups classification (equality combination).
///
/// Matches the AVX2 `shuffle` semantics: bytes with the high bit set are
/// never accepted.
#[inline(never)]
pub(crate) fn lookup_eq_mask(block: &Block, tables: &TablePair) -> u64 {
    let mut mask = 0u64;
    for (i, &b) in block.iter().enumerate() {
        let low = tables.ltab[(b & 0x0F) as usize];
        let up = tables.utab[(b >> 4) as usize];
        let hit = b < 0x80 && low == up;
        mask |= u64::from(hit) << i;
    }
    mask
}

/// Few-groups classification (OR-to-all-ones combination).
///
/// Matches the AVX2 `shuffle` semantics: bytes with the high bit set are
/// never accepted.
#[inline(never)]
pub(crate) fn lookup_or_mask(block: &Block, tables: &TablePair) -> u64 {
    let mut mask = 0u64;
    for (i, &b) in block.iter().enumerate() {
        let low = tables.ltab[(b & 0x0F) as usize];
        let up = tables.utab[(b >> 4) as usize];
        let hit = b < 0x80 && (low | up) == 0xFF;
        mask |= u64::from(hit) << i;
    }
    mask
}

/// Equality masks of one block against two needles.
pub(crate) fn eq_mask2(block: &Block, a: u8, b: u8) -> (u64, u64) {
    (eq_mask(block, a), eq_mask(block, b))
}

/// Scalar candidate scan matching the AVX2 `find_pair` contract:
/// `Ok(candidate)` or `Err(first unchecked position)`.
#[inline(never)]
pub(crate) fn find_pair(
    hay: &[u8],
    start: usize,
    first: u8,
    last: u8,
    gap: usize,
) -> Result<usize, usize> {
    let mut at = start;
    while at + gap + crate::BLOCK_SIZE <= hay.len() {
        if hay[at] == first && hay[at + gap] == last {
            return Ok(at);
        }
        at += 1;
    }
    Err(at)
}

/// Prefix XOR by log-shifting: bit *i* of the result is the XOR of bits
/// `0..=i` of `m`.
pub(crate) fn prefix_xor(m: u64) -> u64 {
    let mut x = m;
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// The portable entry. There is no instruction set to switch to; it
/// exists so that a routine wrapped in [`crate::Backend::enter`] is one
/// function here as well, not a copy per call site.
#[inline(never)]
pub(crate) fn enter<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_xor_matches_naive() {
        let cases = [0u64, 1, 0b1010, u64::MAX, 0x8000_0000_0000_0001];
        for m in cases {
            let mut naive = 0u64;
            let mut acc = 0u64;
            for i in 0..64 {
                acc ^= (m >> i) & 1;
                naive |= acc << i;
            }
            assert_eq!(prefix_xor(m), naive, "mask {m:#x}");
        }
    }

    #[test]
    fn eq_mask_empty_block() {
        assert_eq!(eq_mask(&[0u8; 64], b'"'), 0);
        assert_eq!(eq_mask(&[b'"'; 64], b'"'), u64::MAX);
    }
}
