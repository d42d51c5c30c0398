//! The depth classifier (§4.4): block-level primitives for fast-forwarding
//! to the closing character that ends the current element.
//!
//! Only two characters are tracked (`{`/`}` or `[`/`]`), located with two
//! equality masks. Relative depth is maintained with population counts, and
//! the block-level heuristic from the paper skips a whole block whenever it
//! contains fewer closing characters than the current relative depth —
//! nowhere inside it can the depth reach zero.

use rsq_simd::BitIter;

/// A mask of the `n` lowest bits (saturating at all-ones for `n >= 64`).
#[inline(always)]
pub(crate) fn low_bits(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Scans one block's opening/closing masks for the position where the
/// relative depth drops to zero.
///
/// `depth` is the relative depth entering the block (must be `>= 1`); it is
/// updated to the depth at the end of the block (when `None` is returned)
/// or left at zero with the in-block bit position returned.
///
/// `#[inline(always)]`: its `count_ones` are one `popcnt` each only when
/// compiled inside a backend's entry (see `rsq_simd::Backend`).
#[inline(always)]
pub(crate) fn scan_block(opens: u64, closes: u64, depth: &mut usize) -> Option<u32> {
    debug_assert!(*depth >= 1);
    // Block-level heuristic: fewer closers than the current depth means the
    // depth stays positive throughout the block.
    let close_count = closes.count_ones() as usize;
    if close_count < *depth {
        *depth += opens.count_ones() as usize;
        *depth -= close_count;
        return None;
    }
    let mut prev = 0u32;
    for c in BitIter::new(closes) {
        let opens_between = opens & low_bits(c) & !low_bits(prev);
        *depth += opens_between.count_ones() as usize;
        *depth -= 1;
        if *depth == 0 {
            return Some(c);
        }
        prev = c + 1;
    }
    *depth += (opens & !low_bits(prev)).count_ones() as usize;
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masks(text: &[u8], open: u8, close: u8) -> (u64, u64) {
        let mut o = 0u64;
        let mut c = 0u64;
        for (i, &b) in text.iter().enumerate() {
            if b == open {
                o |= 1 << i;
            }
            if b == close {
                c |= 1 << i;
            }
        }
        (o, c)
    }

    #[test]
    fn finds_matching_close_in_block() {
        // The text starts right after an opening brace (depth 1) and every
        // brace in it is matched within it, so the depth never reaches 0.
        let (o, c) = masks(b"{a}{b{c}}", b'{', b'}');
        let mut depth = 1;
        assert_eq!(scan_block(o, c, &mut depth), None);
        assert_eq!(depth, 1);

        let (o, c) = masks(b"{a}}rest", b'{', b'}');
        let mut depth = 1;
        assert_eq!(scan_block(o, c, &mut depth), Some(3));
        assert_eq!(depth, 0);
    }

    #[test]
    fn close_at_position_zero() {
        let (o, c) = masks(b"}x", b'{', b'}');
        let mut depth = 1;
        assert_eq!(scan_block(o, c, &mut depth), Some(0));
    }

    #[test]
    fn heuristic_skips_block_and_updates_depth() {
        // depth 5, only 2 closers: the heuristic path must fire.
        let (o, c) = masks(b"{{}}{", b'{', b'}');
        let mut depth = 5;
        assert_eq!(scan_block(o, c, &mut depth), None);
        assert_eq!(depth, 5 + 3 - 2);
    }

    #[test]
    fn deep_descent_within_block() {
        let (o, c) = masks(b"{{{{}}}}}", b'{', b'}');
        let mut depth = 1;
        assert_eq!(scan_block(o, c, &mut depth), Some(8));
    }

    #[test]
    fn low_bits_boundaries() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(1), 1);
        assert_eq!(low_bits(63), u64::MAX >> 1);
        assert_eq!(low_bits(64), u64::MAX);
        assert_eq!(low_bits(100), u64::MAX);
    }

    /// Differential check against a scalar depth counter over random
    /// bracket soups.
    #[test]
    fn agrees_with_scalar_scan() {
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for start_depth in 1..6usize {
            for _ in 0..200 {
                let bytes: Vec<u8> = (0..64)
                    .map(|_| match next() % 4 {
                        0 => b'{',
                        1 => b'}',
                        _ => b'x',
                    })
                    .collect();
                let (o, c) = masks(&bytes, b'{', b'}');

                // Scalar reference.
                let mut sd = start_depth;
                let mut expected = None;
                let mut end_depth = start_depth;
                for (i, &b) in bytes.iter().enumerate() {
                    if b == b'{' {
                        sd += 1;
                    } else if b == b'}' {
                        sd -= 1;
                        if sd == 0 {
                            expected = Some(i as u32);
                            break;
                        }
                    }
                    end_depth = sd;
                }
                let _ = end_depth;

                let mut depth = start_depth;
                let got = scan_block(o, c, &mut depth);
                assert_eq!(got, expected);
                if expected.is_none() {
                    assert_eq!(depth, sd, "end depth mismatch");
                }
            }
        }
    }
}
