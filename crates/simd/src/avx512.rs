//! AVX-512 implementations of the block primitives and superblock kernels.
//!
//! With 512-bit vectors a 64-byte block is a *single* register and byte
//! compares produce the 64-bit position mask directly
//! (`_mm512_cmpeq_epi8_mask`) — no `movemask` assembly step at all. The
//! nibble lookups still use the in-lane `shuffle` (AVX-512BW), with the
//! 16-byte tables broadcast to all four lanes, so the classification
//! sequence of §4.1 runs on 64 bytes in the same ~5 instructions the
//! paper counts for 16.
//!
//! Functions here require runtime detection of `avx512f` + `avx512bw`
//! (plus `pclmulqdq` for the prefix XOR);
//! [`BackendKind::is_supported`](crate::BackendKind::is_supported)
//! guarantees it before a backend token exists. They are `#[inline]` so
//! that they fuse into [`enter`], the backend's entry: the function the
//! generic pipeline is inlined into and the only one built with these
//! features that baseline code calls (see [`crate::Backend`]).
//!
//! Unsafety discipline (DESIGN.md §9): `unsafe_op_in_unsafe_fn` is denied,
//! so every memory-touching intrinsic and pointer offset sits in its own
//! `unsafe` block with a `SAFETY:` comment, and pointer arithmetic is
//! paired with `debug_assert!`s stating the bound it relies on.

#![cfg(target_arch = "x86_64")]

use crate::groups::TablePair;
use crate::{Block, BLOCK_SIZE};
use core::arch::x86_64::*;

/// Positions in `block` equal to `byte`.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(crate) unsafe fn eq_mask(block: &Block, byte: u8) -> u64 {
    // SAFETY: `block` is a 64-byte array, exactly one unaligned 512-bit
    // load from its base pointer.
    let src = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
    _mm512_cmpeq_epi8_mask(src, _mm512_set1_epi8(byte as i8))
}

/// Equality masks of one block against two needles in a single call.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(crate) unsafe fn eq_mask2(block: &Block, a: u8, b: u8) -> (u64, u64) {
    // SAFETY: `block` is a 64-byte array, exactly one unaligned 512-bit
    // load from its base pointer.
    let src = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
    (
        _mm512_cmpeq_epi8_mask(src, _mm512_set1_epi8(a as i8)),
        _mm512_cmpeq_epi8_mask(src, _mm512_set1_epi8(b as i8)),
    )
}

/// Broadcasts a 16-byte table to all four 128-bit lanes.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn broadcast_table(table: &[u8; 16]) -> __m512i {
    // SAFETY: `table` is a 16-byte array, exactly one unaligned 128-bit
    // load.
    let t = unsafe { _mm_loadu_si128(table.as_ptr().cast()) };
    _mm512_broadcast_i32x4(t)
}

/// Non-overlapping-groups classification of a 64-byte block (§4.1).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(crate) unsafe fn lookup_eq_mask(block: &Block, tables: &TablePair) -> u64 {
    // SAFETY: `tables.ltab`/`utab` are 16-byte arrays and `block` is a
    // 64-byte array — all three loads stay inside their sources; avx512f
    // is this fn's own contract.
    let (ltab, utab, src) = unsafe {
        (
            broadcast_table(&tables.ltab),
            broadcast_table(&tables.utab),
            _mm512_loadu_si512(block.as_ptr().cast()),
        )
    };
    let usrc = _mm512_and_si512(_mm512_srli_epi16::<4>(src), _mm512_set1_epi8(0x0F));
    let llookup = _mm512_shuffle_epi8(ltab, src);
    let ulookup = _mm512_shuffle_epi8(utab, usrc);
    _mm512_cmpeq_epi8_mask(llookup, ulookup)
}

/// Few-groups classification of a 64-byte block (§4.1).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(crate) unsafe fn lookup_or_mask(block: &Block, tables: &TablePair) -> u64 {
    // SAFETY: same bounds as `lookup_eq_mask` — 16-byte tables, 64-byte
    // block; avx512f is this fn's own contract.
    let (ltab, utab, src) = unsafe {
        (
            broadcast_table(&tables.ltab),
            broadcast_table(&tables.utab),
            _mm512_loadu_si512(block.as_ptr().cast()),
        )
    };
    let usrc = _mm512_and_si512(_mm512_srli_epi16::<4>(src), _mm512_set1_epi8(0x0F));
    let llookup = _mm512_shuffle_epi8(ltab, src);
    let ulookup = _mm512_shuffle_epi8(utab, usrc);
    let lookup = _mm512_or_si512(llookup, ulookup);
    _mm512_cmpeq_epi8_mask(lookup, _mm512_set1_epi8(-1))
}

/// Two-byte candidate scan (see the AVX2 counterpart for the contract).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
pub(crate) unsafe fn find_pair(
    hay: &[u8],
    start: usize,
    first: u8,
    last: u8,
    gap: usize,
) -> Result<usize, usize> {
    let nf = _mm512_set1_epi8(first as i8);
    let nl = _mm512_set1_epi8(last as i8);
    let mut at = start;
    while at + gap + BLOCK_SIZE <= hay.len() {
        debug_assert!(at + BLOCK_SIZE <= hay.len() && at + gap + BLOCK_SIZE <= hay.len());
        // SAFETY: the loop condition guarantees both 64-byte windows — at
        // offsets `at` and `at + gap` — end at or before `hay.len()`.
        let (a, b) = unsafe {
            (
                _mm512_loadu_si512(hay.as_ptr().add(at).cast()),
                _mm512_loadu_si512(hay.as_ptr().add(at + gap).cast()),
            )
        };
        let candidates = _mm512_cmpeq_epi8_mask(a, nf) & _mm512_cmpeq_epi8_mask(b, nl);
        if candidates != 0 {
            return Ok(at + candidates.trailing_zeros() as usize);
        }
        at += BLOCK_SIZE;
    }
    Err(at)
}

/// The AVX-512 entry: runs `f` compiled with the vector features and the
/// scalar extensions (POPCNT for `count_ones`, BMI/LZCNT for the bit
/// scans) the classifiers live on. Everything `f` inlines is built with
/// them; see [`crate::Backend`].
///
/// # Safety
///
/// The CPU must support every feature listed in the attribute.
#[target_feature(enable = "avx512f,avx512bw,pclmulqdq,popcnt,bmi1,bmi2,lzcnt")]
pub(crate) unsafe fn enter<R>(f: impl FnOnce() -> R) -> R {
    f()
}
