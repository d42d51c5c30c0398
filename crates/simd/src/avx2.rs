//! AVX2 implementations of the block primitives and superblock kernels.
//!
//! Every function in this module is compiled with `target_feature(avx2)`
//! (plus `pclmulqdq` where needed) and must only be called after runtime
//! feature detection —
//! [`BackendKind::is_supported`](crate::BackendKind::is_supported)
//! guarantees it before a backend token exists. Functions are `#[inline]`
//! so that they fuse into [`enter`], the backend's entry: the function
//! the generic pipeline is inlined into and the only one built with these
//! features that baseline code calls (see [`crate::Backend`]). Called
//! through [`crate::Simd`]'s per-call `match` instead, each is an
//! out-of-line call.
//!
//! Unsafety discipline (DESIGN.md §9): a kernel that takes only references
//! and values is a safe `#[target_feature]` fn, so the compiler rejects a
//! call from code built without its features unless the call sits in an
//! `unsafe` block (whose `SAFETY:` comment cites the detection); its
//! `# Safety` section is that caller's obligation. Inside, register-only
//! intrinsics are safe, and every load and pointer offset sits in its own
//! `unsafe` block with a `SAFETY:` comment.

#![cfg(target_arch = "x86_64")]

use crate::groups::TablePair;
use crate::{Block, BLOCK_SIZE};
use core::arch::x86_64::*;

/// Positions in `block` equal to `byte`, as a 64-bit mask.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn eq_mask(block: &Block, byte: u8) -> u64 {
    // SAFETY: `block` is a 64-byte array, so 64 bytes are readable from
    // its base pointer; this fn enables avx2 itself.
    unsafe { eq_mask_ptr(block.as_ptr(), _mm256_set1_epi8(byte as i8)) }
}

/// Equality mask for 64 bytes at `ptr` against a pre-broadcast needle.
///
/// # Safety
///
/// The CPU must support AVX2, and `ptr` must be valid for reads of
/// [`BLOCK_SIZE`] (64) bytes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn eq_mask_ptr(ptr: *const u8, needle: __m256i) -> u64 {
    // SAFETY: the caller provides 64 readable bytes at `ptr`.
    let lo = unsafe { _mm256_loadu_si256(ptr.cast()) };
    // SAFETY: as above — offset 32 keeps this load inside those 64 bytes.
    let hi = unsafe { _mm256_loadu_si256(ptr.add(32).cast()) };
    let lo_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, needle)) as u32;
    let hi_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, needle)) as u32;
    u64::from(lo_mask) | (u64::from(hi_mask) << 32)
}

/// Equality masks of one block against two needles in a single call.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn eq_mask2(block: &Block, a: u8, b: u8) -> (u64, u64) {
    let na = _mm256_set1_epi8(a as i8);
    let nb = _mm256_set1_epi8(b as i8);
    // SAFETY: `block` is a 64-byte array — both reads stay inside it.
    unsafe {
        (
            eq_mask_ptr(block.as_ptr(), na),
            eq_mask_ptr(block.as_ptr(), nb),
        )
    }
}

/// Broadcasts a 16-byte table to both 128-bit lanes of a 256-bit vector.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
fn broadcast_table(table: &[u8; 16]) -> __m256i {
    // SAFETY: `table` is a 16-byte array, exactly one unaligned 128-bit
    // load.
    let t = unsafe { _mm_loadu_si128(table.as_ptr().cast()) };
    _mm256_broadcastsi128_si256(t)
}

/// The paper's 5-instruction non-overlapping-groups classification for one
/// 32-byte vector: two shuffles, a simulated per-byte right shift, and a
/// byte equality compare.
///
/// # Safety
///
/// The CPU must support AVX2. Pure register arithmetic — no memory access.
#[inline]
#[target_feature(enable = "avx2")]
fn lookup_eq_vec(src: __m256i, ltab: __m256i, utab: __m256i) -> __m256i {
    let usrc = _mm256_and_si256(_mm256_srli_epi16::<4>(src), _mm256_set1_epi8(0x0F));
    // Bytes with the high bit set zero their lane in `llookup`; since group
    // ids are >= 1 and the utab filler is 0xFE, such bytes never compare
    // equal — exactly the "upper nibbles of b are zeroed" caveat of §4.1.
    let llookup = _mm256_shuffle_epi8(ltab, src);
    let ulookup = _mm256_shuffle_epi8(utab, usrc);
    _mm256_cmpeq_epi8(llookup, ulookup)
}

/// The few-groups variant: OR the lookups and compare against all-ones.
///
/// # Safety
///
/// The CPU must support AVX2. Pure register arithmetic — no memory access.
#[inline]
#[target_feature(enable = "avx2")]
fn lookup_or_vec(src: __m256i, ltab: __m256i, utab: __m256i) -> __m256i {
    let usrc = _mm256_and_si256(_mm256_srli_epi16::<4>(src), _mm256_set1_epi8(0x0F));
    let llookup = _mm256_shuffle_epi8(ltab, src);
    let ulookup = _mm256_shuffle_epi8(utab, usrc);
    let lookup = _mm256_or_si256(llookup, ulookup);
    _mm256_cmpeq_epi8(lookup, _mm256_set1_epi8(-1))
}

/// Non-overlapping-groups classification of a 64-byte block.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn lookup_eq_mask(block: &Block, tables: &TablePair) -> u64 {
    let ltab = broadcast_table(&tables.ltab);
    let utab = broadcast_table(&tables.utab);
    // SAFETY: `block` is a 64-byte array, so the loads at offsets 0 and
    // 32 stay inside it.
    let (lo, hi) = unsafe {
        (
            _mm256_loadu_si256(block.as_ptr().cast()),
            _mm256_loadu_si256(block.as_ptr().add(32).cast()),
        )
    };
    let lo_mask = _mm256_movemask_epi8(lookup_eq_vec(lo, ltab, utab)) as u32;
    let hi_mask = _mm256_movemask_epi8(lookup_eq_vec(hi, ltab, utab)) as u32;
    u64::from(lo_mask) | (u64::from(hi_mask) << 32)
}

/// Few-groups classification of a 64-byte block.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn lookup_or_mask(block: &Block, tables: &TablePair) -> u64 {
    let ltab = broadcast_table(&tables.ltab);
    let utab = broadcast_table(&tables.utab);
    // SAFETY: as in `lookup_eq_mask`, both loads stay inside the 64-byte
    // block.
    let (lo, hi) = unsafe {
        (
            _mm256_loadu_si256(block.as_ptr().cast()),
            _mm256_loadu_si256(block.as_ptr().add(32).cast()),
        )
    };
    let lo_mask = _mm256_movemask_epi8(lookup_or_vec(lo, ltab, utab)) as u32;
    let hi_mask = _mm256_movemask_epi8(lookup_or_vec(hi, ltab, utab)) as u32;
    u64::from(lo_mask) | (u64::from(hi_mask) << 32)
}

/// Prefix XOR via carry-less multiplication by all-ones (§4.2).
///
/// # Safety
///
/// The CPU must support PCLMULQDQ (and SSE2, which is baseline on x86-64).
#[inline]
#[target_feature(enable = "pclmulqdq")]
pub(crate) fn prefix_xor_clmul(m: u64) -> u64 {
    let v = _mm_set_epi64x(0, m as i64);
    let ones = _mm_set1_epi8(-1);
    let product = _mm_clmulepi64_si128::<0>(v, ones);
    _mm_cvtsi128_si64(product) as u64
}

/// Finds the first position `p >= start` with `hay[p] == first` and
/// `hay[p + gap] == last`, scanning only the region where a full 64-byte
/// window fits. On success returns `Ok(candidate)` — an *unverified*
/// candidate the caller must confirm (re-entering with `start = p + 1` on
/// a false positive). When the vector region is exhausted, returns
/// `Err(first unchecked position)` for the caller's scalar tail.
///
/// # Safety
///
/// The CPU must support AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(crate) fn find_pair(
    hay: &[u8],
    start: usize,
    first: u8,
    last: u8,
    gap: usize,
) -> Result<usize, usize> {
    let nf = _mm256_set1_epi8(first as i8);
    let nl = _mm256_set1_epi8(last as i8);
    let mut at = start;
    while at + gap + BLOCK_SIZE <= hay.len() {
        debug_assert!(at + BLOCK_SIZE <= hay.len() && at + gap + BLOCK_SIZE <= hay.len());
        // SAFETY: the loop condition guarantees both 64-byte windows — at
        // offsets `at` and `at + gap` — end at or before `hay.len()`.
        let (a, b) = unsafe {
            (
                eq_mask_ptr(hay.as_ptr().add(at), nf),
                eq_mask_ptr(hay.as_ptr().add(at + gap), nl),
            )
        };
        let candidates = a & b;
        if candidates != 0 {
            return Ok(at + candidates.trailing_zeros() as usize);
        }
        at += BLOCK_SIZE;
    }
    Err(at)
}

/// The AVX2 entry: runs `f` compiled with the vector features and the
/// scalar extensions (POPCNT for `count_ones`, BMI/LZCNT for the bit
/// scans) the classifiers live on. Everything `f` inlines is built with
/// them; see [`crate::Backend`].
///
/// # Safety
///
/// The CPU must support every feature listed in the attribute.
#[target_feature(enable = "avx2,pclmulqdq,popcnt,bmi1,bmi2,lzcnt")]
pub(crate) unsafe fn enter<R>(f: impl FnOnce() -> R) -> R {
    f()
}
