//! SIMD primitives for the `rsq` streaming JSONPath engine.
//!
//! This crate implements the *raw classification* layer of §4.1 of
//! *Supporting Descendants in SIMD-Accelerated JSONPath* (ASPLOS 2023):
//! given a classification function `f : byte → {0, 1}`, compute for a block
//! of input bytes the bitmask of positions where `f` accepts. Three
//! strategies of increasing generality are provided, exactly following the
//! paper:
//!
//! * **Non-overlapping acceptance groups** — two 16-entry nibble lookup
//!   tables combined with a byte-equality comparison (5 SIMD ops,
//!   ~4 cycles). This is the case used by the JSON structural classifier.
//! * **Few groups** (≤ 7 non-empty groups) — bit-per-group tables combined
//!   with OR and compared against all-ones (6 SIMD ops, ~5 cycles).
//! * **General case** — the few-groups method applied to a partition of the
//!   groups, with the results OR-ed together.
//!
//! A **naive** strategy (one `cmpeq` per accepted byte value) is also
//! provided; it is what Table 2 of the paper benchmarks against.
//!
//! All operations come in three backends — AVX-512 (F + BW), AVX2, and a
//! portable scalar/SWAR fallback that runs on any target — behind the
//! [`Backend`] trait. Code generic over `B: Backend` is compiled once per
//! backend; [`Simd`] is the runtime handle that picks one: either for
//! every call (it implements [`Backend`] itself, with a `match` per
//! method) or once for a whole pass ([`Simd::dispatch`]). Use
//! [`Simd::detect`] for the best backend the CPU supports or
//! [`Simd::with_kind`] to force one (the paper-reproduction ablations).
//!
//! # Examples
//!
//! ```
//! use rsq_simd::{ByteClassifier, ByteSet, Simd, BLOCK_SIZE};
//!
//! // Classify the JSON structural characters of Table 1 of the paper.
//! let set = ByteSet::from_bytes(b"{}[]:,");
//! let classifier = ByteClassifier::new(&set);
//! let simd = Simd::detect();
//!
//! let mut block = [b'x'; BLOCK_SIZE];
//! block[3] = b'{';
//! block[40] = b':';
//! let mask = classifier.classify_block(simd, &block);
//! assert_eq!(mask, (1 << 3) | (1 << 40));
//! ```

#![warn(missing_docs)]

mod avx2;
mod avx512;
mod classifier;
mod groups;
mod quotes;
mod swar;

pub use classifier::{ByteClassifier, Strategy};
pub use groups::{AcceptanceGroups, ByteSet, Group, TablePair};
pub use quotes::QuoteState;

/// The number of bytes processed per classification step.
///
/// All block-level primitives in this crate operate on 64-byte blocks and
/// produce 64-bit masks, bit *i* corresponding to byte *i* of the block.
pub const BLOCK_SIZE: usize = 64;

/// A 64-byte input block.
pub type Block = [u8; BLOCK_SIZE];

/// Blocks per superblock: the granularity at which the backend kernels
/// amortize their dispatch cost.
pub const SUPERBLOCK_BLOCKS: usize = 4;

/// The number of bytes processed per superblock kernel call.
pub const SUPERBLOCK_SIZE: usize = BLOCK_SIZE * SUPERBLOCK_BLOCKS;

/// A 256-byte superblock.
pub type Superblock = [u8; SUPERBLOCK_SIZE];

/// The instruction-set backend used by [`Simd`] operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// AVX-512 (F + BW): one 64-byte block per register, native 64-bit
    /// compare masks (x86-64 only).
    Avx512,
    /// AVX2 vector instructions (x86-64 only).
    Avx2,
    /// Portable scalar / SWAR fallback, available everywhere.
    Swar,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Avx512 => f.write_str("avx512"),
            BackendKind::Avx2 => f.write_str("avx2"),
            BackendKind::Swar => f.write_str("swar"),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    /// Parses the names printed by `Display` (case-insensitive) — the
    /// accepted values of the `RSQ_BACKEND` environment override.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("avx512") {
            Ok(BackendKind::Avx512)
        } else if s.eq_ignore_ascii_case("avx2") {
            Ok(BackendKind::Avx2)
        } else if s.eq_ignore_ascii_case("swar") {
            Ok(BackendKind::Swar)
        } else {
            Err(format!(
                "unknown backend `{s}` (expected `avx512`, `avx2`, or `swar`)"
            ))
        }
    }
}

/// The `RSQ_BACKEND` environment override, read and parsed once per
/// process. An invalid value panics — an explicit override silently
/// falling back to auto-detection would defeat its purpose (comparing
/// backends or forcing the portable path in CI).
fn env_override() -> Option<BackendKind> {
    static OVERRIDE: std::sync::OnceLock<Option<BackendKind>> = std::sync::OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("RSQ_BACKEND") {
        Ok(value) if !value.is_empty() => {
            // PANIC-OK: an explicit RSQ_BACKEND override with a typo should fail fast, not silently auto-detect
            Some(value.parse().unwrap_or_else(|e| panic!("RSQ_BACKEND: {e}")))
        }
        _ => None,
    })
}

impl BackendKind {
    /// Every backend this CPU can run, best first; the portable one
    /// always closes the list.
    pub fn supported() -> impl Iterator<Item = BackendKind> {
        [BackendKind::Avx512, BackendKind::Avx2, BackendKind::Swar]
            .into_iter()
            .filter(|kind| kind.is_supported())
    }

    /// Whether this CPU can run the backend: every instruction-set
    /// extension its dispatch entry is compiled with must be present
    /// (`avx512`: AVX-512F/BW; `avx2`: AVX2; both also PCLMULQDQ, POPCNT,
    /// BMI1, BMI2 and LZCNT — no CPU with the vector extension lacks
    /// them, but the entry enables them, so detection checks them).
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && scalar_extensions_detected()
            }
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx2 => is_x86_feature_detected!("avx2") && scalar_extensions_detected(),
            #[cfg(not(target_arch = "x86_64"))]
            BackendKind::Avx512 | BackendKind::Avx2 => false,
            BackendKind::Swar => true,
        }
    }
}

/// The non-vector extensions both vector entries enable.
#[cfg(target_arch = "x86_64")]
fn scalar_extensions_detected() -> bool {
    is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("popcnt")
        && is_x86_feature_detected!("bmi1")
        && is_x86_feature_detected!("bmi2")
        && is_x86_feature_detected!("lzcnt")
}

/// The block-level primitives of one instruction set.
///
/// Three zero-sized implementors are the kernels themselves (AVX-512,
/// AVX2, SWAR; private — generic code receives one through
/// [`Task::run`]), and [`Simd`] is a fourth that picks among them with a
/// `match` on every call. A classifier written as `fn f<B: Backend>` is
/// thus compiled once per instruction set.
///
/// # The `#[inline(always)]` rule
///
/// The vector kernels are `#[target_feature]` functions, which the
/// compiler inlines only into a caller built with at least the same
/// features — and a generic function has none of its own. It acquires
/// them by being inlined, `#[inline(always)]` at every level, into one of
/// this crate's entries: the function behind [`Backend::enter`], the one
/// place that is compiled with the backend's features. A generic function
/// on that path which is *not* inlined is compiled for baseline x86-64;
/// nothing fails, but every kernel below it silently becomes a call again
/// and every `count_ones` a shift-and-mask sequence. `scripts/loc.sh`
/// counts both in the release binary.
pub trait Backend: Copy + std::fmt::Debug {
    /// Which instruction set this is.
    fn kind(self) -> BackendKind;

    /// Returns the bitmask of positions in `block` equal to `byte`.
    fn eq_mask(self, block: &Block, byte: u8) -> u64;

    /// Equality masks of a block against two needles (the depth
    /// classifier tracks one bracket pair).
    fn eq_mask2(self, block: &Block, a: u8, b: u8) -> (u64, u64);

    /// Nibble-lookup classification with *equality* combination
    /// (the non-overlapping-groups case of §4.1).
    ///
    /// Bit *i* of the result is set iff
    /// `tables.ltab[block[i] & 0xF] == tables.utab[block[i] >> 4]`
    /// and `block[i] < 0x80`.
    ///
    /// Table constructors in this crate guarantee that bytes with the high
    /// bit set are never accepted, matching the `shuffle` semantics the
    /// paper relies on (a lit most-significant bit zeroes the lane).
    fn lookup_eq_mask(self, block: &Block, tables: &TablePair) -> u64;

    /// Nibble-lookup classification with *OR-to-all-ones* combination
    /// (the few-groups case of §4.1).
    ///
    /// Bit *i* of the result is set iff
    /// `(tables.ltab[block[i] & 0xF] | tables.utab[block[i] >> 4]) == 0xFF`
    /// and `block[i] < 0x80`.
    fn lookup_or_mask(self, block: &Block, tables: &TablePair) -> u64;

    /// Quote-classifies a 256-byte superblock: per 64-byte block, the
    /// inside-string mask (§4.2 semantics: opening quote inclusive,
    /// closing exclusive) and the quote state *after* that block. `state`
    /// is advanced to the end of the superblock.
    #[inline(always)]
    fn classify_quotes4(
        self,
        chunk: &Superblock,
        state: &mut QuoteState,
    ) -> ([u64; SUPERBLOCK_BLOCKS], [QuoteState; SUPERBLOCK_BLOCKS]) {
        let mut within = [0u64; SUPERBLOCK_BLOCKS];
        let mut after = [QuoteState::default(); SUPERBLOCK_BLOCKS];
        for (i, block) in chunk.chunks_exact(BLOCK_SIZE).enumerate() {
            // PANIC-OK: chunks_exact yields exactly BLOCK_SIZE bytes, so try_into cannot fail
            let block: &Block = block.try_into().expect("block sized");
            within[i] = self.classify_quotes(block, state);
            after[i] = *state;
        }
        (within, after)
    }

    /// Vectorised two-byte candidate scan for substring search: the first
    /// `p >= start` with `hay[p] == first` and `hay[p + gap] == last`.
    ///
    /// Returns `Ok(candidate)` (unverified — the caller confirms the full
    /// needle) or `Err(first unchecked position)` once no full 64-byte
    /// window fits; the caller finishes with a scalar tail from there.
    ///
    /// # Errors
    ///
    /// `Err` is the resume position, not a failure.
    fn find_pair(
        self,
        hay: &[u8],
        start: usize,
        first: u8,
        last: u8,
        gap: usize,
    ) -> Result<usize, usize>;

    /// Computes the prefix XOR of a 64-bit mask: bit *i* of the result is
    /// the XOR of bits `0..=i` of `m`.
    ///
    /// With bit *i* marking unescaped double quotes, the result marks the
    /// positions *inside* JSON strings (opening quote inclusive, closing
    /// quote exclusive) — the core of the quote classifier of §4.2. The
    /// vector backends use carry-less multiplication by all-ones.
    fn prefix_xor(self, m: u64) -> u64;

    /// Quote-classifies a single block, advancing `state` past it — the
    /// form for partial tails; superblock callers use
    /// [`classify_quotes4`](Self::classify_quotes4).
    #[inline(always)]
    fn classify_quotes(self, block: &Block, state: &mut QuoteState) -> u64 {
        let (backslash, quote) = self.eq_mask2(block, b'\\', b'"');
        quotes::quotes_from_masks(
            backslash,
            quote,
            #[inline(always)]
            |m| self.prefix_xor(m),
            state,
        )
    }

    /// Calls `f` out of line, in a function compiled with this backend's
    /// instruction set — an *entry* (see the trait documentation): what
    /// `f` inlines, `#[inline(always)]` closure included, is built with
    /// the vector features, POPCNT and BMI. Generic pipelines wrap the
    /// routines they want one copy of per backend, rather than one per
    /// call site, in it. [`Simd`] runs `f` in place.
    fn enter<R>(self, f: impl FnOnce() -> R) -> R;
}

/// A pass to run under one backend, chosen at run time by
/// [`Simd::dispatch`]. (A closure cannot be generic over the backend
/// type; this is the closure, spelled out.)
pub trait Task {
    /// What the pass returns.
    type Output;

    /// The pass. Must be `#[inline(always)]`, as must every generic
    /// function between it and the kernels (see [`Backend`]).
    fn run<B: Backend>(self, backend: B) -> Self::Output;
}

/// The AVX-512 kernels as a [`Backend`]. Exists only where
/// [`BackendKind::is_supported`] holds: [`Simd`] builds one per call or
/// per dispatch, behind its own `kind`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Avx512(());

/// The AVX2 kernels as a [`Backend`]; as [`Avx512`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Avx2(());

/// The portable kernels as a [`Backend`].
#[derive(Clone, Copy, Debug)]
struct Swar;

/// `impl Backend` for a vector backend: every method is the module's
/// kernel of the same name, callable because the token's existence
/// proves detection.
#[cfg(target_arch = "x86_64")]
macro_rules! vector_backend {
    ($token:ident, $module:ident, $kind:expr) => {
        impl Backend for $token {
            #[inline(always)]
            fn kind(self) -> BackendKind {
                $kind
            }

            #[inline(always)]
            fn eq_mask(self, block: &Block, byte: u8) -> u64 {
                // SAFETY: a token exists only after `is_supported` detected every feature of its entry, a superset of this kernel's.
                unsafe { $module::eq_mask(block, byte) }
            }

            #[inline(always)]
            fn eq_mask2(self, block: &Block, a: u8, b: u8) -> (u64, u64) {
                // SAFETY: a token exists only after `is_supported` detected every feature of its entry, a superset of this kernel's.
                unsafe { $module::eq_mask2(block, a, b) }
            }

            #[inline(always)]
            fn lookup_eq_mask(self, block: &Block, tables: &TablePair) -> u64 {
                // SAFETY: a token exists only after `is_supported` detected every feature of its entry, a superset of this kernel's.
                unsafe { $module::lookup_eq_mask(block, tables) }
            }

            #[inline(always)]
            fn lookup_or_mask(self, block: &Block, tables: &TablePair) -> u64 {
                // SAFETY: a token exists only after `is_supported` detected every feature of its entry, a superset of this kernel's.
                unsafe { $module::lookup_or_mask(block, tables) }
            }

            #[inline(always)]
            fn find_pair(
                self,
                hay: &[u8],
                start: usize,
                first: u8,
                last: u8,
                gap: usize,
            ) -> Result<usize, usize> {
                // SAFETY: a token exists only after `is_supported` detected every feature of its entry, a superset of this kernel's.
                unsafe { $module::find_pair(hay, start, first, last, gap) }
            }

            #[inline(always)]
            fn prefix_xor(self, m: u64) -> u64 {
                // SAFETY: a token exists only after `is_supported` detected PCLMULQDQ along with the vector features.
                unsafe { avx2::prefix_xor_clmul(m) }
            }

            #[inline(always)]
            fn enter<R>(self, f: impl FnOnce() -> R) -> R {
                // SAFETY: a token exists only after `is_supported` detected exactly the features this entry enables.
                unsafe { $module::enter(f) }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
vector_backend!(Avx512, avx512, BackendKind::Avx512);
#[cfg(target_arch = "x86_64")]
vector_backend!(Avx2, avx2, BackendKind::Avx2);

impl Backend for Swar {
    #[inline(always)]
    fn kind(self) -> BackendKind {
        BackendKind::Swar
    }

    #[inline(always)]
    fn eq_mask(self, block: &Block, byte: u8) -> u64 {
        swar::eq_mask(block, byte)
    }

    #[inline(always)]
    fn eq_mask2(self, block: &Block, a: u8, b: u8) -> (u64, u64) {
        swar::eq_mask2(block, a, b)
    }

    #[inline(always)]
    fn lookup_eq_mask(self, block: &Block, tables: &TablePair) -> u64 {
        swar::lookup_eq_mask(block, tables)
    }

    #[inline(always)]
    fn lookup_or_mask(self, block: &Block, tables: &TablePair) -> u64 {
        swar::lookup_or_mask(block, tables)
    }

    #[inline(always)]
    fn find_pair(
        self,
        hay: &[u8],
        start: usize,
        first: u8,
        last: u8,
        gap: usize,
    ) -> Result<usize, usize> {
        swar::find_pair(hay, start, first, last, gap)
    }

    #[inline(always)]
    fn prefix_xor(self, m: u64) -> u64 {
        swar::prefix_xor(m)
    }

    #[inline(always)]
    fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        swar::enter(f)
    }
}

/// A handle to the selected SIMD backend.
///
/// `Simd` is a small `Copy` token naming the instruction set a process
/// (or an ablation) runs on. Construct it once (via [`Simd::detect`]):
/// feature detection happens there, never in a loop. It reaches the
/// kernels two ways. As a [`Backend`] it forwards each primitive to the
/// backend it names, one `match` per call — the per-block interface the
/// benchmarks and baselines drive. [`Simd::dispatch`] makes that choice
/// once and runs a whole [`Task`] on the static backend, kernels inlined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Simd {
    kind: BackendKind,
}

/// Evaluates `$body` with `$backend` bound to the static backend
/// `$simd.kind` names.
macro_rules! with_backend {
    ($simd:expr, $backend:ident => $body:expr) => {
        match $simd.kind {
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx512 => {
                // `kind` is `Avx512` only after `is_supported` said so.
                let $backend = Avx512(());
                $body
            }
            #[cfg(target_arch = "x86_64")]
            BackendKind::Avx2 => {
                // `kind` is `Avx2` only after `is_supported` said so.
                let $backend = Avx2(());
                $body
            }
            #[cfg(not(target_arch = "x86_64"))]
            // PANIC-OK: no constructor yields a vector backend kind on this arch (`is_supported` is false)
            BackendKind::Avx512 | BackendKind::Avx2 => unreachable!("vector backend off x86-64"),
            BackendKind::Swar => {
                let $backend = Swar;
                $body
            }
        }
    };
}

impl Simd {
    /// Detects the best backend available on the running CPU.
    ///
    /// Honors the `RSQ_BACKEND` environment variable (`avx512`, `avx2`,
    /// or `swar`) as an explicit override — useful for A/B-comparing
    /// backends on the same machine and for forcing the portable path in
    /// CI; panics if the named backend is unsupported here or unknown.
    /// Under Miri the portable SWAR backend is always selected: Miri
    /// interprets Rust, not vendor intrinsics, and this fallback is what
    /// makes the whole engine Miri-checkable (DESIGN.md §9).
    #[must_use]
    pub fn detect() -> Self {
        if cfg!(miri) {
            return Simd {
                kind: BackendKind::Swar,
            };
        }
        if let Some(kind) = env_override() {
            return Simd::with_kind(kind);
        }
        // PANIC-OK: the list always ends with the portable backend
        let kind = BackendKind::supported().next().expect("swar is supported");
        Simd { kind }
    }

    /// Forces a specific backend.
    ///
    /// Used by the ablation benchmarks to compare instruction sets on the
    /// same machine.
    ///
    /// # Panics
    ///
    /// Panics if the CPU does not support the requested instruction set
    /// ([`BackendKind::is_supported`]).
    #[must_use]
    pub fn with_kind(kind: BackendKind) -> Self {
        assert!(
            kind.is_supported(),
            "{kind} backend requested but the CPU does not support it"
        );
        Simd { kind }
    }

    /// The backend this handle dispatches to.
    #[inline]
    #[must_use]
    pub fn kind(self) -> BackendKind {
        self.kind
    }

    /// [`Backend::eq_mask`] on the backend this handle names.
    #[inline]
    #[must_use]
    pub fn eq_mask(self, block: &Block, byte: u8) -> u64 {
        with_backend!(self, backend => backend.eq_mask(block, byte))
    }

    /// [`Backend::eq_mask2`] on the backend this handle names.
    #[inline]
    #[must_use]
    pub fn eq_mask2(self, block: &Block, a: u8, b: u8) -> (u64, u64) {
        with_backend!(self, backend => backend.eq_mask2(block, a, b))
    }

    /// [`Backend::lookup_eq_mask`] on the backend this handle names.
    #[inline]
    #[must_use]
    pub fn lookup_eq_mask(self, block: &Block, tables: &TablePair) -> u64 {
        with_backend!(self, backend => backend.lookup_eq_mask(block, tables))
    }

    /// [`Backend::lookup_or_mask`] on the backend this handle names.
    #[inline]
    #[must_use]
    pub fn lookup_or_mask(self, block: &Block, tables: &TablePair) -> u64 {
        with_backend!(self, backend => backend.lookup_or_mask(block, tables))
    }

    /// [`Backend::classify_quotes4`] on the backend this handle names:
    /// one `match` and one call into its entry per superblock, which is
    /// what the superblock form is for.
    #[inline]
    #[must_use]
    pub fn classify_quotes4(
        self,
        chunk: &Superblock,
        state: &mut QuoteState,
    ) -> ([u64; SUPERBLOCK_BLOCKS], [QuoteState; SUPERBLOCK_BLOCKS]) {
        with_backend!(self, backend => backend.enter(
            #[inline(always)]
            || backend.classify_quotes4(chunk, state)
        ))
    }

    /// [`Backend::classify_quotes`]: an [`eq_mask2`](Self::eq_mask2) and
    /// a [`prefix_xor`](Self::prefix_xor), each its own `match`.
    #[inline]
    #[must_use]
    pub fn classify_quotes(self, block: &Block, state: &mut QuoteState) -> u64 {
        Backend::classify_quotes(self, block, state)
    }

    /// [`Backend::find_pair`] on the backend this handle names.
    ///
    /// # Errors
    ///
    /// `Err` is the resume position, not a failure.
    #[inline]
    pub fn find_pair(
        self,
        hay: &[u8],
        start: usize,
        first: u8,
        last: u8,
        gap: usize,
    ) -> Result<usize, usize> {
        with_backend!(self, backend => backend.find_pair(hay, start, first, last, gap))
    }

    /// [`Backend::prefix_xor`] on the backend this handle names.
    #[inline]
    #[must_use]
    pub fn prefix_xor(self, m: u64) -> u64 {
        with_backend!(self, backend => backend.prefix_xor(m))
    }

    /// Runs `task` on the static backend this handle names, inside that
    /// backend's entry: the one run-time choice of a whole pass.
    #[inline]
    pub fn dispatch<T: Task>(self, task: T) -> T::Output {
        with_backend!(self, backend => backend.enter(
            #[inline(always)]
            || task.run(backend)
        ))
    }
}

/// The per-call backend: every primitive is the inherent method of the
/// same name, a `match` on the kind and an out-of-line kernel call.
impl Backend for Simd {
    #[inline(always)]
    fn kind(self) -> BackendKind {
        self.kind
    }

    #[inline(always)]
    fn eq_mask(self, block: &Block, byte: u8) -> u64 {
        Simd::eq_mask(self, block, byte)
    }

    #[inline(always)]
    fn eq_mask2(self, block: &Block, a: u8, b: u8) -> (u64, u64) {
        Simd::eq_mask2(self, block, a, b)
    }

    #[inline(always)]
    fn lookup_eq_mask(self, block: &Block, tables: &TablePair) -> u64 {
        Simd::lookup_eq_mask(self, block, tables)
    }

    #[inline(always)]
    fn lookup_or_mask(self, block: &Block, tables: &TablePair) -> u64 {
        Simd::lookup_or_mask(self, block, tables)
    }

    #[inline(always)]
    fn classify_quotes4(
        self,
        chunk: &Superblock,
        state: &mut QuoteState,
    ) -> ([u64; SUPERBLOCK_BLOCKS], [QuoteState; SUPERBLOCK_BLOCKS]) {
        Simd::classify_quotes4(self, chunk, state)
    }

    #[inline(always)]
    fn find_pair(
        self,
        hay: &[u8],
        start: usize,
        first: u8,
        last: u8,
        gap: usize,
    ) -> Result<usize, usize> {
        Simd::find_pair(self, hay, start, first, last, gap)
    }

    #[inline(always)]
    fn prefix_xor(self, m: u64) -> u64 {
        Simd::prefix_xor(self, m)
    }

    #[inline(always)]
    fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Default for Simd {
    fn default() -> Self {
        Self::detect()
    }
}

/// Iterator over the positions of set bits in a 64-bit mask, in increasing
/// order.
///
/// # Examples
///
/// ```
/// let bits: Vec<u32> = rsq_simd::BitIter::new(0b1001_0001).collect();
/// assert_eq!(bits, [0, 4, 7]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BitIter(u64);

impl BitIter {
    /// Creates an iterator over the set bits of `mask`.
    #[inline]
    #[must_use]
    pub fn new(mask: u64) -> Self {
        BitIter(mask)
    }
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            let pos = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(pos)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BitIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_runs() {
        // Whatever the host has, the choice must be one it supports.
        assert!(Simd::detect().kind().is_supported());
    }

    #[test]
    fn eq_mask_finds_all_occurrences() {
        let simd = Simd::detect();
        let mut block = [0u8; BLOCK_SIZE];
        block[0] = b'"';
        block[31] = b'"';
        block[32] = b'"';
        block[63] = b'"';
        assert_eq!(
            simd.eq_mask(&block, b'"'),
            1 | (1 << 31) | (1 << 32) | (1 << 63)
        );
        assert_eq!(simd.eq_mask(&block, b'x'), 0);
    }

    #[test]
    fn eq_mask_backends_agree() {
        let avx = Simd::detect();
        let swar = Simd::with_kind(BackendKind::Swar);
        let mut block = [0u8; BLOCK_SIZE];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i * 7 % 256) as u8;
        }
        for byte in [0u8, 7, 14, 255, b'{'] {
            assert_eq!(avx.eq_mask(&block, byte), swar.eq_mask(&block, byte));
        }
    }

    #[test]
    fn prefix_xor_small_cases() {
        let simd = Simd::detect();
        assert_eq!(simd.prefix_xor(0), 0);
        assert_eq!(simd.prefix_xor(1), u64::MAX);
        // quotes at 1 and 3 -> inside-string at 1,2
        assert_eq!(simd.prefix_xor(0b1010), 0b0110);
    }

    #[test]
    fn prefix_xor_backends_agree() {
        let simd = Simd::detect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..100 {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
            assert_eq!(simd.prefix_xor(x), swar::prefix_xor(x));
        }
    }

    #[test]
    fn bit_iter_empty_and_full() {
        assert_eq!(BitIter::new(0).count(), 0);
        assert_eq!(BitIter::new(u64::MAX).count(), 64);
        assert_eq!(BitIter::new(u64::MAX).last(), Some(63));
    }
}
