//! Dispatch-boundary tests (DESIGN.md §9): the backend chosen by
//! [`Simd::detect`] must agree with what `is_x86_feature_detected!`
//! reports, and every backend the host supports must be constructible and
//! produce identical results from every [`Backend`] method — whether the
//! method runs on the static backend inside a dispatched [`Task`] or on
//! the [`Simd`] handle, one `match` per call.
//!
//! The `RSQ_BACKEND` environment override has its own integration test
//! binary (`env_override.rs`) because the override is latched once per
//! process.

use rsq_simd::{
    AcceptanceGroups, Backend, BackendKind, Block, ByteSet, QuoteState, Simd, Superblock,
    TablePair, Task, BLOCK_SIZE, SUPERBLOCK_BLOCKS, SUPERBLOCK_SIZE,
};

/// A vector backend is supported exactly when the CPU has every feature
/// its dispatch entry is compiled with — the vector extension alone is
/// not enough — and detection picks the best supported one.
#[test]
fn detect_matches_feature_detection() {
    #[cfg(target_arch = "x86_64")]
    {
        let scalar = is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("popcnt")
            && is_x86_feature_detected!("bmi1")
            && is_x86_feature_detected!("bmi2")
            && is_x86_feature_detected!("lzcnt");
        assert_eq!(
            BackendKind::Avx512.is_supported(),
            scalar && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
        );
        assert_eq!(
            BackendKind::Avx2.is_supported(),
            scalar && is_x86_feature_detected!("avx2")
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert!(!BackendKind::Avx512.is_supported() && !BackendKind::Avx2.is_supported());
    assert!(BackendKind::Swar.is_supported());
    // Best first, the portable backend last; detection takes the first.
    let supported: Vec<BackendKind> = BackendKind::supported().collect();
    assert_eq!(supported.last(), Some(&BackendKind::Swar));
    assert_eq!(Simd::detect().kind(), supported[0]);
}

#[test]
fn every_supported_backend_is_constructible() {
    for kind in BackendKind::supported() {
        assert_eq!(Simd::with_kind(kind).kind(), kind);
    }
}

#[test]
fn backend_names_round_trip_through_fromstr() {
    for kind in [BackendKind::Avx512, BackendKind::Avx2, BackendKind::Swar] {
        let parsed: BackendKind = kind.to_string().parse().expect("display name parses");
        assert_eq!(parsed, kind);
        let upper: BackendKind = kind
            .to_string()
            .to_uppercase()
            .parse()
            .expect("case-insensitive");
        assert_eq!(upper, kind);
    }
    assert!("neon".parse::<BackendKind>().is_err());
    assert!("".parse::<BackendKind>().is_err());
}

/// What every [`Backend`] method returns on one input.
#[derive(Debug, PartialEq)]
struct Answers {
    eq_mask: u64,
    eq_mask2: (u64, u64),
    lookup_eq_mask: u64,
    lookup_or_mask: u64,
    classify_quotes4: ([u64; SUPERBLOCK_BLOCKS], [QuoteState; SUPERBLOCK_BLOCKS]),
    state_after_superblock: QuoteState,
    classify_quotes: u64,
    state_after_block: QuoteState,
    find_pair: Vec<Result<usize, ()>>,
    prefix_xor: u64,
}

/// One input for every method, and the [`Task`] that calls them all.
struct Probe<'a> {
    chunk: &'a Superblock,
    needles: (u8, u8),
    eq_tables: &'a TablePair,
    or_tables: &'a TablePair,
    entering: QuoteState,
    /// Long enough that `find_pair` has whole 64-byte windows to scan.
    hay: &'a [u8],
    word: u64,
}

impl Task for &Probe<'_> {
    type Output = Answers;

    #[inline(always)]
    fn run<B: Backend>(self, backend: B) -> Answers {
        // The first BLOCK_SIZE bytes of a superblock are a block.
        let block: &Block = self.chunk[..BLOCK_SIZE].try_into().expect("block sized");
        let (a, b) = self.needles;
        let mut state_after_superblock = self.entering;
        let mut state_after_block = self.entering;
        Answers {
            eq_mask: backend.eq_mask(block, a),
            eq_mask2: backend.eq_mask2(block, a, b),
            lookup_eq_mask: backend.lookup_eq_mask(block, self.eq_tables),
            lookup_or_mask: backend.lookup_or_mask(block, self.or_tables),
            classify_quotes4: backend.classify_quotes4(self.chunk, &mut state_after_superblock),
            state_after_superblock,
            classify_quotes: backend.classify_quotes(block, &mut state_after_block),
            state_after_block,
            find_pair: [0, 1, 63, 64, 200]
                .into_iter()
                .flat_map(|start| [1, 7, 70].map(|gap| (start, gap)))
                .map(|(start, gap)| {
                    // Where the vector scan gives up (`Err`) is the
                    // backend's business — a whole number of its strides
                    // from `start` — so finish as the caller would, with
                    // the scalar tail from there: the candidate found must
                    // not depend on the backend.
                    backend
                        .find_pair(self.hay, start, a, b, gap)
                        .or_else(|resume| {
                            (resume..self.hay.len() - gap)
                                .find(|&p| self.hay[p] == a && self.hay[p + gap] == b)
                                .ok_or(())
                        })
                })
                .collect(),
            prefix_xor: backend.prefix_xor(self.word),
        }
    }
}

#[test]
fn every_backend_method_agrees_across_implementors_on_random_blocks() {
    // Deterministic xorshift64*; bytes drawn mostly from the characters
    // the classifiers care about, with some arbitrary ones (high bit set
    // included) mixed in.
    let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    const ALPHABET: &[u8] = b"\"\"\\\\{}[]:, \nab";
    let structural = AcceptanceGroups::compute(&ByteSet::from_bytes(b"{}[]:,"));
    let eq_tables = TablePair::non_overlapping(&structural);
    let overlapping =
        AcceptanceGroups::compute(&ByteSet::from_bytes(&[0x21, 0x22, 0x31, 0x32, 0x42]));
    let or_tables = TablePair::few_groups(overlapping.groups());

    for round in 0..300 {
        let mut hay = vec![0u8; 3 * SUPERBLOCK_SIZE];
        for byte in &mut hay {
            let r = next();
            *byte = if r % 8 == 0 {
                (r >> 8) as u8
            } else {
                ALPHABET[(r >> 8) as usize % ALPHABET.len()]
            };
        }
        let r = next();
        let probe = Probe {
            // `hay` is three superblocks long.
            chunk: hay[..SUPERBLOCK_SIZE].try_into().expect("superblock sized"),
            needles: (
                ALPHABET[r as usize % ALPHABET.len()],
                ALPHABET[(r >> 8) as usize % ALPHABET.len()],
            ),
            eq_tables: &eq_tables,
            or_tables: &or_tables,
            entering: QuoteState {
                next_escaped: r >> 16 & 1 == 1,
                in_string: r >> 17 & 1 == 1,
            },
            hay: &hay,
            word: next(),
        };
        let reference = Simd::with_kind(BackendKind::Swar).dispatch(&probe);
        for kind in BackendKind::supported() {
            let simd = Simd::with_kind(kind);
            assert_eq!(
                simd.dispatch(&probe),
                reference,
                "{kind}, dispatched, round {round}"
            );
            assert_eq!(
                (&probe).run(simd),
                reference,
                "{kind}, per call, round {round}"
            );
        }
    }
}
