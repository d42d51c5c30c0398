//! Differential testing harness for the `rsq` SIMD kernels and engine.
//!
//! The paper's throughput rests on hand-written `unsafe` SIMD kernels; this
//! crate is the machinery that keeps them honest, following the simdjson
//! methodology of pairing every kernel with a scalar reference and fuzzing
//! the pair. It provides:
//!
//! * a [naive scalar oracle](oracle) for every kernel contract;
//! * *check functions* that feed one input through every backend available
//!   on the running CPU (AVX-512, AVX2, SWAR) and assert bit-identical
//!   structural, quote, and depth masks against each other and the oracle,
//!   plus an engine check asserting `try_run` agrees across backends and
//!   with the DOM reference interpreter;
//! * a deterministic input generator and the corpus loader shared by the
//!   `cargo-fuzz` targets in `fuzz/` and the stable suites in `tests/`
//!   (the corpus replay and the seeded random sweep).
//!
//! Checks return [`Mismatch`] rather than panicking so fuzz drivers can
//! print the offending input before aborting.

#![warn(missing_docs)]

pub mod oracle;

use rsq_classify::{Structural, StructuralIterator};
use rsq_engine::{
    Engine, EngineOptions, Input, LimitKind, NoStats, PositionsSink, ProfileStats, Route,
    RouteChoice, RunError, RunStats, SkipBytes,
};
use rsq_simd::{
    BackendKind, ByteClassifier, ByteSet, QuoteState, Simd, Superblock, BLOCK_SIZE, SUPERBLOCK_SIZE,
};
use std::fmt;
use std::path::PathBuf;

/// A differential disagreement: two computations that must be bit-identical
/// were not.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Which check failed (e.g. `"quotes"`, `"engine"`).
    pub check: &'static str,
    /// Human-readable description of the two sides and where they differ.
    pub detail: String,
    /// The input bytes that exposed the disagreement.
    pub input: Vec<u8>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (input: {} bytes: {:?})",
            self.check,
            self.detail,
            self.input.len(),
            String::from_utf8_lossy(&self.input[..self.input.len().min(128)]),
        )
    }
}

impl std::error::Error for Mismatch {}

/// The fuzz/differential targets this harness knows about.
///
/// Each corresponds to a `cargo-fuzz` target in `fuzz/fuzz_targets/` and a
/// corpus directory under `fuzz/corpus/`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Byte-set classification masks: every strategy, every backend,
    /// against per-byte set membership.
    Classifier,
    /// Quote/inside-string masks and carry states across superblocks.
    Quotes,
    /// Bracket masks, depth skipping, and the structural iterator stream.
    Depth,
    /// Full engine runs vs the DOM reference interpreter.
    Engine,
    /// A streamed run over randomized chunk splits, and through windows of
    /// a few blocks on every backend, route and head start, vs the
    /// one-shot slice run — matches, counters and profiled skip bytes
    /// (covers pipeline resume handoffs, window edges and the memmem
    /// head-start).
    Reader,
    /// The incremental NDJSON framer over randomized chunk splits vs the
    /// one-shot `split_ndjson` (covers quote/escape state carried across
    /// chunk boundaries and the oversize-line cap).
    Framer,
    /// The fast-path route (DESIGN.md §15) vs the forced general main
    /// loop: routed label-chain and wildcard-mixed queries must report
    /// identical positions on every backend, and on valid JSON the two
    /// routes must agree bit-for-bit.
    FastPathRoute,
}

impl Target {
    /// All targets, in the order they are smoke-tested.
    pub const ALL: [Target; 7] = [
        Target::Classifier,
        Target::Quotes,
        Target::Depth,
        Target::Engine,
        Target::Reader,
        Target::Framer,
        Target::FastPathRoute,
    ];

    /// The target's name: fuzz-target binary and corpus directory name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Target::Classifier => "classifier_diff",
            Target::Quotes => "quotes_diff",
            Target::Depth => "depth_diff",
            Target::Engine => "engine_diff",
            Target::Reader => "reader_diff",
            Target::Framer => "framer_diff",
            Target::FastPathRoute => "fast_path_diff",
        }
    }

    /// Runs this target's check on one input.
    ///
    /// # Errors
    ///
    /// Returns the first [`Mismatch`] found.
    pub fn check(self, input: &[u8]) -> Result<(), Mismatch> {
        match self {
            Target::Classifier => check_classifier(input),
            Target::Quotes => check_quotes(input),
            Target::Depth => check_depth(input),
            Target::Engine => check_engine(input),
            Target::Reader => check_reader(input),
            Target::Framer => check_framer(input),
            Target::FastPathRoute => check_fast_path(input),
        }
    }
}

/// Every SIMD backend available on the running CPU, SWAR always included.
///
/// The detected backend comes first, so index 0 is what production code
/// would use.
#[must_use]
pub fn backends() -> Vec<Simd> {
    let mut out = vec![Simd::detect()];
    for kind in BackendKind::supported() {
        if out.iter().all(|s| s.kind() != kind) {
            out.push(Simd::with_kind(kind));
        }
    }
    out
}

/// Pads `input` with spaces to a whole number of 256-byte superblocks
/// (at least one). Space is neutral for every classifier under test.
#[must_use]
pub fn pad_to_superblocks(input: &[u8]) -> Vec<u8> {
    let len = input.len().max(1).div_ceil(SUPERBLOCK_SIZE) * SUPERBLOCK_SIZE;
    let mut padded = Vec::with_capacity(len);
    padded.extend_from_slice(input);
    padded.resize(len, b' ');
    padded
}

fn mismatch(check: &'static str, input: &[u8], detail: String) -> Mismatch {
    Mismatch {
        check,
        detail,
        input: input.to_vec(),
    }
}

/// Byte sets covering every classification strategy (naive,
/// non-overlapping, few-groups, general) plus high-bit members.
fn classifier_sets() -> Vec<ByteSet> {
    let mut overlapping = Vec::new();
    for u in 0..10u8 {
        overlapping.push(u << 4);
        overlapping.push((u << 4) | (u + 1));
    }
    vec![
        ByteSet::from_bytes(b"{}[]:,"),
        ByteSet::from_bytes(b"{}"),
        ByteSet::from_bytes(b" \t\n\r"),
        ByteSet::from_bytes(&[0x21, 0x22, 0x31, 0x32, 0x42]),
        ByteSet::from_bytes(&overlapping),
        ByteSet::from_bytes(&[b'"', b'\\', 0x80, 0xFF, 0xE2]),
    ]
}

/// Differentially checks byte-set classification: for each strategy and
/// each backend, the block mask must equal per-byte set membership (and
/// therefore equal across backends).
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_classifier(input: &[u8]) -> Result<(), Mismatch> {
    let padded = pad_to_superblocks(input);
    let backends = backends();
    for set in classifier_sets() {
        for classifier in [ByteClassifier::new(&set), ByteClassifier::naive(&set)] {
            for block in padded.chunks_exact(BLOCK_SIZE) {
                let block: &[u8; BLOCK_SIZE] = block.try_into().expect("chunk is block-sized");
                let want = oracle::eq_set_mask(block, &set);
                for simd in &backends {
                    let got = classifier.classify_block(*simd, block);
                    if got != want {
                        return Err(mismatch(
                            "classifier",
                            input,
                            format!(
                                "backend {} strategy {} set {set:?}: mask {got:#018x} != oracle {want:#018x}",
                                simd.kind(),
                                classifier.strategy(),
                            ),
                        ));
                    }
                }
            }
        }
    }
    check_prefix_xor(input)?;
    check_find_pair(input)
}

/// Differentially checks `prefix_xor` on words derived from the input.
fn check_prefix_xor(input: &[u8]) -> Result<(), Mismatch> {
    let padded = pad_to_superblocks(input);
    for simd in backends() {
        for chunk in padded.chunks_exact(8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            let got = simd.prefix_xor(word);
            let want = oracle::prefix_xor(word);
            if got != want {
                return Err(mismatch(
                    "classifier",
                    input,
                    format!(
                        "backend {}: prefix_xor({word:#018x}) = {got:#018x} != oracle {want:#018x}",
                        simd.kind(),
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Differentially checks the `find_pair` candidate scan over a grid of
/// needle pairs and gaps, including positions derived from the input.
///
/// The contract (`Ok(first candidate)` / `Err(first unchecked position)`)
/// deliberately lets backends stop at different points: AVX-512 advances a
/// whole 64-byte window at a time while the scalar fallback steps by one,
/// so the exact `Err` value — and even Ok-vs-Err near the tail — may
/// legitimately differ. What every backend MUST satisfy, and what the
/// engine's scalar-tail continuation relies on:
///
/// 1. an `Ok(p)` is a genuine candidate with no earlier candidate in
///    `[start, p)` (scans are contiguous from `start`);
/// 2. an `Err(u)` leaves no candidate unreported in `[start, u)`;
/// 3. an `Err(u)` makes progress to the point where no full 64-byte
///    window fits (`u + gap + 64 > len`), bounding the caller's tail scan.
fn check_find_pair(input: &[u8]) -> Result<(), Mismatch> {
    let first = input.first().copied().unwrap_or(b'"');
    let pairs = [(b'"', b'"'), (b'{', b'}'), (first, b':'), (b'\\', b'"')];
    for simd in backends() {
        for (f, l) in pairs {
            for gap in [0usize, 1, 2, 7, 63] {
                let mut start = 0usize;
                // Walk every candidate the scan yields, as the engine does.
                loop {
                    let got = simd.find_pair(input, start, f, l, gap);
                    let checked_until = match got {
                        Ok(pos) => pos,
                        Err(pos) => pos,
                    };
                    // Property 1 half + property 2: no candidate below the
                    // reported position (oracle full scan, not windowed).
                    let earlier = (start..checked_until.min(input.len().saturating_sub(gap + 1)))
                        .find(|&p| input[p] == f && input[p + gap] == l);
                    if let Some(p) = earlier {
                        return Err(mismatch(
                            "classifier",
                            input,
                            format!(
                                "backend {}: find_pair(start={start}, {f:#04x}, {l:#04x}, gap={gap}) = {got:?} skipped candidate at {p}",
                                simd.kind(),
                            ),
                        ));
                    }
                    match got {
                        Ok(pos) => {
                            // Property 1: the reported candidate is real.
                            let real =
                                pos + gap < input.len() && input[pos] == f && input[pos + gap] == l;
                            if !real {
                                return Err(mismatch(
                                    "classifier",
                                    input,
                                    format!(
                                        "backend {}: find_pair(start={start}, {f:#04x}, {l:#04x}, gap={gap}) reported bogus candidate {pos}",
                                        simd.kind(),
                                    ),
                                ));
                            }
                            start = pos + 1;
                        }
                        Err(pos) => {
                            // Property 3: progress until no window fits.
                            if pos + gap + BLOCK_SIZE <= input.len() || pos < start {
                                return Err(mismatch(
                                    "classifier",
                                    input,
                                    format!(
                                        "backend {}: find_pair(start={start}, {f:#04x}, {l:#04x}, gap={gap}) stopped early at Err({pos}) for len {}",
                                        simd.kind(),
                                        input.len(),
                                    ),
                                ));
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Differentially checks quote classification: per-block inside-string
/// masks and carry states across whole superblocks, every backend against
/// the byte-at-a-time oracle.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_quotes(input: &[u8]) -> Result<(), Mismatch> {
    let padded = pad_to_superblocks(input);
    let want_masks = oracle::quote_masks(&padded);
    for simd in backends() {
        let mut state = QuoteState::default();
        let mut got_masks = Vec::with_capacity(want_masks.len());
        for chunk in padded.chunks_exact(SUPERBLOCK_SIZE) {
            let chunk: &Superblock = chunk.try_into().expect("chunk is superblock-sized");
            let (within, after) = simd.classify_quotes4(chunk, &mut state);
            got_masks.extend_from_slice(&within);
            if state != after[after.len() - 1] {
                return Err(mismatch(
                    "quotes",
                    input,
                    format!(
                        "backend {}: superblock end state {state:?} != last block state {:?}",
                        simd.kind(),
                        after[after.len() - 1],
                    ),
                ));
            }
        }
        if got_masks != want_masks {
            let block = got_masks
                .iter()
                .zip(&want_masks)
                .position(|(g, w)| g != w)
                .expect("lengths match and masks differ");
            return Err(mismatch(
                "quotes",
                input,
                format!(
                    "backend {}: block {block} mask {:#018x} != oracle {:#018x}",
                    simd.kind(),
                    got_masks[block],
                    want_masks[block],
                ),
            ));
        }
        // The single-block form must agree with the superblock kernel.
        let mut state1 = QuoteState::default();
        for (i, block) in padded.chunks_exact(BLOCK_SIZE).enumerate() {
            let block: &[u8; BLOCK_SIZE] = block.try_into().expect("chunk is block-sized");
            let got = simd.classify_quotes(block, &mut state1);
            if got != want_masks[i] {
                return Err(mismatch(
                    "quotes",
                    input,
                    format!(
                        "backend {}: single-block {i} mask {got:#018x} != oracle {:#018x}",
                        simd.kind(),
                        want_masks[i],
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Deterministic decision stream derived from the input: whether to skip
/// past each opening bracket the iterator yields.
fn skip_decision(input: &[u8], n: usize) -> bool {
    let b = input.get(n % input.len().max(1)).copied().unwrap_or(0);
    (b ^ n as u8) & 1 == 0
}

/// Differentially checks the structural layer: bracket masks, the
/// structural event stream, and depth-based fast-forwarding.
///
/// Every backend must produce the identical `Structural` stream, the
/// stream's positions must match the oracle's structural masks, and every
/// `skip_past_close` landing position must match a naive quote-aware depth
/// scan.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_depth(input: &[u8]) -> Result<(), Mismatch> {
    // Bracket masks per block: eq_mask2 quote-filtered against the oracle.
    let padded = pad_to_superblocks(input);
    let quote_bits = oracle::quote_bits(&padded);
    for (open, close) in [(b'{', b'}'), (b'[', b']')] {
        let want_open = oracle::structural_masks(&padded, &[open]);
        let want_close = oracle::structural_masks(&padded, &[close]);
        for simd in backends() {
            let mut state = QuoteState::default();
            for (i, block) in padded.chunks_exact(BLOCK_SIZE).enumerate() {
                let block: &[u8; BLOCK_SIZE] = block.try_into().expect("chunk is block-sized");
                let within = simd.classify_quotes(block, &mut state);
                let (o, c) = simd.eq_mask2(block, open, close);
                if (o & !within, c & !within) != (want_open[i], want_close[i]) {
                    return Err(mismatch(
                        "depth",
                        input,
                        format!(
                            "backend {}: block {i} bracket masks ({:#018x}, {:#018x}) != oracle ({:#018x}, {:#018x})",
                            simd.kind(),
                            o & !within,
                            c & !within,
                            want_open[i],
                            want_close[i],
                        ),
                    ));
                }
            }
        }
    }

    // Structural iterator stream with deterministic skip decisions: every
    // backend must produce the identical event/skip trace, and skips must
    // land where the naive depth scan says.
    // One structural event: (position, byte, skip landing if we skipped).
    type TraceEvent = (usize, u8, Option<usize>);
    let mut traces: Vec<(BackendKind, Vec<TraceEvent>)> = Vec::new();
    for simd in backends() {
        let mut iter = StructuralIterator::new(input, simd);
        iter.set_toggles(true, true);
        let mut trace = Vec::new();
        let mut n = 0usize;
        while let Some(structural) = iter.next() {
            let pos = structural.position();
            let byte = input[pos];
            let mut skipped = None;
            if let Structural::Opening(bracket, _) = structural {
                if skip_decision(input, n) {
                    skipped = iter.skip_past_close(bracket);
                    let want = oracle::skip_to_close(
                        input,
                        pos + 1,
                        bracket.opening(),
                        bracket.closing(),
                        1,
                    );
                    if skipped != want {
                        return Err(mismatch(
                            "depth",
                            input,
                            format!(
                                "backend {}: skip_past_close from {pos} landed {skipped:?}, naive scan says {want:?}",
                                simd.kind(),
                            ),
                        ));
                    }
                }
            }
            trace.push((pos, byte, skipped));
            n += 1;
            if n > input.len() * 2 + 16 {
                break; // defensive bound; the stream is finite anyway
            }
        }
        traces.push((simd.kind(), trace));
    }
    let (first_kind, first_trace) = &traces[0];
    for (kind, trace) in &traces[1..] {
        if trace != first_trace {
            let at = trace
                .iter()
                .zip(first_trace)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| first_trace.len().min(trace.len()));
            return Err(mismatch(
                "depth",
                input,
                format!(
                    "structural stream diverges at event {at}: {first_kind}={:?} vs {kind}={:?}",
                    first_trace.get(at),
                    trace.get(at),
                ),
            ));
        }
    }

    // Unstructured quote oracle cross-check: positions the iterator
    // yielded must lie outside strings.
    for &(pos, _, _) in first_trace {
        if quote_bits[pos] {
            return Err(mismatch(
                "depth",
                input,
                format!("structural at {pos} is inside a string per the oracle"),
            ));
        }
    }
    Ok(())
}

/// The fixed query battery the engine target runs each input through.
#[must_use]
pub fn engine_queries() -> &'static [&'static str] {
    &[
        "$..a",
        "$.a",
        "$.a.b",
        "$..a..b",
        "$..*",
        "$.*",
        "$[0]",
        "$..a[1]",
        "$.a..b[0]",
        // Non-initial waiting states that cannot accept in one step: the
        // within-element label seek, under the head start and the walker.
        "$..a..b.c",
        "$.a..b.c",
    ]
}

/// Differentially checks full engine runs: for every query in the battery,
/// every backend must return the identical `try_positions` result
/// (positions or error), and when the input parses as JSON the positions
/// must match the DOM reference interpreter under node semantics.
///
/// Documents with duplicate sibling labels are excluded from the
/// reference comparison (cross-backend equality is still enforced): the
/// engine's sibling skipping (§3.3) rests on the interoperability
/// assumption that labels are unique within an object, so on such
/// documents it reports only the first member with a given label while
/// the DOM reference reports all of them. See DESIGN.md §9.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_engine(input: &[u8]) -> Result<(), Mismatch> {
    let parsed = rsq_json::parse(input)
        .ok()
        .filter(|doc| !has_duplicate_labels(doc));
    for query_text in engine_queries() {
        let query = rsq_query::Query::parse(query_text).expect("battery queries parse");
        let mut results: Vec<(BackendKind, Result<Vec<usize>, RunError>)> = Vec::new();
        for simd in backends() {
            let options = EngineOptions {
                backend: Some(simd.kind()),
                ..EngineOptions::default()
            };
            let engine = Engine::with_options(&query, options).expect("battery queries compile");
            results.push((simd.kind(), engine.try_positions(input)));
        }
        let (first_kind, first) = &results[0];
        for (kind, result) in &results[1..] {
            // RunError wraps io::Error and cannot be PartialEq; the Debug
            // rendering is detailed enough to distinguish every variant.
            if format!("{result:?}") != format!("{first:?}") {
                return Err(mismatch(
                    "engine",
                    input,
                    format!(
                        "query {query_text}: {first_kind} got {first:?}, {kind} got {result:?}"
                    ),
                ));
            }
        }
        if let (Some(doc), Ok(positions)) = (&parsed, first) {
            let want = rsq_baselines::positions(&query, doc);
            if positions != &want {
                return Err(mismatch(
                    "engine",
                    input,
                    format!(
                        "query {query_text}: engine positions {positions:?} != reference {want:?}",
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The query battery the fast-path route target runs: label chains and
/// selective (wildcard-mixed) shapes over the labels [`random_json`]
/// emits, so the compile-time router (DESIGN.md §15) sends them to the
/// fast-path walker, plus one descendant query that must route general
/// (a degenerate lane: both sides run the same loop, the comparison is
/// then a self-check).
#[must_use]
pub fn fast_path_queries() -> &'static [&'static str] {
    &[
        "$.a.b", "$.a.b.c", "$.a", "$.dd.b.a", "$.*.b", "$.a.*.c", "$..a",
    ]
}

/// Differentially checks the fast-path route (DESIGN.md §15) against the
/// forced general main loop: for every query in [`fast_path_queries`]
/// and every backend, the auto-routed engine and a `RouteChoice::General`
/// engine run the same input.
///
/// Two contracts, in increasing strength:
///
/// * **Cross-backend**: the auto-routed result (positions or error) must
///   be identical on every backend, on *any* input — including malformed
///   bytes.
/// * **Cross-route**: when the input parses as JSON, the fast path must
///   agree bit-for-bit with the general loop. Malformed inputs are
///   exempt from this half only: each route's skipping techniques follow
///   their own documented best-effort convention on broken structure
///   (same caveat as sibling skipping vs the DOM reference, DESIGN.md
///   §9), while valid documents admit no such freedom.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_fast_path(input: &[u8]) -> Result<(), Mismatch> {
    let valid_json = rsq_json::parse(input).is_ok();
    for query_text in fast_path_queries() {
        let query = rsq_query::Query::parse(query_text).expect("battery queries parse");
        let mut first_fast: Option<(BackendKind, String)> = None;
        for simd in backends() {
            let auto = EngineOptions {
                backend: Some(simd.kind()),
                ..EngineOptions::default()
            };
            let fast = Engine::with_options(&query, auto).expect("battery queries compile");
            let fast_result = fast.try_positions(input);
            let rendered = format!("{fast_result:?}");
            match &first_fast {
                None => first_fast = Some((simd.kind(), rendered.clone())),
                Some((first_kind, first)) if *first != rendered => {
                    return Err(mismatch(
                        "fast_path",
                        input,
                        format!(
                            "query {query_text}: routed engine disagrees across backends: \
                             {first_kind} got {first}, {} got {rendered}",
                            simd.kind()
                        ),
                    ));
                }
                Some(_) => {}
            }
            if !valid_json {
                continue;
            }
            let general = Engine::with_options(
                &query,
                EngineOptions {
                    route: RouteChoice::General,
                    ..auto
                },
            )
            .expect("battery queries compile");
            debug_assert_eq!(general.route(), Route::General);
            let general_result = general.try_positions(input);
            if format!("{general_result:?}") != rendered {
                return Err(mismatch(
                    "fast_path",
                    input,
                    format!(
                        "query {query_text} backend {}: route {} got {rendered}, \
                         forced general got {general_result:?}",
                        simd.kind(),
                        fast.route(),
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// The query subset the reader target runs: kept small (the reader path
/// re-runs the whole battery per chunk plan and window), but covering the
/// descendant head-start (`$..a` engages the `memmem` jump), child chains
/// (the routed walker's member seeks), the descendant wildcard, index
/// selection, and the general loop's subtree seeks (`..b.c`).
#[must_use]
pub fn reader_queries() -> &'static [&'static str] {
    &["$..a", "$.a.b", "$..*", "$..a[1]", "$..a..b.c", "$.*.b"]
}

/// The window sizes [`check_windows`] streams through: one block, a size
/// that keeps window edges off the block grid, and one superblock — so a
/// document of a few hundred bytes crosses many window edges.
pub const WINDOWS: [usize; 3] = [64, 100, 256];

/// An `io::Read` that fragments its data according to a chunk plan,
/// cycling through the plan's sizes — so the reader ingest path sees
/// short reads, block-straddling reads, and everything between.
struct ChunkedReader<'a> {
    data: &'a [u8],
    plan: &'a [usize],
    step: usize,
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            return Ok(0);
        }
        let want = self.plan[self.step % self.plan.len()].max(1);
        self.step += 1;
        let n = want.min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Differentially checks the chunked-reader path: for every query in
/// [`reader_queries`] and every chunk plan — fixed sizes around the
/// block/superblock boundaries plus deterministic pseudo-random splits
/// seeded from the input — a streamed run must produce a byte-identical
/// result (positions or error) to the one-shot slice run over the same
/// bytes. This exercises the classifier pipeline's resume handoffs and
/// the `memmem` head-start across arbitrary read fragmentation.
///
/// Both sides run with the default `max_depth`, which bounds the nesting
/// the run traverses on either, so a depth error must match too.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_reader(input: &[u8]) -> Result<(), Mismatch> {
    let options = EngineOptions::default();

    // Fixed plans bracket the kernel geometry (single bytes, a 64-byte
    // block, one past it, a large read); random plans come from the input
    // itself so every corpus entry explores its own splits.
    let mut plans: Vec<Vec<usize>> = vec![vec![1], vec![3], vec![64], vec![65], vec![4096]];
    let seed = input.iter().fold(0x9e37_79b9_7f4a_7c15_u64, |acc, &b| {
        acc.rotate_left(5) ^ u64::from(b)
    }) | 1;
    let mut rng = XorShift64::new(seed);
    for _ in 0..3 {
        let len = 1 + rng.below(6);
        let plan: Vec<usize> = (0..len).map(|_| 1 + rng.below(200)).collect();
        plans.push(plan);
    }

    for query_text in &reader_queries()[..4] {
        let query = rsq_query::Query::parse(query_text).expect("reader queries parse");
        let engine = Engine::with_options(&query, options).expect("reader queries compile");
        let slice_result = engine.try_positions(input);
        for plan in &plans {
            let mut reader = ChunkedReader {
                data: input,
                plan,
                step: 0,
            };
            let streamed = Input::Reader {
                reader: &mut reader,
                deadline: None,
            };
            let mut sink = PositionsSink::new();
            let reader_result = engine
                .exec(streamed, &mut sink, &mut NoStats)
                .map(|_| sink.into_positions());
            // RunError wraps io::Error and cannot be PartialEq; Debug
            // rendering distinguishes every variant.
            if format!("{reader_result:?}") != format!("{slice_result:?}") {
                return Err(mismatch(
                    "reader",
                    input,
                    format!(
                        "query {query_text}, chunk plan {plan:?}: reader got {reader_result:?}, \
                         slice got {slice_result:?}"
                    ),
                ));
            }
        }
    }
    check_windows(input)
}

/// The bytes before the document in the file [`doc_file`] writes.
const DOC_START: u64 = 7;

/// `input` written to a temporary file after [`DOC_START`] bytes that are
/// not its own, so that a mapped stream starts off a page boundary; the
/// file is unlinked at once and lives as long as the handle.
fn doc_file(input: &[u8]) -> std::fs::File {
    static FILES: rsq_batch::sync::Counter = rsq_batch::sync::Counter::new(0);
    let path = std::env::temp_dir().join(format!(
        "rsq-difftest-{}-{}.json",
        std::process::id(),
        FILES.add(1)
    ));
    std::fs::write(&path, [&b"[{\"x\": "[..], input].concat()).expect("temp file written");
    let file = std::fs::File::open(&path).expect("temp file opens");
    let _ = std::fs::remove_file(&path);
    file
}

/// Differentially checks streamed runs whose windows are a few blocks:
/// for every query in [`reader_queries`], every backend, both routes, and
/// the head start checked, unchecked and off, a profiled streamed run
/// through windows of each of the [`WINDOWS`] sizes must produce the
/// profiled slice run's result, [`RunStats`] and bytes skipped per
/// technique — or, where a label the automaton examines begins more than
/// a window before its structural character, the classified look-back
/// error. A
/// different match is never acceptable. The same document read in place
/// from a file, through windows mapped one by one, must produce exactly
/// what the copied stream does, look-back errors included — and so must
/// a strict run of it and of it cut short by a byte, where a byte the
/// mapped stream did not check would show.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_windows(input: &[u8]) -> Result<(), Mismatch> {
    let doc = doc_file(input);
    let heads = [(true, true), (true, false), (false, true)];
    for query_text in reader_queries() {
        let query = rsq_query::Query::parse(query_text).expect("reader queries parse");
        for simd in backends() {
            for route in [RouteChoice::Auto, RouteChoice::General] {
                for (head_start, checked_head_start) in heads {
                    let options = EngineOptions {
                        backend: Some(simd.kind()),
                        route,
                        head_start,
                        checked_head_start,
                        ..EngineOptions::default()
                    };
                    let engine =
                        Engine::with_options(&query, options).expect("reader queries compile");
                    // Without the probe: it reads a stream's first 1 MiB
                    // before the walk, which would hold these documents
                    // whole. Under 1 MiB the route is the same either way.
                    let engine = engine.routed_by_shape();
                    let slice = run_windowed(&engine, Input::Slice(input), 0).0;
                    let slice = format!("{slice:?}");
                    for window in WINDOWS {
                        let detail = |streamed: &str, held| {
                            format!(
                                "query {query_text}, {} {route:?} head start \
                                 {head_start}/{checked_head_start}, window {window}: \
                                 streamed {streamed} holding {held} bytes, slice {slice}",
                                simd.kind()
                            )
                        };
                        let (copied, held) = copied_windows(&engine, input, window);
                        let look_back =
                            matches!(&copied, Err(e) if e.is_limit(LimitKind::LabelBytes));
                        let copied = format!("{copied:?}");
                        // A run that held a document of more than twice
                        // its ring of four windows whole crossed no edge.
                        let whole = input.len() > 8 * window && held >= input.len();
                        if whole || !look_back && copied != slice {
                            return Err(mismatch("reader", input, detail(&copied, held)));
                        }
                        let (mapped, held) = mapped_windows(&engine, input, &doc, window);
                        let mapped = format!("{mapped:?}");
                        let whole = input.len() > 8 * window && held >= input.len();
                        if whole || mapped != copied {
                            let detail = detail(&mapped, held);
                            return Err(mismatch("mapped", input, detail));
                        }
                    }
                }
            }
        }
    }
    let strict = EngineOptions {
        strict: true,
        ..EngineOptions::default()
    };
    let query = rsq_query::Query::parse("$..a").expect("reader queries parse");
    let engine = Engine::with_options(&query, strict).expect("reader queries compile");
    let engine = engine.routed_by_shape();
    for cut in [input, &input[..input.len().saturating_sub(1)]] {
        for window in WINDOWS {
            let (copied, _) = copied_windows(&engine, cut, window);
            let (mapped, _) = mapped_windows(&engine, cut, &doc, window);
            let (copied, mapped) = (format!("{copied:?}"), format!("{mapped:?}"));
            if mapped != copied {
                let detail = format!(
                    "strict $..a over {} bytes, window {window}: mapped {mapped}, copied {copied}",
                    cut.len()
                );
                return Err(mismatch("mapped", input, detail));
            }
        }
    }
    Ok(())
}

/// What a profiled run found: its matches, [`RunStats`] and bytes
/// skipped per technique.
type ProfiledRun = Result<(Vec<usize>, RunStats, SkipBytes), RunError>;

/// One profiled run of `engine` over `input` — a stream through windows
/// of `window` bytes — and the most bytes it held.
fn run_windowed(engine: &Engine, input: Input<'_>, window: usize) -> (ProfiledRun, usize) {
    let mut sink = PositionsSink::new();
    let mut profile = ProfileStats::new();
    let mut held = 0;
    let run = engine
        .run_windowed(input, &mut sink, &mut profile, window)
        .map(|(bytes, route)| {
            (held, profile.stats.route) = (bytes, route);
            (sink.into_positions(), profile.stats, profile.bytes_skipped)
        });
    (run, held)
}

/// [`run_windowed`] of `input` copied from a reader that splits it.
fn copied_windows(engine: &Engine, input: &[u8], window: usize) -> (ProfiledRun, usize) {
    let mut reader = ChunkedReader {
        data: input,
        plan: &[61, 7],
        step: 0,
    };
    let input = Input::Reader {
        reader: &mut reader,
        deadline: None,
    };
    run_windowed(engine, input, window)
}

/// [`run_windowed`] of `input` mapped from `doc`, as [`doc_file`] wrote it.
fn mapped_windows(
    engine: &Engine,
    input: &[u8],
    doc: &std::fs::File,
    window: usize,
) -> (ProfiledRun, usize) {
    let input = Input::Pages {
        file: doc,
        start: DOC_START,
        len: input.len(),
        deadline: None,
    };
    run_windowed(engine, input, window)
}

/// Documents that put what a stream carries across a window edge — a
/// label and its colon, an escaped quote, a `"label":` lookalike inside a
/// string, a `memmem` hit after a stretch the search crosses without one,
/// a run of whitespace longer than a window, a label longer than one, a
/// stretch without a hit before the end — at
/// every offset from it: one document per `pad` in `pads`, the features
/// shifted right by `pad` bytes.
#[must_use]
pub fn window_edge_documents(pads: std::ops::Range<usize>) -> Vec<Vec<u8>> {
    let gap = " ".repeat(120);
    let long_label = "l".repeat(150);
    let fill = |n| format!(r#""f": "{}", "#, "y".repeat(n));
    pads.map(|pad| {
        format!(
            r#"{{"pad": "{}", "a": {{"b": {{"c": 1}}, "x\"a\\": "\"a\": {{\"b\": 7}}"}}, {}"s": ["\"a\":", {{"a": [0, {{"b": {{"c": 2}}}}, 3]}}], "w": {{"a"{gap}:{gap}{{"b": {{"c": 3}}, {}"b" : [{{"c": 4}}]}}}}, "{long_label}": {{"a": {{"b": {{"c": 5}}}}}}, "z": [{{"a": 6}}, "a", {{"b": {{{}"a": {{"b": {{"c": 8}}}}}}}}], {}"t": 0}}"#,
            "x".repeat(pad),
            fill(300),
            fill(700),
            fill(1100),
            fill(500),
        )
        .into_bytes()
    })
    .collect()
}

/// Differentially checks the incremental NDJSON framer against the
/// one-shot splitter: for every chunk plan — fixed sizes plus
/// deterministic pseudo-random splits seeded from the input — and every
/// byte cap in a small battery, feeding the input through
/// [`rsq_batch::NdjsonFramer`] fragment by fragment must produce exactly
/// one frame per [`rsq_batch::split_ndjson`] document, in order:
///
/// * uncapped (or under the cap), a [`rsq_batch::Frame::Doc`] with
///   byte-identical content to the splitter's (trimmed) line;
/// * over the cap, a [`rsq_batch::Frame::Oversize`] carrying the cap and
///   a `bytes_seen` equal to the line's untrimmed length (the trimmed
///   length, plus one if the line ended in `\r`);
/// * and at no point may the framer buffer more than `cap + 1` bytes —
///   the bounded-memory guarantee serve mode's hostile-input resistance
///   rests on.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn check_framer(input: &[u8]) -> Result<(), Mismatch> {
    use rsq_batch::{split_ndjson, Frame, NdjsonFramer, QuoteScan};

    let ranges = split_ndjson(input);

    // The splitter runs a SIMD block kernel; its specification is the
    // byte-at-a-time `QuoteScan`: a line ends where the automaton reports
    // a boundary (or at end of input), loses one trailing `\r`, and is a
    // document unless blank.
    let mut scalar = Vec::new();
    let mut line = |start: usize, end: usize| {
        let text = &input[start..end];
        let text = text.strip_suffix(b"\r").unwrap_or(text);
        if text.iter().any(|b| !b.is_ascii_whitespace()) {
            scalar.push(start..start + text.len());
        }
    };
    let mut scan = QuoteScan::default();
    let mut start = 0usize;
    for (i, &b) in input.iter().enumerate() {
        if scan.boundary(b) {
            line(start, i);
            start = i + 1;
        }
    }
    line(start, input.len());
    if ranges != scalar {
        return Err(mismatch(
            "framer",
            input,
            format!("split_ndjson found {ranges:?}, the scalar QuoteScan loop {scalar:?}"),
        ));
    }

    let docs: Vec<&[u8]> = ranges.into_iter().map(|r| &input[r]).collect();

    // Fixed plans cover the pathological splits (every byte alone, CRLF
    // and escape pairs straddling chunks); random plans come from the
    // input so every corpus entry explores its own fragmentation.
    let mut plans: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![3], vec![7], vec![4096]];
    let seed = input.iter().fold(0xA5A5_5A5A_DEAD_BEEF_u64, |acc, &b| {
        acc.rotate_left(7) ^ u64::from(b)
    }) | 1;
    let mut rng = XorShift64::new(seed);
    for _ in 0..3 {
        let len = 1 + rng.below(6);
        let plan: Vec<usize> = (0..len).map(|_| 1 + rng.below(96)).collect();
        plans.push(plan);
    }

    for cap in [None, Some(0), Some(1), Some(8), Some(64)] {
        for plan in &plans {
            let mut framer = NdjsonFramer::new(cap);
            let mut frames = Vec::new();
            let mut rest = input;
            let mut step = 0usize;
            while !rest.is_empty() {
                let n = plan[step % plan.len()].min(rest.len());
                step += 1;
                framer.push(&rest[..n], &mut |f| frames.push(f));
                rest = &rest[n..];
                if let Some(limit) = cap {
                    if framer.buffered() > limit + 1 {
                        return Err(mismatch(
                            "framer",
                            input,
                            format!(
                                "cap {limit}, chunk plan {plan:?}: framer buffered {} bytes, \
                                 bound is cap + 1",
                                framer.buffered(),
                            ),
                        ));
                    }
                }
            }
            frames.extend(framer.finish());

            if frames.len() != docs.len() {
                return Err(mismatch(
                    "framer",
                    input,
                    format!(
                        "cap {cap:?}, chunk plan {plan:?}: framer emitted {} frames, \
                         split_ndjson found {} documents",
                        frames.len(),
                        docs.len(),
                    ),
                ));
            }
            for (i, (frame, doc)) in frames.iter().zip(&docs).enumerate() {
                let agrees = match frame {
                    Frame::Doc(bytes) => {
                        cap.is_none_or(|limit| doc.len() <= limit) && bytes.as_slice() == *doc
                    }
                    Frame::Oversize { bytes_seen, limit } => {
                        cap == Some(*limit)
                            && doc.len() > *limit
                            && (*bytes_seen == doc.len() as u64
                                || *bytes_seen == doc.len() as u64 + 1)
                    }
                };
                if !agrees {
                    return Err(mismatch(
                        "framer",
                        input,
                        format!(
                            "cap {cap:?}, chunk plan {plan:?}: frame {i} is {frame:?}, \
                             split_ndjson document is {} bytes: {:?}",
                            doc.len(),
                            String::from_utf8_lossy(&doc[..doc.len().min(64)]),
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Does any object in the document repeat a member label among its
/// direct children? Such documents fall outside the unique-label
/// interoperability assumption the engine's sibling skipping relies on.
#[must_use]
pub fn has_duplicate_labels(doc: &rsq_json::ValueNode) -> bool {
    if let rsq_json::ValueKind::Object(members) = &doc.kind {
        let mut seen: Vec<&str> = Vec::with_capacity(members.len());
        for (key, _) in members {
            if seen.contains(&key.text.as_str()) {
                return true;
            }
            seen.push(&key.text);
        }
    }
    doc.children().any(has_duplicate_labels)
}

/// A tiny deterministic xorshift64* generator so fuzz fallback runs are
/// reproducible from a seed (no `rand` dependency).
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a nonzero seed (zero is mapped away).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Alphabet biased toward JSON structure so random inputs exercise the
/// interesting paths (quotes, escapes, brackets at block boundaries).
const JSON_ALPHABET: &[u8] = br#"{}[]:,"\ abc019.-tfn"#;

/// Generates a pseudo-random input of up to `max_len` bytes: mostly
/// JSON-alphabet bytes with occasional raw bytes and long runs of
/// backslashes or quotes to stress carry propagation.
pub fn random_input(rng: &mut XorShift64, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len.max(1)) + 1;
    let mut out = Vec::with_capacity(len + 64);
    while out.len() < len {
        match rng.below(16) {
            0 => out.push(rng.next_u64() as u8), // raw byte, any value
            1 => {
                // A run of backslashes of random parity.
                let run = rng.below(130) + 1;
                out.extend(std::iter::repeat_n(b'\\', run));
            }
            2 => {
                let run = rng.below(6) + 1;
                out.extend(std::iter::repeat_n(b'"', run));
            }
            _ => out.push(JSON_ALPHABET[rng.below(JSON_ALPHABET.len())]),
        }
    }
    out.truncate(len);
    out
}

/// Generates a syntactically valid pseudo-random JSON document, for the
/// engine target (so the reference-interpreter comparison actually runs).
pub fn random_json(rng: &mut XorShift64, depth: usize) -> Vec<u8> {
    let mut out = Vec::new();
    write_value(rng, depth, &mut out);
    out
}

fn write_value(rng: &mut XorShift64, depth: usize, out: &mut Vec<u8>) {
    const LABELS: [&str; 5] = ["a", "b", "c", "dd", "x y"];
    if depth == 0 {
        match rng.below(4) {
            0 => out.extend_from_slice(b"null"),
            1 => out.extend_from_slice(b"17"),
            2 => out.extend_from_slice(br#""s\"{,}[\\""#),
            _ => out.extend_from_slice(b"true"),
        }
        return;
    }
    match rng.below(3) {
        0 => {
            out.push(b'[');
            let n = rng.below(4);
            for i in 0..n {
                if i > 0 {
                    out.push(b',');
                }
                write_value(rng, depth - 1, out);
            }
            out.push(b']');
        }
        1 => {
            out.push(b'{');
            let n = rng.below(4);
            let base = rng.below(5);
            for i in 0..n {
                // Distinct labels per object: the engine's sibling
                // skipping assumes labels never repeat among siblings.
                let label = LABELS[(base + i) % 5];
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'"');
                out.extend_from_slice(label.as_bytes());
                out.extend_from_slice(b"\":");
                write_value(rng, depth - 1, out);
            }
            out.push(b'}');
        }
        _ => write_value(rng, 0, out),
    }
}

/// The corpus directory for a target: `fuzz/corpus/<name>/` at the
/// workspace root.
#[must_use]
pub fn corpus_dir(target: Target) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fuzz/corpus")
        .join(target.name())
}

/// Loads a target's checked-in corpus, sorted by file name for
/// reproducible ordering.
///
/// # Panics
///
/// Panics if the corpus directory is missing or unreadable — a checked-in
/// corpus is part of the soundness gate, so absence is a repo defect.
#[must_use]
pub fn load_corpus(target: Target) -> Vec<(String, Vec<u8>)> {
    let dir = corpus_dir(target);
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} unreadable: {e}", dir.display()))
        .map(|entry| {
            let entry = entry.expect("corpus dir entry readable");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("corpus file readable");
            (name, bytes)
        })
        .collect();
    entries.sort();
    entries
}

/// Runs a target's whole checked-in corpus; returns the number of inputs
/// checked.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found.
pub fn run_corpus(target: Target) -> Result<usize, Mismatch> {
    let corpus = load_corpus(target);
    for (_, bytes) in &corpus {
        target.check(bytes)?;
    }
    Ok(corpus.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_include_swar_and_detected() {
        let b = backends();
        assert!(b.iter().any(|s| s.kind() == BackendKind::Swar));
        assert_eq!(b[0].kind(), Simd::detect().kind());
    }

    #[test]
    fn padding_is_superblock_aligned_and_neutral() {
        let padded = pad_to_superblocks(b"{}");
        assert_eq!(padded.len(), SUPERBLOCK_SIZE);
        assert_eq!(&padded[..2], b"{}");
        assert!(padded[2..].iter().all(|&b| b == b' '));
        assert_eq!(pad_to_superblocks(&[]).len(), SUPERBLOCK_SIZE);
        let long = vec![b'x'; SUPERBLOCK_SIZE + 1];
        assert_eq!(pad_to_superblocks(&long).len(), 2 * SUPERBLOCK_SIZE);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_json_parses() {
        let mut rng = XorShift64::new(42);
        for _ in 0..50 {
            let doc = random_json(&mut rng, 4);
            assert!(
                rsq_json::parse(&doc).is_ok(),
                "generated JSON must parse: {}",
                String::from_utf8_lossy(&doc)
            );
        }
    }

    #[test]
    fn checks_pass_on_handwritten_documents() {
        for input in [
            br#"{"a":{"b":[1,2,{"a":3}]},"c":"x\"y{"}"#.as_slice(),
            br#"[[[[[[{"a":1}]]]]]]"#.as_slice(),
            b"".as_slice(),
            b"\\\\\\\"".as_slice(),
            br#"{"a}":"]["}"#.as_slice(),
        ] {
            for target in Target::ALL {
                target.check(input).unwrap_or_else(|m| panic!("{m}"));
            }
        }
    }
}
