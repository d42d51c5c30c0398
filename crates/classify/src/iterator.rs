//! The structural iterator (§4.3): the engine's window onto the stream.
//!
//! Classifies the input block by block through the quote and structural
//! classifiers and yields [`Structural`] events. Supports:
//!
//! * `next` / `peek` — advance to / look at the next enabled structural
//!   character;
//! * `label_before` — backtrack from a structural character to the member
//!   label preceding it (§3.4);
//! * `set_toggles` — enable/disable commas and colons on the fly,
//!   reclassifying the current block (§4.1, §4.3);
//! * `skip_past_close` / `fast_forward_to_close` — hand control to the
//!   depth classifier to fast-forward over the remainder of the current
//!   element (§4.4, §4.5), then resume structural classification;
//! * `seek` (in [`crate::seek`]) — hand control to `memmem` and the depth
//!   or quote classifier to fast-forward to a member by name.
//!
//! All of them move one forward-only cursor over the blocks, so every
//! block of a run is quote-classified once, whichever classifier the
//! stream is handed to in between (§4.5's stop/resume pipeline).

use crate::depth::{low_bits, scan_block};
use crate::quotes::QuoteState;
use crate::structural::StructuralTables;
use rsq_obs::ClassifierCounters;
use rsq_simd::{Backend, Block, Simd, Superblock, BLOCK_SIZE, SUPERBLOCK_BLOCKS, SUPERBLOCK_SIZE};

/// The two kinds of JSON containers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BracketType {
    /// `{` … `}` — an object.
    Brace,
    /// `[` … `]` — an array.
    Bracket,
}

impl BracketType {
    /// The opening character.
    #[must_use]
    pub fn opening(self) -> u8 {
        match self {
            BracketType::Brace => b'{',
            BracketType::Bracket => b'[',
        }
    }

    /// The closing character.
    #[must_use]
    pub fn closing(self) -> u8 {
        match self {
            BracketType::Brace => b'}',
            BracketType::Bracket => b']',
        }
    }
}

/// A structural event, carrying its absolute byte position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structural {
    /// `{` or `[`.
    Opening(BracketType, usize),
    /// `}` or `]`.
    Closing(BracketType, usize),
    /// `:` (only when colons are toggled on).
    Colon(usize),
    /// `,` (only when commas are toggled on).
    Comma(usize),
}

impl Structural {
    /// The absolute byte position of the character.
    #[must_use]
    pub fn position(self) -> usize {
        match self {
            Structural::Opening(_, p)
            | Structural::Closing(_, p)
            | Structural::Colon(p)
            | Structural::Comma(p) => p,
        }
    }

    /// Returns `true` for `{` and `[`.
    #[must_use]
    pub fn is_opening(self) -> bool {
        matches!(self, Structural::Opening(..))
    }
}

/// Which bracket pairs a depth scan counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Pairs {
    /// One pair: every element is delimited by its own kind of bracket,
    /// so the other kind cannot move the depth to zero (§4.4).
    One(BracketType),
    /// Both pairs — the depth is the container depth itself.
    Both,
}

/// Outcome of [`StructuralIterator::scan_blocks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockScan {
    /// The depth dropped to zero at this position, in the current block.
    Closed(usize),
    /// The block containing `until` is loaded and unconsumed.
    Reached,
    /// The input ended.
    End,
}

/// A quote-classified block in flight. The structural iterator, the depth
/// classifier and the seeks keep returning to the same 64 bytes (a 32-byte
/// array element is a seek, a match and a sibling skip, each ending in a
/// reposition), so the block's structural mask is kept once computed. The
/// bracket-pair masks of the depth scans are not: keeping them as well
/// made every block load dearer than the passes it saved (EXPERIMENTS.md
/// "Dispatch").
#[derive(Clone, Copy, Debug)]
struct CurrentBlock {
    start: usize,
    within_quotes: u64,
    /// Structural bits not yet consumed.
    mask: u64,
    /// Every enabled structural character outside strings under the
    /// toggles in force, once classified (`set_toggles` forgets it).
    /// Repositioning within the block masks this; it is not another pass.
    structural: Option<u64>,
}

impl CurrentBlock {
    /// A block fresh from the cursor: nothing pending, nothing computed.
    #[inline(always)]
    fn loaded((start, within_quotes): (usize, u64)) -> Self {
        CurrentBlock {
            start,
            within_quotes,
            mask: 0,
            structural: None,
        }
    }
}

/// Walks the input in 64-byte blocks, running the quote classifier over
/// each exactly once. This is the shared lower layer of the
/// multi-classifier pipeline (§4.5): both the structural iterator and the
/// depth fast-forward consume blocks from the same cursor, so the quote
/// classification is never repeated or skipped.
///
/// Internally the cursor quote-classifies four blocks at a time through
/// the superblock kernel, which amortizes the kernel call when the backend
/// is the per-call [`Simd`] handle.
#[derive(Clone, Debug)]
struct BlockCursor<'a, B> {
    input: &'a [u8],
    backend: B,
    /// Offset of the next block to classify (multiple of [`BLOCK_SIZE`]).
    next_block: usize,
    /// Quote state at `next_block`.
    quote_state: QuoteState,
    /// Classified blocks not yet handed out: (start, within-quotes
    /// mask). Block bytes are viewed directly in the input — no copies —
    /// except for the zero-padded final partial block, stored in `tail`.
    buf: [(usize, u64); SUPERBLOCK_BLOCKS],
    buf_len: usize,
    buf_pos: usize,
    /// Zero-padded copy of the final partial block, if synthesized.
    tail: Block,
    /// Start offset of `tail`, or `usize::MAX` when unset.
    tail_start: usize,
}

impl<'a, B: Backend> BlockCursor<'a, B> {
    /// A cursor whose first block starts at `start` outside any string —
    /// the start of the input, or a restart point taken on trust.
    #[inline(always)]
    fn new(input: &'a [u8], backend: B, start: usize) -> Self {
        BlockCursor {
            input,
            backend,
            next_block: start,
            quote_state: QuoteState::default(),
            buf: [(0, 0); SUPERBLOCK_BLOCKS],
            buf_len: 0,
            buf_pos: 0,
            tail: [0; BLOCK_SIZE],
            tail_start: usize::MAX,
        }
    }

    /// Classifies the next block's quotes and returns `(start,
    /// within-quotes mask)`, or `None` at EOF.
    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u64)> {
        if self.buf_pos == self.buf_len {
            self.refill();
            if self.buf_len == 0 {
                return None;
            }
        }
        let entry = self.buf[self.buf_pos];
        self.buf_pos += 1;
        Some(entry)
    }

    /// Once the buffered blocks are handed out, quote-classifies the whole
    /// superblocks that end at or before `until` without buffering them
    /// (their masks go unused), and returns how many blocks that was.
    #[inline(always)]
    fn skip_before(&mut self, until: usize) -> u64 {
        let mut skipped = 0;
        while self.buf_pos == self.buf_len && self.next_block + SUPERBLOCK_SIZE <= until {
            let start = self.next_block;
            let chunk: &Superblock = self.input[start..start + SUPERBLOCK_SIZE]
                .try_into()
                // PANIC-OK: the slice is exactly SUPERBLOCK_SIZE bytes, so try_into cannot fail
                .expect("superblock sized");
            let _ = self.backend.classify_quotes4(chunk, &mut self.quote_state);
            self.next_block += SUPERBLOCK_SIZE;
            skipped += SUPERBLOCK_BLOCKS as u64;
        }
        skipped
    }

    #[inline(always)]
    fn refill(&mut self) {
        self.backend.enter(
            #[inline(always)]
            || self.refill_in_place(),
        );
    }

    #[inline(always)]
    fn refill_in_place(&mut self) {
        self.buf_pos = 0;
        self.buf_len = 0;
        let start = self.next_block;
        if start >= self.input.len() {
            return;
        }
        if start + SUPERBLOCK_SIZE <= self.input.len() {
            let chunk: &Superblock = self.input[start..start + SUPERBLOCK_SIZE]
                .try_into()
                // PANIC-OK: the slice is exactly SUPERBLOCK_SIZE bytes, so try_into cannot fail
                .expect("superblock sized");
            let (within, _) = self.backend.classify_quotes4(chunk, &mut self.quote_state);
            for (i, (slot, within)) in self.buf.iter_mut().zip(within).enumerate() {
                *slot = (start + i * BLOCK_SIZE, within);
            }
            self.buf_len = SUPERBLOCK_BLOCKS;
            self.next_block = start + SUPERBLOCK_SIZE;
        } else {
            // Tail: one zero-padded block at a time.
            let end = (start + BLOCK_SIZE).min(self.input.len());
            if end < start + BLOCK_SIZE {
                self.tail = [0u8; BLOCK_SIZE];
                self.tail[..end - start].copy_from_slice(&self.input[start..end]);
                self.tail_start = start;
            }
            let mut state = self.quote_state;
            let within = self
                .backend
                .classify_quotes(self.bytes_at(start), &mut state);
            self.quote_state = state;
            self.buf[0] = (start, within);
            self.buf_len = 1;
            self.next_block = start + BLOCK_SIZE;
        }
    }

    /// A zero-copy view of the block starting at `start`; partial final
    /// blocks resolve to the zero-padded `tail` copy.
    #[inline(always)]
    fn bytes_at(&self, start: usize) -> &Block {
        if start + BLOCK_SIZE <= self.input.len() {
            self.input[start..start + BLOCK_SIZE]
                .try_into()
                // PANIC-OK: the slice is exactly BLOCK_SIZE bytes, so try_into cannot fail
                .expect("full block in bounds")
        } else {
            debug_assert_eq!(self.tail_start, start, "tail block not synthesized");
            &self.tail
        }
    }
}

/// The structural iterator over a JSON byte stream.
///
/// # Examples
///
/// ```
/// use rsq_classify::{Structural, StructuralIterator, BracketType};
/// use rsq_simd::Simd;
///
/// let input = br#"{"a": [1]}"#;
/// let mut iter = StructuralIterator::new(input, Simd::detect());
/// // By default only brackets/braces are classified (leaf skipping).
/// assert_eq!(iter.next(), Some(Structural::Opening(BracketType::Brace, 0)));
/// assert_eq!(iter.next(), Some(Structural::Opening(BracketType::Bracket, 6)));
/// assert_eq!(iter.label_before(6), Some(&b"a"[..]));
/// assert_eq!(iter.next(), Some(Structural::Closing(BracketType::Bracket, 8)));
/// assert_eq!(iter.next(), Some(Structural::Closing(BracketType::Brace, 9)));
/// assert_eq!(iter.next(), None);
/// ```
///
/// Generic over the [`Backend`] its kernels come from: the run-time
/// [`Simd`] handle by default (a `match` and a kernel call per primitive),
/// a static backend inside a dispatched pass ([`Simd::dispatch`]), where
/// the whole iterator inlines into the pass.
#[derive(Clone, Debug)]
pub struct StructuralIterator<'a, B: Backend = Simd> {
    cursor: BlockCursor<'a, B>,
    tables: StructuralTables,
    current: Option<CurrentBlock>,
    peeked: Option<Option<Structural>>,
    /// Positions `< consumed_upto` have been yielded by `next` (or skipped).
    consumed_upto: usize,
    /// Blocks pulled from the cursor, attributed to the classifier that
    /// pulled them, plus toggle flips. One saturating add per 64-byte
    /// block — always on (Tier A observability).
    counters: ClassifierCounters,
}

impl<'a, B: Backend> StructuralIterator<'a, B> {
    /// Creates an iterator at the start of `input` with commas and colons
    /// disabled.
    #[inline(always)]
    #[must_use]
    pub fn new(input: &'a [u8], backend: B) -> Self {
        StructuralIterator {
            cursor: BlockCursor::new(input, backend, 0),
            tables: StructuralTables::new(),
            current: None,
            peeked: None,
            consumed_upto: 0,
            counters: ClassifierCounters::default(),
        }
    }

    /// Restarts classification at `pos` with a fresh quote state, as if
    /// the input began there: the paper's unchecked skip-to-label, which
    /// takes a `memmem` hit's value to lie outside any string instead of
    /// classifying the gap before it. Blocks are then counted from `pos`,
    /// which need not be 64-byte aligned.
    #[inline(always)]
    pub(crate) fn restart_at(&mut self, pos: usize) {
        self.cursor = BlockCursor::new(self.cursor.input, self.cursor.backend, pos);
        self.current = None;
        self.peeked = None;
        self.consumed_upto = pos;
    }

    /// The underlying input.
    #[inline(always)]
    #[must_use]
    pub fn input(&self) -> &'a [u8] {
        self.cursor.input
    }

    /// The position after the last consumed character.
    #[inline(always)]
    #[must_use]
    pub fn position(&self) -> usize {
        self.consumed_upto
    }

    /// Block and toggle counters accumulated so far (Tier A
    /// observability): each 64-byte block the iterator classified,
    /// attributed to the classifier — structural, depth, seek, or
    /// quote-only — that consumed it.
    #[inline(always)]
    #[must_use]
    pub fn counters(&self) -> ClassifierCounters {
        self.counters
    }

    /// Yields the next enabled structural character.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)] // not an Iterator: lending-style cursor with peek
    pub fn next(&mut self) -> Option<Structural> {
        let item = match self.peeked.take() {
            Some(p) => p,
            None => self.advance(),
        };
        if let Some(s) = item {
            self.consumed_upto = s.position() + 1;
        }
        item
    }

    /// Looks at the next structural character without consuming it.
    #[inline(always)]
    pub fn peek(&mut self) -> Option<Structural> {
        if self.peeked.is_none() {
            let item = self.advance();
            self.peeked = Some(item);
        }
        // PANIC-OK: peeked was filled on the line above
        self.peeked.expect("just filled")
    }

    #[inline(always)]
    fn advance(&mut self) -> Option<Structural> {
        loop {
            if let Some(cur) = &mut self.current {
                if cur.mask != 0 {
                    let rel = cur.mask.trailing_zeros();
                    cur.mask &= cur.mask - 1;
                    let pos = cur.start + rel as usize;
                    let byte = self.cursor.input[pos];
                    return Some(to_structural(byte, pos));
                }
            }
            let Some(block) = self.cursor.next() else {
                // At EOF everything is consumed: a seek from here must not
                // search the blocks this run went through.
                self.consumed_upto = self.cursor.input.len();
                return None;
            };
            self.current = Some(CurrentBlock::loaded(block));
            self.counters.blocks_structural = self.counters.blocks_structural.saturating_add(1);
            // Drop bits before a mid-block position (a seek's hit).
            self.pend_from_position();
        }
    }

    /// Makes the current block's structural characters from bit `from` on
    /// the pending ones: one kernel pass per block and toggle setting, the
    /// mask read back after that.
    #[inline(always)]
    fn pend_from(&mut self, from: u32) {
        let Some(cur) = &mut self.current else { return };
        let structural = *cur.structural.get_or_insert_with(|| {
            self.tables.classify(
                self.cursor.backend,
                self.cursor.bytes_at(cur.start),
                cur.within_quotes,
            )
        });
        cur.mask = structural & !low_bits(from);
    }

    /// [`pend_from`](Self::pend_from) the iterator's position (the start
    /// of the block when the position lies before it).
    #[inline(always)]
    fn pend_from_position(&mut self) {
        if let Some(cur) = &self.current {
            self.pend_from(self.consumed_upto.saturating_sub(cur.start) as u32);
        }
    }

    /// Enables or disables comma and colon classification, reclassifying
    /// the not-yet-consumed remainder of the current block.
    ///
    /// Discards an outstanding peek: callers must toggle before peeking
    /// (the engine's main loop does — toggles happen directly after a
    /// `next` that returned an opening or closing character).
    #[inline(always)]
    pub fn set_toggles(&mut self, commas: bool, colons: bool) {
        debug_assert!(
            self.peeked.is_none(),
            "toggling with an outstanding peek loses events in skipped blocks"
        );
        let changed = self.tables.set_commas(commas) | self.tables.set_colons(colons);
        if !changed {
            return;
        }
        self.counters.toggle_flips = self.counters.toggle_flips.saturating_add(1);
        self.peeked = None;
        if let Some(cur) = &mut self.current {
            cur.structural = None;
        }
        self.pend_from_position();
    }

    /// Whether commas are currently classified.
    #[inline(always)]
    #[must_use]
    pub fn commas_enabled(&self) -> bool {
        self.tables.commas_enabled()
    }

    /// Whether colons are currently classified.
    #[inline(always)]
    #[must_use]
    pub fn colons_enabled(&self) -> bool {
        self.tables.colons_enabled()
    }

    /// Fast-forwards past the closing character matching an already-consumed
    /// opening character of type `bracket` (*skipping children*, §3.3): the
    /// closing character itself is consumed and not yielded.
    ///
    /// Returns the position of the closing character, or `None` if the
    /// document ends first (malformed input).
    #[inline(always)]
    pub fn skip_past_close(&mut self, bracket: BracketType) -> Option<usize> {
        self.depth_skip(bracket, true)
    }

    /// Fast-forwards to the closing character that ends the *current*
    /// element (*skipping siblings*, §3.3). The closing character is left
    /// pending and will be yielded by the next `next` call.
    ///
    /// Returns the position of the closing character, or `None` if the
    /// document ends first (malformed input).
    #[inline(always)]
    pub fn fast_forward_to_close(&mut self, bracket: BracketType) -> Option<usize> {
        self.depth_skip(bracket, false)
    }

    /// The depth classifier's loop, one function per backend
    /// ([`Backend::enter`]) however many call sites a pass has.
    #[inline(always)]
    fn depth_skip(&mut self, bracket: BracketType, consume_close: bool) -> Option<usize> {
        self.cursor.backend.enter(
            #[inline(always)]
            || self.depth_skip_in_place(bracket, consume_close),
        )
    }

    #[inline(always)]
    fn depth_skip_in_place(&mut self, bracket: BracketType, consume_close: bool) -> Option<usize> {
        self.peeked = None;
        let pairs = Pairs::One(bracket);
        let mut depth = 1usize;
        // The structural classifier is stopped; the depth classifier drives
        // the quote classifier forward via the shared cursor.
        let BlockScan::Closed(close) =
            self.scan_blocks(pairs, usize::MAX, &mut depth, |c| &mut c.blocks_depth)
        else {
            return None;
        };
        // Resume structural classification at the closing character.
        self.reposition_within_current(close, consume_close);
        Some(close)
    }

    /// Depth-scans the unconsumed part of the current block below bit
    /// `end`; returns the position where `depth` dropped to zero.
    #[inline(always)]
    pub(crate) fn scan_current(&self, pairs: Pairs, end: u32, depth: &mut usize) -> Option<usize> {
        let cur = self.current.as_ref()?;
        let (opens, closes) = pair_masks(
            self.cursor.backend,
            self.cursor.bytes_at(cur.start),
            cur.within_quotes,
            pairs,
        );
        let window = low_bits(end) & !low_bits(self.position_in_current());
        scan_block(opens & window, closes & window, depth).map(|rel| cur.start + rel as usize)
    }

    /// The depth classifier's block loop (§4.4): a depth skip, and a
    /// seek's gap between `memmem` candidates. Scans what is left of the
    /// current block, then advances block by block, counting `pairs`
    /// outside strings until `depth` drops to zero, the block containing
    /// `until` (which must lie past the current one) is loaded and left
    /// unconsumed for the caller's partial scan, or the input ends.
    /// `counter` names the classifier the blocks are attributed to.
    #[inline(always)]
    pub(crate) fn scan_blocks(
        &mut self,
        pairs: Pairs,
        until: usize,
        depth: &mut usize,
        counter: impl Fn(&mut ClassifierCounters) -> &mut u64,
    ) -> BlockScan {
        if let Some(pos) = self.scan_current(pairs, BLOCK_SIZE as u32, depth) {
            return BlockScan::Closed(pos);
        }
        if let Some(cur) = &mut self.current {
            cur.mask = 0;
        }
        while let Some(block) = self.cursor.next() {
            let blocks = counter(&mut self.counters);
            *blocks = blocks.saturating_add(1);
            self.current = Some(CurrentBlock::loaded(block));
            let (start, within_quotes) = block;
            if until < start + BLOCK_SIZE {
                self.consumed_upto = self.consumed_upto.max(start);
                return BlockScan::Reached;
            }
            let (opens, closes) = pair_masks(
                self.cursor.backend,
                self.cursor.bytes_at(start),
                within_quotes,
                pairs,
            );
            if let Some(rel) = scan_block(opens, closes, depth) {
                return BlockScan::Closed(start + rel as usize);
            }
        }
        self.consumed_upto = self.cursor.input.len();
        BlockScan::End
    }

    /// The iterator's position as a bit of the current block: 0 when it
    /// lies before the block, 64 when past it.
    #[inline(always)]
    fn position_in_current(&self) -> u32 {
        self.current.map_or(0, |cur| {
            self.consumed_upto.saturating_sub(cur.start).min(BLOCK_SIZE) as u32
        })
    }

    /// Clears any outstanding peek (internal helper for classifiers that
    /// take over the stream).
    #[inline(always)]
    pub(crate) fn clear_peeked(&mut self) {
        self.peeked = None;
    }

    /// The backend the iterator's kernels come from.
    #[inline(always)]
    #[must_use]
    pub fn backend(&self) -> B {
        self.cursor.backend
    }

    /// Ensures a current block covering `position()` is loaded and returns
    /// its `(start, within_quotes)`, advancing over exhausted blocks.
    #[inline(always)]
    pub(crate) fn seek_current_block(&mut self) -> Option<(usize, u64)> {
        loop {
            if let Some(cur) = &self.current {
                if self.consumed_upto < cur.start + BLOCK_SIZE {
                    return Some((cur.start, cur.within_quotes));
                }
            }
            if !self.seek_advance_block() {
                return None;
            }
        }
    }

    /// Makes the block containing `pos` current for a document seek and
    /// returns its `(start, within_quotes)`, or `None` at EOF. The blocks
    /// before it owe only their quote state — whole superblocks of them
    /// are not even buffered — and every block crossed counts as
    /// quote-only.
    #[inline(always)]
    pub(crate) fn quote_block_at(&mut self, pos: usize) -> Option<(usize, u64)> {
        loop {
            if let Some(cur) = &self.current {
                if pos < cur.start + BLOCK_SIZE {
                    debug_assert!(pos >= cur.start, "the cursor has passed {pos}");
                    return Some((cur.start, cur.within_quotes));
                }
            }
            let skipped = self.cursor.skip_before(pos);
            let block = self.cursor.next();
            let crossed = skipped + u64::from(block.is_some());
            self.counters.blocks_quote = self.counters.blocks_quote.saturating_add(crossed);
            self.current = Some(CurrentBlock::loaded(block?));
        }
    }

    /// Loads the next block as the current one with an empty structural
    /// mask (its events are being absorbed by a seek).
    #[inline(always)]
    pub(crate) fn seek_advance_block(&mut self) -> bool {
        match self.cursor.next() {
            Some(block) => {
                self.counters.blocks_seek = self.counters.blocks_seek.saturating_add(1);
                self.current = Some(CurrentBlock::loaded(block));
                if self.consumed_upto < block.0 {
                    self.consumed_upto = block.0;
                }
                true
            }
            None => {
                if let Some(cur) = &mut self.current {
                    cur.mask = 0;
                }
                self.consumed_upto = self.cursor.input.len();
                false
            }
        }
    }

    /// Restores structural classification of the current block from `pos`
    /// (exclusive when `consume` is set), leaving earlier bits consumed.
    #[inline(always)]
    pub(crate) fn reposition_within_current(&mut self, pos: usize, consume: bool) {
        let Some(cur) = self.current else { return };
        debug_assert!(pos >= cur.start && pos < cur.start + BLOCK_SIZE);
        self.consumed_upto = pos + usize::from(consume);
        self.pend_from((pos - cur.start) as u32 + u32::from(consume));
    }

    /// Moves to `pos` in the current block with nothing pending: a
    /// document seek's atomic hit, after which nobody reads the block's
    /// structural characters.
    #[inline(always)]
    pub(crate) fn park_within_current(&mut self, pos: usize) {
        let Some(cur) = &mut self.current else { return };
        debug_assert!(pos >= cur.start && pos < cur.start + BLOCK_SIZE);
        cur.mask = 0;
        self.consumed_upto = pos;
    }

    /// Marks the remainder of the current block consumed (used by seeks
    /// absorbing regions known to hold no structural characters). Returns
    /// `false` at EOF.
    #[inline(always)]
    pub(crate) fn consume_rest_of_block(&mut self) -> bool {
        if let Some(cur) = &mut self.current {
            cur.mask = 0;
            self.consumed_upto = self.consumed_upto.max(cur.start + BLOCK_SIZE);
            true
        } else {
            self.seek_advance_block()
        }
    }

    /// Fast-forwards so that the next yielded event is at or after
    /// `target`, which must not precede the current position. Returns
    /// `false` at EOF.
    #[inline(always)]
    pub(crate) fn advance_to(&mut self, target: usize) -> bool {
        loop {
            if let Some(cur) = self.current {
                if target < cur.start + BLOCK_SIZE {
                    self.reposition_within_current(target, false);
                    return true;
                }
            }
            if !self.seek_advance_block() {
                return false;
            }
        }
    }

    /// Backtracks from the structural character at `pos` to the member
    /// label preceding it (§3.4).
    ///
    /// Returns the raw label bytes (escapes undecoded, quotes stripped), or
    /// `None` when there is no label — the element is an array entry or the
    /// document root — in which case the engine uses the artificial label
    /// (the automaton's fallback transition).
    #[must_use]
    pub fn label_before(&self, pos: usize) -> Option<&'a [u8]> {
        let input = self.cursor.input;
        let mut j = last_nonws_before(input, pos)?;
        if input[j] == b':' {
            j = last_nonws_before(input, j)?;
        }
        if input[j] != b'"' {
            return None;
        }
        let close = j;
        // Scan backwards for the nearest unescaped quote — the label's
        // opening quote. A quote is unescaped iff preceded by an even
        // number of backslashes.
        let mut q = close;
        loop {
            q = input[..q].iter().rposition(|&b| b == b'"')?;
            let backslashes = input[..q].iter().rev().take_while(|&&b| b == b'\\').count();
            if backslashes % 2 == 0 {
                return Some(&input[q + 1..close]);
            }
        }
    }
}

/// Index of the last non-whitespace byte strictly before `pos`.
fn last_nonws_before(input: &[u8], pos: usize) -> Option<usize> {
    input[..pos]
        .iter()
        .rposition(|&b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
}

/// The openings and closings of `pairs` in one block outside strings.
#[inline(always)]
fn pair_masks<B: Backend>(
    backend: B,
    block: &Block,
    within_quotes: u64,
    pairs: Pairs,
) -> (u64, u64) {
    let (opens, closes) = match pairs {
        Pairs::One(bracket) => backend.eq_mask2(block, bracket.opening(), bracket.closing()),
        Pairs::Both => {
            let braces = backend.eq_mask2(block, b'{', b'}');
            let brackets = backend.eq_mask2(block, b'[', b']');
            (braces.0 | brackets.0, braces.1 | brackets.1)
        }
    };
    (opens & !within_quotes, closes & !within_quotes)
}

#[inline(always)]
fn to_structural(byte: u8, pos: usize) -> Structural {
    match byte {
        b'{' => Structural::Opening(BracketType::Brace, pos),
        b'[' => Structural::Opening(BracketType::Bracket, pos),
        b'}' => Structural::Closing(BracketType::Brace, pos),
        b']' => Structural::Closing(BracketType::Bracket, pos),
        b':' => Structural::Colon(pos),
        b',' => Structural::Comma(pos),
        // PANIC-OK: the classifier only emits the six structural bytes; anything else is a solver bug worth a loud, contained crash
        other => unreachable!("classifier yielded non-structural byte {other:#04x}"),
    }
}
