//! Tier C: a bounded-resolution byte-level skip map.
//!
//! [`SkipMap`] divides the document into fixed-size cells (a multiple of
//! the 64-byte classifier block) and records, for each cell, which
//! skipping technique elided it. A cell is attributed to a technique
//! only when it lies *wholly inside* the reported span — partially
//! covered boundary cells stay unattributed — so a cell marked as
//! skipped can never contain a structural event the automaton consumed.
//! The map also tracks, in a parallel bitmap, the cells in which the
//! engine *did* consume events; [`SkipMap::conflicts`] counts cells that
//! are both, which must always be zero (the skip-map property test
//! relies on this invariant across backends).
//!
//! Resolution is bounded: `SkipMap::new` picks the smallest block-aligned
//! cell size that keeps the map under a caller-supplied cell budget, so
//! profiling a multi-gigabyte document cannot allocate an unbounded
//! index.

use std::fmt;

/// The classifier block size the cell granularity is aligned to.
pub const BLOCK_SIZE: usize = 64;

/// Default cell budget: 64Ki cells (4 MiB documents at block
/// granularity; larger documents get proportionally coarser cells).
pub const DEFAULT_MAX_CELLS: usize = 1 << 16;

/// The skipping technique that elided a byte range (§3.3 plus the
/// `memmem` head start of §4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipTechnique {
    /// Leaf skipping: commas/colons toggled off, atomic members crossed
    /// without event delivery.
    Leaf,
    /// Child skipping: a subtree fast-forwarded on a rejecting
    /// transition.
    Child,
    /// Sibling skipping: fast-forward to the enclosing object's end.
    Sibling,
    /// Skip-to-label: the §4.5 in-element label seek.
    Label,
    /// `memmem` head start: inter-candidate regions never structurally
    /// classified.
    Memmem,
    /// Route exhaustion (DESIGN.md §15): the fast-path walker proved
    /// nothing further in the document can match and stopped; the rest
    /// was never classified.
    Exit,
}

impl SkipTechnique {
    /// All techniques, in display order.
    pub const ALL: [SkipTechnique; 6] = [
        SkipTechnique::Leaf,
        SkipTechnique::Child,
        SkipTechnique::Sibling,
        SkipTechnique::Label,
        SkipTechnique::Memmem,
        SkipTechnique::Exit,
    ];

    /// Stable lowercase name (used as a JSON key and metric label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SkipTechnique::Leaf => "leaf",
            SkipTechnique::Child => "child",
            SkipTechnique::Sibling => "sibling",
            SkipTechnique::Label => "label",
            SkipTechnique::Memmem => "memmem",
            SkipTechnique::Exit => "exit",
        }
    }

    /// One-character tag for the rendered map strip.
    #[must_use]
    fn glyph(self) -> char {
        match self {
            SkipTechnique::Leaf => 'l',
            SkipTechnique::Child => 'c',
            SkipTechnique::Sibling => 's',
            SkipTechnique::Label => 'L',
            SkipTechnique::Memmem => 'm',
            SkipTechnique::Exit => 'x',
        }
    }

    #[must_use]
    fn tag(self) -> u8 {
        match self {
            SkipTechnique::Leaf => 1,
            SkipTechnique::Child => 2,
            SkipTechnique::Sibling => 3,
            SkipTechnique::Label => 4,
            SkipTechnique::Memmem => 5,
            SkipTechnique::Exit => 6,
        }
    }

    #[must_use]
    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SkipTechnique::Leaf),
            2 => Some(SkipTechnique::Child),
            3 => Some(SkipTechnique::Sibling),
            4 => Some(SkipTechnique::Label),
            5 => Some(SkipTechnique::Memmem),
            6 => Some(SkipTechnique::Exit),
            _ => None,
        }
    }
}

impl fmt::Display for SkipTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cell-granular map of which technique elided each region of one
/// document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkipMap {
    /// Bytes per cell; always a multiple of [`BLOCK_SIZE`].
    granularity: usize,
    /// Technique tag per cell (0 = unattributed / classified).
    cells: Vec<u8>,
    /// Cells in which the engine consumed a structural event.
    events: Vec<u8>,
    /// Document length in bytes.
    doc_bytes: usize,
}

crate::series_rows! {
    /// The map summary: granularity, cell counts, and per-technique
    /// covered bytes.
    impl SkipMap {
        "granularity" get(|m| m.granularity as u64);
        "cells" get(|m| m.cells.len() as u64);
        "covered_cells" get(|m| m.covered_cells() as u64);
        "covered_bytes.leaf" get(|m| m.covered_bytes(SkipTechnique::Leaf));
        "covered_bytes.child" get(|m| m.covered_bytes(SkipTechnique::Child));
        "covered_bytes.sibling" get(|m| m.covered_bytes(SkipTechnique::Sibling));
        "covered_bytes.label" get(|m| m.covered_bytes(SkipTechnique::Label));
        "covered_bytes.memmem" get(|m| m.covered_bytes(SkipTechnique::Memmem));
        "covered_bytes.exit" get(|m| m.covered_bytes(SkipTechnique::Exit));
    }
}

impl SkipMap {
    /// A map for a `doc_bytes`-long document with at most
    /// [`DEFAULT_MAX_CELLS`] cells.
    #[must_use]
    pub fn new(doc_bytes: usize) -> Self {
        Self::with_max_cells(doc_bytes, DEFAULT_MAX_CELLS)
    }

    /// A map with the smallest block-aligned granularity that needs at
    /// most `max_cells` cells (`max_cells` is clamped to at least 1).
    #[must_use]
    pub fn with_max_cells(doc_bytes: usize, max_cells: usize) -> Self {
        let max_cells = max_cells.max(1);
        let blocks = doc_bytes.div_ceil(BLOCK_SIZE).max(1);
        let blocks_per_cell = blocks.div_ceil(max_cells);
        let granularity = blocks_per_cell.max(1) * BLOCK_SIZE;
        let n = doc_bytes.div_ceil(granularity).max(1);
        Self {
            granularity,
            cells: vec![0; n],
            events: vec![0; n],
            doc_bytes,
        }
    }

    /// Bytes per cell.
    #[must_use]
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Number of cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Document length this map was built for.
    #[must_use]
    pub fn doc_bytes(&self) -> usize {
        self.doc_bytes
    }

    /// Attributes to `technique` every cell lying wholly inside
    /// `[from, to)`. Cells already attributed keep their first
    /// technique. Out-of-range spans are clipped to the document.
    pub fn mark_span(&mut self, technique: SkipTechnique, from: usize, to: usize) {
        let to = to.min(self.doc_bytes);
        if from >= to {
            return;
        }
        // First cell fully at-or-after `from`; last cell ending
        // at-or-before `to`. A span reaching end-of-document wholly
        // covers the final (possibly partial) cell.
        let first = from.div_ceil(self.granularity);
        let last = if to == self.doc_bytes {
            self.cells.len()
        } else {
            to / self.granularity // exclusive
        };
        let tag = technique.tag();
        let last = last.min(self.cells.len());
        if first >= last {
            return;
        }
        // PANIC-OK: first..last was clamped to cells.len() by the guards above
        for cell in &mut self.cells[first..last] {
            if *cell == 0 {
                *cell = tag;
            }
        }
    }

    /// Records that the engine consumed a structural event at byte
    /// position `pos`.
    pub fn mark_event(&mut self, pos: usize) {
        let cell = pos / self.granularity;
        if let Some(e) = self.events.get_mut(cell) {
            *e = 1;
        }
    }

    /// Cells attributed to any technique.
    #[must_use]
    pub fn covered_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c != 0).count()
    }

    /// Bytes attributed to `technique` (last cell clipped to the
    /// document length).
    #[must_use]
    pub fn covered_bytes(&self, technique: SkipTechnique) -> u64 {
        let tag = technique.tag();
        let mut bytes = 0u64;
        for (i, &c) in self.cells.iter().enumerate() {
            if c == tag {
                let start = i * self.granularity;
                let end = ((i + 1) * self.granularity).min(self.doc_bytes);
                bytes += (end - start) as u64;
            }
        }
        bytes
    }

    /// Cells that are both attributed to a technique *and* contain a
    /// consumed structural event. Must be zero: skip spans report only
    /// regions the automaton never saw, and whole-cell attribution
    /// excludes boundary cells.
    #[must_use]
    pub fn conflicts(&self) -> usize {
        self.cells
            .iter()
            .zip(self.events.iter())
            .filter(|&(&c, &e)| c != 0 && e != 0)
            .count()
    }

    /// Renders the map as an ASCII strip of at most `width` characters:
    /// `.` for classified/unattributed, one letter per technique
    /// (`l`/`c`/`s`/`L`/`m`), majority technique per output column.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let width = width.max(1).min(self.cells.len());
        let mut out = String::with_capacity(width);
        for col in 0..width {
            let lo = col * self.cells.len() / width;
            let hi = (((col + 1) * self.cells.len()) / width).max(lo + 1);
            let mut counts = [0usize; 6];
            // PANIC-OK: hi <= cells.len() because col < width
            for &c in &self.cells[lo..hi] {
                // PANIC-OK: counts has 6 slots and the index is clamped with min(5)
                counts[usize::from(c.min(5))] += 1;
            }
            let (best_tag, best_n) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(tag, &n)| (n, tag))
                .map(|(tag, &n)| (tag, n))
                .unwrap_or((0, 0));
            let glyph = if best_n == 0 {
                '.'
            } else {
                #[allow(clippy::cast_possible_truncation)]
                SkipTechnique::from_tag(best_tag as u8).map_or('.', SkipTechnique::glyph)
            };
            out.push(glyph);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_is_block_aligned_and_bounded() {
        let m = SkipMap::with_max_cells(1 << 20, 1024);
        assert_eq!(m.granularity() % BLOCK_SIZE, 0);
        assert!(m.cells() <= 1024);
        // Small documents get block granularity.
        let m = SkipMap::with_max_cells(4096, 1024);
        assert_eq!(m.granularity(), BLOCK_SIZE);
        assert_eq!(m.cells(), 64);
    }

    #[test]
    fn only_wholly_covered_cells_are_marked() {
        let mut m = SkipMap::with_max_cells(640, usize::MAX);
        // Span [10, 200): cells 1 and 2 ([64,128), [128,192)) are wholly
        // inside; cells 0 and 3 are boundary cells and stay unmarked.
        m.mark_span(SkipTechnique::Child, 10, 200);
        assert_eq!(m.covered_bytes(SkipTechnique::Child), 128);
        m.mark_event(5); // in boundary cell 0
        m.mark_event(199); // in boundary cell 3
        assert_eq!(m.conflicts(), 0);
    }

    #[test]
    fn first_technique_wins_on_overlap() {
        let mut m = SkipMap::with_max_cells(256, usize::MAX);
        m.mark_span(SkipTechnique::Leaf, 0, 128);
        m.mark_span(SkipTechnique::Memmem, 0, 256);
        assert_eq!(m.covered_bytes(SkipTechnique::Leaf), 128);
        assert_eq!(m.covered_bytes(SkipTechnique::Memmem), 128);
    }

    #[test]
    fn event_in_marked_cell_is_a_conflict() {
        let mut m = SkipMap::with_max_cells(256, usize::MAX);
        m.mark_span(SkipTechnique::Sibling, 64, 192);
        m.mark_event(100);
        assert_eq!(m.conflicts(), 1);
    }

    #[test]
    fn final_cell_is_clipped_to_document_length() {
        let mut m = SkipMap::with_max_cells(100, usize::MAX);
        assert_eq!(m.cells(), 2);
        m.mark_span(SkipTechnique::Label, 64, 128);
        // Cell 1 spans [64, 128) but the document ends at 100.
        assert_eq!(m.covered_bytes(SkipTechnique::Label), 36);
    }

    #[test]
    fn render_compresses_to_width() {
        let mut m = SkipMap::with_max_cells(64 * 8, usize::MAX);
        m.mark_span(SkipTechnique::Child, 0, 64 * 4);
        let strip = m.render(4);
        assert_eq!(strip.len(), 4);
        assert_eq!(&strip[..2], "cc");
        assert_eq!(&strip[2..], "..");
    }

    #[test]
    fn json_lists_all_techniques() {
        let m = SkipMap::new(64);
        let json = m.to_json();
        for t in SkipTechnique::ALL {
            assert!(json.contains(&format!("\"{}\":", t.name())), "{json}");
        }
    }
}
