//! The document feed: windows of documents published while the run is
//! under way, handed to the workers a chunk at a time.
//!
//! A batch's documents reach the workers in *windows*: a slice of
//! in-memory documents is one window, an NDJSON buffer one per
//! [`WINDOW_BYTES`](crate::ndjson::WINDOW_BYTES) of input, published by
//! the calling thread as it splits them — so the workers run window 0
//! while window 1 is still being split. Within a window a worker claims
//! the next `chunk` documents under one short lock (the chunk's slices
//! are copied out, a few hundred bytes). Claiming in chunks rather than
//! one document at a time amortizes the lock while keeping load balancing
//! fine-grained — a worker stuck on a pathological document only delays
//! the chunk it already holds. A claim never crosses a window edge, so the
//! number of claims depends on the input alone, not on when a window was
//! published relative to the claims before it.
//!
//! Determinism does not depend on the feed at all: workers tag every
//! result with its document index and the merge step orders by index, so
//! any interleaving of claims produces byte-identical output.

use crate::sync::Lock;
use std::sync::Condvar;

/// The documents of one batch run, as far as they have been published.
#[derive(Debug, Default)]
pub(crate) struct Feed<'d> {
    state: Lock<Published<'d>>,
    more: Condvar,
}

#[derive(Debug, Default)]
struct Published<'d> {
    /// Every document published so far, in input order.
    docs: Vec<&'d [u8]>,
    /// Per window: the index one past its last document, and the
    /// documents a claim takes from it.
    windows: Vec<(usize, usize)>,
    /// The window being claimed from, and the first unclaimed document.
    window: usize,
    next: usize,
    /// No further window will be published.
    closed: bool,
    claims: u64,
}

impl<'d> Feed<'d> {
    /// Picks a chunk size for `total` documents on `threads` workers:
    /// roughly four claims per worker for balance, capped at 32 so a
    /// straggler never holds a large tail, floored at 1.
    pub(crate) fn auto_chunk(total: usize, threads: usize) -> usize {
        let per_claim = total / (threads.max(1) * 4);
        per_claim.clamp(1, 32)
    }

    /// Publishes one window, to be claimed `chunk` documents at a time.
    pub(crate) fn publish(&self, window: &[&'d [u8]], chunk: usize) {
        if window.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        state.docs.extend_from_slice(window);
        let end = state.docs.len();
        state.windows.push((end, chunk.max(1)));
        drop(state);
        self.more.notify_all();
    }

    /// Declares the last window published: workers that find nothing
    /// left stop instead of waiting.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.more.notify_all();
    }

    /// Claims the next chunk of documents into `into` (replacing what it
    /// held) and returns the index of the first, waiting for a window to
    /// be published if none is; `None` once the feed is closed and
    /// drained. Each document is handed out exactly once.
    pub(crate) fn claim(&self, into: &mut Vec<&'d [u8]>) -> Option<usize> {
        let mut state = self.state.lock();
        loop {
            match state.windows.get(state.window).copied() {
                Some((end, chunk)) if state.next < end => {
                    let first = state.next;
                    state.next = (first + chunk).min(end);
                    state.claims += 1;
                    into.clear();
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "first < next <= end <= docs.len(): a window's end is the length of `docs` when it was published"
                    )]
                    into.extend_from_slice(&state.docs[first..state.next]);
                    return Some(first);
                }
                Some(_) => state.window += 1,
                None if state.closed => return None,
                None => state = state.wait(&self.more),
            }
        }
    }

    /// Documents published and claims made (the `documents` and
    /// `queue_claims` counters).
    pub(crate) fn totals(&self) -> (usize, u64) {
        let state = self.state.lock();
        (state.docs.len(), state.claims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &[u8] = b"{}";

    fn drain(feed: &Feed<'_>) -> Vec<(usize, usize)> {
        let mut chunk = Vec::new();
        let mut claims = Vec::new();
        while let Some(first) = feed.claim(&mut chunk) {
            claims.push((first, chunk.len()));
        }
        claims
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let feed = Feed::default();
        feed.publish(&[DOC; 10], 3);
        feed.close();
        assert_eq!(drain(&feed), [(0, 3), (3, 3), (6, 3), (9, 1)]);
        assert_eq!(feed.totals(), (10, 4));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let feed = Feed::default();
        feed.publish(&[], 8);
        feed.close();
        assert!(drain(&feed).is_empty());
        assert_eq!(feed.totals(), (0, 0));
    }

    #[test]
    fn chunk_zero_is_clamped() {
        let feed = Feed::default();
        feed.publish(&[DOC; 2], 0);
        feed.close();
        assert_eq!(drain(&feed), [(0, 1), (1, 1)]);
    }

    #[test]
    fn auto_chunk_bounds() {
        assert_eq!(Feed::auto_chunk(0, 4), 1);
        assert_eq!(Feed::auto_chunk(10, 0), 2); // threads clamped to 1
        assert_eq!(Feed::auto_chunk(1_000_000, 2), 32);
        assert_eq!(Feed::auto_chunk(64, 4), 4);
    }

    #[test]
    fn claims_stop_at_window_edges() {
        let feed = Feed::default();
        feed.publish(&[DOC; 5], 4);
        feed.publish(&[DOC; 3], 2);
        feed.close();
        assert_eq!(drain(&feed), [(0, 4), (4, 1), (5, 2), (7, 1)]);
    }

    #[test]
    fn concurrent_claims_partition_the_space() {
        let feed = Feed::default();
        let seen = Lock::new(vec![false; 1000]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut chunk = Vec::new();
                    while let Some(first) = feed.claim(&mut chunk) {
                        let mut seen = seen.lock();
                        for i in first..first + chunk.len() {
                            assert!(!seen[i], "index {i} claimed twice");
                            seen[i] = true;
                        }
                    }
                });
            }
            // The workers are claiming (or waiting) while these arrive.
            for _ in 0..10 {
                feed.publish(&[DOC; 100], 7);
            }
            feed.close();
        });
        assert!(seen.into_inner().unwrap().into_iter().all(|b| b));
    }
}
