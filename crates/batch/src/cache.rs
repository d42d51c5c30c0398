//! Bounded compiled-query cache.
//!
//! Compiling a JSONPath query — parse, NFA construction, determinization
//! to the minimal DFA — costs orders of magnitude more than running the
//! resulting automaton over a small document, so a batch service that
//! sees a working set of queries should pay compilation once per query,
//! not once per document. [`QueryCache`] is a small LRU keyed by the
//! *normalized* query text: the text is parsed and re-rendered through
//! the parser's canonical [`Display`](std::fmt::Display) form, so
//! bracket and dot spellings of the same selector (`$['a'][*]` and
//! `$.a.*`) share one cache slot and one compiled [`Engine`].
//!
//! The cache stores `Arc<Engine>` so workers across shards share one
//! compiled automaton with no copying. Engine options are fixed per
//! cache (they come from the owning `BatchEngine`), which keeps options
//! out of the key: one `BatchEngine` == one options configuration.
//!
//! Recency is tracked with a logical clock over a plain `Vec` — with
//! capacities in the tens, a linear scan beats any pointer-chasing LRU
//! structure and keeps the crate dependency-free.

use rsq_engine::{Engine, EngineError, EngineOptions};
use rsq_query::Query;
use std::sync::{Arc, Mutex};

/// One cache slot: normalized key, compiled engine, last-use stamp.
#[derive(Debug)]
struct Slot {
    key: String,
    engine: Arc<Engine>,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU cache of compiled query engines, keyed by normalized
/// query text.
///
/// Thread-safe: `get_or_compile` may be called from any number of
/// threads. Compilation happens under the lock — queries compile in
/// microseconds, and serializing compilation guarantees each distinct
/// query is compiled at most once per residency.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl QueryCache {
    /// A cache holding at most `capacity` compiled queries (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Returns the compiled engine for `query`, compiling (and caching)
    /// it on first sight. Spelling variants that parse to the same query
    /// share one entry.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the query does not parse or its
    /// automaton exceeds the state cap. Failures are not cached: a retry
    /// re-parses.
    pub fn get_or_compile(
        &self,
        query: &str,
        options: &EngineOptions,
    ) -> Result<Arc<Engine>, EngineError> {
        // Parse outside the happy path only when the raw text misses:
        // normalization requires a parse anyway, so parse once and reuse
        // the Query for compilation on a miss.
        let parsed = Query::parse(query)?;
        let key = parsed.to_string();
        #[expect(
            clippy::expect_used,
            reason = "cache mutex poisoned only if a panic escaped per-document containment; a torn cache must not serve"
        )]
        let mut inner = self.inner.lock().expect("query cache poisoned");
        inner.clock += 1;
        let now = inner.clock;
        if let Some(slot) = inner.slots.iter_mut().find(|s| s.key == key) {
            slot.stamp = now;
            let engine = Arc::clone(&slot.engine);
            inner.hits += 1;
            return Ok(engine);
        }
        let engine = Arc::new(Engine::with_options(&parsed, *options)?);
        inner.misses += 1;
        if inner.slots.len() == self.capacity {
            // Evict the least recently used slot.
            #[expect(
                clippy::expect_used,
                reason = "capacity >= 1, so a full cache has a slot to evict"
            )]
            let lru = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("capacity >= 1, so a full cache has slots");
            inner.slots.swap_remove(lru);
            inner.evictions += 1;
        }
        inner.slots.push(Slot {
            key,
            engine: Arc::clone(&engine),
            stamp: now,
        });
        Ok(engine)
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "cache mutex poisoned only if a panic escaped per-document containment; a torn cache must not serve"
        )]
        self.inner.lock().expect("query cache poisoned").hits
    }

    /// Cache misses (compilations performed) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "cache mutex poisoned only if a panic escaped per-document containment; a torn cache must not serve"
        )]
        self.inner.lock().expect("query cache poisoned").misses
    }

    /// Entries evicted to make room so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "cache mutex poisoned only if a panic escaped per-document containment; a torn cache must not serve"
        )]
        self.inner.lock().expect("query cache poisoned").evictions
    }

    /// Number of compiled queries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "cache mutex poisoned only if a panic escaped per-document containment; a torn cache must not serve"
        )]
        self.inner.lock().expect("query cache poisoned").slots.len()
    }

    /// True when no queries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> EngineOptions {
        EngineOptions::default()
    }

    #[test]
    fn second_lookup_hits() {
        let cache = QueryCache::new(4);
        let a = cache.get_or_compile("$..a", &opts()).unwrap();
        let b = cache.get_or_compile("$..a", &opts()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn spelling_variants_share_a_slot() {
        let cache = QueryCache::new(4);
        let dot = cache.get_or_compile("$.a.b.*", &opts()).unwrap();
        let bracket = cache.get_or_compile("$['a'][\"b\"][*]", &opts()).unwrap();
        assert!(Arc::ptr_eq(&dot, &bracket), "normalization failed");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_drops_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.get_or_compile("$.a", &opts()).unwrap();
        cache.get_or_compile("$.b", &opts()).unwrap();
        cache.get_or_compile("$.a", &opts()).unwrap(); // refresh a
        assert_eq!(cache.evictions(), 0);
        cache.get_or_compile("$.c", &opts()).unwrap(); // evicts b
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let misses_before = cache.misses();
        cache.get_or_compile("$.a", &opts()).unwrap(); // still resident
        assert_eq!(cache.misses(), misses_before);
        cache.get_or_compile("$.b", &opts()).unwrap(); // recompile
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn parse_failure_is_not_cached() {
        let cache = QueryCache::new(2);
        assert!(cache.get_or_compile("not a query", &opts()).is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn concurrent_lookups_compile_once() {
        let cache = QueryCache::new(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        cache.get_or_compile("$..x.y", &opts()).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 79);
    }
}
