//! Batch-execution counters (Tier A).
//!
//! [`BatchCounters`] is the batch-layer sibling of [`RunStats`]: plain
//! saturating `u64` counters describing one multi-document batch run —
//! how many documents were processed, across how many worker shards, how
//! many chunks the work queue handed out, and how the compiled-query
//! cache behaved. `rsq-batch` fills one in per batch; like [`RunStats`],
//! reports from several batches merge with `+`/`+=`.
//!
//! [`RunStats`]: crate::RunStats

use crate::series::Value;
use std::fmt;

/// Counters describing one batch run over many documents.
///
/// All counters saturate instead of wrapping, so accumulation can never
/// panic (even under `-C overflow-checks=on`) and merged totals are
/// monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Documents fed to the engine (successful or not).
    pub documents: u64,
    /// Documents whose run ended in an error (limit trip, strict-mode
    /// rejection). These are *reported*, never fatal to the batch.
    pub failed_documents: u64,
    /// Worker shards the batch actually ran on.
    pub shards: u64,
    /// Chunks claimed from the document feed (load-balance grain).
    pub queue_claims: u64,
    /// Compiled-query cache hits: runs that skipped parser + NFA +
    /// minimization entirely.
    pub cache_hits: u64,
    /// Compiled-query cache misses: full compilations performed.
    pub cache_misses: u64,
    /// Compiled-query cache evictions: entries dropped to make room.
    pub cache_evictions: u64,
}

crate::series_rows! {
    /// Every field, once, plus the two derived cache ratios.
    impl BatchCounters, merged {
        "documents" sum(|c| c.documents) => counter rsq_batch_documents_total "Documents processed by batch runs.";
        "failed_documents" sum(|c| c.failed_documents) => counter rsq_batch_failed_documents_total "Documents that ended in a per-document error.";
        "shards" sum(|c| c.shards);
        "queue_claims" sum(|c| c.queue_claims);
        "cache_hits" sum(|c| c.cache_hits) => counter rsq_batch_cache_hits_total "Compiled-query cache hits.";
        "cache_misses" sum(|c| c.cache_misses) => counter rsq_batch_cache_misses_total "Compiled-query cache misses.";
        "cache_evictions" sum(|c| c.cache_evictions) => counter rsq_batch_cache_evictions_total "Compiled-query cache evictions.";
        "cache_hit_ratio" calc(|c| Value::F64(c.cache_hit_ratio(), 4, 4));
        "cache_miss_ratio" calc(|c| Value::F64(c.cache_miss_ratio(), 4, 4));
    }
}

impl BatchCounters {
    /// A zeroed report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of cache lookups that hit, in `[0, 1]` (0 when there
    /// were no lookups).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let lookups = self.cache_hits.saturating_add(self.cache_misses);
        if lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_hits as f64 / lookups as f64
            }
        }
    }

    /// Fraction of cache lookups that missed, in `[0, 1]` (0 when there
    /// were no lookups).
    #[must_use]
    pub fn cache_miss_ratio(&self) -> f64 {
        let lookups = self.cache_hits.saturating_add(self.cache_misses);
        if lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cache_misses as f64 / lookups as f64
            }
        }
    }
}

impl fmt::Display for BatchCounters {
    /// Human-readable table (multi-line), for `--stats` output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "documents          {} ({} failed)",
            self.documents, self.failed_documents
        )?;
        writeln!(f, "shards             {}", self.shards)?;
        writeln!(f, "queue claims       {}", self.queue_claims)?;
        write!(
            f,
            "query cache        {} hits, {} misses, {} evictions ({:.1}% hit)",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_stable_keys() {
        let json = BatchCounters::new().to_json();
        for key in [
            "documents",
            "failed_documents",
            "shards",
            "queue_claims",
            "cache_hits",
            "cache_misses",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(!json.contains('\n'));
    }

    #[test]
    fn display_mentions_cache() {
        let text = BatchCounters::new().to_string();
        assert!(text.contains("query cache"), "{text}");
        assert!(text.contains("evictions"), "{text}");
    }

    #[test]
    fn ratios_cover_empty_and_mixed_lookups() {
        let empty = BatchCounters::new();
        assert!((empty.cache_hit_ratio() - 0.0).abs() < 1e-12);
        let c = BatchCounters {
            cache_hits: 3,
            cache_misses: 1,
            ..BatchCounters::new()
        };
        assert!((c.cache_hit_ratio() - 0.75).abs() < 1e-12);
        assert!((c.cache_miss_ratio() - 0.25).abs() < 1e-12);
        let json = c.to_json();
        assert!(json.contains("\"cache_hit_ratio\":0.7500"), "{json}");
        assert!(json.contains("\"cache_miss_ratio\":0.2500"), "{json}");
        assert!(json.contains("\"cache_evictions\":0"), "{json}");
    }
}
