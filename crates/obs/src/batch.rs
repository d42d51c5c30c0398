//! Batch-execution counters (Tier A).
//!
//! [`BatchCounters`] is the batch-layer sibling of [`RunStats`]: plain
//! saturating `u64` counters describing one multi-document batch run —
//! how many documents were processed, across how many worker shards, how
//! many chunks the work queue handed out. `rsq-batch` fills one in per
//! batch; like [`RunStats`],
//! reports from several batches merge with `+`/`+=`.
//!
//! [`RunStats`]: crate::RunStats

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
    /// Queries compiled for the batch: one, as every batch compiles its
    /// query. Not a series; the name is the repo benchmark's, whose
    /// `batch.cache_misses` rung reads it.
    pub cache_misses: u64,
}

crate::series_rows! {
    /// Every reported field, once.
    impl BatchCounters, merged {
        "documents" sum(|c| c.documents) => counter rsq_batch_documents_total "Documents processed by batch runs.";
        "failed_documents" sum(|c| c.failed_documents) => counter rsq_batch_failed_documents_total "Documents that ended in a per-document error.";
        "shards" sum(|c| c.shards);
        "queue_claims" sum(|c| c.queue_claims);
    }
}

impl BatchCounters {
    /// A zeroed report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
        write!(f, "queue claims       {}", self.queue_claims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_stable_keys() {
        let json = BatchCounters::new().to_json();
        for key in ["documents", "failed_documents", "shards", "queue_claims"] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
        assert!(!json.contains("cache"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn display_lists_the_counters() {
        let text = BatchCounters::new().to_string();
        assert!(text.contains("queue claims"), "{text}");
        assert!(!text.contains("cache"), "{text}");
    }
}
