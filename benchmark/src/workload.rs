//! The seven workloads. Why each is here is recorded in `/BENCHMARK.json`
//! and argued in `README.md`; this table is what actually runs.

use rsq_datagen::Dataset;

/// How `rsq` is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `rsq --count QUERY FILE`
    FileCount,
    /// `rsq QUERY FILE`, every matched value on stdout.
    FileValues,
    /// `rsq --count QUERY < FILE`
    StdinCount,
    /// `rsq --count --threads 2 --batch-ndjson FILE QUERY`
    BatchNdjson,
    /// `rsq --count --threads 1 --serve-socket S QUERY`, driven over the
    /// socket by [`crate::serve_load`].
    ServeSocket,
}

pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub query: &'static str,
    /// The query's first label, scanned for as `"label"` by the memmem
    /// rung of the ladder.
    pub first_label: &'static str,
    pub kind: Kind,
    /// Documents in the corpus and the generator's size target for each
    /// (multi-document corpora are compacted to one NDJSON line per
    /// document, which shrinks them below the target).
    pub docs: usize,
    pub doc_target_bytes: usize,
    /// Whether the whole workload — harness threads, wrapper and `rsq` —
    /// is confined to one CPU. Set where `rsq` talks to a partner that
    /// runs at the same time (the harness draining 5 MB of values from
    /// its stdout, or driving its socket): whether the kernel puts the
    /// two on one CPU or on two changes throughput, CPU time and latency
    /// by 20–45 %, and its choice lasts for minutes (README, "One CPU").
    pub one_cpu: bool,
}

/// Single documents are 64 MB decimal: a run takes 20–450 ms, so the
/// ~1.4 ms process-spawn floor stays below 7 % of any of them.
const SINGLE: usize = 64_000_000;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "cli-count-b1",
        dataset: Dataset::BestBuy,
        query: "$.products.*.categoryPath.*.id",
        first_label: "products",
        kind: Kind::FileCount,
        docs: 1,
        doc_target_bytes: SINGLE,
        one_cpu: false,
    },
    Workload {
        name: "cli-count-w1",
        dataset: Dataset::Walmart,
        query: "$.items.*.bestMarketplacePrice.price",
        first_label: "items",
        kind: Kind::FileCount,
        docs: 1,
        doc_target_bytes: SINGLE,
        one_cpu: false,
    },
    Workload {
        name: "cli-count-a2",
        dataset: Dataset::Ast,
        query: "$..inner..inner..type.qualType",
        first_label: "inner",
        kind: Kind::FileCount,
        docs: 1,
        doc_target_bytes: SINGLE,
        one_cpu: false,
    },
    Workload {
        name: "cli-values-b1",
        dataset: Dataset::BestBuy,
        query: "$.products.*.categoryPath.*.id",
        first_label: "products",
        kind: Kind::FileValues,
        docs: 1,
        doc_target_bytes: SINGLE,
        one_cpu: true,
    },
    Workload {
        name: "cli-stdin-b3r",
        dataset: Dataset::BestBuy,
        query: "$..videoChapters",
        first_label: "videoChapters",
        kind: Kind::StdinCount,
        docs: 1,
        doc_target_bytes: SINGLE,
        one_cpu: false,
    },
    Workload {
        name: "batch-ndjson-t1",
        dataset: Dataset::TwitterLarge,
        query: "$.*.entities.urls.*.url",
        first_label: "entities",
        kind: Kind::BatchNdjson,
        docs: 40_000,
        doc_target_bytes: 1_600,
        one_cpu: false,
    },
    Workload {
        name: "serve-socket-b1",
        dataset: Dataset::BestBuy,
        query: "$.products.*.categoryPath.*.id",
        first_label: "products",
        kind: Kind::ServeSocket,
        docs: 500,
        doc_target_bytes: 64 * 1024,
        one_cpu: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
