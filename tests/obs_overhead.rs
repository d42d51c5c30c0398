//! Observability overhead guard: on a generated document,
//! `try_run_with_stats` and a Tier C `ProfileStats` recorder must report
//! byte-identical match positions to `try_run`, and the statistics must
//! be consistent with the run. Tier-1 runs it on 256 KB documents, and
//! `--features slow-tests` on 4 MB ones. The throughput comparison lives
//! in the `stats-overhead` experiments subcommand (timing assertions are
//! too flaky for CI).

use rsq::datagen::{Dataset, GenConfig};
use rsq::engine::{PositionsSink, ProfileStats, RunStats};
use rsq::{Engine, EngineOptions, Input, Query};

/// The generated document's size.
const DOC_BYTES: usize = if cfg!(feature = "slow-tests") {
    4_000_000
} else {
    256_000
};

fn large_doc(dataset: Dataset) -> Vec<u8> {
    dataset
        .generate(&GenConfig {
            target_bytes: DOC_BYTES,
            seed: 0x0b5_2023,
        })
        .into_bytes()
}

#[test]
fn stats_collection_never_changes_matches() {
    let cases = [
        (Dataset::BestBuy, "$.products.*.categoryPath.*.id"),
        (Dataset::BestBuy, "$..videoChapters"),
        (Dataset::Wikimedia, "$..P150..mainsnak.property"),
        (Dataset::Crossref, "$..author..affiliation..name"),
        (Dataset::Ast, "$..inner..inner..type.qualType"),
    ];
    let d = EngineOptions::default();
    let variants = [
        d,
        EngineOptions {
            head_start: false,
            ..d
        },
        EngineOptions {
            skip_leaves: false,
            skip_children: false,
            skip_siblings: false,
            label_seek: false,
            ..d
        },
    ];
    for (dataset, query) in cases {
        let doc = large_doc(dataset);
        for options in variants {
            let engine = Engine::with_options(&Query::parse(query).unwrap(), options).unwrap();
            let plain = engine.try_positions(&doc).unwrap();

            let mut sink = PositionsSink::new();
            let stats: RunStats = engine.try_run_with_stats(&doc, &mut sink).unwrap();
            let with_stats = sink.into_positions();

            assert_eq!(plain, with_stats, "{query} with {options:?}");
            assert_eq!(stats.bytes, doc.len() as u64, "{query}");
            assert_eq!(stats.matches, plain.len() as u64, "{query}");
            // The head start may pass over a document without the label
            // whole (`$..videoChapters` in 256 KB of BestBuy).
            assert!(
                stats.blocks.total() > 0 || plain.is_empty(),
                "{query}: no classification work"
            );
        }
    }
}

#[test]
fn profile_collection_never_changes_matches_or_tier_a_stats() {
    let cases = [
        (Dataset::BestBuy, "$.products.*.categoryPath.*.id"),
        (Dataset::BestBuy, "$..videoChapters"),
        (Dataset::Wikimedia, "$..P150..mainsnak.property"),
        (Dataset::Crossref, "$..author..affiliation..name"),
        (Dataset::Ast, "$..inner..inner..type.qualType"),
    ];
    for (dataset, query) in cases {
        let doc = large_doc(dataset);
        let engine = Engine::from_text(query).unwrap();
        let plain = engine.try_positions(&doc).unwrap();

        let mut sink = PositionsSink::new();
        let stats: RunStats = engine.try_run_with_stats(&doc, &mut sink).unwrap();
        let with_stats = sink.into_positions();

        let mut sink = PositionsSink::new();
        let mut profile = ProfileStats::new();
        // The route reaches no recorder hook: the caller copies it in.
        profile.stats.route = engine
            .exec(Input::Slice(&doc), &mut sink, &mut profile)
            .unwrap();
        let with_profile = sink.into_positions();

        // The profiled run is an observation, not a different engine: the
        // match positions and every Tier A counter must equal the
        // stats-only run exactly.
        assert_eq!(plain, with_profile, "{query}: profile changes positions");
        assert_eq!(with_stats, with_profile, "{query}");
        assert_eq!(stats, profile.stats, "{query}: Tier A counters diverge");

        // And the Tier C layer adds real content on top: elided bytes
        // within the document and a nonzero automaton stage time.
        assert!(
            profile.bytes_skipped.total() <= doc.len() as u64,
            "{query}: skipped more bytes than the document has"
        );
        assert!(
            profile.bytes_skipped.total() > 0,
            "{query}: catalog queries all skip"
        );
        assert!(
            profile.stages.get(rsq::engine::ProfileStage::Automaton) > 0,
            "{query}: automaton stage unmeasured"
        );
    }
}
