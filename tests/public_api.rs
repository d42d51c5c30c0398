//! Cross-crate integration tests through the `rsq` facade: the paths a
//! downstream user would actually take.

use rsq::{node_text, Engine, EngineOptions, Query};

#[test]
fn quickstart_flow() {
    let doc = br#"{"store": {"book": [{"price": 1}, {"price": 2}], "bike": {"price": 3}}}"#;
    let engine = Engine::from_text("$..price").unwrap();
    assert_eq!(engine.count(doc), 3);
    let texts: Vec<&str> = engine
        .positions(doc)
        .into_iter()
        .filter_map(|p| node_text(doc, p))
        .collect();
    assert_eq!(texts, ["1", "2", "3"]);
}

#[test]
fn engine_is_reusable_across_documents() {
    let engine = Engine::from_text("$.a").unwrap();
    assert_eq!(engine.count(br#"{"a": 1}"#), 1);
    assert_eq!(engine.count(br#"{"b": 1}"#), 0);
    assert_eq!(engine.count(br#"{"a": {"a": 1}}"#), 1);
}

#[test]
fn node_text_extracts_each_kind() {
    let doc = br#"{"s": "x", "n": -1.5e3, "b": true, "z": null, "o": {"k": []}, "a": [1, 2]}"#;
    let engine = Engine::from_text("$.*").unwrap();
    let texts: Vec<&str> = engine
        .positions(doc)
        .into_iter()
        .filter_map(|p| node_text(doc, p))
        .collect();
    assert_eq!(
        texts,
        ["\"x\"", "-1.5e3", "true", "null", r#"{"k": []}"#, "[1, 2]"]
    );
}

#[test]
fn errors_surface_cleanly() {
    let parse_err = Engine::from_text("not a query").unwrap_err();
    assert!(parse_err.to_string().contains('$'));
    let blowup = format!("$..a{}", ".*".repeat(24));
    let compile_err = Engine::from_text(&blowup).unwrap_err();
    assert!(compile_err.to_string().contains("states"));
}

#[test]
fn catalog_queries_run_through_facade() {
    // Every query of the paper's appendix works through the re-exports.
    for entry in rsq::datagen::catalog::catalog() {
        let query = Query::parse(entry.query).unwrap();
        let engine = Engine::from_query(&query).unwrap();
        let doc = entry.dataset.generate(&rsq::datagen::GenConfig {
            target_bytes: 30_000,
            seed: 1,
        });
        let _ = engine.count(doc.as_bytes());
    }
}

#[test]
fn sinks_compose_with_custom_impls() {
    struct FirstMatch(Option<usize>);
    impl rsq::Sink for FirstMatch {
        fn record(&mut self, pos: usize) -> Result<(), rsq::SinkFull> {
            self.0 = Some(pos);
            // Declining further matches ends the run early, cleanly.
            Err(rsq::SinkFull)
        }
    }
    let engine = Engine::from_text("$..target").unwrap();
    let doc = br#"{"x": 1, "target": 2, "y": {"target": 3}}"#;
    let mut sink = FirstMatch(None);
    engine.run(doc, &mut sink);
    assert_eq!(sink.0.map(|p| doc[p]), Some(b'2'));
}

#[test]
fn options_are_inspectable() {
    let q = Query::parse("$..a").unwrap();
    let engine = Engine::with_options(
        &q,
        EngineOptions {
            head_start: false,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    assert!(!engine.options().head_start);
    assert!(engine
        .automaton()
        .is_waiting(engine.automaton().initial_state()));
}

#[test]
fn simd_and_memmem_are_usable_directly() {
    // The substrate crates are re-exported and usable standalone.
    let simd = rsq::simd::Simd::detect();
    let block = [b'{'; 64];
    assert_eq!(simd.eq_mask(&block, b'{'), u64::MAX);
    assert_eq!(rsq::memmem::find(b"haystack", b"stack"), Some(3));
    let stats = rsq::json::document_stats(br#"{"a": [1, 2]}"#);
    assert_eq!(stats.node_count, 4);
}

/// What a compiled query fixes is paid when it is compiled: each state
/// with a single label transition carries the prefilter `memmem` would
/// pick for that label — so a run's searches find exactly what a freshly
/// built finder would — and the per-run tables of every catalog query
/// (and of the repo benchmark's batch query) fit their inline storage, so
/// a steady-state run allocates nothing in the engine (DESIGN.md §10).
#[test]
fn query_fixed_setup_is_ready_made_and_inline() {
    use rsq::memmem::Prefilter;
    let catalog = rsq::datagen::catalog::catalog();
    // 1-byte, non-ASCII, all-identical-byte and 2-byte labels.
    let labels = ["$.x", "$..é.ü", "$.aaaaaa..aaaaaa", "$..ab.*.a"];
    let queries = catalog.iter().map(|entry| entry.query);
    let mut seeking_states = 0;
    for text in queries.chain(labels).chain(["$.*.entities.urls.*.url"]) {
        let engine = Engine::from_text(text).unwrap();
        let automaton = engine.automaton();
        for state in automaton.states() {
            let needle = automaton
                .single_explicit_needle(state)
                .map(|(needle, _)| needle);
            assert_eq!(
                engine.prefilter(state),
                needle.map(Prefilter::of),
                "{text}, state {state}"
            );
            seeking_states += usize::from(needle.is_some());
        }
        let inline = rsq::engine::RUN_TABLES_INLINE;
        assert!(automaton.state_count() <= inline, "{text}: seekers spill");
        assert!(engine.plan().steps.len() <= inline, "{text}: frames spill");
    }
    assert!(seeking_states > catalog.len(), "the check is not vacuous");
}
