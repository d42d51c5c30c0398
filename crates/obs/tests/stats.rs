//! RunStats invariants: saturating counters (no overflow panics even
//! under `-C overflow-checks=on`), correct `Add`/`AddAssign` merging, and
//! stable JSON key layout. Plus the cfg-gated check that Tier B is truly
//! compiled out by default.

use rsq_obs::{ClassifierCounters, Recorder, RunStats};

#[test]
fn counters_saturate_instead_of_overflowing() {
    // Drive every counter to u64::MAX and record once more: a wrapping
    // `+= 1` would panic under overflow-checks; saturating must not.
    let mut stats = RunStats {
        bytes: u64::MAX,
        events: u64::MAX,
        toggle_flips: u64::MAX,
        memmem_jumps: u64::MAX,
        memmem_declined: u64::MAX,
        resume_handoffs: u64::MAX,
        max_depth: u64::MAX,
        matches: u64::MAX,
        ..RunStats::default()
    };
    stats.blocks.structural = u64::MAX;
    stats.blocks.depth = u64::MAX;
    stats.blocks.seek = u64::MAX;
    stats.blocks.quote = u64::MAX;
    stats.skips.leaf = u64::MAX;
    stats.skips.child = u64::MAX;
    stats.skips.sibling = u64::MAX;
    stats.skips.label = u64::MAX;

    stats.event(0);
    stats.leaf_skip();
    stats.child_skip();
    stats.sibling_skip();
    stats.label_seek();
    stats.memmem_jump();
    stats.memmem_declines(u64::MAX);
    stats.resume_handoff();
    stats.matched();
    stats.depth(u32::MAX);
    stats.classifier(&ClassifierCounters {
        blocks_structural: u64::MAX,
        blocks_depth: u64::MAX,
        blocks_seek: u64::MAX,
        blocks_quote: u64::MAX,
        toggle_flips: u64::MAX,
    });

    assert_eq!(stats.events, u64::MAX);
    assert_eq!(stats.skips.child, u64::MAX);
    assert_eq!(stats.blocks.quote, u64::MAX);
    assert_eq!(stats.matches, u64::MAX);
    // total() is itself saturating.
    assert_eq!(stats.blocks.total(), u64::MAX);

    // Merging two saturated reports must not panic either.
    let merged = stats + stats;
    assert_eq!(merged.events, u64::MAX);
}

#[test]
fn add_assign_merges_chunked_runs() {
    let mut a = RunStats {
        bytes: 100,
        events: 7,
        matches: 2,
        max_depth: 5,
        memmem_jumps: 1,
        ..RunStats::default()
    };
    a.blocks.structural = 4;
    a.skips.child = 3;

    let mut b = RunStats {
        bytes: 50,
        events: 3,
        matches: 1,
        max_depth: 9,
        memmem_declined: 2,
        ..RunStats::default()
    };
    b.blocks.structural = 2;
    b.blocks.depth = 1;
    b.skips.child = 1;
    b.skips.sibling = 4;

    let mut merged = a;
    merged += b;
    assert_eq!(merged, a + b);
    assert_eq!(merged.bytes, 150);
    assert_eq!(merged.events, 10);
    assert_eq!(merged.matches, 3);
    assert_eq!(merged.max_depth, 9, "max_depth takes the max, not the sum");
    assert_eq!(merged.blocks.structural, 6);
    assert_eq!(merged.blocks.depth, 1);
    assert_eq!(merged.skips.child, 4);
    assert_eq!(merged.skips.sibling, 4);
    assert_eq!(merged.memmem_jumps, 1);
    assert_eq!(merged.memmem_declined, 2);
}

#[test]
fn route_merge_keeps_fast_path_visible() {
    use rsq_obs::Route;
    assert_eq!(Route::default(), Route::General);
    for (name, route) in [("selective", Route::Selective), ("general", Route::General)] {
        assert_eq!(route.as_str(), name);
        assert_eq!(Route::from_str_opt(name), Some(route));
    }
    assert_eq!(Route::from_str_opt("nope"), None);

    // Folding fast-path stats into a default accumulator (batch merge)
    // must not reset the route to `general`.
    let mut acc = RunStats::default();
    let doc = RunStats {
        route: Route::Selective,
        bytes: 10,
        ..RunStats::default()
    };
    acc += doc;
    assert_eq!(acc.route, Route::Selective);
    acc += RunStats::default();
    assert_eq!(acc.route, Route::Selective, "later general docs keep it");
}

#[test]
fn json_is_single_line_with_stable_keys() {
    let mut stats = RunStats {
        bytes: 42,
        matches: 3,
        ..RunStats::default()
    };
    stats.skips.leaf = 1;
    let json = stats.to_json();
    assert!(!json.contains('\n'), "must be a single line: {json}");
    for key in [
        "\"route\":\"general\"",
        "\"bytes\":42",
        "\"blocks_classified\":",
        "\"structural\":",
        "\"depth\":",
        "\"seek\":",
        "\"quote\":",
        "\"total\":",
        "\"events\":",
        "\"toggle_flips\":",
        "\"skips\":",
        "\"leaf\":1",
        "\"child\":",
        "\"sibling\":",
        "\"label\":",
        "\"memmem_jumps\":",
        "\"memmem_declined\":",
        "\"resume_handoffs\":",
        "\"max_depth\":",
        "\"matches\":3",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Balanced braces, no trailing newline — a cheap well-formedness
    // check; full JSON validity is asserted by the CLI end-to-end tests
    // through the rsq-json parser.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
    assert!(json.starts_with('{') && json.ends_with('}'));
}

#[test]
fn display_is_a_human_table() {
    let stats = RunStats {
        bytes: 1000,
        matches: 5,
        ..RunStats::default()
    };
    let text = stats.to_string();
    assert!(text.contains("bytes"), "{text}");
    assert!(text.contains("matches"), "{text}");
    assert!(text.contains("memmem"), "{text}");
}
