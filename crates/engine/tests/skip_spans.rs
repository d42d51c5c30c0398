//! Skip-span property test (DESIGN.md §11): on randomized documents, no
//! structural event the automaton consumed may lie inside a byte range
//! `[from, to)` the Tier C profiler was told a skipping technique elided,
//! and the byte-span accounting identity must hold: blocks classified
//! plus `memmem`-elided bytes equal the block-padded document size, up to
//! one block of slack per resume handoff. Both properties are checked
//! across every instruction-set backend the host supports and on both
//! routes, and the profiled run must report the exact match positions of
//! the plain run.
//!
//! The profile's stage timers are held to their cost here too: a run
//! reads the clock once per stage bracket, however many skips it takes.

use rsq_engine::{
    ClassifierCounters, CountSink, Engine, EngineOptions, PositionsSink, ProfileStage,
    ProfileStats, Recorder, Route, RouteChoice, SkipTechnique,
};
use rsq_query::Query;
use rsq_simd::BackendKind;

/// A [`ProfileStats`] that also keeps every consumed event, every
/// reported skip span and the number of clock reads and stage brackets.
#[derive(Default)]
struct Spans {
    profile: ProfileStats,
    events: Vec<usize>,
    spans: Vec<(SkipTechnique, usize, usize)>,
    clocks: u32,
    brackets: u32,
}

impl Recorder for Spans {
    fn document(&mut self, bytes: usize) {
        self.profile.document(bytes);
    }

    fn event(&mut self, pos: usize) {
        self.events.push(pos);
        self.profile.event(pos);
    }

    fn leaf_skip(&mut self) {
        self.profile.leaf_skip();
    }

    fn child_skip(&mut self) {
        self.profile.child_skip();
    }

    fn sibling_skip(&mut self) {
        self.profile.sibling_skip();
    }

    fn label_seek(&mut self) {
        self.profile.label_seek();
    }

    fn memmem_jump(&mut self) {
        self.profile.memmem_jump();
    }

    fn memmem_declines(&mut self, n: u64) {
        self.profile.memmem_declines(n);
    }

    fn resume_handoff(&mut self) {
        self.profile.resume_handoff();
    }

    fn depth(&mut self, depth: u32) {
        self.profile.depth(depth);
    }

    fn matched(&mut self) {
        self.profile.matched();
    }

    fn classifier(&mut self, counters: &ClassifierCounters) {
        self.profile.classifier(counters);
    }

    fn skip_span(&mut self, technique: SkipTechnique, from: usize, to: usize) {
        if to > from {
            self.spans.push((technique, from, to));
        }
        self.profile.skip_span(technique, from, to);
    }

    fn clock(&mut self) -> u64 {
        self.clocks += 1;
        self.profile.clock()
    }

    fn stage_ns(&mut self, stage: ProfileStage, start: u64) {
        self.brackets += 1;
        self.profile.stage_ns(stage, start);
    }
}

/// Backends the host CPU can run (SWAR always; vector ISAs when present).
fn supported() -> Vec<Option<BackendKind>> {
    std::iter::once(None)
        .chain(BackendKind::supported().map(Some))
        .collect()
}

/// Deterministic xorshift64* generator — the test must reproduce
/// bit-identically across runs and platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Grows a random JSON value. Labels are drawn from a small pool that
/// includes the queried names, so descendant queries match at varied
/// depths; string values include quotes, escapes, and structural bytes
/// to stress the quote classifier under every skipping technique.
fn gen_value(rng: &mut Rng, depth: usize, out: &mut String) {
    const LABELS: &[&str] = &["a", "b", "target", "items", "name", "x9"];
    const STRINGS: &[&str] = &[
        "plain",
        "with \\\"escaped quotes\\\"",
        "braces { ] } [ inside",
        "colon : comma , here",
        "backslash \\\\ tail",
    ];
    match if depth == 0 {
        5 + rng.below(3)
    } else {
        rng.below(8)
    } {
        0 | 1 => {
            // Object with 1..=6 members.
            out.push('{');
            let n = 1 + rng.below(6);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                let label = LABELS[rng.below(LABELS.len() as u64) as usize];
                out.push('"');
                out.push_str(label);
                out.push_str("\":");
                gen_value(rng, depth - 1, out);
            }
            out.push('}');
        }
        2 | 3 => {
            // Array with 0..=5 elements.
            out.push('[');
            let n = rng.below(6);
            for i in 0..n {
                if i > 0 {
                    out.push(',');
                }
                gen_value(rng, depth - 1, out);
            }
            out.push(']');
        }
        4 => {
            out.push('"');
            out.push_str(STRINGS[rng.below(STRINGS.len() as u64) as usize]);
            out.push('"');
        }
        5 => {
            out.push_str(&format!("{}", rng.below(100_000)));
        }
        6 => out.push_str("true"),
        _ => out.push_str("null"),
    }
}

fn gen_document(seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let mut out = String::new();
    // A top-level object of several deep subtrees keeps documents in the
    // tens-of-kilobytes range with plenty of skippable structure.
    out.push('{');
    for i in 0..24 {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"sub{i}\":"));
        gen_value(&mut rng, 6, &mut out);
    }
    out.push('}');
    out
}

const QUERIES: &[&str] = &[
    "$..target",
    "$..a..b",
    "$..items.*.name",
    "$.sub0.a",
    "$.*.a",
    "$..*",
];

#[test]
fn skip_spans_never_contain_consumed_events_across_backends() {
    for seed in [0x5eed_0001u64, 0xdead_beef, 0x0bad_cafe] {
        let document = gen_document(seed);
        for query_text in QUERIES {
            check(document.as_bytes(), query_text, &format!("seed={seed:#x}"));
        }
    }
}

/// Both properties on documents cut short: a run that reaches EOF inside
/// an element (the head start's sub-runs included) has consumed the
/// whole input, so no span it reports after that reaches back into
/// blocks it classified.
#[test]
fn skip_spans_hold_on_truncated_documents() {
    let document = gen_document(0x5eed_0001);
    let input = document.as_bytes();
    for cut in [
        input.len() / 5,
        input.len() / 3,
        input.len() / 2,
        input.len() - 1,
    ] {
        for query_text in QUERIES {
            check(&input[..cut], query_text, &format!("cut={cut}"));
        }
    }
    // Each query's head start hits a value that runs to EOF inside a
    // string several blocks long, after the last structural character.
    let tail = "y".repeat(300);
    for document in [
        format!(r#"{{"p": [1], "target": {{"k": "{tail}"#),
        format!(r#"{{"a": {{"b": [1, {{"a": "{tail}"#),
        format!(r#"{{"items": [{{"name": "{tail}"#),
    ] {
        for query_text in QUERIES {
            check(document.as_bytes(), query_text, "string to EOF");
        }
    }
}

/// Runs `query_text` on every backend and on both routes: the general
/// loop's child and sibling skips only fire for queries the router would
/// otherwise hand to the walker.
fn check(input: &[u8], query_text: &str, context: &str) {
    let query = Query::parse(query_text).expect("query parses");
    let configs = supported().into_iter().flat_map(|backend| {
        [RouteChoice::Auto, RouteChoice::General].map(|route| (backend, route))
    });
    for (backend, route) in configs {
        let options = EngineOptions {
            backend,
            route,
            ..EngineOptions::default()
        };
        let engine = Engine::with_options(&query, options).expect("query compiles");
        let expected = engine.try_positions(input).expect("lenient run");

        let mut positions = PositionsSink::new();
        let mut rec = Spans::default();
        engine
            .try_run_with_recorder(input, &mut positions, &mut rec)
            .expect("lenient run");
        let positions = positions.into_positions();
        let context = format!("{query_text} {context} backend={backend:?} {route:?}");

        // The profiled run observes the plain run's matches.
        assert_eq!(positions, expected, "positions diverge: {context}");

        // Property 1: no consumed event lies in an elided span, and every
        // span lies inside the document.
        let Spans {
            profile,
            events,
            mut spans,
            ..
        } = rec;
        spans.sort_unstable_by_key(|&(_, from, _)| from);
        // reach[i]: the furthest end of the spans starting at or before
        // spans[i], so one lookup decides each event.
        let reach: Vec<usize> = spans
            .iter()
            .scan(0, |end, &(_, _, to)| {
                *end = to.max(*end);
                Some(*end)
            })
            .collect();
        for &pos in &events {
            let at = spans.partition_point(|&(_, from, _)| from <= pos);
            if at > 0 && reach[at - 1] > pos {
                let (t, from, to) = spans[..at].iter().find(|&&(_, _, to)| pos < to).unwrap();
                panic!(
                    "event at {pos} inside {} span [{from}, {to}): {context}",
                    t.name()
                );
            }
        }
        for &(t, from, to) in &spans {
            assert!(
                to <= input.len(),
                "{} span [{from}, {to}) past EOF: {context}",
                t.name()
            );
        }

        // The spans are exactly what the profile accounts per technique.
        for t in SkipTechnique::ALL {
            let bytes: usize = spans
                .iter()
                .filter(|&&(s, _, _)| s == t)
                .map(|&(_, from, to)| to - from)
                .sum();
            assert_eq!(
                bytes as u64,
                profile.bytes_skipped.get(t),
                "{}: {context}",
                t.name()
            );
        }

        // Property 2: classified blocks + never-classified elisions
        // (memmem inter-candidate gaps, fast-path route exhaustion)
        // account for the padded document, ± one block per resume
        // handoff. One cursor walks the run, so no block is classified
        // twice: a sub-run's blocks are those after its value's block up
        // to its exit block, and the memmem span before and after it is
        // measured from exact positions inside those two boundary blocks,
        // which leaves less than a block of difference per handoff.
        let covered = (profile.stats.blocks.structural
            + profile.stats.blocks.depth
            + profile.stats.blocks.seek)
            * 64;
        let accounted = covered
            + profile.bytes_skipped.get(SkipTechnique::Memmem)
            + profile.bytes_skipped.get(SkipTechnique::Exit);
        let padded = (input.len() as u64).div_ceil(64) * 64;
        let slack = 64 * (profile.stats.resume_handoffs + 1);
        assert!(
            accounted.abs_diff(padded) <= slack,
            "byte accounting broken: classified {covered} + memmem {} = {accounted}, \
             padded {padded} (±{slack}): {context}",
            profile.bytes_skipped.get(SkipTechnique::Memmem),
        );
    }
}

/// `n` objects in an array, each with one subtree a query for `name`
/// skips, one it seeks past and the member it is after.
fn skippy_document(n: usize) -> String {
    let mut out = String::from("[");
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"id": {i}, "tags": [1, 2], "meta": {{"x": {{"y": 1}}}}, "name": "n{i}"}}"#
        ));
    }
    out.push(']');
    out
}

/// Stage attribution costs a clock read per stage, not per skip: one
/// bracket around the matching pass and, with `strict`, one around
/// validation — on both routes and every backend, however many skips,
/// seeks and head-start jumps the run takes.
#[test]
fn a_run_reads_the_clock_once_per_stage() {
    let document = skippy_document(1_500);
    let input = document.as_bytes();
    for (query_text, route, general) in [
        ("$[*].name", RouteChoice::Auto, false),
        ("$[*].name", RouteChoice::General, true),
        ("$..x.y", RouteChoice::Auto, true),
    ] {
        let query = Query::parse(query_text).expect("query parses");
        for backend in supported() {
            for strict in [false, true] {
                let options = EngineOptions {
                    backend,
                    strict,
                    route,
                    ..EngineOptions::default()
                };
                let engine = Engine::with_options(&query, options).expect("query compiles");
                let mut rec = Spans::default();
                let taken = engine
                    .try_run_with_recorder(input, &mut CountSink::new(), &mut rec)
                    .expect("well-formed document");
                let context = format!("{query_text} {route:?} strict={strict} backend={backend:?}");
                let stats = &rec.profile.stats;
                assert_eq!(taken == Route::General, general, "{context}");
                let skips = stats.skips.leaf
                    + stats.skips.child
                    + stats.skips.sibling
                    + stats.skips.label
                    + stats.memmem_jumps;
                assert!(skips >= 1_000, "only {skips} skips: {context}");
                let expected = 1 + u32::from(strict);
                assert_eq!(rec.clocks, expected, "clock reads: {context}");
                assert_eq!(rec.brackets, expected, "stage brackets: {context}");
            }
        }
    }
}
