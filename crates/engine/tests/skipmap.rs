//! Skip-map property test (DESIGN.md §11): on randomized documents, the
//! union of cells the Tier C profiler attributes to any skipping
//! technique must never overlap a cell in which the structural classifier
//! delivered an event the automaton consumed — `SkipMap::conflicts` is
//! zero — and the byte-span accounting identity must hold: blocks
//! classified plus `memmem`-elided bytes equal the block-padded document
//! size, up to one block of slack per resume handoff. Both properties
//! are checked across every instruction-set backend the host supports,
//! and the profiled run must report the exact match positions of the
//! plain run.

use rsq_engine::{Engine, EngineOptions, ProfileStats, SkipTechnique};
use rsq_query::Query;
use rsq_simd::BackendKind;

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
    "$..*",
];

#[test]
fn skip_map_never_conflicts_with_consumed_events_across_backends() {
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
fn skip_map_holds_on_truncated_documents() {
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

fn check(input: &[u8], query_text: &str, context: &str) {
    let query = Query::parse(query_text).expect("query parses");
    for backend in supported() {
        let options = EngineOptions {
            backend,
            ..EngineOptions::default()
        };
        let engine = Engine::with_options(&query, options).expect("query compiles");
        let expected = engine.try_positions(input).expect("lenient run");

        let mut positions: Vec<usize> = Vec::new();
        let mut profile = ProfileStats::for_document(input.len());
        engine
            .try_run_with_recorder(input, &mut positions, &mut profile)
            .expect("lenient run");
        let context = format!("{query_text} {context} backend={backend:?}");

        // The profiled run observes the plain run's matches.
        assert_eq!(positions, expected, "positions diverge: {context}");

        // Property 1: no cell is both elided and event-bearing.
        let map = profile.map.as_ref().expect("for_document attaches a map");
        assert_eq!(map.conflicts(), 0, "skip-map conflict: {context}");

        // Whole-cell attribution never exceeds the reported spans.
        for t in SkipTechnique::ALL {
            assert!(
                map.covered_bytes(t) <= profile.bytes_skipped.get(t),
                "map over-attributes {t}: {context}"
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
