//! Pass 1: the panic surface (DESIGN.md §14.2).
//!
//! Every potential panic site in production code must either be
//! converted into error propagation or carry an inline
//! `// PANIC-OK: <reason>` annotation justifying why the panic cannot
//! fire (or why aborting is the correct response). What counts as a
//! panic site depends on the file's [`Tier`]:
//!
//! * **Exterior** code (cli/serve/batch/obs) runs outside the
//!   `catch_unwind` containment boundary: a panic kills a worker
//!   thread, poisons pool locks, or tears down the process. `unwrap`,
//!   `expect`, panic macros, *and* direct indexing all need a reason.
//! * **Contained** code (the engine stack) panics into the per-document
//!   `catch_unwind` in `rsq_batch::DocRunner::run`, surfacing as a `panic`
//!   fault code rather than a crash. Explicit panic sites still need a
//!   reason (they are a correctness smell), but direct indexing — the
//!   engine's bread and butter, bounds-checked by the compiler — is
//!   exempt.
//! * **Dev** code (xtask, bench, tests, examples) is exempt entirely.
//!
//! `assert!`/`debug_assert!` are deliberately not flagged: stating an
//! invariant loudly is the behavior this pass exists to encourage.

use super::source::{annotation_at, Annotation, SourceFile, Tier};
use super::Finding;
use crate::lexer::TokKind;

/// The annotation marker the pass looks for.
pub(crate) const MARKER: &str = "PANIC-OK:";

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that, appearing directly before `[`, do *not* make it an
/// index expression (patterns, array types, and array literals).
const NON_INDEX_PREV: &[&str] = &[
    "in", "if", "else", "match", "return", "as", "mut", "ref", "move", "let", "const", "static",
    "break", "continue", "while", "loop", "for", "where", "impl", "dyn", "fn", "type", "use",
    "pub", "unsafe", "crate",
];

pub(crate) fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if file.tier == Tier::Dev {
            continue;
        }
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.in_test(i) {
                continue;
            }
            let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
            let prev = i.checked_sub(1).map(|p| &toks[p]);

            // `.unwrap()` / `.expect(` — method calls only, so
            // `unwrap_or`, `stdin().lock()` receivers etc. never match.
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && prev.is_some_and(|p| p.is_punct('.'))
                && next_is('(')
            {
                let lint = if t.text == "unwrap" {
                    "naked-unwrap"
                } else {
                    "naked-expect"
                };
                maybe_flag(&mut out, file, t.line, lint, &format!("`.{}()`", t.text));
                continue;
            }

            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
            if t.kind == TokKind::Ident && PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                maybe_flag(
                    &mut out,
                    file,
                    t.line,
                    "panic-macro",
                    &format!("`{}!`", t.text),
                );
                continue;
            }

            // Direct indexing (`expr[…]`) — exterior tier only.
            if file.tier == Tier::Exterior && t.is_punct('[') {
                let indexes = prev.is_some_and(|p| match p.kind {
                    TokKind::Ident => !NON_INDEX_PREV.contains(&p.text.as_str()),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                });
                if indexes {
                    maybe_flag(&mut out, file, t.line, "direct-index", "direct index `[…]`");
                }
            }
        }
    }
    out
}

/// Emits a finding unless the site carries a justified `PANIC-OK`.
fn maybe_flag(
    out: &mut Vec<Finding>,
    file: &SourceFile,
    line: u32,
    lint: &'static str,
    what: &str,
) {
    let boundary = match file.tier {
        Tier::Exterior => {
            "runs outside the catch_unwind containment boundary (a panic here kills a worker or the connection)"
        }
        _ => "is contained by catch_unwind as a per-document `panic` fault, but is still a panic site",
    };
    match annotation_at(&file.lexed.comments, line, MARKER) {
        Annotation::Justified => {}
        Annotation::Empty => out.push(Finding {
            pass: "panic",
            lint,
            file: file.path.clone(),
            line,
            message: format!(
                "{what} has a `// PANIC-OK:` annotation with no reason; state why the panic cannot fire"
            ),
        }),
        Annotation::Missing => out.push(Finding {
            pass: "panic",
            lint,
            file: file.path.clone(),
            line,
            message: format!(
                "{what} {boundary}; propagate an error or annotate `// PANIC-OK: <reason>`"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(path: &str, src: &str) -> Vec<Finding> {
        check(&[SourceFile::new(path, src)])
    }

    fn lints(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn unwrap_and_expect_are_flagged_in_production_code() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"msg\");\n    a + b\n}\n";
        let findings = check_one("crates/serve/src/pool.rs", src);
        assert_eq!(lints(&findings), ["naked-unwrap", "naked-expect"]);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
    }

    #[test]
    fn panic_ok_with_reason_suppresses() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // PANIC-OK: x is Some by the admission invariant above.\n    x.unwrap()\n}\n";
        assert!(check_one("crates/serve/src/pool.rs", src).is_empty());
    }

    #[test]
    fn panic_ok_without_reason_is_its_own_finding() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // PANIC-OK:\n}\n";
        let findings = check_one("crates/serve/src/pool.rs", src);
        assert_eq!(lints(&findings), ["naked-unwrap"]);
        assert!(findings[0].message.contains("no reason"));
    }

    #[test]
    fn unwrap_or_variants_are_not_panic_sites() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n}\n";
        assert!(check_one("crates/serve/src/pool.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_are_flagged() {
        let src = "fn f(x: u8) -> u8 {\n    match x {\n        0 => panic!(\"zero\"),\n        1 => unreachable!(),\n        2 => todo!(),\n        _ => x,\n    }\n}\n";
        let findings = check_one("crates/batch/src/lib.rs", src);
        assert_eq!(
            lints(&findings),
            ["panic-macro", "panic-macro", "panic-macro"]
        );
    }

    #[test]
    fn asserts_are_allowed_by_policy() {
        let src = "fn f(x: u8) {\n    assert!(x > 0);\n    debug_assert_eq!(x % 2, 0);\n}\n";
        assert!(check_one("crates/serve/src/pool.rs", src).is_empty());
    }

    #[test]
    fn indexing_flagged_only_in_exterior_tier() {
        let src = "fn f(v: &[u8], i: usize) -> u8 {\n    v[i]\n}\n";
        assert_eq!(
            lints(&check_one("crates/obs/src/hist.rs", src)),
            ["direct-index"]
        );
        assert!(check_one("crates/engine/src/main_loop.rs", src).is_empty());
    }

    #[test]
    fn non_index_brackets_are_not_flagged() {
        let src = "fn f() -> [u8; 2] {\n    let a: [u8; 2] = [0, 1];\n    let v = vec![1u8];\n    for _x in [1, 2] {}\n    let [p, q] = a;\n    let _ = (v, p, q);\n    a\n}\n#[inline]\nfn g() {}\n";
        assert!(check_one("crates/serve/src/lib.rs", src).is_empty());
    }

    #[test]
    fn call_result_indexing_is_flagged() {
        let src = "fn f(v: &[u8]) -> u8 {\n    slice_of(v)[0]\n}\n";
        assert_eq!(
            lints(&check_one("crates/cli/src/lib.rs", src)),
            ["direct-index"]
        );
    }

    #[test]
    fn contained_tier_still_flags_explicit_panics() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let findings = check_one("crates/json/src/parser.rs", src);
        assert_eq!(lints(&findings), ["naked-unwrap"]);
        assert!(findings[0].message.contains("contained"));
    }

    #[test]
    fn test_code_and_dev_crates_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(check_one("crates/serve/src/lib.rs", src).is_empty());
        let dev = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_one("crates/xtask/src/main.rs", dev).is_empty());
        assert!(check_one("crates/serve/tests/robustness.rs", dev).is_empty());
    }
}
