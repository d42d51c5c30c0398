//! Pass 3: the atomic-ordering policy (DESIGN.md §14.3).
//!
//! The workspace's committed policy table:
//!
//! | use case                         | required ordering            |
//! |----------------------------------|------------------------------|
//! | monotonic counters, gauges       | `Relaxed`                    |
//! | cross-thread flags (`AtomicBool`)| `Acquire` load / `Release` store |
//! | anything needing `SeqCst`        | `// ORDERING: <reason>`      |
//!
//! Mechanically enforced as two lints:
//!
//! * **`bare-seqcst`** — `Ordering::SeqCst` is almost never what this
//!   codebase needs (there is no multi-variable consensus anywhere);
//!   each use must carry `// ORDERING: <reason>` explaining why the
//!   global total order is load-bearing.
//! * **`relaxed-flag`** — a `Relaxed` load/store/swap on a declared
//!   `AtomicBool` flag. Flags gate visibility of other writes (a
//!   shutdown flag guards "stop touching the socket"), so they need the
//!   `Acquire`/`Release` pair; a flag that genuinely carries no payload
//!   can say so with `// ORDERING: <reason>`.

use super::source::{annotation_at, collect_typed_decls, Annotation, SourceFile};
use super::Finding;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// The annotation marker for ordering justifications.
pub(crate) const MARKER: &str = "ORDERING:";

/// Atomic methods whose ordering argument the `relaxed-flag` lint
/// inspects.
const FLAG_METHODS: &[&str] = &["load", "store", "swap"];

pub(crate) fn check(files: &[SourceFile]) -> Vec<Finding> {
    // Global flag-declaration table (AtomicBool fields/bindings).
    let mut flags: BTreeSet<String> = BTreeSet::new();
    for file in files.iter().filter(|f| !f.test_target) {
        for d in collect_typed_decls(file, &["AtomicBool"]) {
            flags.insert(d.name);
        }
    }

    let mut out = Vec::new();
    for file in files.iter().filter(|f| !f.test_target) {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("Ordering") {
                continue;
            }
            let Some(level) = ordering_level(toks, i) else {
                continue;
            };
            if file.in_test(i) {
                continue;
            }
            let line = t.line;
            match level {
                "SeqCst" => {
                    match annotation_at(&file.lexed.comments, line, MARKER) {
                        Annotation::Justified => {}
                        Annotation::Empty => out.push(Finding {
                            pass: "atomics",
                            lint: "bare-seqcst",
                            file: file.path.clone(),
                            line,
                            message: "`Ordering::SeqCst` has an `// ORDERING:` annotation with no reason; state why the global total order is needed".to_owned(),
                        }),
                        Annotation::Missing => out.push(Finding {
                            pass: "atomics",
                            lint: "bare-seqcst",
                            file: file.path.clone(),
                            line,
                            message: "`Ordering::SeqCst` without an `// ORDERING: <reason>` annotation; use Acquire/Release (flags) or Relaxed (counters) per the policy table, or justify the total order".to_owned(),
                        }),
                    }
                }
                "Relaxed" => {
                    let Some((method, recv)) = call_context(toks, i) else {
                        continue;
                    };
                    if !FLAG_METHODS.contains(&method) || !flags.contains(recv) {
                        continue;
                    }
                    if annotation_at(&file.lexed.comments, line, MARKER) == Annotation::Justified {
                        continue;
                    }
                    out.push(Finding {
                        pass: "atomics",
                        lint: "relaxed-flag",
                        file: file.path.clone(),
                        line,
                        message: format!(
                            "`Relaxed` {method} on cross-thread flag `{recv}` (an AtomicBool); the policy table requires Acquire loads / Release stores for flags, or `// ORDERING: <reason>`"
                        ),
                    });
                }
                _ => {} // Acquire / Release / AcqRel conform as-is.
            }
        }
    }
    out
}

/// For an `Ordering` ident at `i`, the level name in `Ordering::Level`.
fn ordering_level(toks: &[Tok], i: usize) -> Option<&str> {
    if toks.get(i + 1)?.is_punct(':') && toks.get(i + 2)?.is_punct(':') {
        let level = toks.get(i + 3)?;
        if level.kind == TokKind::Ident {
            return Some(level.text.as_str());
        }
    }
    None
}

/// The method call an ordering argument belongs to: walks back to the
/// unmatched `(` and reads `receiver.method(`. Returns `(method,
/// receiver)`.
fn call_context(toks: &[Tok], ordering_idx: usize) -> Option<(&str, &str)> {
    let mut depth = 0i32;
    let mut k = ordering_idx;
    loop {
        k = k.checked_sub(1)?;
        match toks[k].kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return None,
            _ => {}
        }
    }
    // toks[k] is the call's `(`; expect `recv . method (`.
    let method = toks.get(k.checked_sub(1)?)?;
    if method.kind != TokKind::Ident {
        return None;
    }
    let dot = toks.get(k.checked_sub(2)?)?;
    if !dot.is_punct('.') {
        return None;
    }
    let recv = toks.get(k.checked_sub(3)?)?;
    if recv.kind != TokKind::Ident {
        return None;
    }
    Some((method.text.as_str(), recv.text.as_str()))
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
    fn bare_seqcst_is_flagged_with_location() {
        let src = "struct S { flag: AtomicBool }\nimpl S {\n    fn f(&self) -> bool {\n        self.flag.load(Ordering::SeqCst)\n    }\n}\n";
        let findings = check_one("crates/serve/src/x.rs", src);
        assert_eq!(lints(&findings), ["bare-seqcst"]);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn ordering_annotation_justifies_seqcst() {
        let src = "struct S { flag: AtomicBool }\nimpl S {\n    fn f(&self) -> bool {\n        // ORDERING: the shutdown handshake needs a single total order\n        // with the listener's stop store.\n        self.flag.load(Ordering::SeqCst)\n    }\n}\n";
        assert!(check_one("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn relaxed_on_a_flag_is_flagged() {
        let src = "struct S { shutdown: AtomicBool }\nimpl S {\n    fn f(&self) {\n        self.shutdown.store(true, Ordering::Relaxed);\n    }\n}\n";
        let findings = check_one("crates/serve/src/x.rs", src);
        assert_eq!(lints(&findings), ["relaxed-flag"]);
        assert!(findings[0].message.contains("shutdown"));
    }

    #[test]
    fn relaxed_on_counters_conforms() {
        let src = "struct S { count: AtomicU64 }\nimpl S {\n    fn f(&self) {\n        self.count.fetch_add(1, Ordering::Relaxed);\n        let _ = self.count.load(Ordering::Relaxed);\n    }\n}\n";
        assert!(check_one("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn acquire_release_pair_on_a_flag_conforms() {
        let src = "struct S { shutdown: AtomicBool }\nimpl S {\n    fn f(&self) -> bool {\n        self.shutdown.store(true, Ordering::Release);\n        self.shutdown.load(Ordering::Acquire)\n    }\n}\n";
        assert!(check_one("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        FLAG.store(true, Ordering::SeqCst);\n    }\n}\n";
        assert!(check_one("crates/serve/src/x.rs", src).is_empty());
    }
}
