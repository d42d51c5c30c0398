//! Shared source model for the `analyze` passes.
//!
//! Every pass consumes the same prepared view of a source file: the
//! lexed token stream (comments and literals stripped out, see
//! `lexer.rs`), the brace-scope tree recovered by the audit pass, the
//! token spans that belong to test code (`#[cfg(test)]` modules,
//! `#[test]` functions), and the file's **tier** — which policy set
//! applies to it. The workspace walker lives here too, so `audit`,
//! `analyze`, and any future pass traverse the tree identically.

use crate::audit::{build_scopes, collect_target_feature_fns, Scope};
use crate::lexer::{lex, Comment, Lexed, TokKind};
use std::path::{Path, PathBuf};

/// Which policy set a file belongs to (DESIGN.md §14).
///
/// The split mirrors the `catch_unwind` containment boundary from the
/// serve/batch worker pools: a panic inside the engine stack is a
/// contained per-document fault; a panic in the pool machinery itself
/// (or anything above it) escapes containment and can poison locks or
/// kill a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Outside the containment boundary: `cli`, `serve`, `batch`,
    /// `obs`. Panic sites *and* direct indexing must be justified.
    Exterior,
    /// Inside the containment boundary: the engine stack (`engine`,
    /// `classify`, `query`, `json`, `memmem`, `simd`, `stackvec`, the
    /// root facade). Panic sites must be justified; indexing is a
    /// contained fault and is exempt.
    Contained,
    /// Development tooling, benches, test harnesses: exempt from the
    /// panic-surface pass entirely.
    Dev,
}

/// Crates outside the containment boundary (workspace-relative path
/// prefixes).
const EXTERIOR: &[&str] = &[
    "crates/cli/",
    "crates/serve/",
    "crates/batch/",
    "crates/obs/",
];

/// Crates inside the containment boundary, plus the root facade.
const CONTAINED: &[&str] = &[
    "crates/engine/",
    "crates/classify/",
    "crates/query/",
    "crates/json/",
    "crates/memmem/",
    "crates/simd/",
    "crates/stackvec/",
    "src/",
];

/// Classifies a workspace-relative path into its policy tier.
pub(crate) fn tier_of(path: &str) -> Tier {
    // Integration tests, benches, and examples are test/dev code even
    // inside production crates.
    if path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.ends_with("build.rs")
    {
        return Tier::Dev;
    }
    if EXTERIOR.iter().any(|p| path.starts_with(p)) {
        return Tier::Exterior;
    }
    if CONTAINED.iter().any(|p| path.starts_with(p)) {
        return Tier::Contained;
    }
    Tier::Dev
}

/// One prepared source file.
pub(crate) struct SourceFile {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// Lexed token stream and comments.
    pub lexed: Lexed,
    /// `#[target_feature]` fns: name token index and sorted features.
    pub feature_fns: Vec<(usize, Vec<String>)>,
    /// Brace scopes (function bodies, unsafe blocks, other braces).
    pub scopes: Vec<Scope>,
    /// Token-index ranges `[start, end)` that belong to test code.
    pub test_spans: Vec<(usize, usize)>,
    /// The file's policy tier.
    pub tier: Tier,
}

impl SourceFile {
    /// Prepares one file for analysis.
    pub fn new(path: &str, content: &str) -> Self {
        let lexed = lex(content);
        let feature_fns = collect_target_feature_fns(&lexed);
        let scopes = build_scopes(&lexed, &feature_fns);
        let test_spans = find_test_spans(&lexed);
        SourceFile {
            path: path.to_owned(),
            lexed,
            feature_fns,
            scopes,
            test_spans,
            tier: tier_of(path),
        }
    }

    /// True when token `i` sits inside test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= i && i < e)
    }
}

/// Finds token spans covered by `#[cfg(test)]` / `#[test]` items: the
/// attribute itself through the matching close brace of the item it
/// decorates (or its `;` for bodyless items).
fn find_test_spans(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_end = match_bracket(toks, i + 1);
        let is_test = attr_is_test(toks, i + 1, attr_end);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = attr_end;
        while k < toks.len()
            && toks[k].is_punct('#')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            k = match_bracket(toks, k + 1);
        }
        // Find the item's body: the first `{` outside parens/brackets,
        // or a top-level `;` for bodyless items.
        let mut depth = 0i32;
        let mut end = k;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => {
                    end = match_brace(toks, k);
                    break;
                }
                TokKind::Punct(';') if depth == 0 => {
                    end = k + 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((i, end.max(k)));
        i = attr_end;
    }
    spans
}

/// Does the attribute token span `(open_idx, end)` mark test code?
/// `#[test]` and `#[cfg(test)]`-style attributes count; `cfg(not(test))`
/// does not.
fn attr_is_test(toks: &[crate::lexer::Tok], open_idx: usize, end: usize) -> bool {
    let idents: Vec<&str> = toks[open_idx..end.min(toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents == ["test"] {
        return true;
    }
    idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not")
}

/// Given the index of a `[`, returns the index one past its matching
/// `]` (or the token count when unterminated).
fn match_bracket(toks: &[crate::lexer::Tok], open_idx: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[open_idx..].iter().enumerate() {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return open_idx + off + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Given the index of a `{`, returns the index one past its matching
/// `}` (or the token count when unterminated).
pub(crate) fn match_brace(toks: &[crate::lexer::Tok], open_idx: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in toks[open_idx..].iter().enumerate() {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return open_idx + off + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// How an annotation site is justified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Annotation {
    /// No annotation comment near the site.
    Missing,
    /// The marker is present but carries no reason text.
    Empty,
    /// The marker is present with a non-empty reason.
    Justified,
}

/// How many lines above a site an annotation comment may sit.
const ANNOTATION_REACH: u32 = 3;

/// Looks for an annotation marker (e.g. `PANIC-OK:`) in a comment on
/// the same line as the site or within [`ANNOTATION_REACH`] lines above
/// it, and checks that a reason follows the marker.
pub(crate) fn annotation_at(comments: &[Comment], line: u32, marker: &str) -> Annotation {
    let found = comments
        .iter()
        .filter(|c| {
            let covers = c.start_line <= line && c.end_line >= line;
            let above = c.end_line < line && c.end_line + ANNOTATION_REACH >= line;
            (covers || above) && c.text.contains(marker)
        })
        .max_by_key(|c| c.end_line);
    let Some(comment) = found else {
        return Annotation::Missing;
    };
    let Some(pos) = comment.text.find(marker) else {
        return Annotation::Missing;
    };
    let rest = &comment.text[pos + marker.len()..];
    let reason: &str = rest.lines().next().unwrap_or("");
    if reason
        .trim_matches(|c: char| c.is_whitespace() || c == '*' || c == '/')
        .is_empty()
    {
        Annotation::Empty
    } else {
        Annotation::Justified
    }
}

/// A field or binding declared with a type of interest (`Mutex`,
/// `RwLock`, `AtomicBool`, …).
#[derive(Clone, Debug)]
pub(crate) struct TypedDecl {
    /// The field/binding name.
    pub name: String,
    /// The matched type name (e.g. `Mutex`).
    pub ty: &'static str,
    /// Declaring file.
    pub file: String,
}

/// Collects declarations of the given types across a file: struct
/// fields and annotated bindings (`name: Mutex<…>`, possibly behind
/// wrapper generics like `Arc<Mutex<…>>`), plus `let`/`static`
/// bindings initialized with `Type::new(…)`.
pub(crate) fn collect_typed_decls(file: &SourceFile, types: &[&'static str]) -> Vec<TypedDecl> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(ty) = types.iter().find(|ty| t.text == **ty) else {
            continue;
        };
        let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
        // `name = Type::new(…)` — walk back over `=` to the binding.
        if next_is(':') && toks.get(i + 2).is_some_and(|n| n.is_punct(':')) {
            if let Some(name) = binding_before_eq(toks, i) {
                out.push(TypedDecl {
                    name,
                    ty,
                    file: file.path.clone(),
                });
            }
            continue;
        }
        // `name: Type<…>` possibly wrapped (`name: Arc<Type<…>>`) or
        // path-qualified (`name: std::sync::Type<…>`); non-generic
        // types (`flag: AtomicBool`) take the same back-walk.
        if let Some(name) = field_before_type(toks, i) {
            out.push(TypedDecl {
                name,
                ty,
                file: file.path.clone(),
            });
        }
    }
    out
}

/// For a `Type::new(…)` at token `i`, finds the `name` in a preceding
/// `let [mut] name =` / `static NAME: … =` on the same statement.
fn binding_before_eq(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let mut k = i;
    // Walk back to the nearest `=` without crossing a statement edge.
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match toks[k].kind {
            TokKind::Punct('=') => break,
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => return None,
            _ => {}
        }
    }
    // `= `: the binding name may be directly before, or behind a type
    // annotation (`let x: Foo = …` — then the `name: Type<…>` arm
    // already caught it, skip to avoid double counting).
    let prev = toks.get(k.checked_sub(1)?)?;
    if prev.kind != TokKind::Ident {
        return None;
    }
    let before = toks.get(k.checked_sub(2)?)?;
    if before.is_ident("let") || before.is_ident("mut") || before.is_punct(':') {
        if before.is_punct(':') {
            return None; // annotated binding: other arm handles it
        }
        return Some(prev.text.clone());
    }
    None
}

/// For a type ident at token `i` in `name: [wrappers<]Type<…`, walks
/// back over wrapper generics and path qualifiers to the field name.
fn field_before_type(toks: &[crate::lexer::Tok], i: usize) -> Option<String> {
    let mut k = i.checked_sub(1)?;
    loop {
        match toks[k].kind {
            // A wrapper generic (`Arc<`) or path separator (`sync::`):
            // step over it and its ident.
            TokKind::Punct('<') => {
                k = k.checked_sub(1)?;
                if toks[k].kind != TokKind::Ident {
                    return None;
                }
                k = k.checked_sub(1)?;
            }
            TokKind::Punct(':') => {
                // Could be `::` (path) or the field's `:`.
                if k >= 1 && toks[k - 1].is_punct(':') {
                    // `::` — skip it and the preceding segment ident.
                    k = k.checked_sub(2)?;
                    if toks[k].kind != TokKind::Ident {
                        return None;
                    }
                    k = k.checked_sub(1)?;
                } else {
                    // The field's own `:` — the name sits before it.
                    let name = toks.get(k.checked_sub(1)?)?;
                    if name.kind == TokKind::Ident {
                        return Some(name.text.clone());
                    }
                    return None;
                }
            }
            _ => return None,
        }
    }
}

/// Directories the walker never descends into. `fixtures` holds the
/// analyzer's seeded-violation corpus — scanning it would fail the
/// workspace baseline by design.
const SKIP_DIRS: &[&str] = &["target", ".git", "corpus", "fuzz", "fixtures"];

/// Walks the workspace tree collecting every file the analysis passes
/// consume: Rust sources, crate manifests, and the documentation files
/// the consistency pass cross-checks. Paths are workspace-relative and
/// `/`-separated; the result is sorted by path.
pub(crate) fn walk_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_str()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs")
                || name == "Cargo.toml"
                || ((name == "DESIGN.md" || name == "README.md") && dir == *root)
            {
                files.push((rel_path(root, &path), std::fs::read_to_string(&path)?));
            }
        }
    }
    files.sort();
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_follow_the_containment_boundary() {
        assert_eq!(tier_of("crates/serve/src/pool.rs"), Tier::Exterior);
        assert_eq!(tier_of("crates/obs/src/hist.rs"), Tier::Exterior);
        assert_eq!(tier_of("crates/engine/src/main_loop.rs"), Tier::Contained);
        assert_eq!(tier_of("src/lib.rs"), Tier::Contained);
        assert_eq!(tier_of("crates/xtask/src/main.rs"), Tier::Dev);
        assert_eq!(tier_of("crates/serve/tests/robustness.rs"), Tier::Dev);
        assert_eq!(tier_of("crates/bench/src/lib.rs"), Tier::Dev);
        assert_eq!(tier_of("tests/integration.rs"), Tier::Dev);
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::new("crates/serve/src/lib.rs", src);
        let toks = &f.lexed.tokens;
        let unwraps: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.in_test(unwraps[0]), "production unwrap is not test code");
        assert!(f.in_test(unwraps[1]), "unwrap inside #[cfg(test)] mod is");
        let prod2 = toks.iter().position(|t| t.is_ident("prod2")).unwrap();
        assert!(!f.in_test(prod2), "code after the test module is not test");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let f = SourceFile::new("crates/serve/src/lib.rs", src);
        let i = f
            .lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .unwrap();
        assert!(!f.in_test(i));
    }

    #[test]
    fn test_attribute_on_fn_is_a_test_span() {
        let src = "#[test]\nfn check() { x.unwrap(); }\nfn prod() { y.unwrap(); }\n";
        let f = SourceFile::new("crates/serve/src/lib.rs", src);
        let unwraps: Vec<usize> = f
            .lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(f.in_test(unwraps[0]));
        assert!(!f.in_test(unwraps[1]));
    }

    #[test]
    fn annotations_require_reasons() {
        let src = "fn f() {\n    // PANIC-OK: capacity is clamped to >= 1 above.\n    x.unwrap();\n    // PANIC-OK:\n    y.unwrap();\n    z.unwrap();\n}\n";
        let f = SourceFile::new("crates/serve/src/lib.rs", src);
        assert_eq!(
            annotation_at(&f.lexed.comments, 3, "PANIC-OK:"),
            Annotation::Justified
        );
        assert_eq!(
            annotation_at(&f.lexed.comments, 5, "PANIC-OK:"),
            Annotation::Empty
        );
        // Line 6 is covered by nothing: the merged comment run above is
        // out of reach only if far enough — here the `// PANIC-OK:` on
        // line 4 still reaches line 6, so use a distant site instead.
        let far =
            "fn f() {\n    // PANIC-OK: reason\n    a.unwrap();\n\n\n\n\n\n    b.unwrap();\n}\n";
        let g = SourceFile::new("crates/serve/src/lib.rs", far);
        assert_eq!(
            annotation_at(&g.lexed.comments, 9, "PANIC-OK:"),
            Annotation::Missing
        );
    }

    #[test]
    fn trailing_same_line_annotation_counts() {
        let src = "fn f() {\n    x.unwrap(); // PANIC-OK: checked non-empty above.\n}\n";
        let f = SourceFile::new("crates/serve/src/lib.rs", src);
        assert_eq!(
            annotation_at(&f.lexed.comments, 2, "PANIC-OK:"),
            Annotation::Justified
        );
    }

    #[test]
    fn typed_decls_find_fields_and_bindings() {
        let src = "struct S {\n    state: Mutex<Inner>,\n    flag: AtomicBool,\n    shared: Arc<std::sync::RwLock<u8>>,\n}\nfn f() {\n    let seen = Mutex::new(0u8);\n}\n";
        let f = SourceFile::new("crates/serve/src/x.rs", src);
        let decls = collect_typed_decls(&f, &["Mutex", "RwLock", "AtomicBool"]);
        let mut got: Vec<(String, &str)> = decls.iter().map(|d| (d.name.clone(), d.ty)).collect();
        got.sort();
        assert_eq!(
            got,
            [
                ("flag".to_owned(), "AtomicBool"),
                ("seen".to_owned(), "Mutex"),
                ("shared".to_owned(), "RwLock"),
                ("state".to_owned(), "Mutex"),
            ]
        );
    }
}
