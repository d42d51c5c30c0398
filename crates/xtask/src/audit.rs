//! The `cargo xtask audit` static-analysis pass.
//!
//! Repo-specific soundness lints over the lexed token stream of every
//! workspace source file (see DESIGN.md §9):
//!
//! * **`undocumented-unsafe`** — every `unsafe` block needs a `// SAFETY:`
//!   comment on it or within the three preceding lines; every `unsafe fn`
//!   (or `unsafe impl`/`unsafe trait`) needs a `# Safety` doc section or a
//!   `SAFETY:` comment in the doc/attribute run directly above it.
//! * **`unsafe-outside-allowlist`** — `unsafe` may appear only in the
//!   audited kernel crates (`crates/simd`, `crates/stackvec`,
//!   `crates/mmap`). The rest of
//!   the workspace is also covered by `unsafe_code = "forbid"`; the audit
//!   additionally catches attempts to carve out exceptions with
//!   `#[allow(unsafe_code)]`, which the compiler would accept.
//! * **`target-feature-gating`** — a call to a `#[target_feature]`
//!   function is sound only when the caller is compiled with at least the
//!   same feature set, or when the call sits inside an `unsafe` block
//!   whose `SAFETY:` comment names the feature or the runtime detection
//!   that justifies it. This is the one UB class `cargo test` on a capable
//!   machine can never observe, which is why it gets a dedicated lint.
//! * **`pointer-arith-invariant`** — raw-pointer arithmetic
//!   (`.add`/`.sub`/`.offset`, `from_raw_parts*`) in the kernel crates
//!   must carry an adjacent `SAFETY:` comment or sit in a function that
//!   states its bounds as a `debug_assert!`.
//! * **`lint-config`** — kernel crate manifests must keep
//!   `unsafe_op_in_unsafe_fn = "deny"`; every other workspace crate must
//!   inherit the workspace `[lints]` table (which forbids `unsafe_code`).
//!
//! The lints are deliberately conservative pattern analyses, not a type
//! system: they can be fooled by sufficiently obfuscated code, but they
//! make the *default* path — plainly written kernels — carry their proof
//! obligations next to the code.

use crate::analyze::source::SourceFile;
use crate::lexer::{Comment, Lexed, Tok, TokKind};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Path prefixes (workspace-relative, `/`-separated) where `unsafe` is
/// permitted. Everything else must be `unsafe`-free.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/simd/",
    "crates/stackvec/",
    "crates/mmap/",
    "crates/perf/",
];

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
const SAFETY_COMMENT_REACH: u32 = 3;

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Lint name, e.g. `undocumented-unsafe`.
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[audit::{}]: {}\n  --> {}:{}",
            self.lint, self.message, self.file, self.line
        )
    }
}

/// A `#[target_feature]` function definition found anywhere in the
/// workspace.
#[derive(Clone, Debug)]
struct FeatureFn {
    /// Defining file (workspace-relative).
    file: String,
    /// Required CPU features, sorted and deduplicated.
    features: Vec<String>,
}

/// Lexical scope kinds the checks care about.
#[derive(Clone, Debug)]
pub(crate) enum ScopeKind {
    /// A function body, with the CPU features its item is compiled for.
    Fn { features: Vec<String> },
    /// An `unsafe { … }` block; `line` locates its `SAFETY:` comment.
    UnsafeBlock { line: u32 },
    /// Any other brace scope (match arms, struct literals, modules, …).
    Other,
}

/// A brace-delimited scope as a token-index range (`start` is the `{`,
/// `end` the matching `}` or one past the last token when unterminated).
#[derive(Clone, Debug)]
pub(crate) struct Scope {
    pub(crate) kind: ScopeKind,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// Runs the token-level lints over a set of prepared files (the same
/// [`SourceFile`]s the `analyze` passes read, so the workspace is lexed
/// once); pure so tests can feed synthetic sources. (The manifest-level
/// `lint-config` check lives in [`audit_workspace`], which has disk
/// access.)
#[must_use]
pub(crate) fn audit_sources(units: &[SourceFile]) -> Vec<Diagnostic> {
    // Cross-file tables: every #[target_feature] fn by name, and every
    // plain fn definition (so a safe fn sharing a kernel's name — e.g.
    // the scalar `swar::eq_mask` next to the AVX kernels — resolves to
    // its own safe definition instead of the union of feature sets).
    let mut feature_fns: HashMap<String, Vec<FeatureFn>> = HashMap::new();
    let mut plain_fns: HashMap<String, Vec<String>> = HashMap::new();
    for unit in units {
        let featured = &unit.feature_fns;
        for (name_idx, features) in featured {
            let name = unit.lexed.tokens[*name_idx].text.clone();
            feature_fns.entry(name).or_default().push(FeatureFn {
                file: unit.path.clone(),
                features: features.clone(),
            });
        }
        let featured_idx: Vec<usize> = featured.iter().map(|(i, _)| *i).collect();
        let toks = &unit.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("fn") && !featured_idx.contains(&(i + 1)) {
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        plain_fns
                            .entry(name.text.clone())
                            .or_default()
                            .push(unit.path.clone());
                    }
                }
            }
        }
    }

    let mut diags = Vec::new();
    for unit in units {
        check_unsafe_allowlist(unit, &mut diags);
        check_undocumented_unsafe(unit, &mut diags);
        check_feature_gating(unit, &feature_fns, &plain_fns, &mut diags);
        if in_allowlist(&unit.path) {
            check_pointer_arith(unit, &mut diags);
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

/// Runs the full audit over a workspace root on disk, including the
/// `lint-config` manifest checks. Returns diagnostics plus the number of
/// source files scanned.
///
/// # Errors
///
/// Returns an error when the workspace tree cannot be read.
pub fn audit_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    // The tree walk is shared with `cargo xtask analyze` (see
    // `analyze::source::walk_workspace`): both gates see exactly the
    // same file set. `fuzz/` is outside the workspace (see the root
    // manifest's `exclude`) and is skipped by the walker.
    let all = crate::analyze::source::walk_workspace(root)?;
    let mut files = Vec::new();
    let mut manifests = Vec::new();
    for (path, content) in all {
        if path.ends_with(".rs") {
            files.push(SourceFile::new(&path, &content));
        } else if path.ends_with("Cargo.toml") {
            manifests.push((path, content));
        }
    }
    let count = files.len();
    let mut diags = audit_sources(&files);
    check_lint_config(&manifests, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((diags, count))
}

fn in_allowlist(path: &str) -> bool {
    UNSAFE_ALLOWLIST.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------------
// Structure recovery: #[target_feature] definitions and brace scopes.
// ---------------------------------------------------------------------------

/// Finds every `#[target_feature(enable = "…")] fn name` and returns the
/// name's token index plus the sorted feature list. Multiple attributes
/// and comma-separated feature strings (`enable = "avx2,pclmulqdq"`) both
/// accumulate.
pub(crate) fn collect_target_feature_fns(lexed: &Lexed) -> Vec<(usize, Vec<String>)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut pending: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            // Scan the whole attribute, harvesting feature strings if it is
            // a `target_feature` attribute.
            let mut depth = 0i32;
            let mut is_tf = false;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokKind::Ident if toks[j].text == "target_feature" => is_tf = true,
                    TokKind::Literal if is_tf => {
                        pending.extend(parse_feature_literal(&toks[j].text));
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
        } else if t.is_ident("fn") {
            if !pending.is_empty() {
                if let Some(name) = toks.get(i + 1) {
                    if name.kind == TokKind::Ident {
                        pending.sort();
                        pending.dedup();
                        out.push((i + 1, std::mem::take(&mut pending)));
                    }
                }
            }
            pending.clear();
            i += 1;
        } else if is_item_qualifier(t) {
            // pub / unsafe / const / extern "C" / (crate) between the
            // attribute and the `fn` keep the pending features alive.
            i += 1;
        } else {
            pending.clear();
            i += 1;
        }
    }
    out
}

fn is_item_qualifier(t: &Tok) -> bool {
    t.is_ident("pub")
        || t.is_ident("unsafe")
        || t.is_ident("const")
        || t.is_ident("extern")
        || t.is_ident("crate")
        || t.is_ident("in")
        || t.is_punct('(')
        || t.is_punct(')')
        || t.kind == TokKind::Literal
}

/// Splits the source text of an `enable = "…"` literal into feature names.
fn parse_feature_literal(text: &str) -> Vec<String> {
    text.trim_matches('"')
        .split(',')
        .map(str::trim)
        .filter(|f| !f.is_empty() && f.chars().all(|c| c.is_ascii_alphanumeric() || c == '.'))
        .map(str::to_owned)
        .collect()
}

/// One pass over the token stream recovering the brace-scope tree as a
/// flat list. `tf` maps fn-name token indices to their feature sets.
pub(crate) fn build_scopes(lexed: &Lexed, tf: &[(usize, Vec<String>)]) -> Vec<Scope> {
    let features_of: HashMap<usize, &Vec<String>> = tf.iter().map(|(idx, f)| (*idx, f)).collect();
    let toks = &lexed.tokens;
    let mut stack: Vec<(ScopeKind, usize)> = Vec::new();
    let mut scopes = Vec::new();
    let mut pending: Option<ScopeKind> = None;
    // Parenthesis/bracket nesting, so the `;` inside `[u64; N]` or a
    // default argument does not look like the end of a declaration.
    let mut group_depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                let features = features_of
                    .get(&(i + 1))
                    .map(|f| (*f).clone())
                    .unwrap_or_default();
                pending = Some(ScopeKind::Fn { features });
            }
            // `unsafe {` opens a block scope; `unsafe fn` is instead
            // handled when the `fn` token arrives.
            TokKind::Ident
                if t.text == "unsafe" && toks.get(i + 1).is_some_and(|n| n.is_punct('{')) =>
            {
                pending = Some(ScopeKind::UnsafeBlock { line: t.line });
            }
            TokKind::Punct('(') | TokKind::Punct('[') => group_depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => group_depth -= 1,
            TokKind::Punct('{') => {
                stack.push((pending.take().unwrap_or(ScopeKind::Other), i));
            }
            TokKind::Punct('}') => {
                if let Some((kind, start)) = stack.pop() {
                    scopes.push(Scope {
                        kind,
                        start,
                        end: i,
                    });
                }
            }
            // A trait method signature (`fn f(…);`) never gets a body —
            // but only a top-level `;` ends the declaration.
            TokKind::Punct(';') if group_depth == 0 => pending = None,
            _ => {}
        }
    }
    while let Some((kind, start)) = stack.pop() {
        scopes.push(Scope {
            kind,
            start,
            end: toks.len(),
        });
    }
    scopes
}

/// The innermost scope of the wanted kind strictly containing token `i`.
pub(crate) fn innermost<F>(scopes: &[Scope], i: usize, want: F) -> Option<&Scope>
where
    F: Fn(&ScopeKind) -> bool,
{
    scopes
        .iter()
        .filter(|s| s.start < i && i < s.end && want(&s.kind))
        .max_by_key(|s| s.start)
}

// ---------------------------------------------------------------------------
// Comment proximity helpers.
// ---------------------------------------------------------------------------

/// Is there a comment containing `needle` whose last line lands within
/// `reach` lines above `line` (or on `line` itself)?
fn comment_near(comments: &[Comment], line: u32, reach: u32, needle: &str) -> bool {
    comments
        .iter()
        .any(|c| c.end_line <= line + 1 && c.end_line + reach >= line && c.text.contains(needle))
}

/// Returns the nearest `SAFETY:` comment at or above `line`, if any.
fn safety_comment_near(comments: &[Comment], line: u32, reach: u32) -> Option<&Comment> {
    comments
        .iter()
        .filter(|c| {
            c.end_line <= line + 1 && c.end_line + reach >= line && c.text.contains("SAFETY:")
        })
        .max_by_key(|c| c.end_line)
}

/// First token index on each line (used to delimit doc/attribute runs).
fn first_token_on_lines(lexed: &Lexed) -> HashMap<u32, usize> {
    let mut map: HashMap<u32, usize> = HashMap::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        map.entry(t.line).or_insert(i);
    }
    map
}

/// Checks the doc/attribute run directly above `line` for a comment
/// containing any of `needles`. The run may consist of comments and
/// attribute lines; a blank line or unrelated code ends it — matching how
/// rustdoc attaches docs to items.
fn doc_run_contains(lexed: &Lexed, line: u32, needles: &[&str]) -> bool {
    let first_tok_on = first_token_on_lines(lexed);
    let mut l = line;
    while l > 1 {
        l -= 1;
        if let Some(c) = lexed
            .comments
            .iter()
            .find(|c| c.start_line <= l && c.end_line >= l)
        {
            // A `# Safety` section only counts inside real doc comments
            // (rustdoc renders those); a plain `// SAFETY:` comment counts
            // anywhere in the run.
            let satisfied = needles.iter().any(|n| c.text.contains(n))
                && (c.is_doc || c.text.contains("SAFETY:"));
            if satisfied {
                return true;
            }
            l = c.start_line; // jump to the top of a multi-line comment
            continue;
        }
        if let Some(&idx) = first_tok_on.get(&l) {
            // An attribute line is part of the run; anything else ends it.
            if lexed.tokens[idx].is_punct('#') {
                continue;
            }
            return false;
        }
        // Blank line ends the run.
        return false;
    }
    false
}

// ---------------------------------------------------------------------------
// The lints.
// ---------------------------------------------------------------------------

fn check_unsafe_allowlist(unit: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if in_allowlist(&unit.path) {
        return;
    }
    for t in &unit.lexed.tokens {
        if t.is_ident("unsafe") {
            diags.push(Diagnostic {
                lint: "unsafe-outside-allowlist",
                file: unit.path.clone(),
                line: t.line,
                message: format!(
                    "`unsafe` outside the kernel allowlist ({}); move the code into an audited kernel crate or find a safe formulation",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
        }
    }
}

fn check_undocumented_unsafe(unit: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &unit.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let is_item = next.is_some_and(|n| {
            n.is_ident("fn") || n.is_ident("impl") || n.is_ident("trait") || n.is_ident("extern")
        });
        if is_item {
            // `unsafe fn`/`unsafe impl` — the contract belongs in the docs.
            let decl_line = first_line_of_decl(&unit.lexed, i);
            if !doc_run_contains(&unit.lexed, decl_line, &["# Safety", "SAFETY:"]) {
                diags.push(Diagnostic {
                    lint: "undocumented-unsafe",
                    file: unit.path.clone(),
                    line: t.line,
                    message: format!(
                        "`unsafe {}` without a `# Safety` doc section describing its contract",
                        next.map_or("item", |n| n.text.as_str())
                    ),
                });
            }
        } else if !comment_near(
            &unit.lexed.comments,
            t.line,
            SAFETY_COMMENT_REACH,
            "SAFETY:",
        ) {
            diags.push(Diagnostic {
                lint: "undocumented-unsafe",
                file: unit.path.clone(),
                line: t.line,
                message:
                    "`unsafe` block without a `// SAFETY:` comment justifying why its obligations hold"
                        .to_owned(),
            });
        }
    }
}

/// The first line of the declaration an `unsafe` keyword belongs to: walks
/// back over qualifiers (`pub`, `pub(crate)`, `const`) so the doc-run
/// search starts above `pub unsafe fn`, not between `pub` and `unsafe`.
fn first_line_of_decl(lexed: &Lexed, unsafe_idx: usize) -> u32 {
    let toks = &lexed.tokens;
    let mut i = unsafe_idx;
    while i > 0 && is_item_qualifier(&toks[i - 1]) && !toks[i - 1].is_ident("unsafe") {
        i -= 1;
    }
    toks[i].line
}

fn check_feature_gating(
    unit: &SourceFile,
    feature_fns: &HashMap<String, Vec<FeatureFn>>,
    plain_fns: &HashMap<String, Vec<String>>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &unit.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let Some(defs) = feature_fns.get(&t.text) else {
            continue;
        };
        // A call site looks like `name(`; skip the definition itself.
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('.')) {
            // The definition, or a method call — kernel fns are free
            // functions, so `x.eq_mask(…)` resolves to a safe method.
            continue;
        }
        let Some(required) =
            resolve_required_features(defs, plain_fns.get(&t.text), unit, module_hint(toks, i))
        else {
            continue; // resolves to a safe fn of the same name
        };
        let caller_features = innermost(&unit.scopes, i, |k| matches!(k, ScopeKind::Fn { .. }))
            .map(|s| match &s.kind {
                ScopeKind::Fn { features } => features.clone(),
                _ => unreachable!("filtered to Fn scopes"),
            })
            .unwrap_or_default();
        if required.iter().all(|f| caller_features.contains(f)) {
            continue;
        }
        // Not statically gated: require an unsafe block whose SAFETY
        // comment names the feature or the runtime detection.
        let justified = innermost(&unit.scopes, i, |k| {
            matches!(k, ScopeKind::UnsafeBlock { .. })
        })
        .and_then(|s| match s.kind {
            ScopeKind::UnsafeBlock { line } => {
                safety_comment_near(&unit.lexed.comments, line, SAFETY_COMMENT_REACH)
            }
            _ => unreachable!("filtered to UnsafeBlock scopes"),
        })
        .is_some_and(|c| safety_justifies_features(&c.text, &required));
        if !justified {
            diags.push(Diagnostic {
                lint: "target-feature-gating",
                file: unit.path.clone(),
                line: t.line,
                message: format!(
                    "call to `#[target_feature({})]` fn `{}` from a context without those features; wrap it in an `unsafe` block whose SAFETY comment cites the runtime detection",
                    required.join(","),
                    t.text
                ),
            });
        }
    }
}

/// Does a SAFETY comment plausibly justify calling code that needs
/// `features`? It must mention runtime detection (`detect`/`dispatch`) or
/// name one of the required features explicitly.
fn safety_justifies_features(text: &str, features: &[String]) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("detect")
        || lower.contains("dispatch")
        || features
            .iter()
            .any(|f| lower.contains(&f.to_ascii_lowercase()))
}

/// The module path segment qualifying a call, e.g. `avx2` in
/// `avx2::eq_mask_ptr(…)` or `crate::avx2::…`.
fn module_hint(toks: &[Tok], call_idx: usize) -> Option<&str> {
    if call_idx >= 3
        && toks[call_idx - 1].is_punct(':')
        && toks[call_idx - 2].is_punct(':')
        && toks[call_idx - 3].kind == TokKind::Ident
    {
        Some(toks[call_idx - 3].text.as_str())
    } else {
        None
    }
}

/// Resolves which definition a call refers to: a module-path hint matching
/// the defining file's stem wins, then same-file definitions, otherwise
/// the union of all featured definitions' features (conservative). Returns
/// `None` when the call resolves to a safe (non-`target_feature`) fn of
/// the same name — from `safe_defs`, the files defining one.
fn resolve_required_features(
    defs: &[FeatureFn],
    safe_defs: Option<&Vec<String>>,
    unit: &SourceFile,
    hint: Option<&str>,
) -> Option<Vec<String>> {
    let pick = |candidates: Vec<&FeatureFn>| -> Option<Vec<String>> {
        let mut features: Vec<String> = candidates
            .iter()
            .flat_map(|d| d.features.iter().cloned())
            .collect();
        features.sort();
        features.dedup();
        Some(features)
    };
    let file_matches_hint = |file: &str, hint: &str| {
        Path::new(file)
            .file_stem()
            .is_some_and(|s| s.to_string_lossy() == hint)
    };
    if let Some(hint) = hint {
        let hinted: Vec<&FeatureFn> = defs
            .iter()
            .filter(|d| file_matches_hint(&d.file, hint))
            .collect();
        if !hinted.is_empty() {
            return pick(hinted);
        }
        if safe_defs.is_some_and(|files| files.iter().any(|f| file_matches_hint(f, hint))) {
            return None;
        }
    }
    // No qualifier, or one that names no defining file — a type or a
    // trait (`Simd::eq_mask`), whose method lives where the call does.
    let local: Vec<&FeatureFn> = defs.iter().filter(|d| d.file == unit.path).collect();
    if !local.is_empty() {
        return pick(local);
    }
    if safe_defs.is_some_and(|files| files.contains(&unit.path)) {
        return None;
    }
    pick(defs.iter().collect())
}

/// Raw-pointer arithmetic and slice-from-raw sites that must carry either
/// an adjacent SAFETY comment or a `debug_assert!` bound in their function.
fn check_pointer_arith(unit: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const METHODS: &[&str] = &[
        "add",
        "sub",
        "offset",
        "byte_add",
        "byte_sub",
        "byte_offset",
    ];
    const FREE_FNS: &[&str] = &["from_raw_parts", "from_raw_parts_mut"];
    let toks = &unit.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let site = if t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && METHODS.contains(&n.text.as_str()))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            Some((&toks[i + 1].text, toks[i + 1].line, i + 1))
        } else if t.kind == TokKind::Ident
            && FREE_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            Some((&t.text, t.line, i))
        } else {
            None
        };
        let Some((name, line, idx)) = site else {
            continue;
        };
        if comment_near(&unit.lexed.comments, line, SAFETY_COMMENT_REACH, "SAFETY:") {
            continue;
        }
        let fn_scope = innermost(&unit.scopes, idx, |k| matches!(k, ScopeKind::Fn { .. }));
        let has_debug_assert = fn_scope.is_some_and(|s| {
            toks[s.start..s.end]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.starts_with("debug_assert"))
        });
        if !has_debug_assert {
            diags.push(Diagnostic {
                lint: "pointer-arith-invariant",
                file: unit.path.clone(),
                line,
                message: format!(
                    "`{name}` without a nearby `// SAFETY:` comment or a `debug_assert!` stating the bound it relies on"
                ),
            });
        }
    }
}

/// Manifest-level policy: kernel crates keep `unsafe_op_in_unsafe_fn`
/// denied; all other workspace packages inherit the workspace `[lints]`
/// table.
pub(crate) fn check_lint_config(manifests: &[(String, String)], diags: &mut Vec<Diagnostic>) {
    for (path, content) in manifests {
        if !content.contains("[package]") {
            continue; // a virtual manifest
        }
        let is_kernel = UNSAFE_ALLOWLIST.iter().any(|p| {
            path.starts_with(p) || path.trim_end_matches("Cargo.toml") == p.trim_end_matches('/')
        });
        if is_kernel {
            if !content.contains("unsafe_op_in_unsafe_fn") {
                diags.push(Diagnostic {
                    lint: "lint-config",
                    file: path.clone(),
                    line: 1,
                    message:
                        "kernel crate must set `unsafe_op_in_unsafe_fn = \"deny\"` in its [lints.rust] table"
                            .to_owned(),
                });
            }
        } else if !has_workspace_lints(content) {
            diags.push(Diagnostic {
                lint: "lint-config",
                file: path.clone(),
                line: 1,
                message:
                    "crate must inherit workspace lints: add `[lints]` with `workspace = true`"
                        .to_owned(),
            });
        }
    }
}

/// Does the manifest contain a `[lints]` table whose first key is
/// `workspace = true`?
fn has_workspace_lints(content: &str) -> bool {
    let mut in_lints = false;
    for line in content.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && !line.is_empty() && !line.starts_with('#') {
            return line.replace(' ', "") == "workspace=true";
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_one(path: &str, src: &str) -> Vec<Diagnostic> {
        audit(&[(path, src)])
    }

    fn audit(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let units: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::new(path, src))
            .collect();
        audit_sources(&units)
    }

    fn lints(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn undocumented_unsafe_block_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let diags = audit_one("crates/simd/src/x.rs", src);
        assert_eq!(lints(&diags), ["undocumented-unsafe"]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn safety_comment_satisfies_unsafe_block() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(audit_one("crates/simd/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_too_far_away_does_not_count() {
        let src = "// SAFETY: stale comment far above.\n\n\n\n\nfn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let diags = audit_one("crates/simd/src/x.rs", src);
        assert_eq!(lints(&diags), ["undocumented-unsafe"]);
    }

    #[test]
    fn unsafe_fn_needs_safety_docs() {
        let bad = "pub unsafe fn f() {}\n";
        let good = "/// Does things.\n///\n/// # Safety\n///\n/// Caller must hold the lock.\npub unsafe fn f() {}\n";
        assert_eq!(
            lints(&audit_one("crates/simd/src/x.rs", bad)),
            ["undocumented-unsafe"]
        );
        assert!(audit_one("crates/simd/src/x.rs", good).is_empty());
    }

    #[test]
    fn unsafe_fn_docs_survive_attributes_between() {
        let src = "/// # Safety\n///\n/// `avx2` must be available.\n#[target_feature(enable = \"avx2\")]\n#[inline]\npub unsafe fn f() {}\n";
        assert!(audit_one("crates/simd/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_docs() {
        let src = "unsafe impl Send for Foo {}\n";
        assert_eq!(
            lints(&audit_one("crates/stackvec/src/x.rs", src)),
            ["undocumented-unsafe"]
        );
        let good = "// SAFETY: Foo owns its buffer exclusively.\nunsafe impl Send for Foo {}\n";
        assert!(audit_one("crates/stackvec/src/x.rs", good).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: documented but still not allowed here.\n    unsafe { *p }\n}\n";
        let diags = audit_one("crates/engine/src/x.rs", src);
        assert!(lints(&diags).contains(&"unsafe-outside-allowlist"));
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src = "// this mentions unsafe code\nfn f() { let s = \"unsafe { }\"; let _ = s; }\n";
        assert!(audit_one("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn ungated_target_feature_call_is_flagged() {
        let src = r#"
/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: u64) -> u64 { x }

pub fn caller(x: u64) -> u64 {
    // SAFETY: nothing about cpu features here.
    unsafe { kernel(x) }
}
"#;
        let diags = audit_one("crates/simd/src/x.rs", src);
        assert_eq!(lints(&diags), ["target-feature-gating"]);
    }

    #[test]
    fn detection_safety_comment_justifies_call() {
        let src = r#"
/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: u64) -> u64 { x }

pub fn caller(x: u64) -> u64 {
    // SAFETY: constructor verified avx2 via runtime detection.
    unsafe { kernel(x) }
}
"#;
        assert!(audit_one("crates/simd/src/x.rs", src).is_empty());
    }

    #[test]
    fn same_feature_caller_needs_no_justification() {
        let src = r#"
/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: u64) -> u64 { x }

/// # Safety
///
/// `avx2` and `pclmulqdq` must be available.
#[target_feature(enable = "avx2")]
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn outer(x: u64) -> u64 {
    // SAFETY: outer already requires a superset of kernel's features.
    unsafe { kernel(x) }
}
"#;
        assert!(audit_one("crates/simd/src/x.rs", src).is_empty());
    }

    #[test]
    fn disjoint_features_do_not_satisfy_the_superset_rule() {
        // `outer` has avx2 but NOT pclmulqdq, and its SAFETY comment names
        // neither the missing feature nor the detection — flagged.
        let src = r#"
/// # Safety
///
/// `pclmulqdq` must be available.
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn clmul(x: u64) -> u64 { x }

/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn outer(x: u64) -> u64 {
    // SAFETY: sounds fine.
    unsafe { clmul(x) }
}
"#;
        let diags = audit_one("crates/simd/src/x.rs", src);
        assert_eq!(lints(&diags), ["target-feature-gating"]);
    }

    #[test]
    fn cross_file_call_resolves_via_module_hint() {
        let kernel = r#"
/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: u64) -> u64 { x }
"#;
        let caller_bad = r#"
pub fn dispatch(x: u64) -> u64 {
    // SAFETY: no reason given.
    unsafe { avx2::kernel(x) }
}
"#;
        let caller_good = r#"
pub fn dispatch(x: u64) -> u64 {
    // SAFETY: `Simd::detect` confirmed avx2 support at construction.
    unsafe { avx2::kernel(x) }
}
"#;
        let diags = audit(&[
            ("crates/simd/src/avx2.rs", kernel),
            ("crates/simd/src/lib.rs", caller_bad),
        ]);
        assert_eq!(lints(&diags), ["target-feature-gating"]);
        let diags = audit(&[
            ("crates/simd/src/avx2.rs", kernel),
            ("crates/simd/src/lib.rs", caller_good),
        ]);
        assert!(diags.is_empty());
    }

    #[test]
    fn type_qualified_call_resolves_to_the_method_beside_it() {
        // `Simd::kernel` names no file: it is the safe inherent method in
        // the calling file, not the featured free fn of the same name.
        let kernel = r#"
/// # Safety
///
/// `avx2` must be available.
#[target_feature(enable = "avx2")]
pub unsafe fn kernel(x: u64) -> u64 { x }
"#;
        let caller = r#"
impl Simd {
    pub fn kernel(self, x: u64) -> u64 { x }
}
impl Backend for Simd {
    fn kernel(self, x: u64) -> u64 { Simd::kernel(self, x) }
}
"#;
        let diags = audit(&[
            ("crates/simd/src/avx2.rs", kernel),
            ("crates/simd/src/lib.rs", caller),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pointer_arith_needs_invariant() {
        let bad = "fn f(p: *const u8, n: usize) -> *const u8 {\n    p.add(n)\n}\n";
        let with_comment = "fn f(p: *const u8, n: usize) -> *const u8 {\n    // SAFETY: n <= len by construction.\n    p.add(n)\n}\n";
        let with_assert = "fn f(p: *const u8, n: usize, len: usize) -> *const u8 {\n    debug_assert!(n <= len);\n    p.add(n)\n}\n";
        assert_eq!(
            lints(&audit_one("crates/simd/src/x.rs", bad)),
            ["pointer-arith-invariant"]
        );
        assert!(audit_one("crates/simd/src/x.rs", with_comment).is_empty());
        assert!(audit_one("crates/simd/src/x.rs", with_assert).is_empty());
    }

    #[test]
    fn pointer_arith_outside_kernels_not_linted() {
        // `.sub(…)`-style safe method names in other crates do not trip the
        // kernel-only invariant lint.
        let src = "fn f(x: Wrapping<u8>) -> Wrapping<u8> { x.sub(Wrapping(1)) }\n";
        assert!(audit_one("crates/engine/src/x.rs", src).is_empty());
    }

    #[test]
    fn lint_config_checks_manifests() {
        let mut diags = Vec::new();
        let manifests = vec![
            (
                "crates/engine/Cargo.toml".to_owned(),
                "[package]\nname = \"rsq-engine\"\n".to_owned(),
            ),
            (
                "crates/json/Cargo.toml".to_owned(),
                "[package]\nname = \"rsq-json\"\n\n[lints]\nworkspace = true\n".to_owned(),
            ),
            (
                "crates/simd/Cargo.toml".to_owned(),
                "[package]\nname = \"rsq-simd\"\n".to_owned(),
            ),
            (
                "crates/stackvec/Cargo.toml".to_owned(),
                "[package]\nname = \"rsq-stackvec\"\n\n[lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n".to_owned(),
            ),
        ];
        check_lint_config(&manifests, &mut diags);
        let files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
        assert_eq!(
            files,
            ["crates/engine/Cargo.toml", "crates/simd/Cargo.toml"]
        );
        assert!(diags.iter().all(|d| d.lint == "lint-config"));
    }

    #[test]
    fn diagnostics_render_rustc_style() {
        let d = Diagnostic {
            lint: "undocumented-unsafe",
            file: "crates/simd/src/avx2.rs".to_owned(),
            line: 42,
            message: "example".to_owned(),
        };
        let text = d.to_string();
        assert!(text.contains("error[audit::undocumented-unsafe]"));
        assert!(text.contains("crates/simd/src/avx2.rs:42"));
    }
}
