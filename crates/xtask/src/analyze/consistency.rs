//! Pass 4: exit-code / fault-code / metric-name consistency
//! (DESIGN.md §14.5).
//!
//! The CLI's exit-code table and the serve protocol's `DocError` code
//! strings are public contracts: scripts and dashboards match on them.
//! This pass cross-checks three sources of truth against each other:
//!
//! * the `CliErrorKind::exit_code()` match arms in `crates/cli` vs. the
//!   canonical table in DESIGN.md (anchored by
//!   `<!-- exit-code-table:begin/end -->`) vs. the README;
//! * the `DocErrorKind::code()` strings in `crates/batch` vs. the fault
//!   table in DESIGN.md (anchored by `<!-- doc-error-codes:begin/end -->`);
//! * every `rsq_*` metric name mentioned in DESIGN.md/README vs. the
//!   series registry (`rsq_obs::series`), in both directions: a name in
//!   the docs must be a registered series (or a family prefix of some),
//!   and every registered series must have its row in the README's
//!   metric reference (anchored by `<!-- metric-reference:begin/end -->`).
//!
//! Anchors make the doc side machine-readable without a markdown
//! parser: the pass reads only what sits between the HTML comments, so
//! prose elsewhere can mention codes freely.
//!
//! The lint configuration is a contract too (`lint-config`): which crates
//! may hold `unsafe`, and that every crate shipped in a build declares its
//! panic-surface tier, so that rustc and clippy enforce both (DESIGN.md §9,
//! §14.2).

use super::source::SourceFile;
use super::Finding;
use crate::lexer::TokKind;
use std::collections::BTreeMap;

/// Exit-code arms recovered from `CliErrorKind::Name => N` tokens.
fn source_exit_codes(files: &[SourceFile]) -> BTreeMap<String, u8> {
    let mut out = BTreeMap::new();
    for file in files {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("CliErrorKind") {
                continue;
            }
            let p = |k: usize, c: char| toks.get(i + k).is_some_and(|t| t.is_punct(c));
            if !(p(1, ':') && p(2, ':')) {
                continue;
            }
            let Some(name) = toks.get(i + 3).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            // Only `=> <number>` arms are the exit-code table; the
            // DocError→CliError mapping arms are followed by idents.
            if !(p(4, '=') && p(5, '>')) {
                continue;
            }
            let Some(lit) = toks.get(i + 6).filter(|t| t.kind == TokKind::Literal) else {
                continue;
            };
            if let Ok(code) = lit.text.parse::<u8>() {
                out.insert(name.text.clone(), code);
            }
        }
    }
    out
}

/// Fault-code strings recovered from `DocErrorKind::… => "code"` arms.
fn source_doc_codes(files: &[SourceFile]) -> Vec<String> {
    let mut out = Vec::new();
    for file in files {
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("DocErrorKind") {
                continue;
            }
            // Scan a short window for `=> "literal"`; the CLI's
            // DocError→CliError mapping has an ident after `=>`, so it
            // never collects.
            for k in i + 3..(i + 12).min(toks.len().saturating_sub(2)) {
                if toks[k].is_punct('=') && toks[k + 1].is_punct('>') {
                    let lit = &toks[k + 2];
                    if lit.kind == TokKind::Literal && lit.text.starts_with('"') {
                        out.push(lit.text.trim_matches('"').to_owned());
                    }
                    break;
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The text between `<!-- {anchor}:begin -->` and `<!-- {anchor}:end -->`.
fn anchored_region<'a>(doc: &'a str, anchor: &str) -> Option<&'a str> {
    let begin = format!("<!-- {anchor}:begin -->");
    let end = format!("<!-- {anchor}:end -->");
    let start = doc.find(&begin)? + begin.len();
    let stop = doc[start..].find(&end)? + start;
    Some(&doc[start..stop])
}

/// Parses `| code | class | \`Kind\` |` rows from the anchored table.
/// The kind cell may be `—` for codes without a `CliErrorKind` (success
/// and usage errors, raised before a `CliError` exists).
fn table_exit_codes(region: &str) -> Vec<(u8, Option<String>)> {
    let mut out = Vec::new();
    for line in region.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        let Ok(code) = cells[0].parse::<u8>() else {
            continue; // header or separator row
        };
        let kind = cells[2].trim_matches('`');
        let kind = if kind == "—" || kind == "-" || kind.is_empty() {
            None
        } else {
            Some(kind.to_owned())
        };
        out.push((code, kind));
    }
    out
}

/// Backticked fault codes (`io`, `limit:depth`, …) in the anchored
/// fault-table region.
fn doc_fault_codes(region: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = region;
    while let Some(start) = rest.find('`') {
        let Some(len) = rest[start + 1..].find('`') else {
            break;
        };
        let span = &rest[start + 1..start + 1 + len];
        if !span.is_empty()
            && span
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == ':' || c == '-')
        {
            out.push(span.to_owned());
        }
        rest = &rest[start + 1 + len + 1..];
    }
    out.sort();
    out.dedup();
    out
}

/// Every `rsq_*` name mentioned in a doc, with the line it appears on.
/// A trailing `*` (a family wildcard like `rsq_window_*`) is trimmed.
fn doc_metric_names(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (lineno, line) in doc.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("rsq_") {
            let tail = &rest[pos..];
            let len = tail
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .map(char::len_utf8)
                .sum::<usize>();
            let name = tail[..len].trim_end_matches('_').to_owned();
            // `rsq_engine::EngineError` is a crate path in a doc
            // example, not a metric name.
            let is_path = tail[len..].starts_with("::");
            if name.len() > 4 && !is_path {
                out.push((
                    name,
                    u32::try_from(lineno).unwrap_or(u32::MAX).saturating_add(1),
                ));
            }
            rest = &tail[len.max(4)..];
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Does `name` (possibly a family prefix) match a registered series?
fn metric_matches(name: &str, series: &[&str]) -> bool {
    series
        .iter()
        .any(|s| s.starts_with(name) && (s.len() == name.len() || s.as_bytes()[name.len()] == b'_'))
}

/// Runs the consistency checks. `docs` are `(path, content)` pairs for
/// DESIGN.md/README.md; `series` are the registered series names (empty
/// slice skips the metric-name checks).
pub(crate) fn check(
    files: &[SourceFile],
    docs: &[(String, String)],
    series: &[&str],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let design = docs.iter().find(|(p, _)| p.ends_with("DESIGN.md"));
    let readme = docs.iter().find(|(p, _)| p.ends_with("README.md"));

    let exit_codes = source_exit_codes(files);
    let doc_codes = source_doc_codes(files);

    // --- Exit-code table -------------------------------------------------
    if let Some((design_path, design_text)) = design {
        if !exit_codes.is_empty() {
            match anchored_region(design_text, "exit-code-table") {
                None => out.push(Finding {
                    pass: "consistency",
                    lint: "doc-anchor",
                    file: design_path.clone(),
                    line: 1,
                    message: "DESIGN.md has no `<!-- exit-code-table:begin/end -->` anchors around the canonical exit-code table".to_owned(),
                }),
                Some(region) => {
                    let table = table_exit_codes(region);
                    for (kind, code) in &exit_codes {
                        let found = table
                            .iter()
                            .any(|(c, k)| c == code && k.as_deref() == Some(kind.as_str()));
                        if !found {
                            out.push(Finding {
                                pass: "consistency",
                                lint: "exit-code-mismatch",
                                file: design_path.clone(),
                                line: 1,
                                message: format!(
                                    "`CliErrorKind::{kind}` exits with {code} in the source but the DESIGN.md exit-code table has no matching row"
                                ),
                            });
                        }
                    }
                    for (code, kind) in &table {
                        let Some(kind) = kind else { continue };
                        if exit_codes.get(kind) != Some(code) {
                            out.push(Finding {
                                pass: "consistency",
                                lint: "exit-code-mismatch",
                                file: design_path.clone(),
                                line: 1,
                                message: format!(
                                    "DESIGN.md table maps exit {code} to `CliErrorKind::{kind}`, which the source does not"
                                ),
                            });
                        }
                    }
                    if let Some((readme_path, readme_text)) = readme {
                        let lower = readme_text.to_ascii_lowercase();
                        for (code, _) in &table {
                            let plain = format!("exit {code}");
                            let ticked = readme_text.lines().any(|l| {
                                l.to_ascii_lowercase().contains("exit")
                                    && l.contains(&format!("`{code}`"))
                            });
                            if !lower.contains(&plain) && !ticked {
                                out.push(Finding {
                                    pass: "consistency",
                                    lint: "readme-exit-codes",
                                    file: readme_path.clone(),
                                    line: 1,
                                    message: format!(
                                        "exit code {code} from the DESIGN.md table is not documented in the README"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }

        // --- DocError fault codes ----------------------------------------
        if !doc_codes.is_empty() {
            match anchored_region(design_text, "doc-error-codes") {
                None => out.push(Finding {
                    pass: "consistency",
                    lint: "doc-anchor",
                    file: design_path.clone(),
                    line: 1,
                    message: "DESIGN.md has no `<!-- doc-error-codes:begin/end -->` anchors around the fault-code table".to_owned(),
                }),
                Some(region) => {
                    let documented = doc_fault_codes(region);
                    for code in &doc_codes {
                        if !documented.contains(code) {
                            out.push(Finding {
                                pass: "consistency",
                                lint: "doc-error-code-mismatch",
                                file: design_path.clone(),
                                line: 1,
                                message: format!(
                                    "fault code `{code}` from `DocErrorKind::code()` is missing from the DESIGN.md fault table"
                                ),
                            });
                        }
                    }
                    for code in &documented {
                        if !doc_codes.contains(code) {
                            out.push(Finding {
                                pass: "consistency",
                                lint: "doc-error-code-mismatch",
                                file: design_path.clone(),
                                line: 1,
                                message: format!(
                                    "fault code `{code}` in the DESIGN.md fault table is not a `DocErrorKind::code()` string"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // --- Metric names ----------------------------------------------------
    if series.is_empty() {
        return out;
    }
    for (path, text) in docs {
        for (name, line) in doc_metric_names(text) {
            if !metric_matches(&name, series) {
                out.push(Finding {
                    pass: "consistency",
                    lint: "unknown-metric-name",
                    file: path.clone(),
                    line,
                    message: format!(
                        "`{name}` is not a series (or series family) in the registry; fix the name or add the row"
                    ),
                });
            }
        }
    }
    if let Some((readme_path, readme_text)) = readme {
        let reference = anchored_region(readme_text, "metric-reference").unwrap_or("");
        for name in series {
            if !reference.contains(&format!("`{name}`")) {
                out.push(Finding {
                    pass: "consistency",
                    lint: "undocumented-series",
                    file: readme_path.clone(),
                    line: 1,
                    message: format!(
                        "series `{name}` has no row between the README's `<!-- metric-reference:begin/end -->` anchors"
                    ),
                });
            }
        }
    }
    out
}

/// The audited kernel crates: the only ones that may leave the
/// workspace's `unsafe_code = "forbid"` out of their `[lints]` table.
const KERNEL_CRATES: &[&str] = &[
    "crates/simd/",
    "crates/stackvec/",
    "crates/mmap/",
    "crates/perf/",
];

/// What a kernel crate's own `[lints]` table denies instead.
const KERNEL_LINTS: &[&str] = &[
    "unsafe_op_in_unsafe_fn",
    "undocumented_unsafe_blocks",
    "missing_safety_doc",
];

/// The contained tier, which every root of a production crate denies in
/// `#![deny(clippy::…)]` attributes (the exterior tier adds
/// `indexing_slicing`).
const TIER_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "allow_attributes_without_reason",
];

/// Manifest and crate-root policy. A kernel crate denies
/// [`KERNEL_LINTS`]; every other crate inherits the workspace `[lints]`
/// table, which forbids `unsafe_code`. A crate not marked
/// `publish = false` is production: each of its crate roots declares a
/// panic-surface tier, so that a new crate cannot land untiered.
pub(crate) fn lint_config(files: &[SourceFile], manifests: &[(String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flag = |file: &str, message: String| {
        out.push(Finding {
            pass: "consistency",
            lint: "lint-config",
            file: file.to_owned(),
            line: 1,
            message,
        });
    };
    for (path, content) in manifests {
        if !content.contains("[package]") {
            continue; // a virtual manifest
        }
        let dir = path.trim_end_matches("Cargo.toml");
        if KERNEL_CRATES.contains(&dir) {
            for lint in KERNEL_LINTS {
                if !content.contains(&format!("{lint} = \"deny\"")) {
                    flag(
                        path,
                        format!("kernel crate must set `{lint} = \"deny\"` in its [lints] table"),
                    );
                }
            }
        } else if !has_workspace_lints(content) {
            flag(
                path,
                "crate must inherit workspace lints: add `[lints]` with `workspace = true`"
                    .to_owned(),
            );
        }
        if content
            .lines()
            .any(|l| l.replace(' ', "") == "publish=false")
        {
            continue;
        }
        for root in ["src/lib.rs", "src/main.rs"] {
            let root = format!("{dir}{root}");
            let Some(file) = files.iter().find(|f| f.path == root) else {
                continue;
            };
            let denied = crate_denies(file);
            let missing: Vec<&str> = TIER_LINTS
                .iter()
                .copied()
                .filter(|lint| !denied.contains(lint))
                .collect();
            if !missing.is_empty() {
                flag(
                    &root,
                    format!(
                        "production crate root declares no panic-surface tier (DESIGN.md §14.2): its `#![deny(clippy::…)]` lacks {}",
                        missing.join(", ")
                    ),
                );
            }
        }
    }
    out
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

/// The lints a crate root's `#![deny(…)]` attributes name, without their
/// `clippy::` prefix.
fn crate_denies(file: &SourceFile) -> Vec<&str> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let next = |k: usize| toks.get(i + k);
        if t.is_punct('#')
            && next(1).is_some_and(|t| t.is_punct('!'))
            && next(2).is_some_and(|t| t.is_punct('['))
            && next(3).is_some_and(|t| t.is_ident("deny"))
        {
            out.extend(
                toks[i + 4..]
                    .iter()
                    .take_while(|t| !t.is_punct(']'))
                    .filter(|t| t.kind == TokKind::Ident && t.text != "clippy")
                    .map(|t| t.text.as_str()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI_SRC: &str = "impl CliErrorKind {\n    pub fn exit_code(self) -> u8 {\n        match self {\n            CliErrorKind::Failure => 1,\n            CliErrorKind::Query => 3,\n        }\n    }\n}\nfn doc_error_kind(kind: DocErrorKind) -> CliErrorKind {\n    match kind {\n        DocErrorKind::Io => CliErrorKind::Io,\n    }\n}\n";
    const BATCH_SRC: &str = "impl DocErrorKind {\n    pub fn code(self) -> &'static str {\n        match self {\n            DocErrorKind::Io => \"io\",\n            DocErrorKind::Timeout => \"timeout\",\n        }\n    }\n}\n";

    fn sources() -> Vec<SourceFile> {
        vec![
            SourceFile::new("crates/cli/src/lib.rs", CLI_SRC),
            SourceFile::new("crates/batch/src/lib.rs", BATCH_SRC),
        ]
    }

    fn docs(design: &str, readme: &str) -> Vec<(String, String)> {
        vec![
            ("DESIGN.md".to_owned(), design.to_owned()),
            ("README.md".to_owned(), readme.to_owned()),
        ]
    }

    const GOOD_DESIGN: &str = "# Design\n<!-- exit-code-table:begin -->\n| code | class | kind |\n|---|---|---|\n| 0 | success | — |\n| 1 | failure | `Failure` |\n| 3 | bad query | `Query` |\n<!-- exit-code-table:end -->\n<!-- doc-error-codes:begin -->\n| `io` | read failed |\n| `timeout` | deadline passed |\n<!-- doc-error-codes:end -->\n";
    const GOOD_README: &str = "Exit codes: `0` ok, `1` failure, `3` bad query.\n";

    #[test]
    fn consistent_docs_produce_no_findings() {
        let findings = check(&sources(), &docs(GOOD_DESIGN, GOOD_README), &[]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn exit_code_arms_are_recovered_exactly() {
        let codes = source_exit_codes(&sources());
        assert_eq!(codes.len(), 2);
        assert_eq!(codes["Failure"], 1);
        assert_eq!(codes["Query"], 3);
    }

    #[test]
    fn doc_codes_are_recovered_and_mapping_arms_ignored() {
        assert_eq!(source_doc_codes(&sources()), ["io", "timeout"]);
    }

    #[test]
    fn missing_table_row_is_flagged() {
        let design = GOOD_DESIGN.replace("| 3 | bad query | `Query` |\n", "");
        let findings = check(&sources(), &docs(&design, GOOD_README), &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "exit-code-mismatch");
        assert!(findings[0].message.contains("Query"));
    }

    #[test]
    fn stale_table_row_is_flagged() {
        let design =
            GOOD_DESIGN.replace("| 3 | bad query | `Query` |", "| 9 | bad query | `Query` |");
        let findings = check(&sources(), &docs(&design, GOOD_README), &[]);
        assert!(findings
            .iter()
            .any(|f| f.lint == "exit-code-mismatch" && f.message.contains("exit 9")));
    }

    #[test]
    fn missing_anchors_are_flagged() {
        let findings = check(&sources(), &docs("# Design\n", GOOD_README), &[]);
        let lints: Vec<&str> = findings.iter().map(|f| f.lint).collect();
        assert_eq!(lints, ["doc-anchor", "doc-anchor"]);
    }

    #[test]
    fn undocumented_readme_exit_code_is_flagged() {
        let findings = check(&sources(), &docs(GOOD_DESIGN, "No codes here.\n"), &[]);
        assert!(findings.iter().all(|f| f.lint == "readme-exit-codes"));
        assert_eq!(findings.len(), 3, "{findings:?}"); // 0, 1, 3
    }

    #[test]
    fn fault_code_divergence_is_flagged_both_ways() {
        let design = GOOD_DESIGN.replace(
            "| `timeout` | deadline passed |",
            "| `deadline` | deadline passed |",
        );
        let findings = check(&sources(), &docs(&design, GOOD_README), &[]);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`timeout`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`deadline`")), "{msgs:?}");
    }

    #[test]
    fn metric_names_match_families_on_underscore_boundaries() {
        let samples = ["rsq_docs_total", "rsq_window_doc_rate"];
        assert!(metric_matches("rsq_docs_total", &samples));
        assert!(metric_matches("rsq_window", &samples));
        assert!(!metric_matches("rsq_doc", &samples));
        assert!(!metric_matches("rsq_gone", &samples));
    }

    #[test]
    fn crate_paths_in_doc_examples_are_not_metric_names() {
        let names = doc_metric_names("# Ok::<(), rsq_engine::EngineError>(())\n");
        assert!(names.is_empty(), "{names:?}");
        let names = doc_metric_names("the `rsq_docs_total` counter\n");
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn unknown_metric_name_in_docs_is_flagged() {
        let design = format!("{GOOD_DESIGN}\nThe `rsq_bogus_series` gauge.\n");
        let readme = format!(
            "{GOOD_README}<!-- metric-reference:begin -->\n| `rsq_docs_total` |\n<!-- metric-reference:end -->\n"
        );
        let findings = check(&sources(), &docs(&design, &readme), &["rsq_docs_total"]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "unknown-metric-name");
        assert!(findings[0].message.contains("rsq_bogus_series"));
    }

    #[test]
    fn lint_config_checks_manifests() {
        let manifests = [
            ("crates/engine/Cargo.toml", "[package]\nname = \"rsq-engine\"\n"),
            (
                "crates/json/Cargo.toml",
                "[package]\nname = \"rsq-json\"\n\n[lints]\nworkspace = true\n",
            ),
            ("crates/simd/Cargo.toml", "[package]\nname = \"rsq-simd\"\n"),
            (
                "crates/stackvec/Cargo.toml",
                "[package]\n\n[lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n\n[lints.clippy]\nundocumented_unsafe_blocks = \"deny\"\nmissing_safety_doc = \"deny\"\n",
            ),
        ]
        .map(|(p, c)| (p.to_owned(), c.to_owned()));
        let findings = lint_config(&[], &manifests);
        let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
        // The engine does not inherit the forbid; simd lacks all three
        // kernel lints.
        assert_eq!(
            files,
            [
                "crates/engine/Cargo.toml",
                "crates/simd/Cargo.toml",
                "crates/simd/Cargo.toml",
                "crates/simd/Cargo.toml"
            ]
        );
        assert!(findings.iter().all(|f| f.lint == "lint-config"));
    }

    #[test]
    fn production_crate_root_without_a_tier_is_flagged() {
        let manifests = [
            (
                "crates/new/Cargo.toml",
                "[package]\n\n[lints]\nworkspace = true\n",
            ),
            (
                "crates/tool/Cargo.toml",
                "[package]\npublish = false\n\n[lints]\nworkspace = true\n",
            ),
        ]
        .map(|(p, c)| (p.to_owned(), c.to_owned()));
        let contained = "//! Docs.\n#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]\n#![deny(clippy::todo, clippy::unimplemented, clippy::allow_attributes_without_reason)]\n";
        let untiered = "#![deny(clippy::unwrap_used)]\npub fn f() {}\n";
        let files = [
            SourceFile::new("crates/new/src/lib.rs", contained),
            SourceFile::new("crates/new/src/main.rs", untiered),
            SourceFile::new("crates/tool/src/lib.rs", untiered),
        ];
        let findings = lint_config(&files, &manifests);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/new/src/main.rs");
        assert!(findings[0].message.contains("expect_used"));
        assert!(!findings[0].message.contains("unwrap_used"));
    }

    #[test]
    fn series_without_a_reference_row_is_flagged() {
        let series = ["rsq_docs_total", "rsq_new_total"];
        let readme = format!(
            "{GOOD_README}`rsq_new_total` in prose does not count.\n<!-- metric-reference:begin -->\n| `rsq_docs_total` |\n<!-- metric-reference:end -->\n"
        );
        let findings = check(&sources(), &docs(GOOD_DESIGN, &readme), &series);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "undocumented-series");
        assert!(findings[0].message.contains("rsq_new_total"));
    }
}
