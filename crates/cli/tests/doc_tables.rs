//! The docs' contract tables, held to the source: scripts and dashboards
//! match on exit codes, fault codes and series names, so a doc that
//! drifts from the code fails here. DESIGN.md's exit-code table must be
//! `CliErrorKind::exit_code`, the README must document every exit code,
//! §12's fault-code table must be `DocErrorKind::code`, and every `rsq_*`
//! name in either doc must be (a prefix of) a registered series. Each
//! table sits between `<!-- NAME:begin -->` and `<!-- NAME:end -->`, so
//! prose elsewhere may mention codes freely.

use rsq_batch::DocErrorKind;
use rsq_cli::CliErrorKind;
use std::collections::BTreeSet;

const DESIGN: &str = include_str!("../../../DESIGN.md");
const README: &str = include_str!("../../../README.md");

/// The text between `anchor`'s begin and end comments.
fn anchored<'a>(doc: &'a str, anchor: &str) -> &'a str {
    let begin = format!("<!-- {anchor}:begin -->");
    let end = format!("<!-- {anchor}:end -->");
    let (_, rest) = doc.split_once(&begin).expect("the begin anchor");
    rest.split_once(&end).expect("the end anchor").0
}

/// The trimmed cells of each table row in `region`.
fn rows(region: &str) -> impl Iterator<Item = Vec<&str>> {
    region
        .lines()
        .filter_map(|line| line.trim().strip_prefix('|'))
        .map(|row| {
            row.trim_end_matches('|')
                .split('|')
                .map(str::trim)
                .collect()
        })
}

/// `(code, kind)` for each row of DESIGN.md's exit-code table; `—` for a
/// code no `CliErrorKind` exits with.
fn exit_code_table() -> BTreeSet<(u8, String)> {
    rows(anchored(DESIGN, "exit-code-table"))
        .filter_map(|cells| {
            let code = cells.first()?.parse().ok()?;
            Some((code, cells.get(2)?.trim_matches('`').to_owned()))
        })
        .collect()
}

#[test]
fn the_exit_code_table_is_what_the_cli_exits_with() {
    let mut source: BTreeSet<(u8, String)> = CliErrorKind::ALL
        .iter()
        .map(|kind| (kind.exit_code(), format!("{kind:?}")))
        .collect();
    // Success returns before a `CliError` exists, and argument parsing
    // raises usage errors.
    source.extend([(0, "—".to_owned()), (2, "—".to_owned())]);
    assert_eq!(exit_code_table(), source);
}

#[test]
fn every_exit_code_names_one_kind() {
    let codes: BTreeSet<u8> = CliErrorKind::ALL.iter().map(|k| k.exit_code()).collect();
    assert_eq!(codes.len(), CliErrorKind::ALL.len());
    assert!(!codes.contains(&0) && !codes.contains(&2), "{codes:?}");
}

#[test]
fn the_readme_documents_every_exit_code() {
    for (code, _) in exit_code_table() {
        assert!(
            README.contains(&format!("exit `{code}`")),
            "README.md does not document exit `{code}`"
        );
    }
}

#[test]
fn the_fault_code_table_is_what_documents_fail_with() {
    let table: BTreeSet<&str> = rows(anchored(DESIGN, "doc-error-codes"))
        .filter_map(|cells| {
            let code = cells.get(2)?.strip_prefix('`')?.strip_suffix('`')?;
            code.bytes()
                .all(|b| b.is_ascii_lowercase() || b == b':' || b == b'-')
                .then_some(code)
        })
        .collect();
    let source: BTreeSet<&str> = DocErrorKind::ALL.iter().map(|kind| kind.code()).collect();
    assert_eq!(table, source);
}

#[test]
fn every_fault_code_names_one_kind() {
    let codes: BTreeSet<&str> = DocErrorKind::ALL.iter().map(|kind| kind.code()).collect();
    assert_eq!(codes.len(), DocErrorKind::ALL.len());
}

/// Every `rsq_*` name in `doc`, without a trailing `_` (a family such as
/// `rsq_window_*`); a crate path such as `rsq_obs::series` is no name.
fn metric_names(doc: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut rest = doc;
    while let Some(at) = rest.find("rsq_") {
        let tail = &rest[at..];
        let len = tail
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        let name = tail[..len].trim_end_matches('_');
        if name.len() > "rsq".len() && !tail[len..].starts_with("::") {
            names.insert(name);
        }
        rest = &tail[len..];
    }
    names
}

/// Whether `name` is one of `series`, or a family: a prefix ending at `_`.
fn registered(series: &[&str], name: &str) -> bool {
    series.iter().any(|s| {
        s.strip_prefix(name)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

#[test]
fn a_crate_path_is_no_series_name() {
    let names = metric_names("use rsq_obs::series; `rsq_docs_total`, rsq_window_*.");
    assert_eq!(names, BTreeSet::from(["rsq_docs_total", "rsq_window"]));
}

#[test]
fn a_family_matches_only_on_an_underscore_boundary() {
    let series = ["rsq_batch_docs_total"];
    assert!(registered(&series, "rsq_batch_docs_total"));
    assert!(registered(&series, "rsq_batch"));
    assert!(!registered(&series, "rsq_bat"));
    assert!(!registered(&series, "rsq_batch_docs_total_x"));
}

#[test]
fn every_series_the_docs_name_is_registered() {
    let series: Vec<&str> = rsq_obs::series::catalog()
        .into_iter()
        .filter_map(|entry| Some(entry.series?.name))
        .collect();
    for (doc, text) in [("DESIGN.md", DESIGN), ("README.md", README)] {
        let unknown: Vec<&str> = metric_names(text)
            .into_iter()
            .filter(|name| !registered(&series, name))
            .collect();
        assert!(
            unknown.is_empty(),
            "{doc} names series the registry lacks: {unknown:?}"
        );
    }
}
