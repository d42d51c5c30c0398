//! The `cargo xtask analyze` multi-pass static-analysis driver
//! (DESIGN.md §14).
//!
//! One walk of the workspace tree feeds three passes over a shared lexed
//! view of every source file. They hold the repo's own contracts; what
//! rustc and clippy can check (the unsafe audit, the panic surface) is
//! left to their lints (DESIGN.md §14.1).
//!
//! | pass          | what it enforces                                        |
//! |---------------|---------------------------------------------------------|
//! | `locks`       | acyclic lock order, no blocking calls under a lock      |
//! | `atomics`     | the `Ordering::` policy table                            |
//! | `consistency` | exit codes / fault codes / metric names match the docs; |
//! |               | the `[lints]` tables and panic-surface tiers             |
//!
//! The workspace baseline is **zero findings**: ci.sh runs the driver
//! as a hard gate, so a lock taken in a new order or a renamed metric
//! fails CI until the code is fixed or the site carries an annotation
//! with a real reason (`ORDERING:` / `LOCK-OK:`).
//!
//! `render_json` emits the machine-readable report
//! (`schema_version` 1): `{"schema_version":1,"passes":[…],
//! "files_scanned":N,"findings":[{"pass":…,"lint":…,"file":…,
//! "line":…,"message":…}]}`.

pub(crate) mod atomics;
pub(crate) mod consistency;
pub(crate) mod lock_order;
pub(crate) mod source;

use source::SourceFile;
use std::fmt;
use std::path::Path;

/// Every pass the driver knows, in execution order.
pub(crate) const ALL_PASSES: &[&str] = &["locks", "atomics", "consistency"];

/// One analyzer finding.
#[derive(Clone, Debug)]
pub(crate) struct Finding {
    /// The pass that produced it (`locks`, `atomics`, …).
    pub pass: &'static str,
    /// Lint name within the pass (`lock-cycle`, `bare-seqcst`, …).
    pub lint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding has no single line).
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

// Rendered rustc-style, so editors and CI logs link straight to the
// site.
impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}::{}]: {}\n  --> {}:{}",
            self.pass, self.lint, self.message, self.file, self.line
        )
    }
}

/// The result of one driver run.
pub(crate) struct Report {
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The passes that ran.
    pub passes: Vec<&'static str>,
}

/// Runs the requested passes over in-memory files. `files` holds
/// workspace-relative paths mapped to contents: `.rs` sources, and the
/// `Cargo.toml` manifests and `DESIGN.md`/`README.md` the consistency
/// pass reads. Pure, so tests can feed synthetic workspaces.
pub(crate) fn analyze_sources(files: &[(String, String)], passes: &[&'static str]) -> Report {
    let manifests: Vec<(String, String)> = files
        .iter()
        .filter(|(p, _)| p.ends_with("Cargo.toml"))
        .cloned()
        .collect();
    let docs: Vec<(String, String)> = files
        .iter()
        .filter(|(p, _)| p.ends_with(".md"))
        .cloned()
        .collect();
    let sources: Vec<SourceFile> = files
        .iter()
        .filter(|(p, _)| p.ends_with(".rs"))
        .map(|(p, c)| SourceFile::new(p, c))
        .collect();

    let mut findings = Vec::new();
    for &pass in passes {
        match pass {
            "locks" => findings.extend(lock_order::check(&sources)),
            "atomics" => findings.extend(atomics::check(&sources)),
            "consistency" => {
                findings.extend(consistency::check(&sources, &docs, &series_names()));
                findings.extend(consistency::lint_config(&sources, &manifests));
            }
            other => unreachable!("unknown pass `{other}` got past the CLI"),
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.pass, a.lint).cmp(&(&b.file, b.line, b.pass, b.lint)));
    Report {
        findings,
        files_scanned: sources.len(),
        passes: passes.to_vec(),
    }
}

/// Runs the requested passes over a workspace root on disk.
///
/// # Errors
///
/// Returns an error when the workspace tree cannot be read.
pub(crate) fn analyze_workspace(root: &Path, passes: &[&'static str]) -> std::io::Result<Report> {
    let files = source::walk_workspace(root)?;
    Ok(analyze_sources(&files, passes))
}

/// Every series name in the registry — the ground truth for the
/// consistency pass's metric-name checks.
fn series_names() -> Vec<&'static str> {
    let names: std::collections::BTreeSet<&str> = rsq_obs::series::catalog()
        .into_iter()
        .filter_map(|entry| entry.series.map(|series| series.name))
        .collect();
    names.into_iter().collect()
}

/// Renders the machine-readable report.
pub(crate) fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"schema_version\":1,\"passes\":[");
    for (i, p) in report.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(p);
        out.push('"');
    }
    out.push_str("],\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"pass\":\"{}\",\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.pass),
            json_escape(f.lint),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping (the report has no exotic content, but
/// messages quote source constructs).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_minimal_json() {
        let report = Report {
            findings: vec![Finding {
                pass: "locks",
                lint: "lock-held-across-blocking",
                file: "crates/serve/src/pool.rs".to_owned(),
                line: 12,
                message: "`write_all` says \"boom\"".to_owned(),
            }],
            files_scanned: 3,
            passes: vec!["locks"],
        };
        let json = render_json(&report);
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"files_scanned\":3"));
        assert!(json.contains("\\\"boom\\\""));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn driver_runs_selected_passes_only() {
        let files = vec![(
            "crates/serve/src/x.rs".to_owned(),
            "fn f() { FLAG.store(true, Ordering::SeqCst); }\n".to_owned(),
        )];
        let report = analyze_sources(&files, &["atomics"]);
        assert_eq!(report.passes, ["atomics"]);
        assert_eq!(report.findings.len(), 1);
        let report = analyze_sources(&files, &["locks", "consistency"]);
        assert!(report.findings.is_empty(), "atomics pass did not run");
    }

    #[test]
    fn findings_render_rustc_style() {
        let f = Finding {
            pass: "locks",
            lint: "lock-cycle",
            file: "crates/serve/src/pool.rs".to_owned(),
            line: 7,
            message: "example".to_owned(),
        };
        let text = f.to_string();
        assert!(text.contains("error[locks::lock-cycle]"));
        assert!(text.contains("crates/serve/src/pool.rs:7"));
    }

    #[test]
    fn series_names_are_rsq_series() {
        let names = series_names();
        assert!(
            names.contains(&"rsq_matches_total") && names.contains(&"rsq_serve_documents_total")
        );
        assert!(names.iter().all(|s| s.starts_with("rsq_")), "{names:?}");
    }

    /// Loads a seeded-violation fixture under a serve-crate pseudo path
    /// (the walker skips the fixture directory itself, so the seeds never
    /// pollute the workspace baseline).
    fn fixture(name: &str) -> (String, String) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures/analyze")
            .join(name);
        let content = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        (format!("crates/serve/src/{name}"), content)
    }

    #[test]
    fn seeded_lock_cycle_is_detected() {
        let report = analyze_sources(&[fixture("lock_cycle.rs")], &["locks"]);
        let cycles: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.lint == "lock-cycle")
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", report.findings);
        assert!(cycles[0].message.contains('a') && cycles[0].message.contains('b'));
    }

    #[test]
    fn seeded_clean_hierarchy_is_silent() {
        let report = analyze_sources(&[fixture("lock_clean.rs")], &["locks"]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn seeded_blocking_write_under_lock_is_detected() {
        let report = analyze_sources(&[fixture("held_across_io.rs")], &["locks"]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let f = &report.findings[0];
        assert_eq!(f.lint, "lock-held-across-blocking");
        assert_eq!(f.line, 13);
        assert!(f.message.contains("write_all"), "{}", f.message);
        // The `// LOCK-OK:` flush on line 20 must have been suppressed.
        assert!(report.findings.iter().all(|f| f.line != 20));
    }

    #[test]
    fn seeded_bad_orderings_are_detected() {
        let report = analyze_sources(&[fixture("bad_ordering.rs")], &["atomics"]);
        let lints: Vec<(&str, u32)> = report.findings.iter().map(|f| (f.lint, f.line)).collect();
        assert_eq!(
            lints,
            [("bare-seqcst", 9), ("relaxed-flag", 18)],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn fixture_seeds_stay_out_of_the_workspace_walk() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("xtask sits two levels under the workspace root");
        let files = source::walk_workspace(root).expect("workspace readable");
        assert!(
            files.iter().all(|(p, _)| !p.contains("fixtures/")),
            "walker must skip fixture seeds"
        );
    }
}
