//! `scripts/ci.sh` names nothing that is gone: every `--test NAME`,
//! `-p`/`--package` crate, `--bin` target and `experiments` subcommand it
//! names exists in the workspace, every `crates/…` path exists, and every
//! directory under the lanes' scratch directory (`$SERVE_TMP`) is written
//! by an earlier line (`dump-corpus` or `mkdir -p`) before a line reads
//! from it. A lane that names a deleted target or an unwritten corpus
//! fails in tier-1, not halfway through a CI run.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace's package directories: the root and every crate.
fn packages() -> Vec<PathBuf> {
    let mut dirs = vec![root()];
    for parent in ["crates", "crates/shims"] {
        for entry in fs::read_dir(root().join(parent)).unwrap() {
            let dir = entry.unwrap().path();
            if dir.join("Cargo.toml").exists() {
                dirs.push(dir);
            }
        }
    }
    dirs
}

/// Every `name = "…"` under a `[package]`, `[[bin]]` or `[[test]]`
/// header of the workspace's manifests, by header; plus the test and
/// binary targets cargo finds by file name.
fn targets() -> BTreeMap<&'static str, BTreeSet<String>> {
    let mut targets: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for dir in packages() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut section = "";
        for line in manifest.lines() {
            if line.starts_with('[') {
                section = match line {
                    "[package]" => "package",
                    "[[bin]]" => "bin",
                    "[[test]]" => "test",
                    _ => "",
                };
            } else if let Some(name) = line.strip_prefix("name = \"") {
                if !section.is_empty() {
                    let name = name.trim_end_matches('"').to_owned();
                    targets.entry(section).or_default().insert(name);
                }
            }
        }
        for (kind, sub) in [("test", "tests"), ("bin", "src/bin")] {
            let Ok(entries) = fs::read_dir(dir.join(sub)) else {
                continue;
            };
            for entry in entries {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "rs") {
                    let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
                    targets.entry(kind).or_default().insert(stem);
                }
            }
        }
    }
    targets
}

/// The words of `line` after each occurrence of `flag`.
fn after<'a>(line: &'a str, flag: &str) -> Vec<&'a str> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .filter(|pair| pair[0] == flag)
        .map(|pair| pair[1].trim_matches('"'))
        .collect()
}

/// Whether `path` (relative to the root, `*` matching any one component)
/// names something that exists.
fn exists(path: &str) -> bool {
    let mut found = vec![root()];
    for component in path.split('/').filter(|c| !c.is_empty()) {
        found = found
            .into_iter()
            .flat_map(|dir| {
                if component == "*" {
                    fs::read_dir(&dir)
                        .map(|entries| entries.map(|e| e.unwrap().path()).collect())
                        .unwrap_or_default()
                } else {
                    vec![dir.join(component)]
                }
            })
            .filter(|p| p.exists())
            .collect();
    }
    !found.is_empty()
}

/// Every `crates/…` path of `line` that does not stop at a shell variable.
fn crate_paths(line: &str) -> Vec<&str> {
    let mut paths = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("crates/") {
        let tail = &rest[at..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_./*-".contains(c)))
            .unwrap_or(tail.len());
        let path = tail[..end].trim_end_matches('.');
        if !tail[end..].starts_with('$') && path.len() > "crates/".len() {
            paths.push(path);
        }
        rest = &tail[end..];
    }
    paths
}

/// The directory names under `$SERVE_TMP` that `text` refers to, each
/// with every value of the loop variable it holds (`corpus-$mb`).
fn scratch_dirs(text: &str, loops: &BTreeMap<String, Vec<String>>, dirs_only: bool) -> Vec<String> {
    let mut names = Vec::new();
    for piece in text.split("$SERVE_TMP/").skip(1) {
        let end = piece
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_-$".contains(c)))
            .unwrap_or(piece.len());
        if dirs_only && !piece[end..].starts_with('/') {
            continue;
        }
        let name = &piece[..end];
        match name.split_once('$') {
            Some((stem, var)) => {
                for value in loops.get(var).into_iter().flatten() {
                    names.push(format!("{stem}{value}"));
                }
            }
            None => names.push(name.to_owned()),
        }
    }
    names
}

#[test]
fn every_name_in_ci_sh_exists_or_is_written_first() {
    let script = fs::read_to_string(root().join("scripts/ci.sh")).unwrap();
    let experiments =
        fs::read_to_string(root().join("crates/bench/src/bin/experiments.rs")).unwrap();
    let targets = targets();
    let known = |kind: &str, name: &str| targets.get(kind).is_some_and(|s| s.contains(name));
    let mut missing = Vec::new();
    let mut loops: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut assigned: BTreeMap<String, String> = BTreeMap::new();
    let mut written: BTreeSet<String> = BTreeSet::new();
    // A command continued over `\` lines is read as one line, numbered
    // by its first.
    let mut commands: Vec<(usize, String)> = Vec::new();
    let mut continued = false;
    for (n, line) in script.lines().enumerate() {
        let text = line.trim_end_matches('\\');
        match commands.last_mut() {
            Some((_, command)) if continued => command.push_str(text),
            _ => commands.push((n + 1, text.to_owned())),
        }
        continued = text.len() < line.len();
    }
    for (n, line) in &commands {
        let line = line.as_str();
        let at = |what: String| format!("ci.sh line {n}: {what}");
        for name in after(line, "--test") {
            if !known("test", name) {
                missing.push(at(format!("--test {name}")));
            }
        }
        for flag in ["-p", "--package"] {
            for name in after(line, flag).into_iter().filter(|n| !n.contains('$')) {
                if !known("package", name) {
                    missing.push(at(format!("{flag} {name}")));
                }
            }
        }
        for name in after(line, "--bin") {
            if !known("bin", name) {
                missing.push(at(format!("--bin {name}")));
            }
        }
        if line.contains("--bin experiments") {
            let subcommand = line
                .split(" -- ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next());
            match subcommand {
                Some(word) if experiments.contains(&format!("\"{word}\"")) => {}
                other => missing.push(at(format!("experiments subcommand {other:?}"))),
            }
        }
        for path in crate_paths(line) {
            if !exists(path) {
                missing.push(at(path.to_owned()));
            }
        }
        if let Some(rest) = line.trim_start().strip_prefix("for ") {
            if let Some((var, values)) = rest.split_once(" in ") {
                let values = values.split(';').next().unwrap_or("");
                loops.insert(
                    var.to_owned(),
                    values.split_whitespace().map(str::to_owned).collect(),
                );
            }
        }
        let mut line = line.to_owned();
        if let Some((var, value)) = line.trim().split_once('=') {
            if value.starts_with("\"$SERVE_TMP/") && !var.contains(' ') {
                assigned.insert(format!("\"${var}\""), value.to_owned());
            }
        }
        for (var, value) in &assigned {
            line = line.replace(var, value);
        }
        if line.contains("dump-corpus ") || line.contains("mkdir -p ") {
            written.extend(scratch_dirs(&line, &loops, false));
        } else {
            for dir in scratch_dirs(&line, &loops, true) {
                if !written.contains(&dir) {
                    missing.push(at(format!("$SERVE_TMP/{dir}/ before any line writes it")));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "ci.sh names what does not exist:\n{}",
        missing.join("\n")
    );
    assert!(
        written.contains("corpus-2"),
        "the corpus is written: {written:?}"
    );
}
