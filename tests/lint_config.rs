//! The lint configuration is a contract (DESIGN.md §9, §14.2). Only the
//! kernel crates leave the workspace's `unsafe_code = "forbid"`, and each
//! denies the unsafe lints in its own `[lints]` table instead; every
//! other manifest inherits the workspace table; and every crate not
//! marked `publish = false` declares its panic-surface tier at each crate
//! root, so that a new crate cannot land unchecked.

use std::fs;
use std::path::{Path, PathBuf};

/// The audited kernel crates, under `crates/`.
const KERNEL_CRATES: [&str; 4] = ["simd", "stackvec", "mmap", "perf"];

/// What a kernel crate's own `[lints]` table denies.
const KERNEL_LINTS: [&str; 3] = [
    "unsafe_op_in_unsafe_fn",
    "undocumented_unsafe_blocks",
    "missing_safety_doc",
];

/// The contained tier, which every production crate root denies (the
/// exterior tier adds `indexing_slicing`).
const TIER_LINTS: [&str; 7] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "allow_attributes_without_reason",
];

/// Every package directory under `dir`, outside build output, hidden
/// directories, the fuzz workspace and its corpora.
fn packages(dir: &Path, found: &mut Vec<PathBuf>) {
    if dir.join("Cargo.toml").exists() {
        found.push(dir.to_path_buf());
    }
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir()
            && !name.starts_with('.')
            && !["target", "corpus", "fuzz"].contains(&&*name)
        {
            packages(&path, found);
        }
    }
}

/// Whether the manifest's `[lints]` table is `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest
        .split("\n[lints]\n")
        .nth(1)
        .and_then(|table| table.lines().find(|l| !l.is_empty() && !l.starts_with('#')))
        .is_some_and(|first| first.replace(' ', "") == "workspace=true")
}

/// The lints a crate root's `#![deny(…)]` attributes name, without
/// their `clippy::` prefix.
fn denied(root: &str) -> Vec<&str> {
    root.split("#![deny(")
        .skip(1)
        .flat_map(|attr| attr.split(")]").next().unwrap_or("").split(','))
        .map(|lint| lint.trim().trim_start_matches("clippy::"))
        .collect()
}

/// `(name, directory, manifest)` of every crate in the workspace.
fn crates() -> Vec<(String, PathBuf, String)> {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = Vec::new();
    packages(workspace, &mut dirs);
    dirs.into_iter()
        .map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let name = dir.strip_prefix(workspace).unwrap().display().to_string();
            (name, dir, manifest)
        })
        .filter(|(_, _, manifest)| manifest.contains("[package]"))
        .collect()
}

#[test]
fn every_crate_declares_its_lints() {
    let kernels = KERNEL_CRATES.map(|k| format!("crates/{k}"));
    let mut wrong = Vec::new();
    for (name, _, manifest) in crates() {
        if kernels.contains(&name) {
            for lint in KERNEL_LINTS {
                if !manifest.contains(&format!("{lint} = \"deny\"")) {
                    wrong.push(format!("{name}: a kernel crate denies {lint}"));
                }
            }
        } else if !inherits_workspace_lints(&manifest) {
            wrong.push(format!("{name}: no `[lints]` with `workspace = true`"));
        }
    }
    let names: Vec<String> = crates().into_iter().map(|(name, ..)| name).collect();
    for kernel in kernels.iter().filter(|k| !names.contains(k)) {
        wrong.push(format!("{kernel}: a kernel crate that is gone"));
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn every_production_crate_root_declares_its_tier() {
    let mut wrong = Vec::new();
    for (name, dir, manifest) in crates() {
        if manifest
            .lines()
            .any(|l| l.replace(' ', "") == "publish=false")
        {
            continue;
        }
        for root in ["src/lib.rs", "src/main.rs"] {
            let Ok(text) = fs::read_to_string(dir.join(root)) else {
                continue;
            };
            let denied = denied(&text);
            for lint in TIER_LINTS.iter().filter(|lint| !denied.contains(lint)) {
                wrong.push(format!("{name}/{root}: no tier, it does not deny {lint}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The manifests whose `slow-tests` feature picks a size or a timing that
/// needs a release build: the root (`tests/obs_overhead.rs` at 4 MB),
/// `rsq-cli` (`profile_overhead`) and `rsq-difftest` (the 10 000-round
/// sweep).
const SLOW_TESTS: [&str; 3] = ["", "crates/cli", "crates/difftest"];

/// Every correctness suite runs in tier-1 (ROADMAP item 22): no manifest
/// names the deleted `proptest` shim, only [`SLOW_TESTS`] declare
/// `slow-tests`, the one test target it gates whole is the wall-clock
/// `profile_overhead`, and no test file is compiled out without it.
#[test]
fn no_correctness_suite_hides_behind_a_feature() {
    let gate = format!("cfg(feature = {:?})", "slow-tests");
    let mut wrong = Vec::new();
    for (name, dir, manifest) in crates() {
        let at = if name.is_empty() { "the root" } else { &name };
        if manifest.contains("proptest") {
            wrong.push(format!("{at}: the manifest names proptest"));
        }
        let declares = manifest.lines().any(|l| l.starts_with("slow-tests"));
        if declares && !SLOW_TESTS.contains(&name.as_str()) {
            wrong.push(format!("{at}: declares slow-tests"));
        }
        for target in manifest.split("[[test]]").skip(1) {
            let target = target.split("\n[").next().unwrap_or("").trim();
            let timing = name == "crates/cli" && target.contains("name = \"profile_overhead\"");
            if target.contains("required-features") && !timing {
                wrong.push(format!("{at}: a test target needs a feature: {target}"));
            }
        }
        let Ok(tests) = fs::read_dir(dir.join("tests")) else {
            continue;
        };
        for path in tests.map(|entry| entry.unwrap().path()) {
            if fs::read_to_string(&path).is_ok_and(|text| text.contains(&gate)) {
                let file = path.file_name().unwrap().to_string_lossy();
                wrong.push(format!(
                    "{at}: tests/{file} is compiled out without slow-tests"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
