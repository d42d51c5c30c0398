//! Workspace automation (`cargo xtask …`).
//!
//! * `cargo xtask audit` — soundness lints over every workspace source
//!   file and manifest; exits non-zero on findings (see `audit.rs`).
//! * `cargo xtask fuzz-smoke` — the bounded differential-fuzz driver:
//!   runs the `fuzz/corpus/` seeds plus a time-boxed randomized phase
//!   through `rsq-difftest` without needing nightly or cargo-fuzz.
//! * `cargo xtask bench-diff OLD NEW` — the performance regression gate:
//!   compares two `experiments --json` reports and fails on throughput
//!   drops, skip-count drops, skipped-byte drops, classified-block
//!   increases, latency-p99 rises, or hardware-counter cycles-per-byte
//!   rises beyond a threshold (latency and cycles-per-byte each have
//!   their own).
//!
//! Exit codes: `0` success, `1` findings/mismatches/regressions, `2`
//! usage or environment error.

mod analyze;
mod audit;
mod bench_diff;
mod fuzz_smoke;
mod lexer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cargo xtask <command> [options]

commands:
  analyze     [--root PATH] [--json] [--pass NAME]...
              run the multi-pass workspace analyzer (passes: audit,
              panic, locks, atomics, consistency; default all);
              exits non-zero on any finding
  audit       [--root PATH]
              run the unsafe-audit static-analysis pass over the workspace
              (alias for `analyze --pass audit` with the classic output)
  fuzz-smoke  [--max-seconds N] [--target NAME] [--seed N]
              run the differential fuzz corpus + a bounded random phase
              (targets: classifier_diff, quotes_diff, depth_diff,
              engine_diff, reader_diff, framer_diff, fast_path_diff)
  bench-diff  OLD.json NEW.json [--threshold PCT] [--latency-threshold PCT]
              [--fast-threshold PCT] [--cpb-threshold PCT]
              compare two `experiments --json` reports; fail on throughput,
              skip-count, or skipped-byte regressions beyond PCT percent
              (default 10), latency-p99 rises beyond the latency threshold
              (default 25), fast-path-routed rows dropping beyond the fast
              threshold (default 20), hardware-counter cycles-per-byte
              rises beyond the cpb threshold (default 20, only when both
              reports measured it), or rows falling off a fast route;
              reports must carry schema_version 4
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("fuzz-smoke") => cmd_fuzz_smoke(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value of `--flag VALUE` out of `args`; returns `Err` on a
/// flag with a missing value or an unknown flag.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let flag = &args[i];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown option `{flag}`"));
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("option `{flag}` needs a value"));
        };
        out.push((flag.clone(), value.clone()));
        i += 2;
    }
    Ok(out)
}

fn workspace_root() -> PathBuf {
    // xtask always runs from within the workspace (via the cargo alias);
    // the manifest dir is crates/xtask, two levels below the root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    // `--json` is a bare flag; peel it off before the flag/value parser.
    let json = args.iter().any(|a| a == "--json");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--json").cloned().collect();
    let flags = match parse_flags(&rest, &["--root", "--pass"]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("xtask analyze: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = flags
        .iter()
        .find(|(f, _)| f == "--root")
        .map_or_else(workspace_root, |(_, v)| PathBuf::from(v));
    let mut passes: Vec<&'static str> = Vec::new();
    for (flag, value) in &flags {
        if flag != "--pass" {
            continue;
        }
        match analyze::ALL_PASSES.iter().find(|p| *p == value) {
            Some(p) => {
                if !passes.contains(p) {
                    passes.push(p);
                }
            }
            None => {
                eprintln!(
                    "xtask analyze: unknown pass `{value}` (expected one of: {})",
                    analyze::ALL_PASSES.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    if passes.is_empty() {
        passes = analyze::ALL_PASSES.to_vec();
    }

    match analyze::analyze_workspace(&root, &passes) {
        Ok(report) => {
            if json {
                println!("{}", analyze::render_json(&report));
            } else {
                for f in &report.findings {
                    eprintln!("{f}\n");
                }
            }
            if report.findings.is_empty() {
                if !json {
                    println!(
                        "analyze: {} files scanned by {} pass(es), no findings",
                        report.files_scanned,
                        report.passes.len()
                    );
                }
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "analyze: {} finding(s) across {} scanned files",
                    report.findings.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "xtask analyze: cannot read workspace at {}: {e}",
                root.display()
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--root"]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("xtask audit: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = flags
        .iter()
        .find(|(f, _)| f == "--root")
        .map_or_else(workspace_root, |(_, v)| PathBuf::from(v));

    match audit::audit_workspace(&root) {
        Ok((diags, scanned)) => {
            for d in &diags {
                eprintln!("{d}\n");
            }
            if diags.is_empty() {
                println!("audit: {scanned} files scanned, no findings");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "audit: {} finding(s) across {scanned} scanned files",
                    diags.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "xtask audit: cannot read workspace at {}: {e}",
                root.display()
            );
            ExitCode::from(2)
        }
    }
}

fn cmd_fuzz_smoke(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--max-seconds", "--target", "--seed"]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("xtask fuzz-smoke: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut opts = fuzz_smoke::Options::default();
    for (flag, value) in &flags {
        match flag.as_str() {
            "--max-seconds" => match value.parse::<u64>() {
                Ok(n) if n > 0 => opts.max_seconds = n,
                _ => {
                    eprintln!("xtask fuzz-smoke: `--max-seconds` needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match parse_seed(value) {
                Some(n) => opts.seed = n,
                None => {
                    eprintln!("xtask fuzz-smoke: `--seed` needs an integer (decimal or 0x-hex)");
                    return ExitCode::from(2);
                }
            },
            "--target" => {
                let known = rsq_difftest::Target::ALL.map(|t| t.name());
                if !known.contains(&value.as_str()) {
                    eprintln!(
                        "xtask fuzz-smoke: unknown target `{value}` (expected one of: {})",
                        known.join(", ")
                    );
                    return ExitCode::from(2);
                }
                opts.target = Some(value.clone());
            }
            _ => unreachable!("parse_flags rejected unknown options"),
        }
    }

    let report = fuzz_smoke::run(&opts);
    println!(
        "fuzz-smoke: {} corpus + {} random cases (seed 0x{:016x})",
        report.corpus_cases, report.random_cases, opts.seed
    );
    if report.failures.is_empty() {
        println!("fuzz-smoke: all checks bit-identical across backends");
        ExitCode::SUCCESS
    } else {
        for m in &report.failures {
            eprintln!("fuzz-smoke FAILURE [{}]: {}", m.check, m.detail);
            eprintln!("  input ({} bytes): {:?}", m.input.len(), preview(&m.input));
        }
        ExitCode::FAILURE
    }
}

fn cmd_bench_diff(args: &[String]) -> ExitCode {
    // Two positionals (OLD NEW) followed by optional flag-value pairs.
    let positionals: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = positionals.as_slice() else {
        eprintln!("xtask bench-diff: expected OLD.json NEW.json\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(
        &args[2..],
        &[
            "--threshold",
            "--latency-threshold",
            "--fast-threshold",
            "--cpb-threshold",
        ],
    ) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("xtask bench-diff: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut threshold = 10.0f64;
    let mut latency_threshold = 25.0f64;
    let mut fast_threshold = 20.0f64;
    let mut cpb_threshold = 20.0f64;
    for (flag, value) in &flags {
        let slot = match flag.as_str() {
            "--threshold" => &mut threshold,
            "--latency-threshold" => &mut latency_threshold,
            "--fast-threshold" => &mut fast_threshold,
            "--cpb-threshold" => &mut cpb_threshold,
            _ => unreachable!("parse_flags rejected unknown options"),
        };
        match value.parse::<f64>() {
            Ok(pct) if pct >= 0.0 && pct.is_finite() => *slot = pct,
            _ => {
                eprintln!("xtask bench-diff: `{flag}` needs a non-negative percentage");
                return ExitCode::from(2);
            }
        }
    }

    let (old, new) = match (
        bench_diff::load_report(Path::new(old_path)),
        bench_diff::load_report(Path::new(new_path)),
    ) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let report = bench_diff::diff(
        &old,
        &new,
        threshold,
        latency_threshold,
        fast_threshold,
        cpb_threshold,
    );
    println!(
        "bench-diff: {} rows compared (threshold {threshold}%, latency {latency_threshold}%, \
         fast routes {fast_threshold}%, cycles/byte {cpb_threshold}%)",
        report.compared
    );
    for added in &report.added {
        println!("bench-diff: new row {added} (not in old report)");
    }
    if report.regressions.is_empty() {
        println!("bench-diff: no regressions");
        ExitCode::SUCCESS
    } else {
        for r in &report.regressions {
            eprintln!("bench-diff REGRESSION {r}");
        }
        eprintln!("bench-diff: {} regression(s)", report.regressions.len());
        ExitCode::FAILURE
    }
}

fn parse_seed(value: &str) -> Option<u64> {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        value.parse().ok()
    }
}

/// A short lossy preview of a failing input for the error report.
fn preview(input: &[u8]) -> String {
    let shown = &input[..input.len().min(128)];
    let mut s = String::from_utf8_lossy(shown).into_owned();
    if input.len() > 128 {
        s.push('…');
    }
    s
}
