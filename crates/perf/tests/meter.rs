//! The meter over children whose work is known: a loop of N iterations,
//! a `HashMap` of N entries, one `rep stosb` of N bytes, and a thread
//! spawn.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use rsq_perf::{step, MeterError, Steps};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// `tests/fixtures/child.rs`, compiled once per test binary.
fn child() -> &'static PathBuf {
    static CHILD: OnceLock<PathBuf> = OnceLock::new();
    CHILD.get_or_init(|| {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("meter-child");
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
        let status = Command::new(rustc)
            .args([
                "-O",
                "--edition",
                "2021",
                "-C",
                "target-feature=+crt-static",
                "-o",
            ])
            .arg(&out)
            .arg(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/child.rs"
            ))
            .status()
            .expect("rustc runs");
        assert!(status.success(), "the child compiles");
        out
    })
}

fn run(args: &[&str]) -> Result<Steps, MeterError> {
    step(
        Command::new(child())
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
        false,
    )
}

#[test]
fn two_runs_of_one_command_agree() {
    // A `HashMap`'s probes depend on its random seeds, which the meter
    // fixes.
    let a = run(&["hash", "1000"]).unwrap();
    let b = run(&["hash", "1000"]).unwrap();
    assert_eq!(
        (a.instructions, a.string_iterations),
        (b.instructions, b.string_iterations)
    );
}

#[test]
fn more_iterations_read_more() {
    let few = run(&["loop", "1000"]).unwrap().instructions;
    let more = run(&["loop", "3000"]).unwrap().instructions;
    // Each iteration is a handful of instructions.
    assert!(more >= few + 2000, "{few} then {more}");
}

#[test]
fn a_rep_stosb_lands_in_the_string_row() {
    let small = run(&["stosb", "16"]).unwrap();
    let large = run(&["stosb", "100000"]).unwrap();
    // The extra bytes are iterations; `vec![1; n]` writes its ones by
    // whatever `memset` picks (a `rep stosb` too, above a threshold).
    assert!(
        large.string_iterations >= small.string_iterations + 99_984,
        "{small:?} then {large:?}"
    );
    assert!(
        large.instructions < small.instructions + 20_000,
        "{} then {} instructions",
        small.instructions,
        large.instructions
    );
}

#[test]
fn a_child_that_spawns_a_thread_is_refused() {
    assert!(matches!(run(&["thread"]), Err(MeterError::Cloned)));
}

#[test]
fn a_failing_child_is_an_error() {
    assert!(matches!(run(&["unknown"]), Err(MeterError::Exit(101))));
}
