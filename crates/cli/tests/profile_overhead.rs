//! The other half of the profile gate (ROADMAP 8(d)): a profiled run reads
//! the clock at most twice per stage, so `--count --profile` must cost no
//! more than a tenth over `--count` on the same multi-MB document. Timed
//! as the best of several alternating runs of the binary, which is what
//! a user sees; run in release by ci.sh's profile-overhead lane.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rsq");

/// Wall time of one run, which must succeed.
fn wall(args: &[&str]) -> Duration {
    let started = Instant::now();
    let status = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("binary runs");
    let took = started.elapsed();
    assert!(status.success(), "{args:?}: {status}");
    took
}

#[test]
fn profiled_wall_is_within_a_tenth_of_plain() {
    let record = format!(
        r#"{{"a": {{"b": [1, 2, {{"c": 3}}]}}, "pad": "{}", "d": [{{"c": 4}}, "c"]}}"#,
        "x".repeat(90)
    );
    let doc = format!("[{}]", vec![record; 200_000].join(","));
    let path = std::env::temp_dir().join(format!("rsq-profile-overhead-{}", std::process::id()));
    std::fs::write(&path, &doc).expect("temp file written");
    let file = path.to_str().expect("a UTF-8 temp path");
    // Up to three attempts: a busy neighbour on a shared host can slow
    // one side of an attempt, a real overhead slows all three.
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (mut plain, mut profiled) = (Duration::MAX, Duration::MAX);
        for _ in 0..31 {
            plain = plain.min(wall(&["--count", "$..c", file]));
            profiled = profiled.min(wall(&["--count", "--profile", "$..c", file]));
        }
        ratios.push(profiled.as_secs_f64() / plain.as_secs_f64());
        eprintln!(
            "profile overhead: plain {plain:?}, profiled {profiled:?} on {} MB",
            doc.len() >> 20
        );
        if ratios.iter().any(|&r| r <= 1.1) {
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        ratios.iter().any(|&r| r <= 1.1),
        "profiled wall over plain, best of 31 runs each: {ratios:.3?}"
    );
}
