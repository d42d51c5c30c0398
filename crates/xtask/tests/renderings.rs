//! Byte-for-byte pins of every machine-readable and human rendering of
//! the counter sets, over deterministic nonzero values.
//!
//! The CLI golden fixtures run without a telemetry hub, so nothing there
//! pins the rolling windows and gauges, the serve exposition with a latency
//! histogram, or a batch profile with more than one worker. The texts
//! under `tests/renderings/` were recorded from the hand-written
//! renderers (four `prometheus*` functions, eleven positional `to_json`
//! bodies) at the commit before the series registry (`rsq_obs::series`)
//! replaced them, and they have to keep matching; the expositions are
//! composed here the way `rsq-cli`'s report writer and `rsq-serve`'s
//! telemetry hub compose them.
//!
//! Since then the fixtures were edited twice, by deletion only. First
//! when the profile's document skip map and its per-skip `classify` stage
//! were removed: every file lost exactly those pieces (the `skip_map`
//! object and the `skip map` line, the `classify` stage rows, and the
//! hardware-counter object's `ingest`/`classify`/`sink` stage rows), and
//! `skip-map.json` and `profile-stats-no-map.json` (identical to
//! `profile-stats.json` without a map) went. Then when the
//! hardware-counter layer went: `scrape.prom` lost its counter series,
//! and the renderings of the counter object went. The
//! stage values below are the ones the fixtures were first recorded with.
//!
//! When a rendering is changed on purpose, the failing run leaves the new
//! text in `CARGO_TARGET_TMPDIR` and names the file to copy over the
//! fixture.

use rsq_obs::expo::Exposition;
use rsq_obs::{
    BatchCounters, BatchProfile, Histogram, ProfileStage, ProfileStats, Recorder, Route, RunStats,
    ServeCounters, SkipBytes, SkipTechnique, StageTimes, TelemetryGauges, WindowRing,
    WindowSnapshot, WorkerProfile,
};
use std::path::Path;

fn stats() -> RunStats {
    let mut s = RunStats::new();
    s.route = Route::Selective;
    s.bytes = 4096;
    s.blocks.structural = 64;
    s.blocks.depth = 8;
    s.blocks.seek = 4;
    s.blocks.quote = 2;
    s.events = 128;
    s.toggle_flips = 3;
    s.skips.leaf = 5;
    s.skips.child = 4;
    s.skips.sibling = 3;
    s.skips.label = 2;
    s.memmem_jumps = 7;
    s.memmem_declined = 1;
    s.resume_handoffs = 2;
    s.max_depth = 9;
    s.matches = 11;
    s
}

/// A profile of a 4096-byte document with one span per technique.
fn profile() -> ProfileStats {
    let mut p = ProfileStats::new();
    p.stats = stats();
    p.skip_span(SkipTechnique::Leaf, 0, 1000);
    p.skip_span(SkipTechnique::Child, 1024, 1824);
    p.skip_span(SkipTechnique::Sibling, 2048, 2648);
    p.skip_span(SkipTechnique::Label, 2688, 3088);
    p.skip_span(SkipTechnique::Memmem, 3136, 3336);
    p.skip_span(SkipTechnique::Exit, 3392, 3492);
    for (stage, ns) in [
        (ProfileStage::Ingest, 1_000_000),
        (ProfileStage::Validate, 1_000_001),
        (ProfileStage::Automaton, 1_000_003),
        (ProfileStage::Sink, 1_000_004),
    ] {
        p.add_stage_ns(stage, ns);
    }
    p
}

fn batch_counters() -> BatchCounters {
    BatchCounters {
        documents: 10,
        failed_documents: 1,
        shards: 4,
        queue_claims: 12,
        cache_misses: 1,
    }
}

fn histogram() -> Histogram {
    let mut h = Histogram::new();
    for ns in [1_000, 50_000, 2_000_000, 40_000_000] {
        h.record(ns);
    }
    h
}

fn batch_profile() -> BatchProfile {
    let profile = profile();
    BatchProfile {
        bytes_skipped: profile.bytes_skipped,
        stages: profile.stages,
        latency: histogram(),
        workers: vec![
            WorkerProfile {
                busy_ns: 5_000_000,
                queue_wait_ns: 1_000_000,
                documents: 6,
                claims: 7,
            },
            WorkerProfile {
                busy_ns: 4_000_000,
                queue_wait_ns: 2_000_000,
                documents: 4,
                claims: 5,
            },
        ],
    }
}

fn serve_counters() -> ServeCounters {
    ServeCounters {
        connections: 2,
        documents: 20,
        bytes_in: 8192,
        responses_ok: 13,
        timeouts: 1,
        oversize_rejections: 2,
        limit_errors: 3,
        malformed_errors: 4,
        panics: 5,
        io_errors: 6,
        backpressure_waits: 7,
        max_inflight: 8,
        route_docs: [3, 11],
    }
}

fn telemetry() -> (WindowRing, TelemetryGauges) {
    let mut ring = WindowRing::new();
    for tick in 8..70 {
        // Every third document reports no route: the ticks a third
        // route once took.
        let route = [None, Some(Route::Selective), Some(Route::General)][tick as usize % 3];
        ring.record(
            tick,
            1_000 << (tick % 11),
            1024,
            tick % 7 == 0,
            150_000_000,
            route.filter(|_| tick % 5 != 0),
        );
    }
    let gauges = TelemetryGauges {
        queue_depth: 3,
        in_flight: 5,
        workers: 4,
    };
    (ring, gauges)
}

/// The `--metrics-out` text of a single-document or batch run.
fn prometheus(
    stats: &RunStats,
    profile: Option<&ProfileStats>,
    batch: Option<(&BatchCounters, Option<&BatchProfile>)>,
) -> String {
    let mut expo = Exposition::new();
    expo.rows(RunStats::ROWS, stats, "");
    if let Some(profile) = profile {
        expo.rows(SkipBytes::ROWS, &profile.bytes_skipped, "");
        expo.rows(StageTimes::ROWS, &profile.stages, "");
    }
    if let Some((counters, profile)) = batch {
        expo.rows(BatchCounters::ROWS, counters, "");
        if let Some(profile) = profile {
            profile.expose(&mut expo);
        }
    }
    expo.finish()
}

/// A scrape, or the parts of one that are given.
fn scrape(
    serve: Option<(&ServeCounters, Option<&Histogram>)>,
    telemetry: Option<(&[WindowSnapshot], &TelemetryGauges)>,
) -> String {
    let mut expo = Exposition::new();
    if let Some((counters, latency)) = serve {
        expo.rows(ServeCounters::ROWS, counters, "");
        if let Some(latency) = latency {
            expo.rows(ServeCounters::LATENCY, latency, "");
        }
    }
    if let Some((windows, gauges)) = telemetry {
        for window in windows {
            let label = format!("window=\"{}s\"", window.secs);
            expo.rows(WindowSnapshot::ROWS, window, &label);
        }
        expo.rows(TelemetryGauges::ROWS, gauges, "");
    }
    expo.finish()
}

/// Every rendering, as `(fixture file name, text)`.
fn renderings() -> Vec<(&'static str, String)> {
    let stats = stats();
    let profile = profile();
    let batch_counters = batch_counters();
    let batch_profile = batch_profile();
    let serve = serve_counters();
    let latency = histogram();
    let (ring, gauges) = telemetry();
    let windows = [10, 60].map(|secs| WindowSnapshot {
        workers: gauges.workers,
        ..ring.window(70, secs)
    });
    let [w10, w60] = &windows;
    let batch = Some((&batch_counters, Some(&batch_profile)));

    vec![
        ("engine-run.prom", prometheus(&stats, None, None)),
        (
            "engine-profile.prom",
            prometheus(&stats, Some(&profile), None),
        ),
        (
            "batch-counters.prom",
            prometheus(&stats, None, Some((&batch_counters, None))),
        ),
        (
            "batch-profile.prom",
            prometheus(&stats, Some(&profile), batch),
        ),
        ("serve.prom", scrape(Some((&serve, None)), None)),
        (
            "serve-latency.prom",
            scrape(Some((&serve, Some(&latency))), None),
        ),
        ("telemetry.prom", scrape(None, Some((&windows, &gauges)))),
        // A scrape of a serving process.
        (
            "scrape.prom",
            scrape(Some((&serve, Some(&latency))), Some((&windows, &gauges))),
        ),
        ("run-stats.json", stats.to_json()),
        ("run-stats.txt", stats.to_string()),
        ("run-stats-default.json", RunStats::new().to_json()),
        ("profile-stats.json", profile.to_json()),
        ("profile-stats.txt", profile.to_string()),
        ("skip-bytes.json", profile.bytes_skipped.to_json()),
        ("stage-times.json", profile.stages.to_json()),
        ("batch-counters.json", batch_counters.to_json()),
        ("batch-counters.txt", batch_counters.to_string()),
        (
            "batch-counters-default.json",
            BatchCounters::new().to_json(),
        ),
        ("batch-profile.json", batch_profile.to_json()),
        ("batch-profile.txt", batch_profile.to_string()),
        ("worker-profile.json", batch_profile.workers[1].to_json()),
        ("serve-counters.json", serve.to_json()),
        ("serve-counters.txt", serve.to_string()),
        ("window-10s.json", w10.to_json()),
        ("window-60s.json", w60.to_json()),
        ("histogram.json", latency.to_json()),
        ("histogram.txt", latency.to_string()),
        ("histogram-empty.json", Histogram::new().to_json()),
    ]
}

#[test]
fn renderings_are_byte_identical_to_the_fixtures() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/renderings");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut stale = Vec::new();
    let rendered = renderings();
    for (name, text) in &rendered {
        let recorded = std::fs::read_to_string(dir.join(name)).unwrap_or_default();
        if recorded != *text {
            std::fs::write(scratch.join(name), text).expect("scratch directory is writable");
            stale.push(*name);
        }
    }
    assert!(
        stale.is_empty(),
        "{} of {} renderings differ from {}: {stale:?}\nthe new texts are in {}",
        stale.len(),
        rendered.len(),
        dir.display(),
        scratch.display(),
    );
    let recorded = std::fs::read_dir(&dir).expect("fixture directory").count();
    assert_eq!(recorded, rendered.len(), "a fixture no rendering produces");
}

#[test]
fn expositions_follow_the_scrape_contract() {
    for (name, text) in renderings() {
        if name.ends_with(".prom") {
            rsq_obs::expo::check(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
