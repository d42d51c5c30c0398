//! Byte-for-byte pins of every machine-readable and human rendering of
//! the counter sets, over deterministic nonzero values.
//!
//! The CLI golden fixtures run with `RSQ_PERF=off` and without a
//! telemetry hub, so nothing there pins the `rsq_perf_*` series, the
//! rolling windows and gauges, the serve exposition with a latency
//! histogram, or a batch profile with more than one worker. The texts
//! under `tests/renderings/` were recorded from the hand-written
//! renderers (four `prometheus*` functions, eleven positional `to_json`
//! bodies) at the commit before the series registry (`rsq_obs::series`)
//! replaced them, and they have to keep matching; the expositions are
//! composed here the way `rsq-cli`'s report writer and `rsq-serve`'s
//! telemetry hub compose them.
//!
//! When a rendering is changed on purpose, the failing run leaves the new
//! text in `CARGO_TARGET_TMPDIR` and names the file to copy over the
//! fixture.

use rsq_obs::expo::Exposition;
use rsq_obs::{
    BatchCounters, BatchProfile, FlightRecorder, Histogram, ProfileStage, ProfileStats, Recorder,
    Route, RunStats, ServeCounters, SkipBytes, SkipTechnique, SpanRecord, StageTimes,
    TelemetryGauges, WindowRing, WindowSnapshot, WorkerProfile,
};
use rsq_perf::PerfStats;
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

/// A profile with a skip map: the document is 4096 bytes, so the map has
/// one cell per block and every span below covers whole cells.
fn profile() -> ProfileStats {
    let mut p = ProfileStats::for_document(4096);
    p.stats = stats();
    p.skip_span(SkipTechnique::Leaf, 0, 1000);
    p.skip_span(SkipTechnique::Child, 1024, 1824);
    p.skip_span(SkipTechnique::Sibling, 2048, 2648);
    p.skip_span(SkipTechnique::Label, 2688, 3088);
    p.skip_span(SkipTechnique::Memmem, 3136, 3336);
    p.skip_span(SkipTechnique::Exit, 3392, 3492);
    for (i, stage) in ProfileStage::ALL.into_iter().enumerate() {
        p.add_stage_ns(stage, 1_000_000 + i as u64);
    }
    p
}

fn batch_counters() -> BatchCounters {
    BatchCounters {
        documents: 10,
        failed_documents: 1,
        shards: 4,
        queue_claims: 12,
        cache_hits: 9,
        cache_misses: 3,
        cache_evictions: 2,
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
        route_docs: [6, 3, 11],
    }
}

fn perf_stats(core_only: bool) -> PerfStats {
    let mut p = PerfStats {
        bytes: 4096,
        docs: 2,
        core_only,
        ..PerfStats::default()
    };
    p.total.cycles = 12_000;
    p.total.instructions = 30_000;
    p.total.branches = 4_000;
    p.total.branch_misses = 40;
    p.total.cache_references = 900;
    p.total.cache_misses = 90;
    p.total.time_enabled = 1_000_000;
    p.total.time_running = 900_000;
    for stage in ProfileStage::ALL {
        p.stage_cycles[stage.index()] = 2_000 + stage.index() as u64;
        p.stage_instructions[stage.index()] = 5_000 + stage.index() as u64;
    }
    p
}

fn telemetry() -> (WindowRing, TelemetryGauges) {
    let mut ring = WindowRing::new();
    for tick in 8..70 {
        let route = [Route::FieldChain, Route::Selective, Route::General][tick as usize % 3];
        ring.record(
            tick,
            1_000 << (tick % 11),
            1024,
            tick % 7 == 0,
            150_000_000,
            (tick % 5 != 0).then_some(route),
        );
    }
    let gauges = TelemetryGauges {
        queue_depth: 3,
        in_flight: 5,
        workers: 4,
        slow_documents: 2,
        postmortems: 1,
    };
    (ring, gauges)
}

/// A span with fixed phase durations (a live `DocSpan` reads the clock).
fn span(seq: u64, route: Option<Route>, code: Option<&'static str>) -> SpanRecord {
    SpanRecord {
        seq,
        bytes: 512,
        start_ns: 9_000,
        worker: 3,
        route,
        queue_wait_ns: 100 + seq,
        run_ns: 2_000,
        reorder_wait_ns: 30,
        emit_ns: 4,
        stages: profile().stages,
        code,
    }
}

/// The `--metrics-out` text of a single-document or batch run.
fn prometheus(
    stats: &RunStats,
    profile: Option<&ProfileStats>,
    batch: Option<(&BatchCounters, Option<&BatchProfile>)>,
    perf: Option<&PerfStats>,
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
    if let Some(perf) = perf {
        expo.rows(PerfStats::ROWS, perf, "");
    }
    expo.finish()
}

/// A scrape, or the parts of one that are given.
fn scrape(
    serve: Option<(&ServeCounters, Option<&Histogram>)>,
    telemetry: Option<(&[WindowSnapshot], &TelemetryGauges)>,
    perf: Option<&PerfStats>,
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
    if let Some(perf) = perf {
        expo.rows(PerfStats::ROWS, perf, "");
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
    let perf = perf_stats(false);
    let core_only = perf_stats(true);
    let mut no_map = profile.clone();
    no_map.map = None;
    let batch = Some((&batch_counters, Some(&batch_profile)));

    let mut recorder = FlightRecorder::new(4);
    recorder.push(span(0, Some(Route::General), None));
    recorder.push(span(1, None, Some("limit:depth")));
    let faulted = span(2, Some(Route::FieldChain), Some("timeout"));

    vec![
        ("engine-run.prom", prometheus(&stats, None, None, None)),
        (
            "engine-profile.prom",
            prometheus(&stats, Some(&profile), None, None),
        ),
        (
            "batch-counters.prom",
            prometheus(&stats, None, Some((&batch_counters, None)), None),
        ),
        (
            "batch-profile.prom",
            prometheus(&stats, Some(&profile), batch, None),
        ),
        // `--metrics-out` after a profiled batch with armed counters.
        (
            "batch-perf.prom",
            prometheus(&stats, None, batch, Some(&perf)),
        ),
        ("serve.prom", scrape(Some((&serve, None)), None, None)),
        (
            "serve-latency.prom",
            scrape(Some((&serve, Some(&latency))), None, None),
        ),
        (
            "telemetry.prom",
            scrape(None, Some((&windows, &gauges)), None),
        ),
        ("perf.prom", scrape(None, None, Some(&perf))),
        // A scrape of a serving process with armed counters.
        (
            "scrape.prom",
            scrape(
                Some((&serve, Some(&latency))),
                Some((&windows, &gauges)),
                Some(&perf),
            ),
        ),
        ("run-stats.json", stats.to_json()),
        ("run-stats.txt", stats.to_string()),
        ("run-stats-default.json", RunStats::new().to_json()),
        ("profile-stats.json", profile.to_json()),
        ("profile-stats.txt", profile.to_string()),
        ("profile-stats-no-map.json", no_map.to_json()),
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
        ("perf-stats.json", perf.to_json()),
        ("perf-stats.txt", perf.to_string()),
        ("perf-stats-core-only.json", core_only.to_json()),
        ("perf-stats-core-only.txt", core_only.to_string()),
        ("perf-stats-default.json", PerfStats::default().to_json()),
        ("span-record.json", faulted.to_json()),
        (
            "skip-map.json",
            profile.map.as_ref().expect("built with a map").to_json(),
        ),
        ("postmortem.json", recorder.postmortem_json(3, &faulted)),
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
