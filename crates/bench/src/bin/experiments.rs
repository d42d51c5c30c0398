//! Regenerates the paper's result tables as plain text.
//!
//! ```sh
//! cargo run --release -p rsq-bench --bin experiments -- all
//! cargo run --release -p rsq-bench --bin experiments -- a b c d
//! cargo run --release -p rsq-bench --bin experiments -- --json BENCH_all.json all
//! RSQ_DATASET_MB=64 cargo run --release -p rsq-bench --bin experiments -- appendix-c
//! ```
//!
//! Subcommands: `table2`, `table3`, `a`, `b`, `c`, `d`, `appendix-c`,
//! `semantics`, `ablations`, `fast-path`, `mmap-ingest`,
//! `stats-overhead`, `skip-ablation`, `batch-scaling`, `serve-latency`,
//! `telemetry-overhead`, `kernel-efficiency`, `all`.
//!
//! `dump-corpus <dir>` is not a benchmark: it materializes every catalog
//! dataset as `<dir>/<letter>.json` plus a `catalog.tsv` manifest
//! (`id <TAB> file <TAB> query`) so shell harnesses — the fast-path
//! parity gate in `scripts/ci.sh` — can drive the CLI over the full
//! query catalog without re-deriving it. Dataset sizes follow
//! `RSQ_DATASET_MB` like every other subcommand.
//!
//! `fast-path` measures every catalog query the compile-time shape
//! analyzer routes to the memmem-led walker against the same query with
//! the route forced general, asserting position-for-position parity.
//!
//! `skip-ablation` reproduces the paper's Table-6-style skip-rate view
//! from the Tier C profiler: per dataset × query, the bytes each skipping
//! technique elided, the aggregate skip rate, and throughput — and it
//! checks the byte-accounting identity (classified + memmem-elided bytes
//! equal the padded document size).
//!
//! `kernel-efficiency` re-runs the fast-path comparison in hardware-counter
//! units: multiplex-corrected CPU cycles and instructions per input byte for
//! each routed catalog query, fast route vs forced-general, read from a
//! `perf_event_open` counter group on the measuring thread. Throughput can
//! flatter a route that merely saturates memory bandwidth; cycles per byte is
//! the frequency-independent cost the paper's kernel arguments are about. On
//! hosts where the kernel denies counters (containers, VMs without a PMU,
//! `perf_event_paranoid`) the experiment prints the denial reason and emits
//! no rows — it never fails the run.
//!
//! `batch-scaling` sweeps worker threads over an NDJSON corpus through
//! `rsq-batch`; the sweep's upper bound is the host's available
//! parallelism, overridable with `RSQ_BENCH_MAX_THREADS` (useful on
//! CI runners that report a single CPU).
//!
//! `--json <path>` additionally writes a machine-readable report: one row
//! per measured configuration with throughput and (for rsq runs) the Tier A
//! [`rsq_engine::RunStats`].

use rsq_bench::{
    cell, dataset, measure, run_engine, run_stats, EngineKind, Measurement, Report, ReportEntry,
};
use rsq_datagen::catalog::{by_id, catalog};
use rsq_datagen::{Dataset, GenConfig};
use rsq_engine::{CountSink, Engine, EngineOptions};
use rsq_query::Query;
use std::collections::BTreeMap;

const REPS: usize = 3;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut subcommands: Vec<String> = Vec::new();
    let mut ran_utility = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some(path) = arg.strip_prefix("--json=") {
            json_path = Some(path.to_owned());
        } else if arg == "--json" {
            match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
        } else if arg == "dump-corpus" {
            match it.next() {
                Some(dir) => {
                    dump_corpus(&dir);
                    ran_utility = true;
                }
                None => {
                    eprintln!("dump-corpus requires a directory");
                    std::process::exit(2);
                }
            }
        } else {
            subcommands.push(arg);
        }
    }
    if subcommands.is_empty() && ran_utility {
        return;
    }
    let subcommands: Vec<&str> = if subcommands.is_empty() {
        vec!["all"]
    } else {
        subcommands.iter().map(String::as_str).collect()
    };
    let mut report = Report::default();
    for arg in &subcommands {
        match *arg {
            "table2" => table2(),
            "table3" => table3(),
            "a" => experiment_a(&mut report),
            "b" => experiment_b(&mut report),
            "c" => experiment_c(&mut report),
            "d" => experiment_d(&mut report),
            "appendix-c" => appendix_c(&mut report),
            "semantics" => semantics(),
            "ablations" => ablations(&mut report),
            "fast-path" => fast_path(&mut report),
            "mmap-ingest" => mmap_ingest(&mut report),
            "stats-overhead" => stats_overhead(&mut report),
            "skip-ablation" => skip_ablation(&mut report),
            "batch-scaling" => batch_scaling(&mut report),
            "serve-latency" => serve_latency(&mut report),
            "telemetry-overhead" => telemetry_overhead(&mut report),
            "kernel-efficiency" => kernel_efficiency(&mut report),
            "all" => {
                table2();
                table3();
                experiment_a(&mut report);
                experiment_b(&mut report);
                experiment_c(&mut report);
                experiment_d(&mut report);
                appendix_c(&mut report);
                semantics();
                ablations(&mut report);
                fast_path(&mut report);
                mmap_ingest(&mut report);
                stats_overhead(&mut report);
                skip_ablation(&mut report);
                batch_scaling(&mut report);
                serve_latency(&mut report);
                telemetry_overhead(&mut report);
                kernel_efficiency(&mut report);
            }
            other => {
                eprintln!("unknown subcommand {other:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = report.write_to(&path) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(4);
        }
        eprintln!("machine-readable report written to {path}");
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Table 2: naive classification cost grows with the number of accepted
/// symbols; the nibble-lookup method stays flat.
fn table2() {
    use rsq_simd::{ByteClassifier, ByteSet, Simd, BLOCK_SIZE};
    heading("Table 2: classification cost by symbol count (ns per 64B block)");
    let simd = Simd::detect();
    // 16 MB of pseudo-random bytes.
    let data: Vec<u8> = {
        let mut x = 0x12345678u64;
        (0..16_000_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    };
    let blocks = data.len() / BLOCK_SIZE;
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "symbols", "naive", "lookup", "strategy"
    );
    for k in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        // Keep every accepted byte below 0x80 so the shuffle-based lookup
        // applies to the whole set (Table 2 measures the lookup itself,
        // not the high-byte supplement).
        let set: ByteSet = if k <= 64 {
            (0..k).map(|i| (i * 2 + 1) as u8).collect()
        } else {
            (0..k).map(|i| i as u8).collect()
        };
        let naive = ByteClassifier::naive(&set);
        let smart = ByteClassifier::new(&set);
        let time_per_block = |c: &ByteClassifier| {
            let m = measure(data.len(), REPS, || {
                let mut acc = 0u64;
                for chunk in data.chunks_exact(BLOCK_SIZE) {
                    let block: &rsq_simd::Block = chunk.try_into().expect("sized");
                    acc ^= c.classify_block(simd, block);
                }
                acc.count_ones().into()
            });
            (data.len() as f64 / m.gbps / 1e9) / blocks as f64 * 1e9
        };
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>10}",
            k,
            time_per_block(&naive),
            time_per_block(&smart),
            smart.strategy().to_string()
        );
    }
}

/// Table 3: dataset characteristics.
fn table3() {
    heading("Table 3: datasets (synthetic stand-ins)");
    println!(
        "{:>14} {:>10} {:>7} {:>10}",
        "name", "size [MB]", "depth", "verbosity"
    );
    for d in Dataset::all() {
        let stats = rsq_json::document_stats(dataset(d));
        println!(
            "{:>14} {:>10.1} {:>7} {:>10.1}",
            d.name(),
            stats.size_mb(),
            stats.max_depth,
            stats.verbosity()
        );
    }
}

fn run_table(title: &str, experiment: &str, entries: &[&str], report: &mut Report) {
    heading(title);
    println!(
        "{:<5} {:<42} {:>16} {:>16} {:>16} {:>16}",
        "id", "query", "rsq (n, GB/s)", "rsq-unchecked", "jsonski*", "jsurfer*"
    );
    for id in entries {
        let entry = by_id(id).unwrap_or_else(|| panic!("unknown id {id}"));
        let rsq = run_engine(EngineKind::Rsq, &entry, REPS);
        let ski = run_engine(EngineKind::Ski, &entry, REPS);
        let surfer = run_engine(EngineKind::Surfer, &entry, REPS);
        // The paper's engine validates memmem candidates lazily rather
        // than with a quote scan; the unchecked variant mirrors it for
        // queries that use skip-to-label.
        let unchecked = Query::parse(entry.query)
            .ok()
            .filter(|q| q.has_descendants())
            .map(|q| {
                let engine = Engine::with_options(
                    &q,
                    EngineOptions {
                        checked_head_start: false,
                        ..EngineOptions::default()
                    },
                )
                .expect("compiles");
                let input = dataset(entry.dataset);
                measure(input.len(), REPS, || engine.count(input))
            });
        if let (Some(a), Some(b)) = (rsq, ski) {
            assert_eq!(a.count, b.count, "count mismatch on {id}");
        }
        if let (Some(a), Some(b)) = (rsq, surfer) {
            assert_eq!(a.count, b.count, "count mismatch on {id}");
        }
        if let (Some(a), Some(b)) = (rsq, unchecked) {
            assert_eq!(
                a.count, b.count,
                "unchecked head start changed counts on {id}"
            );
        }
        if let Some(m) = rsq {
            report.push(ReportEntry {
                experiment: experiment.to_owned(),
                name: entry.id.to_owned(),
                query: Some(entry.query.to_owned()),
                input_bytes: dataset(entry.dataset).len() as u64,
                count: m.count,
                gbps: m.gbps,
                speedup: None,
                stats: Some(run_stats(&entry)),
                bytes_skipped: None,
                latency: None,
                cycles_per_byte: None,
                instructions_per_byte: None,
            });
        }
        println!(
            "{:<5} {:<42} {} {} {} {}",
            entry.id,
            entry.query,
            cell(rsq),
            cell(unchecked),
            cell(ski),
            cell(surfer)
        );
    }
}

/// Experiment A (Table 4 / Figure 4): descendant-free queries.
fn experiment_a(report: &mut Report) {
    run_table(
        "Experiment A (Table 4, Figure 4): descendant-free queries",
        "experiment-a",
        &[
            "B1", "B2", "B3", "G1", "G2", "N1", "N2", "T1", "T2", "W1", "W2", "Wi",
        ],
        report,
    );
}

/// Experiment B (Table 5 / Figure 5): rewritings with descendants.
fn experiment_b(report: &mut Report) {
    run_table(
        "Experiment B (Table 5, Figure 5): descendant rewritings vs originals",
        "experiment-b",
        &[
            "B1", "B1r", "B2", "B2r", "B3", "B3r", "G2", "G2r", "W1", "W1r", "W2", "W2r", "Wi",
            "Wir",
        ],
        report,
    );
}

/// Experiment C (Table 6 / Figure 6): limits and opportunities.
fn experiment_c(report: &mut Report) {
    run_table(
        "Experiment C (Table 6, Figure 6): limits and opportunities",
        "experiment-c",
        &[
            "A1", "A2", "C1", "C2", "C2r", "C3", "C3r", "Ts", "Tsp", "Tsr",
        ],
        report,
    );
}

/// Experiment D (Table 7): throughput vs document size.
fn experiment_d(report: &mut Report) {
    heading("Experiment D (Table 7): $..affiliation..name on Crossref fragments");
    let base = rsq_datagen::default_target_bytes();
    let query = "$..affiliation..name";
    let engine = Engine::from_text(query).expect("query compiles");
    println!("{:>10} {:>10} {:>8}", "size [MB]", "matches", "GB/s");
    for mult in [1, 2, 4, 8] {
        let bytes = Dataset::Crossref
            .generate(&GenConfig {
                target_bytes: base * mult / 4,
                seed: rsq_bench::BENCH_SEED,
            })
            .into_bytes();
        let m = measure(bytes.len(), REPS, || engine.count(&bytes));
        let mut sink = CountSink::new();
        let stats = engine
            .try_run_with_stats(&bytes, &mut sink)
            .expect("crossref run succeeds");
        report.push(ReportEntry {
            experiment: "experiment-d".to_owned(),
            name: format!("crossref-x{mult}"),
            query: Some(query.to_owned()),
            input_bytes: bytes.len() as u64,
            count: m.count,
            gbps: m.gbps,
            speedup: None,
            stats: Some(stats),
            bytes_skipped: None,
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
        println!(
            "{:>10.1} {:>10} {:>8.2}",
            bytes.len() as f64 / 1e6,
            m.count,
            m.gbps
        );
    }
}

/// The full Appendix C matrix.
fn appendix_c(report: &mut Report) {
    let ids: Vec<&'static str> = catalog().iter().map(|e| e.id).collect();
    run_table("Appendix C: full result matrix", "appendix-c", &ids, report);
}

/// Appendix D / Table 9: node vs path semantics on the witness query.
fn semantics() {
    heading("Appendix D (Table 9): node vs path semantics, $..person..name");
    let doc = br#"{
        "person": {
            "name": "A",
            "spouse": {"person": {"name": "B"}},
            "children": [{"person": {"name": "C"}}, {"person": {"name": "D"}}]
        }
    }"#;
    let dom = rsq_json::parse(doc).expect("valid document");
    let query = Query::parse("$..person..name").expect("valid query");
    for (semantics, label) in [
        (
            rsq_baselines::Semantics::Node,
            "node semantics (rsq, 6/44 impls)",
        ),
        (
            rsq_baselines::Semantics::Path,
            "path semantics (34/44 impls)",
        ),
    ] {
        let names: Vec<String> = rsq_baselines::evaluate(&query, &dom, semantics)
            .into_iter()
            .map(|s| String::from_utf8_lossy(&doc[s.start..s.end]).into_owned())
            .collect();
        println!("{label:<34} {names:?}");
    }
    let engine = Engine::from_text("$..person..name").expect("query compiles");
    println!("streaming engine match count: {}", engine.count(doc));
}

/// Ablations: each design choice of §3–§4 disabled in turn (DESIGN.md §5).
fn ablations(report: &mut Report) {
    heading("Ablations: feature off → GB/s (per query)");
    let d = EngineOptions::default();
    let variants: Vec<(&str, EngineOptions)> = vec![
        ("baseline (all on)", d),
        (
            "no leaf skipping",
            EngineOptions {
                skip_leaves: false,
                ..d
            },
        ),
        (
            "no child skipping",
            EngineOptions {
                skip_children: false,
                ..d
            },
        ),
        (
            "no sibling skipping",
            EngineOptions {
                skip_siblings: false,
                ..d
            },
        ),
        (
            "no head start",
            EngineOptions {
                head_start: false,
                ..d
            },
        ),
        (
            "no label seek",
            EngineOptions {
                label_seek: false,
                ..d
            },
        ),
        (
            "unchecked head start",
            EngineOptions {
                checked_head_start: false,
                ..d
            },
        ),
        (
            "classical stack",
            EngineOptions {
                sparse_stack: false,
                ..d
            },
        ),
        (
            "swar backend",
            EngineOptions {
                backend: Some(rsq_simd::BackendKind::Swar),
                ..d
            },
        ),
        (
            "avx2 backend",
            EngineOptions {
                backend: Some(rsq_simd::BackendKind::Avx2),
                ..d
            },
        ),
    ];
    let queries = ["B1", "W2", "B3r", "Wir", "A2", "Tsr", "C2r"];
    print!("{:<22}", "variant");
    for id in queries {
        print!(" {id:>7}");
    }
    println!();
    let mut baseline: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, options) in variants {
        print!("{name:<22}");
        for id in queries {
            let entry = by_id(id).expect("known id");
            let query = Query::parse(entry.query).expect("catalog query parses");
            let engine = Engine::with_options(&query, options).expect("compiles");
            let input = dataset(entry.dataset);
            let m: Measurement = measure(input.len(), REPS, || engine.count(input));
            // Every ablation must preserve the result.
            let expect = *baseline.entry(id).or_insert(m.count);
            assert_eq!(m.count, expect, "ablation changed result on {id}");
            report.push(ReportEntry {
                experiment: "ablations".to_owned(),
                name: format!("{name}/{id}"),
                query: Some(entry.query.to_owned()),
                input_bytes: input.len() as u64,
                count: m.count,
                gbps: m.gbps,
                speedup: None,
                stats: None,
                bytes_skipped: None,
                latency: None,
                cycles_per_byte: None,
                instructions_per_byte: None,
            });
            print!(" {:>7.2}", m.gbps);
        }
        println!();
    }
}

/// Fast-path routing (DESIGN.md §15): every catalog query whose compiled
/// shape routes to the memmem-led walker, measured on the fast path and
/// again with the route forced general. The two configurations must
/// report byte-identical positions; the report carries both rows (with
/// Tier A stats, so the `route` field survives into bench-diff).
fn fast_path(report: &mut Report) {
    use rsq_engine::{PositionsSink, Route, RouteChoice};
    heading("Fast-path routing: memmem-led walker vs general main loop");
    println!(
        "{:<5} {:>11} {:>9} {:>9} {:>9}",
        "id", "route", "fast", "general", "speedup"
    );
    let mut routed = 0usize;
    for entry in catalog() {
        let query = Query::parse(entry.query).expect("catalog query parses");
        let fast = Engine::with_options(&query, EngineOptions::default()).expect("compiles");
        if fast.route() == Route::General {
            continue;
        }
        routed += 1;
        let general = Engine::with_options(
            &query,
            EngineOptions {
                route: RouteChoice::General,
                ..EngineOptions::default()
            },
        )
        .expect("compiles");
        let input = dataset(entry.dataset);
        // Parity first: the routes must agree position for position, not
        // just on counts.
        let mut fast_sink = PositionsSink::new();
        let fast_stats = fast
            .try_run_with_stats(input, &mut fast_sink)
            .expect("fast run succeeds");
        let mut general_sink = PositionsSink::new();
        let general_stats = general
            .try_run_with_stats(input, &mut general_sink)
            .expect("general run succeeds");
        assert_eq!(
            fast_sink.positions(),
            general_sink.positions(),
            "routes disagree on {}",
            entry.id
        );
        let m_fast = measure(input.len(), REPS, || fast.count(input));
        let m_general = measure(input.len(), REPS, || general.count(input));
        let speedup = m_fast.gbps / m_general.gbps;
        println!(
            "{:<5} {:>11} {:>9.2} {:>9.2} {:>8.2}x",
            entry.id,
            fast.route().to_string(),
            m_fast.gbps,
            m_general.gbps,
            speedup,
        );
        for (tag, m, stats, speedup) in [
            ("fast", m_fast, fast_stats, Some(speedup)),
            ("general", m_general, general_stats, None),
        ] {
            report.push(ReportEntry {
                experiment: "fast-path".to_owned(),
                name: format!("{tag}/{}", entry.id),
                query: Some(entry.query.to_owned()),
                input_bytes: input.len() as u64,
                count: m.count,
                gbps: m.gbps,
                speedup,
                stats: Some(stats),
                bytes_skipped: None,
                latency: None,
                cycles_per_byte: None,
                instructions_per_byte: None,
            });
        }
    }
    assert!(routed >= 2, "expected several routed catalog queries");
}

/// Kernel efficiency: the fast-path comparison in hardware-counter units.
/// For every routed catalog query, multiplex-corrected CPU cycles and
/// instructions per input byte on the shape-routed engine vs the same
/// query forced through the general main loop, read from a
/// `perf_event_open` group on the measuring thread. Per configuration the
/// minimum-cycles rep of `REPS` wins (noise only ever adds cycles). On
/// hosts where the kernel denies counters this prints the reason and
/// emits no rows.
fn kernel_efficiency(report: &mut Report) {
    use rsq_batch::{DocRunner, Record};
    use rsq_engine::{Route, RouteChoice};
    use rsq_perf::{PerfMode, PerfStats};
    heading("Kernel efficiency: cycles per byte by route (perf_event_open)");
    // One runner, so one counter group, for the whole experiment.
    let mut runner = DocRunner::open(PerfMode::Auto);
    if let Some(reason) = runner.counters_unavailable() {
        println!("SKIPPED: hardware counters unavailable ({reason})");
        println!("(no rows emitted; re-run on a host with perf_event_open access)");
        return;
    }
    println!(
        "{:<5} {:>11} {:>10} {:>10} {:>7} {:>10} {:>10}",
        "id", "route", "fast c/B", "gen c/B", "ratio", "fast i/B", "gen i/B"
    );
    // One (stats, match count, throughput) sample per rep — what the
    // runner's totals grew by over that rep; the rep with the fewest
    // cycles per byte is the run least disturbed by the rest of the
    // machine.
    let mut best_of = |engine: &Engine, input: &[u8]| -> (PerfStats, u64, f64) {
        let mut best: Option<(PerfStats, u64, f64)> = None;
        for _ in 0..REPS {
            let before = runner.perf().unwrap_or_default();
            let mut sink = CountSink::new();
            let started = std::time::Instant::now();
            runner
                .run(engine, input, &mut sink, Record::Nothing, true)
                .expect("catalog run succeeds");
            let secs = started.elapsed().as_secs_f64();
            let count = sink.count();
            // A failed group read adds nothing: `docs` stays 0.
            let after = runner.perf().unwrap_or_default();
            let stats = PerfStats {
                bytes: after.bytes - before.bytes,
                docs: after.docs - before.docs,
                total: after.total.delta_since(&before.total),
                ..after
            };
            #[allow(clippy::cast_precision_loss)]
            let gbps = input.len() as f64 / secs / 1e9;
            let replace = match &best {
                None => true,
                Some((incumbent, _, _)) => {
                    stats.docs > 0 && stats.cycles_per_byte() < incumbent.cycles_per_byte()
                }
            };
            if replace {
                best = Some((stats, count, gbps));
            }
        }
        best.expect("REPS >= 1")
    };
    let mut routed = 0usize;
    for entry in catalog() {
        let query = Query::parse(entry.query).expect("catalog query parses");
        let fast = Engine::with_options(&query, EngineOptions::default()).expect("compiles");
        if fast.route() == Route::General {
            continue;
        }
        routed += 1;
        let general = Engine::with_options(
            &query,
            EngineOptions {
                route: RouteChoice::General,
                ..EngineOptions::default()
            },
        )
        .expect("compiles");
        let input = dataset(entry.dataset);
        let (fast_perf, fast_count, fast_gbps) = best_of(&fast, input);
        let (general_perf, general_count, general_gbps) = best_of(&general, input);
        assert_eq!(fast_count, general_count, "routes disagree on {}", entry.id);
        if fast_perf.docs == 0 || general_perf.docs == 0 {
            // The group opened but a read failed mid-experiment (e.g. a
            // cgroup limit kicked in); skip the row rather than report
            // a zero rate as if it were measured.
            println!(
                "{:<5} {:>11} counters unreadable, row skipped",
                entry.id, "-"
            );
            continue;
        }
        let ratio = general_perf.cycles_per_byte() / fast_perf.cycles_per_byte();
        println!(
            "{:<5} {:>11} {:>10.3} {:>10.3} {:>6.2}x {:>10.3} {:>10.3}",
            entry.id,
            fast.route().to_string(),
            fast_perf.cycles_per_byte(),
            general_perf.cycles_per_byte(),
            ratio,
            fast_perf.instructions_per_byte(),
            general_perf.instructions_per_byte(),
        );
        for (tag, perf, count, gbps, speedup) in [
            ("fast", fast_perf, fast_count, fast_gbps, Some(ratio)),
            ("general", general_perf, general_count, general_gbps, None),
        ] {
            report.push(ReportEntry {
                experiment: "kernel-efficiency".to_owned(),
                name: format!("{tag}/{}", entry.id),
                query: Some(entry.query.to_owned()),
                input_bytes: input.len() as u64,
                count,
                gbps,
                speedup,
                stats: None,
                bytes_skipped: None,
                latency: None,
                cycles_per_byte: Some(perf.cycles_per_byte()),
                instructions_per_byte: Some(perf.instructions_per_byte()),
            });
        }
    }
    assert!(routed >= 2, "expected several routed catalog queries");
}

/// Zero-copy ingest: end-to-end (load + query) throughput of a
/// multi-megabyte on-disk document, read into a heap buffer vs copied
/// into the huge-page [`rsq_mmap::Region`] the drivers land copies in vs
/// mapped read-only by `rsq-mmap` (DESIGN.md §15). Match counts must be
/// identical every way; the rows are bench-diff's mmap-vs-read column,
/// with each speedup over the heap read recorded on its row.
fn mmap_ingest(report: &mut Report) {
    use rsq_mmap::{MapPolicy, Region};
    heading("Zero-copy ingest: buffered read vs region copy vs mmap (load + query)");
    let entry = by_id("B1").expect("catalog has B1");
    let engine = Engine::from_text(entry.query).expect("catalog query compiles");
    let input = dataset(entry.dataset);
    let path = std::env::temp_dir().join(format!("rsq-bench-mmap-{}.json", std::process::id()));
    std::fs::write(&path, input).expect("temp dataset written");
    // The mapped load must actually map a dataset this size (On never
    // maps below the kernel's granularity, Auto below 1 MiB).
    assert!(
        rsq_mmap::load(&path, MapPolicy::On)
            .expect("mapped load succeeds")
            .is_mapped(),
        "dataset file was expected to map"
    );
    let m_read = measure(input.len(), REPS, || {
        let buf = std::fs::read(&path).expect("buffered read succeeds");
        engine.count(&buf)
    });
    let m_region = measure(input.len(), REPS, || {
        let file = std::fs::File::open(&path).expect("dataset opens");
        let region: Region = rsq_engine::read_to_end(file).expect("region copy succeeds");
        engine.count(&region)
    });
    let m_mmap = measure(input.len(), REPS, || {
        let mapped = rsq_mmap::load(&path, MapPolicy::On).expect("mapped load succeeds");
        engine.count(&mapped)
    });
    std::fs::remove_file(&path).expect("temp dataset removed");
    assert_eq!(m_read.count, m_region.count, "ingest modes disagree");
    assert_eq!(m_read.count, m_mmap.count, "ingest modes disagree");
    println!("{:<5} {:<7} {:>9} {:>9}", "id", "mode", "GB/s", "speedup");
    for (tag, m) in [("read", m_read), ("region", m_region), ("mmap", m_mmap)] {
        let speedup = (tag != "read").then(|| m.gbps / m_read.gbps);
        println!(
            "{:<5} {:<7} {:>9.2} {:>8.2}x",
            entry.id,
            tag,
            m.gbps,
            speedup.unwrap_or(1.0)
        );
        report.push(ReportEntry {
            experiment: "mmap-ingest".to_owned(),
            name: format!("{tag}/{}", entry.id),
            query: Some(entry.query.to_owned()),
            input_bytes: input.len() as u64,
            count: m.count,
            gbps: m.gbps,
            speedup,
            stats: None,
            bytes_skipped: None,
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
    }
}

/// Materializes the catalog corpus for shell harnesses: one
/// `<letter>.json` per dataset plus a `catalog.tsv` manifest with one
/// `id <TAB> file <TAB> query` line per catalog query. Queries never
/// contain tabs, so the manifest splits cleanly with `IFS=$'\t'`.
fn dump_corpus(dir: &str) {
    use std::fmt::Write as _;
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).expect("corpus directory created");
    let mut written: BTreeMap<&str, ()> = BTreeMap::new();
    let mut tsv = String::new();
    let entries = catalog();
    for entry in &entries {
        let letter = entry.dataset.letter();
        if written.insert(letter, ()).is_none() {
            let path = dir.join(format!("{letter}.json"));
            std::fs::write(&path, dataset(entry.dataset)).expect("dataset written");
        }
        assert!(!entry.query.contains('\t'), "catalog query contains a tab");
        writeln!(tsv, "{}\t{letter}.json\t{}", entry.id, entry.query).expect("manifest line");
    }
    std::fs::write(dir.join("catalog.tsv"), tsv).expect("catalog.tsv written");
    println!(
        "corpus written to {}: {} datasets, {} catalog queries",
        dir.display(),
        written.len(),
        entries.len()
    );
}

/// Batch scaling: the sharded multi-document engine (`rsq-batch`) over
/// an NDJSON corpus, sweeping worker-thread counts. Every configuration
/// must produce outcomes identical to the single-threaded run; the rows
/// record throughput plus speedup relative to one thread.
fn batch_scaling(report: &mut Report) {
    use rsq_batch::{BatchEngine, BatchOptions};
    heading("Batch scaling: NDJSON corpus, worker threads vs throughput");
    // Corpus: many small documents of the B1 query's dataset, each
    // compacted to a single NDJSON line. The per-document size is small
    // enough that sharding (not one long document) dominates.
    let entry = by_id("B1").expect("catalog has B1");
    let total = rsq_datagen::default_target_bytes();
    let doc_target = 64 * 1024;
    let doc_count = (total / doc_target).clamp(8, 512);
    let mut corpus: Vec<u8> = Vec::with_capacity(doc_count * doc_target);
    for i in 0..doc_count {
        let doc = entry.dataset.generate(&GenConfig {
            target_bytes: doc_target,
            seed: rsq_bench::BENCH_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        corpus.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        corpus.push(b'\n');
    }
    let docs: Vec<&[u8]> = rsq_batch::split_ndjson(&corpus)
        .into_iter()
        .map(|r| &corpus[r])
        .collect();
    assert_eq!(docs.len(), doc_count, "one NDJSON line per document");

    // Sweep 1..=max workers. The default ceiling is the host's available
    // parallelism; RSQ_BENCH_MAX_THREADS overrides it (single-CPU CI
    // runners can still exercise the multi-worker code paths, just
    // without expecting a speedup).
    let max_threads = std::env::var("RSQ_BENCH_MAX_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut sweep: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect();
    if !sweep.contains(&max_threads) {
        sweep.push(max_threads);
    }

    println!(
        "{} documents, {:.1} MB; sweeping up to {max_threads} threads",
        docs.len(),
        corpus.len() as f64 / 1e6
    );
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>11} {:>13}",
        "threads", "matches", "GB/s", "speedup", "cache(h/m)", "queue claims"
    );
    let mut baseline: Option<(String, f64)> = None;
    for &threads in &sweep {
        // The first run profiles (per-document latency histogram, skipped
        // bytes) for the report; the timed runs below use a plain engine
        // so the Tier C clock reads never pollute the throughput figure.
        let profiled = BatchEngine::new(BatchOptions {
            threads,
            collect_stats: true,
            profile: true,
            ..BatchOptions::default()
        });
        let engine = BatchEngine::new(BatchOptions {
            threads,
            collect_stats: true,
            ..BatchOptions::default()
        });
        let result = profiled
            .run_slices(entry.query, &docs)
            .expect("catalog query compiles");
        // Outcome identity across thread counts (the batch crate's own
        // tests cover this; re-asserting here keeps the benchmark honest
        // about what it measures).
        let fingerprint = format!("{:?}", result.outcomes);
        let (base_fingerprint, base_gbps) = baseline.get_or_insert((fingerprint.clone(), 0.0));
        assert_eq!(
            *base_fingerprint, fingerprint,
            "batch outcomes changed at {threads} threads"
        );
        let m = measure(corpus.len(), REPS, || {
            engine
                .run_slices(entry.query, &docs)
                .expect("catalog query compiles")
                .total_count()
        });
        if *base_gbps == 0.0 {
            *base_gbps = m.gbps;
        }
        let speedup = m.gbps / *base_gbps;
        report.push(ReportEntry {
            experiment: "batch-scaling".to_owned(),
            name: format!("threads-{threads}"),
            query: Some(entry.query.to_owned()),
            input_bytes: corpus.len() as u64,
            count: m.count,
            gbps: m.gbps,
            speedup: Some(speedup),
            stats: Some(result.stats),
            bytes_skipped: result.profile.as_ref().map(|p| p.bytes_skipped),
            latency: result.profile.as_ref().map(|p| p.latency.clone()),
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
        println!(
            "{:>8} {:>10} {:>8.2} {:>7.2}x {:>11} {:>13}",
            threads,
            m.count,
            m.gbps,
            speedup,
            format!(
                "{}/{}",
                result.counters.cache_hits, result.counters.cache_misses
            ),
            result.counters.queue_claims
        );
    }
}

/// Serve-mode latency under load (DESIGN.md §12): the same NDJSON corpus
/// as `batch-scaling` streamed through the serving shell, per-document
/// latency quantiles from the PR 5 histograms. Three client profiles:
/// a smooth pipe (whole-buffer reads), a pathologically fragmented one
/// (17-byte chunks with transient stalls — the framer carries state
/// across every boundary), and a single-slot in-flight cap (maximum
/// backpressure: every admit waits for the previous answer).
fn serve_latency(report: &mut Report) {
    use rsq_serve::{serve_connection, ChaosPlan, ResponseMode, ServeOptions};

    heading("Serve latency: NDJSON stream through the serving shell, p50/p99 per document");
    let entry = by_id("B1").expect("catalog has B1");
    let total = rsq_datagen::default_target_bytes().min(32 * 1024 * 1024);
    let doc_target = 64 * 1024;
    let doc_count = (total / doc_target).clamp(8, 256);
    let mut corpus: Vec<u8> = Vec::with_capacity(doc_count * doc_target);
    for i in 0..doc_count {
        let doc = entry.dataset.generate(&GenConfig {
            target_bytes: doc_target,
            seed: rsq_bench::BENCH_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        corpus.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        corpus.push(b'\n');
    }
    println!(
        "{} documents, {:.1} MB; query {}",
        doc_count,
        corpus.len() as f64 / 1e6,
        entry.query
    );
    println!(
        "{:>12} {:>8} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "client", "ok", "GB/s", "p50(us)", "p99(us)", "max(us)", "waits"
    );

    let fragmented = ChaosPlan {
        max_chunk: 17,
        stall_octile: 1,
        ..ChaosPlan::smooth(rsq_bench::BENCH_SEED)
    };
    let smooth = ChaosPlan::smooth(rsq_bench::BENCH_SEED);
    let profiles: [(&str, ChaosPlan, usize); 3] = [
        ("smooth", smooth, ServeOptions::DEFAULT_MAX_INFLIGHT),
        ("fragmented", fragmented, ServeOptions::DEFAULT_MAX_INFLIGHT),
        ("inflight-1", smooth, 1),
    ];
    let mut baseline_count: Option<u64> = None;
    for (name, plan, max_inflight) in profiles {
        let options = ServeOptions {
            max_inflight,
            mode: ResponseMode::Count,
            ..ServeOptions::new(entry.query)
        };
        // One timed pass per profile: serve latency is about the shape
        // of the distribution, and the histogram already aggregates
        // every document in the corpus.
        let reader = rsq_serve::ChaosStream::new(&corpus, plan);
        let mut out = Vec::new();
        let sink = std::io::sink();
        let started = std::time::Instant::now();
        let outcome =
            serve_connection(&options, reader, &mut out, sink).expect("catalog query compiles");
        let elapsed = started.elapsed().as_secs_f64();
        assert!(outcome.clean, "bench stream must drain cleanly");
        assert_eq!(
            outcome.first_failure, None,
            "bench corpus must serve without per-document errors"
        );
        let count = outcome.counters.responses_ok;
        // Responses must not depend on the client's fragmentation or the
        // in-flight cap.
        assert_eq!(
            *baseline_count.get_or_insert(count),
            count,
            "serve answered a different number of documents under {name}"
        );
        let gbps = corpus.len() as f64 / elapsed / 1e9;
        let (accounting_waits, latency) = (outcome.counters.backpressure_waits, &outcome.latency);
        println!(
            "{:>12} {:>8} {:>8.2} {:>10.1} {:>10.1} {:>10.1} {:>6}",
            name,
            count,
            gbps,
            latency.p50() as f64 / 1e3,
            latency.p99() as f64 / 1e3,
            latency.max() as f64 / 1e3,
            accounting_waits,
        );
        report.push(ReportEntry {
            experiment: "serve-latency".to_owned(),
            name: name.to_owned(),
            query: Some(entry.query.to_owned()),
            input_bytes: corpus.len() as u64,
            count,
            gbps,
            speedup: None,
            stats: None,
            bytes_skipped: None,
            latency: Some(outcome.latency.clone()),
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
    }
}

/// Live-telemetry ablation (DESIGN.md §13): the same smooth NDJSON
/// stream served twice through `serve_connection_with`, once with no
/// telemetry hub and once with a fully armed hub — live windows, a
/// slow-document threshold that never fires, a postmortem directory
/// and flight recorder that never dump. The telemetry tax is a handful
/// of clock reads and one short mutex hold per document, so the two
/// configurations must stay within 2% of each other; the assertion
/// retries to ride out scheduler noise, then the `bench-diff` gate
/// pins both rows across commits.
fn telemetry_overhead(report: &mut Report) {
    use rsq_serve::{
        serve_connection_with, ChaosPlan, ResponseMode, ServeOptions, Telemetry, TelemetryOptions,
    };

    heading("Telemetry overhead: serve_connection with and without a live hub (GB/s)");
    let entry = by_id("B1").expect("catalog has B1");
    let total = rsq_datagen::default_target_bytes().min(8 * 1024 * 1024);
    let doc_target = 64 * 1024;
    let doc_count = (total / doc_target).clamp(8, 128);
    let mut corpus: Vec<u8> = Vec::with_capacity(doc_count * doc_target);
    for i in 0..doc_count {
        let doc = entry.dataset.generate(&GenConfig {
            target_bytes: doc_target,
            seed: rsq_bench::BENCH_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        corpus.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        corpus.push(b'\n');
    }
    let options = ServeOptions {
        mode: ResponseMode::Count,
        ..ServeOptions::new(entry.query)
    };
    // Armed exactly as a production `--telemetry-socket --slow-log-ms
    // --postmortem-dir` server would be; nothing fires on this corpus,
    // so the measurement isolates the always-on recording cost.
    let postmortem_dir = std::env::temp_dir().join("rsq-bench-telemetry-pm");
    std::fs::create_dir_all(&postmortem_dir).expect("temp postmortem dir");
    let hub_options = TelemetryOptions {
        slow_log_ms: Some(60_000),
        postmortem_dir: Some(postmortem_dir),
        flight_window: 8,
        live: true,
    };

    let serve_pass = |hub: Option<&std::sync::Arc<Telemetry>>| -> u64 {
        let reader = rsq_serve::ChaosStream::new(&corpus, ChaosPlan::smooth(rsq_bench::BENCH_SEED));
        let mut out = Vec::new();
        let sink = std::io::sink();
        let outcome = serve_connection_with(&options, hub, reader, &mut out, sink)
            .expect("catalog query compiles");
        assert!(outcome.clean, "bench stream must drain cleanly");
        assert_eq!(outcome.first_failure, None, "bench corpus serves cleanly");
        outcome.counters.responses_ok
    };

    // Scheduler noise can exceed the telemetry tax on a loaded runner:
    // best-of-REPS per attempt, and the 2% bound gets three attempts
    // before it counts as a regression.
    let mut measured = None;
    for attempt in 0..3 {
        let off = measure(corpus.len(), REPS, || serve_pass(None));
        let hub = Telemetry::new(&hub_options);
        let on = measure(corpus.len(), REPS, || serve_pass(Some(&hub)));
        assert_eq!(off.count, on.count, "telemetry changed the responses");
        let ratio = on.gbps / off.gbps;
        println!(
            "{:>12} {:>8} {:>8.2} {:>8.2} {:>7.3}{}",
            "attempt",
            off.count,
            off.gbps,
            on.gbps,
            ratio,
            if ratio >= 0.98 { "" } else { "  (retry)" }
        );
        measured = Some((off, on));
        if ratio >= 0.98 {
            break;
        }
        assert!(
            attempt < 2,
            "telemetry overhead exceeded 2% in three consecutive attempts \
             (off {:.2} GB/s, on {:.2} GB/s)",
            off.gbps,
            on.gbps
        );
    }
    let (off, on) = measured.expect("at least one attempt ran");
    for (name, m) in [("off", off), ("on", on)] {
        report.push(ReportEntry {
            experiment: "telemetry-overhead".to_owned(),
            name: name.to_owned(),
            query: Some(entry.query.to_owned()),
            input_bytes: corpus.len() as u64,
            count: m.count,
            gbps: m.gbps,
            speedup: None,
            stats: None,
            bytes_skipped: None,
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
    }
}

/// Observability ablation (DESIGN.md §8): `try_run` vs
/// `try_run_with_stats`. Tier A statistics are gathered by monomorphising
/// the inner loops over a recorder, so the two entry points must be
/// throughput-indistinguishable.
fn stats_overhead(report: &mut Report) {
    heading("Stats overhead: try_run vs try_run_with_stats (GB/s)");
    println!(
        "{:<5} {:<42} {:>8} {:>11} {:>7}",
        "id", "query", "plain", "with-stats", "ratio"
    );
    for id in ["B1", "W2", "B3r", "Wir", "A2", "C2r"] {
        let entry = by_id(id).expect("known id");
        let engine = Engine::from_text(entry.query).expect("catalog query compiles");
        let input = dataset(entry.dataset);
        let plain = measure(input.len(), REPS, || {
            let mut sink = CountSink::new();
            engine
                .try_run(input, &mut sink)
                .expect("catalog run succeeds");
            sink.count()
        });
        let with_stats = measure(input.len(), REPS, || {
            let mut sink = CountSink::new();
            engine
                .try_run_with_stats(input, &mut sink)
                .expect("catalog run succeeds");
            sink.count()
        });
        assert_eq!(
            plain.count, with_stats.count,
            "stats collection changed the result on {id}"
        );
        for (variant, m, stats) in [
            ("plain", plain, None),
            ("with-stats", with_stats, Some(run_stats(&entry))),
        ] {
            report.push(ReportEntry {
                experiment: "stats-overhead".to_owned(),
                name: format!("{id}/{variant}"),
                query: Some(entry.query.to_owned()),
                input_bytes: input.len() as u64,
                count: m.count,
                gbps: m.gbps,
                speedup: None,
                stats,
                bytes_skipped: None,
                latency: None,
                cycles_per_byte: None,
                instructions_per_byte: None,
            });
        }
        println!(
            "{:<5} {:<42} {:>8.2} {:>11.2} {:>7.2}",
            entry.id,
            entry.query,
            plain.gbps,
            with_stats.gbps,
            with_stats.gbps / plain.gbps
        );
    }
}

/// Skip-rate ablation (the paper's Table-6-style view, from the Tier C
/// profiler): per dataset × query, the bytes each skipping technique
/// elided, the aggregate skip rate, and throughput.
///
/// Also checks the profiler's byte accounting: blocks classified by the
/// structural, depth, and seek classifiers plus the bytes the `memmem`
/// head start elided must add up to the block-padded document size. Each
/// resume handoff can double-count up to two blocks — the sub-run's
/// classification starts on the block grid (before the value byte the
/// elided span runs up to) and ends past the close (inside the next
/// elided span) — so the tolerance is two blocks per handoff plus the
/// final-block padding; for queries with no head start the identity is
/// exact up to the final block.
fn skip_ablation(report: &mut Report) {
    use rsq_engine::SkipTechnique;
    heading("Skip ablation (Table 6 style): bytes skipped per technique");
    println!(
        "{:<5} {:<34} {:>6} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "id", "query", "GB/s", "skip%", "leaf", "child", "sibling", "label", "memmem"
    );
    for id in ["B1", "W2", "B3r", "Wir", "A2", "Tsr", "C2r"] {
        let entry = by_id(id).expect("known id");
        let engine = Engine::from_text(entry.query).expect("catalog query compiles");
        let input = dataset(entry.dataset);
        let mut sink = CountSink::new();
        let mut profile = rsq_engine::ProfileStats::for_document(input.len());
        engine
            .try_run_with_recorder(input, &mut sink, &mut profile)
            .expect("catalog run succeeds");
        assert_eq!(
            sink.count(),
            profile.stats.matches,
            "profiled run disagrees with its own stats on {id}"
        );
        assert!(
            profile.bytes_skipped.total() > 0,
            "no bytes skipped on {id} — the paper predicts skipping dominates here"
        );

        // Byte-accounting identity: every byte is either structurally
        // classified (structural/depth/seek blocks) or elided by the
        // memmem head start, up to two blocks of slack per resume handoff
        // plus the final partial block.
        let covered = (profile.stats.blocks.structural
            + profile.stats.blocks.depth
            + profile.stats.blocks.seek)
            * 64;
        let padded = (input.len() as u64).div_ceil(64) * 64;
        let slack = 64 * (2 * profile.stats.resume_handoffs + 1);
        let accounted = covered + profile.bytes_skipped.memmem;
        assert!(
            accounted.abs_diff(padded) <= slack,
            "byte accounting broken on {id}: classified {covered} + memmem \
             {} = {accounted}, document {padded} (±{slack})",
            profile.bytes_skipped.memmem
        );

        let m = measure(input.len(), REPS, || engine.count(input));
        println!(
            "{:<5} {:<34} {:>6.2} {:>6.1}% {:>12} {:>12} {:>12} {:>12} {:>12}",
            entry.id,
            entry.query,
            m.gbps,
            profile.skip_rate_pct(),
            profile.bytes_skipped.get(SkipTechnique::Leaf),
            profile.bytes_skipped.get(SkipTechnique::Child),
            profile.bytes_skipped.get(SkipTechnique::Sibling),
            profile.bytes_skipped.get(SkipTechnique::Label),
            profile.bytes_skipped.get(SkipTechnique::Memmem),
        );
        report.push(ReportEntry {
            experiment: "skip-ablation".to_owned(),
            name: entry.id.to_owned(),
            query: Some(entry.query.to_owned()),
            input_bytes: input.len() as u64,
            count: m.count,
            gbps: m.gbps,
            speedup: None,
            stats: Some(profile.stats),
            bytes_skipped: Some(profile.bytes_skipped),
            latency: None,
            cycles_per_byte: None,
            instructions_per_byte: None,
        });
    }
}
