//! Regenerates the paper's result tables as plain text, and checks them.
//!
//! ```sh
//! cargo run --release -p rsq-bench --bin experiments -- all
//! cargo run --release -p rsq-bench --bin experiments -- a b c d
//! RSQ_DATASET_MB=4 cargo run --release -p rsq-bench --bin experiments -- check
//! ```
//!
//! Subcommands: `table2`, `table3`, `a`, `b`, `c`, `d`, `appendix-c`,
//! `semantics`, `ablations`, `fast-path`, `mmap-ingest`,
//! `stats-overhead`, `skip-ablation`, `batch-scaling`, `serve-latency`,
//! `telemetry-overhead`, `all`, `check`, and `instructions` (not in
//! `all`: it steps for minutes).
//!
//! Every throughput cell is timed by [`rsq_bench::time_row`]: the
//! configurations of a row run interleaved, every rep must report the
//! same match count, and a cell is the lower decile of its reps. Tables 2
//! and 4–7 time the paper's algorithm: the `rsq` column runs with the
//! route forced general; `routed` is the engine as the CLI runs it.
//!
//! `check` regenerates Tables 2, 4–7, Appendix D and the ablations, then
//! evaluates every shape of [`rsq_bench::SHAPES`] on the cells and exits
//! non-zero when a gated shape does not hold.
//!
//! `dump-corpus <dir>` is not a benchmark: it materializes every catalog
//! dataset as `<dir>/<letter>.json` plus a `catalog.tsv` manifest
//! (`id <TAB> file <TAB> query`) so shell harnesses — the fast-path
//! parity gate in `scripts/ci.sh` — can drive the CLI over the full
//! query catalog without re-deriving it. Dataset sizes follow
//! `RSQ_DATASET_MB` like every other subcommand.
//!
//! `fast-path` measures every catalog query the compile-time shape
//! analyzer lets take the memmem-led walker: on the walker, with the
//! route forced general, and as the engine's probe chooses, asserting
//! position-for-position parity.
//!
//! `skip-ablation` reproduces the paper's Table-6-style skip-rate view
//! from the Tier C profiler: per dataset × query, the bytes each skipping
//! technique elided, the aggregate skip rate, and throughput — and it
//! checks the byte-accounting identity (classified + memmem-elided bytes
//! equal the padded document size).
//!
//! `instructions` counts instructions per byte with `rsq-perf`'s stepping
//! meter at `RSQ_METER_KB` KiB per row (256 by default; DESIGN.md §16):
//! `instructions [ROW...]` for every Table 4 row (or those named),
//! `--split ROW` by source file, `--seeded ROW` for the CI lane's
//! seeded +2 % pass, `--command CMD [ARG...]` for any command.
//!
//! `batch-scaling` sweeps worker threads over an NDJSON corpus through
//! `rsq-batch`; the sweep's upper bound is the host's available
//! parallelism, overridable with `RSQ_BENCH_MAX_THREADS` (useful on
//! CI runners that report a single CPU).

use rsq_baselines::{SkiEngine, SurferEngine};
use rsq_bench::{dataset, get, put, time_row, Cells, Run, Verdict, SHAPES};
use rsq_datagen::catalog::{by_id, catalog};
use rsq_datagen::{Dataset, GenConfig};
use rsq_engine::{CountSink, Engine, EngineOptions, Input, NoStats, ProfileStats, RouteChoice};
use rsq_query::Query;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const REPS: usize = 5;

fn main() {
    let mut subcommands: Vec<String> = Vec::new();
    let mut ran_utility = false;
    let mut failed = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "instructions" {
            failed |= !instructions(&it.by_ref().collect::<Vec<_>>());
            ran_utility = true;
        } else if arg == "dump-corpus" {
            let Some(dir) = it.next() else {
                eprintln!("dump-corpus requires a directory");
                std::process::exit(2);
            };
            dump_corpus(&dir);
            ran_utility = true;
        } else {
            subcommands.push(arg);
        }
    }
    if subcommands.is_empty() && !ran_utility {
        subcommands.push("all".to_owned());
    }
    for arg in &subcommands {
        match arg.as_str() {
            "table2" => drop(table2()),
            "table3" => table3(),
            "a" => drop(experiment_a()),
            "b" => drop(experiment_b()),
            "c" => drop(experiment_c()),
            "d" => drop(experiment_d()),
            "appendix-c" => appendix_c(),
            "semantics" => drop(semantics()),
            "ablations" => drop(ablations()),
            "fast-path" => fast_path(),
            "mmap-ingest" => mmap_ingest(),
            "stats-overhead" => stats_overhead(),
            "skip-ablation" => skip_ablation(),
            "batch-scaling" => batch_scaling(),
            "serve-latency" => serve_latency(),
            "telemetry-overhead" => telemetry_overhead(),
            "check" => failed |= !check(),
            "all" => {
                drop(table2());
                table3();
                drop(experiment_a());
                drop(experiment_b());
                drop(experiment_c());
                drop(experiment_d());
                appendix_c();
                drop(semantics());
                drop(ablations());
                fast_path();
                mmap_ingest();
                stats_overhead();
                skip_ablation();
                batch_scaling();
                serve_latency();
                telemetry_overhead();
            }
            other => {
                eprintln!("unknown subcommand {other:?}");
                std::process::exit(2);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// The engine options of the paper's algorithm: the route forced
/// general, every §3–§4 technique on.
fn general() -> EngineOptions {
    EngineOptions {
        route: RouteChoice::General,
        ..EngineOptions::default()
    }
}

fn compile(query: &str, options: EngineOptions) -> Engine {
    let query = Query::parse(query).expect("catalog query parses");
    Engine::with_options(&query, options).expect("catalog query compiles")
}

/// Times one row and records its cells under `row`, by configuration
/// label; returns the row's match count.
fn record(cells: &mut Cells, row: &str, bytes: usize, mut runs: Vec<Run<'_>>) -> u64 {
    let timed = time_row(bytes, REPS, &mut runs);
    for ((label, _), cell) in runs.iter().zip(&timed) {
        put(cells, row, label, cell.gbps);
    }
    timed[0].count
}

fn gbps(cells: &Cells, row: &str, column: &str) -> String {
    get(cells, row, column).map_or_else(|| "-".to_owned(), |v| format!("{v:.2}"))
}

/// Table 2: naive classification cost grows with the number of accepted
/// symbols; the nibble-lookup method stays flat. Cells are ns per block.
fn table2() -> Cells {
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
    let mut cells = Cells::new();
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
        let classify = |c: &ByteClassifier| {
            let mut acc = 0u64;
            for chunk in data.chunks_exact(BLOCK_SIZE) {
                let block: &rsq_simd::Block = chunk.try_into().expect("sized");
                acc ^= c.classify_block(simd, block);
            }
            u64::from(acc.count_ones())
        };
        let timed = time_row(
            data.len(),
            REPS,
            &mut [
                ("naive", Box::new(|| classify(&naive))),
                ("lookup", Box::new(|| classify(&smart))),
            ],
        );
        let ns = |i: usize| timed[i].secs / blocks as f64 * 1e9;
        put(&mut cells, &k.to_string(), "naive", ns(0));
        put(&mut cells, &k.to_string(), "lookup", ns(1));
        println!(
            "{:>8} {:>12.2} {:>12.2} {:>10}",
            k,
            ns(0),
            ns(1),
            smart.strategy().to_string()
        );
    }
    cells
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

/// The engine columns of Tables 4–6 and Appendix C.
const COLUMNS: [&str; 5] = ["rsq", "routed", "unchecked", "jsonski*", "jsurfer*"];

/// One row per catalog query: `rsq` is the paper's algorithm (general
/// route), `routed` the engine as the CLI runs it, `unchecked` the
/// paper's skip-to-label without quote validation (descendant queries
/// only), `jsonski*` where JSONSki supports the query, and `jsurfer*`.
fn run_table(title: &str, ids: &[&str]) -> Cells {
    heading(title);
    print!("{:<5} {:<42} {:>8}", "id", "query", "matches");
    for column in COLUMNS {
        print!(" {column:>9}");
    }
    println!();
    let mut cells = Cells::new();
    for id in ids {
        let entry = by_id(id).unwrap_or_else(|| panic!("unknown id {id}"));
        let input = dataset(entry.dataset);
        let rsq = compile(entry.query, general());
        let routed = compile(entry.query, EngineOptions::default());
        let unchecked = Query::parse(entry.query)
            .is_ok_and(|q| q.has_descendants())
            .then(|| {
                let options = EngineOptions {
                    checked_head_start: false,
                    ..general()
                };
                compile(entry.query, options)
            });
        let ski = SkiEngine::from_text(entry.query).ok();
        let surfer = SurferEngine::from_text(entry.query).expect("catalog query compiles");
        let mut runs: Vec<Run<'_>> = vec![
            ("rsq", Box::new(|| rsq.count(input))),
            ("routed", Box::new(|| routed.count(input))),
            ("jsurfer*", Box::new(|| surfer.count(input))),
        ];
        if let Some(e) = &unchecked {
            runs.push(("unchecked", Box::new(|| e.count(input))));
        }
        if let Some(e) = &ski {
            runs.push(("jsonski*", Box::new(|| e.count(input))));
        }
        let matches = record(&mut cells, id, input.len(), runs);
        print!("{id:<5} {:<42} {matches:>8}", entry.query);
        for column in COLUMNS {
            print!(" {:>9}", gbps(&cells, id, column));
        }
        println!();
    }
    cells
}

/// Experiment A (Table 4 / Figure 4): descendant-free queries.
fn experiment_a() -> Cells {
    run_table(
        "Experiment A (Table 4, Figure 4): descendant-free queries (GB/s)",
        &rsq_bench::TABLE4,
    )
}

/// Experiment B (Table 5 / Figure 5): rewritings with descendants.
fn experiment_b() -> Cells {
    let ids: Vec<&str> = rsq_bench::REWRITINGS
        .iter()
        .flat_map(|(o, r)| [*o, *r])
        .collect();
    run_table(
        "Experiment B (Table 5, Figure 5): descendant rewritings vs originals (GB/s)",
        &ids,
    )
}

/// Experiment C (Table 6 / Figure 6): limits and opportunities.
fn experiment_c() -> Cells {
    run_table(
        "Experiment C (Table 6, Figure 6): limits and opportunities (GB/s)",
        &rsq_bench::TABLE6,
    )
}

/// Experiment D (Table 7): throughput vs document size, on the general
/// route.
fn experiment_d() -> Cells {
    heading("Experiment D (Table 7): $..affiliation..name on Crossref fragments");
    let base = rsq_datagen::default_target_bytes();
    let engine = compile("$..affiliation..name", general());
    println!("{:>10} {:>10} {:>8}", "size [MB]", "matches", "GB/s");
    let mut cells = Cells::new();
    for mult in [1, 2, 4, 8] {
        let bytes = Dataset::Crossref
            .generate(&GenConfig {
                target_bytes: base * mult / 4,
                seed: rsq_bench::BENCH_SEED,
            })
            .into_bytes();
        let cell = time_row(
            bytes.len(),
            REPS,
            &mut [("rsq", Box::new(|| engine.count(&bytes)))],
        )[0];
        put(&mut cells, &format!("x{mult}"), "rsq", cell.gbps);
        println!(
            "{:>10.1} {:>10} {:>8.2}",
            bytes.len() as f64 / 1e6,
            cell.count,
            cell.gbps
        );
    }
    cells
}

/// The full Appendix C matrix.
fn appendix_c() {
    let ids: Vec<&'static str> = catalog().iter().map(|e| e.id).collect();
    run_table("Appendix C: full result matrix (GB/s)", &ids);
}

/// Appendix D / Table 9: node vs path semantics on the witness query.
fn semantics() -> Verdict {
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
    let names = |semantics| -> Vec<String> {
        rsq_baselines::evaluate(&query, &dom, semantics)
            .into_iter()
            .map(|s| String::from_utf8_lossy(&doc[s.start..s.end]).into_owned())
            .collect()
    };
    let node = names(rsq_baselines::Semantics::Node);
    let path = names(rsq_baselines::Semantics::Path);
    println!("{:<34} {node:?}", "node semantics (rsq, 6/44 impls)");
    println!("{:<34} {path:?}", "path semantics (34/44 impls)");
    let streamed = Engine::from_text("$..person..name")
        .expect("query compiles")
        .count(doc);
    println!("streaming engine match count: {streamed}");
    rsq_bench::semantics_exact(&node, &path, streamed)
}

/// Ablations: each design choice of §3–§4 disabled in turn (DESIGN.md
/// §5), on the general route — the memmem walker has none of these
/// switches. One row per query, the variants interleaved.
fn ablations() -> Cells {
    heading("Ablations: feature off → GB/s (per query, general route)");
    let d = general();
    let variants: [(&str, EngineOptions); 10] = [
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
    let mut cells = Cells::new();
    for id in queries {
        let entry = by_id(id).expect("known id");
        let input = dataset(entry.dataset);
        let engines: Vec<Engine> = variants
            .iter()
            .map(|(_, options)| compile(entry.query, *options))
            .collect();
        let runs = variants
            .iter()
            .zip(&engines)
            .map(|((name, _), e)| -> Run<'_> { (name, Box::new(|| e.count(input))) })
            .collect();
        record(&mut cells, id, input.len(), runs);
    }
    print!("{:<22}", "variant");
    for id in queries {
        print!(" {id:>7}");
    }
    println!();
    for (name, _) in variants {
        print!("{name:<22}");
        for id in queries {
            print!(" {:>7}", gbps(&cells, id, name));
        }
        println!();
    }
    cells
}

/// Fast-path routing (DESIGN.md §15): every catalog query whose compiled
/// shape may take the memmem-led walker, timed on the walker (the shape
/// rule alone), on the general main loop, and as the engine chooses —
/// the probe's events per KiB beside it. The three configurations must
/// report byte-identical positions. The last column is the chosen
/// configuration over the route it did not take.
fn fast_path() {
    use rsq_engine::Route;
    heading("Fast-path routing: memmem-led walker vs general main loop, and the probe's choice");
    println!(
        "{:<5} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "id", "ev/KiB", "chosen", "walker", "general", "chosen", "vs other"
    );
    let mut routed = 0usize;
    for entry in catalog() {
        let chosen = compile(entry.query, EngineOptions::default());
        if chosen.route() == Route::General {
            continue;
        }
        routed += 1;
        let walker = chosen.clone().routed_by_shape();
        let general = compile(entry.query, general());
        let input = dataset(entry.dataset);
        // Parity first: the routes must agree position for position, not
        // just on counts.
        let positions = |engine: &Engine| engine.positions(input);
        let expected = positions(&general);
        for engine in [&walker, &chosen] {
            assert_eq!(
                positions(engine),
                expected,
                "routes disagree on {}",
                entry.id
            );
        }
        // What the probe sees: the general loop over the first 16 KiB.
        let head = &input[..input.len().min(16 << 10)];
        let probe = general
            .try_run_with_stats(head, &mut CountSink::new())
            .expect("no limits are configured");
        let per_kib = probe.events as f64 * 1024.0 / head.len() as f64;
        let taken = chosen
            .try_run_with_stats(input, &mut CountSink::new())
            .expect("no limits are configured")
            .route;
        let timed = time_row(
            input.len(),
            REPS,
            &mut [
                ("walker", Box::new(|| walker.count(input))),
                ("general", Box::new(|| general.count(input))),
                ("chosen", Box::new(|| chosen.count(input))),
            ],
        );
        let other = if taken == Route::General {
            timed[0].gbps
        } else {
            timed[1].gbps
        };
        println!(
            "{:<5} {:>8.1} {:>10} {:>8.2} {:>8.2} {:>8.2} {:>7.2}x",
            entry.id,
            per_kib,
            taken.to_string(),
            timed[0].gbps,
            timed[1].gbps,
            timed[2].gbps,
            timed[2].gbps / other,
        );
    }
    assert!(routed >= 2, "expected several routed catalog queries");
}

/// Zero-copy ingest: end-to-end (load + query) throughput of a
/// multi-megabyte on-disk document, read into a heap buffer vs copied
/// into the huge-page [`rsq_mmap::Region`] the drivers land copies in vs
/// mapped read-only by `rsq-mmap` (DESIGN.md §15). Match counts must be
/// identical every way.
fn mmap_ingest() {
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
    let timed = time_row(
        input.len(),
        REPS,
        &mut [
            (
                "read",
                Box::new(|| engine.count(&std::fs::read(&path).expect("buffered read succeeds"))),
            ),
            (
                "region",
                Box::new(|| {
                    let file = std::fs::File::open(&path).expect("dataset opens");
                    let region: Region =
                        rsq_engine::read_to_end(file, None, None).expect("region copy succeeds");
                    engine.count(&region)
                }),
            ),
            (
                "mmap",
                Box::new(|| {
                    engine.count(&rsq_mmap::load(&path, MapPolicy::On).expect("mapped load"))
                }),
            ),
        ],
    );
    std::fs::remove_file(&path).expect("temp dataset removed");
    println!("{:<5} {:<7} {:>9} {:>9}", "id", "mode", "GB/s", "speedup");
    for (tag, cell) in ["read", "region", "mmap"].into_iter().zip(&timed) {
        println!(
            "{:<5} {:<7} {:>9.2} {:>8.2}x",
            entry.id,
            tag,
            cell.gbps,
            cell.gbps / timed[0].gbps
        );
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

/// An NDJSON corpus of up to `max_docs` compacted 64 KB documents of the
/// B1 query's dataset, `total` bytes at most; returns the query too.
fn ndjson_corpus(total: usize, max_docs: usize) -> (&'static str, usize, Vec<u8>) {
    let entry = by_id("B1").expect("catalog has B1");
    let doc_target = 64 * 1024;
    let doc_count = (total / doc_target).clamp(8, max_docs);
    let mut corpus: Vec<u8> = Vec::with_capacity(doc_count * doc_target);
    for i in 0..doc_count {
        let doc = entry.dataset.generate(&GenConfig {
            target_bytes: doc_target,
            seed: rsq_bench::BENCH_SEED ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        corpus.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        corpus.push(b'\n');
    }
    (entry.query, doc_count, corpus)
}

/// Batch scaling: the sharded multi-document engine (`rsq-batch`) over
/// an NDJSON corpus, sweeping worker-thread counts. Every configuration
/// must produce outcomes identical to the single-threaded run; the rows
/// record throughput plus speedup relative to one thread.
fn batch_scaling() {
    use rsq_batch::{BatchEngine, BatchOptions};
    heading("Batch scaling: NDJSON corpus, worker threads vs throughput");
    // Many small documents, so that sharding (not one long document)
    // dominates.
    let (query, doc_count, corpus) = ndjson_corpus(rsq_datagen::default_target_bytes(), 512);
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
        "{:>8} {:>10} {:>8} {:>8} {:>13}",
        "threads", "matches", "GB/s", "speedup", "queue claims"
    );
    let engines: Vec<BatchEngine> = sweep
        .iter()
        .map(|&threads| {
            BatchEngine::new(BatchOptions {
                threads,
                ..BatchOptions::default()
            })
        })
        .collect();
    // Outcome identity across thread counts (the batch crate's own tests
    // cover this; re-asserting here keeps the benchmark honest about what
    // it measures).
    let results: Vec<_> = engines
        .iter()
        .map(|e| e.run_slices(query, &docs).expect("catalog query compiles"))
        .collect();
    for (threads, result) in sweep.iter().zip(&results) {
        assert_eq!(
            format!("{:?}", results[0].outcomes),
            format!("{:?}", result.outcomes),
            "batch outcomes changed at {threads} threads"
        );
    }
    let labels: Vec<String> = sweep.iter().map(|t| format!("threads-{t}")).collect();
    let mut runs: Vec<Run<'_>> = labels
        .iter()
        .zip(&engines)
        .map(|(label, e)| -> Run<'_> {
            let run = || {
                e.run_slices(query, &docs)
                    .expect("catalog query compiles")
                    .total_count()
            };
            (label.as_str(), Box::new(run))
        })
        .collect();
    let timed = time_row(corpus.len(), REPS, &mut runs);
    for ((threads, result), cell) in sweep.iter().zip(&results).zip(&timed) {
        println!(
            "{:>8} {:>10} {:>8.2} {:>7.2}x {:>13}",
            threads,
            cell.count,
            cell.gbps,
            cell.gbps / timed[0].gbps,
            result.counters.queue_claims
        );
    }
}

/// Serve-mode latency under load (DESIGN.md §12): the same NDJSON corpus
/// as `batch-scaling` streamed through the serving shell, per-document
/// latency quantiles from the last rep's histogram. Two client
/// profiles: a smooth pipe (whole-buffer reads) and a pathologically
/// fragmented one (17-byte chunks with transient stalls — the framer
/// carries state across every boundary).
fn serve_latency() {
    use rsq_serve::{serve_connection, ChaosPlan, ResponseMode, ServeOptions, ServeReport};

    heading("Serve latency: NDJSON stream through the serving shell, p50/p99 per document");
    let total = rsq_datagen::default_target_bytes().min(32 * 1024 * 1024);
    let (query, doc_count, corpus) = ndjson_corpus(total, 256);
    println!(
        "{} documents, {:.1} MB; query {}",
        doc_count,
        corpus.len() as f64 / 1e6,
        query
    );
    println!(
        "{:>12} {:>8} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "client", "ok", "GB/s", "p50(us)", "p99(us)", "max(us)", "waits"
    );

    let smooth = ChaosPlan::smooth(rsq_bench::BENCH_SEED);
    let fragmented = ChaosPlan {
        max_chunk: 17,
        stall_octile: 1,
        ..smooth
    };
    let profiles: [(&str, ChaosPlan); 2] = [("smooth", smooth), ("fragmented", fragmented)];
    let mut last: [Option<ServeReport>; 2] = [None, None];
    // Responses must not depend on the client's fragmentation: every
    // profile answers as many documents.
    let mut runs: Vec<Run<'_>> = profiles
        .iter()
        .zip(last.iter_mut())
        .map(|(&(name, plan), slot)| -> Run<'_> {
            let options = ServeOptions {
                mode: ResponseMode::Count,
                ..ServeOptions::new(query)
            };
            let corpus = &corpus;
            let run = move || {
                let reader = rsq_serve::ChaosStream::new(corpus, plan);
                let outcome = serve_connection(&options, reader, Vec::new(), std::io::sink())
                    .expect("catalog query compiles");
                assert!(outcome.clean, "bench stream must drain cleanly");
                assert_eq!(
                    outcome.first_failure, None,
                    "bench corpus must serve without per-document errors"
                );
                let ok = outcome.counters.responses_ok;
                *slot = Some(outcome);
                ok
            };
            (name, Box::new(run))
        })
        .collect();
    let timed = time_row(corpus.len(), REPS, &mut runs);
    drop(runs);
    for (((name, _), outcome), cell) in profiles.iter().zip(&last).zip(&timed) {
        let outcome = outcome.as_ref().expect("every profile ran");
        let latency = &outcome.latency;
        println!(
            "{:>12} {:>8} {:>8.2} {:>10.1} {:>10.1} {:>10.1} {:>6}",
            name,
            cell.count,
            cell.gbps,
            latency.p50() as f64 / 1e3,
            latency.p99() as f64 / 1e3,
            latency.max() as f64 / 1e3,
            outcome.counters.backpressure_waits,
        );
    }
}

/// Live-telemetry ablation (DESIGN.md §13): the same smooth NDJSON
/// stream served through `serve_connection_with`, with no telemetry hub
/// and with the live hub a `--telemetry-socket` server feeds,
/// interleaved. The telemetry tax is two clock reads around each run and
/// one short mutex hold per response; the budget is 2 %.
fn telemetry_overhead() {
    use rsq_serve::{serve_connection_with, ChaosPlan, ResponseMode, ServeOptions, Telemetry};

    heading("Telemetry overhead: serve_connection with and without a live hub (GB/s)");
    let total = rsq_datagen::default_target_bytes().min(8 * 1024 * 1024);
    let (query, _, corpus) = ndjson_corpus(total, 128);
    let options = ServeOptions {
        mode: ResponseMode::Count,
        ..ServeOptions::new(query)
    };
    let hub = Telemetry::new();
    let serve_pass = |hub: Option<&std::sync::Arc<Telemetry>>| -> u64 {
        let reader = rsq_serve::ChaosStream::new(&corpus, ChaosPlan::smooth(rsq_bench::BENCH_SEED));
        let outcome = serve_connection_with(&options, hub, reader, Vec::new(), std::io::sink())
            .expect("catalog query compiles");
        assert!(outcome.clean, "bench stream must drain cleanly");
        assert_eq!(outcome.first_failure, None, "bench corpus serves cleanly");
        outcome.counters.responses_ok
    };
    let timed = time_row(
        corpus.len(),
        REPS,
        &mut [
            ("off", Box::new(|| serve_pass(None))),
            ("on", Box::new(|| serve_pass(Some(&hub)))),
        ],
    );
    let ratio = timed[1].gbps / timed[0].gbps;
    println!("{:>8} {:>8} {:>8} {:>7}", "docs", "off", "on", "on/off");
    println!(
        "{:>8} {:>8.2} {:>8.2} {:>7.3}{}",
        timed[0].count,
        timed[0].gbps,
        timed[1].gbps,
        ratio,
        if ratio >= 0.98 {
            ""
        } else {
            "  (over the 2 % budget)"
        }
    );
}

/// Observability ablation (DESIGN.md §8, §11): `try_run` vs
/// `try_run_with_stats` vs a run recorded into a `ProfileStats`. Tier A
/// statistics are gathered by monomorphising the inner loops over a
/// recorder, so the first two must be throughput-indistinguishable; the
/// profile adds byte-span accounting and one clock read per stage.
fn stats_overhead() {
    heading("Stats overhead: try_run vs Tier A stats vs the Tier C profile (GB/s)");
    println!(
        "{:<5} {:<42} {:>8} {:>11} {:>7} {:>13} {:>7}",
        "id", "query", "plain", "with-stats", "ratio", "with-profile", "ratio"
    );
    for id in ["B1", "W2", "B3r", "Wir", "A2", "C2r"] {
        let entry = by_id(id).expect("known id");
        let engine = Engine::from_text(entry.query).expect("catalog query compiles");
        let input = dataset(entry.dataset);
        let timed = time_row(
            input.len(),
            REPS,
            &mut [
                (
                    "plain",
                    Box::new(|| {
                        let mut sink = CountSink::new();
                        engine
                            .exec(Input::Slice(input), &mut sink, &mut NoStats)
                            .expect("catalog run succeeds");
                        sink.count()
                    }),
                ),
                (
                    "with-stats",
                    Box::new(|| {
                        let mut sink = CountSink::new();
                        engine
                            .try_run_with_stats(input, &mut sink)
                            .expect("catalog run succeeds");
                        sink.count()
                    }),
                ),
                (
                    "with-profile",
                    Box::new(|| {
                        let mut sink = CountSink::new();
                        engine
                            .exec(Input::Slice(input), &mut sink, &mut ProfileStats::new())
                            .expect("catalog run succeeds");
                        sink.count()
                    }),
                ),
            ],
        );
        println!(
            "{:<5} {:<42} {:>8.2} {:>11.2} {:>7.2} {:>13.2} {:>7.2}",
            entry.id,
            entry.query,
            timed[0].gbps,
            timed[1].gbps,
            timed[1].gbps / timed[0].gbps,
            timed[2].gbps,
            timed[2].gbps / timed[0].gbps
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
fn skip_ablation() {
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
        let mut profile = ProfileStats::new();
        engine
            .exec(Input::Slice(input), &mut sink, &mut profile)
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
        // memmem head start, up to one block of slack per resume handoff
        // plus the final partial block: one cursor classifies each block
        // once, so only the value's and the exit's boundary blocks are
        // split between a sub-run and the memmem spans around it.
        let covered = (profile.stats.blocks.structural
            + profile.stats.blocks.depth
            + profile.stats.blocks.seek)
            * 64;
        let padded = (input.len() as u64).div_ceil(64) * 64;
        let slack = 64 * (profile.stats.resume_handoffs + 1);
        let accounted = covered + profile.bytes_skipped.memmem;
        assert!(
            accounted.abs_diff(padded) <= slack,
            "byte accounting broken on {id}: classified {covered} + memmem \
             {} = {accounted}, document {padded} (±{slack})",
            profile.bytes_skipped.memmem
        );

        let timed = time_row(
            input.len(),
            REPS,
            &mut [("rsq", Box::new(|| engine.count(input)))],
        );
        println!(
            "{:<5} {:<34} {:>6.2} {:>6.1}% {:>12} {:>12} {:>12} {:>12} {:>12}",
            entry.id,
            entry.query,
            timed[0].gbps,
            profile.skip_rate_pct(),
            profile.bytes_skipped.get(SkipTechnique::Leaf),
            profile.bytes_skipped.get(SkipTechnique::Child),
            profile.bytes_skipped.get(SkipTechnique::Sibling),
            profile.bytes_skipped.get(SkipTechnique::Label),
            profile.bytes_skipped.get(SkipTechnique::Memmem),
        );
    }
}

/// The reproduction gate: regenerates every table a shape of
/// [`SHAPES`] reads, evaluates each shape and Appendix D's sequences,
/// and returns whether every gated one holds.
fn check() -> bool {
    let mut ids: Vec<&str> = Vec::new();
    let rewritten = rsq_bench::REWRITINGS.iter().map(|p| p.1);
    for id in rsq_bench::TABLE4
        .into_iter()
        .chain(rewritten)
        .chain(rsq_bench::TABLE6)
        .chain(rsq_bench::ROUTED)
    {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    let mut cells = table2();
    cells.extend(run_table(
        "Check: Experiments A–C and the routed rows (GB/s)",
        &ids,
    ));
    cells.extend(experiment_d());
    cells.extend(ablations());
    let mut verdicts: Vec<Verdict> = SHAPES.iter().map(|s| s.eval(&cells)).collect();
    verdicts.push(semantics());
    heading("Check: the reproduction summary as shapes");
    let mut failed = 0;
    for v in &verdicts {
        let status = match (v.gated, v.holds) {
            (true, true) => "holds",
            (true, false) => {
                failed += 1;
                "FAILS"
            }
            (false, true) => "unresolved (holds)",
            (false, false) => "unresolved (fails)",
        };
        println!("{:<24} {:<19} {}", v.name, status, v.detail);
    }
    println!(
        "check: {} shapes, {failed} gated shape(s) failed",
        verdicts.len()
    );
    failed == 0
}

/// The `instructions` subcommand's usage, printed for an argument it
/// does not take.
const INSTRUCTIONS_USAGE: &str = "usage: experiments instructions [ROW...] | --split ROW \
     | --seeded ROW | --command CMD [ARG...]   (ROW: a catalog id, e.g. B1)";

/// The `instructions` subcommand (see the module docs); `false` when the
/// seeded pass was not flagged. Exits 2 with the usage on a row that is
/// not a catalog id.
fn instructions(args: &[String]) -> bool {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let rows = match args.as_slice() {
        ["--child", _, _, _] | ["--command", _, ..] => &[][..],
        ["--seeded" | "--split", row] => std::slice::from_ref(row),
        [flag, ..] if flag.starts_with('-') => &[*flag][..],
        rows => rows,
    };
    if rows.iter().any(|row| by_id(row).is_none()) {
        eprintln!("{INSTRUCTIONS_USAGE}");
        std::process::exit(2);
    }
    match args.as_slice() {
        ["--child", config, row, file] => meter_child(config, row, file),
        ["--command", command, args @ ..] => {
            let mut cmd = Command::new(command);
            cmd.args(args).stdout(Stdio::null());
            let steps = rsq_perf::step(&mut cmd, false).unwrap_or_else(|e| panic!("{e}"));
            let (n, strings) = (steps.instructions, steps.string_iterations);
            println!("instructions {n} string_iterations {strings}");
        }
        ["--seeded", row] => {
            let meter = Meter::new();
            let file = meter.write(row);
            let floor = meter.steps("rsq", row, &meter.floor, false).instructions;
            let net = |config| meter.steps(config, row, &file, false).instructions - floor;
            let (plain, seeded) = (net("rsq"), net("rsq+2%"));
            let ratio = seeded as f64 / plain as f64;
            println!("{row} over the floor: rsq {plain}, rsq+2% {seeded} ({ratio:.4}x)");
            return ratio >= 1.01;
        }
        ["--split", row] => meter_split(row),
        [] => meter_table(&rsq_bench::TABLE4),
        rows => meter_table(rows),
    }
    true
}

/// The child: runs one configuration of `row` over `file` and prints the
/// match count. `CONFIG+2%` runs a second pass over the first 2 % of the
/// document, the seeded extra work the meter lane must flag.
fn meter_child(config: &str, row: &str, file: &str) {
    let query = by_id(row).expect("a catalog id").query;
    let input = std::fs::read(file).expect("the child's document reads");
    let (config, seeded) = config
        .strip_suffix("+2%")
        .map_or((config, false), |c| (c, true));
    let engine = match config {
        "rsq" => Ok(compile(query, general())),
        "routed" => Ok(compile(query, EngineOptions::default())),
        "jsonski*" => Err(SkiEngine::from_text(query).expect("JSONSki runs the query")),
        other => panic!("unknown configuration {other}"),
    };
    let run = |doc: &[u8]| {
        engine
            .as_ref()
            .map_or_else(|ski| ski.count(doc), |e| e.count(doc))
    };
    let count = run(&input);
    if seeded {
        std::hint::black_box(run(&input[..input.len() / 50]));
    }
    println!("{count}");
}

/// The rows' documents, at `RSQ_METER_KB` KiB (256 by default), written
/// where the stepped children read them.
struct Meter {
    kb: usize,
    dir: PathBuf,
    /// `{}`: the floor every row's count is taken over.
    floor: PathBuf,
}

impl Meter {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("rsq-instructions-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let floor = dir.join("floor.json");
        std::fs::write(&floor, "{}").expect("floor document");
        let kb = std::env::var("RSQ_METER_KB").map_or(256, |kb| kb.parse().expect("KiB"));
        Meter { kb, dir, floor }
    }

    /// Writes `row`'s document at the meter's size.
    fn write(&self, row: &str) -> PathBuf {
        let entry = by_id(row).expect("a catalog id");
        let config = GenConfig {
            target_bytes: self.kb << 10,
            seed: rsq_bench::BENCH_SEED,
        };
        let path = self.dir.join(format!("{row}.json"));
        std::fs::write(&path, entry.dataset.generate(&config)).expect("row document");
        path
    }

    /// Steps this binary as the child `config row file`, with the
    /// stepped addresses when `sites` is set.
    fn steps(&self, config: &str, row: &str, file: &Path, sites: bool) -> rsq_perf::Steps {
        let mut child = Command::new(std::env::current_exe().expect("own path"));
        child
            .args(["instructions", "--child", config, row])
            .arg(file)
            .stdout(Stdio::null());
        rsq_perf::step(&mut child, sites).unwrap_or_else(|e| panic!("{config} {row}: {e}"))
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Instructions per byte over the floor, and string iterations per byte,
/// for every configuration of each row.
fn meter_table(rows: &[&str]) {
    let meter = Meter::new();
    heading(&format!(
        "Instructions per byte at {} KiB (over the floor; string iterations apart)",
        meter.kb
    ));
    println!(
        "{:<5} {:>9} {:>9} {:>9} {:>12}",
        "id", "rsq", "routed", "jsonski*", "string it/B"
    );
    for row in rows {
        let file = meter.write(row);
        let bytes = std::fs::metadata(&file).expect("row document").len() as f64;
        let ski = SkiEngine::from_text(by_id(row).expect("row id").query).is_ok();
        let mut line = format!("{row:<5}");
        let mut strings = 0;
        for config in ["rsq", "routed", "jsonski*"] {
            if config == "jsonski*" && !ski {
                line += &format!(" {:>9}", "-");
                continue;
            }
            let floor = meter.steps(config, row, &meter.floor, false);
            let run = meter.steps(config, row, &file, false);
            let per_byte = (run.instructions - floor.instructions) as f64 / bytes;
            line += &format!(" {per_byte:>9.4}");
            strings = strings.max(run.string_iterations - floor.string_iterations);
        }
        println!("{line} {:>12.3}", strings as f64 / bytes);
    }
}

/// `row`'s `rsq` instructions by the innermost workspace source file of
/// each stepped address, out of every instruction of the run (start-up
/// included). The child is this binary, which has to carry line tables:
/// build it with `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` into a
/// target directory of its own (line tables do not change the code).
fn meter_split(row: &str) {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let root = root.canonicalize().expect("workspace root");
    let bin = std::env::current_exe().expect("own path");
    let meter = Meter::new();
    let file = meter.write(row);
    let steps = meter.steps("rsq", row, &file, true);
    let len = std::fs::metadata(&bin).expect("binary").len();
    let offsets: Vec<_> = steps
        .sites
        .iter()
        .map(|(&rip, &n)| (rip.wrapping_sub(steps.exe_base), n))
        .collect();
    let inside = offsets.iter().filter(|&&(at, _)| at < len);
    let out = Command::new("addr2line")
        .args(["-a", "-i", "-e"])
        .arg(&bin)
        .args(inside.map(|(at, _)| format!("{at:#x}")))
        .output()
        .expect("addr2line runs");
    // Each address line is followed by its frames, innermost first.
    let mut file_of: HashMap<u64, String> = HashMap::new();
    let mut current = None;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        if let Some(hex) = line.strip_prefix("0x") {
            current = u64::from_str_radix(hex, 16).ok();
        } else if let Some(at) = current {
            let path = Path::new(line.rsplit_once(':').map_or(line, |(path, _)| path));
            let path = path.strip_prefix(&root).unwrap_or(path);
            if path.starts_with("crates") {
                file_of.insert(at, path.display().to_string());
                current = None;
            }
        }
    }
    assert!(!file_of.is_empty(), "{} has no line tables", bin.display());
    let mut by_file: HashMap<&str, u64> = HashMap::new();
    for (at, n) in offsets {
        let file = match file_of.get(&at) {
            _ if at >= len => "(outside the binary)",
            Some(file) => file,
            None => "(no workspace frame)",
        };
        *by_file.entry(file).or_default() += n;
    }
    let mut by_file: Vec<_> = by_file.into_iter().collect();
    by_file.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    heading(&format!(
        "{row}, rsq at {} KiB: {} instructions by innermost workspace source file",
        meter.kb, steps.instructions
    ));
    for (file, n) in by_file {
        let share = n as f64 * 100.0 / steps.instructions as f64;
        println!("{share:>6.2} %  {n:>10}  {file}");
    }
}
