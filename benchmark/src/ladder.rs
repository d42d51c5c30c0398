//! The traced pass: per-layer numbers, taken in-process from the
//! harness's own calls into each layer's public functions, with a span
//! around every call. Nothing here feeds an end-to-end metric.
//!
//! Three parts per workload, each under its own span of the workload's
//! root: the **ladder** (every layer alone over the workload's corpus,
//! [`REPS`] times, `stat::typical` reported), the **pipeline** (the layers chained
//! the way the `rsq` driver chains them for this workload), and the
//! **subprocess** reps that the in-process times are compared against.
//!
//! A metric whose layer is not on the workload's path reads 0 (the
//! `batch.*` metrics outside `batch-ndjson-t1`, say); the README lists
//! which is which.

use crate::child::{self, Env};
use crate::corpus::Corpus;
use crate::e2e;
use crate::json_out::Metric;
use crate::serve_load;
use crate::span::{SpanId, Tracer};
use crate::stat;
use crate::workload::{Kind, Workload};
use rsq_baselines::SurferEngine;
use rsq_batch::{BatchEngine, BatchOptions, Frame, NdjsonFramer};
use rsq_classify::{StructuralIterator, StructuralTables};
use rsq_engine::{CountSink, Engine, RunStats};
use rsq_memmem::Finder;
use rsq_mmap::MapPolicy;
use rsq_serve::ServeOptions;
use rsq_simd::{Block, QuoteState, Simd, BLOCK_SIZE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, LineWriter, Read, Write};
use std::time::Instant;

/// In-process repetitions per rung.
const REPS: usize = 5;
/// Subprocess repetitions per command.
const CLI_REPS: usize = 6;
/// Full open-loop reps of the serve workload in the traced pass.
const SERVE_REPS: usize = 2;
/// Reads of the chunked-reader rung, like a pipe delivers them.
const READER_CHUNK: usize = 64 * 1024;

pub struct Ladder {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    pub tracer: Tracer,
    pub corpus: Corpus,
}

/// A reader that hands out at most [`READER_CHUNK`] bytes per call.
struct ChunkReader<'a>(&'a [u8]);

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(READER_CHUNK);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

fn blocks(bytes: &[u8]) -> impl Iterator<Item = &Block> {
    bytes
        .chunks_exact(BLOCK_SIZE)
        .map(|chunk| chunk.try_into().expect("chunks_exact yields whole blocks"))
}

/// The server's configuration in `serve-socket-b1`.
fn serve_options(query: &str) -> ServeOptions {
    ServeOptions {
        threads: 1,
        ..ServeOptions::new(query)
    }
}

fn read_sum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes")))
        .fold(0, u64::wrapping_add)
}

/// State shared by the three parts of one workload's traced pass.
struct Pass<'a> {
    env: &'a Env,
    w: &'a Workload,
    corpus: &'a Corpus,
    tracer: Tracer,
    values: BTreeMap<&'static str, f64>,
    /// In-process seconds of the one layer the batch or serve driver wraps
    /// (`run_slices` on all cores, `serve_connection`); the subprocess part
    /// turns it into that driver's overhead share.
    driver_layer_secs: f64,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl Pass<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.faults.push(format!("{}: {}", self.w.name, what()));
        }
    }

    /// Runs `f` [`REPS`] times, each inside a span `name` under `parent`;
    /// returns the last result and the typical duration in seconds.
    fn rung<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        mut f: impl FnMut() -> T,
    ) -> (T, f64) {
        let mut secs = Vec::with_capacity(REPS);
        let mut last = None;
        for _ in 0..REPS {
            let (value, s) = self.tracer.time(name, parent, &mut f);
            secs.push(s);
            last = Some(value);
        }
        (last.expect("REPS > 0"), stat::typical(&secs))
    }

    fn gbps(&self, secs: f64) -> f64 {
        self.corpus.bytes.len() as f64 / secs / 1e9
    }

    /// Every layer alone over the corpus.
    fn ladder(&mut self) {
        let root = self.tracer.begin("ladder", Some(Tracer::ROOT));
        let corpus = self.corpus;
        let bytes = corpus.bytes.as_slice();
        let docs = corpus.slices();
        let matches = corpus.matches() as u64;
        let simd = Simd::detect();

        let (_, secs) = self.rung("host.read_sum", root, || read_sum(bytes));
        self.set("host.read_sum_gbps", self.gbps(secs));

        let mut touch_secs = Vec::new();
        let (_, secs) = self.rung("mmap.load", root, || {
            let input =
                rsq_mmap::load(&corpus.path, MapPolicy::Auto).expect("corpus file is readable");
            let start = Instant::now();
            black_box(read_sum(&input));
            touch_secs.push(start.elapsed().as_secs_f64());
        });
        // The rung's span covers load + first touch; the load alone is the
        // difference.
        let touch = stat::typical(&touch_secs);
        self.set("mmap.load_us", (secs - touch).max(0.0) * 1e6);
        self.set("mmap.first_touch_gbps", self.gbps(touch));

        let needle = format!("\"{}\"", self.w.first_label);
        let finder = Finder::new(needle.as_bytes());
        let (hits, secs) = self.rung("memmem.scan", root, || finder.find_iter(bytes).count());
        self.set("memmem.scan_gbps", self.gbps(secs));
        self.set("memmem.hits", hits as f64);

        let (_, secs) = self.rung("simd.quotes", root, || {
            let mut state = QuoteState::default();
            blocks(bytes).fold(0, |acc, block| {
                acc ^ simd.classify_quotes(block, &mut state)
            })
        });
        self.set("simd.quotes_gbps", self.gbps(secs));

        let tables = StructuralTables::new();
        let (_, secs) = self.rung("classify.structural", root, || {
            let mut state = QuoteState::default();
            blocks(bytes).fold(0u64, |acc, block| {
                let within = simd.classify_quotes(block, &mut state);
                acc + u64::from(tables.classify(simd, block, within).count_ones())
            })
        });
        self.set("classify.structural_gbps", self.gbps(secs));

        // Default toggles: every bracket, commas and colons off — the
        // cheapest complete structural pass, the floor under any engine
        // run that cannot skip.
        let (events, secs) = self.rung("classify.iterator", root, || {
            let mut iterator = StructuralIterator::new(bytes, simd);
            let mut events = 0u64;
            while iterator.next().is_some() {
                events += 1;
            }
            events
        });
        let iterator_gbps = self.gbps(secs);
        self.set("classify.iterator_gbps", iterator_gbps);
        self.set("classify.iterator_events", events as f64);

        let query = self.w.query;
        let (engine, secs) = self.rung("query.compile", root, || {
            Engine::from_text(query).expect("workload queries compile")
        });
        self.set("query.compile_us", secs * 1e6);

        let (count, count_secs) = self.rung("engine.count", root, || {
            docs.iter().map(|doc| engine.count(doc)).sum::<u64>()
        });
        self.check(count == matches, || {
            format!("Engine::count found {count}, the oracle {matches}")
        });
        self.set("engine.count_gbps", self.gbps(count_secs));
        self.set(
            "engine.frac_of_iterator",
            self.gbps(count_secs) / iterator_gbps,
        );

        let (found, secs) = self.rung("engine.positions", root, || {
            docs.iter()
                .map(|doc| engine.positions(doc))
                .collect::<Vec<_>>()
        });
        self.check(found == corpus.positions, || {
            "Engine::positions differs from the oracle".to_owned()
        });
        self.set("engine.positions_gbps", self.gbps(secs));

        let (read, secs) = self.rung("engine.read_document", root, || {
            engine
                .read_document(ChunkReader(bytes))
                .map(|doc| doc.len())
        });
        self.check(read.as_ref().ok() == Some(&bytes.len()), || {
            format!("Engine::read_document: {read:?}")
        });
        self.set("engine.read_document_gbps", self.gbps(secs));

        let (stats, secs) = self.rung("engine.run_with_stats", root, || {
            let mut total = RunStats::default();
            for doc in &docs {
                total += engine
                    .try_run_with_stats(doc, &mut CountSink::new())
                    .expect("no limits are configured");
            }
            total
        });
        self.check(stats.matches == matches, || {
            format!("RunStats.matches is {}", stats.matches)
        });
        self.set("obs.stats_overhead_pct", (secs / count_secs - 1.0) * 100.0);
        for (name, value) in [
            ("engine.matches", stats.matches),
            ("engine.blocks_classified", stats.blocks.total()),
            ("engine.events", stats.events),
            ("engine.skips_leaf", stats.skips.leaf),
            ("engine.skips_child", stats.skips.child),
            ("engine.skips_sibling", stats.skips.sibling),
            ("engine.skips_label", stats.skips.label),
            ("engine.memmem_jumps", stats.memmem_jumps),
            ("engine.memmem_declined", stats.memmem_declined),
            (
                "engine.route_general",
                u64::from(stats.route == rsq_engine::Route::General),
            ),
        ] {
            self.set(name, value as f64);
        }

        let (cut, secs) = self.rung("json.node_span", root, || {
            let mut cut = 0usize;
            for (doc, found) in docs.iter().zip(&corpus.positions) {
                for &pos in found {
                    cut += rsq_json::node_span(doc, pos).map_or(0, |span| span.len());
                }
            }
            cut
        });
        black_box(cut);
        self.set(
            "json.node_span_ns_per_match",
            secs * 1e9 / matches.max(1) as f64,
        );

        // Once: the scalar evaluator takes longer than all rungs above
        // together, and the oracle answers already came from it.
        let surfer = SurferEngine::from_text(query).expect("workload queries compile");
        let (count, secs) = self.tracer.time("baselines.surfer", root, || {
            docs.iter().map(|doc| surfer.count(doc)).sum::<u64>()
        });
        self.check(count == matches, || {
            format!("SurferEngine::count is {count}, its positions {matches}")
        });
        self.set("baselines.surfer_gbps", self.gbps(secs));

        if self.w.kind == Kind::BatchNdjson {
            self.batch_rungs(root, &docs, count_secs);
        }
        if self.w.kind == Kind::ServeSocket {
            self.serve_rungs(root, &docs, &engine);
        }
        self.tracer.end(root);
    }

    fn batch_rungs(&mut self, root: SpanId, docs: &[&[u8]], seq_loop_secs: f64) {
        let bytes = self.corpus.bytes.as_slice();
        let query = self.w.query;
        let (ranges, secs) = self.rung("batch.split_ndjson", root, || {
            rsq_batch::split_ndjson(bytes)
        });
        self.check(ranges == self.corpus.docs, || {
            "split_ndjson ranges differ from the generator's".to_owned()
        });
        self.set("batch.split_ndjson_gbps", self.gbps(secs));
        // The per-document floor: one Engine looping `count` over the
        // slices, which is what the engine.count rung did on this corpus.
        self.set("batch.seq_loop_gbps", self.gbps(seq_loop_secs));

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut times = [0.0; 2];
        for (slot, (name, threads)) in [("batch.run_slices_t1", 1), ("batch.run_slices_tn", nproc)]
            .into_iter()
            .enumerate()
        {
            let batch = BatchEngine::new(BatchOptions {
                threads,
                ..BatchOptions::default()
            });
            // Only the first rep should miss the compiled-query cache.
            let mut cache_misses = 0;
            let (result, secs) = self.rung(name, root, || {
                let result = batch
                    .run_slices(query, docs)
                    .expect("workload queries compile");
                cache_misses += result.counters.cache_misses;
                result
            });
            let counts_match =
                result
                    .outcomes
                    .iter()
                    .zip(&self.corpus.positions)
                    .all(|(outcome, found)| {
                        outcome
                            .as_ref()
                            .is_ok_and(|out| out.count == found.len() as u64)
                    });
            self.check(counts_match, || {
                format!("{name}: per-document counts differ from the oracle")
            });
            times[slot] = secs;
            if threads == 1 {
                self.set("batch.queue_claims", result.counters.queue_claims as f64);
                self.set("batch.cache_misses", cache_misses as f64);
            }
        }
        self.set("batch.run_slices_gbps_t1", self.gbps(times[0]));
        self.set("batch.run_slices_gbps_tn", self.gbps(times[1]));
        self.set("batch.scaling_tn_over_t1", times[0] / times[1]);
        self.set(
            "batch.per_doc_overhead_us",
            (times[0] - seq_loop_secs) * 1e6 / docs.len() as f64,
        );
        self.driver_layer_secs = times[1];
    }

    fn serve_rungs(&mut self, root: SpanId, docs: &[&[u8]], engine: &Engine) {
        let bytes = self.corpus.bytes.as_slice();
        let (framed, secs) = self.rung("serve.framer", root, || {
            let mut framer = NdjsonFramer::new(None);
            let mut framed = 0usize;
            for chunk in bytes.chunks(READER_CHUNK) {
                framer.push(chunk, &mut |frame| {
                    framed += usize::from(matches!(frame, Frame::Doc(_)))
                });
            }
            framed + usize::from(framer.finish().is_some())
        });
        self.check(framed == docs.len(), || {
            format!("NdjsonFramer framed {framed} documents")
        });
        self.set("serve.framer_gbps", self.gbps(secs));

        let options = serve_options(self.w.query);
        let (out, secs) = self.rung("serve.connection", root, || {
            let mut out = Vec::new();
            let mut err = Vec::new();
            rsq_serve::serve_connection(&options, bytes, &mut out, &mut err)
                .expect("workload queries compile");
            out
        });
        self.check(out == self.corpus.expected, || {
            "serve_connection output differs from the oracle".to_owned()
        });
        self.set("serve.connection_gbps", self.gbps(secs));
        self.driver_layer_secs = secs;

        let per_doc: Vec<f64> = docs
            .iter()
            .map(|doc| {
                let start = Instant::now();
                black_box(engine.count(doc));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.set("serve.engine_floor_us", stat::median(&per_doc));
    }

    /// The layers chained the way the driver chains them. Returns the
    /// chain's wall time in seconds.
    fn pipeline(&mut self) -> io::Result<f64> {
        let root = self.tracer.begin("pipeline", Some(Tracer::ROOT));
        let corpus = self.corpus;
        let query = self.w.query;
        let t = &mut self.tracer;
        // stdout of the real process is a line-buffered pipe that the
        // harness drains; here a thread drains the same kind of pipe.
        let (mut pipe_rx, pipe_tx) = io::pipe()?;
        let written = std::thread::scope(|scope| -> io::Result<Vec<u8>> {
            let drain = scope.spawn(move || {
                let mut all = Vec::new();
                pipe_rx.read_to_end(&mut all).map(|_| all)
            });
            let mut out = LineWriter::new(pipe_tx);
            match self.w.kind {
                Kind::FileCount | Kind::FileValues | Kind::StdinCount => {
                    let (engine, _) = t.time("query.compile", root, || {
                        Engine::from_text(query).expect("compiles")
                    });
                    let (input, _) = if self.w.kind == Kind::StdinCount {
                        let file = std::fs::File::open(&corpus.path)?;
                        t.time("engine.read_document", root, || {
                            engine
                                .read_document(file)
                                .map(rsq_mmap::MmapInput::from_vec)
                                .map_err(|e| io::Error::other(e.to_string()))
                        })
                    } else {
                        t.time("mmap.load", root, || {
                            rsq_mmap::load(&corpus.path, MapPolicy::Auto)
                        })
                    };
                    let input = input?;
                    if self.w.kind == Kind::FileValues {
                        let (found, _) =
                            t.time("engine.positions", root, || engine.positions(&input));
                        let (spans, _) = t.time("json.node_span", root, || {
                            found
                                .iter()
                                .filter_map(|&pos| rsq_json::node_span(&input, pos))
                                .collect::<Vec<_>>()
                        });
                        t.time("emit.write", root, || {
                            spans.into_iter().try_for_each(|span| {
                                out.write_all(&input[span])?;
                                out.write_all(b"\n")
                            })
                        })
                        .0?;
                    } else {
                        let (count, _) = t.time("engine.count", root, || engine.count(&input));
                        t.time("emit.write", root, || writeln!(out, "{count}")).0?;
                    }
                }
                Kind::BatchNdjson => {
                    let (input, _) = t.time("fs.read", root, || std::fs::read(&corpus.path));
                    let input = input?;
                    let (ranges, _) = t.time("batch.split_ndjson", root, || {
                        rsq_batch::split_ndjson(&input)
                    });
                    // The driver copies every line into its own buffer.
                    let (owned, _) = t.time("driver.copy_lines", root, || {
                        ranges
                            .into_iter()
                            .map(|r| input[r].to_vec())
                            .collect::<Vec<_>>()
                    });
                    let docs: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
                    let batch = BatchEngine::new(BatchOptions {
                        threads: 2,
                        ..BatchOptions::default()
                    });
                    let (result, _) =
                        t.time("batch.run_slices", root, || batch.run_slices(query, &docs));
                    let result = result.map_err(|e| io::Error::other(e.to_string()))?;
                    t.time("emit.write", root, || {
                        result.outcomes.iter().try_for_each(|outcome| {
                            writeln!(out, "{}", outcome.as_ref().map_or(0, |o| o.count))
                        })
                    })
                    .0?;
                }
                Kind::ServeSocket => {
                    let options = serve_options(query);
                    t.time("serve.connection", root, || {
                        rsq_serve::serve_connection(
                            &options,
                            corpus.bytes.as_slice(),
                            &mut out,
                            io::sink(),
                        )
                    })
                    .0
                    .map_err(|e| io::Error::other(e.message))?;
                }
            }
            drop(out);
            drain.join().expect("drain thread does not panic")
        })?;
        let secs = self.tracer.end(root);
        self.set("cli.pipeline_ms", secs * 1e3);
        // What the chain spends outside any layer's call.
        self.set(
            "cli.pipeline_self_ms",
            self.tracer.self_ns(root) as f64 / 1e6,
        );
        self.check(written == corpus.expected, || {
            "the re-enacted pipeline's output differs from the oracle".to_owned()
        });
        Ok(secs)
    }

    /// Wall times (ms) of `CLI_REPS` runs of `kind` on the corpus, each
    /// inside a span.
    fn cli_walls(&mut self, root: SpanId, kind: Kind, expected: &[u8]) -> io::Result<Vec<f64>> {
        let mut walls = Vec::new();
        for _ in 0..CLI_REPS {
            let span = self.tracer.begin("cli.run", Some(root));
            let reaped = child::run_cli(self.env, kind, self.w.query, &self.corpus.path)?;
            self.tracer.end(span);
            walls.push(reaped.wall_ns as f64 / 1e6);
            let fault = reaped.fault(0, expected);
            self.check(fault.is_none(), || fault.unwrap_or_default());
        }
        Ok(walls)
    }

    /// Full reps of the serve workload; returns the flood's typical wall
    /// in ms.
    fn serve_reps(&mut self, root: SpanId, pipeline_secs: f64) -> io::Result<f64> {
        let (env, w, corpus) = (self.env, self.w, self.corpus);
        let mut reps = Vec::new();
        for _ in 0..SERVE_REPS {
            let span = self.tracer.begin("serve.rep", Some(root));
            let rep = serve_load::rep(env, w, corpus, corpus.docs.len())?;
            self.tracer.end(span);
            self.attempted += rep.docs_sent as u64;
            self.failed += rep.failed as u64;
            self.faults.extend(rep.fault(w.name));
            reps.push(rep);
        }
        let median = |f: &dyn Fn(&serve_load::ServeRep) -> f64| {
            stat::median(&reps.iter().map(f).collect::<Vec<_>>())
        };
        let p50_us = median(&|r| r.latency_percentile_ms(50.0) * 1e3);
        self.set(
            "serve.doc_latency_p99_us",
            median(&|r| r.latency_percentile_ms(99.0) * 1e3),
        );
        self.set(
            "serve.doc_latency_max_us",
            median(&|r| r.latency_percentile_ms(100.0) * 1e3),
        );
        self.set("serve.gen_late_p99_us", median(&|r| r.gen_late_p99_us()));
        self.set("serve.backlog_max_docs", median(&|r| r.backlog_max as f64));
        self.set(
            "serve.latency_over_floor",
            p50_us / self.get("serve.engine_floor_us"),
        );
        self.set("cli.first_output_ms", median(&|r| r.ready_ms));
        let floods: Vec<f64> = reps.iter().map(|r| r.flood_secs * 1e3).collect();
        self.set("cli.wall_ms_p50", stat::median(&floods));
        self.set("cli.wall_ms_iqr", stat::iqr(&floods));
        let flood_ms = stat::typical(&floods);
        let connection_ms = self.driver_layer_secs * 1e3;
        self.set(
            "serve.socket_overhead_pct",
            (1.0 - connection_ms / flood_ms) * 100.0,
        );
        // A server is already up when the flood starts: no spawn
        // floor to subtract.
        self.set("cli.unattributed_ms", flood_ms - pipeline_secs * 1e3);
        Ok(flood_ms)
    }

    /// Process-per-run reps of the workload and of the counterpart it is
    /// compared with; returns the workload's typical wall in ms.
    fn cli_reps(
        &mut self,
        root: SpanId,
        spawn_floor_ms: f64,
        pipeline_secs: f64,
    ) -> io::Result<f64> {
        let (env, w, corpus) = (self.env, self.w, self.corpus);
        let walls = self.cli_walls(root, w.kind, &corpus.expected)?;
        let plain_ms = stat::typical(&walls);
        self.set("cli.wall_ms_p50", stat::median(&walls));
        self.set("cli.wall_ms_iqr", stat::iqr(&walls));
        let mut first = Vec::new();
        for _ in 0..CLI_REPS / 2 {
            first.push(child::first_output_ms(env, w.kind, w.query, &corpus.path)?);
        }
        self.set("cli.first_output_ms", stat::typical(&first));
        self.set(
            "cli.unattributed_ms",
            plain_ms - spawn_floor_ms - pipeline_secs * 1e3,
        );
        let count_line = format!("{}\n", corpus.matches());
        match w.kind {
            Kind::FileValues => {
                let count = self.cli_walls(root, Kind::FileCount, count_line.as_bytes())?;
                let emit_ms = plain_ms - stat::typical(&count);
                self.set(
                    "cli.emit_ns_per_match",
                    emit_ms * 1e6 / corpus.matches().max(1) as f64,
                );
            }
            Kind::StdinCount => {
                let file = self.cli_walls(root, Kind::FileCount, count_line.as_bytes())?;
                self.set("cli.stdin_penalty_ms", plain_ms - stat::typical(&file));
            }
            Kind::BatchNdjson => {
                let run_slices_ms = self.driver_layer_secs * 1e3;
                self.set(
                    "batch.cli_overhead_pct",
                    (1.0 - run_slices_ms / plain_ms) * 100.0,
                );
            }
            Kind::FileCount | Kind::ServeSocket => {}
        }
        Ok(plain_ms)
    }

    /// The subprocess reps the in-process times are compared against.
    fn subprocess(&mut self, pipeline_secs: f64) -> io::Result<()> {
        let root = self.tracer.begin("subprocess", Some(Tracer::ROOT));
        let (env, w, corpus) = (self.env, self.w, self.corpus);

        let tiny = env.out_dir.join("tiny.json");
        std::fs::write(&tiny, b"{\"a\": 1}")?;
        let mut floor = Vec::new();
        for _ in 0..CLI_REPS {
            let reaped = child::run_cli(env, Kind::FileCount, "$.a", &tiny)?;
            let fault = reaped.fault(0, b"1\n");
            self.check(fault.is_none(), || fault.unwrap_or_default());
            floor.push(reaped.wall_ns as f64 / 1e6);
        }
        let spawn_floor_ms = stat::typical(&floor);
        self.set("cli.spawn_floor_ms", spawn_floor_ms);
        self.set("cli.output_bytes", corpus.expected.len() as f64);

        // The workload's typical wall (serve: the flood's), which the
        // differences and shares are taken against; `cli.wall_ms_p50` and
        // `_iqr` describe the reps' raw distribution.
        let wall_ms = if w.kind == Kind::ServeSocket {
            self.serve_reps(root, pipeline_secs)?
        } else {
            self.cli_reps(root, spawn_floor_ms, pipeline_secs)?
        };
        // The engine's in-process time over the same bytes, against the
        // whole process (or flood) that contains it.
        let engine_gbps = if w.kind == Kind::FileValues {
            self.get("engine.positions_gbps")
        } else {
            self.get("engine.count_gbps")
        };
        let engine_ms = corpus.bytes.len() as f64 / engine_gbps / 1e6;
        self.set(
            "cli.driver_overhead_pct",
            (1.0 - engine_ms / wall_ms) * 100.0,
        );
        self.tracer.end(root);
        Ok(())
    }
}

/// Every `per_layer` metric of `/BENCHMARK.json`: name and unit, in the
/// file's order.
pub const METRICS: [(&str, &str); 56] = [
    ("host.read_sum_gbps", "GB/s"),
    ("mmap.load_us", "us"),
    ("mmap.first_touch_gbps", "GB/s"),
    ("memmem.scan_gbps", "GB/s"),
    ("memmem.hits", "count"),
    ("simd.quotes_gbps", "GB/s"),
    ("classify.structural_gbps", "GB/s"),
    ("classify.iterator_gbps", "GB/s"),
    ("classify.iterator_events", "count"),
    ("query.compile_us", "us"),
    ("engine.count_gbps", "GB/s"),
    ("engine.positions_gbps", "GB/s"),
    ("engine.frac_of_iterator", "ratio"),
    ("engine.read_document_gbps", "GB/s"),
    ("engine.matches", "count"),
    ("engine.blocks_classified", "count"),
    ("engine.events", "count"),
    ("engine.skips_leaf", "count"),
    ("engine.skips_child", "count"),
    ("engine.skips_sibling", "count"),
    ("engine.skips_label", "count"),
    ("engine.memmem_jumps", "count"),
    ("engine.memmem_declined", "count"),
    ("engine.route_general", "count"),
    ("json.node_span_ns_per_match", "ns"),
    ("obs.stats_overhead_pct", "%"),
    ("baselines.surfer_gbps", "GB/s"),
    ("cli.spawn_floor_ms", "ms"),
    ("cli.wall_ms_p50", "ms"),
    ("cli.wall_ms_iqr", "ms"),
    ("cli.driver_overhead_pct", "%"),
    ("cli.emit_ns_per_match", "ns"),
    ("cli.first_output_ms", "ms"),
    ("cli.stdin_penalty_ms", "ms"),
    ("cli.output_bytes", "B"),
    ("cli.pipeline_ms", "ms"),
    ("cli.pipeline_self_ms", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("batch.split_ndjson_gbps", "GB/s"),
    ("batch.seq_loop_gbps", "GB/s"),
    ("batch.run_slices_gbps_t1", "GB/s"),
    ("batch.run_slices_gbps_tn", "GB/s"),
    ("batch.scaling_tn_over_t1", "ratio"),
    ("batch.per_doc_overhead_us", "us"),
    ("batch.queue_claims", "count"),
    ("batch.cache_misses", "count"),
    ("batch.cli_overhead_pct", "%"),
    ("serve.framer_gbps", "GB/s"),
    ("serve.connection_gbps", "GB/s"),
    ("serve.socket_overhead_pct", "%"),
    ("serve.engine_floor_us", "us"),
    ("serve.latency_over_floor", "ratio"),
    ("serve.doc_latency_p99_us", "us"),
    ("serve.doc_latency_max_us", "us"),
    ("serve.gen_late_p99_us", "us"),
    ("serve.backlog_max_docs", "docs"),
];

/// The traced pass over one workload.
pub fn run(env: &Env, w: &'static Workload, seed: u64, epoch: Instant) -> io::Result<Ladder> {
    let _one_cpu = e2e::confine(env, w)?;
    let (corpus, _) = e2e::setup(env, w, seed)?;
    let mut pass = Pass {
        env,
        w,
        corpus: &corpus,
        tracer: Tracer::new(w.name, epoch),
        values: BTreeMap::new(),
        driver_layer_secs: 0.0,
        attempted: 0,
        failed: 0,
        faults: Vec::new(),
    };
    pass.ladder();
    let pipeline_secs = pass.pipeline()?;
    pass.subprocess(pipeline_secs)?;
    pass.tracer.end(Tracer::ROOT);
    let metrics = METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, pass.get(name), unit))
        .collect();
    let Pass {
        tracer,
        attempted,
        failed,
        faults,
        ..
    } = pass;
    Ok(Ladder {
        metrics,
        attempted,
        failed,
        faults,
        tracer,
        corpus,
    })
}
