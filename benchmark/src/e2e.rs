//! The end-to-end pass: what a user of the `rsq` binary sees, measured
//! from outside the process with tracing off.

use crate::child::{self, Env};
use crate::corpus::{self, Corpus};
use crate::json_out::Metric;
use crate::serve_load::{self, ServeRep};
use crate::stat;
use crate::workload::{Kind, Workload};
use std::io;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of their times.
const SETUPS: usize = 3;
/// Documents in the serve warm-up rep (a full rep takes over a second).
const SERVE_WARMUP_DOCS: usize = 50;
/// A run that fits fewer reps than this in its window keeps going.
const MIN_REPS: usize = 5;

/// One timed operation's share of each end-to-end metric.
struct Sample {
    /// Wall time of the timed part, and the input bytes it consumed.
    secs: f64,
    bytes: usize,
    cpu_ns_per_byte: f64,
    rss_mb: f64,
    /// (p50, p90) over the requests of the rep, ms: every document of a
    /// serve rep's open loop, or the single process run of any other rep
    /// — whose p50 and p90 both are its wall time.
    latency_ms: (f64, f64),
}

impl Sample {
    /// `cpu_bytes` is every byte the process consumed, timed or not.
    fn new(
        secs: f64,
        bytes: usize,
        reaped: &child::Reaped,
        cpu_bytes: usize,
        latency_ms: (f64, f64),
    ) -> Sample {
        Sample {
            secs,
            bytes,
            cpu_ns_per_byte: reaped.cpu_us as f64 * 1e3 / cpu_bytes as f64,
            rss_mb: reaped.maxrss_kb as f64 / 1024.0,
            latency_ms,
        }
    }
}

pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub faults: Vec<String>,
    pub setup_s: f64,
    /// All [`SETUPS`] set-ups together: harness start → first timed rep.
    pub setups_total_s: f64,
    pub reps: usize,
    /// Share of the run's CPU time the hypervisor gave to other guests
    /// (`steal` in `/proc/stat`), in percent: how far to trust the run.
    pub host_steal_pct: f64,
    pub throughput_gbps: f64,
    pub cpu_ns_per_byte: f64,
    pub peak_rss_mb: f64,
    /// `peak_rss_mb` is `ru_maxrss` at the floor `reap.py` imposes
    /// ([`Env::rss_floor_kb`]): an upper limit on the child's peak, not
    /// a measurement of it.
    pub rss_at_floor: bool,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Serve only, per rep: the open-loop generator's p99 lateness.
    pub gen_late_p99_us: Vec<f64>,
    pub corpus: Corpus,
}

/// Generates, asks the oracle, writes the input and warms up once:
/// everything between harness start and the first timed rep.
pub fn setup(env: &Env, w: &Workload, seed: u64) -> io::Result<(Corpus, f64)> {
    let start = Instant::now();
    let corpus = corpus::build(w, seed, &env.out_dir)?;
    if w.kind == Kind::ServeSocket {
        serve_load::rep(env, w, &corpus, SERVE_WARMUP_DOCS.min(corpus.docs.len()))?;
    } else {
        child::run_workload(env, w, &corpus)?;
    }
    Ok((corpus, start.elapsed().as_secs_f64()))
}

/// (steal, total) CPU ticks of the host so far; zeros where `/proc/stat`
/// cannot be read.
fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .filter_map(|field| field.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are
    // already inside user and nice).
    (
        ticks.get(7).copied().unwrap_or(0.0),
        ticks.iter().take(8).sum(),
    )
}

/// Confines the pass to one CPU if the workload asks for it.
pub fn confine<'a>(env: &'a Env, w: &Workload) -> io::Result<Option<child::OneCpu<'a>>> {
    w.one_cpu.then(|| env.one_cpu()).transpose()
}

/// Throughput is the flood phase's; latency the open loop's; the
/// server's CPU time covers both phases, so does its divisor.
fn serve_sample(rep: &ServeRep) -> Sample {
    Sample::new(
        rep.flood_secs,
        rep.bytes_sent / 2,
        &rep.server,
        rep.bytes_sent,
        (
            rep.latency_percentile_ms(50.0),
            rep.latency_percentile_ms(90.0),
        ),
    )
}

/// Measures `w` for about `seconds` after `SETUPS` set-ups.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> io::Result<E2e> {
    let _one_cpu = confine(env, w)?;
    let harness_start = Instant::now();
    let (steal_before, ticks_before) = cpu_ticks();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut corpus = None;
    for _ in 0..SETUPS {
        drop(corpus.take());
        let (built, secs) = setup(env, w, seed)?;
        setups.push(secs);
        corpus = Some(built);
    }
    let corpus = corpus.expect("SETUPS > 0");
    let setups_total_s = harness_start.elapsed().as_secs_f64();

    let mut samples: Vec<Sample> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut faults = Vec::new();
    let mut gen_late_p99_us = Vec::new();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < window || samples.len() < MIN_REPS {
        if w.kind == Kind::ServeSocket {
            let r = serve_load::rep(env, w, &corpus, corpus.docs.len())?;
            attempted += r.docs_sent as u64;
            failed += r.failed as u64;
            faults.extend(r.fault(w.name));
            gen_late_p99_us.push(r.gen_late_p99_us());
            samples.push(serve_sample(&r));
        } else {
            let (reaped, fault) = child::run_workload(env, w, &corpus)?;
            attempted += 1;
            if let Some(fault) = fault {
                failed += 1;
                faults.push(format!("{}: {fault}", w.name));
            }
            let bytes = corpus.bytes.len();
            let wall_ms = reaped.wall_ns as f64 / 1e6;
            let latency_ms = (wall_ms, wall_ms);
            samples.push(Sample::new(
                wall_ms / 1e3,
                bytes,
                &reaped,
                bytes,
                latency_ms,
            ));
        }
    }

    // Every timing is reported as the lower decile of its per-rep values
    // (see `stat::typical` for why not the median).
    let typical =
        |f: &dyn Fn(&Sample) -> f64| stat::typical(&samples.iter().map(f).collect::<Vec<f64>>());
    let secs = typical(&|s| s.secs);
    let bytes = samples[0].bytes as f64;
    let (steal_after, ticks_after) = cpu_ticks();
    let peak_rss_mb = stat::median(&samples.iter().map(|s| s.rss_mb).collect::<Vec<_>>());
    Ok(E2e {
        attempted,
        failed,
        faults,
        setup_s: stat::median(&setups),
        setups_total_s,
        reps: samples.len(),
        host_steal_pct: (steal_after - steal_before) / (ticks_after - ticks_before).max(1.0)
            * 100.0,
        throughput_gbps: bytes / secs / 1e9,
        cpu_ns_per_byte: typical(&|s| s.cpu_ns_per_byte),
        peak_rss_mb,
        // The server's number is its own VmHWM, which has no floor.
        rss_at_floor: w.kind != Kind::ServeSocket
            && peak_rss_mb * 1024.0 <= env.rss_floor_kb as f64,
        latency_p50_ms: typical(&|s| s.latency_ms.0),
        latency_p90_ms: typical(&|s| s.latency_ms.1),
        gen_late_p99_us,
        corpus,
    })
}

impl E2e {
    /// Every `end_to_end` metric of `/BENCHMARK.json`, in its order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("throughput_gbps", self.throughput_gbps, "GB/s"),
            Metric::new("cpu_ns_per_byte", self.cpu_ns_per_byte, "ns/B"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
            Metric::new("latency_p50_ms", self.latency_p50_ms, "ms"),
            Metric::new("latency_p90_ms", self.latency_p90_ms, "ms"),
        ]
    }
}
