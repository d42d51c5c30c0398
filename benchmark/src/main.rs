//! The repo benchmark (see `/BENCHMARK.json` and `README.md` here).
//!
//! `run.sh` builds `rsq` and this harness and forwards its arguments:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — the PR driver's
//!   contract: one workload, one pass, one JSON result on the last line.
//! * no `--workload` — every workload, both passes, as a table.
//! * `selfcheck` — two sets of end-to-end runs of the same build; fails
//!   if they disagree by more than the bounds.

mod child;
mod corpus;
mod e2e;
mod json_out;
mod ladder;
mod selfcheck;
mod serve_load;
mod span;
mod stat;
mod workload;

use child::Env;
use json_out::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// The default seed. The held-out seed is 1000003: never pass it while a
/// change is written, so that a claim can be re-checked on inputs it was
/// not tuned on.
pub const DEFAULT_SEED: u64 = 20_230_325;

pub struct Args {
    pub rsq: PathBuf,
    pub selfcheck: bool,
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rsq: PathBuf::new(),
        selfcheck: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--rsq" => args.rsq = PathBuf::from(&value),
            "--workload" => {
                args.workload = Some(workload::by_name(&value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a duration"))?;
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.rsq.as_os_str().is_empty() {
        return Err("--rsq PATH is required (run.sh passes it)".to_owned());
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_owned(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_owned()
        })
}

/// One line describing the machine and build the numbers belong to.
fn host_line(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size");
    format!(
        "host: nproc={} cpu={} simd={} l3={} rustc={} commit={} seed={} seconds={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_out::string(model),
        rsq_simd::Simd::detect().kind(),
        l3.as_deref().map_or("unknown", str::trim),
        json_out::string(&command_line("rustc", &["--version"])),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        args.seed,
        args.seconds,
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn corpus_line(w: &Workload, corpus: &corpus::Corpus) -> String {
    format!(
        "corpus: {} {} bytes, {} documents, {} matches, fnv1a {:016x}",
        w.name,
        corpus.bytes.len(),
        corpus.docs.len(),
        corpus.matches(),
        corpus.hash
    )
}

/// One pass over one workload; prints its metrics and returns
/// `(attempted, failed, metrics)` plus the tracer of a traced pass.
fn one_pass(
    env: &Env,
    args: &Args,
    w: &'static Workload,
    trace: bool,
    epoch: Instant,
) -> std::io::Result<(u64, u64, Vec<Metric>, Option<span::Tracer>)> {
    if trace {
        let pass = ladder::run(env, w, args.seed, epoch)?;
        println!("{}", corpus_line(w, &pass.corpus));
        println!(
            "{} per-layer (traced pass, {} checks, {} failed):",
            w.name, pass.attempted, pass.failed
        );
        print_metrics(&pass.metrics);
        pass.faults.iter().for_each(|f| println!("FAILED {f}"));
        Ok((pass.attempted, pass.failed, pass.metrics, Some(pass.tracer)))
    } else {
        let run = e2e::run(env, w, args.seed, args.seconds)?;
        println!("{}", corpus_line(w, &run.corpus));
        println!(
            "{} end-to-end ({} reps after {:.3} s of set-ups, host steal {:.1} %, {} operations, {} failed, error_rate {}):",
            w.name,
            run.reps,
            run.setups_total_s,
            run.host_steal_pct,
            run.attempted,
            run.failed,
            run.failed as f64 / run.attempted as f64
        );
        print_metrics(&run.metrics());
        if run.rss_at_floor {
            println!(
                "NOTE peak_rss_mb is the {} kB every child of reap.py starts from: \
                 rsq's own peak is at most that",
                env.rss_floor_kb
            );
        }
        run.faults.iter().for_each(|f| println!("FAILED {f}"));
        Ok((run.attempted, run.failed, run.metrics(), None))
    }
}

fn write_trace(env: &Env, tracers: &[span::Tracer]) -> std::io::Result<()> {
    let path = env.out_dir.join("trace.json");
    std::fs::write(&path, span::chrome_trace_json(tracers))?;
    let nest = tracers.iter().all(span::Tracer::nests);
    println!(
        "trace: {} spans in {} (every child inside its parent: {nest})",
        tracers.iter().map(|t| t.spans.len()).sum::<usize>(),
        path.display()
    );
    Ok(())
}

fn run(args: &Args) -> std::io::Result<bool> {
    let benchmark_dir = Path::new("benchmark");
    let env = Env::new(args.rsq.clone(), benchmark_dir)?;
    println!("{}", host_line(args));
    let epoch = Instant::now();
    if args.selfcheck {
        return selfcheck::run(&env, args);
    }
    if let Some(w) = args.workload {
        let (attempted, failed, metrics, tracer) = one_pass(&env, args, w, args.trace, epoch)?;
        if let Some(tracer) = tracer {
            write_trace(&env, &[tracer])?;
        }
        // The contract: this object is the last line of stdout.
        println!(
            "{}",
            json_out::result_line(attempted.max(1), failed, &metrics)
        );
        return Ok(true);
    }
    let mut tracers = Vec::new();
    let mut failed = 0;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let (_, f, _, tracer) = one_pass(&env, args, w, trace, epoch)?;
            failed += f;
            tracers.extend(tracer);
        }
    }
    write_trace(&env, &tracers)?;
    println!("{failed} failed operations over all workloads");
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("rsq-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rsq-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
