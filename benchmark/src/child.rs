//! Running `rsq` as a subprocess — the only way end-to-end numbers are
//! taken — and checking what it printed.

use crate::corpus::Corpus;
use crate::workload::{Kind, Workload};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Variables that change what `rsq` or the generators do; a run never
/// inherits them.
pub const SCRUBBED_ENV: [&str; 4] = ["RSQ_BACKEND", "RSQ_ROUTE", "RSQ_PERF", "RSQ_DATASET_MB"];

/// Where the things the harness runs and writes live.
pub struct Env {
    pub rsq: PathBuf,
    /// The real interpreter behind `python3` (a version-manager shim on
    /// PATH would add tens of ms of start-up to every rep).
    pub python: PathBuf,
    pub reaper: PathBuf,
    pub out_dir: PathBuf,
    /// What `reap.py run` reports as `maxrss_kb` for a child that needs
    /// almost nothing: the interpreter's own resident set, which every
    /// spawned child inherits as its starting high-water mark. A reading
    /// at or below it says nothing about the child.
    pub rss_floor_kb: u64,
}

impl Env {
    pub fn new(rsq: PathBuf, benchmark_dir: &Path) -> io::Result<Env> {
        let out_dir = benchmark_dir.join("out");
        std::fs::create_dir_all(&out_dir)?;
        let found = Command::new("python3")
            .args(["-c", "import sys; print(sys.executable)"])
            .output()?;
        let python = String::from_utf8_lossy(&found.stdout).trim().to_owned();
        if !found.status.success() || python.is_empty() {
            return Err(io::Error::other("python3 (needed by reap.py) did not run"));
        }
        if !rsq.is_file() {
            return Err(io::Error::other(format!(
                "no rsq binary at {}",
                rsq.display()
            )));
        }
        let mut env = Env {
            rsq,
            python: PathBuf::from(python),
            reaper: benchmark_dir.join("reap.py"),
            out_dir,
            rss_floor_kb: 0,
        };
        let trivial = env
            .reaped_command("run", &["--help".to_owned()])
            .stdin(Stdio::null())
            .spawn()?;
        env.rss_floor_kb = Reaped::collect(trivial)?.maxrss_kb;
        Ok(env)
    }

    /// `rsq ARGS` under `reap.py MODE`, with piped stdout and stderr.
    pub fn reaped_command(&self, mode: &str, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.python);
        cmd.args(["-S", "-E"])
            .arg(&self.reaper)
            .arg(mode)
            .arg(&self.rsq)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        cmd
    }

    pub fn socket_path(&self) -> PathBuf {
        self.out_dir.join("serve.sock")
    }

    fn swap_affinity(&self, cpus: &[String]) -> io::Result<Vec<String>> {
        let out = Command::new(&self.python)
            .args(["-S", "-E", "-c", SWAP_AFFINITY])
            .arg(std::process::id().to_string())
            .args(cpus)
            .output()?;
        if !out.status.success() {
            return Err(io::Error::other(format!(
                "could not change the CPU affinity: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            )));
        }
        let before = String::from_utf8_lossy(&out.stdout);
        Ok(before.split_whitespace().map(str::to_owned).collect())
    }

    /// Starts a process that spins at idle priority on the caller's CPUs
    /// until the guard is dropped. A virtual CPU with nothing to run halts,
    /// and waking it again goes through the hypervisor, whose answer takes
    /// tens of microseconds more whenever the host is busy; an open loop
    /// at a third of capacity halts and wakes a thousand times a second,
    /// so its latencies measure the host's neighbours. With the spinner
    /// the CPU never halts and a wake-up is a context switch.
    pub fn keep_awake(&self) -> io::Result<Awake> {
        Command::new(&self.python)
            .args(["-S", "-E", "-c", SPIN_WHEN_IDLE])
            .stdin(Stdio::null())
            .spawn()
            .map(Awake)
    }

    /// Confines the main thread (the caller must be it: its thread id is
    /// the process id) to the lowest-numbered CPU it may use, until the
    /// guard is dropped. Threads and processes started meanwhile inherit
    /// the confinement, so a whole workload — harness threads, wrapper and
    /// `rsq` — shares that one CPU.
    pub fn one_cpu(&self) -> io::Result<OneCpu<'_>> {
        Ok(OneCpu {
            env: self,
            before: self.swap_affinity(&[])?,
        })
    }
}

/// Keeps the CPUs it inherits from ever going idle, at a priority
/// (`SCHED_IDLE`) that yields to anything else at once; ends by itself
/// should the harness die without dropping its guard.
const SPIN_WHEN_IDLE: &str = "\
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
harness = os.getppid()
while os.getppid() == harness:
    pass";

/// While it lives, the CPUs of the thread that started it never halt (see
/// [`Env::keep_awake`]).
pub struct Awake(Child);

impl Drop for Awake {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Swaps the CPUs thread `argv[1]` may run on for `argv[2..]` (none given:
/// the lowest-numbered one it may use now) and prints those it could use
/// before. Safe std can do neither; `python3`, which `reap.py` needs
/// anyway, can do both.
const SWAP_AFFINITY: &str = "\
import os, sys
tid = int(sys.argv[1])
before = os.sched_getaffinity(tid)
os.sched_setaffinity(tid, {int(cpu) for cpu in sys.argv[2:]} or {min(before)})
print(*sorted(before))";

/// While it lives, the main thread runs on one CPU (see [`Env::one_cpu`]).
pub struct OneCpu<'a> {
    env: &'a Env,
    before: Vec<String>,
}

impl Drop for OneCpu<'_> {
    fn drop(&mut self) {
        let _ = self.env.swap_affinity(&self.before);
    }
}

/// What `reap.py` reported about one finished `rsq` process.
#[derive(Debug)]
pub struct Reaped {
    pub wall_ns: u64,
    pub cpu_us: u64,
    pub maxrss_kb: u64,
    pub exit: i64,
    pub stdout: Vec<u8>,
    /// What `rsq` itself wrote to stderr (the reaper's line removed).
    pub stderr: String,
}

impl Reaped {
    /// Collects a child started from [`Env::reaped_command`]: its stdout,
    /// and its stderr split into `rsq`'s own and the reaper's last line.
    pub fn collect(child: Child) -> io::Result<Reaped> {
        let output = child.wait_with_output()?;
        let stderr = String::from_utf8_lossy(&output.stderr);
        let (own, report) = match stderr.trim_end().rsplit_once('\n') {
            Some((own, report)) => (format!("{own}\n"), report),
            None => (String::new(), stderr.trim_end()),
        };
        let field = |key: &str| -> Option<i64> {
            report
                .split_whitespace()
                .find_map(|word| word.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        };
        let parse = || {
            report.strip_prefix("reaped ")?;
            Some(Reaped {
                wall_ns: field("wall_ns")?.try_into().ok()?,
                cpu_us: field("cpu_us")?.try_into().ok()?,
                maxrss_kb: field("maxrss_kb")?.try_into().ok()?,
                exit: field("exit")?,
                stdout: Vec::new(),
                stderr: own.clone(),
            })
        };
        let mut reaped = parse().ok_or_else(|| {
            io::Error::other(format!(
                "reap.py gave no report (status {}): {stderr}",
                output.status
            ))
        })?;
        reaped.stdout = output.stdout;
        Ok(reaped)
    }

    /// Why this run is wrong, if it is: any stderr output, a non-zero
    /// exit, or stdout that differs from the oracle's.
    pub fn fault(&self, expected_exit: i64, expected_stdout: &[u8]) -> Option<String> {
        if self.exit != expected_exit {
            Some(format!(
                "exit {} (stderr: {})",
                self.exit,
                self.stderr.trim()
            ))
        } else if !self.stderr.is_empty() {
            Some(format!("stderr not empty: {}", self.stderr.trim()))
        } else if self.stdout != expected_stdout {
            Some(format!(
                "stdout differs from the oracle ({} bytes, {} expected)",
                self.stdout.len(),
                expected_stdout.len()
            ))
        } else {
            None
        }
    }
}

/// The `rsq` arguments for `kind`, and whether the corpus goes in through
/// stdin. `path` is the corpus file — or, for a server, its socket.
pub fn cli_args(kind: Kind, query: &str, path: &Path) -> (Vec<String>, bool) {
    let file = path.to_string_lossy().into_owned();
    let query = query.to_owned();
    let strings = |args: &[&str]| args.iter().map(|&s| s.to_owned()).collect::<Vec<_>>();
    match kind {
        Kind::FileCount => (vec!["--count".to_owned(), query, file], false),
        Kind::FileValues => (vec![query, file], false),
        Kind::StdinCount => (vec!["--count".to_owned(), query], true),
        Kind::BatchNdjson => {
            let mut args = strings(&["--count", "--threads", "2", "--batch-ndjson"]);
            args.extend([file, query]);
            (args, false)
        }
        Kind::ServeSocket => {
            let mut args = strings(&["--count", "--threads", "1", "--serve-socket"]);
            args.extend([file, query]);
            (args, false)
        }
    }
}

fn stdin_for(from_stdin: bool, path: &Path) -> io::Result<Stdio> {
    Ok(if from_stdin {
        Stdio::from(File::open(path)?)
    } else {
        Stdio::null()
    })
}

/// One closed-loop operation: run `rsq` on the corpus to completion.
pub fn run_cli(env: &Env, kind: Kind, query: &str, path: &Path) -> io::Result<Reaped> {
    let (args, from_stdin) = cli_args(kind, query, path);
    let child = env
        .reaped_command("run", &args)
        .stdin(stdin_for(from_stdin, path)?)
        .spawn()?;
    Reaped::collect(child)
}

/// [`run_cli`] on a workload's own corpus, with the oracle check.
pub fn run_workload(
    env: &Env,
    w: &Workload,
    corpus: &Corpus,
) -> io::Result<(Reaped, Option<String>)> {
    let reaped = run_cli(env, w.kind, w.query, &corpus.path)?;
    let fault = reaped.fault(0, &corpus.expected);
    Ok((reaped, fault))
}

/// Milliseconds from spawning `rsq` directly (no wrapper) to the first
/// byte on its stdout; the rest of the output is drained and discarded.
pub fn first_output_ms(env: &Env, kind: Kind, query: &str, path: &Path) -> io::Result<f64> {
    let (args, from_stdin) = cli_args(kind, query, path);
    let mut cmd = Command::new(&env.rsq);
    cmd.args(args)
        .stdin(stdin_for(from_stdin, path)?)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut byte = [0u8; 1];
    let got = stdout.read(&mut byte)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    io::copy(&mut stdout, &mut io::sink())?;
    child.wait()?;
    if got == 0 {
        return Err(io::Error::other("rsq printed nothing"));
    }
    Ok(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_env() -> Env {
        Env::new(
            PathBuf::from("/bin/sleep"),
            Path::new(env!("CARGO_MANIFEST_DIR")),
        )
        .unwrap()
    }

    #[test]
    fn one_cpu_confines_the_main_thread_and_gives_it_back() {
        // Tests run on threads of their own; the main thread is the idle
        // test runner, and /proc says where it may run.
        let allowed = || {
            let pid = std::process::id();
            let status = std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/status")).unwrap();
            let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"));
            line.unwrap().split_once(':').unwrap().1.trim().to_owned()
        };
        let env = test_env();
        let before = allowed();
        let guard = env.one_cpu().unwrap();
        assert!(
            allowed().parse::<usize>().is_ok(),
            "{} is not one CPU",
            allowed()
        );
        drop(guard);
        assert_eq!(allowed(), before);
    }

    /// `ru_maxrss` of any child of `reap.py` starts at the interpreter's
    /// resident set; `until-eof` must report the child's own peak instead.
    #[test]
    fn a_small_server_reads_below_the_wrappers_floor() {
        let env = test_env();
        let server = env
            .reaped_command("until-eof", &["30".to_owned()])
            .stdin(Stdio::null())
            .spawn()
            .unwrap();
        let reaped = Reaped::collect(server).unwrap();
        assert_eq!(reaped.exit, -15);
        assert!(
            0 < reaped.maxrss_kb && reaped.maxrss_kb < env.rss_floor_kb,
            "{} kB is not below the {} kB floor",
            reaped.maxrss_kb,
            env.rss_floor_kb
        );
    }
}
