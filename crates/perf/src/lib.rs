//! Hardware-counter observability for the `rsq` engine.
//!
//! The paper's yardstick — and the one the SIMD-parsing literature
//! measures itself by — is **cycles and instructions per input byte**.
//! Wall-clock stage timers (Tier C, DESIGN.md §11) show *where* time
//! goes; this crate shows *what the hardware did* while it went there:
//! CPU cycles, retired instructions, branches/branch-misses, and cache
//! references/misses, read from a Linux `perf_event_open` counter group.
//!
//! Like `rsq-mmap`, this is a dependency-free kernel crate: the three
//! syscalls it needs (`perf_event_open`, `read`, `ioctl` — plus `close`)
//! are issued directly per the x86_64 ABI, so the offline workspace
//! stays free of libc. All counters for a thread live in one **group**
//! (`group_fd` chains to a leader), so a single `read()` on the leader
//! returns every value from the same scheduling interval — the values
//! are mutually consistent by construction.
//!
//! Graceful degradation is a hard requirement: most containers and CI
//! hosts run with `kernel.perf_event_paranoid > 2` or seccomp-filtered
//! syscalls, where opening counters fails with `EPERM`/`ENOSYS`. Every
//! entry point here degrades to [`CounterSet::Unavailable`] carrying a
//! human-readable reason; callers keep running with counters absent and
//! **byte-identical stdout** — the `perf` object simply disappears from
//! reports. `RSQ_PERF=off` disables counters outright and
//! `RSQ_PERF=deny` simulates the denied host, so the degraded path is
//! unit-testable everywhere (see [`PerfMode`]).
//!
//! Counters count the **calling thread** (`pid = 0`, `cpu = -1`):
//! every batch/serve worker opens its own group. See DESIGN.md §16.

#![warn(missing_docs)]

use rsq_obs::series::Value;
use rsq_obs::{ProfileStage, Recorder};
use std::fmt;

/// Number of pipeline stages perf deltas are attributed to (one slot
/// per [`ProfileStage`]).
pub const STAGE_COUNT: usize = ProfileStage::ALL.len();

/// How the process wants hardware counters armed, resolved from the
/// `RSQ_PERF` environment variable at CLI parse time (so a typo fails
/// fast, and tests construct the mode directly instead of racing on the
/// environment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PerfMode {
    /// Open counters when the kernel allows it; degrade silently when
    /// it does not.
    #[default]
    Auto,
    /// Never open counters (`RSQ_PERF=off`).
    Off,
    /// Simulate a denied host (`RSQ_PERF=deny`): behave exactly as if
    /// `perf_event_open` returned `EPERM`. Exists so the degraded path
    /// is testable on perf-capable machines.
    Deny,
}

impl PerfMode {
    /// Parses an `RSQ_PERF` value.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for unknown values, so a typo fails fast
    /// instead of silently counting (or not counting).
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "auto" => Ok(PerfMode::Auto),
            "off" => Ok(PerfMode::Off),
            "deny" => Ok(PerfMode::Deny),
            other => Err(format!("RSQ_PERF: unknown mode {other:?} (auto|off|deny)")),
        }
    }
}

/// The hardware events a [`CounterGroup`] arms, in group (and read)
/// order. Values are the kernel's `PERF_COUNT_HW_*` config codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HwEvent {
    /// `PERF_COUNT_HW_CPU_CYCLES`.
    Cycles,
    /// `PERF_COUNT_HW_INSTRUCTIONS`.
    Instructions,
    /// `PERF_COUNT_HW_CACHE_REFERENCES`.
    CacheReferences,
    /// `PERF_COUNT_HW_CACHE_MISSES`.
    CacheMisses,
    /// `PERF_COUNT_HW_BRANCH_INSTRUCTIONS`.
    BranchInstructions,
    /// `PERF_COUNT_HW_BRANCH_MISSES`.
    BranchMisses,
}

impl HwEvent {
    /// The full six-counter group, in read order.
    pub const FULL: [HwEvent; 6] = [
        HwEvent::Cycles,
        HwEvent::Instructions,
        HwEvent::CacheReferences,
        HwEvent::CacheMisses,
        HwEvent::BranchInstructions,
        HwEvent::BranchMisses,
    ];

    /// The degraded two-counter core group (cycles + instructions),
    /// retried when a sibling of the full group fails to open — some
    /// PMUs expose fewer programmable counters than six.
    pub const CORE: [HwEvent; 2] = [HwEvent::Cycles, HwEvent::Instructions];

    /// The kernel's `PERF_COUNT_HW_*` config code.
    #[must_use]
    pub fn config(self) -> u64 {
        match self {
            HwEvent::Cycles => 0,
            HwEvent::Instructions => 1,
            HwEvent::CacheReferences => 2,
            HwEvent::CacheMisses => 3,
            HwEvent::BranchInstructions => 4,
            HwEvent::BranchMisses => 5,
        }
    }
}

/// One consistent reading of a counter group. All fields are raw sums
/// since the last reset; [`CounterValues::scale`] exposes the
/// multiplexing correction factor (`time_enabled / time_running`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterValues {
    /// CPU cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Cache references (LLC by default on most PMUs).
    pub cache_references: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Retired branch instructions.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_misses: u64,
    /// Nanoseconds the group was enabled.
    pub time_enabled: u64,
    /// Nanoseconds the group was actually scheduled on the PMU. Less
    /// than `time_enabled` only when the kernel multiplexed the PMU.
    pub time_running: u64,
}

impl CounterValues {
    /// The multiplexing correction factor: `time_enabled /
    /// time_running`, 1.0 when the group was never descheduled (or
    /// never ran — there is nothing to scale then).
    #[must_use]
    pub fn scale(&self) -> f64 {
        if self.time_running == 0 || self.time_running >= self.time_enabled {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.time_enabled as f64 / self.time_running as f64
            }
        }
    }

    /// Element-wise saturating difference `self - earlier`, for
    /// attributing a bracketed region out of two monotone readings.
    #[must_use]
    pub fn delta_since(&self, earlier: &CounterValues) -> CounterValues {
        CounterValues {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            cache_references: self
                .cache_references
                .saturating_sub(earlier.cache_references),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            branches: self.branches.saturating_sub(earlier.branches),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            time_enabled: self.time_enabled.saturating_sub(earlier.time_enabled),
            time_running: self.time_running.saturating_sub(earlier.time_running),
        }
    }
}

/// An open group of per-thread hardware counters: one leader fd plus
/// sibling fds, read atomically (one `read()` on the leader returns
/// every value from the same PMU scheduling interval).
///
/// The group counts the **thread that opened it** (`pid = 0`,
/// `cpu = -1`, user-space only); do not ship it across threads
/// expecting it to follow. Dropping the group closes every fd.
#[derive(Debug)]
pub struct CounterGroup {
    /// `fds[0]` is the leader; order matches `events`.
    fds: Vec<i32>,
    events: Vec<HwEvent>,
}

impl CounterGroup {
    /// Opens a group for `events` on the calling thread. Counters start
    /// disabled; call [`CounterGroup::start`].
    ///
    /// # Errors
    ///
    /// The raw errno of the first failed `perf_event_open`, with every
    /// already-opened fd closed again.
    pub fn open(events: &[HwEvent]) -> Result<CounterGroup, i32> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            let mut fds: Vec<i32> = Vec::with_capacity(events.len());
            for (i, event) in events.iter().enumerate() {
                let leader = if i == 0 {
                    -1
                } else {
                    // PANIC-OK: i > 0, so the leader fd was pushed on the previous iterations
                    fds[0]
                };
                match sys::perf_event_open(event.config(), leader, i == 0) {
                    Ok(fd) => fds.push(fd),
                    Err(errno) => {
                        for fd in fds {
                            // SAFETY: `fd` came from a successful
                            // perf_event_open above and is closed
                            // exactly once on this early-exit path.
                            unsafe { sys::close(fd) };
                        }
                        return Err(errno);
                    }
                }
            }
            Ok(CounterGroup {
                fds,
                events: events.to_vec(),
            })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = events;
            Err(38) // ENOSYS: not a Linux/x86_64 build.
        }
    }

    /// True when only the degraded core pair (cycles + instructions) is
    /// armed.
    #[must_use]
    pub fn is_core_only(&self) -> bool {
        self.events.len() == HwEvent::CORE.len()
    }

    /// Resets every counter in the group to zero and enables counting.
    pub fn start(&self) {
        self.group_ioctl(sys::PERF_EVENT_IOC_RESET);
        self.group_ioctl(sys::PERF_EVENT_IOC_ENABLE);
    }

    /// Disables counting and returns the totals since [`start`]
    /// (`None` if the grouped read failed — the group stays disabled).
    ///
    /// [`start`]: CounterGroup::start
    pub fn stop(&self) -> Option<CounterValues> {
        let values = self.read_now();
        self.group_ioctl(sys::PERF_EVENT_IOC_DISABLE);
        values
    }

    fn group_ioctl(&self, req: usize) {
        if let Some(&leader) = self.fds.first() {
            // SAFETY: `leader` is the group-leader fd this struct owns
            // (still open — fds are closed only in Drop), and the
            // request is one of the argumentless PERF_EVENT_IOC_*
            // group controls. Failure leaves counters merely
            // un-toggled, which degrades to zero readings.
            let _ = unsafe { sys::ioctl(leader, req, sys::PERF_IOC_FLAG_GROUP) };
        }
    }
}

impl ReadCounters for CounterGroup {
    /// One atomic reading of the whole group (`PERF_FORMAT_GROUP`
    /// layout: `{nr, time_enabled, time_running, values[nr]}`), `None`
    /// on a short or failed read.
    fn read_now(&self) -> Option<CounterValues> {
        let &leader = self.fds.first()?;
        // 3 header words + one value per counter; FULL needs 9 words.
        let mut buf = [0u64; 3 + HwEvent::FULL.len()];
        let want = 8 * (3 + self.events.len());
        // SAFETY: `leader` is an open fd owned by this struct and the
        // buffer is a live, writable `want`-byte region (`want` ≤ the
        // array's size because `events` never exceeds FULL's length).
        let got = unsafe { sys::read(leader, buf.as_mut_ptr().cast::<u8>(), want) }.ok()?;
        if got != want || buf[0] != self.events.len() as u64 {
            return None;
        }
        let mut values = CounterValues {
            time_enabled: buf[1],
            time_running: buf[2],
            ..CounterValues::default()
        };
        for (i, event) in self.events.iter().enumerate() {
            // PANIC-OK: i < events.len() ≤ FULL.len(), and the buffer holds 3 + FULL.len() words
            let v = buf[3 + i];
            match event {
                HwEvent::Cycles => values.cycles = v,
                HwEvent::Instructions => values.instructions = v,
                HwEvent::CacheReferences => values.cache_references = v,
                HwEvent::CacheMisses => values.cache_misses = v,
                HwEvent::BranchInstructions => values.branches = v,
                HwEvent::BranchMisses => values.branch_misses = v,
            }
        }
        Some(values)
    }
}

impl Drop for CounterGroup {
    fn drop(&mut self) {
        // Close siblings before the leader: the kernel allows either
        // order, but this mirrors the open sequence in reverse.
        for &fd in self.fds.iter().rev() {
            // SAFETY: every fd in `fds` came from a successful
            // perf_event_open in `open` and is closed exactly once
            // (Drop runs once; no other path closes them).
            unsafe { sys::close(fd) };
        }
    }
}

/// Anything that can produce one consistent counter reading. The real
/// implementation is [`CounterGroup`]; tests substitute deterministic
/// fakes so [`PerfRecorder`] attribution is verifiable on hosts where
/// `perf_event_open` is denied.
pub trait ReadCounters {
    /// One consistent reading, `None` when counters are unreadable.
    fn read_now(&self) -> Option<CounterValues>;
}

/// The outcome of trying to arm counters: a live group, or a reason why
/// not. `Unavailable` is a fully supported steady state — every caller
/// must produce identical observable behavior (stdout, exit codes)
/// minus the perf report itself.
#[derive(Debug)]
pub enum CounterSet {
    /// Counters are live.
    Armed(CounterGroup),
    /// Counters could not be (or were asked not to be) armed.
    Unavailable {
        /// Human-readable reason, surfaced in `--profile` tables and
        /// diagnostics (never on stdout).
        reason: String,
    },
}

impl CounterSet {
    /// Arms counters per `mode`, degrading along the errno ladder:
    /// try the full six-event group, retry with the core pair when a
    /// sibling fails (PMU too small), report `Unavailable` with a
    /// diagnostic otherwise.
    #[must_use]
    pub fn open(mode: PerfMode) -> CounterSet {
        match mode {
            PerfMode::Off => CounterSet::Unavailable {
                reason: "disabled (RSQ_PERF=off)".to_owned(),
            },
            PerfMode::Deny => CounterSet::Unavailable {
                reason: format!("RSQ_PERF=deny: {}", errno_reason(1)),
            },
            PerfMode::Auto => match CounterGroup::open(&HwEvent::FULL) {
                Ok(group) => CounterSet::Armed(group),
                // A sibling may have failed on a small PMU; the core
                // pair answers the headline cycles/instructions
                // questions on its own.
                Err(_) => match CounterGroup::open(&HwEvent::CORE) {
                    Ok(group) => CounterSet::Armed(group),
                    Err(errno) => CounterSet::Unavailable {
                        reason: errno_reason(errno),
                    },
                },
            },
        }
    }

    /// The live group, if armed.
    #[must_use]
    pub fn group(&self) -> Option<&CounterGroup> {
        match self {
            CounterSet::Armed(group) => Some(group),
            CounterSet::Unavailable { .. } => None,
        }
    }

    /// The degradation reason, if unavailable.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            CounterSet::Armed(_) => None,
            CounterSet::Unavailable { reason } => Some(reason),
        }
    }
}

/// Renders an open failure as an actionable diagnostic (the degradation
/// ladder of DESIGN.md §16).
fn errno_reason(errno: i32) -> String {
    match errno {
        // EPERM / EACCES: almost always the paranoid sysctl; quote it.
        1 | 13 => {
            let paranoid = std::fs::read_to_string("/proc/sys/kernel/perf_event_paranoid")
                .map(|s| s.trim().to_owned())
                .unwrap_or_else(|_| "unreadable".to_owned());
            format!(
                "perf_event_open denied (errno {errno}); kernel.perf_event_paranoid={paranoid} \
                 — needs <= 2 (or CAP_PERFMON)"
            )
        }
        38 => "perf_event_open unsupported by this kernel (ENOSYS — seccomp or non-Linux)"
            .to_owned(),
        2 | 19 | 22 | 95 => format!(
            "hardware counters unsupported on this host (errno {errno} — no PMU or a VM without one)"
        ),
        other => format!("perf_event_open failed (errno {other})"),
    }
}

/// Accumulated hardware-counter report of one or more runs: whole-run
/// totals plus cycles/instructions attributed per pipeline stage via
/// [`PerfRecorder`]. Rendered into `--stats-json` (`"perf"` object),
/// the `--profile` table, and the `rsq_perf_*` metric series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerfStats {
    /// Input bytes the totals cover (denominator for per-byte rates).
    pub bytes: u64,
    /// Documents that contributed (1 for single-document runs; the
    /// sampled count in serve/batch).
    pub docs: u64,
    /// Whole-run counter totals.
    pub total: CounterValues,
    /// Cycles attributed per pipeline stage (indexed by
    /// [`ProfileStage::index`]).
    pub stage_cycles: [u64; STAGE_COUNT],
    /// Instructions attributed per pipeline stage.
    pub stage_instructions: [u64; STAGE_COUNT],
    /// True when only the core pair (cycles + instructions) was armed:
    /// branch/cache fields are zero by absence, not by measurement.
    pub core_only: bool,
}

rsq_obs::series_rows! {
    /// Every value of the `"perf"` JSON object and the `rsq_perf_*`
    /// series, once. Any degraded contribution taints a merged report
    /// (`core_only`): a branch or cache field of zero may then be
    /// absence, not measurement. The exposition leads with the six event
    /// totals.
    impl PerfStats, merged {
        "core_only" keep(|s| Value::Bool(s.core_only), |into, from| into.core_only |= from.core_only);
        "bytes" sum(|s| s.bytes) => counter rsq_perf_bytes_total "Input bytes covered by the perf counter totals." late;
        "docs" sum(|s| s.docs) => counter rsq_perf_docs_total "Documents sampled into the perf counter totals." late;
        "counters.cycles" sum(|s| s.total.cycles) => counter rsq_perf_cycles_total "CPU cycles measured by the perf counter group.";
        "counters.instructions" sum(|s| s.total.instructions) => counter rsq_perf_instructions_total "Instructions retired, measured by the perf counter group.";
        "counters.branches" sum(|s| s.total.branches) => counter rsq_perf_branches_total "Branch instructions retired.";
        "counters.branch_misses" sum(|s| s.total.branch_misses) => counter rsq_perf_branch_misses_total "Branches mispredicted.";
        "counters.cache_references" sum(|s| s.total.cache_references) => counter rsq_perf_cache_references_total "Cache references.";
        "counters.cache_misses" sum(|s| s.total.cache_misses) => counter rsq_perf_cache_misses_total "Cache misses.";
        "counters.time_enabled_ns" sum(|s| s.total.time_enabled) => counter rsq_perf_time_enabled_ns_total "Nanoseconds the counter group was enabled." late;
        "counters.time_running_ns" sum(|s| s.total.time_running) => counter rsq_perf_time_running_ns_total "Nanoseconds the counter group was scheduled on the PMU." late;
        "cycles_per_byte" calc(|s| Value::F64(s.cycles_per_byte(), 4, 4)) => gauge rsq_perf_cycles_per_byte "Multiplex-corrected CPU cycles per input byte." late;
        "instructions_per_byte" calc(|s| Value::F64(s.instructions_per_byte(), 4, 4)) => gauge rsq_perf_instructions_per_byte "Multiplex-corrected instructions per input byte." late;
        "stages.ingest.cycles" sum_at(|s| s.stage_cycles, ProfileStage::Ingest) => counter rsq_perf_stage_cycles_total {stage="ingest"} "CPU cycles attributed per pipeline stage." late;
        "stages.ingest.instructions" sum_at(|s| s.stage_instructions, ProfileStage::Ingest) => counter rsq_perf_stage_instructions_total {stage="ingest"} "Instructions attributed per pipeline stage." late;
        "stages.validate.cycles" sum_at(|s| s.stage_cycles, ProfileStage::Validate) => counter rsq_perf_stage_cycles_total {stage="validate"} "CPU cycles attributed per pipeline stage." late;
        "stages.validate.instructions" sum_at(|s| s.stage_instructions, ProfileStage::Validate) => counter rsq_perf_stage_instructions_total {stage="validate"} "Instructions attributed per pipeline stage." late;
        "stages.classify.cycles" sum_at(|s| s.stage_cycles, ProfileStage::Classify) => counter rsq_perf_stage_cycles_total {stage="classify"} "CPU cycles attributed per pipeline stage." late;
        "stages.classify.instructions" sum_at(|s| s.stage_instructions, ProfileStage::Classify) => counter rsq_perf_stage_instructions_total {stage="classify"} "Instructions attributed per pipeline stage." late;
        "stages.automaton.cycles" sum_at(|s| s.stage_cycles, ProfileStage::Automaton) => counter rsq_perf_stage_cycles_total {stage="automaton"} "CPU cycles attributed per pipeline stage." late;
        "stages.automaton.instructions" sum_at(|s| s.stage_instructions, ProfileStage::Automaton) => counter rsq_perf_stage_instructions_total {stage="automaton"} "Instructions attributed per pipeline stage." late;
        "stages.sink.cycles" sum_at(|s| s.stage_cycles, ProfileStage::Sink) => counter rsq_perf_stage_cycles_total {stage="sink"} "CPU cycles attributed per pipeline stage." late;
        "stages.sink.instructions" sum_at(|s| s.stage_instructions, ProfileStage::Sink) => counter rsq_perf_stage_instructions_total {stage="sink"} "Instructions attributed per pipeline stage." late;
    }
}

impl PerfStats {
    /// Multiplex-corrected cycles per input byte (0.0 when no bytes).
    #[must_use]
    pub fn cycles_per_byte(&self) -> f64 {
        self.per_byte(self.total.cycles)
    }

    /// Multiplex-corrected instructions per input byte.
    #[must_use]
    pub fn instructions_per_byte(&self) -> f64 {
        self.per_byte(self.total.instructions)
    }

    fn per_byte(&self, value: u64) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                value as f64 * self.total.scale() / self.bytes as f64
            }
        }
    }

    /// Adds one run's whole-run delta (and its byte count) to the
    /// totals.
    pub fn add_run(&mut self, bytes: u64, delta: &CounterValues) {
        *self += PerfStats {
            bytes,
            docs: 1,
            total: *delta,
            ..PerfStats::default()
        };
    }

    /// Attributes a bracketed delta to `stage` (cycles and instructions
    /// only — the per-stage story is the efficiency story).
    pub fn add_stage(&mut self, stage: ProfileStage, delta: &CounterValues) {
        // PANIC-OK: ProfileStage::index is < the per-stage array length (one slot per stage)
        let c = &mut self.stage_cycles[stage.index()];
        *c = c.saturating_add(delta.cycles);
        // PANIC-OK: ProfileStage::index is < the per-stage array length (one slot per stage)
        let i = &mut self.stage_instructions[stage.index()];
        *i = i.saturating_add(delta.instructions);
    }
}

impl fmt::Display for PerfStats {
    /// Human-readable counter table (multi-line), appended to the
    /// `--profile` report.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hw counters        {:.2} cycles/B, {:.2} instructions/B over {} bytes{}",
            self.cycles_per_byte(),
            self.instructions_per_byte(),
            self.bytes,
            if self.core_only {
                " (core pair only)"
            } else {
                ""
            },
        )?;
        writeln!(
            f,
            "  cycles           {} ({} instructions, IPC {:.2})",
            self.total.cycles,
            self.total.instructions,
            if self.total.cycles == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                {
                    self.total.instructions as f64 / self.total.cycles as f64
                }
            }
        )?;
        if !self.core_only {
            writeln!(
                f,
                "  branches         {} ({} missed)",
                self.total.branches, self.total.branch_misses
            )?;
            writeln!(
                f,
                "  cache refs       {} ({} missed)",
                self.total.cache_references, self.total.cache_misses
            )?;
        }
        write!(f, "  stage cycles    ")?;
        for stage in ProfileStage::ALL {
            write!(f, " {} {}", stage.name(), self.stage_cycles[stage.index()])?;
        }
        Ok(())
    }
}

/// A [`Recorder`] adapter that rides the engine's existing stage-timer
/// brackets: every [`Recorder::clock`] call snapshots the counter group
/// (LIFO, so nested classify-inside-automaton brackets attribute
/// correctly) and the matching [`Recorder::stage_ns`] pops the snapshot
/// and charges the delta to the stage in a [`PerfStats`]. All other
/// hooks delegate to the wrapped recorder unchanged, so Tier A counters
/// and Tier C profiles come out identical with or without this wrapper.
pub struct PerfRecorder<'a, R: Recorder, C: ReadCounters> {
    inner: &'a mut R,
    counters: &'a C,
    stats: &'a mut PerfStats,
    snaps: Vec<CounterValues>,
}

impl<'a, R: Recorder, C: ReadCounters> PerfRecorder<'a, R, C> {
    /// Wraps `inner`, attributing stage deltas read from `counters`
    /// into `stats`.
    pub fn new(inner: &'a mut R, counters: &'a C, stats: &'a mut PerfStats) -> Self {
        PerfRecorder {
            inner,
            counters,
            stats,
            snaps: Vec::with_capacity(4),
        }
    }
}

impl<R: Recorder, C: ReadCounters> Recorder for PerfRecorder<'_, R, C> {
    #[inline]
    fn document(&mut self, bytes: usize) {
        self.inner.document(bytes);
    }

    #[inline]
    fn event(&mut self, pos: usize) {
        self.inner.event(pos);
    }

    #[inline]
    fn leaf_skip(&mut self) {
        self.inner.leaf_skip();
    }

    #[inline]
    fn child_skip(&mut self) {
        self.inner.child_skip();
    }

    #[inline]
    fn sibling_skip(&mut self) {
        self.inner.sibling_skip();
    }

    #[inline]
    fn label_seek(&mut self) {
        self.inner.label_seek();
    }

    #[inline]
    fn memmem_jump(&mut self) {
        self.inner.memmem_jump();
    }

    #[inline]
    fn memmem_declines(&mut self, n: u64) {
        self.inner.memmem_declines(n);
    }

    #[inline]
    fn route(&mut self, route: rsq_obs::Route) {
        self.inner.route(route);
    }

    #[inline]
    fn resume_handoff(&mut self) {
        self.inner.resume_handoff();
    }

    #[inline]
    fn depth(&mut self, depth: u32) {
        self.inner.depth(depth);
    }

    #[inline]
    fn matched(&mut self) {
        self.inner.matched();
    }

    #[inline]
    fn classifier(&mut self, counters: &rsq_obs::ClassifierCounters) {
        self.inner.classifier(counters);
    }

    #[inline]
    fn skip_span(&mut self, technique: rsq_obs::SkipTechnique, from: usize, to: usize) {
        self.inner.skip_span(technique, from, to);
    }

    #[inline]
    fn clock(&mut self) -> u64 {
        self.snaps
            .push(self.counters.read_now().unwrap_or_default());
        self.inner.clock()
    }

    #[inline]
    fn stage_ns(&mut self, stage: ProfileStage, start: u64) {
        if let Some(open) = self.snaps.pop() {
            if let Some(now) = self.counters.read_now() {
                self.stats.add_stage(stage, &now.delta_since(&open));
            }
        }
        self.inner.stage_ns(stage, start);
    }
}

/// Raw x86_64-Linux syscalls. No libc: the workspace builds offline
/// with zero external crates, so the calls we need are issued directly
/// via the `syscall` instruction per the kernel ABI (args in
/// rdi/rsi/rdx/r10/r8/r9, number in rax, result in rax, rcx/r11
/// clobbered; errors are returned as `-errno` in `-4095..=-1`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::arch::asm;

    const SYS_READ: usize = 0;
    const SYS_CLOSE: usize = 3;
    const SYS_IOCTL: usize = 16;
    const SYS_PERF_EVENT_OPEN: usize = 298;

    /// `PERF_EVENT_IOC_ENABLE` (argumentless `_IO('$', 0)`).
    pub(crate) const PERF_EVENT_IOC_ENABLE: usize = 0x2400;
    /// `PERF_EVENT_IOC_DISABLE`.
    pub(crate) const PERF_EVENT_IOC_DISABLE: usize = 0x2401;
    /// `PERF_EVENT_IOC_RESET`.
    pub(crate) const PERF_EVENT_IOC_RESET: usize = 0x2403;
    /// Apply the ioctl to the whole group, not just the leader fd.
    pub(crate) const PERF_IOC_FLAG_GROUP: usize = 1;

    /// `PERF_FLAG_FD_CLOEXEC`: counters do not leak across exec.
    const PERF_FLAG_FD_CLOEXEC: usize = 8;

    /// Largest `-errno` the kernel returns; anything in `-4095..=-1`
    /// is an error code, anything else a valid result.
    const ERRNO_MAX: isize = 4095;

    /// `perf_event_attr`, `PERF_ATTR_SIZE_VER0` prefix (64 bytes —
    /// every kernel since 2.6.32 accepts this size, and we use no
    /// later field). Field order and widths match the UAPI struct.
    #[repr(C)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        config1: u64,
    }

    /// `PERF_TYPE_HARDWARE`.
    const PERF_TYPE_HARDWARE: u32 = 0;
    const PERF_ATTR_SIZE_VER0: u32 = 64;
    /// `PERF_FORMAT_TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING | GROUP`.
    const READ_FORMAT: u64 = 1 | 2 | 8;
    /// Attr flag bits (LSB-first bitfield in the UAPI struct).
    const FLAG_DISABLED: u64 = 1;
    const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
    const FLAG_EXCLUDE_HV: u64 = 1 << 6;

    /// `perf_event_open(&attr, 0, -1, group_fd, FD_CLOEXEC)`: one
    /// user-space hardware counter for the **calling thread** on any
    /// CPU. The leader (`leader == true`, `group_fd == -1`) starts
    /// disabled so the group begins counting only at the explicit
    /// `PERF_EVENT_IOC_ENABLE`; siblings inherit the leader's state.
    /// Kernel and hypervisor cycles are excluded, which keeps the
    /// counters openable at `perf_event_paranoid == 2` (the common
    /// distro default).
    pub(crate) fn perf_event_open(config: u64, group_fd: i32, leader: bool) -> Result<i32, i32> {
        let attr = PerfEventAttr {
            type_: PERF_TYPE_HARDWARE,
            size: PERF_ATTR_SIZE_VER0,
            config,
            sample_period: 0,
            sample_type: 0,
            read_format: READ_FORMAT,
            flags: if leader { FLAG_DISABLED } else { 0 } | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            wakeup_events: 0,
            bp_type: 0,
            config1: 0,
        };
        let ret: isize;
        // SAFETY: the attr struct is a live 64-byte local whose
        // declared `size` matches its layout, so the kernel reads
        // exactly the bytes we initialized; the asm matches the
        // syscall ABI (five args, rcx/r11 declared clobbered) and the
        // call allocates only a new fd — it touches no memory of this
        // process beyond reading `attr`.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_PERF_EVENT_OPEN as isize => ret,
                in("rdi") std::ptr::addr_of!(attr),
                in("rsi") 0usize,          // pid 0: this thread
                in("rdx") -1isize,         // cpu -1: any CPU
                in("r10") group_fd as isize,
                in("r8") PERF_FLAG_FD_CLOEXEC,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-ERRNO_MAX..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as i32)
        }
    }

    /// `read(fd, buf, count)`.
    ///
    /// # Safety
    ///
    /// `fd` must be an open, readable file descriptor and `buf` must be
    /// valid for `count` writable bytes for the duration of the call.
    pub(crate) unsafe fn read(fd: i32, buf: *mut u8, count: usize) -> Result<usize, i32> {
        let ret: isize;
        // SAFETY: per this function's contract the kernel writes at
        // most `count` bytes into the live buffer; the asm matches the
        // syscall ABI (three args, rcx/r11 declared clobbered).
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_READ as isize => ret,
                in("rdi") fd as isize,
                in("rsi") buf,
                in("rdx") count,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-ERRNO_MAX..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(ret as usize)
        }
    }

    /// `ioctl(fd, req, arg)` for the argumentless `PERF_EVENT_IOC_*`
    /// group controls.
    ///
    /// # Safety
    ///
    /// `fd` must be an open perf event fd and `req` one of the
    /// `PERF_EVENT_IOC_*` requests that take an integer argument (the
    /// kernel dereferences nothing for these).
    pub(crate) unsafe fn ioctl(fd: i32, req: usize, arg: usize) -> Result<(), i32> {
        let ret: isize;
        // SAFETY: per this function's contract the request passes a
        // plain integer, so the kernel touches no memory of this
        // process; the asm matches the syscall ABI (three args,
        // rcx/r11 declared clobbered).
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_IOCTL as isize => ret,
                in("rdi") fd as isize,
                in("rsi") req,
                in("rdx") arg,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-ERRNO_MAX..0).contains(&ret) {
            Err(-ret as i32)
        } else {
            Ok(())
        }
    }

    /// `close(fd)`.
    ///
    /// # Safety
    ///
    /// `fd` must be an fd this module opened that has not been closed
    /// yet; it is invalid after the call. The result is ignored —
    /// there is nothing to do about a failed close in `Drop`.
    pub(crate) unsafe fn close(fd: i32) {
        let _ret: isize;
        // SAFETY: per this function's contract `fd` is ours to close
        // exactly once; the asm matches the syscall ABI (one arg,
        // rcx/r11 declared clobbered).
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") SYS_CLOSE as isize => _ret,
                in("rdi") fd as isize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_obs::RunStats;
    use std::cell::Cell;

    /// Deterministic counter source: each reading advances cycles by
    /// 100 and instructions by 300, so bracketed deltas are exact.
    struct FakeCounters {
        reads: Cell<u64>,
    }

    impl FakeCounters {
        fn new() -> Self {
            FakeCounters {
                reads: Cell::new(0),
            }
        }
    }

    impl ReadCounters for FakeCounters {
        fn read_now(&self) -> Option<CounterValues> {
            let n = self.reads.get() + 1;
            self.reads.set(n);
            Some(CounterValues {
                cycles: n * 100,
                instructions: n * 300,
                time_enabled: n,
                time_running: n,
                ..CounterValues::default()
            })
        }
    }

    #[test]
    fn perf_mode_parses_and_rejects_typos() {
        assert_eq!(PerfMode::parse("auto"), Ok(PerfMode::Auto));
        assert_eq!(PerfMode::parse("off"), Ok(PerfMode::Off));
        assert_eq!(PerfMode::parse("deny"), Ok(PerfMode::Deny));
        assert!(PerfMode::parse("on").is_err());
        assert!(PerfMode::parse("").is_err());
    }

    #[test]
    fn off_and_deny_are_unavailable_with_stable_reasons() {
        let off = CounterSet::open(PerfMode::Off);
        assert!(off.group().is_none());
        assert_eq!(off.reason(), Some("disabled (RSQ_PERF=off)"));

        let deny = CounterSet::open(PerfMode::Deny);
        assert!(deny.group().is_none());
        let reason = deny.reason().expect("deny has a reason");
        assert!(reason.starts_with("RSQ_PERF=deny:"), "{reason}");
        assert!(reason.contains("perf_event_paranoid"), "{reason}");
    }

    /// On a perf-capable host the armed group counts a spin loop; on a
    /// denied host the reason follows the errno ladder. Both branches
    /// are legitimate outcomes — this asserts the degradation contract,
    /// not host capability.
    #[test]
    fn auto_arms_or_degrades_with_a_diagnostic() {
        match CounterSet::open(PerfMode::Auto) {
            CounterSet::Armed(group) => {
                group.start();
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                let values = group.stop().expect("armed group reads");
                assert!(acc != 1, "keep the loop alive");
                assert!(values.cycles > 0, "spin loop burned cycles: {values:?}");
                assert!(values.instructions > 0, "{values:?}");
                assert!(values.time_enabled > 0, "{values:?}");
                // A second start() resets: totals shrink back.
                group.start();
                let again = group.stop().expect("reads after reset");
                assert!(again.cycles < values.cycles || values.cycles == u64::MAX);
            }
            CounterSet::Unavailable { reason } => {
                assert!(
                    reason.contains("errno") || reason.contains("ENOSYS"),
                    "ladder reason expected, got: {reason}"
                );
            }
        }
    }

    #[test]
    fn errno_ladder_reasons_are_actionable() {
        assert!(errno_reason(1).contains("perf_event_paranoid"));
        assert!(errno_reason(13).contains("denied"));
        assert!(errno_reason(38).contains("ENOSYS"));
        assert!(errno_reason(19).contains("unsupported"));
        assert!(errno_reason(7777).contains("7777"));
    }

    #[test]
    fn delta_and_add_run_are_saturating_inverses() {
        let a = CounterValues {
            cycles: 1000,
            instructions: 3000,
            time_enabled: 10,
            time_running: 10,
            ..CounterValues::default()
        };
        let b = CounterValues {
            cycles: 1500,
            instructions: 4200,
            time_enabled: 15,
            time_running: 15,
            ..CounterValues::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 500);
        assert_eq!(d.instructions, 1200);
        // Reversed order saturates to zero instead of wrapping.
        let z = a.delta_since(&b);
        assert_eq!(z.cycles, 0);
        let mut acc = PerfStats {
            total: a,
            ..PerfStats::default()
        };
        acc.add_run(64, &d);
        assert_eq!(acc.total, b);
        assert_eq!((acc.bytes, acc.docs), (64, 1));
    }

    #[test]
    fn scale_corrects_for_multiplexing() {
        let full = CounterValues {
            time_enabled: 100,
            time_running: 100,
            ..CounterValues::default()
        };
        assert!((full.scale() - 1.0).abs() < 1e-12);
        let half = CounterValues {
            time_enabled: 100,
            time_running: 50,
            ..CounterValues::default()
        };
        assert!((half.scale() - 2.0).abs() < 1e-12);
        let idle = CounterValues::default();
        assert!((idle.scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_byte_rates_use_the_scale() {
        let mut stats = PerfStats::default();
        stats.add_run(
            1000,
            &CounterValues {
                cycles: 2000,
                instructions: 6000,
                time_enabled: 100,
                time_running: 50,
                ..CounterValues::default()
            },
        );
        // 2000 cycles over 1000 bytes, doubled for 50% multiplexing.
        assert!((stats.cycles_per_byte() - 4.0).abs() < 1e-9);
        assert!((stats.instructions_per_byte() - 12.0).abs() < 1e-9);
        assert_eq!(stats.docs, 1);
        let empty = PerfStats::default();
        assert!((empty.cycles_per_byte() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_attributes_nested_brackets_lifo() {
        let fake = FakeCounters::new();
        let mut inner = RunStats::default();
        let mut stats = PerfStats::default();
        {
            let mut rec = PerfRecorder::new(&mut inner, &fake, &mut stats);
            // Outer automaton bracket: snapshot at read #1.
            let t_auto = rec.clock();
            rec.event(0);
            // Nested classify bracket: snapshot #2, closed with #3.
            let t_classify = rec.clock();
            rec.stage_ns(ProfileStage::Classify, t_classify);
            // Outer closes with read #4: delta = 3 reads * 100 cycles.
            rec.stage_ns(ProfileStage::Automaton, t_auto);
        }
        assert_eq!(stats.stage_cycles[ProfileStage::Classify.index()], 100);
        assert_eq!(
            stats.stage_instructions[ProfileStage::Classify.index()],
            300
        );
        assert_eq!(stats.stage_cycles[ProfileStage::Automaton.index()], 300);
        assert_eq!(inner.events, 1, "inner recorder still sees its hooks");
    }

    #[test]
    fn recorder_delegates_all_counter_hooks() {
        let fake = FakeCounters::new();
        let mut inner = RunStats::default();
        let mut stats = PerfStats::default();
        {
            let mut rec = PerfRecorder::new(&mut inner, &fake, &mut stats);
            rec.document(40);
            rec.matched();
            rec.leaf_skip();
            rec.child_skip();
            rec.sibling_skip();
            rec.label_seek();
            rec.memmem_jump();
            rec.memmem_declines(1);
            rec.resume_handoff();
            rec.depth(7);
            rec.route(rsq_obs::Route::FieldChain);
            rec.classifier(&rsq_obs::ClassifierCounters {
                blocks_quote: 3,
                ..rsq_obs::ClassifierCounters::default()
            });
        }
        assert_eq!(inner.bytes, 40);
        assert_eq!(inner.matches, 1);
        assert_eq!(inner.skips.leaf, 1);
        assert_eq!(inner.skips.child, 1);
        assert_eq!(inner.skips.sibling, 1);
        assert_eq!(inner.skips.label, 1);
        assert_eq!(inner.memmem_jumps, 1);
        assert_eq!(inner.memmem_declined, 1);
        assert_eq!(inner.resume_handoffs, 1);
        assert_eq!(inner.max_depth, 7);
        assert_eq!(inner.route, rsq_obs::Route::FieldChain);
        assert_eq!(inner.blocks.quote, 3);
    }

    #[test]
    fn unbalanced_stage_ns_is_harmless() {
        let fake = FakeCounters::new();
        let mut inner = RunStats::default();
        let mut stats = PerfStats::default();
        let mut rec = PerfRecorder::new(&mut inner, &fake, &mut stats);
        // stage_ns without a prior clock(): no snapshot to pop.
        rec.stage_ns(ProfileStage::Sink, 0);
        assert_eq!(stats.stage_cycles[ProfileStage::Sink.index()], 0);
    }

    #[test]
    fn json_has_stable_keys_and_merge_adds() {
        let mut a = PerfStats::default();
        a.add_run(
            100,
            &CounterValues {
                cycles: 500,
                instructions: 1500,
                ..CounterValues::default()
            },
        );
        a.add_stage(
            ProfileStage::Automaton,
            &CounterValues {
                cycles: 400,
                instructions: 1200,
                ..CounterValues::default()
            },
        );
        let json = a.to_json();
        for key in [
            "\"core_only\":false",
            "\"bytes\":100",
            "\"docs\":1",
            "\"counters\":{\"cycles\":500",
            "\"cycles_per_byte\":5.0000",
            "\"instructions_per_byte\":15.0000",
            "\"stages\":{\"ingest\":{\"cycles\":0",
            "\"automaton\":{\"cycles\":400,\"instructions\":1200}",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let mut b = a;
        b += a;
        assert_eq!(b.bytes, 200);
        assert_eq!(b.docs, 2);
        assert_eq!(b.total.cycles, 1000);
        assert_eq!(b.stage_cycles[ProfileStage::Automaton.index()], 800);
    }

    #[test]
    fn prometheus_series_pass_the_expo_lint() {
        let mut stats = PerfStats::default();
        stats.add_run(
            64,
            &CounterValues {
                cycles: 128,
                instructions: 512,
                branches: 64,
                branch_misses: 2,
                cache_references: 10,
                cache_misses: 1,
                time_enabled: 1000,
                time_running: 1000,
            },
        );
        stats.add_stage(
            ProfileStage::Classify,
            &CounterValues {
                cycles: 32,
                instructions: 100,
                ..CounterValues::default()
            },
        );
        let mut expo = rsq_obs::expo::Exposition::new();
        expo.rows(PerfStats::ROWS, &stats, "");
        let text = expo.finish();
        rsq_obs::expo::check(&text).expect("rsq_perf_* series are well-formed");
        assert!(text.contains("rsq_perf_cycles_total 128"));
        assert!(text.contains("rsq_perf_cycles_per_byte 2.0000"));
        assert!(text.contains("rsq_perf_stage_cycles_total{stage=\"classify\"} 32"));
        assert_eq!(text.matches("# TYPE rsq_perf_cycles_total ").count(), 1);
    }
}
