//! The document spine shared by the single-document CLI, the batch shard
//! loop and the serve workers: one contained engine run, with whatever
//! the caller wants recorded about it.
//!
//! [`DocRunner::run`] is the only place in the workspace that brackets a
//! document run with the thread's hardware-counter group, wraps a
//! profile in a [`PerfRecorder`], catches a panic at the document
//! boundary, and maps [`RunError`] onto [`DocError`]. What varies between
//! the drivers is an argument — the [`Record`], and whether the document
//! is a slice or streams in while it runs ([`DocRunner::run_stream`]) —
//! not a code path.

use crate::{DocError, DocErrorKind};
use rsq_engine::{
    Engine, NoStats, ProfileStats, Recorder, Route, RunError, RunStats, Sink, SinkFull, Streamed,
};
use rsq_perf::{CounterGroup, CounterSet, PerfMode, PerfRecorder, PerfStats};
use std::io::Read;
use std::marker::PhantomData;
use std::time::Instant;

/// What one run records besides its matches.
#[derive(Debug)]
pub enum Record<'a> {
    /// Nothing: [`Engine::try_run`] — no clock read, no counter.
    Nothing,
    /// Tier A counters. A successful run's [`RunStats`] are added to the
    /// accumulator; a failed run leaves it untouched.
    Stats(&'a mut RunStats),
    /// The Tier C profile, accumulated through the recorder hooks — the
    /// partial work of a failed run stays in it; one [`ProfileStats::new`]
    /// may be reused across the documents of a worker.
    Profile(&'a mut ProfileStats),
}

/// What a run found, in the form the output mode renders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Matches {
    /// Only the number of matches.
    Count(u64),
    /// Every match offset, in document order.
    Positions(Vec<usize>),
}

impl Matches {
    /// The number of matches.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            Matches::Count(count) => *count,
            Matches::Positions(positions) => positions.len() as u64,
        }
    }

    /// The match offsets (empty when only a count was gathered).
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        match self {
            Matches::Count(_) => &[],
            Matches::Positions(positions) => positions,
        }
    }
}

/// The one sink the drivers run the engine into — one type, so the
/// engine's loops are instantiated once per recorder however many output
/// modes and deadline settings there are. It counts, or records positions
/// when the mode renders from them, and with a deadline set it checks
/// the wall clock every few records: the matching-phase half of a
/// per-document deadline. Tripping reports [`SinkFull`] — a *clean* early
/// stop for the engine — and [`DocRunner::run_doc`] turns the flag into a
/// timeout outcome.
#[derive(Debug)]
pub struct DocSink {
    matches: Matches,
    deadline: Option<Instant>,
    since_check: u32,
    expired: bool,
}

impl DocSink {
    /// Records between clock reads. The engine can emit matches at
    /// hundreds of millions per second; reading the clock every record
    /// would dominate. 64 keeps the deadline granular to microseconds
    /// of overrun at worst.
    const CHECK_EVERY: u32 = 64;

    /// A sink gathering positions (`positions == true`) or only a count,
    /// giving up once `deadline` has passed.
    #[must_use]
    pub fn new(positions: bool, deadline: Option<Instant>) -> Self {
        DocSink {
            matches: if positions {
                Matches::Positions(Vec::new())
            } else {
                Matches::Count(0)
            },
            deadline,
            since_check: 0,
            expired: false,
        }
    }

    /// What has been gathered so far.
    #[must_use]
    pub fn matches(&self) -> &Matches {
        &self.matches
    }

    /// Consumes the sink, returning what it gathered.
    #[must_use]
    pub fn into_matches(self) -> Matches {
        self.matches
    }

    /// Forgets the gathered matches, keeping the positions buffer's
    /// capacity, so a worker reuses one sink across its documents.
    pub fn clear(&mut self) {
        match &mut self.matches {
            Matches::Count(count) => *count = 0,
            Matches::Positions(positions) => positions.clear(),
        }
        self.since_check = 0;
        self.expired = false;
    }
}

impl Sink for DocSink {
    fn record(&mut self, pos: usize) -> Result<(), SinkFull> {
        if let Some(deadline) = self.deadline {
            self.since_check += 1;
            if self.since_check >= Self::CHECK_EVERY {
                self.since_check = 0;
                if Instant::now() >= deadline {
                    self.expired = true;
                    return Err(SinkFull);
                }
            }
        }
        match &mut self.matches {
            Matches::Count(count) => *count += 1,
            Matches::Positions(positions) => positions.push(pos),
        }
        Ok(())
    }
}

/// Runs documents on the thread that opened it: it owns that thread's
/// hardware-counter group (perf events count the opening thread) and the
/// [`PerfStats`] the bracketed runs accumulate into. It is not `Send`, so
/// a runner opened on one thread cannot count runs made on another:
///
/// ```compile_fail
/// fn send(_: impl Send) {}
/// send(rsq_batch::DocRunner::open(rsq_perf::PerfMode::Off));
/// ```
#[derive(Debug)]
pub struct DocRunner {
    counters: CounterSet,
    perf: PerfStats,
    on_thread: PhantomData<*const ()>,
}

impl DocRunner {
    /// Opens the calling thread's counter group per `mode`.
    /// [`PerfMode::Off`] and denied hosts both land on an unavailable
    /// set, which makes the per-run bracket a no-op: no fd, no syscall.
    #[must_use]
    pub fn open(mode: PerfMode) -> Self {
        let counters = CounterSet::open(mode);
        let perf = PerfStats {
            core_only: counters.group().is_some_and(CounterGroup::is_core_only),
            ..PerfStats::default()
        };
        DocRunner {
            counters,
            perf,
            on_thread: PhantomData,
        }
    }

    /// Hardware-counter totals of the bracketed runs so far; `None` when
    /// no run was counted (counters off, denied, or never sampled).
    #[must_use]
    pub fn perf(&self) -> Option<PerfStats> {
        (self.perf.docs > 0).then_some(self.perf)
    }

    /// Why the counters are not armed, if they are not.
    #[must_use]
    pub fn counters_unavailable(&self) -> Option<&str> {
        self.counters.reason()
    }

    /// Runs `doc` through `engine` into `sink`, recording what `record`
    /// asks for, and returns the route the run took. With `sample` set and the counters armed, the run is
    /// bracketed by one counter-group start/stop and the delta folds into
    /// [`perf`](Self::perf); a profiled run additionally attributes
    /// cycles per pipeline stage by riding the stage-timer brackets.
    ///
    /// A panic anywhere inside the run (including a panicking [`Sink`])
    /// comes back as a [`DocErrorKind::Panic`] outcome for *this*
    /// document instead of unwinding the calling thread. The engine holds
    /// no global state and the recorders and sinks are plain values, so
    /// observing them after an unwind is safe (the next document
    /// overwrites them); `AssertUnwindSafe` records that judgement.
    ///
    /// # Errors
    ///
    /// As [`Engine::try_run`], mapped through [`DocError::from_run`], plus
    /// [`DocErrorKind::Panic`] for contained panics.
    pub fn run<S: Sink>(
        &mut self,
        engine: &Engine,
        doc: &[u8],
        sink: &mut S,
        record: Record<'_>,
        sample: bool,
    ) -> Result<Route, DocError> {
        self.contained(engine, Doc::Slice(doc), sink, record, sample)
    }

    /// [`run`](Self::run) over a document that streams in while it runs
    /// (bounded memory, the input checked as it arrives and to its end,
    /// the `deadline` before every read). The reader is a trait object,
    /// so that the engine's loops are compiled here, once, for every way
    /// in.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus the input's failures.
    pub fn run_stream<'d>(
        &mut self,
        engine: &Engine,
        doc: Streamed<'d, &'d mut dyn Read>,
        deadline: Option<Instant>,
        sink: &mut DocSink,
        record: Record<'_>,
        sample: bool,
    ) -> Result<Route, DocError> {
        self.contained(engine, Doc::Stream(doc, deadline), sink, record, sample)
    }

    /// The one body of [`run`](Self::run) and
    /// [`run_stream`](Self::run_stream).
    fn contained<S: Sink>(
        &mut self,
        engine: &Engine,
        doc: Doc<'_>,
        sink: &mut S,
        record: Record<'_>,
        sample: bool,
    ) -> Result<Route, DocError> {
        let group = self.counters.group().filter(|_| sample);
        if let Some(g) = group {
            g.start();
        }
        let perf = &mut self.perf;
        let mut bytes = 0;
        let run = std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Doc::Slice(doc) = &doc {
                crate::tests::contained_fault(doc);
            }
            let route;
            (bytes, route) = match record {
                Record::Nothing => doc.run(engine, sink, &mut NoStats)?,
                Record::Stats(total) => {
                    let mut stats = RunStats::default();
                    let ran = doc.run(engine, sink, &mut stats)?;
                    stats.route = ran.1;
                    *total += stats;
                    ran
                }
                Record::Profile(profile) => {
                    let ran = match group {
                        Some(g) => doc.run(engine, sink, &mut PerfRecorder::new(profile, g, perf)),
                        None => doc.run(engine, sink, profile),
                    }?;
                    profile.stats.route = ran.1;
                    ran
                }
            };
            Ok(route)
        });
        let outcome = match std::panic::catch_unwind(run) {
            Ok(run) => run.map_err(|e: RunError| DocError::from_run(&e)),
            Err(payload) => Err(DocError {
                kind: DocErrorKind::Panic,
                message: format!("worker panicked: {}", panic_message(payload.as_ref())),
            }),
        };
        if let Some(delta) = group.and_then(CounterGroup::stop) {
            self.perf.add_run(bytes as u64, &delta);
        }
        outcome
    }

    /// [`run`](Self::run) into a [`DocSink`], honouring its deadline at
    /// deterministic points only: once before the run (a document whose
    /// budget already passed — e.g. held back by backpressure — times out
    /// without running) and every few matches during it. A deadline in
    /// the past therefore times out every document deterministically.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`DocErrorKind::Timeout`].
    pub fn run_doc(
        &mut self,
        engine: &Engine,
        doc: &[u8],
        sink: &mut DocSink,
        record: Record<'_>,
        sample: bool,
    ) -> Result<Route, DocError> {
        let timeout = || DocError::from_run(&RunError::DeadlineExceeded);
        if sink.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(timeout());
        }
        let run = self.run(engine, doc, sink, record, sample);
        if sink.expired {
            Err(timeout())
        } else {
            run
        }
    }
}

/// A document as [`DocRunner`] runs it: one slice, or streamed (with the
/// deadline its reads are held to).
enum Doc<'d> {
    Slice(&'d [u8]),
    Stream(Streamed<'d, &'d mut dyn Read>, Option<Instant>),
}

impl Doc<'_> {
    /// Runs the document through `engine`, returning its length and the
    /// route the run took.
    fn run<S: Sink>(
        self,
        engine: &Engine,
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<(usize, Route), RunError> {
        match self {
            Doc::Slice(doc) => engine
                .try_run_with_recorder(doc, sink, rec)
                .map(|route| (doc.len(), route)),
            Doc::Stream(Streamed::Reader(reader), deadline) => {
                engine.try_run_reader_with_recorder(reader, sink, rec, deadline)
            }
            Doc::Stream(Streamed::Mapped { file, start, len }, deadline) => {
                engine.try_run_mapped_with_recorder(file, start, len, sink, rec, deadline)
            }
        }
    }
}

/// Renders a panic payload the way the default hook would: the `&str` or
/// `String` message if there is one, a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_engine::{EngineOptions, LimitKind};
    use rsq_query::Query;

    const DOC: &[u8] = br#"{"a": 1, "b": {"a": [2, {"a": 3}]}, "c": {"a": {"x": {"a": 4}}}}"#;
    const MODES: [PerfMode; 3] = [PerfMode::Off, PerfMode::Deny, PerfMode::Auto];

    fn engine(query: &str, options: EngineOptions) -> Engine {
        Engine::with_options(&Query::parse(query).unwrap(), options).unwrap()
    }

    /// A sink that panics on its second match.
    struct Bomb(u32);

    impl Sink for Bomb {
        fn record(&mut self, _pos: usize) -> Result<(), SinkFull> {
            self.0 += 1;
            assert!(self.0 < 2, "sink exploded");
            Ok(())
        }
    }

    /// Runs `f` with the default panic hook silenced, so an expected
    /// panic does not clutter the test log.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn every_record_mode_sink_agrees_with_the_engine() {
        for query in ["$..a", "$.b.a", "$.c..a"] {
            let engine = engine(query, EngineOptions::default());
            let expected = engine.try_positions(DOC).unwrap();
            let expected_stats = engine
                .try_run_with_stats(DOC, &mut Vec::<usize>::new())
                .unwrap();
            for mode in MODES {
                let mut runner = DocRunner::open(mode);
                for positions in [false, true] {
                    let context = format!("{query} {mode:?} positions={positions}");
                    let check = |sink: &DocSink| {
                        assert_eq!(sink.matches().count(), expected.len() as u64, "{context}");
                        if positions {
                            assert_eq!(sink.matches().positions(), expected, "{context}");
                        }
                    };

                    let mut sink = DocSink::new(positions, None);
                    runner
                        .run_doc(&engine, DOC, &mut sink, Record::Nothing, true)
                        .unwrap();
                    check(&sink);

                    sink.clear();
                    let mut stats = RunStats::default();
                    runner
                        .run_doc(&engine, DOC, &mut sink, Record::Stats(&mut stats), true)
                        .unwrap();
                    check(&sink);
                    assert_eq!(stats, expected_stats, "{context}");
                    assert_eq!(stats.bytes, DOC.len() as u64, "{context}");

                    sink.clear();
                    let mut profile = ProfileStats::new();
                    let record = Record::Profile(&mut profile);
                    runner
                        .run_doc(&engine, DOC, &mut sink, record, true)
                        .unwrap();
                    check(&sink);
                    assert_eq!(profile.stats, expected_stats, "{context}");
                    assert!(
                        profile.stages.get(rsq_obs::ProfileStage::Automaton) > 0,
                        "{context}: stage timers fired"
                    );
                }
                if mode != PerfMode::Auto {
                    assert!(runner.perf().is_none(), "{mode:?} counts nothing");
                    assert!(runner.counters_unavailable().is_some());
                }
                // Where the kernel grants counters, every sampled run
                // was bracketed; where it does not, none was.
                let docs = runner.perf().map_or(0, |p| p.docs);
                assert!(docs == 0 || docs == 6, "{mode:?}: {docs} bracketed runs");
            }
        }
    }

    #[test]
    fn stats_accumulate_on_success_only_and_profiles_always() {
        let capped = engine(
            "$..a",
            EngineOptions {
                max_matches: Some(2),
                ..EngineOptions::default()
            },
        );
        let mut runner = DocRunner::open(PerfMode::Off);
        let mut sink = DocSink::new(false, None);
        let mut stats = RunStats::default();
        let mut profile = ProfileStats::new();
        for _ in 0..2 {
            sink.clear();
            let record = Record::Stats(&mut stats);
            runner
                .run_doc(&capped, DOC, &mut sink, record, true)
                .unwrap_err();
            let record = Record::Profile(&mut profile);
            runner
                .run_doc(&capped, DOC, &mut sink, record, true)
                .unwrap_err();
        }
        assert_eq!(stats, RunStats::default());
        assert_eq!(profile.stats.bytes, 2 * DOC.len() as u64);
        assert!(profile.stats.events > 0);
    }

    #[test]
    fn a_panicking_sink_fails_its_document_and_the_next_run_is_clean() {
        let engine = engine("$..a", EngineOptions::default());
        for mode in MODES {
            let mut runner = DocRunner::open(mode);
            for record in 0..3 {
                let mut stats = RunStats::default();
                let mut profile = ProfileStats::new();
                let record = match record {
                    0 => Record::Nothing,
                    1 => Record::Stats(&mut stats),
                    _ => Record::Profile(&mut profile),
                };
                let err =
                    quietly(|| runner.run(&engine, DOC, &mut Bomb(0), record, true)).unwrap_err();
                assert_eq!(err.kind, DocErrorKind::Panic);
                assert_eq!(err.code(), "panic");
                assert!(err.message.contains("sink exploded"), "{}", err.message);

                let mut sink = DocSink::new(true, None);
                runner
                    .run_doc(&engine, DOC, &mut sink, Record::Nothing, true)
                    .unwrap();
                assert_eq!(
                    sink.matches().positions(),
                    engine.try_positions(DOC).unwrap()
                );
            }
        }
    }

    #[test]
    fn failures_keep_their_codes_and_messages() {
        // The main loop is where depth and label limits are enforced
        // exactly; the memmem head start only bounds them per sub-run.
        let limited = |options: EngineOptions| {
            engine(
                "$..a",
                EngineOptions {
                    head_start: false,
                    ..options
                },
            )
        };
        let cases: [(Engine, &[u8], DocErrorKind, &str); 5] = [
            (
                limited(EngineOptions {
                    max_matches: Some(1),
                    ..EngineOptions::default()
                }),
                DOC,
                DocErrorKind::Limit(LimitKind::Matches),
                "limit:matches",
            ),
            (
                limited(EngineOptions {
                    max_document_bytes: Some(8),
                    ..EngineOptions::default()
                }),
                DOC,
                DocErrorKind::Limit(LimitKind::DocumentBytes),
                "limit:document-bytes",
            ),
            (
                limited(EngineOptions {
                    max_depth: 2,
                    ..EngineOptions::default()
                }),
                DOC,
                DocErrorKind::Limit(LimitKind::Depth),
                "limit:depth",
            ),
            (
                limited(EngineOptions {
                    max_label_bytes: Some(0),
                    ..EngineOptions::default()
                }),
                DOC,
                DocErrorKind::Limit(LimitKind::LabelBytes),
                "limit:label-bytes",
            ),
            (
                limited(EngineOptions {
                    strict: true,
                    ..EngineOptions::default()
                }),
                br#"{"a": [1, 2}"#,
                DocErrorKind::Malformed,
                "malformed",
            ),
        ];
        let mut runner = DocRunner::open(PerfMode::Off);
        for (engine, doc, kind, code) in &cases {
            let mut sink = DocSink::new(true, None);
            let err = runner
                .run_doc(engine, doc, &mut sink, Record::Nothing, true)
                .unwrap_err();
            assert_eq!((err.kind, err.code()), (*kind, *code));
            let direct = engine.try_positions(doc).unwrap_err();
            assert_eq!(err.message, direct.to_string(), "{code}");
        }
    }

    #[test]
    fn deadlines_time_out_before_and_during_the_run() {
        let engine = engine("$..a", EngineOptions::default());
        let mut runner = DocRunner::open(PerfMode::Off);
        let past = Instant::now();

        // Already expired: the document never runs.
        let mut sink = DocSink::new(true, Some(past));
        let err = runner
            .run_doc(&engine, DOC, &mut sink, Record::Nothing, true)
            .unwrap_err();
        assert_eq!((err.kind, err.code()), (DocErrorKind::Timeout, "timeout"));
        assert_eq!(err.message, "deadline exceeded");
        assert_eq!(sink.matches().count(), 0);

        // Expiring mid-run: the sink stops the engine at its next clock
        // check, and the clean early stop still reports a timeout.
        let mut many = b"[".to_vec();
        for _ in 0..200 {
            many.extend_from_slice(br#"{"a": 1},"#);
        }
        many.extend_from_slice(b"0]");
        let mut sink = DocSink::new(false, Some(past));
        let run = runner.run(&engine, &many, &mut sink, Record::Nothing, true);
        assert!(run.is_ok(), "a sink stop is a clean exit for the engine");
        assert!(sink.expired);
        assert!(sink.matches().count() < 200);

        // A generous deadline changes nothing.
        let later = Instant::now() + std::time::Duration::from_secs(3600);
        let mut sink = DocSink::new(false, Some(later));
        runner
            .run_doc(&engine, &many, &mut sink, Record::Nothing, true)
            .unwrap();
        assert_eq!(sink.matches().count(), 200);
    }

    #[test]
    fn unsampled_runs_are_not_bracketed() {
        let engine = engine("$..a", EngineOptions::default());
        let mut runner = DocRunner::open(PerfMode::Auto);
        let mut sink = DocSink::new(false, None);
        runner
            .run_doc(&engine, DOC, &mut sink, Record::Nothing, false)
            .unwrap();
        assert!(runner.perf().is_none());
    }
}
