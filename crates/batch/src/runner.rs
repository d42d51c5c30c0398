//! The document spine shared by the single-document CLI, the batch shard
//! loop and the serve workers: one contained engine run, with whatever
//! the caller wants recorded about it.
//!
//! This module is the only place in the workspace that catches a panic at
//! the document boundary and maps [`RunError`] onto [`DocError`]. What varies
//! between the drivers is an argument — the [`Record`], and whether the
//! document is a slice or streams in while it runs ([`run_stream`]) — not
//! a code path. The run holds no state between documents, so these are
//! free functions.

use crate::{DocError, DocErrorKind, DocSink};
use rsq_engine::{
    Engine, NoStats, ProfileStats, Recorder, Route, RunError, RunStats, Sink, Streamed,
};
use std::io::Read;
use std::time::Instant;

/// What one run records besides its matches.
#[derive(Debug)]
pub enum Record<'a> {
    /// Nothing: [`Engine::try_run`] — no clock read.
    Nothing,
    /// Tier A counters. A successful run's [`RunStats`] are added to the
    /// accumulator; a failed run leaves it untouched.
    Stats(&'a mut RunStats),
    /// The Tier C profile, accumulated through the recorder hooks — the
    /// partial work of a failed run stays in it; one [`ProfileStats::new`]
    /// may be reused across the documents of a worker.
    Profile(&'a mut ProfileStats),
}

/// Runs `doc` through `engine` into `sink`, recording what `record` asks
/// for, and returns the route the run took.
///
/// A panic anywhere inside the run (including a panicking [`Sink`]) comes
/// back as a [`DocErrorKind::Panic`] outcome for *this* document instead
/// of unwinding the calling thread. The engine holds no global state and
/// the recorders and sinks are plain values, so observing them after an
/// unwind is safe (the next document overwrites them);
/// `AssertUnwindSafe` records that judgement.
///
/// # Errors
///
/// As [`Engine::try_run`], mapped through [`DocError::from_run`], plus
/// [`DocErrorKind::Panic`] for contained panics.
pub fn run<S: Sink>(
    engine: &Engine,
    doc: &[u8],
    sink: &mut S,
    record: Record<'_>,
) -> Result<Route, DocError> {
    contained(engine, Doc::Slice(doc), sink, record)
}

/// [`run`] over a document that streams in while it runs (bounded
/// memory, the input checked as it arrives and to its end, the
/// `deadline` before every read). The reader is a trait object, so that
/// the engine's loops are compiled here, once, for every way in.
///
/// # Errors
///
/// As [`run`], plus the input's failures.
pub fn run_stream<'d>(
    engine: &Engine,
    doc: Streamed<'d, &'d mut dyn Read>,
    deadline: Option<Instant>,
    sink: &mut DocSink<'_>,
    record: Record<'_>,
) -> Result<Route, DocError> {
    contained(engine, Doc::Stream(doc, deadline), sink, record)
}

/// [`run`] into a [`DocSink`] (bound to `doc`), honouring its deadline at
/// deterministic points only: once before the run (a document whose
/// budget already passed — e.g. held back by backpressure — times out
/// without running) and every few matches during it. A deadline in the
/// past times out every document.
///
/// # Errors
///
/// As [`run`], plus [`DocErrorKind::Timeout`].
pub fn run_doc<'d>(
    engine: &Engine,
    doc: &'d [u8],
    sink: &mut DocSink<'d>,
    record: Record<'_>,
) -> Result<Route, DocError> {
    let timeout = || DocError::from_run(&RunError::DeadlineExceeded);
    if sink.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(timeout());
    }
    sink.bind(engine, doc);
    let run = run(engine, doc, sink, record);
    if sink.expired {
        Err(timeout())
    } else {
        run
    }
}

/// The one body of [`run`] and [`run_stream`].
fn contained<S: Sink>(
    engine: &Engine,
    doc: Doc<'_>,
    sink: &mut S,
    record: Record<'_>,
) -> Result<Route, DocError> {
    let run = std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        if let Doc::Slice(doc) = &doc {
            crate::tests::contained_fault(doc);
        }
        match record {
            Record::Nothing => doc.run(engine, sink, &mut NoStats),
            Record::Stats(total) => {
                let mut stats = RunStats::default();
                let route = doc.run(engine, sink, &mut stats)?;
                stats.route = route;
                *total += stats;
                Ok(route)
            }
            Record::Profile(profile) => {
                let route = doc.run(engine, sink, profile)?;
                profile.stats.route = route;
                Ok(route)
            }
        }
    });
    match std::panic::catch_unwind(run) {
        Ok(run) => run.map_err(|e: RunError| DocError::from_run(&e)),
        Err(payload) => Err(DocError {
            kind: DocErrorKind::Panic,
            message: format!("worker panicked: {}", panic_message(payload.as_ref())),
        }),
    }
}

/// A document as [`run`] runs it: one slice, or streamed (with the
/// deadline its reads are held to).
enum Doc<'d> {
    Slice(&'d [u8]),
    Stream(Streamed<'d, &'d mut dyn Read>, Option<Instant>),
}

impl Doc<'_> {
    /// Runs the document through `engine`, returning the route the run
    /// took.
    fn run<S: Sink>(
        self,
        engine: &Engine,
        sink: &mut S,
        rec: &mut impl Recorder,
    ) -> Result<Route, RunError> {
        match self {
            Doc::Slice(doc) => engine.try_run_with_recorder(doc, sink, rec),
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
    use crate::ResponseMode;
    use rsq_engine::{EngineOptions, LimitKind, SinkFull};
    use rsq_query::Query;

    const DOC: &[u8] = br#"{"a": 1, "b": {"a": [2, {"a": 3}]}, "c": {"a": {"x": {"a": 4}}}}"#;

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
                .try_run_with_stats(DOC, &mut rsq_engine::CountSink::new())
                .unwrap();
            for response in [
                ResponseMode::Count,
                ResponseMode::Positions,
                ResponseMode::Values,
            ] {
                let context = format!("{query} {response:?}");
                let check = |sink: &DocSink| {
                    assert_eq!(sink.matches().count(), expected.len() as u64, "{context}");
                    if response == ResponseMode::Positions {
                        assert_eq!(sink.matches().positions(), expected, "{context}");
                    }
                    if response == ResponseMode::Values {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        crate::render(&mut got, DOC, sink.matches()).unwrap();
                        for &p in &expected {
                            let span = rsq_json::node_span(DOC, p).unwrap();
                            want.extend_from_slice(&DOC[span]);
                            want.push(b'\n');
                        }
                        assert_eq!(got, want, "{context}");
                    }
                };

                let mut sink = DocSink::new(response, None);
                run_doc(&engine, DOC, &mut sink, Record::Nothing).unwrap();
                check(&sink);

                sink.clear();
                let mut stats = RunStats::default();
                run_doc(&engine, DOC, &mut sink, Record::Stats(&mut stats)).unwrap();
                check(&sink);
                assert_eq!(stats, expected_stats, "{context}");
                assert_eq!(stats.bytes, DOC.len() as u64, "{context}");

                sink.clear();
                let mut profile = ProfileStats::new();
                let record = Record::Profile(&mut profile);
                run_doc(&engine, DOC, &mut sink, record).unwrap();
                check(&sink);
                assert_eq!(profile.stats, expected_stats, "{context}");
                assert!(
                    profile.stages.get(rsq_obs::ProfileStage::Automaton) > 0,
                    "{context}: stage timers fired"
                );
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
        let mut sink = DocSink::new(ResponseMode::Count, None);
        let mut stats = RunStats::default();
        let mut profile = ProfileStats::new();
        for _ in 0..2 {
            sink.clear();
            let record = Record::Stats(&mut stats);
            run_doc(&capped, DOC, &mut sink, record).unwrap_err();
            let record = Record::Profile(&mut profile);
            run_doc(&capped, DOC, &mut sink, record).unwrap_err();
        }
        assert_eq!(stats, RunStats::default());
        assert_eq!(profile.stats.bytes, 2 * DOC.len() as u64);
        assert!(profile.stats.events > 0);
    }

    #[test]
    fn a_panicking_sink_fails_its_document_and_the_next_run_is_clean() {
        let engine = engine("$..a", EngineOptions::default());
        for record in 0..3 {
            let mut stats = RunStats::default();
            let mut profile = ProfileStats::new();
            let record = match record {
                0 => Record::Nothing,
                1 => Record::Stats(&mut stats),
                _ => Record::Profile(&mut profile),
            };
            let err = quietly(|| run(&engine, DOC, &mut Bomb(0), record)).unwrap_err();
            assert_eq!(err.kind, DocErrorKind::Panic);
            assert_eq!(err.code(), "panic");
            assert!(err.message.contains("sink exploded"), "{}", err.message);

            let mut sink = DocSink::new(ResponseMode::Positions, None);
            run_doc(&engine, DOC, &mut sink, Record::Nothing).unwrap();
            assert_eq!(
                sink.matches().positions(),
                engine.try_positions(DOC).unwrap()
            );
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
        for (engine, doc, kind, code) in &cases {
            let mut sink = DocSink::new(ResponseMode::Positions, None);
            let err = run_doc(engine, doc, &mut sink, Record::Nothing).unwrap_err();
            assert_eq!((err.kind, err.code()), (*kind, *code));
            let direct = engine.try_positions(doc).unwrap_err();
            assert_eq!(err.message, direct.to_string(), "{code}");
        }
    }

    #[test]
    fn deadlines_time_out_before_and_during_the_run() {
        let engine = engine("$..a", EngineOptions::default());
        let past = Instant::now();

        // Already expired: the document never runs.
        let mut sink = DocSink::new(ResponseMode::Positions, Some(past));
        let err = run_doc(&engine, DOC, &mut sink, Record::Nothing).unwrap_err();
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
        let mut sink = DocSink::new(ResponseMode::Count, Some(past));
        let run = run(&engine, &many, &mut sink, Record::Nothing);
        assert!(run.is_ok(), "a sink stop is a clean exit for the engine");
        assert!(sink.expired);
        assert!(sink.matches().count() < 200);

        // A generous deadline changes nothing.
        let later = Instant::now() + std::time::Duration::from_secs(3600);
        let mut sink = DocSink::new(ResponseMode::Count, Some(later));
        run_doc(&engine, &many, &mut sink, Record::Nothing).unwrap();
        assert_eq!(sink.matches().count(), 200);
    }
}
