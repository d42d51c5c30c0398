//! The serve-side worker pool: a bounded in-flight queue with
//! backpressure, deadline-aware document processing, and an in-order
//! response emitter.
//!
//! Three roles share one [`Pool`]:
//!
//! * the **producer** (the connection's read loop) admits framed
//!   documents with [`Pool::admit`] — blocking while the number of
//!   unanswered documents is at the configured cap, which stops the
//!   socket from being read and pushes backpressure to the client;
//! * **workers** claim documents with [`Pool::take_job`], run the
//!   engine with panic containment and an optional per-document
//!   deadline, and post the outcome with [`Pool::complete`];
//! * the **emitter** drains outcomes in admission order with
//!   [`Pool::take_next_response`] — a `BTreeMap` reorder buffer keyed
//!   by sequence number makes the response stream independent of
//!   worker scheduling, so serve output is byte-identical to a
//!   sequential batch run by construction.
//!
//! Admission is bounded twice. The *document ceiling* (`--max-inflight`)
//! counts unanswered documents (queued, running, or waiting in the
//! reorder buffer), so the reorder buffer cannot grow without bound when
//! one slow document holds back emission. The *byte budget* —
//! [`INFLIGHT_BYTES_PER_WORKER`] per worker — counts the document bytes
//! the pool is holding: the producer is admitted while the held bytes are
//! under the budget, or when nothing at all is in flight (so a single
//! document larger than the whole budget still gets through, alone). The
//! budget, not the ceiling, is what bounds memory once framing outruns
//! the engine: it is sized to keep each worker's next document ready, not
//! to absorb a flood.
//!
//! A document's bytes stop counting when the pool lets go of the buffer:
//! at [`Pool::complete`] when responses do not render from the document
//! (counts, positions), at [`Pool::take_next_response`] when they do
//! (values). Either way the buffer goes back to the connection's
//! [`DocBuffers`] free list, where the framer picks it up for a later
//! line instead of growing a fresh vector per document.

use crate::telemetry::Telemetry;
use crate::ResponseMode;
use rsq_batch::{DocBuffers, DocError, DocRunner, DocSink, Matches, Record};
use rsq_engine::Engine;
use rsq_obs::DocSpan;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Document bytes a connection holds in flight per worker before it stops
/// reading: room for the document a worker is running plus the next one
/// queued behind it at the sizes serve mode sees (tens of KiB). Deeper
/// windows measured no faster — the worker is the bottleneck either way —
/// and cost resident memory one document at a time.
pub(crate) const INFLIGHT_BYTES_PER_WORKER: usize = 128 * 1024;

/// One admitted document awaiting a worker.
pub(crate) struct Job {
    pub(crate) seq: u64,
    pub(crate) doc: Vec<u8>,
    pub(crate) admitted: Instant,
    /// The document's live pipeline span — present iff telemetry is
    /// enabled (the untelemetered path never reads the clock).
    pub(crate) span: Option<DocSpan>,
}

/// One finished document awaiting emission.
pub(crate) struct Response {
    /// The document bytes when the response renders from them (value
    /// output); empty otherwise — the worker already gave the buffer back.
    pub(crate) doc: Vec<u8>,
    /// The matches, or the per-document failure.
    pub(crate) result: Result<Matches, DocError>,
    /// Admission-to-completion latency.
    pub(crate) latency_ns: u64,
    /// True when the framer rejected the line before any worker saw it
    /// (oversize): counted separately from engine limit errors.
    pub(crate) framer_rejected: bool,
    /// The span handed on from the [`Job`], carried through the reorder
    /// buffer so the emitter can mark release and emission.
    pub(crate) span: Option<DocSpan>,
}

struct State {
    jobs: VecDeque<Job>,
    done: BTreeMap<u64, Response>,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number the emitter will release.
    next_emit: u64,
    /// Admitted but not yet emitted (bounded by the pool capacity).
    outstanding: usize,
    /// Bytes of the admitted documents whose buffers the pool still
    /// holds (bounded by the byte budget, see `admit_slot`).
    outstanding_bytes: usize,
    /// Producer finished: no further admissions.
    closed: bool,
    /// Emitter hit a write error: everyone winds down.
    aborted: bool,
    backpressure_waits: u64,
    max_inflight_hwm: u64,
}

/// The shared coordination hub (see module docs).
pub(crate) struct Pool {
    state: Mutex<State>,
    /// Workers wait here for jobs.
    job_ready: Condvar,
    /// The producer waits here for in-flight capacity.
    slot_free: Condvar,
    /// The emitter waits here for the next in-order response.
    done_ready: Condvar,
    capacity: usize,
    /// The byte budget: [`INFLIGHT_BYTES_PER_WORKER`] per worker.
    byte_budget: usize,
    /// Responses render from the document (value output), so its buffer
    /// stays with the response until the emitter has written it.
    keep_docs: bool,
    /// Finished document buffers, on their way back to the framer.
    buffers: Arc<DocBuffers>,
    /// The session's telemetry hub. `None` keeps every pool operation
    /// exactly as cheap as before telemetry existed: no spans, no
    /// gauge atomics, no clock reads beyond the latency `Instant`.
    telemetry: Option<Arc<Telemetry>>,
    /// Create pipeline spans even without a hub — set when the session
    /// exports a timeline trace (`--trace-out`), which needs finished
    /// span records but no live scrape endpoint.
    collect_spans: bool,
    /// The connection's clock zero: spans are stamped with their
    /// admission offset from here, giving the timeline trace absolute
    /// placement.
    epoch: Instant,
}

impl Pool {
    pub(crate) fn new(
        capacity: usize,
        workers: usize,
        mode: ResponseMode,
        telemetry: Option<Arc<Telemetry>>,
        collect_spans: bool,
    ) -> Self {
        let byte_budget = INFLIGHT_BYTES_PER_WORKER.saturating_mul(workers.max(1));
        Pool {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                done: BTreeMap::new(),
                next_seq: 0,
                next_emit: 0,
                outstanding: 0,
                outstanding_bytes: 0,
                closed: false,
                aborted: false,
                backpressure_waits: 0,
                max_inflight_hwm: 0,
            }),
            job_ready: Condvar::new(),
            slot_free: Condvar::new(),
            done_ready: Condvar::new(),
            capacity: capacity.max(1),
            byte_budget,
            keep_docs: mode == ResponseMode::Values,
            // Parking more than the budget could never be taken up again.
            buffers: Arc::new(DocBuffers::new(byte_budget)),
            telemetry,
            collect_spans,
            epoch: Instant::now(),
        }
    }

    /// The connection's document-buffer free list, for the framer to take
    /// from.
    pub(crate) fn buffers(&self) -> Arc<DocBuffers> {
        Arc::clone(&self.buffers)
    }

    /// Blocks until there is room in flight for a `bytes`-long document
    /// (backpressure), then runs `f` on the locked state with the
    /// assigned sequence number. There is room when nothing is in flight,
    /// or when both the document ceiling and the byte budget have some
    /// left. Returns `None` without admitting when the pool has aborted.
    fn admit_slot<T>(&self, bytes: usize, f: impl FnOnce(&mut State, u64) -> T) -> Option<T> {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        while state.outstanding > 0
            && (state.outstanding >= self.capacity || state.outstanding_bytes >= self.byte_budget)
            && !state.aborted
        {
            state.backpressure_waits += 1;
            // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
            state = self.slot_free.wait(state).unwrap();
        }
        if state.aborted {
            return None;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.outstanding += 1;
        state.outstanding_bytes += bytes;
        state.max_inflight_hwm = state.max_inflight_hwm.max(state.outstanding as u64);
        Some(f(&mut state, seq))
    }

    /// Admits a document for processing. Returns `false` when the pool
    /// has aborted (the producer should stop reading).
    pub(crate) fn admit(&self, doc: Vec<u8>) -> bool {
        let telemetry = self.telemetry.as_deref();
        let spans = telemetry.is_some() || self.collect_spans;
        let admitted = self
            .admit_slot(doc.len(), |state, seq| {
                let span = spans.then(|| {
                    let since_epoch =
                        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    DocSpan::begin_at(seq, doc.len() as u64, since_epoch)
                });
                state.jobs.push_back(Job {
                    seq,
                    doc,
                    admitted: Instant::now(),
                    span,
                });
            })
            .is_some();
        if admitted {
            if let Some(t) = telemetry {
                t.gauge_admitted(true);
            }
            self.job_ready.notify_one();
        }
        admitted
    }

    /// Admits a pre-resolved failure (e.g. the framer's oversize
    /// rejection): it occupies a sequence slot so error lines come out
    /// in document order, but never visits a worker. Returns `false`
    /// when the pool has aborted.
    pub(crate) fn reject(&self, err: DocError) -> bool {
        let admitted = self
            .admit_slot(0, |state, seq| {
                state.done.insert(
                    seq,
                    Response {
                        doc: Vec::new(),
                        result: Err(err),
                        latency_ns: 0,
                        framer_rejected: true,
                        span: None,
                    },
                );
            })
            .is_some();
        if admitted {
            if let Some(t) = self.telemetry.as_deref() {
                // In flight (it occupies a slot) but never queued.
                t.gauge_admitted(false);
            }
            self.done_ready.notify_one();
        }
        admitted
    }

    /// Marks the stream complete: no further admissions. Workers and the
    /// emitter drain what is already in flight and exit.
    pub(crate) fn close(&self) {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        drop(state);
        self.job_ready.notify_all();
        self.done_ready.notify_all();
    }

    /// Emitter-side: a response line could not be written, so the
    /// connection is dead. Everyone winds down without draining.
    pub(crate) fn abort(&self) {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        state.aborted = true;
        drop(state);
        self.job_ready.notify_all();
        self.done_ready.notify_all();
        self.slot_free.notify_all();
    }

    /// Worker-side: blocks for the next job; `None` means drain-and-exit
    /// (stream closed and queue empty, or pool aborted).
    pub(crate) fn take_job(&self) -> Option<Job> {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        loop {
            if state.aborted {
                return None;
            }
            if let Some(mut job) = state.jobs.pop_front() {
                if let Some(span) = job.span.as_mut() {
                    // Queue wait ends the moment a worker claims it.
                    span.claimed();
                }
                drop(state);
                if let Some(t) = self.telemetry.as_deref() {
                    t.gauge_claimed();
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
            state = self.job_ready.wait(state).unwrap();
        }
    }

    /// Worker-side: posts a finished document's response and disposes of
    /// the document itself — attached to the response when the emitter
    /// renders from it, otherwise straight back to the free list, its
    /// bytes no longer in flight.
    pub(crate) fn complete(&self, seq: u64, mut response: Response, doc: Vec<u8>) {
        let mut released = 0;
        if self.keep_docs {
            response.doc = doc;
        } else {
            released = doc.len();
            self.buffers.put(doc);
        }
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        state.done.insert(seq, response);
        state.outstanding_bytes -= released;
        drop(state);
        self.done_ready.notify_one();
        if released > 0 {
            self.slot_free.notify_one();
        }
    }

    /// Emitter-side: the response that carried `doc` has been written.
    pub(crate) fn recycle(&self, doc: Vec<u8>) {
        self.buffers.put(doc);
    }

    /// Emitter-side: blocks for the next response **in admission
    /// order**; `None` means all admitted documents have been emitted
    /// (or the pool aborted). Frees the in-flight slot.
    pub(crate) fn take_next_response(&self) -> Option<(u64, Response)> {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let mut state = self.state.lock().unwrap();
        loop {
            if state.aborted {
                return None;
            }
            let seq = state.next_emit;
            if let Some(mut response) = state.done.remove(&seq) {
                state.next_emit += 1;
                state.outstanding -= 1;
                state.outstanding_bytes -= response.doc.len();
                drop(state);
                if let Some(span) = response.span.as_mut() {
                    // Reorder wait ends when the emitter receives it.
                    span.released();
                }
                if let Some(t) = self.telemetry.as_deref() {
                    t.gauge_emitted();
                }
                self.slot_free.notify_one();
                return Some((seq, response));
            }
            if state.closed && state.next_emit == state.next_seq {
                return None;
            }
            // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
            state = self.done_ready.wait(state).unwrap();
        }
    }

    /// Post-run accounting: (documents admitted, backpressure waits,
    /// in-flight high-water mark).
    pub(crate) fn accounting(&self) -> (u64, u64, u64) {
        // PANIC-OK: poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down
        let state = self.state.lock().unwrap();
        (
            state.next_seq,
            state.backpressure_waits,
            state.max_inflight_hwm,
        )
    }
}

/// Runs one admitted document on `runner` with the optional deadline
/// (measured from admission; see [`DocRunner::run_doc`] for where it is
/// checked), gathering only what `mode` renders: a count never builds the
/// positions vector. `record` and `sample` are the runner's: what the run
/// records, and whether the hardware counters bracket it.
pub(crate) fn process(
    runner: &mut DocRunner,
    engine: &Engine,
    mode: ResponseMode,
    deadline: Option<Duration>,
    job: &Job,
    record: Record<'_>,
    sample: bool,
) -> Response {
    let mut sink = DocSink::new(
        mode != ResponseMode::Count,
        deadline.map(|d| job.admitted + d),
    );
    let run = runner.run_doc(engine, &job.doc, &mut sink, record, sample);
    Response {
        doc: Vec::new(),
        result: run.map(|()| sink.into_matches()),
        latency_ns: u64::try_from(job.admitted.elapsed().as_nanos()).unwrap_or(u64::MAX),
        framer_rejected: false,
        span: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    impl Pool {
        fn in_flight_bytes(&self) -> usize {
            self.state.lock().unwrap().outstanding_bytes
        }

        fn waits(&self) -> u64 {
            self.accounting().1
        }
    }

    fn pool(mode: ResponseMode) -> Pool {
        Pool::new(64, 1, mode, None, false)
    }

    fn done() -> Response {
        Response {
            doc: Vec::new(),
            result: Ok(Matches::Count(0)),
            latency_ns: 0,
            framer_rejected: false,
            span: None,
        }
    }

    /// Admits `doc` on another thread and returns once that thread is
    /// provably parked in the backpressure wait.
    fn admit_blocked<'s>(
        scope: &'s thread::Scope<'s, '_>,
        pool: &'s Pool,
        doc: Vec<u8>,
    ) -> thread::ScopedJoinHandle<'s, bool> {
        let before = pool.waits();
        let handle = scope.spawn(move || pool.admit(doc));
        while pool.waits() == before {
            thread::yield_now();
        }
        handle
    }

    #[test]
    fn byte_budget_closes_the_window_before_the_document_ceiling() {
        const DOC: usize = 100 * 1024;
        let pool = pool(ResponseMode::Count);
        thread::scope(|scope| {
            // 0 and then 100 KiB in flight are both under the 128 KiB
            // budget: two documents go straight in.
            assert!(pool.admit(vec![b'1'; DOC]));
            assert!(pool.admit(vec![b'2'; DOC]));
            assert_eq!((pool.waits(), pool.in_flight_bytes()), (0, 2 * DOC));
            // 200 KiB is not: the third waits, far below the ceiling of 64.
            let third = admit_blocked(scope, &pool, vec![b'3'; DOC]);
            assert_eq!(
                pool.in_flight_bytes(),
                2 * DOC,
                "nothing admitted past the budget"
            );
            // A count response does not need the document: finishing one
            // releases its bytes before the emitter has even seen it.
            let job = pool.take_job().expect("a queued job");
            pool.complete(job.seq, done(), job.doc);
            assert!(third.join().expect("producer thread"));
            assert_eq!(pool.in_flight_bytes(), 2 * DOC);
            assert_eq!(pool.accounting().2, 3, "three documents unanswered");
        });
        assert!(
            pool.buffers().take().is_some_and(|b| b.capacity() >= DOC),
            "the finished document's buffer is parked for the framer"
        );
    }

    #[test]
    fn value_responses_hold_their_bytes_until_emitted() {
        const DOC: usize = 100 * 1024;
        let pool = pool(ResponseMode::Values);
        thread::scope(|scope| {
            assert!(pool.admit(vec![b'1'; DOC]));
            assert!(pool.admit(vec![b'2'; DOC]));
            let job = pool.take_job().expect("a queued job");
            pool.complete(job.seq, done(), job.doc);
            assert_eq!(
                pool.in_flight_bytes(),
                2 * DOC,
                "the reorder buffer holds it"
            );
            let third = admit_blocked(scope, &pool, vec![b'3'; DOC]);
            let (seq, response) = pool.take_next_response().expect("response 0");
            assert_eq!((seq, response.doc.len()), (0, DOC));
            assert!(third.join().expect("producer thread"));
            assert_eq!(pool.in_flight_bytes(), 2 * DOC);
        });
    }

    #[test]
    fn a_document_larger_than_the_budget_is_admitted_alone() {
        let big = 4 * INFLIGHT_BYTES_PER_WORKER;
        let pool = pool(ResponseMode::Count);
        thread::scope(|scope| {
            assert!(
                pool.admit(vec![b'x'; big]),
                "an empty window admits anything"
            );
            assert_eq!((pool.waits(), pool.in_flight_bytes()), (0, big));
            // …and nothing joins it, however small.
            let next = admit_blocked(scope, &pool, b"[1]".to_vec());
            let job = pool.take_job().expect("a queued job");
            pool.complete(job.seq, done(), job.doc);
            assert!(next.join().expect("producer thread"));
            assert_eq!(pool.in_flight_bytes(), 3);
        });
        assert!(
            pool.buffers().take().is_none(),
            "a buffer larger than the budget is not parked"
        );
    }

    /// Count documents that are each several budgets large, with an emitter
    /// that keeps up: every one waits until the one before it has finished
    /// (its bytes fill the window), is admitted while that response still
    /// awaits emission, and so at most two are ever unanswered.
    #[test]
    fn oversize_counts_keep_at_most_two_documents_unanswered() {
        let big = 3 * INFLIGHT_BYTES_PER_WORKER;
        let pool = pool(ResponseMode::Count);
        thread::scope(|scope| {
            assert!(pool.admit(vec![b'0'; big]));
            for seq in 0..3 {
                let next = admit_blocked(scope, &pool, vec![b'x'; big]);
                assert_eq!(pool.in_flight_bytes(), big, "one document's bytes");
                let job = pool.take_job().expect("a queued job");
                assert_eq!(job.seq, seq);
                pool.complete(job.seq, done(), job.doc);
                assert!(next.join().expect("producer thread"));
                assert_eq!(pool.in_flight_bytes(), big, "the next one's, alone");
                assert_eq!(pool.take_next_response().map(|(seq, _)| seq), Some(seq));
            }
        });
        assert_eq!(pool.accounting().2, 2, "the running one and the one before");
    }

    #[test]
    fn small_documents_fill_the_document_ceiling_not_the_budget() {
        let pool = Pool::new(2, 1, ResponseMode::Count, None, false);
        thread::scope(|scope| {
            assert!(pool.admit(b"[1]".to_vec()));
            assert!(pool.admit(b"[2]".to_vec()));
            let third = admit_blocked(scope, &pool, b"[3]".to_vec());
            // Finishing a count document frees bytes, not the slot: only
            // emission does.
            let job = pool.take_job().expect("a queued job");
            pool.complete(job.seq, done(), job.doc);
            assert_eq!(pool.accounting().2, 2);
            assert!(pool.take_next_response().is_some());
            assert!(third.join().expect("producer thread"));
        });
    }
}
