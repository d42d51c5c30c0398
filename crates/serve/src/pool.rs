//! The serve-side worker pool: a bounded in-flight window with
//! backpressure and in-order emission, with no thread of its own. The **producer** (the
//! connection's read loop) admits framed documents with [`Pool::admit`],
//! blocking while the window is full, which stops the socket from being
//! read and pushes backpressure to the client. A document goes to a helper
//! only if one is parked in [`Pool::take_job`]; otherwise the connection's
//! thread runs the oldest unclaimed one before it reads more. Whoever ran
//! it posts the outcome with [`Pool::complete`].
//! The **emitter** role is the response writers ([`Emit`]), kept in the
//! pool: the thread that completes the response at the head of the order
//! takes them, writes every consecutive ready response outside the lock,
//! and puts them back. The `BTreeMap` reorder buffer makes the output
//! byte-identical to a sequential batch run, whatever the scheduling.
//!
//! Admission is bounded twice. The *document ceiling*
//! ([`ServeOptions::DEFAULT_MAX_INFLIGHT`](crate::ServeOptions::DEFAULT_MAX_INFLIGHT))
//! counts unanswered documents: queued, running, or in the reorder
//! buffer, so the reorder buffer cannot grow without bound when one slow
//! document holds back emission. The *byte budget*
//! ([`INFLIGHT_BYTES_PER_WORKER`] per worker) counts the document bytes
//! the pool holds; the producer is admitted under it, or when nothing at
//! all is in flight, so a lone larger document still runs. The budget is
//! what bounds memory once framing outruns the engine (DESIGN.md §12): it
//! is sized to keep each worker's next document ready, not to absorb a
//! flood. A document's bytes stop counting when its buffer goes back to
//! the [`DocBuffers`] free list for the framer: at [`Pool::complete`] for
//! counts and positions, at emission for values.

use crate::telemetry::Telemetry;
use crate::ResponseMode;
use rsq_batch::{DocBuffers, DocError, Matches};
use rsq_obs::Route;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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
}

/// One finished document awaiting emission.
pub(crate) struct Response {
    /// The document, if the response renders from it (values); else
    /// empty: the worker already gave the buffer back.
    pub(crate) doc: Vec<u8>,
    /// The matches, or the per-document failure.
    pub(crate) result: Result<Matches, DocError>,
    /// Admission-to-completion latency.
    pub(crate) latency_ns: u64,
    /// The framer rejected the line (oversize) before any worker saw it:
    /// counted separately from engine limit errors.
    pub(crate) framer_rejected: bool,
    /// The document's length, for the telemetry window's byte rate.
    pub(crate) bytes: u64,
    /// The worker's run time: measured only with a telemetry hub, whose
    /// window reports it as busy time; else 0.
    pub(crate) busy_ns: u64,
    /// The route the document's run took; `None` when it failed.
    pub(crate) route: Option<Route>,
}

/// The emitter role: the connection's response writers.
pub(crate) trait Emit {
    /// Writes consecutive responses in admission order; `false` when a
    /// write failed.
    fn emit(&mut self, batch: &[(u64, Response)]) -> bool;
}

struct State<T> {
    jobs: VecDeque<Job>,
    done: BTreeMap<u64, Response>,
    /// The response writers, while no thread is writing with them.
    emitter: Option<T>,
    /// Helpers parked in `take_job`.
    idle: usize,
    /// The producer waits on `slot_free` (a `notify` is a syscall).
    blocked: bool,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number to emit.
    next_emit: u64,
    /// Admitted but not yet emitted (bounded by the pool capacity).
    outstanding: usize,
    /// Bytes of admitted documents the pool holds (bounded by the byte
    /// budget, see `admit_slot`).
    outstanding_bytes: usize,
    /// Producer finished: no further admissions.
    closed: bool,
    /// A response write failed: everyone winds down.
    aborted: bool,
    backpressure_waits: u64,
    max_inflight_hwm: u64,
}

/// The shared coordination hub (see module docs).
pub(crate) struct Pool<T> {
    state: Mutex<State<T>>,
    /// Helpers wait here for jobs.
    job_ready: Condvar,
    /// The producer waits here for in-flight capacity.
    slot_free: Condvar,
    capacity: usize,
    /// The byte budget: [`INFLIGHT_BYTES_PER_WORKER`] per worker.
    byte_budget: usize,
    /// Value responses render from the document: it stays until written.
    keep_docs: bool,
    /// Finished document buffers, on their way back to the framer.
    buffers: Arc<DocBuffers>,
    /// The session's telemetry hub. `None` costs no gauge atomics or
    /// clock reads beyond the latency `Instant`.
    telemetry: Option<Arc<Telemetry>>,
}

impl<T: Emit> Pool<T> {
    pub(crate) fn new(
        capacity: usize,
        workers: usize,
        mode: ResponseMode,
        telemetry: Option<Arc<Telemetry>>,
        emitter: T,
    ) -> Self {
        let byte_budget = INFLIGHT_BYTES_PER_WORKER.saturating_mul(workers.max(1));
        Pool {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                done: BTreeMap::new(),
                emitter: Some(emitter),
                idle: 0,
                blocked: false,
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
            capacity: capacity.max(1),
            byte_budget,
            keep_docs: mode == ResponseMode::Values,
            // Parking more than the budget could never be taken up again.
            buffers: Arc::new(DocBuffers::new(byte_budget)),
            telemetry,
        }
    }

    #[expect(
        clippy::unwrap_used,
        reason = "poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down"
    )]
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap()
    }

    /// Parks on `cv`, giving the lock up until it is notified.
    #[expect(
        clippy::unwrap_used,
        reason = "poisoned only if a panic escaped per-document containment; the pool cannot recover, take the connection down"
    )]
    fn wait<'a>(&self, cv: &Condvar, state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(state).unwrap()
    }

    /// The connection's document-buffer free list, for the framer to take
    /// from.
    pub(crate) fn buffers(&self) -> Arc<DocBuffers> {
        Arc::clone(&self.buffers)
    }

    /// Blocks until there is room in flight for a `bytes`-long document
    /// (backpressure), then takes a slot and returns the locked state with
    /// the assigned sequence number. There is room when nothing is in
    /// flight, or when both the document ceiling and the byte budget have
    /// some left. Returns `None` without admitting when the pool has
    /// aborted.
    fn admit_slot(&self, bytes: usize) -> Option<(MutexGuard<'_, State<T>>, u64)> {
        let mut state = self.lock();
        while state.outstanding > 0
            && (state.outstanding >= self.capacity || state.outstanding_bytes >= self.byte_budget)
            && !state.aborted
        {
            state.backpressure_waits += 1;
            state.blocked = true;
            state = self.wait(&self.slot_free, state);
            state.blocked = false;
        }
        if state.aborted {
            return None;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.outstanding += 1;
        state.outstanding_bytes += bytes;
        state.max_inflight_hwm = state.max_inflight_hwm.max(state.outstanding as u64);
        Some((state, seq))
    }

    /// Admits a document: queued when a parked helper can take it,
    /// otherwise run here with `run`, which completes it. Returns `false`
    /// when the pool has aborted (the producer should stop reading).
    pub(crate) fn admit(&self, doc: Vec<u8>, run: impl FnOnce(Job)) -> bool {
        let Some((mut state, seq)) = self.admit_slot(doc.len()) else {
            return false;
        };
        let mut job = Job {
            seq,
            doc,
            admitted: Instant::now(),
        };
        // Every queued job has its own parked helper.
        let queued = state.idle > state.jobs.len();
        if let Some(t) = self.telemetry.as_deref() {
            t.gauge_admitted(queued);
        }
        if queued {
            state.jobs.push_back(job);
            drop(state);
            self.job_ready.notify_one();
            return true;
        }
        // The caller runs the oldest job: one queued for a helper that has
        // not woken yet waits for one run of the caller's at most, not for
        // the scheduler. The new one takes its place in the queue.
        if let Some(oldest) = state.jobs.pop_front() {
            state.jobs.push_back(job);
            job = oldest;
        }
        drop(state);
        run(job);
        true
    }

    /// Admits a pre-resolved failure (e.g. the framer's oversize
    /// rejection): it occupies a sequence slot so error lines come out
    /// in document order, but never visits a worker. Returns `false`
    /// when the pool has aborted.
    pub(crate) fn reject(&self, err: DocError) -> bool {
        let Some((mut state, seq)) = self.admit_slot(0) else {
            return false;
        };
        let response = Response {
            doc: Vec::new(),
            result: Err(err),
            latency_ns: 0,
            framer_rejected: true,
            bytes: 0,
            busy_ns: 0,
            route: None,
        };
        state.done.insert(seq, response);
        if let Some(t) = self.telemetry.as_deref() {
            // In flight (it occupies a slot) but never queued.
            t.gauge_admitted(false);
        }
        self.emit_ready(state);
        true
    }

    /// Marks the stream complete: no further admissions. Helpers drain
    /// what is already queued and exit.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.job_ready.notify_all();
    }

    /// Something went wrong that ends the connection: everyone winds down
    /// without draining.
    pub(crate) fn abort(&self) {
        self.lock().aborted = true;
        self.job_ready.notify_all();
        self.slot_free.notify_all();
    }

    /// Helper-side: blocks for the next job; `None` means drain-and-exit
    /// (stream closed and queue empty, or pool aborted).
    pub(crate) fn take_job(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if state.aborted {
                return None;
            }
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                if let Some(t) = self.telemetry.as_deref() {
                    t.gauge_claimed();
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = self.wait(&self.job_ready, state);
            state.idle -= 1;
        }
    }

    /// Posts a finished document's response and disposes of the document
    /// itself — attached to the response when emission renders from it,
    /// otherwise straight back to the free list, its bytes no longer in
    /// flight. Then emits whatever has become ready, if no other thread
    /// is writing.
    pub(crate) fn complete(&self, seq: u64, mut response: Response, doc: Vec<u8>) {
        let mut released = 0;
        if self.keep_docs {
            response.doc = doc;
        } else {
            released = doc.len();
            self.buffers.put(doc);
        }
        let mut state = self.lock();
        state.done.insert(seq, response);
        state.outstanding_bytes -= released;
        if released > 0 && state.blocked {
            self.slot_free.notify_one();
        }
        self.emit_ready(state);
    }

    /// Takes the emitter role if the response at `next_emit` is ready and
    /// the role is free, and writes it and every consecutive ready one, in
    /// one batch outside the lock. Whoever holds the role looks again
    /// before it puts the writers back. A failed write aborts the pool.
    fn emit_ready<'p>(&'p self, mut state: MutexGuard<'p, State<T>>) {
        let mut batch = Vec::new();
        loop {
            let ready = !state.aborted && state.done.contains_key(&state.next_emit);
            let Some(mut emitter) = state.emitter.take_if(|_| ready) else {
                return;
            };
            let st = &mut *state;
            while let Some(response) = st.done.remove(&st.next_emit) {
                st.outstanding -= 1;
                st.outstanding_bytes -= response.doc.len();
                batch.push((st.next_emit, response));
                st.next_emit += 1;
            }
            let wake = st.blocked;
            drop(state);
            if wake {
                self.slot_free.notify_one();
            }
            if let Some(t) = self.telemetry.as_deref() {
                t.gauge_emitted(batch.len() as u64);
            }
            if !emitter.emit(&batch) {
                self.abort();
            }
            for (_, response) in batch.drain(..) {
                self.buffers.put(response.doc);
            }
            state = self.lock();
            state.emitter = Some(emitter);
        }
    }

    /// Post-run accounting: (documents admitted, backpressure waits,
    /// in-flight high-water mark).
    pub(crate) fn accounting(&self) -> (u64, u64, u64) {
        let state = self.lock();
        (
            state.next_seq,
            state.backpressure_waits,
            state.max_inflight_hwm,
        )
    }

    /// The response writers, unless a thread panicked holding them.
    pub(crate) fn into_emitter(self) -> Option<T> {
        self.state.into_inner().ok().and_then(|state| state.emitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// Records each emission: the thread that wrote it, and each
    /// response's sequence number and document length.
    #[derive(Default)]
    struct Log(Vec<(ThreadId, Vec<(u64, usize)>)>);

    impl Emit for Log {
        fn emit(&mut self, batch: &[(u64, Response)]) -> bool {
            let seqs = batch.iter().map(|(seq, r)| (*seq, r.doc.len())).collect();
            self.0.push((thread::current().id(), seqs));
            true
        }
    }

    impl Pool<Log> {
        fn in_flight_bytes(&self) -> usize {
            self.lock().outstanding_bytes
        }

        fn waits(&self) -> u64 {
            self.accounting().1
        }

        fn idle(&self) -> usize {
            self.lock().idle
        }

        /// Each emission so far: (sequence number, document bytes) per
        /// response.
        fn emitted(&self) -> Vec<Vec<(u64, usize)>> {
            let state = self.lock();
            let log = state.emitter.as_ref().expect("no thread holds the writers");
            log.0.iter().map(|(_, batch)| batch.clone()).collect()
        }

        /// Holds the emitter role, as a thread busy writing would.
        fn seize_emitter(&self) -> Log {
            self.lock().emitter.take().expect("the writers are free")
        }

        /// Hands the role back, and emits what became ready meanwhile —
        /// what a writing thread does when its write returns.
        fn release_emitter(&self, log: Log) {
            let mut state = self.lock();
            state.emitter = Some(log);
            self.emit_ready(state);
        }
    }

    fn pool(mode: ResponseMode) -> Pool<Log> {
        Pool::new(64, 1, mode, None, Log::default())
    }

    fn done() -> Response {
        Response {
            doc: Vec::new(),
            result: Ok(Matches::Count(0)),
            latency_ns: 0,
            framer_rejected: false,
            bytes: 0,
            busy_ns: 0,
            route: Some(Route::General),
        }
    }

    /// Admits `doc`: the job the caller is to run, or `None` when it was
    /// queued for a helper.
    fn admit(pool: &Pool<Log>, doc: Vec<u8>) -> Option<Job> {
        let mut mine = None;
        assert!(pool.admit(doc, |job| mine = Some(job)), "aborted");
        mine
    }

    /// Admits `doc` and returns the job the caller is to run.
    fn run(pool: &Pool<Log>, doc: Vec<u8>) -> Job {
        admit(pool, doc).expect("queued for a helper")
    }

    fn complete(pool: &Pool<Log>, job: Job) {
        pool.complete(job.seq, done(), job.doc);
    }

    /// Admits `doc` on another thread and returns once that thread is
    /// provably parked in the backpressure wait.
    fn admit_blocked<'s>(
        scope: &'s thread::Scope<'s, '_>,
        pool: &'s Pool<Log>,
        doc: Vec<u8>,
    ) -> thread::ScopedJoinHandle<'s, Job> {
        let before = pool.waits();
        let handle = scope.spawn(move || run(pool, doc));
        while pool.waits() == before {
            thread::yield_now();
        }
        handle
    }

    /// Starts a helper on another thread and returns once it is provably
    /// parked in `take_job`; it hands back the job it claims.
    fn helper_parked<'s>(
        scope: &'s thread::Scope<'s, '_>,
        pool: &'s Pool<Log>,
    ) -> thread::ScopedJoinHandle<'s, Option<Job>> {
        let before = pool.idle();
        let handle = scope.spawn(move || pool.take_job());
        while pool.idle() == before {
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
            let first = run(&pool, vec![b'1'; DOC]);
            let _second = run(&pool, vec![b'2'; DOC]);
            assert_eq!((pool.waits(), pool.in_flight_bytes()), (0, 2 * DOC));
            // 200 KiB is not: the third waits, far below the ceiling of 64.
            let third = admit_blocked(scope, &pool, vec![b'3'; DOC]);
            assert_eq!(
                pool.in_flight_bytes(),
                2 * DOC,
                "nothing admitted past the budget"
            );
            // A count response does not need the document: finishing one
            // releases its bytes while another thread is still writing.
            let writing = pool.seize_emitter();
            complete(&pool, first);
            third.join().expect("producer thread");
            assert_eq!(pool.in_flight_bytes(), 2 * DOC);
            assert_eq!(pool.accounting().2, 3, "three documents unanswered");
            pool.release_emitter(writing);
            assert_eq!(pool.emitted(), [[(0, 0)]]);
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
            let first = run(&pool, vec![b'1'; DOC]);
            let _second = run(&pool, vec![b'2'; DOC]);
            let writing = pool.seize_emitter();
            complete(&pool, first);
            assert_eq!(
                pool.in_flight_bytes(),
                2 * DOC,
                "the reorder buffer holds it"
            );
            let third = admit_blocked(scope, &pool, vec![b'3'; DOC]);
            pool.release_emitter(writing);
            assert_eq!(
                pool.emitted(),
                [[(0, DOC)]],
                "response 0 carried its document"
            );
            third.join().expect("producer thread");
            assert_eq!(pool.in_flight_bytes(), 2 * DOC);
        });
    }

    #[test]
    fn a_document_larger_than_the_budget_is_admitted_alone() {
        let big = 4 * INFLIGHT_BYTES_PER_WORKER;
        let pool = pool(ResponseMode::Count);
        thread::scope(|scope| {
            // An empty window admits anything…
            let job = run(&pool, vec![b'x'; big]);
            assert_eq!((pool.waits(), pool.in_flight_bytes()), (0, big));
            // …and nothing joins it, however small.
            let next = admit_blocked(scope, &pool, b"[1]".to_vec());
            complete(&pool, job);
            next.join().expect("producer thread");
            assert_eq!(pool.in_flight_bytes(), 3);
        });
        assert!(
            pool.buffers().take().is_none(),
            "a buffer larger than the budget is not parked"
        );
    }

    /// Count documents that are each several budgets large, finishing
    /// while another thread writes: every one waits until the one before
    /// it has finished (its bytes fill the window), is admitted while that
    /// response still awaits emission, and so at most two are ever
    /// unanswered.
    #[test]
    fn oversize_counts_keep_at_most_two_documents_unanswered() {
        let big = 3 * INFLIGHT_BYTES_PER_WORKER;
        let pool = pool(ResponseMode::Count);
        thread::scope(|scope| {
            let mut job = run(&pool, vec![b'0'; big]);
            for seq in 0..3 {
                let next = admit_blocked(scope, &pool, vec![b'x'; big]);
                assert_eq!(pool.in_flight_bytes(), big, "one document's bytes");
                assert_eq!(job.seq, seq);
                let writing = pool.seize_emitter();
                complete(&pool, job);
                job = next.join().expect("producer thread");
                assert_eq!(pool.in_flight_bytes(), big, "the next one's, alone");
                pool.release_emitter(writing);
                assert_eq!(pool.emitted().last(), Some(&vec![(seq, 0)]));
            }
        });
        assert_eq!(pool.accounting().2, 2, "the running one and the one before");
    }

    #[test]
    fn small_documents_fill_the_document_ceiling_not_the_budget() {
        let pool = Pool::new(2, 1, ResponseMode::Count, None, Log::default());
        thread::scope(|scope| {
            let first = run(&pool, b"[1]".to_vec());
            let _second = run(&pool, b"[2]".to_vec());
            let third = admit_blocked(scope, &pool, b"[3]".to_vec());
            // Finishing a count document frees bytes, not the slot: only
            // emission does.
            let writing = pool.seize_emitter();
            complete(&pool, first);
            assert_eq!(pool.accounting().2, 2);
            pool.release_emitter(writing);
            assert_eq!(pool.emitted(), [[(0, 0)]]);
            third.join().expect("producer thread");
        });
    }

    /// Caller runs: a document goes to a helper only when one is parked
    /// with no job already promised to it.
    #[test]
    fn documents_go_to_parked_helpers_and_otherwise_back_to_the_caller() {
        let pool = Pool::new(64, 2, ResponseMode::Count, None, Log::default());
        thread::scope(|scope| {
            let mine = run(&pool, b"[0]".to_vec());
            let helper = helper_parked(scope, &pool);
            assert!(admit(&pool, b"[1]".to_vec()).is_none(), "queued");
            // The job is promised to the helper, so the caller runs the next
            // one: document 2, or document 1 if the helper has not woken
            // yet, leaving it document 2.
            let also_mine = run(&pool, b"[2]".to_vec());
            let claimed = helper.join().expect("helper thread").expect("a job");
            let mut theirs_and_mine = [claimed.seq, also_mine.seq];
            theirs_and_mine.sort_unstable();
            assert_eq!((mine.seq, theirs_and_mine), (0, [1, 2]));
        });
    }

    /// A helper was woken for document 0 but has not claimed it when
    /// document 1 arrives: the caller runs document 0, the older, and
    /// document 1 waits for the helper in its place.
    #[test]
    fn the_caller_runs_the_job_a_helper_has_not_claimed_yet() {
        let pool = Pool::new(64, 2, ResponseMode::Count, None, Log::default());
        // A helper parked in `take_job`, and not yet woken.
        pool.lock().idle = 1;
        assert!(admit(&pool, b"[0]".to_vec()).is_none(), "queued");
        assert_eq!(run(&pool, b"[1]".to_vec()).seq, 0);
        assert_eq!(pool.take_job().map(|job| job.seq), Some(1));
    }

    /// The backpressure wait, forced: a helper is running the only
    /// document the window allows, so the caller has nothing to run and
    /// the next admission must wait for that document's answer.
    #[test]
    fn admission_waits_while_a_helper_holds_the_only_slot() {
        let pool = Pool::new(1, 2, ResponseMode::Count, None, Log::default());
        thread::scope(|scope| {
            let helper = helper_parked(scope, &pool);
            assert!(admit(&pool, b"[0]".to_vec()).is_none(), "queued");
            let running = helper.join().expect("helper thread").expect("a job");
            let next = admit_blocked(scope, &pool, b"[1]".to_vec());
            assert_eq!(pool.accounting(), (1, 1, 1), "document 1 is not admitted");
            complete(&pool, running);
            assert_eq!(next.join().expect("producer thread").seq, 1);
        });
        assert_eq!(pool.emitted(), [[(0, 0)]]);
        assert_eq!((pool.waits(), pool.accounting().2), (1, 1));
    }

    /// A helper finishes document 1 while the caller still runs document
    /// 0: nothing is written until 0 completes, and then the thread that
    /// completed it writes both, in order, in one emission.
    #[test]
    fn an_out_of_order_finish_waits_for_the_head_and_goes_out_with_it() {
        let pool = Pool::new(64, 2, ResponseMode::Count, None, Log::default());
        thread::scope(|scope| {
            let head = run(&pool, b"[0]".to_vec());
            let helper = scope.spawn(|| {
                let job = pool.take_job().expect("a job");
                complete(&pool, job);
            });
            while pool.idle() == 0 {
                thread::yield_now();
            }
            assert!(admit(&pool, b"[1]".to_vec()).is_none(), "queued");
            helper.join().expect("helper thread");
            assert!(pool.emitted().is_empty(), "document 1 waits for document 0");
            complete(&pool, head);
        });
        let log = pool.seize_emitter();
        assert_eq!(log.0.len(), 1, "one emission");
        assert_eq!(
            log.0[0].0,
            thread::current().id(),
            "by the completing thread"
        );
        assert_eq!(log.0[0].1, [(0, 0), (1, 0)]);
    }
}
