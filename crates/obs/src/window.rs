//! Rolling-window aggregation for live telemetry.
//!
//! A long-lived server's lifetime histogram answers "how has this
//! process behaved since it started", which is the wrong question at
//! scrape time — a scraper wants *recent* behavior. [`WindowRing`] is a
//! fixed ring of per-second slots, each holding a [`Histogram`] plus
//! flow counters; recording into the current second lazily evicts
//! whatever stale second the slot last held, so the ring needs no
//! background thread and its memory is a hard constant
//! (`SLOTS × sizeof(Slot)`). A scrape merges the last `k` live slots
//! into a [`WindowSnapshot`] — a pure read using the histogram's
//! associative `+=`, so scraping never perturbs recording beyond the
//! mutex the caller already holds.
//!
//! Time is the caller's problem by design: every call takes a `tick`
//! (whole seconds since the caller's epoch) instead of reading a clock,
//! which keeps this module deterministic under test and keeps clock
//! reads out of paths where telemetry is disabled.

use crate::hist::Histogram;
use crate::series::{self, Row, Value};
use crate::Route;

/// Ring capacity in one-second slots. 64 covers the 60-second window
/// with slack for the tick in progress.
pub const SLOTS: usize = 64;

/// One second's worth of accumulation.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// Absolute tick this slot currently holds (0 is valid: slot 0
    /// starts live at process start, the rest start stale-but-empty).
    tick: u64,
    /// What that second accumulated (`secs` and `workers` stay 0).
    totals: WindowSnapshot,
}

/// A fixed ring of per-second accumulation slots (see module docs).
#[derive(Clone, Debug)]
pub struct WindowRing {
    slots: Box<[Slot; SLOTS]>,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowRing {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        WindowRing {
            slots: Box::new(std::array::from_fn(|_| Slot::default())),
        }
    }

    fn slot_mut(&mut self, tick: u64) -> &mut Slot {
        let idx = (tick % SLOTS as u64) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "idx is tick mod SLOTS and slots has exactly SLOTS entries"
        )]
        let slot = &mut self.slots[idx];
        if slot.tick != tick {
            *slot = Slot {
                tick,
                totals: WindowSnapshot::default(),
            };
        }
        slot
    }

    /// Records one finished document into second `tick`: its end-to-end
    /// latency, its size on the wire, whether it failed, the worker
    /// time it consumed, and (when known) the engine route that ran it.
    pub fn record(
        &mut self,
        tick: u64,
        latency_ns: u64,
        bytes: u64,
        failed: bool,
        busy_ns: u64,
        route: Option<crate::Route>,
    ) {
        let totals = &mut self.slot_mut(tick).totals;
        totals.latency.record(latency_ns);
        totals.docs = totals.docs.saturating_add(1);
        totals.bytes = totals.bytes.saturating_add(bytes);
        totals.errors = totals.errors.saturating_add(u64::from(failed));
        totals.busy_ns = totals.busy_ns.saturating_add(busy_ns);
        if let Some(route) = route {
            #[expect(
                clippy::indexing_slicing,
                reason = "Route::index is < the per-route array length (one slot per route)"
            )]
            let r = &mut totals.route_docs[route.index()];
            *r = r.saturating_add(1);
        }
    }

    /// Merges the last `secs` seconds ending at `now_tick` (inclusive)
    /// into a snapshot. Slots holding older ticks (stale, not yet
    /// recycled) are skipped, so a ring that went quiet reports zeros
    /// rather than minutes-old traffic. `secs` is clamped to the ring
    /// capacity.
    #[must_use]
    pub fn window(&self, now_tick: u64, secs: u64) -> WindowSnapshot {
        let secs = secs.clamp(1, SLOTS as u64);
        let oldest = now_tick.saturating_sub(secs - 1);
        let mut snap = WindowSnapshot {
            secs,
            ..WindowSnapshot::default()
        };
        for slot in self.slots.iter() {
            if slot.tick >= oldest && slot.tick <= now_tick {
                series::merge(WindowSnapshot::ROWS, &mut snap, &slot.totals);
            }
        }
        snap
    }
}

/// The merged view of one rolling window: a latency histogram plus flow
/// totals over the last [`WindowSnapshot::secs`] seconds.
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    /// Window width in seconds.
    pub secs: u64,
    /// Latency of documents finished inside the window.
    pub latency: Histogram,
    /// Documents finished inside the window.
    pub docs: u64,
    /// Bytes of those documents.
    pub bytes: u64,
    /// Documents that failed (any per-document error class).
    pub errors: u64,
    /// Worker nanoseconds consumed by those documents.
    pub busy_ns: u64,
    /// Documents by engine route, indexed by
    /// [`Route::index`](crate::Route::index).
    pub route_docs: [u64; 3],
    /// Worker threads `rsq_window_worker_busy_fraction` is taken over:
    /// the hub fills it in before rendering (0 reads as one worker).
    pub workers: u64,
}

crate::series_rows! {
    /// Every value of a window, once; the exposition labels the series
    /// `window="<secs>s"`. `busy_ns` is the JSON side and the busy
    /// fraction the exposition side of the same measurement.
    #[expect(
        clippy::indexing_slicing,
        reason = "`sum_at` indexes an array by the `index()` of the enum it is sized by"
    )]
    impl WindowSnapshot {
        "secs" get(|w| w.secs);
        "docs" sum(|w| w.docs) => gauge rsq_window_documents "Documents finished inside the rolling window.";
        "bytes" sum(|w| w.bytes);
        "errors" sum(|w| w.errors) => gauge rsq_window_errors "Failed documents inside the rolling window.";
        "docs_per_sec" calc(|w| Value::F64(w.docs_per_sec(), 2, 3)) => gauge rsq_window_docs_per_sec "Document completion rate over the rolling window.";
        "bytes_per_sec" calc(|w| Value::F64(w.bytes_per_sec(), 2, 1)) => gauge rsq_window_bytes_per_sec "Input byte rate over the rolling window.";
        "busy_ns" sum(|w| w.busy_ns);
        "" calc(|w| Value::F64(w.busy_fraction(w.workers.max(1)), 4, 4)) => gauge rsq_window_worker_busy_fraction "Fraction of worker-seconds spent running documents over the rolling window.";
        "route_docs.field_chain" sum_at(|w| w.route_docs, Route::FieldChain) => gauge rsq_window_route_docs {route="field_chain"} "Documents by engine route inside the rolling window.";
        "route_docs.selective" sum_at(|w| w.route_docs, Route::Selective) => gauge rsq_window_route_docs {route="selective"} "Documents by engine route inside the rolling window.";
        "route_docs.general" sum_at(|w| w.route_docs, Route::General) => gauge rsq_window_route_docs {route="general"} "Documents by engine route inside the rolling window.";
        "latency" keep(|w| Value::Histogram(&w.latency), |into, from| into.latency += &from.latency) => gauge rsq_window_latency_ns "Document latency quantiles over the rolling window (log2-bucket resolution).";
    }
}

impl WindowSnapshot {
    fn per_sec(&self, total: u64) -> f64 {
        if self.secs == 0 {
            0.0
        } else {
            total as f64 / self.secs as f64
        }
    }

    /// Documents per second over the window.
    #[must_use]
    pub fn docs_per_sec(&self) -> f64 {
        self.per_sec(self.docs)
    }

    /// Input bytes per second over the window.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        self.per_sec(self.bytes)
    }

    /// Fraction of `workers` worker-seconds spent running documents
    /// over the window, clamped to `[0, 1]`.
    #[must_use]
    pub fn busy_fraction(&self, workers: u64) -> f64 {
        let capacity_ns = self
            .secs
            .saturating_mul(workers)
            .saturating_mul(1_000_000_000);
        if capacity_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / capacity_ns as f64).clamp(0.0, 1.0)
        }
    }
}

/// Live point-in-time gauges accompanying the windows in the telemetry
/// exposition.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryGauges {
    /// Framed documents waiting for a worker.
    pub queue_depth: u64,
    /// Documents admitted but not yet emitted.
    pub in_flight: u64,
    /// Worker threads per connection.
    pub workers: u64,
    /// Slow-document log lines written so far (lifetime counter).
    pub slow_documents: u64,
    /// Postmortem artifacts written so far (lifetime counter).
    pub postmortems: u64,
}

impl TelemetryGauges {
    /// The gauges, once; only the two lifetime counters have a member in
    /// the `telemetry` JSON object.
    pub const ROWS: &'static [Row<TelemetryGauges>] = crate::series_rows! {
        "" get(|g| g.queue_depth) => gauge rsq_queue_depth "Framed documents waiting for a worker.";
        "" get(|g| g.in_flight) => gauge rsq_in_flight "Documents admitted but not yet emitted.";
        "" get(|g| g.workers) => gauge rsq_workers "Worker threads serving the connection.";
        "slow_documents" get(|g| g.slow_documents) => counter rsq_slow_documents_total "Documents that exceeded the slow-log threshold.";
        "postmortems" get(|g| g.postmortems) => counter rsq_postmortems_total "Postmortem artifacts written by the flight recorder.";
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_merges_only_live_ticks() {
        let mut ring = WindowRing::new();
        for tick in 0..5u64 {
            ring.record(tick, 1000, 100, false, 500, Some(crate::Route::FieldChain));
            ring.record(tick, 3000, 100, tick == 4, 500, None);
        }
        let last3 = ring.window(4, 3);
        assert_eq!(last3.docs, 6, "ticks 2..=4, two docs each");
        assert_eq!(last3.bytes, 600);
        assert_eq!(last3.errors, 1);
        assert_eq!(last3.latency.count(), 6);
        let all = ring.window(4, 60);
        assert_eq!(all.docs, 10);
    }

    #[test]
    fn stale_slots_are_recycled_not_double_counted() {
        let mut ring = WindowRing::new();
        ring.record(3, 1000, 10, false, 0, None);
        // SLOTS ticks later the same physical slot is reused; the old
        // second's data must vanish.
        let later = 3 + SLOTS as u64;
        ring.record(later, 2000, 20, false, 0, None);
        let snap = ring.window(later, 10);
        assert_eq!(snap.docs, 1);
        assert_eq!(snap.bytes, 20);
        assert_eq!(snap.latency.max(), 2000);
        // And the stale tick no longer answers for its old window.
        assert_eq!(ring.window(5, 3).docs, 0);
    }

    #[test]
    fn quiet_ring_reports_zero_rates() {
        let mut ring = WindowRing::new();
        ring.record(1, 1000, 50, false, 0, None);
        // 120 seconds later nothing recent is live.
        let snap = ring.window(121, 10);
        assert_eq!(snap.docs, 0);
        assert!((snap.docs_per_sec() - 0.0).abs() < f64::EPSILON);
        assert_eq!(snap.latency.count(), 0);
    }

    #[test]
    fn rates_and_busy_fraction() {
        let mut ring = WindowRing::new();
        for tick in 0..10u64 {
            for _ in 0..5 {
                ring.record(tick, 1_000_000, 200, false, 100_000_000, None);
            }
        }
        let snap = ring.window(9, 10);
        assert!((snap.docs_per_sec() - 5.0).abs() < 1e-9);
        assert!((snap.bytes_per_sec() - 1000.0).abs() < 1e-9);
        // 5 docs/sec × 0.1s busy each = 0.5 worker-seconds/sec; over 1
        // worker that is 50% busy.
        assert!((snap.busy_fraction(1) - 0.5).abs() < 1e-9);
        assert!((snap.busy_fraction(2) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_has_stable_keys() {
        let mut ring = WindowRing::new();
        ring.record(0, 500, 64, true, 100, Some(crate::Route::General));
        let json = ring.window(0, 10).to_json();
        for key in [
            "\"secs\":10",
            "\"docs\":1",
            "\"bytes\":64",
            "\"errors\":1",
            "\"docs_per_sec\":",
            "\"bytes_per_sec\":",
            "\"busy_ns\":100",
            "\"latency\":{",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
