//! The routing probe (DESIGN.md §15): a run of a routable query over an
//! input of at least [`PROBE_MIN_INPUT`] takes the walker only when the
//! general loop over the input's first 16 KiB delivers enough events per
//! KiB. The probe decides the route and nothing else: the same bytes take
//! the same route on every backend and both ways in, and the caller's
//! sink, limits and counters see only the run it chose.

use rsq_datagen::{Dataset, GenConfig};
use rsq_engine::{
    Engine, EngineOptions, Input, LimitKind, NoStats, PositionsSink, Route, RouteChoice, RunError,
    RunStats, Sink, SinkFull, PROBE_MIN_INPUT,
};
use rsq_query::Query;
use rsq_simd::BackendKind;

/// The benchmark's sparse routed query: few events for the walker to
/// save, so a long input takes the general loop.
const SPARSE: (Dataset, &str) = (Dataset::Walmart, "$.items.*.bestMarketplacePrice.price");
/// The dense one: the walker saves an event-heavy loop, so it is kept.
const DENSE: (Dataset, &str) = (Dataset::BestBuy, "$.products.*.categoryPath.*.id");

/// A generated document of at least `bytes` bytes.
fn generated(dataset: Dataset, bytes: usize) -> Vec<u8> {
    dataset
        .generate(&GenConfig {
            target_bytes: bytes,
            seed: 20_230_325,
        })
        .into_bytes()
}

/// A generated document of exactly `bytes` bytes: a shorter one, padded
/// with the whitespace JSON allows after the root.
fn exactly(dataset: Dataset, bytes: usize) -> Vec<u8> {
    let mut doc = generated(dataset, bytes - (64 << 10));
    assert!(doc.len() < bytes);
    doc.resize(bytes, b' ');
    doc
}

fn engine(query: &str, route: RouteChoice, backend: BackendKind) -> Engine {
    let options = EngineOptions {
        route,
        backend: Some(backend),
        ..EngineOptions::default()
    };
    Engine::with_options(&Query::parse(query).unwrap(), options).unwrap()
}

/// A slice run's positions, stats and route.
fn sliced(engine: &Engine, doc: &[u8]) -> (Vec<usize>, RunStats, Route) {
    let mut sink = PositionsSink::new();
    let stats = engine.try_run_with_stats(doc, &mut sink).unwrap();
    (sink.into_positions(), stats, stats.route)
}

/// A streamed run's positions, stats and returned route, the document
/// read 61 bytes at a time.
fn streamed(engine: &Engine, doc: &[u8]) -> (Vec<usize>, RunStats, Route) {
    struct Chunks<'a>(&'a [u8]);
    impl std::io::Read for Chunks<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(61).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    let mut sink = PositionsSink::new();
    let mut stats = RunStats::default();
    let reader = Input::Reader {
        reader: &mut Chunks(doc),
        deadline: None,
    };
    let route = engine.exec(reader, &mut sink, &mut stats).unwrap();
    assert_eq!(stats.bytes, doc.len() as u64);
    stats.route = route;
    (sink.into_positions(), stats, route)
}

#[test]
fn long_inputs_take_the_route_their_probe_chooses_on_every_backend_and_path() {
    for ((dataset, query), expected) in [(SPARSE, Route::General), (DENSE, Route::Selective)] {
        let doc = generated(dataset, 2 << 20);
        for backend in BackendKind::supported() {
            let context = format!("{query} on {backend}");
            let auto = engine(query, RouteChoice::Auto, backend);
            assert_eq!(
                auto.route(),
                Route::Selective,
                "{context}: the shape routes"
            );
            let general = engine(query, RouteChoice::General, backend);
            let (positions, stats, route) = sliced(&auto, &doc);
            assert_eq!(
                route, expected,
                "{context}: the stats report the route taken"
            );
            assert_eq!(positions, sliced(&general, &doc).0, "{context}");
            assert!(!positions.is_empty(), "{context}");
            assert_eq!(
                streamed(&auto, &doc),
                (positions, stats, route),
                "{context}: the stream agrees with the slice"
            );
        }
    }
}

#[test]
fn only_inputs_of_at_least_the_threshold_are_probed() {
    let (dataset, query) = SPARSE;
    let auto = engine(query, RouteChoice::Auto, BackendKind::Swar);
    let general = engine(query, RouteChoice::General, BackendKind::Swar);
    for (len, expected) in [
        (PROBE_MIN_INPUT - 1, Route::Selective),
        (PROBE_MIN_INPUT, Route::General),
    ] {
        let doc = exactly(dataset, len);
        let (positions, stats, route) = sliced(&auto, &doc);
        assert_eq!(route, expected, "{len} bytes");
        assert_eq!(positions, sliced(&general, &doc).0, "{len} bytes");
        assert_eq!(
            streamed(&auto, &doc),
            (positions, stats, route),
            "{len} bytes"
        );
    }
}

/// Counts the records it is given, and stops the run after `stop_after`.
struct Counting {
    records: u64,
    stop_after: u64,
}

impl Sink for Counting {
    fn record(&mut self, _: usize) -> Result<(), SinkFull> {
        self.records += 1;
        if self.records >= self.stop_after {
            return Err(SinkFull);
        }
        Ok(())
    }
}

#[test]
fn the_probe_never_reaches_the_callers_sink_or_limits() {
    for (dataset, query) in [SPARSE, DENSE] {
        let doc = generated(dataset, 2 << 20);
        let backend = BackendKind::supported().next().unwrap();
        let auto = engine(query, RouteChoice::Auto, backend);
        let all = sliced(&engine(query, RouteChoice::General, backend), &doc).0;

        // Every record the sink sees is a match of the run.
        let mut sink = Counting {
            records: 0,
            stop_after: u64::MAX,
        };
        auto.exec(Input::Slice(&doc), &mut sink, &mut NoStats)
            .unwrap();
        assert_eq!(sink.records, all.len() as u64, "{query}");

        // A sink that stops at its first match (a driver's deadline) gets
        // that match, however many the probe saw.
        let mut sink = Counting {
            records: 0,
            stop_after: 1,
        };
        auto.exec(Input::Slice(&doc), &mut sink, &mut NoStats)
            .unwrap();
        assert_eq!(sink.records, 1, "{query}");

        // `max_matches` counts the run's matches only.
        let capped = Engine::with_options(
            &Query::parse(query).unwrap(),
            EngineOptions {
                max_matches: Some(1),
                backend: Some(backend),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let mut sink = PositionsSink::new();
        let err = capped
            .exec(Input::Slice(&doc), &mut sink, &mut NoStats)
            .unwrap_err();
        assert!(
            matches!(
                err,
                RunError::LimitExceeded {
                    kind: LimitKind::Matches,
                    limit: 1
                }
            ),
            "{query}: {err}"
        );
        assert_eq!(sink.positions(), &all[..1], "{query}");
    }
}
