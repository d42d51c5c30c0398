//! Checks over the whole series registry — `rsq-obs`'s counter sets and
//! `rsq-perf`'s — that hold by reading the tables, not by rendering each
//! exposition and parsing the text back (what `cargo xtask metrics-lint`
//! did while seven renderers had to be kept in agreement by hand): the
//! naming conventions, the merge rules of every row, and the README's
//! metric reference, which is rendered from the same rows.

use rsq_obs::expo::{self, Exposition};
use rsq_obs::series::{self, Entry, Field, Merge, Row};
use rsq_obs::{
    BatchCounters, BatchProfile, Histogram, Route, RunStats, ServeCounters, SkipBytes, StageTimes,
    TelemetryGauges, WindowSnapshot, WorkerProfile,
};
use rsq_perf::PerfStats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn catalog() -> Vec<Entry> {
    let mut entries = series::catalog();
    entries.extend(series::entries("perf", PerfStats::ROWS));
    entries
}

#[test]
fn every_row_follows_the_conventions() {
    let mut samples = BTreeSet::new();
    let mut headers = BTreeMap::new();
    let mut keys = BTreeSet::new();
    for Entry { set, key, series } in catalog() {
        assert!(
            key.is_empty() || keys.insert((set, key)),
            "JSON key `{key}` twice in `{set}`"
        );
        assert!(
            !key.is_empty() || series.is_some(),
            "a row of `{set}` has neither a JSON key nor a series"
        );
        let Some(series) = series else { continue };
        let name = series.name;
        assert!(expo::valid_name(name), "`{name}` is not snake_case rsq_*");
        assert!(!series.help.trim().is_empty(), "`{name}` has no help text");
        assert!(
            matches!(series.kind, "counter" | "gauge"),
            "`{name}` is a {}",
            series.kind
        );
        assert_eq!(
            name.ends_with("_total"),
            series.kind == "counter",
            "`{name}`: counters, and only counters, are named *_total"
        );
        assert!(
            samples.insert((name, series.labels)),
            "`{name}{{{}}}` is registered twice",
            series.labels
        );
        let header = (series.help, series.kind);
        assert_eq!(
            *headers.entry(name).or_insert(header),
            header,
            "`{name}` has two help texts or types"
        );
    }
    assert_eq!(headers.len(), 49, "series names in the registry");
}

/// Every table rendered once into one exposition, with the labels the
/// callers add (two workers, both windows).
fn full_exposition() -> String {
    let mut expo = Exposition::new();
    expo.rows(RunStats::ROWS, &RunStats::default(), "");
    expo.rows(SkipBytes::ROWS, &SkipBytes::default(), "");
    expo.rows(StageTimes::ROWS, &StageTimes::default(), "");
    expo.rows(BatchCounters::ROWS, &BatchCounters::default(), "");
    BatchProfile {
        workers: vec![WorkerProfile::default(); 2],
        ..BatchProfile::default()
    }
    .expose(&mut expo);
    expo.rows(ServeCounters::ROWS, &ServeCounters::default(), "");
    expo.rows(ServeCounters::LATENCY, &Histogram::new(), "");
    for label in ["window=\"10s\"", "window=\"60s\""] {
        expo.rows(WindowSnapshot::ROWS, &WindowSnapshot::default(), label);
    }
    expo.rows(TelemetryGauges::ROWS, &TelemetryGauges::default(), "");
    expo.rows(PerfStats::ROWS, &PerfStats::default(), "");
    expo.finish()
}

#[test]
fn the_full_table_renders_a_wellformed_exposition() {
    let text = full_exposition();
    expo::check(&text).expect("headers before samples, rsq_* names");
    // Every registered series is a sample of that text, and nothing else is.
    let sampled: BTreeSet<&str> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split(['{', ' ']).next())
        .collect();
    let registered: BTreeSet<&str> = catalog()
        .iter()
        .filter_map(|entry| entry.series.map(|series| series.name))
        .collect();
    assert_eq!(sampled, registered);
    for name in registered {
        assert_eq!(
            text.matches(&format!("# TYPE {name} ")).count(),
            1,
            "{name}"
        );
    }
}

/// The merge rules of one set, visiting every row: a `sum` row adds and
/// saturates at `u64::MAX`, a `max` row keeps the larger value, no row
/// disturbs another, and with every counter populated `(a + b) + c` is
/// `a + (b + c)`.
fn merge_laws<T: Default + Clone>(set: &str, rows: &'static [Row<T>]) {
    let merged = |a: &T, b: &T| {
        let mut into = a.clone();
        series::merge(rows, &mut into, b);
        into
    };
    let mut counters = 0;
    for row in rows {
        let Field::Counter { get, slot, merge } = row.field else {
            continue;
        };
        counters += 1;
        let with = |value: u64| {
            let mut set = T::default();
            *slot(&mut set) = value;
            set
        };
        let key = row.key;
        let (small, large) = match merge {
            Merge::Sum => (8, u64::MAX),
            Merge::Max => (5, u64::MAX - 1),
        };
        assert_eq!(get(&merged(&with(3), &with(5))), small, "{set}.{key}");
        assert_eq!(get(&merged(&with(5), &with(3))), small, "{set}.{key}");
        let saturated = merged(&with(u64::MAX - 1), &with(5));
        assert_eq!(get(&saturated), large, "{set}.{key}");
        // Nothing but this row's value (and what is derived from it) moved.
        assert_eq!(
            series::to_json(rows, &saturated),
            series::to_json(rows, &with(large)),
            "{set}.{key}"
        );
    }
    assert!(counters > 0, "{set} has no stored counter");

    let filled = |seed: u64| {
        let mut set = T::default();
        let counters = rows.iter().filter_map(|row| match row.field {
            Field::Counter { slot, .. } => Some(slot),
            Field::Other { .. } => None,
        });
        for (i, slot) in counters.enumerate() {
            // Every third counter sits close enough to the top that two
            // of the three operands overflow it.
            let i = i as u64;
            *slot(&mut set) = match (i + seed) % 3 {
                0 => u64::MAX - seed - i,
                _ => seed * 1000 + i,
            };
        }
        set
    };
    let (a, b, c) = (filled(1), filled(2), filled(3));
    assert_eq!(
        series::to_json(rows, &merged(&merged(&a, &b), &c)),
        series::to_json(rows, &merged(&a, &merged(&b, &c))),
        "{set}: merge is associative"
    );
}

#[test]
fn run_stats_merge_by_their_rows() {
    merge_laws("stats", RunStats::ROWS);
    // The route rule: a default-initialized accumulator must not mask a
    // fast-path route, and the first fast-path route seen is kept.
    let routed = |route| RunStats {
        route,
        ..RunStats::default()
    };
    let sum = RunStats::default() + routed(Route::Selective) + routed(Route::General);
    assert_eq!(sum.route, Route::Selective);
    assert_eq!((sum + routed(Route::General)).route, Route::Selective);
}

#[test]
fn profile_sets_merge_by_their_rows() {
    merge_laws("profile.bytes_skipped", SkipBytes::ROWS);
    merge_laws("profile.stages", StageTimes::ROWS);
    merge_laws("profile.workers[]", WorkerProfile::ROWS);
}

#[test]
fn batch_counters_merge_by_their_rows() {
    merge_laws("batch", BatchCounters::ROWS);
}

#[test]
fn serve_counters_merge_by_their_rows() {
    merge_laws("serve", ServeCounters::ROWS);
    let high_water = |max_inflight| ServeCounters {
        max_inflight,
        ..ServeCounters::default()
    };
    assert_eq!((high_water(7) + high_water(3)).max_inflight, 7);
}

#[test]
fn windows_merge_by_their_rows() {
    merge_laws("telemetry.window", WindowSnapshot::ROWS);
    let second = |latency_ns| {
        let mut slot = WindowSnapshot::default();
        slot.latency.record(latency_ns);
        slot
    };
    let mut window = second(100);
    series::merge(WindowSnapshot::ROWS, &mut window, &second(900));
    assert_eq!((window.latency.count(), window.latency.max()), (2, 900));
}

#[test]
fn perf_stats_merge_by_their_rows() {
    merge_laws("perf", PerfStats::ROWS);
    // One degraded contribution taints the merged report.
    let mut total = PerfStats::default();
    total += PerfStats {
        core_only: true,
        ..PerfStats::default()
    };
    total += PerfStats::default();
    assert!(total.core_only);
}

/// The README's metric reference: one row per series name, in registry
/// order, with the labels its samples carry in [`full_exposition`] and
/// the JSON keys of the rows behind it.
fn metric_reference() -> String {
    let text = full_exposition();
    let mut table = String::from(
        "| series | type | labels | `--stats-json` key | help |\n|---|---|---|---|---|\n",
    );
    let mut rows: Vec<(&str, Vec<Entry>)> = Vec::new();
    for entry in catalog() {
        let Some(series) = entry.series else { continue };
        match rows.iter_mut().find(|(name, _)| *name == series.name) {
            Some((_, entries)) => entries.push(entry),
            None => rows.push((series.name, vec![entry])),
        }
    }
    let or_dash = |text: String| {
        if text.is_empty() {
            "—".to_owned()
        } else {
            text
        }
    };
    for (name, entries) in rows {
        let series = entries[0]
            .series
            .expect("only rows with a series were kept");
        let mut labels: Vec<&str> = Vec::new();
        let samples = text.lines().filter_map(|line| line.strip_prefix(name));
        for sample in samples.filter_map(|rest| rest.strip_prefix('{')) {
            let body = sample.split_once('}').map_or("", |(body, _)| body);
            for (label, _) in body.split(',').filter_map(|pair| pair.split_once('=')) {
                if !labels.contains(&label) {
                    labels.push(label);
                }
            }
        }
        let keys: Vec<String> = entries
            .iter()
            .filter(|entry| !entry.key.is_empty())
            .map(|entry| match entry.set {
                "" => format!("`{}`", entry.key),
                set => format!("`{set}.{}`", entry.key),
            })
            .collect();
        table.push_str(&format!(
            "| `{name}` | {} | {} | {} | {} |\n",
            series.kind,
            or_dash(labels.join(", ")),
            or_dash(keys.join(", ")),
            series.help,
        ));
    }
    table
}

#[test]
fn the_readme_metric_reference_is_rendered_from_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let recorded = readme
        .split_once("<!-- metric-reference:begin -->\n")
        .and_then(|(_, rest)| rest.split_once("<!-- metric-reference:end -->"))
        .map(|(region, _)| region);
    let wanted = metric_reference();
    if recorded != Some(wanted.as_str()) {
        let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("metric-reference.md");
        std::fs::write(&scratch, &wanted).expect("scratch directory is writable");
        panic!(
            "README.md's metric reference is stale; the region between the anchors should be {}",
            scratch.display()
        );
    }
}
