//! The series registry: one table row per reported value.
//!
//! Each counter set ([`RunStats`](crate::RunStats),
//! [`SkipBytes`](crate::SkipBytes), [`BatchCounters`](crate::BatchCounters),
//! [`ServeCounters`](crate::ServeCounters),
//! [`WindowSnapshot`](crate::WindowSnapshot), `rsq_perf::PerfStats`, …)
//! declares a `ROWS` table with [`series_rows!`](crate::series_rows), and a
//! row is the only place that names a value: how to read it, its key in
//! `--stats-json` (dots nest objects: `skips.leaf`), how two reports
//! merge it, and — when a scraper sees it — its Prometheus name, label,
//! help and type. Everything machine-readable is rendered from the rows:
//! [`JsonObject::rows`] writes the JSON members, `Exposition::rows`
//! ([`crate::expo`]) the `--metrics-out` / `/metrics` text, [`merge`] is
//! `+=`, and [`catalog`] lists every row for the README's metric
//! reference and `cargo xtask analyze`'s `consistency` pass.
//!
//! The human `--stats`/`--profile` tables are *not* rendered from rows:
//! their lines group several values with prose (`memmem jumps       2
//! taken, 0 declined`), which a row cannot say without a per-line
//! template (DESIGN.md §8).

use crate::hist::Histogram;
use std::fmt::Write as _;

/// What a scraper sees of a row.
#[derive(Debug)]
pub struct Series {
    /// Metric name (`rsq_*`, snake_case).
    pub name: &'static str,
    /// The row's own label, `key="value"`, or empty. The renderer joins
    /// it to the caller's (`window="10s"`, `worker="0"`) and, for a
    /// histogram, to `quantile="…"`.
    pub labels: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// `# TYPE`: `counter` (a monotone total, named `*_total`) or `gauge`.
    pub kind: &'static str,
    /// Emitted after the table's other series. The exposition order of
    /// three sets is pinned and differs from their JSON order:
    /// `rsq_max_depth` follows `rsq_matches_total`, the serve I/O series
    /// follow `rsq_route_docs_total`, and the perf totals lead.
    pub late: bool,
}

/// A value read from a counter set, as the renderers need it.
#[derive(Debug)]
pub enum Value<'a> {
    /// A counter or integer gauge.
    U64(u64),
    /// A derived ratio or rate, with the decimals `--stats-json` and
    /// the exposition print, in that order.
    F64(f64, usize, usize),
    /// JSON only.
    Bool(bool),
    /// JSON only: a quoted stable name.
    Str(&'static str),
    /// JSON only: `null`, for a name that is not known.
    Null,
    /// JSON: the histogram's object; exposition: one sample per quantile
    /// of [`Histogram::quantiles`].
    Histogram(&'a Histogram),
    /// JSON only: an already rendered object or array.
    Json(String),
    /// No member this time (an optional part that is not there).
    Absent,
}

/// How `+=` folds a stored counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Saturating add.
    Sum,
    /// The larger of the two (high-water marks).
    Max,
}

/// How a row reads and merges its value.
pub enum Field<T> {
    /// A stored `u64`.
    Counter {
        /// Reads it.
        get: fn(&T) -> u64,
        /// Borrows it for the merge.
        slot: fn(&mut T) -> &mut u64,
        /// The merge rule.
        merge: Merge,
    },
    /// Anything else: computed at render time, with its own merge when it
    /// is stored (the route, a flag, a histogram).
    Other {
        /// Reads or computes it.
        get: fn(&T) -> Value<'_>,
        /// Folds `from` into `into`; does nothing for a computed value.
        merge: fn(&mut T, &T),
    },
}

/// One reported value of the counter set `T`.
pub struct Row<T> {
    /// Key in the set's JSON object; dots nest. Empty: no JSON member.
    pub key: &'static str,
    /// How to read and merge it.
    pub field: Field<T>,
    /// Its Prometheus series, when it has one.
    pub series: Option<Series>,
}

impl<T> Row<T> {
    /// Reads the row's value from `source`.
    pub fn value<'a>(&self, source: &'a T) -> Value<'a> {
        match self.field {
            Field::Counter { get, .. } => Value::U64(get(source)),
            Field::Other { get, .. } => get(source),
        }
    }
}

/// Builds a `&'static [Row<T>]`, one row per `;`-terminated line:
///
/// ```text
/// "json.key" how(|s| …) [=> counter|gauge name [{label="value"}] "help" [late]];
/// ```
///
/// `how` is `sum`/`max` over a stored `u64` place (`sum_at` over an
/// array and the enum whose `index()` addresses it), `get` for a
/// `u64` that is not merged, `calc` for any [`Value`], or `keep` for a
/// stored value with its own merge: `keep(|s| value, |into, from| …)`.
///
/// Wrapped as `/// docs` `impl Set { rows }` it declares the set's
/// table, `Set::ROWS`, and `Set::to_json` over it; `impl Set, merged`
/// adds `+=` and `+` as [`merge`] over the rows.
#[macro_export]
macro_rules! series_rows {
    ($(#[$doc:meta])* impl $set:ty, merged { $($rows:tt)* }) => {
        $crate::series_rows! { $(#[$doc])* impl $set { $($rows)* } }

        impl std::ops::AddAssign for $set {
            fn add_assign(&mut self, rhs: Self) {
                $crate::series::merge(Self::ROWS, self, &rhs);
            }
        }

        impl std::ops::Add for $set {
            type Output = $set;

            fn add(mut self, rhs: Self) -> Self {
                self += rhs;
                self
            }
        }
    };
    ($(#[$doc:meta])* impl $set:ty { $($rows:tt)* }) => {
        impl $set {
            $(#[$doc])*
            pub const ROWS: &'static [$crate::series::Row<$set>] = $crate::series_rows! { $($rows)* };

            /// Serializes as a single-line JSON object (no trailing
            /// newline) with the stable keys of [`Self::ROWS`].
            #[must_use]
            pub fn to_json(&self) -> String {
                $crate::series::to_json(Self::ROWS, self)
            }
        }
    };
    ($($key:literal $how:ident($($arg:tt)*)
        $(=> $kind:ident $name:ident $({$label:ident = $is:literal})? $help:literal $($late:ident)?)?;)*) => {
        &[$($crate::series::Row {
            key: $key,
            field: $crate::series_rows!(@$how $($arg)*),
            series: $crate::series_rows!(@series $($kind $name $({$label = $is})? $help $($late)?)?),
        }),*]
    };
    (@sum |$s:ident| $place:expr) => { $crate::series_rows!(@stored Sum |$s| $place) };
    (@max |$s:ident| $place:expr) => { $crate::series_rows!(@stored Max |$s| $place) };
    // PANIC-OK: `index()` of the enum an array is sized by is < its length (one slot per variant)
    (@sum_at |$s:ident| $array:expr, $at:expr) => { $crate::series_rows!(@stored Sum |$s| $array[$at.index()]) };
    (@stored $merge:ident |$s:ident| $place:expr) => {
        $crate::series::Field::Counter {
            get: |$s| $place,
            slot: |$s| &mut $place,
            merge: $crate::series::Merge::$merge,
        }
    };
    (@get |$s:ident| $value:expr) => {
        $crate::series_rows!(@calc |$s| $crate::series::Value::U64($value))
    };
    (@calc |$s:ident| $value:expr) => {
        $crate::series::Field::Other { get: |$s| $value, merge: |_, _| {} }
    };
    (@keep |$s:ident| $value:expr, |$into:ident, $from:ident| $merge:expr) => {
        $crate::series::Field::Other { get: |$s| $value, merge: |$into, $from| $merge }
    };
    (@series) => { None };
    (@series $kind:ident $name:ident $({$label:ident = $is:literal})? $help:literal $($late:ident)?) => {
        Some($crate::series::Series {
            name: stringify!($name),
            labels: concat!($(stringify!($label), "=\"", $is, "\"")?),
            help: $help,
            kind: stringify!($kind),
            late: $crate::series_rows!(@late $($late)?),
        })
    };
    (@late) => { false };
    (@late late) => { true };
}

/// `into += from`, row by row: counters by their [`Merge`] rule, other
/// stored values by their own.
pub fn merge<T>(rows: &[Row<T>], into: &mut T, from: &T) {
    for row in rows {
        match row.field {
            Field::Counter { get, slot, merge } => {
                let (slot, from) = (slot(into), get(from));
                *slot = match merge {
                    Merge::Sum => slot.saturating_add(from),
                    Merge::Max => (*slot).max(from),
                };
            }
            Field::Other { merge, .. } => merge(into, from),
        }
    }
}

/// Writer of one single-line JSON object whose members come from rows
/// (and from [`JsonObject::value`], for the parts a report composes).
/// Dotted keys open nested objects, which stay open while the following
/// keys share the prefix.
#[derive(Debug, Default)]
pub struct JsonObject {
    /// The members so far, without the outermost braces.
    out: String,
    /// The nested objects currently open, outermost first.
    open: Vec<&'static str>,
}

impl JsonObject {
    /// An object with no members yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the nested objects open below `depth`, then starts the
    /// member `key` in the one at `depth`.
    fn key(&mut self, depth: usize, key: &str) {
        for _ in self.open.drain(depth..) {
            self.out.push('}');
        }
        // An object is only ever opened to put a member in it.
        if !self.out.is_empty() && !self.out.ends_with('{') {
            self.out.push(',');
        }
        let _ = write!(self.out, "\"{key}\":");
    }

    /// Appends one member; nothing for an empty key or [`Value::Absent`].
    pub fn value(&mut self, key: &'static str, value: Value<'_>) {
        if key.is_empty() || matches!(value, Value::Absent) {
            return;
        }
        let (mut depth, mut leaf) = (0, key);
        while let Some((object, rest)) = leaf.split_once('.') {
            if self.open.get(depth) != Some(&object) {
                self.key(depth, object);
                self.out.push('{');
                self.open.push(object);
            }
            (depth, leaf) = (depth + 1, rest);
        }
        self.key(depth, leaf);
        // Writing into a `String` cannot fail.
        let _ = match value {
            Value::U64(v) => write!(self.out, "{v}"),
            Value::F64(v, decimals, _) => write!(self.out, "{v:.decimals$}"),
            Value::Bool(v) => write!(self.out, "{v}"),
            Value::Str(v) => write!(self.out, "\"{v}\""),
            Value::Histogram(v) => write!(self.out, "{}", v.to_json()),
            Value::Json(v) => write!(self.out, "{v}"),
            Value::Null | Value::Absent => write!(self.out, "null"),
        };
    }

    /// Appends the members of `rows`, read from `source`.
    pub fn rows<T>(&mut self, rows: &[Row<T>], source: &T) {
        for row in rows {
            self.value(row.key, row.value(source));
        }
    }

    /// Closes the object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}{}}}", self.out, "}".repeat(self.open.len()))
    }
}

/// `source` as a single-line JSON object.
#[must_use]
pub fn to_json<T>(rows: &[Row<T>], source: &T) -> String {
    let mut object = JsonObject::new();
    object.rows(rows, source);
    object.finish()
}

/// `sources` as a JSON array of such objects.
#[must_use]
pub fn to_json_array<'a, T: 'a>(
    rows: &[Row<T>],
    sources: impl IntoIterator<Item = &'a T>,
) -> String {
    let objects: Vec<String> = sources.into_iter().map(|s| to_json(rows, s)).collect();
    format!("[{}]", objects.join(","))
}

/// One row of some set's table, without its accessors.
#[derive(Debug)]
pub struct Entry {
    /// Where the set's object sits in `--stats-json` (`serve`,
    /// `profile.stages`; empty for the top level).
    pub set: &'static str,
    /// The row's key inside that object (empty: no JSON member).
    pub key: &'static str,
    /// Its series, when it has one.
    pub series: Option<&'static Series>,
}

/// The rows of one table as [`Entry`]s.
pub fn entries<T>(set: &'static str, rows: &'static [Row<T>]) -> impl Iterator<Item = Entry> {
    rows.iter().map(move |row| Entry {
        set,
        key: row.key,
        series: row.series.as_ref(),
    })
}

/// Every row this crate registers, in exposition order of the sets
/// (`rsq-perf` adds `PerfStats::ROWS` under `perf`).
#[must_use]
pub fn catalog() -> Vec<Entry> {
    use crate::{
        BatchCounters, BatchProfile, RunStats, ServeCounters, SkipBytes, StageTimes,
        TelemetryGauges, WindowSnapshot, WorkerProfile,
    };
    entries("", RunStats::ROWS)
        .chain(entries("profile.bytes_skipped", SkipBytes::ROWS))
        .chain(entries("profile.stages", StageTimes::ROWS))
        .chain(entries("batch", BatchCounters::ROWS))
        .chain(entries("profile", BatchProfile::ROWS))
        .chain(entries("profile.latency", Histogram::ROWS))
        .chain(entries("profile.workers[]", WorkerProfile::ROWS))
        .chain(entries("serve", ServeCounters::ROWS))
        .chain(entries("", ServeCounters::LATENCY))
        .chain(entries("telemetry.window_<N>s", WindowSnapshot::ROWS))
        .chain(entries("telemetry", TelemetryGauges::ROWS))
        .collect()
}
