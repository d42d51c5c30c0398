//! The Prometheus text exposition of the series registry.
//!
//! [`Exposition`] renders [`crate::series`] rows as `--metrics-out` /
//! `/metrics` text: the `# HELP`/`# TYPE` header pair before the first
//! sample of a name, then one sample line per row (one per quantile for
//! a histogram). The file writer and the live endpoint go through it, so
//! they are byte-compatible by construction; [`check`] asserts the
//! conventions scrapers assume (snake_case `rsq_*` names, headers before
//! samples) on any rendered text.

use crate::series::{Row, Series, Value};
use std::fmt;
use std::fmt::Write as _;

/// One text exposition being written.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    /// Names whose header pair is out. Samples of one name are not always
    /// adjacent in the pinned output (per-stage cycles alternate with
    /// instructions, per-worker busy with wait, and the second window
    /// repeats the first one's names), so the previous name is not enough.
    declared: Vec<&'static str>,
}

impl Exposition {
    /// An empty exposition.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the series of `rows`, read from `source`; `labels`
    /// (`window="10s"`, `worker="0"`, or empty) goes on every sample.
    pub fn rows<T>(&mut self, rows: &[Row<T>], source: &T, labels: &str) {
        for late in [false, true] {
            for row in rows {
                if let Some(series) = row.series.as_ref().filter(|s| s.late == late) {
                    self.samples(series, labels, row.value(source));
                }
            }
        }
    }

    /// The sample lines of one value: one, or one per quantile.
    fn samples(&mut self, series: &Series, labels: &str, value: Value<'_>) {
        let own = [labels, series.labels, ""];
        match value {
            Value::U64(v) => self.sample(series, own, format_args!("{v}")),
            Value::F64(v, _, decimals) => self.sample(series, own, format_args!("{v:.decimals$}")),
            Value::Histogram(h) => {
                for (quantile, v) in h.quantiles() {
                    let labels = [labels, series.labels, quantile];
                    self.sample(series, labels, format_args!("{v}"));
                }
            }
            // The rest are JSON members only.
            _ => {}
        }
    }

    fn sample(&mut self, series: &Series, labels: [&str; 3], value: fmt::Arguments<'_>) {
        let Series {
            name, help, kind, ..
        } = *series;
        // Writing into a `String` cannot fail.
        if !self.declared.contains(&name) {
            self.declared.push(name);
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
        let labels: Vec<&str> = labels.into_iter().filter(|l| !l.is_empty()).collect();
        let _ = if labels.is_empty() {
            writeln!(self.out, "{name} {value}")
        } else {
            writeln!(self.out, "{name}{{{}}} {value}", labels.join(","))
        };
    }

    /// The finished text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// True when `name` is a well-formed workspace metric name: `rsq_`
/// prefix, then lowercase snake_case (`[a-z0-9_]`), no trailing or
/// doubled underscores.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.strip_prefix("rsq_").is_some_and(|rest| {
        !rest.is_empty()
            && !rest.ends_with('_')
            && !rest.contains("__")
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// Validates a rendered exposition against the workspace conventions:
/// every sample line's metric name must pass [`valid_name`] and must
/// have been introduced by a `# HELP` line (with non-empty text) and a
/// `# TYPE` line (`counter` or `gauge`) earlier in the text.
///
/// # Errors
///
/// Returns the first violation, rendered with the offending line.
pub fn check(text: &str) -> Result<(), String> {
    use std::collections::HashSet;
    let mut helped: HashSet<&str> = HashSet::new();
    let mut typed: HashSet<&str> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
            if help.trim().is_empty() {
                return Err(format!("HELP text missing: {line:?}"));
            }
            helped.insert(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            if !matches!(kind, "counter" | "gauge") {
                return Err(format!("unknown metric type: {line:?}"));
            }
            typed.insert(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // A sample line: name, optional {labels}, space, value.
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("unparsable sample line: {line:?}"))?;
        // PANIC-OK: name_end is an index returned by find on this very line
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("metric name not snake_case rsq_*: {name:?}"));
        }
        if !helped.contains(name) {
            return Err(format!("sample before # HELP: {name:?}"));
        }
        if !typed.contains(name) {
            return Err(format!("sample before # TYPE: {name:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Things {
        a: u64,
        b: u64,
        rate: f64,
    }

    const ROWS: &[Row<Things>] = crate::series_rows! {
        "a" sum(|t| t.a) => counter rsq_things_total "Things seen.";
        "b" sum(|t| t.b) => counter rsq_things_total {kind="b"} "Things seen.";
        "rate" calc(|t| Value::F64(t.rate, 2, 3))
            => gauge rsq_things_per_sec "Things per second." late;
        "hidden" get(|t| t.a + t.b);
    };

    #[test]
    fn header_pair_is_emitted_once_per_name() {
        let things = Things {
            a: 3,
            b: 4,
            rate: 1.25,
        };
        let mut expo = Exposition::new();
        expo.rows(ROWS, &things, "");
        expo.rows(ROWS, &things, "window=\"10s\"");
        let out = expo.finish();
        assert_eq!(out.matches("# HELP rsq_things_total").count(), 1);
        assert_eq!(out.matches("# TYPE rsq_things_total counter").count(), 1);
        assert!(out.contains("rsq_things_total 3\n"));
        assert!(out.contains("rsq_things_total{kind=\"b\"} 4\n"));
        assert!(out.contains("rsq_things_total{window=\"10s\",kind=\"b\"} 4\n"));
        assert!(out.contains("rsq_things_per_sec{window=\"10s\"} 1.250\n"));
        assert!(!out.contains("hidden"));
        check(&out).expect("well-formed exposition");
    }

    #[test]
    fn valid_name_enforces_snake_case() {
        assert!(valid_name("rsq_serve_documents_total"));
        assert!(valid_name("rsq_window_latency_ns"));
        assert!(!valid_name("serve_documents_total"), "missing prefix");
        assert!(!valid_name("rsq_Serve_documents"), "uppercase");
        assert!(!valid_name("rsq_docs-total"), "dash");
        assert!(!valid_name("rsq_"), "empty tail");
        assert!(!valid_name("rsq_docs__total"), "doubled underscore");
        assert!(!valid_name("rsq_docs_"), "trailing underscore");
    }

    #[test]
    fn check_rejects_missing_headers_and_bad_names() {
        assert!(check("rsq_loose_metric 1\n").is_err(), "no HELP/TYPE");
        let missing_type = "# HELP rsq_x_total x\nrsq_x_total 1\n";
        assert!(check(missing_type).is_err());
        let bad_name = "# HELP rsq_X x\n# TYPE rsq_X counter\nrsq_X 1\n";
        assert!(check(bad_name).is_err());
        let empty_help = "# HELP rsq_x_total \n# TYPE rsq_x_total counter\nrsq_x_total 1\n";
        assert!(check(empty_help).is_err());
    }
}
