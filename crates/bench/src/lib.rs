//! Shared harness for the paper-reproduction benchmarks.
//!
//! The `experiments` binary regenerates every table and figure of §5 /
//! Appendices B–D of *Supporting Descendants in SIMD-Accelerated
//! JSONPath* (ASPLOS 2023), and `experiments check` holds the measured
//! tables to the paper's claims:
//!
//! | Artifact | `experiments` subcommand |
//! |---|---|
//! | Table 2 (classification cost) | `table2` |
//! | Table 3 (dataset stats) | `table3` |
//! | Table 4 / Figure 4 (Experiment A) | `a` |
//! | Table 5 / Figure 5 (Experiment B) | `b` |
//! | Table 6 / Figure 6 (Experiment C) | `c` |
//! | Table 7 (Experiment D) | `d` |
//! | Appendix C result matrix | `appendix-c` |
//! | Appendix D / Table 9 (semantics) | `semantics` |
//! | Design-choice ablations (§5.6) | `ablations` |
//! | Summary of reproduction status | `check` |
//!
//! Every throughput cell is timed by [`time_row`]; every claim `check`
//! asserts is a [`Shape`] in [`SHAPES`] (plus [`semantics_exact`]).
//!
//! Dataset size defaults to 16 MB per dataset and can be scaled with the
//! `RSQ_DATASET_MB` environment variable (the paper uses 0.5–1.2 GB
//! originals; the throughput *shape* is size-invariant, which Experiment D
//! verifies).

use rsq_datagen::{Dataset, GenConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::Instant;

/// Deterministic seed for every benchmark dataset.
pub const BENCH_SEED: u64 = 0x5eed_2023;

/// Generates (once) and caches all benchmark datasets at the configured
/// size.
pub fn datasets() -> &'static HashMap<Dataset, Vec<u8>> {
    static CACHE: OnceLock<HashMap<Dataset, Vec<u8>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let config = GenConfig {
            target_bytes: rsq_datagen::default_target_bytes(),
            seed: BENCH_SEED,
        };
        Dataset::all()
            .into_iter()
            .map(|d| (d, d.generate(&config).into_bytes()))
            .collect()
    })
}

/// The input bytes for a dataset.
#[must_use]
pub fn dataset(dataset: Dataset) -> &'static [u8] {
    &datasets()[&dataset]
}

/// One configuration of a row: its label and a run that returns its
/// match count.
pub type Run<'a> = (&'a str, Box<dyn FnMut() -> u64 + 'a>);

/// One configuration's timing over a row's input.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Matches reported (equal on every rep of every configuration).
    pub count: u64,
    /// The lower decile of the reps' wall times, in seconds.
    pub secs: f64,
    /// The input bytes over `secs`, in gigabytes (10^9 bytes) per second.
    pub gbps: f64,
}

/// Times the configurations of one row over `bytes` bytes of input.
///
/// Every configuration runs once untimed, then `reps` rounds run each of
/// them once; round `r` starts with configuration `r mod n`, so no
/// configuration always runs first or right behind the same neighbour. A
/// cell is the lower decile of its reps' times (the fastest of fewer
/// than eleven): noise on a shared host only ever adds time.
///
/// # Panics
///
/// If `runs` is empty, `reps` is zero, or any run reports a match count
/// different from the first configuration's warm-up.
pub fn time_row(bytes: usize, reps: usize, runs: &mut [Run<'_>]) -> Vec<Cell> {
    assert!(!runs.is_empty() && reps > 0, "a row times something");
    let expected = (runs[0].1)();
    let check = |label: &str, count: u64, rep: &str| {
        assert_eq!(
            count, expected,
            "{label} reported {count} matches on {rep}, the row {expected}"
        );
    };
    for (label, run) in runs.iter_mut().skip(1) {
        check(label, run(), "its warm-up");
    }
    let n = runs.len();
    let mut times = vec![Vec::with_capacity(reps); n];
    for rep in 0..reps {
        for i in 0..n {
            let j = (rep + i) % n;
            let (label, run) = &mut runs[j];
            let start = Instant::now();
            let count = run();
            times[j].push(start.elapsed().as_secs_f64());
            check(label, count, &format!("rep {rep}"));
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_by(f64::total_cmp);
            let secs = t[(t.len() - 1) / 10];
            #[allow(clippy::cast_precision_loss)]
            let gbps = bytes as f64 / 1e9 / secs;
            Cell {
                count: expected,
                secs,
                gbps,
            }
        })
        .collect()
}

/// Measured numbers by `(row, column)`: GB/s for catalog rows (`"B1"`,
/// `"rsq"`), ns per block for Table 2 (`"8"`, `"naive"`), GB/s per size
/// for Table 7 (`"x4"`, `"rsq"`).
pub type Cells = BTreeMap<(String, String), f64>;

/// Records one number in `cells`.
pub fn put(cells: &mut Cells, row: &str, column: &str, value: f64) {
    cells.insert((row.to_owned(), column.to_owned()), value);
}

/// The number recorded at `(row, column)`, if any.
#[must_use]
pub fn get(cells: &Cells, row: &str, column: &str) -> Option<f64> {
    cells.get(&(row.to_owned(), column.to_owned())).copied()
}

/// One claim of the summary, evaluated.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The check's name, as EXPERIMENTS.md's summary cites it.
    pub name: &'static str,
    /// Whether a failure fails `experiments check`.
    pub gated: bool,
    /// Whether every row lies within the bounds.
    pub holds: bool,
    /// The bounds and each row's measured ratio.
    pub detail: String,
}

/// A shape's ratios, by row; `None` where a cell was not measured.
pub type Ratios = Vec<(String, Option<f64>)>;

/// A claim as a shape: every row's ratio must lie in `[lo, hi]`.
pub struct Shape {
    /// The check's name.
    pub name: &'static str,
    /// `false` when the margin measured when the bounds were set lay
    /// inside the run-to-run spread: the shape is then reported as
    /// *unresolved* and cannot fail the gate.
    pub gated: bool,
    /// Lowest ratio that holds.
    pub lo: f64,
    /// Highest ratio that holds.
    pub hi: f64,
    /// The ratios the claim is about.
    pub rows: fn(&Cells) -> Ratios,
}

impl Shape {
    /// Evaluates the shape on `cells`; a missing cell fails it.
    #[must_use]
    pub fn eval(&self, cells: &Cells) -> Verdict {
        let rows = (self.rows)(cells);
        let holds = !rows.is_empty()
            && rows
                .iter()
                .all(|(_, r)| r.is_some_and(|r| (self.lo..=self.hi).contains(&r)));
        let rows: Vec<String> = rows
            .iter()
            .map(|(row, r)| match r {
                Some(r) => format!("{row} {r:.2}"),
                None => format!("{row} missing"),
            })
            .collect();
        Verdict {
            name: self.name,
            gated: self.gated,
            holds,
            detail: format!("[{}, {}]: {}", self.lo, self.hi, rows.join(", ")),
        }
    }
}

/// Table 4's queries (Experiment A).
pub const TABLE4: [&str; 12] = [
    "B1", "B2", "B3", "G1", "G2", "N1", "N2", "T1", "T2", "W1", "W2", "Wi",
];

/// Table 5's pairs (Experiment B): each original and its rewriting.
pub const REWRITINGS: [(&str, &str); 7] = [
    ("B1", "B1r"),
    ("B2", "B2r"),
    ("B3", "B3r"),
    ("G2", "G2r"),
    ("W1", "W1r"),
    ("W2", "W2r"),
    ("Wi", "Wir"),
];

/// Table 6's queries (Experiment C).
pub const TABLE6: [&str; 10] = [
    "A1", "A2", "C1", "C2", "C2r", "C3", "C3r", "Ts", "Tsp", "Tsr",
];

/// The queries routing is held to (this repository's extension).
pub const ROUTED: [&str; 3] = ["B3", "O1", "C5"];

/// `numerator / denominator` of two cells.
fn ratio(cells: &Cells, num: (&str, &str), den: (&str, &str)) -> Option<f64> {
    Some(get(cells, num.0, num.1)? / get(cells, den.0, den.1)?)
}

fn each<'a>(rows: impl IntoIterator<Item = &'a str>, f: impl Fn(&str) -> Option<f64>) -> Ratios {
    rows.into_iter().map(|r| (r.to_owned(), f(r))).collect()
}

/// Table 2's symbol counts from which the lookup strategy applies.
const LOOKUP_SYMBOLS: [&str; 5] = ["8", "16", "32", "64", "128"];

/// Every claim of EXPERIMENTS.md's summary that a ratio of measured cells
/// can express. Paper-algorithm claims read the `rsq` column (the general
/// route); extension claims read `routed` or the ablation rows.
///
/// Each bound restates its claim's wording. The range beside it is what
/// seven runs of `RSQ_DATASET_MB=4 experiments check` read on a 2-vCPU
/// AVX-512 VM; a shape is gated only where its margin to the bound
/// exceeds that spread.
pub const SHAPES: [Shape; 17] = [
    // Lookup cost flat across 8–128 symbols: the slowest block cost over
    // the fastest is under 2. Measured 1.11–1.50.
    Shape {
        name: "table2-lookup-flat",
        gated: true,
        lo: 1.0,
        hi: 2.0,
        rows: |c| {
            let ns: Option<Vec<f64>> = LOOKUP_SYMBOLS.iter().map(|k| get(c, k, "lookup")).collect();
            let r = ns.map(|ns| {
                ns.iter().copied().fold(0.0, f64::max) / ns.iter().copied().fold(f64::MAX, f64::min)
            });
            vec![("max/min".to_owned(), r)]
        },
    },
    // Naive cost grows with the symbol count: 128 symbols cost at least
    // 4× what 8 do. Measured 12.1–14.4.
    Shape {
        name: "table2-naive-grows",
        gated: true,
        lo: 4.0,
        hi: f64::INFINITY,
        rows: |c| {
            vec![(
                "128/8".to_owned(),
                ratio(c, ("128", "naive"), ("8", "naive")),
            )]
        },
    },
    // Lookup ahead of naive from 8 symbols on. Measured 3.2–3.8 at 8,
    // more above.
    Shape {
        name: "table2-lookup-ahead",
        gated: true,
        lo: 1.0,
        hi: f64::INFINITY,
        rows: |c| each(LOOKUP_SYMBOLS, |k| ratio(c, (k, "naive"), (k, "lookup"))),
    },
    // Figure 4, "no integer factor": rsq at least half jsonski*'s rate on
    // every Table 4 row. Measured 0.70–0.73 on N2, the lowest row.
    Shape {
        name: "fig4-no-integer-factor",
        gated: true,
        lo: 0.5,
        hi: f64::INFINITY,
        rows: |c| each(TABLE4, |id| ratio(c, (id, "rsq"), (id, "jsonski*"))),
    },
    // jsurfer* at least 3× behind rsq on every row of Experiments A–C.
    // Measured 3.41–3.52 on N2, the lowest row; 6 and up elsewhere.
    Shape {
        name: "jsurfer-behind",
        gated: true,
        lo: 3.0,
        hi: f64::INFINITY,
        rows: |c| {
            let ids = TABLE4.iter().chain(&TABLE6).copied();
            let ids = ids.chain(REWRITINGS.iter().map(|p| p.1));
            each(ids, |id| ratio(c, (id, "rsq"), (id, "jsurfer*")))
        },
    },
    // §5.4: B3 ≈ 3× (2.5–3.5×) slower than B2 for both SIMD engines.
    // Measured 3.07–3.11 (rsq), 3.08–3.19 (jsonski*).
    Shape {
        name: "b3-slower-than-b2",
        gated: true,
        lo: 2.5,
        hi: 3.5,
        rows: |c| {
            each(["rsq", "jsonski*"], |col| {
                ratio(c, ("B2", col), ("B3", col))
            })
        },
    },
    // Table 5: each rewriting faster than its original, B1 aside.
    // Measured 1.53–1.81 on W1, the lowest pair.
    Shape {
        name: "table5-rewriting-wins",
        gated: true,
        lo: 1.0,
        hi: f64::INFINITY,
        rows: |c| {
            REWRITINGS[1..]
                .iter()
                .map(|(o, r)| (format!("{r}/{o}"), ratio(c, (r, "rsq"), (o, "rsq"))))
                .collect()
        },
    },
    // Table 5's B1 pair: B1r faster than B1. Measured 1.01–1.04, a margin
    // inside the spread: unresolved.
    Shape {
        name: "table5-b1r",
        gated: false,
        lo: 1.0,
        hi: f64::INFINITY,
        rows: |c| vec![("B1r/B1".to_owned(), ratio(c, ("B1r", "rsq"), ("B1", "rsq")))],
    },
    // §5.5: jsurfer* indifferent to rewriting, within ±15 %. Measured
    // 0.94–1.04.
    Shape {
        name: "jsurfer-indifferent",
        gated: true,
        lo: 0.85,
        hi: 1.15,
        rows: |c| {
            REWRITINGS
                .iter()
                .map(|(o, r)| {
                    let v = ratio(c, (r, "jsurfer*"), (o, "jsurfer*"));
                    (format!("{r}/{o}"), v)
                })
                .collect()
        },
    },
    // §5.6: A2 at least 5× slower than A1. Measured 6.81–6.89.
    Shape {
        name: "a2-slower-than-a1",
        gated: true,
        lo: 5.0,
        hi: f64::INFINITY,
        rows: |c| vec![("A1/A2".to_owned(), ratio(c, ("A1", "rsq"), ("A2", "rsq")))],
    },
    // §5.6: C1's low selectivity makes it mediocre: at most half the
    // selective A1's rate. Measured 3.12–3.26.
    Shape {
        name: "c1-mediocre",
        gated: true,
        lo: 2.0,
        hi: f64::INFINITY,
        rows: |c| vec![("A1/C1".to_owned(), ratio(c, ("A1", "rsq"), ("C1", "rsq")))],
    },
    // §5.6: the C2 rewriting gains little, under 1.5×. Measured
    // 1.23–1.27.
    Shape {
        name: "c2r-gains-little",
        gated: true,
        lo: 0.0,
        hi: 1.5,
        rows: |c| vec![("C2r/C2".to_owned(), ratio(c, ("C2r", "rsq"), ("C2", "rsq")))],
    },
    // §5.6: the C3 rewriting gains at least 2×. Measured 3.66–3.98.
    Shape {
        name: "c3r-gains-large",
        gated: true,
        lo: 2.0,
        hi: f64::INFINITY,
        rows: |c| vec![("C3r/C3".to_owned(), ratio(c, ("C3r", "rsq"), ("C3", "rsq")))],
    },
    // §5.6: the less specified Tsp is faster than Ts. Measured 1.39–1.46.
    Shape {
        name: "ts-ladder",
        gated: true,
        lo: 1.0,
        hi: f64::INFINITY,
        rows: |c| vec![("Tsp/Ts".to_owned(), ratio(c, ("Tsp", "rsq"), ("Ts", "rsq")))],
    },
    // Table 7: flat within ±15 % over 8× the size, each size against the
    // smallest. Measured 0.94–1.01.
    Shape {
        name: "table7-flat",
        gated: true,
        lo: 0.85,
        hi: 1.15,
        rows: |c| each(["x2", "x4", "x8"], |x| ratio(c, (x, "rsq"), ("x1", "rsq"))),
    },
    // Extension (§4.5): the within-element label seek at least 1.5× on
    // A2, which routes general. Measured 1.91–1.94.
    Shape {
        name: "label-seek-a2",
        gated: true,
        lo: 1.5,
        hi: f64::INFINITY,
        rows: |c| {
            let r = ratio(c, ("A2", "baseline (all on)"), ("A2", "no label seek"));
            vec![("A2 on/off".to_owned(), r)]
        },
    },
    // Extension (DESIGN.md §15): the memmem walker at least 1.2× the
    // general loop on selective descendant-free queries. Measured
    // 1.75–1.81 on C5, the lowest row.
    Shape {
        name: "routing-wins-selective",
        gated: true,
        lo: 1.2,
        hi: f64::INFINITY,
        rows: |c| each(ROUTED, |id| ratio(c, (id, "routed"), (id, "rsq"))),
    },
];

/// Appendix D: node semantics (rsq) and path semantics on the witness
/// query give exactly the paper's two sequences, and the streaming engine
/// counts the node-semantics answer.
#[must_use]
pub fn semantics_exact(node: &[String], path: &[String], streamed: u64) -> Verdict {
    const NODE: [&str; 4] = ["A", "B", "C", "D"];
    const PATH: [&str; 7] = ["A", "B", "B", "C", "C", "D", "D"];
    let same = |got: &[String], want: &[&str]| {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == &format!("\"{w}\""))
    };
    Verdict {
        name: "semantics-exact",
        gated: true,
        holds: same(node, &NODE) && same(path, &PATH) && streamed == NODE.len() as u64,
        detail: format!("node {node:?}, path {path:?}, streamed {streamed}"),
    }
}

/// Compacts a JSON document to a single line by removing all whitespace
/// outside strings — the shape NDJSON corpora need, one document per
/// line.
///
/// The scan is quote-aware (a backslash escapes the next byte inside a
/// string), mirroring the state machine `rsq_batch::split_ndjson` uses
/// on the other side.
///
/// # Examples
///
/// ```
/// let doc = "{\n  \"a b\": [1,\n 2]\n}";
/// assert_eq!(rsq_bench::compact_json(doc.as_bytes()), b"{\"a b\":[1,2]}");
/// ```
#[must_use]
pub fn compact_json(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    let mut in_string = false;
    let mut escaped = false;
    for &b in input {
        if in_string {
            out.push(b);
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
            out.push(b);
        } else if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            out.push(b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_row_reports_count_and_positive_throughput() {
        let order = std::cell::RefCell::new(String::new());
        let run = |label: char| {
            order.borrow_mut().push(label);
            42
        };
        let cells = time_row(
            1_000_000,
            3,
            &mut [("a", Box::new(|| run('a'))), ("b", Box::new(|| run('b')))],
        );
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.count == 42 && c.gbps > 0.0));
        // The warm-ups, then three rounds, each starting one later.
        assert_eq!(order.into_inner(), "ababbaab");
    }

    #[test]
    #[should_panic(expected = "reported 2 matches on rep 0")]
    fn time_row_panics_when_a_rep_changes_the_count() {
        let mut calls = 0;
        time_row(
            1,
            2,
            &mut [(
                "flaky",
                Box::new(|| {
                    calls += 1;
                    calls
                }),
            )],
        );
    }

    #[test]
    #[should_panic(expected = "b reported 7 matches on its warm-up")]
    fn time_row_panics_when_configurations_disagree() {
        time_row(1, 1, &mut [("a", Box::new(|| 6)), ("b", Box::new(|| 7))]);
    }

    /// Cells on which every shape holds.
    fn satisfying() -> Cells {
        let mut c = Cells::new();
        for k in [1, 2, 4, 8, 16, 32, 64, 128] {
            put(&mut c, &k.to_string(), "naive", f64::from(k));
            put(&mut c, &k.to_string(), "lookup", 1.0);
        }
        let ids = TABLE4.iter().chain(&TABLE6).chain(&ROUTED);
        for id in ids.chain(REWRITINGS.iter().map(|p| &p.1)) {
            for (column, v) in [
                ("rsq", 1.0),
                ("routed", 2.0),
                ("jsonski*", 1.0),
                ("jsurfer*", 0.1),
            ] {
                put(&mut c, id, column, v);
            }
        }
        for (_, r) in REWRITINGS {
            put(&mut c, r, "rsq", 4.0);
        }
        for (id, v) in [
            ("B2", 3.0),
            ("A1", 10.0),
            ("C1", 2.0),
            ("C2r", 1.2),
            ("C3r", 3.0),
            ("Tsp", 1.2),
        ] {
            put(&mut c, id, "rsq", v);
        }
        put(&mut c, "B2", "jsonski*", 3.0);
        put(&mut c, "A2", "baseline (all on)", 2.0);
        put(&mut c, "A2", "no label seek", 1.0);
        for x in ["x1", "x2", "x4", "x8"] {
            put(&mut c, x, "rsq", 1.0);
        }
        c
    }

    #[test]
    fn every_shape_holds_on_satisfying_cells() {
        let c = satisfying();
        for shape in &SHAPES {
            let v = shape.eval(&c);
            assert!(v.holds, "{}: {}", v.name, v.detail);
        }
    }

    #[test]
    fn every_shape_fails_just_past_its_bound() {
        // One cell per shape, moved so that one ratio lies 1 % past the
        // shape's own bound (the other cell of that ratio is 1 in
        // `satisfying`, or as noted).
        type Case = (
            &'static str,
            &'static str,
            &'static str,
            fn(f64, f64) -> f64,
        );
        let cases: [Case; 17] = [
            ("table2-lookup-flat", "128", "lookup", |_, hi| hi * 1.01),
            ("table2-naive-grows", "128", "naive", |lo, _| {
                8.0 * lo * 0.99
            }),
            ("table2-lookup-ahead", "8", "lookup", |lo, _| {
                8.0 / (lo * 0.99)
            }),
            ("fig4-no-integer-factor", "N2", "rsq", |lo, _| lo * 0.99),
            ("jsurfer-behind", "N2", "jsurfer*", |lo, _| {
                1.0 / (lo * 0.99)
            }),
            ("b3-slower-than-b2", "B2", "jsonski*", |_, hi| hi * 1.01),
            ("table5-rewriting-wins", "W1r", "rsq", |lo, _| lo * 0.99),
            ("table5-b1r", "B1r", "rsq", |lo, _| lo * 0.99),
            ("jsurfer-indifferent", "Wir", "jsurfer*", |_, hi| {
                0.1 * hi * 1.01
            }),
            ("a2-slower-than-a1", "A1", "rsq", |lo, _| lo * 0.99),
            ("c1-mediocre", "C1", "rsq", |lo, _| 10.0 / (lo * 0.99)),
            ("c2r-gains-little", "C2r", "rsq", |_, hi| hi * 1.01),
            ("c3r-gains-large", "C3r", "rsq", |lo, _| lo * 0.99),
            ("ts-ladder", "Tsp", "rsq", |lo, _| lo * 0.99),
            ("table7-flat", "x8", "rsq", |lo, _| lo * 0.99),
            ("label-seek-a2", "A2", "baseline (all on)", |lo, _| {
                lo * 0.99
            }),
            ("routing-wins-selective", "C5", "routed", |lo, _| lo * 0.99),
        ];
        for shape in &SHAPES {
            let (_, row, column, value) = cases
                .iter()
                .find(|case| case.0 == shape.name)
                .unwrap_or_else(|| panic!("no violating case for {}", shape.name));
            let mut c = satisfying();
            put(&mut c, row, column, value(shape.lo, shape.hi));
            let v = shape.eval(&c);
            assert!(!v.holds, "{} held past its bound: {}", v.name, v.detail);
            // A cell the shape reads, missing, fails it too.
            c.remove(&(row.to_string(), column.to_string()));
            assert!(
                !shape.eval(&c).holds,
                "{} held on a missing cell",
                shape.name
            );
        }
    }

    #[test]
    fn semantics_must_match_both_sequences_exactly() {
        let quoted =
            |names: &[&str]| -> Vec<String> { names.iter().map(|n| format!("\"{n}\"")).collect() };
        let node = quoted(&["A", "B", "C", "D"]);
        let path = quoted(&["A", "B", "B", "C", "C", "D", "D"]);
        assert!(semantics_exact(&node, &path, 4).holds);
        assert!(!semantics_exact(&node, &path[..6], 4).holds);
        assert!(!semantics_exact(&path, &path, 4).holds);
        assert!(!semantics_exact(&node, &quoted(&["A", "B", "B", "C", "C", "D", "E"]), 4).holds);
        assert!(!semantics_exact(&node, &path, 5).holds);
    }

    #[test]
    fn compact_json_preserves_strings() {
        // Whitespace inside strings (including an escaped quote before a
        // space) must survive; everything structural collapses.
        let doc = br#"{ "a \" b" : [ 1 ,
            "x y" ] }"#;
        assert_eq!(compact_json(doc), br#"{"a \" b":[1,"x y"]}"#.to_vec());
        // An escaped backslash closes the escape: the quote after it ends
        // the string, and the newline after that is structural.
        let doc = b"{\"k\":\"v\\\\\"\n}";
        assert_eq!(compact_json(doc), b"{\"k\":\"v\\\\\"}".to_vec());
    }
}
