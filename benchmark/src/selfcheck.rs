//! `selfcheck`: is the instrument steadier than its own bounds?
//!
//! Does what the PR driver does before it trusts the benchmark: two sets
//! of runs of the *same* build, each run on another seed, and for every
//! end-to-end metric of every workload (a) the spread inside a set — the
//! distance between its quartiles as a share of its median — and (b) how
//! much worse the second set's median is than the first's. Either one
//! above the metric's bound fails the check (`setup_s` is held to (b)
//! only). The bounds are three times the worst spread this check has
//! shown on the reference host; the README has the runs behind them.

use crate::child::Env;
use crate::workload::{Kind, WORKLOADS};
use crate::{e2e, stat, Args};

/// The `end_to_end` table of `/BENCHMARK.json` (a unit test keeps the two
/// in step): name, whether higher is better, bound.
pub const END_TO_END: [(&str, bool, f64); 6] = [
    ("setup_s", false, 0.25),
    ("throughput_gbps", true, 0.20),
    ("cpu_ns_per_byte", false, 0.20),
    ("peak_rss_mb", false, 0.10),
    ("latency_p50_ms", false, 0.20),
    ("latency_p90_ms", false, 0.25),
];

/// Runs in a set, each on another seed: as many as the PR driver makes.
const RUNS_PER_SET: usize = 10;

/// The open-loop generator may run this late (p99, µs) …
const GEN_LATE_LIMIT_US: f64 = 2_000.0;
/// … in at most this share of the serve reps; beyond it the generator,
/// not the server, was the bottleneck and the latencies mean nothing.
const GEN_LATE_SHARE: f64 = 2.0 / 7.0;

pub fn run(env: &Env, args: &Args) -> std::io::Result<bool> {
    let mut offending = Vec::new();
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound"
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        // sets[set][metric] = that metric's value in each run of the set.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        let mut late_reps = Vec::new();
        let mut steal_pct = Vec::new();
        for set in &mut sets {
            for run in 0..RUNS_PER_SET {
                let result = e2e::run(env, w, args.seed + run as u64, args.seconds)?;
                for fault in &result.faults {
                    offending.push(format!("FAILED {fault}"));
                }
                for (slot, metric) in result.metrics().iter().enumerate() {
                    set[slot].push(metric.value);
                }
                late_reps.extend(result.gen_late_p99_us);
                steal_pct.push(result.host_steal_pct);
            }
        }
        for (slot, &(name, higher_is_better, bound)) in END_TO_END.iter().enumerate() {
            let [a, b] = [&sets[0][slot], &sets[1][slot]];
            let (median_a, median_b) = (stat::median(a), stat::median(b));
            let (spread_a, spread_b) = (stat::iqr(a) / median_a, stat::iqr(b) / median_b);
            let change = (median_b - median_a) / median_a;
            let worse = if higher_is_better { -change } else { change };
            println!(
                "{:<16} {:<16} {:>12.6} {:>12.6} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%",
                w.name,
                name,
                median_a,
                median_b,
                spread_a * 100.0,
                spread_b * 100.0,
                change * 100.0,
                bound * 100.0
            );
            let spread = spread_a.max(spread_b);
            if name != "setup_s" && spread > bound {
                offending.push(format!(
                    "{} {name}: spread {:.1}% exceeds the {:.0}% bound",
                    w.name,
                    spread * 100.0,
                    bound * 100.0
                ));
            }
            if worse > bound {
                offending.push(format!(
                    "{} {name}: set B is {:.1}% worse than set A (bound {:.0}%)",
                    w.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
        println!(
            "{:<16} host steal over the {} runs: median {:.1} %, most {:.1} %",
            w.name,
            steal_pct.len(),
            stat::median(&steal_pct),
            stat::percentile(&stat::sorted(steal_pct), 100.0)
        );
        if w.kind == Kind::ServeSocket {
            let late = late_reps
                .iter()
                .filter(|&&us| us > GEN_LATE_LIMIT_US)
                .count();
            println!(
                "{:<16} generator p99 lateness above {GEN_LATE_LIMIT_US} us in {late} of {} reps",
                w.name,
                late_reps.len()
            );
            if late as f64 > GEN_LATE_SHARE * late_reps.len() as f64 {
                offending.push(format!(
                    "{}: the load generator, not the server, was the bottleneck in {late} reps",
                    w.name
                ));
            }
        }
    }
    for line in &offending {
        println!("{line}");
    }
    println!(
        "selfcheck: {}",
        if offending.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(offending.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder;
    use rsq_json::{ValueKind, ValueNode};

    fn member<'a>(node: &'a ValueNode, key: &str) -> &'a ValueNode {
        let ValueKind::Object(members) = &node.kind else {
            panic!("not an object");
        };
        &members
            .iter()
            .find(|(k, _)| k.text == key)
            .unwrap_or_else(|| panic!("no `{key}`"))
            .1
    }

    fn items(node: &ValueNode) -> &[ValueNode] {
        let ValueKind::Array(items) = &node.kind else {
            panic!("not an array");
        };
        items
    }

    fn text(node: &ValueNode) -> &str {
        let ValueKind::String(text) = &node.kind else {
            panic!("not a string");
        };
        text
    }

    /// `/BENCHMARK.json` is what the PR driver reads; the tables in the
    /// code are what runs. They must say the same thing.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let root = rsq_json::parse(&std::fs::read(path).unwrap()).unwrap();

        let names: Vec<&str> = items(member(&root, "workloads"))
            .iter()
            .map(|w| text(member(w, "name")))
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

        let declared: Vec<(&str, bool, f64)> = items(member(&root, "end_to_end"))
            .iter()
            .map(|m| {
                let ValueKind::Number(bound) = &member(m, "bound").kind else {
                    panic!("bound is not a number");
                };
                (
                    text(member(m, "name")),
                    text(member(m, "better")) == "higher",
                    bound.as_f64(),
                )
            })
            .collect();
        assert_eq!(declared, END_TO_END);

        let layers: Vec<(&str, &str)> = items(member(&root, "per_layer"))
            .iter()
            .map(|m| (text(member(m, "name")), text(member(m, "unit"))))
            .collect();
        assert_eq!(layers, ladder::METRICS);
    }
}
