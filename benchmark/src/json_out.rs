//! The few lines of JSON the harness writes (the workspace has no serde).

use std::fmt::Write as _;

/// One reported metric: name and unit as `/BENCHMARK.json` declares them.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// `text` as a JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number with all its digits; JSON has no NaN or
/// infinity, so a measurement that produced one reads as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// The result object the PR driver reads from the last line of stdout.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(m.name),
            number(m.value),
            string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsq_json::ValueKind;

    #[test]
    fn result_line_parses_back() {
        let line = result_line(
            12,
            0,
            &[
                Metric::new("throughput_gbps", 0.951_234_567, "GB/s"),
                Metric::new("weird \"name\"\n", f64::NAN, "x\\y"),
            ],
        );
        let root = rsq_json::parse(line.as_bytes()).expect("valid JSON");
        let ValueKind::Object(members) = &root.kind else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.text.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"correct\": true"));
        assert!(line.contains("0.951234567"));
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(string("q\"\\"), "\"q\\\"\\\\\"");
    }
}
