//! What a run reports: named metrics with units, the failure tally, the
//! run record, and the one-line JSON result the benchmark ends with.

use crate::stats::Tally;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed across every correctness gate.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: timing summaries with sample counts, gate
    /// outcomes, ladder steps.
    pub lines: Vec<String>,
    /// Run-record fields (key, JSON value).
    pub record: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Books a gate: `attempted` operations of which `failed` failed.
    pub fn gate(&mut self, what: &str, attempted: u64, failed: u64) {
        self.tally.add(attempted, failed);
        let verdict = if failed == 0 { "ok" } else { "FAILED" };
        self.lines.push(format!(
            "gate {what}: {failed} of {attempted} failed — {verdict}"
        ));
    }

    /// Adds a run-record field whose value is already JSON.
    pub fn record(&mut self, key: &str, json_value: String) {
        self.record.push((key.to_owned(), json_value));
    }

    /// The value of a metric already added.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The final result line.
    #[must_use]
    pub fn result_json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.name == *n))
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The run record as one JSON object.
    #[must_use]
    pub fn record_json(&self) -> String {
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become `null`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.8127, "s");
        r.metric("extra", 1.0, "count");
        r.gate("oracle", 10, 0);
        let line = r.result_json(&["setup_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        r.gate("bytes", 5, 1);
        assert!(r.result_json(&[]).starts_with("{\"correct\": false"));
    }
}
