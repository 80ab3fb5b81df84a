//! What a run reports: named metrics with units, the op counts, and the
//! result digest; printed for a reader and as the one-line JSON the
//! benchmark contract asks for.

use crate::workloads::Workload;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload that ran.
    pub workload: Workload,
    /// Seed its inputs were made from.
    pub seed: u64,
    /// Ops executed and checked, over every pass of the run.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// FNV-1a digest of one pass's results (diff parent against change
    /// at equal seeds; no committed value to compare with).
    pub digest: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Free-form lines for the reader; never parsed.
    pub notes: Vec<String>,
}

/// JSON number: finite values print with every digit Rust has; a
/// degenerate measurement prints as 0 rather than as invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, seed: u64, attempted: u64, failed: u64) -> Report {
        Report {
            workload,
            seed,
            attempted,
            failed,
            digest: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Lines for a reader: every metric by name with its unit.
    pub fn human(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{w}: seed {} digest {:016x} attempted {} failed {} correct {}",
            self.seed,
            self.digest,
            self.attempted,
            self.failed,
            self.correct()
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{w} {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "{w} # {n}");
        }
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The number that follows `key` in a [`Report::json_line`].
fn number_after<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Read one metric's value back out of a [`Report::json_line`].
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// Read `failed` back out of a [`Report::json_line`].
pub fn failed_in(line: &str) -> Option<u64> {
    number_after(line, "\"failed\": ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new(Workload::BulkTcp, 2017, 80, 0);
        r.digest = 0xabc;
        r.metrics = vec![
            Metric::new("wall_s", 1.203_456_789, "s"),
            Metric::new("allocs_k", 8615.832, "kcount"),
        ];
        r
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = sample().json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 80, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.203456789, \"unit\": \"s\"}, \
             \"allocs_k\": {\"value\": 8615.832, \"unit\": \"kcount\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn values_read_back_from_the_line() {
        let line = sample().json_line();
        assert_eq!(metric_in(&line, "wall_s"), Some(1.203_456_789));
        assert_eq!(metric_in(&line, "allocs_k"), Some(8615.832));
        assert_eq!(metric_in(&line, "setup_s"), None);
        assert_eq!(failed_in(&line), Some(0));
    }

    #[test]
    fn a_failed_op_or_an_empty_run_is_not_correct() {
        let mut r = sample();
        r.failed = 1;
        assert!(!r.correct());
        assert!(r.json_line().starts_with("{\"correct\": false"));
        assert!(!Report::new(Workload::BulkTcp, 1, 0, 0).correct());
    }

    #[test]
    fn human_output_names_every_metric_with_its_unit() {
        let text = sample().human();
        assert!(text.contains("bulk_tcp wall_s"));
        assert!(text.contains(" s\n"));
        assert!(text.contains("kcount"));
        assert!(text.contains("digest 0000000000000abc"));
    }
}
