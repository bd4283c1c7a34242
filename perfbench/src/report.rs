//! Collects a run's metrics and checks and prints the result line.

use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "fit_s",
    "infer_qps",
    "test_accuracy",
    "p50_ms",
    "sat_qps",
    "success_rate",
    "peak_rss_mb",
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: [&str; 35] = [
    "fit.encode_s",
    "fit.learn_s",
    "fit.top2_s",
    "fit.select_s",
    "fit.regen_s",
    "infer.encode_s",
    "infer.score_s",
    "fit.learn_mistakes",
    "fit.top2_partial",
    "fit.top2_incorrect",
    "fit.regen_events",
    "fit.regen_dims",
    "fit.regen_budget_used",
    "fit.layer_coverage",
    "fit.trace_overhead",
    "server.submit_us.p50",
    "server.submit_us.p99",
    "server.batch_mean",
    "server.sat_batch_mean",
    "server.flushes",
    "server.shed",
    "server.deadline_shed",
    "server.peak_queue_depth",
    "server.worker_restarts",
    "gen.late_ms.p99",
    "gen.late_ms.max",
    "deploy.encode_us.b1",
    "deploy.encode_us.b32",
    "deploy.score_us.b1",
    "deploy.score_us.b32",
    "deploy.batch_us.b1",
    "deploy.batch_us.b32",
    "server.latency_ms.p50",
    "server.latency_ms.p99",
    "server.residual_us.p50",
];

/// Metrics, correctness checks and operation counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    failed_checks: Vec<String>,
    /// Operations whose output was checked.
    attempted: u64,
    /// Checked operations that failed or answered wrongly.
    failed: u64,
}

impl Report {
    /// Records metric `name` (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check; a failed one makes the run fail.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    /// Counts `attempted` checked operations of which `failed` went wrong.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every check passed, no operation failed, and exactly the
    /// `expected` metrics were recorded, each finite.
    pub fn correct(&self, expected: &[&str]) -> bool {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let mut want = expected.to_vec();
        want.sort_unstable();
        self.failed_checks.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && names == want
            && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self, correct: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.metric("setup_s", 0.5, "s");
        report.operations(10, 0);
        assert!(report.correct(&["setup_s"]));
        assert!(!report.correct(&["setup_s", "fit_s"]));
        assert_eq!(
            report.json(true),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        report.check("something", false);
        assert!(!report.correct(&["setup_s"]));
    }
}
