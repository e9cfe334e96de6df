//! The one result record a run prints, and the metric vocabulary.
//!
//! Every name here is also listed in `BENCHMARK.json`; a test keeps the
//! two in step. An untraced run prints exactly [`END_TO_END`], a traced
//! run exactly [`PER_LAYER`].

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("cpu_ms_per_trial", "ms"),
    ("tuned_tps", "tuples/s"),
];

/// Per-layer metrics (traced runs), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bayesopt.propose_ms_p50", "ms"),
    ("bayesopt.propose_ms_p99", "ms"),
    ("bayesopt.busy_share", "ratio"),
    ("bayesopt.setup_share", "ratio"),
    ("bayesopt.refits", "count"),
    ("bayesopt.pool_mean", "count"),
    ("bayesopt.path.design", "count"),
    ("bayesopt.path.incremental", "count"),
    ("bayesopt.path.replay", "count"),
    ("bayesopt.path.fresh", "count"),
    ("bayesopt.path.uniform", "count"),
    ("bayesopt.path.linear", "count"),
    ("bayesopt.path.other", "count"),
    ("stormsim.evaluate_us_p50", "us"),
    ("stormsim.evaluate_us_p99", "us"),
    ("stormsim.evaluations", "count"),
    ("stormsim.busy_share", "ratio"),
    ("runner.journal.records", "count"),
    ("runner.journal.bytes_per_trial", "bytes"),
    ("runner.journal.overhead_s", "s"),
    ("runner.journal.busy_share", "ratio"),
    ("runner.journal.hash_share", "ratio"),
    ("core.unattributed_share", "ratio"),
    ("topogen.generate_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("serve.sessions_per_s", "sessions/s"),
    ("serve.cpu_ms_per_session", "ms"),
    ("serve.session_ms_p50", "ms"),
    ("serve.session_ms_p99", "ms"),
    ("serve.poll_ms_p50", "ms"),
    ("serve.poll_ms_p99", "ms"),
    ("serve.proto.submit_ms_p50", "ms"),
    ("serve.proto.submit_ms_p99", "ms"),
    ("serve.dispatch.queue_ms_p50", "ms"),
    ("serve.dispatch.queue_ms_p99", "ms"),
    ("serve.dispatch.run_ms_p50", "ms"),
    ("serve.store.files_per_session", "count"),
    ("serve.store.bytes_per_session", "bytes"),
    ("serve.gen.late_ms_max", "ms"),
];

/// Serve-layer metrics: a tuning workload never reaches the daemon, so a
/// traced tuning run reports them as 0.
pub fn serve_layer() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| name.starts_with("serve."))
}

/// Accumulates one run's outcome and prints it.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    meta: Vec<(&'static str, String)>,
}

impl Report {
    /// Count `n` more attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation or failed output check.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }

    /// Record a metric; the name must be in the vocabulary.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record a metadata entry (printed on its own line before the result).
    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// The metadata line and the result line. A metric missing from the
    /// mode's vocabulary, or a vocabulary entry never recorded, is a
    /// benchmark bug and fails the run.
    pub fn render(mut self, traced: bool) -> (String, String) {
        let vocabulary = if traced { PER_LAYER } else { END_TO_END };
        let mut body = Vec::new();
        for (name, unit) in vocabulary {
            match self.metrics.iter().rev().find(|(n, _)| n == name) {
                Some((_, value)) if value.is_finite() => {
                    body.push(format!(
                        "{}:{{\"value\":{value},\"unit\":{}}}",
                        quote(name),
                        quote(unit)
                    ));
                }
                Some(_) => self.fail(&format!("metric {name} is not finite")),
                None => self.fail(&format!("metric {name} was not measured")),
            }
        }
        for (name, _) in &self.metrics {
            if !vocabulary.iter().any(|(n, _)| n == name) {
                self.failed += 1;
                eprintln!("perfbench: FAILED metric {name} is not in this mode's vocabulary");
            }
        }
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let meta_line = format!("{{\"meta\":{{{}}}}}", meta.join(","));
        let result = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        (meta_line, result)
    }
}

/// JSON string literal.
fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    /// Names listed in one section of BENCHMARK.json, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let doc: serde_json::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let serde_json::Value::Object(top) = doc else {
            panic!("BENCHMARK.json is an object")
        };
        let Some((_, serde_json::Value::Array(items))) = top.iter().find(|(k, _)| k == section)
        else {
            panic!("BENCHMARK.json lists {section}")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(fields) = item else {
                    panic!("{section} entries are objects")
                };
                let text = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                    Some((_, serde_json::Value::Str(s))) => s.clone(),
                    _ => panic!("{section} entry lacks {key}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(name_ok(name), "bad metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        for (section, vocabulary) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = listed(section);
            let printed: Vec<(String, String)> = vocabulary
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(printed, declared, "{section} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn render_reports_missing_and_stray_metrics_as_failures() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.metric(name, 1.5);
        }
        r.attempt(3);
        let (_, line) = r.render(false);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"),
            "{line}"
        );
        assert!(
            line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"),
            "{line}"
        );

        let mut r = Report::default();
        r.metric("setup_s", 1.0);
        r.metric("bayesopt.refits", 2.0);
        let (_, line) = r.render(false);
        assert!(line.starts_with("{\"correct\":false"), "{line}");
    }
}
