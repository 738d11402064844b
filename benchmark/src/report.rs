//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the catalog for its run kind,
//! so the end-to-end and per-layer names here are exactly the ones
//! `BENCHMARK.json` declares (a test keeps the two in step). A layer a
//! workload does not exercise, or cannot see from outside the program,
//! reports 0.

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "1/s"),
    ("rt_sessions", "sessions"),
    ("step_ms.p50", "ms"),
    ("step_ms.tail", "ms"),
    ("setup_s", "s"),
    ("open_rtt_ms.p50", "ms"),
    ("open_rtt_ms.tail", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sdr.observe_s", "s"),
    ("core.device_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.music_s", "s"),
    ("core.music.corr_share", "fraction"),
    ("num.eig_share", "fraction"),
    ("num.eig.calls", "count"),
    ("num.eig.sweeps", "count"),
    ("num.eig.rotations", "count"),
    ("track.column_s", "s"),
    ("track.columns", "count"),
    ("track.finish_s", "s"),
    ("track.count_accuracy", "fraction"),
    ("track.detection_rate", "fraction"),
    ("image.setup_s", "s"),
    ("image.window_s", "s"),
    ("image.track2d_s", "s"),
    ("image.windows", "count"),
    ("image.detection_rate", "fraction"),
    ("image.loc_error_m", "m"),
    ("num.focus.calls", "count"),
    ("serve.lifecycle_s", "s"),
    ("serve.open_s", "s"),
    ("serve.drain_s", "s"),
    ("serve.scrape_s", "s"),
    ("serve.wire.decode_s", "s"),
    ("serve.wire.bytes_in", "bytes"),
    ("serve.queue_depth.max", "count"),
    ("serve.shard.busy_frac", "fraction"),
    ("serve.shard.batches", "count"),
    ("serve.shard.batch_ms.p50", "ms"),
    ("serve.shard.batch_ms.p99", "ms"),
    ("serve.shed", "count"),
    ("obs.overhead_frac", "fraction"),
    ("bench.wall_s", "s"),
    ("bench.unattributed_s", "s"),
];

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Items attempted (sessions, or OPENs on `serve_wire`).
    pub attempted: u64,
    /// Items that failed: shed or errored OPENs and sessions failing an
    /// output check.
    pub failed: u64,
    /// Run-level checks that failed (reference equivalence, quality
    /// bands), each with a reason.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable facts printed before the result line: input
    /// properties, tail percentiles, host pinning.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a human-readable fact.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed run-level check.
    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    /// Fills every catalog metric this run did not set with 0 (a layer
    /// the workload does not exercise).
    pub fn fill_unset(&mut self, catalog: &[(&'static str, &str)]) {
        for &(name, _) in catalog {
            if !self.metrics.iter().any(|(n, _)| *n == name) {
                self.metrics.push((name, 0.0));
            }
        }
    }

    /// `true` when every item and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with exactly the catalog's metrics, in catalog order.
    ///
    /// # Panics
    /// Panics if a catalog metric is missing, set twice, or not in the
    /// catalog — a benchmark bug, not a program failure.
    pub fn json_line(&self, catalog: &[(&str, &str)]) -> String {
        for (name, _) in &self.metrics {
            assert!(
                catalog.iter().any(|(c, _)| c == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut correct = self.correct();
        let mut body = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let hits: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(hits.len(), 1, "metric {name} set {} times", hits.len());
            let mut v = hits[0];
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit of the `f64` (Rust's shortest
/// round-trip form), always with a decimal point or exponent.
fn fmt_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_names(section: &str, json: &str) -> Vec<(String, String)> {
        // A minimal scan of BENCHMARK.json: the `"name"`/`"unit"` pairs
        // inside the named array.
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let rest = &json[start..];
        let end = rest.find(']').expect("array end");
        let mut out = Vec::new();
        for obj in rest[..end].split('{').skip(1) {
            let field = |key: &str| {
                let k = obj.find(&format!("\"{key}\"")).expect("key");
                let v = &obj[k + key.len() + 2..];
                let q0 = v.find('"').expect("open quote") + 1;
                let q1 = q0 + v[q0..].find('"').expect("close quote");
                v[q0..q1].to_owned()
            };
            out.push((field("name"), field("unit")));
        }
        out
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let want = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(catalog_names("end_to_end", &json), want(END_TO_END));
        assert_eq!(catalog_names("per_layer", &json), want(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_once_with_full_digits() {
        let mut r = RunResult {
            attempted: 3,
            ..Default::default()
        };
        r.set("setup_s", 0.1 + 0.2);
        r.set("samples_per_s", 4000.0);
        r.fill_unset(END_TO_END);
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}"));
        assert!(line.contains("\"samples_per_s\": {\"value\": 4000.0, \"unit\": \"1/s\"}"));
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1);
        }
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut r = RunResult {
            attempted: 5,
            failed: 1,
            ..Default::default()
        };
        r.fill_unset(END_TO_END);
        assert!(r.json_line(END_TO_END).contains("\"correct\": false"));

        let mut r = RunResult {
            attempted: 5,
            ..Default::default()
        };
        r.set("setup_s", f64::NAN);
        r.fill_unset(END_TO_END);
        assert!(r.json_line(END_TO_END).contains("\"correct\": false"));

        let mut r = RunResult {
            attempted: 5,
            ..Default::default()
        };
        r.problem("reference mismatch");
        assert!(!r.correct());
    }
}
