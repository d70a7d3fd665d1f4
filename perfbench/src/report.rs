//! What one workload run measured and checked, and how it is printed:
//! human-readable lines first, then the one-line JSON result.

use std::collections::BTreeMap;

/// Metrics and output checks gathered by one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics: the numbers a user of the system sees.
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics from the traced run.
    pub layers: BTreeMap<String, (f64, &'static str)>,
    /// Operations the load generator attempted (pushes, queries,
    /// rotations, analyze runs) and output checks made.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name} = {value:.6} {unit}");
        self.e2e.insert(name, (value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name} = {value:.6} {unit}");
        self.layers.insert(name.to_string(), (value, unit));
    }

    /// Records one output check; a failed check counts as a failed
    /// operation and makes the run exit non-zero.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        self.attempted += 1;
        println!("check {name}: {} ({detail})", if ok { "ok" } else { "FAILED" });
        self.failed += u64::from(!ok);
    }

    /// Counts load-generator operations and how many of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The final result line: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics = Vec::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(value),
                quote(unit)
            ));
        };
        if traced {
            for (name, (value, unit)) in &self.layers {
                push(name, *value, unit);
            }
        } else {
            for (name, (value, unit)) in &self.e2e {
                push(name, *value, unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// JSON has no NaN or infinity; a metric that failed to measure prints as
/// `null`, which no consumer mistakes for a measurement.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
