//! What one run reports: metrics with units, the attempted/failed
//! counts, and the human-readable lines printed before the result.

use crate::stats::Summary;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, losses and wrong
    /// outputs.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Lines for the run record and per-check details.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds `<name>.p50` and `<name>.p99` from a summary; the tail is
    /// the highest percentile the sample supports (see
    /// [`crate::stats::tail`]) and a note records which one it was.
    pub fn put_summary(&mut self, name: &str, s: Summary, unit: &'static str) {
        self.put(format!("{name}.p50"), s.p50, unit);
        self.put(format!("{name}.p99"), s.tail, unit);
        self.note(format!(
            "{name}: n={} p50={:.3} p{}={:.3} {unit}",
            s.n, s.p50, s.tail_p, s.tail
        ));
    }

    /// Adds a line to the run record.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output check; a failed check adds `weight` failures.
    pub fn check(&mut self, what: &str, ok: bool, weight: u64) {
        if !ok {
            self.failed += weight.max(1);
        }
        self.note(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    /// Moves every metric and note of `other` into `self` and adds its
    /// counts.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// The value of a metric already recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Formats a number for the result line with every digit the value has.
/// JSON has no infinity: a failed request's infinite latency prints as
/// `1e300` (the run is then reported as failed anyway).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}
