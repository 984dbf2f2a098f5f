//! What one run of one workload produced, and the one-line JSON result the
//! driver reads.

use crate::spec::Metric;
use std::collections::BTreeMap;
use std::time::Duration;

/// How to run a workload.
#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    pub trace: bool,
    pub scale: crate::spec::Scale,
}

/// Errors a generator thread collects; the first few texts are enough.
pub fn push_error(errors: &mut Vec<String>, text: String) {
    if errors.len() < 8 {
        errors.push(text);
    }
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations scheduled in the measured window.
    pub attempted: u64,
    /// Of those: errored, refused, or never completed by the end of the
    /// drain.
    pub failed: u64,
    /// Output-check violations and the texts of operation errors. Any
    /// entry makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines for the human reader: sample counts, injected delays.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn error(&mut self, text: String) {
        // Keep the first few texts; the count is what fails the run.
        if self.errors.len() < 16 {
            self.errors.push(text);
        } else if self.errors.len() == 16 {
            self.errors.push("… more errors suppressed".into());
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// `setup_s`: start + preload + warm-up, of the set-up the run was
    /// measured on.
    pub fn setup(&mut self, preload_s: f64, warmup_s: f64) {
        self.set("setup_s", preload_s + warmup_s);
        self.note(format!(
            "setup_s = start + preload {preload_s:.4} s + warm-up {warmup_s:.4} s"
        ));
    }

    /// Say how late the open loop ran. Latency is counted from the due
    /// time, so lateness is inside the op latency; above a tenth of it the
    /// generator, not the program, is a visible part of the number.
    pub fn lateness(&mut self, late: crate::stats::Samples) {
        let late = late.sorted();
        let (Some(p50), Some(p99)) = (late.median_us(), late.quantile_us(0.99)) else {
            return;
        };
        self.set("loadgen.late_p50_us", p50);
        self.set("loadgen.late_p99_us", p99);
        self.note(format!(
            "generator lateness p50={p50} us p99={p99} us (n={})",
            late.len()
        ));
        if let Some(op) = self.metrics.get("e2e.op_p50_us") {
            if p50 > 0.10 * op {
                self.note(format!(
                    "WARNING lateness p50 is {:.0} % of the op p50, above the 10 % that keeps the \
                     generator out of the picture (README, known issues)",
                    p50 / op * 100.0
                ));
            }
        }
    }

    /// Record a timing: its median and chosen percentile as metrics (in
    /// units of `us_per_unit` microseconds), its sample count as a note. A
    /// percentile with fewer than ten samples beyond it is refused, which
    /// fails the run.
    pub fn timing(
        &mut self,
        samples: crate::stats::Samples,
        median: &'static str,
        (tail, q): (&'static str, f64),
        us_per_unit: f64,
    ) {
        let sorted = samples.sorted();
        let n = sorted.len();
        let mut shown = Vec::new();
        for (name, value) in [(median, sorted.median_us()), (tail, sorted.quantile_us(q))] {
            match value {
                Some(v) => {
                    self.set(name, v / us_per_unit);
                    shown.push(format!("{name}={:.3}", v / us_per_unit));
                }
                None => self.error(format!(
                    "{name}: {n} samples, fewer than ten of them beyond it: refused"
                )),
            }
        }
        self.note(format!("{} (n={n})", shown.join(" ")));
    }

    /// The result line: exactly the declared metrics, with their units.
    /// The driver wants every declared name in it, so the ones this
    /// workload has no value for (`not_applicable`) are carried as 0. Any
    /// other declared metric the run did not produce makes the run
    /// incorrect, and so does a value for one that should have none.
    pub fn result_line(&mut self, declared: &[&Metric], not_applicable: &[&str]) -> String {
        let mut fields = Vec::new();
        for m in declared {
            let value = match self.metrics.get(m.name) {
                None if not_applicable.contains(&m.name) => 0.0,
                Some(v) if v.is_finite() && !not_applicable.contains(&m.name) => *v,
                Some(v) => {
                    self.error(format!(
                        "metric {} is {v}, expected a number or none",
                        m.name
                    ));
                    continue;
                }
                None => {
                    self.error(format!("metric {} was not produced", m.name));
                    continue;
                }
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(value),
                m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
