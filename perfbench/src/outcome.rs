//! One run's result: operation counts, output checks and named metrics,
//! rendered as the single JSON line the benchmark contract asks for.

use std::collections::BTreeMap;

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: decisions for the serve workloads, sweep
    /// points for `fig4`.
    pub attempted: u64,
    /// Operations that errored, went unanswered or failed a per-operation
    /// output check.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Records a metric, replacing any earlier value of the same name.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// True once `name` has a value.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.contains_key(name)
    }

    /// Takes over a probe's checks, and its metrics where this outcome
    /// has none of that name.
    pub fn absorb_missing(&mut self, probe: Outcome) {
        for (name, value) in probe.metrics {
            self.metrics.entry(name).or_insert(value);
        }
        self.checks.extend(probe.checks);
    }

    /// Records an output check. A failed check fails the whole run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Folds the checks into the counts and prints the human summary to
    /// standard error. Returns whether the run is correct. A run that
    /// fails an aggregate check has no trustworthy operation, so every
    /// attempted operation counts as failed.
    pub fn finish(&mut self) -> bool {
        for (name, (value, _)) in &self.metrics {
            if !value.is_finite() {
                self.checks
                    .push((format!("finite.{name}"), false, format!("{name} = {value}")));
            }
        }
        self.attempted = self.attempted.max(1);
        let mut all_ok = true;
        for (name, ok, detail) in &self.checks {
            eprintln!(
                "check {:<28} {}  {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
            all_ok &= ok;
        }
        if !all_ok {
            self.failed = self.attempted;
        }
        for (name, (value, unit)) in &self.metrics {
            eprintln!("metric {name:<36} {value:>16.6} {unit}");
        }
        all_ok && self.failed == 0
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let correct = self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                // Non-finite values were turned into a failed check by
                // `finish`; JSON has no spelling for them.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
