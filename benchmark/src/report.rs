//! Metric collection and the result line.

use std::fmt::Write as _;

/// Metrics of one run, plus the operation and failure counts.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (GEMM calls, requests, Lloyd GEMMs).
    pub attempted: u64,
    /// Operations that failed: an error, a refusal, a timeout, a
    /// missing reply, or an output differing from the oracle.
    pub failed: u64,
}

impl Report {
    /// Record (or overwrite) a metric and print it with its unit.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<32} {value:>14.4} {unit}");
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Record a time measured over a window in which the hypervisor
    /// took `steal` of the CPU time the guest wanted, as the time the
    /// guest was given: `raw × (1 − steal)`. The raw value is printed.
    pub fn time_unstolen(&mut self, name: &str, raw: f64, unit: &'static str, steal: f64) {
        self.set(name, raw * (1.0 - steal), unit);
        println!("{:<32} {:>14} wall: {raw:.4} {unit}", "", "");
    }

    /// As `time_unstolen`, for a rate: `raw / (1 − steal)`.
    pub fn rate_unstolen(&mut self, name: &str, raw: f64, unit: &'static str, steal: f64) {
        self.set(name, raw / (1.0 - steal), unit);
        println!("{:<32} {:>14} wall: {raw:.4} {unit}", "", "");
    }

    /// Record a ratio and print the base it was taken against.
    pub fn ratio(&mut self, name: &str, value: f64, unit: &'static str, base: &str) {
        self.set(name, value, unit);
        println!("{:<32} {:>14} base: {base}", "", "");
    }

    /// A recorded metric's value; a name with no recorded value is a
    /// benchmark bug.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1
    }

    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly the metrics named in `names`, each with
    /// its unit. A name with no recorded value, a value that is not
    /// finite, or a run that attempted nothing is a broken measurement,
    /// so no result is printed for it.
    pub fn render(&self, names: &[(&str, &str)]) -> String {
        assert!(self.attempted > 0, "no operation was attempted");
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let (_, value, got) = self
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(got, unit, "unit of {name}");
            assert!(value.is_finite(), "metric {name} is {value}");
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}
