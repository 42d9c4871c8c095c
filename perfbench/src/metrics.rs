//! Named metrics and the result line the benchmark ends with.

use green_bench::json::quote;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
}

/// An ordered set of metrics; setting a name twice keeps the last value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Adds every metric of `other`.
    pub fn extend(&mut self, other: &Metrics) {
        for m in &other.0 {
            self.set(&m.name, m.value, m.unit);
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    json_number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits (non-finite values print as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The benchmark's last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Milliseconds in `ns` nanoseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Seconds in `ns` nanoseconds.
pub fn s(ns: u64) -> f64 {
    ns as f64 / 1e9
}
