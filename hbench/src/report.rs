//! Order statistics, the run's result record and its JSON rendering.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `xs` by nearest rank; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[rank]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of strictly positive values; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// What one benchmark run reports: the contract's last stdout line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: inputs reconstructed, jobs run or requests
    /// sent, plus the output checks.
    pub attempted: u64,
    /// Attempted operations that failed, were refused or shed, or
    /// returned wrong output.
    pub failed: u64,
    /// False when any output was wrong or the run is invalid.
    pub correct: bool,
    /// Why `correct` is false, one line each (printed to stderr).
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation, recording a failure when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records an operation (already counted as attempted) that
    /// returned wrong output.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.refuse(why);
    }

    /// Records an operation (already counted as attempted) that was
    /// refused, shed or lost: a failure, but not a wrong output.
    pub fn refuse(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Marks the run invalid without counting an operation.
    pub fn invalidate(&mut self, why: String) {
        self.correct = false;
        self.problems.push(why);
    }

    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                json_number(*value),
                escape(unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number as JSON (non-finite values become `null`, which the
/// result's reader rejects rather than misreads).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The process's high-water resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_geomean() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 51.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::new();
        o.check(true, String::new);
        o.metric("batch_s", 1.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"batch_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
