//! Sample summaries and the run report.

use std::fmt::Write as _;
use std::time::Duration;

/// A percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of timings.
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Samples {
        v.sort_by(f64::total_cmp);
        Samples(v)
    }

    pub fn from_durations(v: impl IntoIterator<Item = Duration>) -> Samples {
        Samples::new(v.into_iter().map(|d| d.as_secs_f64()).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile and the count of samples strictly after
    /// its rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<(f64, usize)> {
        if self.0.is_empty() {
            return None;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        Some((self.0[rank - 1], self.0.len() - rank))
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5).map_or(0.0, |(v, _)| v)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// What one run prints: text lines, then one JSON object.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A human-readable line (printed before the JSON).
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// A named value printed with its unit; not part of the JSON.
    pub fn value(&mut self, name: &str, value: f64, unit: &str, extra: &str) {
        self.lines
            .push(format!("{name} = {} {unit}{extra}", fmt_num(value)));
    }

    /// A percentile of `samples` scaled by `scale` into `unit`, printed
    /// with its sample count, or flagged unsupported when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &Samples, q: f64, scale: f64, unit: &str) {
        match samples.quantile(q) {
            Some((v, beyond)) if beyond >= MIN_BEYOND || q <= 0.5 => self.lines.push(format!(
                "{name} = {} {unit} (n={}, {beyond} beyond)",
                fmt_num(v * scale),
                samples.len()
            )),
            _ => self.lines.push(format!(
                "{name} = unsupported (n={}, fewer than {MIN_BEYOND} samples beyond)",
                samples.len()
            )),
        }
    }

    /// A metric of the final JSON object (also printed as a line).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines
            .push(format!("{name} = {} {unit}", fmt_num(value)));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Print every line, then the result object as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for l in &self.lines {
            println!("{l}");
        }
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            attempted.max(1)
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_count_what_lies_beyond() {
        let s = Samples::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some((500.0, 500)));
        assert_eq!(s.quantile(0.99), Some((990.0, 10)));
        assert_eq!(Samples::new(Vec::new()).quantile(0.5), None);
    }

    #[test]
    fn thin_tails_are_flagged_unsupported() {
        let mut r = Report::default();
        r.percentile(
            "p99",
            &Samples::new((0..100).map(f64::from).collect()),
            0.99,
            1.0,
            "s",
        );
        assert!(r.lines[0].contains("unsupported"), "{}", r.lines[0]);
    }
}
