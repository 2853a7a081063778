//! Small numeric helpers: quantiles over raw samples, medians, peak
//! memory, and the one-line JSON result.

use std::fmt::Write as _;

/// Nearest-rank quantile `num/den` of unsorted samples (0 when empty).
pub fn quantile(samples: &[u64], num: u64, den: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len() as u64;
    let rank = (n * num).div_ceil(den).clamp(1, n);
    v[(rank - 1) as usize]
}

/// Samples strictly above the nearest-rank `num/den` quantile position:
/// how many observations a reported percentile rests on.
pub fn beyond(n: usize, num: u64, den: u64) -> u64 {
    let n = n as u64;
    n - (n * num).div_ceil(den).min(n)
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced: correctness, op counts, and every
/// metric it measured. `problems` lists each failed correctness check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and the
    /// metrics named in `keep` (in that order; absent ones read 0).
    pub fn json_line(&self, keep: &[(&str, &'static str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in keep.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 1, 2), 50);
        assert_eq!(quantile(&v, 99, 100), 99);
        assert_eq!(beyond(1000, 99, 100), 10);
        assert_eq!(beyond(999, 99, 100), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
