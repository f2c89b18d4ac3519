//! Sample statistics and the metric table every run prints.
//!
//! Timings follow one rule: report the median, plus p90 only when at
//! least ten samples lie beyond it (so p90 needs 100 samples), and always
//! state the sample count.

use std::collections::BTreeMap;

/// Median of `samples` (mean of the middle two for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The nearest-rank p90, reported only when at least ten samples lie
/// above its rank.
pub fn p90(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let rank = (s.len() * 9).div_ceil(10);
    (rank >= 1 && s.len() - rank >= 10).then(|| s[rank - 1])
}

/// A timing summary under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// p90, when the sample count supports it.
    pub p90: Option<f64>,
}

/// Summarize `samples`, or `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        p90: p90(samples),
    })
}

impl Summary {
    /// One human-readable line: `name p50 … unit[, p90 …] (n=…)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let p90 = match self.p90 {
            Some(v) => format!(", p90 {v:.4} {unit}"),
            None => String::new(),
        };
        format!("{name}: p50 {:.4} {unit}{p90} (n={})", self.p50, self.n)
    }
}

/// Metric values of one run: name -> (value, samples behind it).
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Record `name` as `value`, derived from `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, (value, n));
    }

    /// Record the median of `samples` as `name`; no samples, no value.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        if let Some(m) = median(samples) {
            self.set(name, m, samples.len());
        }
    }

    /// Take over every value of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// The recorded value and sample count of `name`.
    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values.get(name).copied()
    }
}

/// One printed metric line, always naming the unit and the sample count.
pub fn metric_line(name: &str, value: f64, unit: &str, n: usize) -> String {
    format!("{name:<28} {value:>14.6} {unit:<6} (n={n})")
}

/// `num / den`, or 0 when `den` is 0 (a ratio over no attempts).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None, "99 samples leave 9 beyond p90");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&hundred), Some(90.0), "100 samples leave 10 beyond p90");
        let s = summarize(&ninety_nine).expect("samples");
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, None, "the median is reported alone");
    }

    #[test]
    fn lines_print_the_sample_count_and_unit() {
        let few = summarize(&[1.0, 2.0, 3.0]).expect("samples");
        assert_eq!(few.line("hit", "ms"), "hit: p50 2.0000 ms (n=3)");
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let line = summarize(&many).expect("samples").line("hit", "ms");
        assert!(
            line.contains("p90 90.0000 ms") && line.ends_with("(n=100)"),
            "{line}"
        );
        let m = metric_line("pass_s", 1.5, "s", 7);
        assert!(
            m.starts_with("pass_s") && m.contains(" s ") && m.ends_with("(n=7)"),
            "{m}"
        );
    }

    #[test]
    fn set_median_skips_empty_samples() {
        let mut m = Metrics::default();
        m.set_median("a", &[]);
        assert_eq!(m.get("a"), None);
        m.set_median("a", &[2.0, 4.0]);
        assert_eq!(m.get("a"), Some((3.0, 2)));
    }
}
