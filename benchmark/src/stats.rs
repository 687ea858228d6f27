//! Sample bookkeeping: named sample vectors, quantiles, geometric means
//! and the named-metric table every run prints.

use std::collections::BTreeMap;
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile (`0 ≤ q ≤ 1`) of `samples`; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The lower quartile of repeated timings of the *same* work: what that
/// work costs on a quiet machine. The host this runs on is shared, and its
/// interference is one-sided (it only ever adds time) and arrives in
/// bursts that last seconds — on measured series of identical passes the
/// median moved 45 % between runs, the lower quartile 15 %. Use it only
/// where every sample is the same amount of work; a distribution of
/// different requests keeps its median.
pub fn quiet(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

/// Geometric mean of the positive entries; 0 when there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let pos: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

/// Named sample vectors collected during a run (milliseconds unless the
/// key says otherwise).
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &str, v: f64) {
        match self.0.get_mut(key) {
            Some(samples) => samples.push(v),
            None => drop(self.0.insert(key.to_string(), vec![v])),
        }
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn p50(&self, key: &str) -> f64 {
        median(self.get(key))
    }

    pub fn quiet(&self, key: &str) -> f64 {
        quiet(self.get(key))
    }

    pub fn n(&self, key: &str) -> usize {
        self.get(key).len()
    }
}

/// One reported metric: value, unit and the number of samples behind it.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// The metrics of one run, by name (sorted, so output order is stable).
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.insert(name.to_string(), Metric { value, unit, n });
    }

    /// `samples[key]`'s median scaled by `scale` (e.g. 1e3 for ms → µs).
    pub fn p50(&mut self, name: &str, s: &Samples, key: &str, scale: f64, unit: &'static str) {
        self.set(name, s.p50(key) * scale, unit, s.n(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_skips_non_positive() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
