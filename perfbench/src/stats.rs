//! Exact order statistics over raw samples.
//!
//! Percentiles are nearest-rank order statistics of the recorded values,
//! never histogram bucket floors. A tail percentile is only reported when
//! at least [`TAIL_SUPPORT`] samples lie beyond it.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const TAIL_SUPPORT: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    pub fn from_ns(values: impl IntoIterator<Item = u64>) -> Self {
        Dist::new(values.into_iter().map(|ns| ns as f64 / 1e3).collect())
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, q: f64) -> usize {
        ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// Nearest-rank `q`-quantile (`0.0` on an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Whether at least [`TAIL_SUPPORT`] samples lie beyond the `q`-quantile.
    pub fn supports(&self, q: f64) -> bool {
        !self.sorted.is_empty() && self.sorted.len() - self.rank(q) >= TAIL_SUPPORT
    }

    /// The `q`-quantile when the sample supports it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        self.supports(q).then(|| self.quantile(q))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// `p50 <v> unit, p99 <v> unit (n=<count>)`, with the p99 replaced by
    /// the note `p99 unsupported` when fewer than ten samples lie beyond it.
    pub fn describe(&self, unit: &str) -> String {
        let p99 = match self.tail(0.99) {
            Some(v) => format!("p99 {v:.1} {unit}"),
            None => "p99 unsupported".to_string(),
        };
        format!("p50 {:.1} {unit}, {p99} (n={})", self.median(), self.len())
    }
}

/// Median of a small set of repeated measurements.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.median(), 50.0);
        assert_eq!(d.quantile(0.99), 99.0);
        assert_eq!(d.quantile(1.0), 100.0);
        assert_eq!(d.quantile(0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let d = Dist::new((0..999).map(f64::from).collect());
        assert!(d.tail(0.99).is_none());
        let d = Dist::new((0..1000).map(f64::from).collect());
        assert_eq!(d.tail(0.99), Some(989.0));
        assert!(d.tail(0.9).is_some());
        assert!(Dist::default().tail(0.5).is_none());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
