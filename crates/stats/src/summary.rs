//! Streaming sample summaries.
//!
//! The measurement campaigns in the paper run for days to weeks and produce
//! tens of thousands of samples per dataset (Table 1). Each path is
//! characterised by the long-term time average of its samples; we accumulate
//! those averages with Welford's online algorithm so a summary never needs
//! the raw samples resident (though the dataset keeps them anyway for the
//! median and percentile analyses).

/// Numerically stable online accumulator for mean and variance
/// (Welford's algorithm), plus min/max tracking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; `None` until at least one observation arrives.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (divides by `n - 1`); `None` until two
    /// observations arrive.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Smallest observation seen.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation seen.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Snapshots the accumulator into an immutable [`Summary`].
    ///
    /// Returns `None` if no observations were pushed.
    pub fn summary(&self) -> Option<Summary> {
        let mean = self.mean()?;
        Some(Summary {
            n: self.n,
            mean,
            variance: self.variance().unwrap_or(0.0),
            min: self.min,
            max: self.max,
        })
    }
}

/// Immutable summary of a sample: count, mean, variance, extrema.
///
/// This is the per-path "characteristic statistic" record the paper's
/// graph edges carry (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 when `n < 2`).
    pub variance: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Builds a summary from a slice of observations.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_slice(xs: &[f64]) -> Option<Summary> {
        let mut acc = OnlineStats::new();
        for &x in xs {
            acc.push(x);
        }
        acc.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_yields_nothing() {
        let acc = OnlineStats::new();
        assert_eq!(acc.count(), 0);
        assert!(acc.mean().is_none());
        assert!(acc.variance().is_none());
        assert!(acc.summary().is_none());
    }

    #[test]
    fn single_observation() {
        let mut acc = OnlineStats::new();
        acc.push(42.0);
        assert_eq!(acc.mean(), Some(42.0));
        assert!(acc.variance().is_none());
        assert_eq!(acc.min(), Some(42.0));
        assert_eq!(acc.max(), Some(42.0));
    }

    #[test]
    fn mean_and_variance_match_textbook() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_slice(&xs).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation stress: large offset, tiny spread.
        let base = 1e9;
        let xs: Vec<f64> = (0..1000).map(|i| base + (i % 7) as f64).collect();
        let s = Summary::from_slice(&xs).unwrap();
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean - naive_mean).abs() < 1e-3);
        assert!(s.variance > 0.0 && s.variance < 10.0);
    }
}
