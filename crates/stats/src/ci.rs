//! Confidence intervals on means and on differences of (composed) means.
//!
//! Paper §6.2: "we compute the confidence interval for a single path as
//! `ū − v̄ ± t[.975; ν] · s`, where ū and v̄ represent the sample means for
//! the path, `t[.975; ν]` is the (1 − α/2)-quantile of the t variate with ν
//! degrees of freedom, and s is the standard deviation of the mean
//! difference."
//!
//! A synthetic alternate path's mean is a *sum* of constituent edge means;
//! under the paper's independence assumption the variance of that sum is the
//! sum of the per-edge variances of the mean, and degrees of freedom follow
//! Welch–Satterthwaite. [`MeanEstimate`] carries exactly that triple
//! `(mean, var-of-mean, df)` through composition and differencing.

use crate::summary::Summary;
use crate::tdist::t_quantile;

/// A symmetric confidence interval `center ± half_width` at `level`
/// (e.g. 0.95).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Midpoint of the interval (the point estimate).
    pub center: f64,
    /// Half-width of the interval (non-negative).
    pub half_width: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    pub fn lo(&self) -> f64 {
        self.center - self.half_width
    }

    /// Upper endpoint.
    pub fn hi(&self) -> f64 {
        self.center + self.half_width
    }

    /// True when the whole interval is strictly above zero.
    pub fn above_zero(&self) -> bool {
        self.lo() > 0.0
    }

    /// True when the whole interval is strictly below zero.
    pub fn below_zero(&self) -> bool {
        self.hi() < 0.0
    }
}

/// A mean with its sampling uncertainty: point estimate, variance *of the
/// mean* (i.e. `s² / n`), and effective degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanEstimate {
    /// Point estimate of the mean.
    pub mean: f64,
    /// Variance of the mean, `s² / n`.
    pub var_of_mean: f64,
    /// Effective degrees of freedom (`n − 1` for a raw sample).
    pub df: f64,
}

impl MeanEstimate {
    /// Derives the estimate from a raw-sample summary.
    pub fn from_summary(s: &Summary) -> MeanEstimate {
        let n = s.n.max(1) as f64;
        MeanEstimate {
            mean: s.mean,
            var_of_mean: s.variance / n,
            df: (n - 1.0).max(1.0),
        }
    }

    /// Composes estimates along a synthetic path: mean of the sum, variance
    /// of the sum of (independent) means, Welch–Satterthwaite degrees of
    /// freedom.
    ///
    /// Returns `None` for an empty slice.
    pub fn sum(parts: &[MeanEstimate]) -> Option<MeanEstimate> {
        if parts.is_empty() {
            return None;
        }
        let mean = parts.iter().map(|p| p.mean).sum();
        let var: f64 = parts.iter().map(|p| p.var_of_mean).sum();
        let df = satterthwaite(parts);
        Some(MeanEstimate {
            mean,
            var_of_mean: var,
            df,
        })
    }

    /// The difference `self − other` as a new estimate (Welch).
    pub fn diff(&self, other: &MeanEstimate) -> MeanEstimate {
        let var = self.var_of_mean + other.var_of_mean;
        let df = satterthwaite(&[*self, *other]);
        MeanEstimate {
            mean: self.mean - other.mean,
            var_of_mean: var,
            df,
        }
    }

    /// Confidence interval `mean ± t[(1+level)/2; df] · sqrt(var_of_mean)`.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        assert!((0.0..1.0).contains(&level) && level > 0.0);
        let half_width = if self.var_of_mean > 0.0 {
            t_quantile(0.5 + level / 2.0, self.df) * self.var_of_mean.sqrt()
        } else {
            0.0
        };
        ConfidenceInterval {
            center: self.mean,
            half_width,
            level,
        }
    }
}

/// Welch–Satterthwaite effective degrees of freedom for a sum of
/// independent mean estimates.
fn satterthwaite(parts: &[MeanEstimate]) -> f64 {
    let total: f64 = parts.iter().map(|p| p.var_of_mean).sum();
    if total <= 0.0 {
        // Degenerate (zero-variance) estimates: fall back to the smallest df.
        return parts
            .iter()
            .map(|p| p.df)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
    }
    let denom: f64 = parts
        .iter()
        .filter(|p| p.var_of_mean > 0.0)
        .map(|p| p.var_of_mean * p.var_of_mean / p.df.max(1.0))
        .sum();
    if denom <= 0.0 {
        return 1.0;
    }
    (total * total / denom).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(xs: &[f64]) -> Summary {
        Summary::from_slice(xs).unwrap()
    }

    #[test]
    fn single_mean_ci_matches_hand_computation() {
        // x = [10, 12, 14]: mean 12, s² = 4, s²/n = 4/3, df = 2,
        // t[.975;2] = 4.303 → half width = 4.303 * sqrt(4/3) ≈ 4.968.
        let est = MeanEstimate::from_summary(&summary(&[10.0, 12.0, 14.0]));
        let ci = est.ci(0.95);
        assert!((ci.center - 12.0).abs() < 1e-12);
        assert!(
            (ci.half_width - 4.968).abs() < 1e-2,
            "hw = {}",
            ci.half_width
        );
    }

    #[test]
    fn zero_variance_gives_zero_width() {
        let est = MeanEstimate::from_summary(&summary(&[5.0, 5.0, 5.0]));
        let ci = est.ci(0.95);
        assert_eq!(ci.half_width, 0.0);
        assert!(ci.above_zero());
    }

    #[test]
    fn composition_adds_means_and_variances() {
        let a = MeanEstimate {
            mean: 10.0,
            var_of_mean: 1.0,
            df: 9.0,
        };
        let b = MeanEstimate {
            mean: 20.0,
            var_of_mean: 2.0,
            df: 19.0,
        };
        let s = MeanEstimate::sum(&[a, b]).unwrap();
        assert_eq!(s.mean, 30.0);
        assert_eq!(s.var_of_mean, 3.0);
        assert!(s.df >= 9.0);
    }

    #[test]
    fn sum_of_empty_is_none() {
        assert!(MeanEstimate::sum(&[]).is_none());
    }

    #[test]
    fn welch_df_between_min_and_sum() {
        let a = MeanEstimate {
            mean: 0.0,
            var_of_mean: 1.0,
            df: 5.0,
        };
        let b = MeanEstimate {
            mean: 0.0,
            var_of_mean: 1.0,
            df: 5.0,
        };
        let d = a.diff(&b);
        assert!(d.df >= 5.0 && d.df <= 10.0, "df = {}", d.df);
    }

    #[test]
    fn diff_ci_classification() {
        let big = MeanEstimate {
            mean: 100.0,
            var_of_mean: 1.0,
            df: 30.0,
        };
        let small = MeanEstimate {
            mean: 10.0,
            var_of_mean: 1.0,
            df: 30.0,
        };
        assert!(big.diff(&small).ci(0.95).above_zero());
        assert!(small.diff(&big).ci(0.95).below_zero());
        let close = MeanEstimate {
            mean: 10.5,
            var_of_mean: 1.0,
            df: 30.0,
        };
        let ci = small.diff(&close).ci(0.95);
        assert!(!ci.above_zero() && !ci.below_zero());
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let est = MeanEstimate {
            mean: 1.0,
            var_of_mean: 4.0,
            df: 10.0,
        };
        assert!(est.ci(0.99).half_width > est.ci(0.95).half_width);
        assert!(est.ci(0.95).half_width > est.ci(0.50).half_width);
    }

    #[test]
    fn endpoints_are_consistent() {
        let ci = ConfidenceInterval {
            center: 3.0,
            half_width: 2.0,
            level: 0.95,
        };
        assert_eq!(ci.lo(), 1.0);
        assert_eq!(ci.hi(), 5.0);
        assert!(ci.above_zero());
    }
}
