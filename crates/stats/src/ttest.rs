//! t-test classification of path-pair comparisons.
//!
//! Tables 2 and 3 of the paper bucket every host pair by whether "the
//! difference in the mean … between the best alternate path and the default
//! path is greater than zero, less than zero, or crosses zero at the 95 %
//! confidence level. This is typically described as a t-test \[Jai91\]."
//! Table 3 adds a fourth bucket, "zero", for pairs with no measured losses
//! on either path.

use crate::ci::{ConfidenceInterval, MeanEstimate};

/// Outcome of comparing the default path against its best alternate at a
/// given confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TTestVerdict {
    /// The alternate is significantly better (difference bounded away from
    /// zero in the favorable direction).
    Better,
    /// The confidence interval on the difference crosses zero.
    Indeterminate,
    /// The alternate is significantly worse.
    Worse,
    /// Both estimates are exactly zero with no variance (Table 3's "zero"
    /// row: no measured losses on either the default or the alternate path).
    Zero,
}

/// Classifies `default − alternate` for a **lower-is-better** metric
/// (round-trip time, loss rate): a positive significant difference means the
/// alternate wins. `ci` is the caller's interval on that difference,
/// `default.diff(alternate).ci(level)` — callers that report the interval
/// too compute it once and pass it here.
pub fn welch_classify(
    default: &MeanEstimate,
    alternate: &MeanEstimate,
    ci: &ConfidenceInterval,
) -> TTestVerdict {
    if default.mean == 0.0
        && alternate.mean == 0.0
        && default.var_of_mean == 0.0
        && alternate.var_of_mean == 0.0
    {
        return TTestVerdict::Zero;
    }
    if ci.above_zero() {
        TTestVerdict::Better
    } else if ci.below_zero() {
        TTestVerdict::Worse
    } else {
        TTestVerdict::Indeterminate
    }
}

/// Aggregated verdict counts over a dataset — one row of Table 2/3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Pairs where the alternate is significantly better.
    pub better: usize,
    /// Pairs where the interval crosses zero.
    pub indeterminate: usize,
    /// Pairs where the alternate is significantly worse.
    pub worse: usize,
    /// Pairs where both paths measure exactly zero.
    pub zero: usize,
}

impl VerdictCounts {
    /// Tallies one verdict.
    pub fn record(&mut self, v: TTestVerdict) {
        match v {
            TTestVerdict::Better => self.better += 1,
            TTestVerdict::Indeterminate => self.indeterminate += 1,
            TTestVerdict::Worse => self.worse += 1,
            TTestVerdict::Zero => self.zero += 1,
        }
    }

    /// Total pairs classified.
    pub fn total(&self) -> usize {
        self.better + self.indeterminate + self.worse + self.zero
    }

    /// Percentages `(better, indeterminate, worse, zero)` of the total;
    /// all zeros when empty.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            100.0 * self.better as f64 / t,
            100.0 * self.indeterminate as f64 / t,
            100.0 * self.worse as f64 / t,
            100.0 * self.zero as f64 / t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(mean: f64, var_of_mean: f64, df: f64) -> MeanEstimate {
        MeanEstimate {
            mean,
            var_of_mean,
            df,
        }
    }

    /// Classifies at `level` with the interval built the way callers do.
    fn classify(default: &MeanEstimate, alternate: &MeanEstimate, level: f64) -> TTestVerdict {
        welch_classify(default, alternate, &default.diff(alternate).ci(level))
    }

    #[test]
    fn clear_separation_is_better() {
        // Default RTT 100 ms, alternate 50 ms, tight variances.
        let v = classify(&est(100.0, 1.0, 30.0), &est(50.0, 1.0, 30.0), 0.95);
        assert_eq!(v, TTestVerdict::Better);
    }

    #[test]
    fn reversed_separation_is_worse() {
        let v = classify(&est(50.0, 1.0, 30.0), &est(100.0, 1.0, 30.0), 0.95);
        assert_eq!(v, TTestVerdict::Worse);
    }

    #[test]
    fn overlapping_intervals_are_indeterminate() {
        let v = classify(&est(100.0, 400.0, 5.0), &est(95.0, 400.0, 5.0), 0.95);
        assert_eq!(v, TTestVerdict::Indeterminate);
    }

    #[test]
    fn zero_loss_on_both_paths_is_zero() {
        let v = classify(&est(0.0, 0.0, 1.0), &est(0.0, 0.0, 1.0), 0.95);
        assert_eq!(v, TTestVerdict::Zero);
    }

    #[test]
    fn zero_means_with_variance_are_not_zero_verdict() {
        let v = classify(&est(0.0, 1.0, 10.0), &est(0.0, 1.0, 10.0), 0.95);
        assert_eq!(v, TTestVerdict::Indeterminate);
    }

    #[test]
    fn higher_confidence_is_more_conservative() {
        // A borderline case: significant at 60 %, not at 99.9 %.
        let d = est(10.0, 16.0, 10.0);
        let a = est(5.0, 16.0, 10.0);
        assert_eq!(classify(&d, &a, 0.60), TTestVerdict::Better);
        assert_eq!(classify(&d, &a, 0.999), TTestVerdict::Indeterminate);
    }

    #[test]
    fn counts_tally_and_percentages() {
        let mut c = VerdictCounts::default();
        c.record(TTestVerdict::Better);
        c.record(TTestVerdict::Better);
        c.record(TTestVerdict::Worse);
        c.record(TTestVerdict::Zero);
        assert_eq!(c.total(), 4);
        let (b, i, w, z) = c.percentages();
        assert_eq!((b, i, w, z), (50.0, 0.0, 25.0, 25.0));
    }

    #[test]
    fn empty_counts_percentages_are_zero() {
        assert_eq!(VerdictCounts::default().percentages(), (0.0, 0.0, 0.0, 0.0));
    }
}
