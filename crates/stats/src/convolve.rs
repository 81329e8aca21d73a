//! Medians of sums of empirical sample distributions.
//!
//! Composing path medians is where the paper departs from simple arithmetic
//! (§4.1, §6.1): "To do so requires that we convolve the samples of the
//! edges being considered and extract the median of the resulting
//! distribution." The distribution of the sum of two independent path RTTs
//! is the convolution of their individual distributions; the median of a
//! synthetic two-hop path is the median of that convolution.
//!
//! [`BinCounts`] discretizes a sample onto a uniform grid and keeps the
//! histogram as integer prefix counts. The median of a sum then needs no
//! convolution at all: the count of binned pairwise sums in bins `0..=k` is
//! `cum(k) = Σ_i c_a[i] · C_b[min(k − i, last)]`, exact in `u64`, and the
//! median bin is the first `k` with `2 · cum(k) ≥ len_a · len_b`, found by
//! bisection on `k`. Each evaluation of `cum` costs `O(min(bins_a,
//! bins_b))`, so a median costs `O(min(bins) · log(bins_a + bins_b))`
//! instead of the `O(bins_a · bins_b)` of materializing the convolution,
//! and no tolerance enters the comparison.

/// A sample's histogram over a uniform grid of bins `origin + i * width`
/// (bin centers at `origin + (i + ½) * width`), as prefix counts.
#[derive(Debug, Clone, PartialEq)]
pub struct BinCounts {
    origin: f64,
    width: f64,
    /// `cum[i]`: the samples in bins `0..=i`. The last entry is the sample
    /// count, which fits a `u32` because a sample's length does.
    cum: Vec<u32>,
}

impl BinCounts {
    /// Discretizes raw samples onto a grid of the given bin `width`.
    ///
    /// Returns `None` for an empty sample, a non-positive width or a
    /// non-finite minimum.
    pub fn from_samples(xs: &[f64], width: f64) -> Option<BinCounts> {
        if xs.is_empty() || width <= 0.0 {
            return None;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        if !lo.is_finite() {
            return None;
        }
        // Snap the origin to a multiple of `width` so histograms built
        // with the same width share a common grid and sum exactly.
        let origin = (lo / width).floor() * width;
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let bins = ((hi - origin) / width).floor() as usize + 1;
        let mut cum = vec![0u32; bins];
        for &x in xs {
            let i = (((x - origin) / width).floor() as usize).min(bins - 1);
            cum[i] += 1;
        }
        for i in 1..bins {
            cum[i] += cum[i - 1];
        }
        Some(BinCounts { origin, width, cum })
    }

    /// Number of grid cells from the lowest occupied one to the highest.
    pub fn bins(&self) -> usize {
        self.cum.len()
    }

    /// Number of samples.
    pub fn samples(&self) -> u32 {
        self.cum[self.cum.len() - 1]
    }

    /// Samples in bin `i`.
    fn count(&self, i: usize) -> u32 {
        self.cum[i] - if i == 0 { 0 } else { self.cum[i - 1] }
    }

    /// Binned pairwise sums `x + y` (`x` from `self`, `y` from `other`) in
    /// bins `0..=k` of the sum's grid: `Σ_i c_self[i] · C_other[min(k − i,
    /// last)]`. Every `i ≤ k − last` meets all of `other`, so only a window
    /// of at most `min(bins)` terms is summed one by one.
    fn pairs_at_or_below(&self, other: &BinCounts, k: usize) -> u64 {
        let last_b = other.bins() - 1;
        let full = u64::from(other.samples());
        let hi = k.min(self.bins() - 1);
        let (below, lo) = match k.checked_sub(last_b) {
            Some(j) if j > hi => return u64::from(self.samples()) * full,
            Some(j) => (u64::from(self.cum[j]) * full, j + 1),
            None => (0, 0),
        };
        below
            + (lo..=hi)
                .map(|i| u64::from(self.count(i)) * u64::from(other.cum[k - i]))
                .sum::<u64>()
    }

    /// The median of `X + Y` for independent `X ~ self`, `Y ~ other` on the
    /// sum's grid (bin-center convention): the center of the first bin `k`
    /// holding at least half of the `len_self · len_other` binned pairwise
    /// sums at or below it. Also returns how many prefix counts `cum(k)`
    /// the bisection evaluated.
    ///
    /// # Panics
    /// Panics if the bin widths differ — composition only makes sense on a
    /// shared grid.
    pub fn median_of_sum(&self, other: &BinCounts) -> (f64, u32) {
        assert!(
            (self.width - other.width).abs() < 1e-12,
            "median_of_sum requires identical bin widths ({} vs {})",
            self.width,
            other.width,
        );
        let total = u64::from(self.samples()) * u64::from(other.samples());
        // `cum(last) = total`, so the answer lies in `[0, last]`.
        let (mut lo, mut hi) = (0, self.bins() + other.bins() - 2);
        let mut steps = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            if 2 * self.pairs_at_or_below(other, mid) >= total {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let origin = self.origin + other.origin;
        (origin + (lo as f64 + 0.5) * self.width, steps)
    }
}

#[cfg(test)]
#[path = "../tests/support/float_convolution.rs"]
mod float_convolution;

#[cfg(test)]
mod tests {
    use super::float_convolution::SampleDist;
    use super::*;

    fn median_of_sum(xs: &[f64], ys: &[f64], width: f64) -> f64 {
        let a = BinCounts::from_samples(xs, width).unwrap();
        let b = BinCounts::from_samples(ys, width).unwrap();
        a.median_of_sum(&b).0
    }

    #[test]
    fn the_grid_spanning_every_valid_rtt_is_built_without_overflow() {
        // The extremes a dataset may hold (`detour_measure::MAX_RTT_MS`
        // is 600 000 ms) on Figure 6's 1 ms grid: 600 001 bins, not an
        // overflowed count.
        let d = BinCounts::from_samples(&[f64::MIN_POSITIVE, 600_000.0], 1.0).unwrap();
        assert_eq!(d.bins(), 600_001);
        assert_eq!(d.samples(), 2);
        let top = BinCounts::from_samples(&[600_000.0], 1.0).unwrap();
        assert_eq!(d.median_of_sum(&top).0, 600_000.5);
    }

    #[test]
    fn prefix_counts_count_every_sample() {
        let d = BinCounts::from_samples(&[1.0, 2.0, 3.0, 10.0, 10.2], 0.5).unwrap();
        assert_eq!(d.bins(), 19);
        assert_eq!(d.samples(), 5);
        assert_eq!((0..d.bins()).map(|i| d.count(i)).sum::<u32>(), 5);
        assert_eq!(d.count(18), 2);
    }

    #[test]
    fn empty_or_bad_width_is_none() {
        assert!(BinCounts::from_samples(&[], 1.0).is_none());
        assert!(BinCounts::from_samples(&[1.0], 0.0).is_none());
        assert!(BinCounts::from_samples(&[1.0], -1.0).is_none());
    }

    #[test]
    fn summing_points_adds_values() {
        assert_eq!(median_of_sum(&[3.0], &[4.0], 0.5), 7.25);
    }

    #[test]
    #[should_panic(expected = "identical bin widths")]
    fn mismatched_widths_panic() {
        let a = BinCounts::from_samples(&[1.0], 0.5).unwrap();
        let b = BinCounts::from_samples(&[1.0], 0.25).unwrap();
        let _ = a.median_of_sum(&b);
    }

    #[test]
    fn median_of_sum_is_the_float_convolutions() {
        let xs = [10.0, 12.0, 15.0, 20.0, 30.0];
        let ys = [1.0, 2.0, 40.0];
        for width in [0.5, 1.0, 3.0] {
            let (a, b) = (
                SampleDist::from_samples(&xs, width).unwrap(),
                SampleDist::from_samples(&ys, width).unwrap(),
            );
            assert_eq!(
                median_of_sum(&xs, &ys, width).to_bits(),
                a.convolve(&b).median().to_bits(),
                "width {width}"
            );
        }
    }

    #[test]
    fn an_exact_half_takes_the_lower_bin() {
        // Two sums, one in the bin of 2 and one in the bin of 12: the
        // count reaches exactly half at the lower one.
        assert_eq!(median_of_sum(&[1.0, 11.0], &[1.0], 1.0), 2.5);
        assert_eq!(median_of_sum(&[1.0], &[1.0, 11.0], 1.0), 2.5);
    }

    #[test]
    fn bisection_takes_logarithmically_many_steps() {
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let a = BinCounts::from_samples(&xs, 1.0).unwrap();
        let (median, steps) = a.median_of_sum(&a);
        assert_eq!(median, 999.5);
        assert!(steps <= 11, "{steps} > ⌈log2(1999)⌉ evaluations of cum(k)");
    }
}
