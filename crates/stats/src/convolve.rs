//! Convolution of empirical sample distributions.
//!
//! Composing path medians is where the paper departs from simple arithmetic
//! (§4.1, §6.1): "To do so requires that we convolve the samples of the
//! edges being considered and extract the median of the resulting
//! distribution." [`SampleDist`] is that machinery — a discretized
//! distribution over a uniform grid supporting exact (discretized)
//! convolution and quantile extraction.
//!
//! The distribution of the sum of two independent path RTTs is the
//! convolution of their individual distributions; the median of a synthetic
//! two-hop path is the median of that convolution.

/// A probability mass function over a uniform grid of bin centers
/// `origin + i * width`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleDist {
    origin: f64,
    width: f64,
    mass: Vec<f64>,
}

impl SampleDist {
    /// Discretizes raw samples onto a grid of the given bin `width`.
    ///
    /// Returns `None` for an empty sample or non-positive width.
    pub fn from_samples(xs: &[f64], width: f64) -> Option<SampleDist> {
        if xs.is_empty() || width <= 0.0 {
            return None;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        if !lo.is_finite() {
            return None;
        }
        // Snap the origin to a multiple of `width` so distributions built
        // with the same width share a common grid and convolve exactly.
        let origin = (lo / width).floor() * width;
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let bins = ((hi - origin) / width).floor() as usize + 1;
        let mut mass = vec![0.0; bins];
        let per = 1.0 / xs.len() as f64;
        for &x in xs {
            let i = (((x - origin) / width).floor() as usize).min(bins - 1);
            mass[i] += per;
        }
        Some(SampleDist {
            origin,
            width,
            mass,
        })
    }

    /// A distribution holding all mass at one point (the identity of
    /// convolution up to grid alignment).
    pub fn point(value: f64, width: f64) -> SampleDist {
        assert!(width > 0.0);
        let origin = (value / width).floor() * width;
        SampleDist {
            origin,
            width,
            mass: vec![1.0],
        }
    }

    /// Bin width of the grid.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of occupied grid cells.
    pub fn bins(&self) -> usize {
        self.mass.len()
    }

    /// Total probability mass (should always be ~1).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Convolves two distributions: the distribution of `X + Y` for
    /// independent `X ~ self`, `Y ~ other`.
    ///
    /// # Panics
    /// Panics if the bin widths differ — composition only makes sense on a
    /// shared grid.
    pub fn convolve(&self, other: &SampleDist) -> SampleDist {
        assert!(
            (self.width - other.width).abs() < 1e-12,
            "convolve requires identical bin widths ({} vs {})",
            self.width,
            other.width,
        );
        let mut mass = vec![0.0; self.mass.len() + other.mass.len() - 1];
        for (i, &a) in self.mass.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.mass.iter().enumerate() {
                mass[i + j] += a * b;
            }
        }
        SampleDist {
            origin: self.origin + other.origin,
            width: self.width,
            mass,
        }
    }

    /// The `q`-quantile of the discretized distribution (bin-center
    /// convention).
    pub fn quantile(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.total_mass();
        let mut acc = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            acc += m;
            if acc >= target - 1e-12 {
                return self.origin + (i as f64 + 0.5) * self.width;
            }
        }
        self.origin + (self.mass.len() as f64 - 0.5) * self.width
    }

    /// The median of the distribution.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The mean of the discretized distribution.
    pub fn mean(&self) -> f64 {
        let total = self.total_mass();
        if total == 0.0 {
            return 0.0;
        }
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &m)| m * (self.origin + (i as f64 + 0.5) * self.width))
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_spanning_every_valid_rtt_is_built_without_overflow() {
        // The extremes a dataset may hold (`detour_measure::MAX_RTT_MS`
        // is 600 000 ms) on Figure 6's 1 ms grid: 600 001 bins, not an
        // overflowed count.
        let d = SampleDist::from_samples(&[f64::MIN_POSITIVE, 600_000.0], 1.0).unwrap();
        assert_eq!(d.bins(), 600_001);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.quantile(1.0), 600_000.5);
    }

    #[test]
    fn from_samples_conserves_mass() {
        let d = SampleDist::from_samples(&[1.0, 2.0, 3.0, 10.0], 0.5).unwrap();
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_or_bad_width_is_none() {
        assert!(SampleDist::from_samples(&[], 1.0).is_none());
        assert!(SampleDist::from_samples(&[1.0], 0.0).is_none());
        assert!(SampleDist::from_samples(&[1.0], -1.0).is_none());
    }

    #[test]
    fn convolution_conserves_mass() {
        let a = SampleDist::from_samples(&[1.0, 2.0, 3.0], 0.25).unwrap();
        let b = SampleDist::from_samples(&[5.0, 7.0], 0.25).unwrap();
        let c = a.convolve(&b);
        assert!((c.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_mean_is_sum_of_means() {
        // "The sum of the means is equal to the mean of the sums" — the very
        // additive property the paper cites for preferring means (§4.1).
        let a = SampleDist::from_samples(&[10.0, 20.0, 30.0, 40.0], 0.1).unwrap();
        let b = SampleDist::from_samples(&[5.0, 15.0], 0.1).unwrap();
        let c = a.convolve(&b);
        assert!((c.mean() - (a.mean() + b.mean())).abs() < 0.2);
    }

    #[test]
    fn convolving_points_adds_values() {
        let a = SampleDist::point(3.0, 0.5);
        let b = SampleDist::point(4.0, 0.5);
        let c = a.convolve(&b);
        assert!((c.median() - 7.0).abs() <= 1.0, "median = {}", c.median());
    }

    #[test]
    #[should_panic(expected = "identical bin widths")]
    fn mismatched_widths_panic() {
        let a = SampleDist::point(1.0, 0.5);
        let b = SampleDist::point(1.0, 0.25);
        let _ = a.convolve(&b);
    }

    #[test]
    fn median_of_convolution_vs_exhaustive_sums() {
        // Exhaustively enumerate all pairwise sums and compare medians.
        let xs = [10.0, 12.0, 15.0, 20.0, 30.0];
        let ys = [1.0, 2.0, 40.0];
        let a = SampleDist::from_samples(&xs, 0.5).unwrap();
        let b = SampleDist::from_samples(&ys, 0.5).unwrap();
        let conv_median = a.convolve(&b).median();
        let mut sums: Vec<f64> = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| x + y))
            .collect();
        sums.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let exact = crate::quantile::quantile_sorted(&sums, 0.5);
        assert!(
            (conv_median - exact).abs() <= 1.5,
            "{conv_median} vs {exact}"
        );
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let d = SampleDist::from_samples(&[1.0, 5.0, 9.0, 2.0, 7.0, 7.0], 0.5).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = d.quantile(i as f64 / 10.0);
            assert!(q >= prev);
            prev = q;
        }
    }
}
