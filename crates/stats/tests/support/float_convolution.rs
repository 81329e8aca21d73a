//! The textbook median of a sum, the test oracle for
//! `detour_stats::convolve::BinCounts::median_of_sum`: a histogram of
//! probability masses, convolved bin by bin in floats, its median read off
//! the running mass with a `1e-12` tolerance. detour-stats' unit tests and
//! its `proptests` suite each include this file by `#[path]`, so it names
//! nothing outside `std`.

/// A probability mass function over a uniform grid of bins
/// `origin + i * width`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleDist {
    origin: f64,
    width: f64,
    mass: Vec<f64>,
}

impl SampleDist {
    /// Discretizes raw samples onto a grid of the given bin `width`, on
    /// the grid `BinCounts::from_samples` uses.
    pub fn from_samples(xs: &[f64], width: f64) -> Option<SampleDist> {
        if xs.is_empty() || width <= 0.0 {
            return None;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        if !lo.is_finite() {
            return None;
        }
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

    /// The distribution of `X + Y` for independent `X ~ self`,
    /// `Y ~ other`, on a shared grid.
    pub fn convolve(&self, other: &SampleDist) -> SampleDist {
        assert!((self.width - other.width).abs() < 1e-12);
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

    /// The median (bin-center convention): the first bin whose running
    /// mass reaches half the total, less `1e-12`.
    pub fn median(&self) -> f64 {
        let target = 0.5 * self.mass.iter().sum::<f64>();
        let mut acc = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            acc += m;
            if acc >= target - 1e-12 {
                return self.origin + (i as f64 + 0.5) * self.width;
            }
        }
        self.origin + (self.mass.len() as f64 - 0.5) * self.width
    }
}
