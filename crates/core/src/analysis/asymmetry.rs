//! Routing asymmetry.
//!
//! Paper §2, citing \[Pax96\]: "a large and increasing fraction of Internet
//! paths follow different routes from source to destination than from
//! destination to source" — and the paper's own methodology treats every
//! pair directionally for exactly this reason. This analysis measures the
//! phenomenon in a dataset: for each host pair measured in both
//! directions, does the reverse direction's (modal) AS path retrace the
//! forward one?

use crate::context::AnalysisContext;
use detour_measure::HostId;

/// Asymmetry census over a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsymmetryReport {
    /// Unordered pairs with both directions measured.
    pub pairs_bidirectional: usize,
    /// Pairs whose reverse AS path is the exact reversal of the forward.
    pub symmetric: usize,
    /// Pairs that visit a different AS sequence in each direction.
    pub asymmetric: usize,
    /// The asymmetric pairs, for drill-down.
    pub asymmetric_pairs: Vec<(HostId, HostId)>,
}

impl AsymmetryReport {
    /// Fraction of bidirectional pairs that are asymmetric.
    pub fn asymmetric_fraction(&self) -> f64 {
        if self.pairs_bidirectional == 0 {
            0.0
        } else {
            self.asymmetric as f64 / self.pairs_bidirectional as f64
        }
    }
}

/// Computes the asymmetry census from the table's modal AS paths.
pub fn analyze(cx: &AnalysisContext) -> AsymmetryReport {
    let t = cx.table();
    let hosts = t.hosts();
    let mut report = AsymmetryReport::default();
    // Each unordered pair once, at its upper-triangle cell, and only when
    // both directions were measured.
    for (i, j) in t.measured_pairs() {
        if i > j || !t.measured(j, i) {
            continue;
        }
        let (fwd, rev) = (cx.modal_as_path(i, j), cx.modal_as_path(j, i));
        if fwd.is_empty() || rev.is_empty() {
            continue;
        }
        let key = if hosts[i] < hosts[j] {
            (hosts[i], hosts[j])
        } else {
            (hosts[j], hosts[i])
        };
        report.pairs_bidirectional += 1;
        if fwd.iter().eq(rev.iter().rev()) {
            report.symmetric += 1;
        } else {
            report.asymmetric += 1;
            report.asymmetric_pairs.push(key);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_measure::Dataset;

    /// Three probes per `(src, dst, AS path)` edge, each edge its own
    /// pool entry.
    fn dataset(paths: &[(u32, u32, Vec<u16>)]) -> Dataset {
        let max_host = paths.iter().map(|&(s, d, _)| s.max(d)).max().unwrap() + 1;
        let mut b = Dataset::builder("A");
        b.hosts(max_host)
            .as_paths(paths.iter().map(|(_, _, p)| p.clone()).collect());
        for (idx, (s, d, _)) in paths.iter().enumerate() {
            for k in 0..3 {
                b.probe_with(*s, *d, k as f64, Some(10.0), |p| p.path_idx = idx as u32);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn symmetric_pair_detected() {
        let ds = dataset(&[(0, 1, vec![0, 9, 1]), (1, 0, vec![1, 9, 0])]);
        let cx = AnalysisContext::from_dataset(&ds);
        let r = analyze(&cx);
        assert_eq!(r.pairs_bidirectional, 1);
        assert_eq!(r.symmetric, 1);
        assert_eq!(r.asymmetric, 0);
        assert_eq!(r.asymmetric_fraction(), 0.0);
    }

    #[test]
    fn asymmetric_pair_detected() {
        // Forward via AS 9, reverse via AS 8 — hot-potato style asymmetry.
        let ds = dataset(&[(0, 1, vec![0, 9, 1]), (1, 0, vec![1, 8, 0])]);
        let cx = AnalysisContext::from_dataset(&ds);
        let r = analyze(&cx);
        assert_eq!(r.asymmetric, 1);
        assert_eq!(r.asymmetric_pairs, vec![(HostId(0), HostId(1))]);
        assert_eq!(r.asymmetric_fraction(), 1.0);
    }

    #[test]
    fn unidirectional_pairs_are_skipped() {
        let ds = dataset(&[(0, 1, vec![0, 9, 1])]);
        let cx = AnalysisContext::from_dataset(&ds);
        let r = analyze(&cx);
        assert_eq!(r.pairs_bidirectional, 0);
    }

    #[test]
    fn census_adds_up() {
        let ds = dataset(&[
            (0, 1, vec![0, 9, 1]),
            (1, 0, vec![1, 9, 0]),
            (0, 2, vec![0, 9, 2]),
            (2, 0, vec![2, 8, 0]),
        ]);
        let cx = AnalysisContext::from_dataset(&ds);
        let r = analyze(&cx);
        assert_eq!(r.pairs_bidirectional, 2);
        assert_eq!(r.symmetric + r.asymmetric, 2);
        assert!((r.asymmetric_fraction() - 0.5).abs() < 1e-12);
    }
}
