//! Time-of-day analysis (Figures 9–10).
//!
//! §6.3: "we have divided our data into weekday and weekend, and further
//! divided weekday data into six hour time periods." Periods are in PST
//! (the study ran from Seattle). The paper's finding: the alternate-path
//! effect "occurs regardless of the time of day", is strongest 06:00–12:00
//! PST and weakest on weekends and overnight — superior alternates track
//! load.

use crate::altpath::SearchDepth;
use crate::analysis::cdf::{compare_graph, improvement_cdf};
use crate::context::AnalysisContext;
use crate::metric::MetricKind;
use detour_measure::{PairTable, ProbeRow};
use detour_stats::Cdf;

/// PST offset from UTC, hours (the paper's clock).
pub const PST_OFFSET_HOURS: f64 = -8.0;

/// One time-of-day slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeSlice {
    /// Saturday/Sunday, any hour.
    Weekend,
    /// Weekday 00:00–06:00 PST.
    Night,
    /// Weekday 06:00–12:00 PST.
    Morning,
    /// Weekday 12:00–18:00 PST.
    Afternoon,
    /// Weekday 18:00–24:00 PST.
    Evening,
}

impl TimeSlice {
    /// All slices in display order.
    pub fn all() -> [TimeSlice; 5] {
        [
            TimeSlice::Weekend,
            TimeSlice::Night,
            TimeSlice::Morning,
            TimeSlice::Afternoon,
            TimeSlice::Evening,
        ]
    }

    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            TimeSlice::Weekend => "weekend",
            TimeSlice::Night => "0000-0600",
            TimeSlice::Morning => "0600-1200",
            TimeSlice::Afternoon => "1200-1800",
            TimeSlice::Evening => "1800-2400",
        }
    }

    /// Classifies a trace timestamp (seconds since a Monday-00:00-UTC
    /// start) into its PST slice.
    pub fn classify(t_s: f64) -> TimeSlice {
        let pst_hours = t_s / 3600.0 + PST_OFFSET_HOURS;
        let day = (pst_hours / 24.0).floor() as i64;
        let dow = day.rem_euclid(7); // 0 = Monday
        if dow >= 5 {
            return TimeSlice::Weekend;
        }
        match pst_hours.rem_euclid(24.0) {
            h if h < 6.0 => TimeSlice::Night,
            h if h < 12.0 => TimeSlice::Morning,
            h if h < 18.0 => TimeSlice::Afternoon,
            _ => TimeSlice::Evening,
        }
    }
}

/// Builds the per-slice improvement CDFs for `metric`, recomputing edge
/// means from only the probes falling in each slice (exactly what dividing
/// the dataset does — including its documented cost: "dividing the dataset
/// reduces the number of samples per path"). One partitioned build
/// classifies each probe once.
pub fn improvement_by_slice(
    cx: &AnalysisContext,
    metric: &MetricKind,
    depth: SearchDepth,
) -> Vec<(TimeSlice, Cdf)> {
    let slices = TimeSlice::all();
    let slice_of = |r: &ProbeRow| {
        let slice = TimeSlice::classify(r.t_s);
        slices.iter().position(|&s| s == slice)
    };
    slices
        .into_iter()
        .zip(PairTable::build_partitioned(
            cx.dataset(),
            slices.len(),
            slice_of,
        ))
        .map(|(slice, t)| (slice, improvement_cdf(&compare_graph(&t, metric, depth))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: f64 = 3600.0;

    #[test]
    fn monday_morning_pst_classifies_as_morning() {
        // Monday 08:00 PST = Monday 16:00 UTC = t = 16 h.
        assert_eq!(TimeSlice::classify(16.0 * HOUR), TimeSlice::Morning);
    }

    #[test]
    fn weekend_dominates_hour_slices() {
        // Saturday 10:00 PST = Saturday 18:00 UTC = day 5, t = (5·24+18) h.
        assert_eq!(
            TimeSlice::classify((5.0 * 24.0 + 18.0) * HOUR),
            TimeSlice::Weekend
        );
    }

    #[test]
    fn pst_shift_moves_day_boundary() {
        // Monday 02:00 UTC is still Sunday 18:00 PST → weekend.
        assert_eq!(TimeSlice::classify(2.0 * HOUR), TimeSlice::Weekend);
        // Monday 09:00 UTC = Monday 01:00 PST → weekday night.
        assert_eq!(TimeSlice::classify(9.0 * HOUR), TimeSlice::Night);
    }

    #[test]
    fn slices_partition_the_clock() {
        // Every hour of a two-week stretch maps to exactly one slice.
        for h in 0..336 {
            let t = h as f64 * HOUR + 1.0;
            let slice = TimeSlice::classify(t);
            assert!(TimeSlice::all().contains(&slice));
        }
    }

    #[test]
    fn all_five_slices_occur_within_a_week() {
        let mut seen = std::collections::HashSet::new();
        for h in 0..168 {
            seen.insert(TimeSlice::classify(h as f64 * HOUR + 1800.0));
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            TimeSlice::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
