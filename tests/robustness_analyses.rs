//! Integration tests for the paper's §6/§7 robustness analyses, run over
//! freshly generated datasets (not the toy fixtures of the unit tests).

use detour::core::analysis::{confidence, contribution, episodes, hostremoval, median, timeofday};
use detour::core::{AnalysisContext, Rtt, SearchDepth};
use detour::datasets::{DatasetId, Family, Scale};
use detour::stats::ttest::TTestVerdict;

#[test]
fn ttest_buckets_partition_all_pairs() {
    let ds = DatasetId::Uw3.generate_scaled(12, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let intervals = cx.intervals(&Rtt);
    let counts = confidence::verdict_table(intervals);
    assert_eq!(counts.total(), intervals.len());
    for pi in intervals {
        assert!(pi.half_width >= 0.0);
        // The verdict must be consistent with the interval geometry.
        match pi.verdict {
            TTestVerdict::Better => assert!(pi.improvement - pi.half_width > 0.0),
            TTestVerdict::Worse => assert!(pi.improvement + pi.half_width < 0.0),
            TTestVerdict::Indeterminate => {
                assert!(pi.improvement.abs() <= pi.half_width + 1e-9)
            }
            TTestVerdict::Zero => {}
        }
    }
}

#[test]
fn stricter_confidence_is_more_conservative() {
    let ds = DatasetId::Uw3.generate_scaled(12, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let at95 = confidence::verdict_table(cx.intervals(&Rtt));
    let at999 = confidence::verdict_table(&confidence::pair_intervals(&cx, &Rtt, 0.999));
    assert!(at999.indeterminate >= at95.indeterminate);
    assert!(at999.better <= at95.better);
}

#[test]
fn time_slices_cover_all_probes_and_effect_persists() {
    // Needs a trace spanning at least one full week so every slice (incl.
    // the weekend) has data: UW4-B at divisor 2 covers 7 days cheaply.
    let ds = DatasetId::Uw4B.generate_scaled(10, 2);
    let cx = AnalysisContext::from_dataset(&ds);
    let slices = timeofday::improvement_by_slice(&cx, &Rtt, SearchDepth::Unrestricted);
    assert_eq!(slices.len(), 5);
    for (slice, cdf) in &slices {
        assert!(
            !cdf.is_empty(),
            "slice {slice:?} lost all pairs — partition broken?"
        );
        // The paper: "the overall effect occurs regardless of the time of
        // day" — every slice retains a meaningful improved fraction.
        let f = cdf.fraction_above(0.0);
        assert!(f > 0.08, "slice {slice:?} improved fraction {f}");
    }
}

#[test]
fn episode_analysis_runs_on_real_uw4() {
    let [a, b]: [detour::measure::Dataset; 2] = Family::Uw4
        .generate(Scale::reduced(8, 16))
        .try_into()
        .unwrap();
    let (ca, cb) = (
        AnalysisContext::from_dataset(&a),
        AnalysisContext::from_dataset(&b),
    );
    let r = episodes::analyze(&ca, &cb, &Rtt);
    assert!(r.episodes > 10, "got {} episodes", r.episodes);
    assert!(!r.unaveraged.is_empty());
    assert!(!r.pair_averaged.is_empty());
    assert!(r.unaveraged.len() > r.pair_averaged.len());
    // The unaveraged distribution is a superset in spread.
    let span =
        |c: &detour::stats::Cdf| c.inverse(0.99).unwrap_or(0.0) - c.inverse(0.01).unwrap_or(0.0);
    assert!(span(&r.unaveraged) >= span(&r.pair_averaged));
}

#[test]
fn greedy_removal_keeps_the_effect_alive() {
    let ds = DatasetId::Uw3.generate_scaled(24, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let r = hostremoval::greedy_removal(&cx, &Rtt, 3);
    assert_eq!(r.removed.len(), 3);
    let (before, after) = hostremoval::improved_fractions(&r);
    assert!(before > 0.2, "baseline effect too weak: {before}");
    // The effect must not vanish entirely (paper Fig. 12).
    assert!(
        after > 0.05,
        "removal collapsed the effect: {before} -> {after}"
    );
}

#[test]
fn contribution_is_spread_across_hosts() {
    let ds = DatasetId::Uw3.generate_scaled(24, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let a = contribution::analyze(&cx, &Rtt);
    let hosts = cx.table().len();
    assert_eq!(a.normalized.len(), hosts);
    let share = contribution::max_share(&a);
    assert!(
        share < 0.6,
        "one host contributes {share} of all improvement"
    );
    // Most hosts contribute something on a policy-routed topology.
    let contributors = a.normalized.values().filter(|&&v| v > 0.0).count();
    assert!(
        contributors * 2 > hosts,
        "{contributors}/{hosts} contribute"
    );
}

#[test]
fn mean_and_median_agree_on_the_conclusion() {
    let ds = DatasetId::D2Na.generate_scaled(12, 16);
    let cx = AnalysisContext::from_dataset(&ds);
    let cmp = median::analyze(&cx);
    let f_mean = cmp.mean_based.fraction_above(0.0);
    let f_median = cmp.median_based.fraction_above(0.0);
    assert!(
        (f_mean - f_median).abs() < 0.25,
        "statistics disagree wildly: mean {f_mean} vs median {f_median}"
    );
}
