//! The paper's qualitative findings, asserted as tests.
//!
//! These run on reduced datasets (deterministic seeds), so thresholds are
//! set loosely — they guard the *shape* of each result, not its third
//! decimal. The full-scale numbers live in EXPERIMENTS.md and the `figures`
//! binary.

use detour::core::analysis::cdf::{
    compare_all_pairs, compare_all_pairs_bandwidth, improvement_cdf,
};
use detour::core::analysis::propagation;
use detour::core::{AnalysisContext, Loss, LossComposition, MetricKind, Rtt, SearchDepth};
use detour::datasets::{uw3, DatasetId, Scale};

fn frac_better(ds: &detour::measure::Dataset, metric: MetricKind) -> f64 {
    let g = AnalysisContext::from_dataset(ds);
    let cs = compare_all_pairs(&g, &metric, SearchDepth::Unrestricted);
    improvement_cdf(&cs).fraction_above(0.0)
}

#[test]
fn headline_a_significant_fraction_of_pairs_has_faster_alternates() {
    // Paper: 30-55 % across datasets. Reduced scale: demand 20-75 %.
    let ds = DatasetId::Uw3.generate_scaled(16, 8);
    let f = frac_better(&ds, Rtt);
    assert!((0.20..=0.75).contains(&f), "UW3 fraction better = {f}");
}

#[test]
fn loss_alternates_are_common() {
    // Paper: 75-85 % of pairs have a lower-loss alternate (full scale —
    // validated in EXPERIMENTS.md). At this reduced scale the per-pair
    // sample counts shrink, so demand a looser bound and rough parity with
    // the RTT fraction.
    let ds = DatasetId::Uw3.generate_scaled(16, 8);
    let rtt = frac_better(&ds, Rtt);
    let loss = frac_better(&ds, Loss);
    assert!(loss > 0.30, "loss fraction {loss}");
    assert!(loss > rtt - 0.20, "loss {loss} far below rtt {rtt}");
}

#[test]
fn d2_era_shows_more_loss_improvement_than_uw_era() {
    // Paper: "D2 demonstrating substantially more improvement" (Fig. 3) —
    // the 1995 Internet was lossier. Compare ≥5-percentage-point wins.
    let d2 = DatasetId::D2.generate(Scale::reduced(14, 12));
    let uw3 = detour::datasets::generate(&uw3::spec(), Scale::reduced(14, 8));
    let sig = |ds: &detour::measure::Dataset| {
        let g = AnalysisContext::from_dataset(ds);
        let cs = compare_all_pairs(&g, &Loss, SearchDepth::Unrestricted);
        improvement_cdf(&cs).fraction_above(0.05)
    };
    let d2_sig = sig(&d2);
    let uw_sig = sig(&uw3);
    assert!(
        d2_sig > uw_sig,
        "D2 significant-loss-improvement {d2_sig} should exceed UW3's {uw_sig}"
    );
}

#[test]
fn bandwidth_bounds_bracket() {
    // Paper Fig. 4: optimistic and pessimistic compositions bound each
    // other — optimistic alternates are always at least as fast.
    let n2 = DatasetId::N2.generate(Scale::reduced(12, 12));
    let g = AnalysisContext::from_dataset(&n2);
    let opt = compare_all_pairs_bandwidth(&g, LossComposition::Optimistic);
    let pes = compare_all_pairs_bandwidth(&g, LossComposition::Pessimistic);
    assert_eq!(opt.len(), pes.len());
    let by_pair: std::collections::HashMap<_, _> =
        pes.iter().map(|c| (c.pair, c.alternate_value)).collect();
    for c in &opt {
        let p = by_pair[&c.pair];
        assert!(
            c.alternate_value >= p - 1e-9,
            "{:?}: optimistic {} < pessimistic {p}",
            c.pair,
            c.alternate_value
        );
    }
}

#[test]
fn bandwidth_alternates_exist() {
    // Paper: 70-80 % with improved bandwidth; reduced scale: demand > 35 %.
    let n2 = DatasetId::N2.generate(Scale::reduced(12, 12));
    let g = AnalysisContext::from_dataset(&n2);
    let cs = compare_all_pairs_bandwidth(&g, LossComposition::Optimistic);
    assert!(!cs.is_empty());
    let f = improvement_cdf(&cs).fraction_above(0.0);
    assert!(f > 0.35, "optimistic bandwidth fraction better = {f}");
}

#[test]
fn propagation_improvements_exist_but_mean_rtt_improvements_are_larger() {
    // Paper Fig. 15: superior alternates by propagation delay alone for
    // ~50 % of pairs, at reduced magnitude vs mean RTT.
    let ds = DatasetId::Uw3.generate_scaled(16, 8);
    let g = AnalysisContext::from_dataset(&ds);
    let c = propagation::propagation_cdfs(&g);
    let prop_frac = c.propagation.fraction_above(0.0);
    assert!(
        (0.25..=0.8).contains(&prop_frac),
        "prop fraction {prop_frac}"
    );
    // Upper-tail magnitude: mean-RTT improvements at p90 exceed
    // propagation-only improvements.
    let p90_prop = c.propagation.inverse(0.9).unwrap();
    let p90_rtt = c.mean_rtt.inverse(0.9).unwrap();
    assert!(
        p90_rtt >= p90_prop * 0.8,
        "p90 rtt {p90_rtt} vs prop {p90_prop}"
    );
}

#[test]
fn decomposition_census_is_structurally_sound() {
    // Paper Fig. 16's strong claim (group 6 ≫ group 3) is checked at full
    // scale by the figures harness; at reduced scale the p10 estimator is
    // too noisy near the origin for a stable ordering. Here we pin the
    // structure: the census partitions the points and the "typical"
    // groups 1/4 (both components agree) dominate the off-diagonal ones.
    let ds = DatasetId::Uw3.generate_scaled(20, 4);
    let g = AnalysisContext::from_dataset(&ds);
    let d = propagation::decompose(&g);
    assert_eq!(d.group_counts.iter().sum::<usize>(), d.points.len());
    let typical = d.group_counts[0] + d.group_counts[3];
    let off_diagonal = d.group_counts[2] + d.group_counts[5];
    assert!(typical > off_diagonal, "census {:?}", d.group_counts);
    for p in &d.points {
        assert!((1..=6).contains(&p.group()));
    }
}
