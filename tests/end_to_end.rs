//! End-to-end pipeline tests: simulated Internet → measurement campaign →
//! dataset → measurement graph (pair table) → alternate-path analysis.

use detour::core::analysis::cdf::{compare_all_pairs, improvement_cdf};
use detour::core::{AnalysisContext, Loss, Rtt, SearchDepth};
use detour::datasets::DatasetId;

#[test]
fn pipeline_produces_analyzable_graph() {
    let ds = DatasetId::Uw3.generate_scaled(14, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let t = cx.table();
    assert!(t.len() >= 6, "enough hosts survive filtering");
    assert!(t.measured_count() > t.len(), "dense pairwise coverage");
    let cs = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
    assert!(!cs.is_empty());

    // Every pair with an alternate must have consistent comparison fields.
    for cmp in &cs {
        assert!(cmp.default_value > 0.0);
        assert!(cmp.alternate_value > 0.0);
        assert!(!cmp.via.is_empty(), "an alternate must detour somewhere");
        assert!(!cmp.via.contains(&cmp.pair.src));
        assert!(!cmp.via.contains(&cmp.pair.dst));
        assert_eq!(
            cmp.alternate_wins(),
            cmp.improvement() > 0.0,
            "win flag consistent with improvement sign"
        );
    }
}

#[test]
fn generation_is_reproducible_end_to_end() {
    let a = DatasetId::Uw4B.generate_scaled(8, 24);
    let b = DatasetId::Uw4B.generate_scaled(8, 24);
    let ga = AnalysisContext::from_dataset(&a);
    let gb = AnalysisContext::from_dataset(&b);
    let ca = compare_all_pairs(&ga, &Rtt, SearchDepth::Unrestricted);
    let cb = compare_all_pairs(&gb, &Rtt, SearchDepth::Unrestricted);
    assert_eq!(ca.len(), cb.len());
    for (x, y) in ca.iter().zip(&cb) {
        assert_eq!(x.pair, y.pair);
        assert_eq!(x.default_value, y.default_value);
        assert_eq!(x.alternate_value, y.alternate_value);
    }
}

#[test]
fn rtt_improvements_are_physical() {
    let ds = DatasetId::Uw3.generate_scaled(14, 24);
    let g = AnalysisContext::from_dataset(&ds);
    let cs = compare_all_pairs(&g, &Rtt, SearchDepth::Unrestricted);
    for c in &cs {
        // Nothing in North America should show second-scale RTTs or
        // negative values.
        assert!(c.default_value < 3_000.0, "default {}", c.default_value);
        assert!(
            c.alternate_value < 6_000.0,
            "alternate {}",
            c.alternate_value
        );
    }
}

#[test]
fn loss_values_are_probabilities_all_the_way_down() {
    let ds = DatasetId::Uw3.generate_scaled(14, 24);
    let g = AnalysisContext::from_dataset(&ds);
    for c in compare_all_pairs(&g, &Loss, SearchDepth::Unrestricted) {
        assert!((0.0..=1.0).contains(&c.default_value));
        assert!((0.0..=1.0).contains(&c.alternate_value));
    }
}

#[test]
fn one_hop_never_beats_unrestricted_search() {
    let ds = DatasetId::Uw3.generate_scaled(14, 24);
    let g = AnalysisContext::from_dataset(&ds);
    let unrestricted = compare_all_pairs(&g, &Rtt, SearchDepth::Unrestricted);
    let one_hop = compare_all_pairs(&g, &Rtt, SearchDepth::OneHop);
    // Index unrestricted results by pair for the comparison.
    let by_pair: std::collections::HashMap<_, _> = unrestricted
        .iter()
        .map(|c| (c.pair, c.alternate_value))
        .collect();
    for c in &one_hop {
        if let Some(&u) = by_pair.get(&c.pair) {
            assert!(
                u <= c.alternate_value + 1e-9,
                "{:?}: unrestricted {u} worse than one-hop {}",
                c.pair,
                c.alternate_value
            );
        }
    }
}

#[test]
fn improvement_cdf_brackets_all_comparisons() {
    let ds = DatasetId::Uw3.generate_scaled(14, 24);
    let g = AnalysisContext::from_dataset(&ds);
    let cs = compare_all_pairs(&g, &Rtt, SearchDepth::Unrestricted);
    let cdf = improvement_cdf(&cs);
    assert_eq!(cdf.len(), cs.len());
    let min = cs
        .iter()
        .map(|c| c.improvement())
        .fold(f64::INFINITY, f64::min);
    let max = cs
        .iter()
        .map(|c| c.improvement())
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(cdf.eval(max), 1.0);
    assert!(cdf.eval(min - 1.0) == 0.0);
}
