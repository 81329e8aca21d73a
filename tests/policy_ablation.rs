//! The causal claim, tested: policy routing manufactures alternate paths;
//! idealized routing removes most of them.

use std::sync::OnceLock;

use detour::core::analysis::cdf::{compare_all_pairs, improvement_cdf, ratio_cdf};
use detour::core::{AnalysisContext, PropDelay, Rtt, SearchDepth};
use detour::datasets::{generate, uw3, DatasetSpec, Scale};
use detour::measure::Dataset;
use detour::netsim::RoutingMode;

/// Reduced UW3 under `mode`, generated once per mode for the whole binary.
fn dataset_under(mode: RoutingMode) -> &'static Dataset {
    static DATASETS: [OnceLock<Dataset>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    DATASETS[mode as usize].get_or_init(|| {
        let spec = DatasetSpec {
            routing: mode,
            ..uw3::spec()
        };
        generate(&spec, Scale::reduced(14, 16))
    })
}

fn big_win_fraction(ds: &Dataset) -> f64 {
    let cx = AnalysisContext::from_dataset(ds);
    let cs = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
    ratio_cdf(&cs).fraction_above(1.5)
}

#[test]
fn ideal_routing_strips_away_most_large_wins() {
    let policy = big_win_fraction(dataset_under(RoutingMode::PolicyHotPotato));
    let ideal = big_win_fraction(dataset_under(RoutingMode::GlobalShortestDelay));
    assert!(
        ideal < policy,
        "ideal routing ({ideal}) should beat policy routing ({policy}) at suppressing 1.5x wins"
    );
}

#[test]
fn propagation_delay_is_near_optimal_under_ideal_routing() {
    // Under global shortest-delay routing, an alternate path can never
    // have a *substantially* shorter propagation delay than the default —
    // whatever improvement remains is queue avoidance plus estimator noise
    // (the 10th percentile still carries some queuing).
    let ds = dataset_under(RoutingMode::GlobalShortestDelay);
    let cx = AnalysisContext::from_dataset(ds);
    let cs = compare_all_pairs(&cx, &PropDelay, SearchDepth::Unrestricted);
    let cdf = improvement_cdf(&cs);
    let big = cdf.fraction_above(25.0);
    assert!(
        big < 0.10,
        "{:.1}% of pairs claim >25ms propagation improvement under ideal routing",
        100.0 * big
    );
}

#[test]
fn policy_routing_does_leave_propagation_on_the_table() {
    // The mirror assertion: under hot-potato policy, substantial
    // propagation-delay improvements exist (paper Fig. 15).
    let ds = dataset_under(RoutingMode::PolicyHotPotato);
    let cx = AnalysisContext::from_dataset(ds);
    let cs = compare_all_pairs(&cx, &PropDelay, SearchDepth::Unrestricted);
    let cdf = improvement_cdf(&cs);
    assert!(
        cdf.fraction_above(0.0) > 0.25,
        "policy routing should leave propagation improvements: {}",
        cdf.fraction_above(0.0)
    );
}

#[test]
fn all_three_modes_yield_complete_datasets() {
    for mode in [
        RoutingMode::PolicyHotPotato,
        RoutingMode::PolicyBestExit,
        RoutingMode::GlobalShortestDelay,
    ] {
        let ds = dataset_under(mode);
        assert!(!ds.probes.is_empty(), "{mode:?} produced no data");
        let c = ds.characteristics();
        assert!(
            c.coverage_pct > 50.0,
            "{mode:?} coverage {}",
            c.coverage_pct
        );
    }
}
