//! Determinism of the parallel pipeline: the same seed must produce
//! byte-identical campaigns, datasets and greedy removals at any worker
//! count, and a different seed must actually change the simulated world.
//! The paper reports themselves are pinned at 1, 2 and 8 workers by the
//! golden suite (`tests/golden_reports.rs`).

use detour::core::pool;
use detour::datasets::Scale;
use detour_bench::Bundle;

#[test]
fn masked_greedy_removal_is_identical_at_1_2_and_8_threads() {
    use detour::core::analysis::hostremoval::greedy_removal_on;
    use detour::core::{AnalysisContext, Rtt};
    use detour::datasets::DatasetId;

    let ds = DatasetId::Uw3.generate_scaled(10, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (a, view) = greedy_removal_on(cx.weights(&Rtt), 3);
        // Bit-exact comparison: removal order, both CDF headline
        // fractions as raw f64 bits, and the loop's derived last view
        // (every comparison, detour hosts included).
        runs.push((
            a.removed.clone(),
            a.full.fraction_above(0.0).to_bits(),
            a.reduced.fraction_above(0.0).to_bits(),
            view,
        ));
    }
    pool::set_threads(0);
    assert_eq!(runs[0].0.len(), 3, "expected 3 removals");
    assert_eq!(runs[0], runs[1], "2 threads diverged from 1");
    assert_eq!(runs[0], runs[2], "8 threads diverged from 1");
}

#[test]
fn campaign_and_generation_are_byte_identical_at_1_2_and_8_threads() {
    // Pins the tentpole invariant end-to-end: the raw measurement campaign
    // (plain and under heavy injected faults) and the full
    // dataset-generation pipeline (network build, eager routing
    // precompute, campaign, assembly) produce at 2 and 8 workers the
    // bytes they produce at 1.
    use detour::datasets::DatasetId;
    use detour::faults::FaultConfig;
    use detour::measure::{run_campaign, CampaignConfig, Schedule};
    use detour::netsim::{Era, Network, NetworkConfig};
    use detour::prng::Xoshiro256pp;

    let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, 5, 1.0));
    let hosts: Vec<_> = net.hosts().iter().take(8).map(|h| h.id).collect();
    let reqs = Schedule::PairwiseExponential { mean_s: 180.0 }.generate(
        &hosts,
        4.0 * 3600.0,
        &mut Xoshiro256pp::seed_from_u64(21),
    );
    let fault_cases = [FaultConfig::none(), FaultConfig::heavy(21)];

    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let campaigns: Vec<_> = fault_cases
            .iter()
            .map(|f| run_campaign(&net, &reqs, &CampaignConfig::traceroute(), 21, f))
            .collect();
        runs.push((campaigns, DatasetId::Uw3.generate_scaled(8, 24)));
    }
    pool::set_threads(0);
    let (campaigns, ds) = &runs[0];
    assert!(!campaigns[0].invocations.is_empty());
    assert_ne!(campaigns[0], campaigns[1], "heavy faults changed nothing");
    for (i, (c, d)) in runs.iter().enumerate().skip(1) {
        assert_eq!(c, campaigns, "run {i} campaigns diverged from 1 worker");
        assert_eq!(d.probes, ds.probes, "run {i} probes diverged");
        assert_eq!(d.hosts, ds.hosts, "run {i} hosts diverged");
        assert_eq!(d.as_paths, ds.as_paths, "run {i} AS paths diverged");
    }
}

#[test]
fn same_seed_reproduces_and_different_seed_diverges() {
    let scale = Scale::reduced(8, 24);
    let a = Bundle::generate(scale.with_seed_offset(1));
    let b = Bundle::generate(scale.with_seed_offset(1));
    assert_eq!(a.uw3.probes, b.uw3.probes);
    assert_eq!(a.d2.probes, b.d2.probes);
    let c = Bundle::generate(scale.with_seed_offset(2));
    assert_ne!(a.uw3.probes, c.uw3.probes, "seed offset had no effect");
}
