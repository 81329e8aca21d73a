//! Ablation benches for the design choices DESIGN.md §5 calls out.
//!
//! Each bench times the end-to-end pipeline (small network → campaign →
//! analysis) under one knob setting; the *result* of each ablation (who
//! wins, by how much) is printed once at startup so a bench run doubles as
//! an ablation report. The negative control — idealized global
//! shortest-delay routing — should show the alternate-path advantage
//! largely vanishing.

use detour_bench::Bench;
use detour_core::analysis::cdf::{compare_graph, compare_graph_bandwidth, improvement_cdf};
use detour_core::{LossComposition, Rtt, SearchDepth};
use detour_datasets::uw3;
use detour_datasets::{generate_on, Scale};
use detour_measure::PairTable;
use detour_netsim::{Era, Network, NetworkConfig, RoutingMode};

const SCALE_HOSTS: usize = 12;
const SCALE_DIV: u32 = 16;

fn dataset_for_mode(mode: RoutingMode) -> detour_measure::Dataset {
    let spec = uw3::spec();
    let mut cfg = NetworkConfig::for_era(Era::Y1999, spec.network_seed, 7.0 / SCALE_DIV as f64);
    cfg.mode = mode;
    let net = Network::generate(&cfg);
    generate_on(&net, &spec, Scale::reduced(SCALE_HOSTS, SCALE_DIV))
}

fn improved_fraction(ds: &detour_measure::Dataset) -> f64 {
    let cs = compare_graph(&PairTable::build(ds), &Rtt, SearchDepth::Unrestricted);
    if cs.is_empty() {
        return 0.0;
    }
    improvement_cdf(&cs).fraction_above(0.0)
}

fn bench_routing_modes(b: &mut Bench) {
    // Print the ablation verdict once.
    for mode in [
        RoutingMode::PolicyHotPotato,
        RoutingMode::PolicyBestExit,
        RoutingMode::GlobalShortestDelay,
    ] {
        let ds = dataset_for_mode(mode);
        eprintln!(
            "[ablation] {mode:?}: {:.0}% of pairs have a faster alternate",
            100.0 * improved_fraction(&ds)
        );
    }

    for mode in [
        RoutingMode::PolicyHotPotato,
        RoutingMode::GlobalShortestDelay,
    ] {
        b.bench(&format!("ablation_routing_mode/{mode:?}"), || {
            let ds = dataset_for_mode(mode);
            improved_fraction(&ds)
        });
    }
}

fn bench_loss_composition(b: &mut Bench) {
    let (n2, _) = detour_datasets::n2::generate_with_na(Scale::reduced(10, 16));
    let g = PairTable::build(&n2);
    for mode in [LossComposition::Optimistic, LossComposition::Pessimistic] {
        b.bench(
            &format!("ablation_loss_composition/{}", mode.label()),
            || {
                let cs = compare_graph_bandwidth(&g, mode);
                cs.len()
            },
        );
    }
}

fn bench_search_depth(b: &mut Bench) {
    let ds = dataset_for_mode(RoutingMode::PolicyHotPotato);
    let g = PairTable::build(&ds);
    for (label, depth) in [
        ("unrestricted", SearchDepth::Unrestricted),
        ("one_hop", SearchDepth::OneHop),
    ] {
        b.bench(&format!("ablation_search_depth/{label}"), || {
            let cs = compare_graph(&g, &Rtt, depth);
            cs.len()
        });
    }
}

fn main() {
    let mut b = Bench::new();
    b.sample_size(10);
    bench_routing_modes(&mut b);
    bench_loss_composition(&mut b);
    bench_search_depth(&mut b);
    eprint!("{}", b.finish());
}
