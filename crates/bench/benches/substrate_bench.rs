//! Performance benches for the substrate: topology generation, routing
//! computation, path resolution, probing, dataset assembly, and the
//! statistical kernels (Dijkstra alternates, convolution).

use detour_bench::Bench;
use detour_core::analysis::cdf::compare_graph;
use detour_core::{Rtt, SearchDepth};
use detour_datasets::{DatasetId, Scale};
use detour_measure::PairTable;
use detour_netsim::routing::path::Resolver;
use detour_netsim::sim::clock::SimTime;
use detour_netsim::topology::generator::{generate, TopologyConfig};
use detour_netsim::{probe, Era, Network, NetworkConfig, RoutingMode};
use detour_prng::Rng;
use detour_prng::Xoshiro256pp;
use detour_stats::convolve::SampleDist;

fn bench_topology(b: &mut Bench) {
    b.bench("substrate/topology_generate_1999", || {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let t = generate(&TopologyConfig::for_era(Era::Y1999), &mut rng);
        t.links.len()
    });
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let topo = generate(&TopologyConfig::for_era(Era::Y1999), &mut rng);
    b.bench("substrate/resolver_build", || {
        let r = Resolver::new(&topo);
        r.rib().as_count()
    });
}

fn bench_probing(b: &mut Bench) {
    let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, 42, 7.0));
    let hosts = net.hosts().to_vec();
    let (s, d) = (hosts[0].id, hosts[hosts.len() / 2].id);
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    b.bench("probing/traceroute", || {
        let t = SimTime::from_hours(rng.gen_range(0.0..160.0));
        let tr = probe::traceroute(&net, s, d, t, &mut rng);
        tr.hops.len()
    });
    // One fresh network for the whole bench (not per iteration — generation
    // would dwarf the resolution being measured); vary the pair instead.
    let fresh = Network::generate(&NetworkConfig::for_era(Era::Y1999, 43, 7.0));
    let mut rng = Xoshiro256pp::seed_from_u64(10);
    b.bench("probing/path_resolution_uncached", || {
        let i = rng.gen_range(0..hosts.len());
        let j = (i + 1 + rng.gen_range(0..hosts.len() - 1)) % hosts.len();
        // Distinct times defeat the path cache only when flaps differ, so
        // resolve via the resolver directly.
        let p = fresh.resolver().resolve(
            &fresh.topology,
            fresh.hosts()[i].router,
            fresh.hosts()[j].router,
            RoutingMode::PolicyHotPotato,
            false,
        );
        p.map(|p| p.links.len())
    });
}

fn bench_analysis_kernels(b: &mut Bench) {
    let ds = DatasetId::Uw3.generate(Scale::reduced(14, 16));
    let t = PairTable::build(&ds);
    b.bench("core/best_alternate_all_pairs", || {
        compare_graph(&t, &Rtt, SearchDepth::Unrestricted).len()
    });
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let xs: Vec<f64> = (0..500).map(|_| rng.gen_range(20.0..120.0)).collect();
    let ys: Vec<f64> = (0..500).map(|_| rng.gen_range(10.0..80.0)).collect();
    let a = SampleDist::from_samples(&xs, 1.0).unwrap();
    let bdist = SampleDist::from_samples(&ys, 1.0).unwrap();
    b.bench("stats/convolve_rtt_dists", || a.convolve(&bdist).median());
}

fn bench_modes(b: &mut Bench) {
    // Kept here (not only in ablation_bench) so a plain substrate run also
    // shows the policy-resolution cost.
    let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, 5, 7.0));
    let resolver = net.resolver();
    let hosts = net.hosts().to_vec();
    for mode in [
        RoutingMode::PolicyHotPotato,
        RoutingMode::GlobalShortestDelay,
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        b.bench(&format!("routing/resolve_{mode:?}"), || {
            let i = rng.gen_range(0..hosts.len());
            let j = (i + 1 + rng.gen_range(0..hosts.len() - 1)) % hosts.len();
            let p = resolver.resolve(&net.topology, hosts[i].router, hosts[j].router, mode, false);
            p.map(|p| p.links.len())
        });
    }
}

fn main() {
    let mut b = Bench::new();
    b.sample_size(10);
    bench_topology(&mut b);
    bench_probing(&mut b);
    bench_analysis_kernels(&mut b);
    bench_modes(&mut b);
    eprint!("{}", b.finish());
}
