//! Property-based tests for the network substrate, on the in-tree
//! deterministic harness: topology and routing invariants must hold for
//! *every* seed, not just the ones the datasets use.

use detour_netsim::geo::GeoPoint;
use detour_netsim::routing::flaps::{self, flap_schedule};
use detour_netsim::routing::path::Resolver;
use detour_netsim::routing::RoutingMode;
use detour_netsim::sim::clock::SimTime;
use detour_netsim::topology::generator::{generate, Era, TopologyConfig};
use detour_netsim::topology::AsId;
use detour_netsim::{Network, NetworkConfig};
use detour_prng::check::check_with;
use detour_prng::{Rng, Xoshiro256pp};

fn geo_point(rng: &mut Xoshiro256pp) -> GeoPoint {
    GeoPoint {
        lat: rng.gen_range(-80.0..80.0f64),
        lon: rng.gen_range(-180.0..180.0f64),
    }
}

#[test]
fn great_circle_is_a_metric() {
    check_with("great_circle_is_a_metric", 24, |rng| {
        let (a, b, c) = (geo_point(rng), geo_point(rng), geo_point(rng));
        let ab = a.distance_km(&b);
        let ba = b.distance_km(&a);
        assert!((ab - ba).abs() < 1e-6, "symmetry");
        assert!(ab >= 0.0);
        assert!(a.distance_km(&a) < 1e-6, "identity");
        // Triangle inequality (spherical distances satisfy it).
        assert!(ab <= a.distance_km(&c) + c.distance_km(&b) + 1e-6);
        // Bounded by half the circumference.
        assert!(ab <= 20_016.0);
    });
}

#[test]
fn every_seed_yields_a_fully_routable_internet() {
    check_with("every_seed_yields_a_fully_routable_internet", 24, |rng| {
        let seed = rng.gen_range(0..500u64);
        let topo = generate(
            &TopologyConfig::for_era(Era::Y1999),
            &mut Xoshiro256pp::seed_from_u64(seed),
        );
        let resolver = Resolver::new(&topo);
        // Spot-check reachability from a few host routers to a few others
        // (full n² would make the suite slow; structure guarantees carry).
        let hosts: Vec<_> = topo.hosts.iter().map(|h| h.router).collect();
        for &s in hosts.iter().take(4) {
            for &d in hosts.iter().rev().take(4) {
                if s == d {
                    continue;
                }
                let p = resolver.resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false);
                assert!(p.is_some(), "seed {seed}: {s:?} cannot reach {d:?}");
                let p = p.unwrap();
                assert_eq!(*p.routers.first().unwrap(), s);
                assert_eq!(*p.routers.last().unwrap(), d);
                // Link chain is consistent.
                for (i, &l) in p.links.iter().enumerate() {
                    let link = topo.link(l);
                    assert_eq!(link.from, p.routers[i]);
                    assert_eq!(link.to, p.routers[i + 1]);
                }
            }
        }
    });
}

#[test]
fn global_mode_lower_bounds_policy_modes() {
    check_with("global_mode_lower_bounds_policy_modes", 24, |rng| {
        let seed = rng.gen_range(0..100u64);
        let topo = generate(
            &TopologyConfig::for_era(Era::Y1995),
            &mut Xoshiro256pp::seed_from_u64(seed),
        );
        let resolver = Resolver::new(&topo);
        let hosts: Vec<_> = topo.hosts.iter().map(|h| h.router).collect();
        for &s in hosts.iter().take(3) {
            for &d in hosts.iter().rev().take(3) {
                if s == d {
                    continue;
                }
                let global = resolver
                    .resolve(&topo, s, d, RoutingMode::GlobalShortestDelay, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                for mode in [RoutingMode::PolicyHotPotato, RoutingMode::PolicyBestExit] {
                    let policy = resolver
                        .resolve(&topo, s, d, mode, false)
                        .unwrap()
                        .prop_delay_ms(&topo);
                    assert!(
                        global <= policy + 1e-6,
                        "seed {seed} {mode:?}: global {global} > policy {policy}"
                    );
                }
            }
        }
    });
}

#[test]
fn flap_schedules_are_disjoint_sorted_and_deterministic() {
    check_with(
        "flap_schedules_are_disjoint_sorted_and_deterministic",
        24,
        |rng| {
            let seed = rng.gen_range(0..1000u64);
            let (a, b) = (rng.gen_range(0..200u16), rng.gen_range(0..200u16));
            let horizon = 14.0 * 86_400.0;
            let s1 = flap_schedule(&flaps::DEFAULT, seed, AsId(a), AsId(b), horizon);
            let s2 = flap_schedule(&flaps::DEFAULT, seed, AsId(a), AsId(b), horizon);
            assert_eq!(s1, s2);
            assert!(s1.total_down_s() <= horizon);
            // Activity queries never panic and are false outside the horizon.
            assert!(!s1.down_at(-1.0));
            assert!(!s1.down_at(horizon + 1.0));
        },
    );
}

#[test]
fn utilization_stays_in_bounds_for_all_seeds() {
    check_with("utilization_stays_in_bounds_for_all_seeds", 24, |rng| {
        let seed = rng.gen_range(0..50u64);
        let hour = rng.gen_range(0.0..336.0f64);
        let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, seed, 14.0));
        let t = SimTime::from_hours(hour);
        for l in net.topology.links.iter().step_by(11) {
            let rho = net.load().utilization_at(l.id, &mut net.load().at(t));
            assert!((0.0..=0.97).contains(&rho), "rho {rho}");
            let p = net.load().loss_probability(l.id, rho);
            assert!((0.0..=0.5).contains(&p));
            let q = net.load().mean_queue_delay_ms(l.id, rho);
            assert!((0.0..=200.0).contains(&q));
        }
    });
}

#[test]
fn transit_outcomes_are_physical() {
    check_with("transit_outcomes_are_physical", 24, |rng| {
        let seed = rng.gen_range(0..30u64);
        let hour = rng.gen_range(0.0..47.0f64);
        let net = Network::generate(&NetworkConfig::for_era(Era::Y1999, seed, 2.0));
        let hosts = net.hosts();
        let (s, d) = (hosts[0].id, hosts[hosts.len() / 2].id);
        let t = SimTime::from_hours(hour);
        if let Some(path) = net.forward_path(s, d, t) {
            let mut transit_rng = Xoshiro256pp::seed_from_u64(seed);
            for _ in 0..5 {
                let out = net.transit(path, t, &mut transit_rng);
                assert!(out.delay_ms > 0.0);
                assert!(out.delay_ms >= path.prop_delay_ms(&net.topology));
                assert!(out.delay_ms < 60_000.0, "minute-scale delay is a bug");
            }
        }
    });
}
