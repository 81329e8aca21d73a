//! The UW3 dataset — the workhorse of the paper's robustness section.
//!
//! Table 1: traceroute, 1999, 7 days, 39 North-American hosts (Altavista-
//! discovered traceroute servers), 94,420 measurements, 87 % coverage.
//! "A random pair of hosts was selected for measurement using an
//! exponential distribution with a mean of 9 seconds." Rate-limiting hosts
//! were filtered outright to allow paired measurements
//! ([`RateLimitPolicy::FilterHosts`]).

use detour_measure::{CampaignConfig, RateLimitPolicy, Schedule};
use detour_netsim::{Era, RoutingMode};

use crate::spec::DatasetSpec;
use crate::uw1::UW_NETWORK_SEED;

/// The UW3 specification.
pub fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "UW3",
        era: Era::Y1999,
        network_seed: UW_NETWORK_SEED,
        campaign_seed: 0x09_03,
        duration_days: 7.0,
        // 52 candidates so that filtering the ~25 % rate limiters lands
        // near Table 1's 39 hosts.
        n_hosts: 52,
        n_hosts_na: 52,
        schedule: Schedule::PairwiseExponentialPaired { mean_s: 9.0 },
        campaign: CampaignConfig::traceroute(),
        policy: RateLimitPolicy::FilterHosts,
        min_samples: 30,
        prescreened: false,
        faults: detour_faults::FaultConfig::none(),
        routing: RoutingMode::PolicyHotPotato,
        topology: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{generate, Scale};

    #[test]
    fn rate_limited_hosts_are_gone() {
        let ds = generate(&spec(), Scale::reduced(12, 16));
        for h in &ds.hosts {
            assert!(
                !ds.detected_rate_limited.contains(&h.id),
                "detected limiter {:?} kept in dataset",
                h.id
            );
        }
        // With filtering, surviving probes all target clean hosts with
        // paired measurements possible in both directions.
        assert!(!ds.probes.is_empty());
    }

    #[test]
    fn coverage_is_high() {
        let ds = generate(&spec(), Scale::reduced(10, 16));
        let c = ds.characteristics();
        assert!(c.coverage_pct > 70.0, "coverage {}", c.coverage_pct);
    }

    #[test]
    fn per_path_sample_counts_clear_the_bar() {
        let ds = generate(&spec(), Scale::reduced(10, 16));
        let mut counts: std::collections::HashMap<_, usize> = Default::default();
        for p in &ds.probes {
            *counts.entry((p.src, p.dst)).or_default() += 1;
        }
        for (&pair, &n) in &counts {
            assert!(n >= 6, "pair {pair:?} kept with only {n} probes");
        }
    }
}
