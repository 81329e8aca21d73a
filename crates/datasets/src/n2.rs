//! The N2 dataset (and its N2-NA restriction).
//!
//! Table 1: `tcpanaly`-derived, 1995, 44 days, 31 hosts (20 NA), 18,274
//! measurements, 88 % coverage. N2 measures round-trip time and loss rate
//! *within TCP sessions*, so the paper uses it only for the bandwidth
//! analysis (Figures 4–5) via the Mathis model — its RTT/loss samples are
//! not unbiased and are never fed to the RTT/loss figures.
//!
//! N2-NA is N2 restricted to its North-American hosts, so
//! [`crate::Family::N2`] derives it from the same simulation.

use detour_measure::{CampaignConfig, RateLimitPolicy, Schedule};
use detour_netsim::{Era, RoutingMode};

use crate::d2::NPD_1995_NETWORK_SEED;
use crate::spec::DatasetSpec;

/// The N2 specification.
pub fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "N2",
        era: Era::Y1995,
        network_seed: NPD_1995_NETWORK_SEED,
        campaign_seed: 0x42_42,
        duration_days: 44.0,
        n_hosts: 31,
        n_hosts_na: 20,
        // 18,274 transfers over 44 days → one every ~208 s.
        schedule: Schedule::PairwiseExponential { mean_s: 208.0 },
        campaign: CampaignConfig::tcp(),
        // TCP transfers don't involve ICMP; the policy is moot but
        // FirstSampleOnly matches the era's machinery.
        policy: RateLimitPolicy::FirstSampleOnly,
        prescreened: false,
        faults: detour_faults::FaultConfig::none(),
        routing: RoutingMode::PolicyHotPotato,
        topology: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetId, Family, Scale};
    use detour_measure::Dataset;

    #[test]
    fn n2_contains_transfers_not_probes() {
        let [n2, n2_na]: [Dataset; 2] = Family::N2
            .generate(Scale::reduced(10, 24))
            .try_into()
            .unwrap();
        assert!(!n2.transfers.is_empty());
        assert!(n2.probes.is_empty());
        assert!(!n2_na.transfers.is_empty());
    }

    #[test]
    fn transfer_fields_are_physical() {
        let n2 = DatasetId::N2.generate(Scale::reduced(10, 24));
        for t in &n2.transfers {
            assert!(t.rtt_ms > 0.0 && t.rtt_ms < 5_000.0);
            assert!((0.0..=1.0).contains(&t.loss_rate));
            assert!(t.bandwidth_kbps > 0.0);
            // 1995-era ceilings: a T3 can carry at most ~5.6 MB/s.
            assert!(t.bandwidth_kbps < 6_000.0, "bw {}", t.bandwidth_kbps);
        }
    }

    #[test]
    fn same_1995_network_as_d2() {
        assert_eq!(spec().network_seed, crate::d2::spec().network_seed);
        assert_eq!(spec().era, crate::d2::spec().era);
    }
}
