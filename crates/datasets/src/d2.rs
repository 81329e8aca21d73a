//! The D2 dataset (and its D2-NA restriction).
//!
//! Table 1: traceroute-based, collected 1995 by Paxson's `npd` framework,
//! 48 days, 33 hosts world-wide of which 22 North American, 35,109
//! measurements, 97 % path coverage. Rate-limiting hosts can no longer be
//! identified after the fact, so the paper counts "only the first
//! traceroute sample … against losses" — [`RateLimitPolicy::FirstSampleOnly`].
//!
//! D2-NA is D2 restricted to its North-American hosts, so
//! [`crate::Family::D2`] derives it from the same simulation.

use detour_measure::{CampaignConfig, RateLimitPolicy, Schedule};
use detour_netsim::{Era, RoutingMode};

use crate::spec::DatasetSpec;

/// Network seed shared by everything Paxson measured in 1995 (D2 and N2
/// saw the same Internet).
pub const NPD_1995_NETWORK_SEED: u64 = 0x1995_0001;

/// The D2 specification.
pub fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "D2",
        era: Era::Y1995,
        network_seed: NPD_1995_NETWORK_SEED,
        campaign_seed: 0xd2_d2,
        duration_days: 48.0,
        n_hosts: 33,
        n_hosts_na: 22,
        // 35,109 measurements over 48 days → one every ~118 s.
        schedule: Schedule::PairwiseExponential { mean_s: 118.0 },
        campaign: CampaignConfig::traceroute(),
        policy: RateLimitPolicy::FirstSampleOnly,
        min_samples: 30,
        prescreened: false,
        faults: detour_faults::FaultConfig::none(),
        routing: RoutingMode::PolicyHotPotato,
        topology: None,
    }
}

#[cfg(test)]
mod tests {
    use crate::{DatasetId, Family, Scale};
    use detour_measure::Dataset;

    #[test]
    fn d2_na_is_a_strict_subset() {
        let [d2, d2_na]: [Dataset; 2] = Family::D2
            .generate(Scale::reduced(12, 24))
            .try_into()
            .unwrap();
        assert!(d2_na.hosts.len() < d2.hosts.len());
        assert!(d2_na.probes.len() < d2.probes.len());
        let parent: std::collections::HashSet<_> = d2.hosts.iter().map(|h| h.id).collect();
        for h in &d2_na.hosts {
            assert!(parent.contains(&h.id));
        }
    }

    #[test]
    fn first_sample_only_policy_is_applied() {
        let d2 = DatasetId::D2.generate(Scale::reduced(10, 24));
        assert!(d2
            .probes
            .iter()
            .any(|p| !p.loss_eligible || p.probe_index == 0));
        for p in &d2.probes {
            if p.probe_index > 0 {
                assert!(!p.loss_eligible);
                assert!(p.rtt_ms.is_some(), "lost follow-ups are dropped entirely");
            }
        }
    }

    #[test]
    fn d2_keeps_rate_limited_hosts() {
        // FirstSampleOnly cannot filter hosts (detection is "no longer
        // possible") — every selected host must survive assembly.
        let d2 = DatasetId::D2.generate(Scale::reduced(12, 24));
        assert_eq!(d2.hosts.len(), 12);
    }
}
