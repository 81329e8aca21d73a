//! The UW4-A and UW4-B datasets.
//!
//! Paper §6.4: to gauge the effect of long-term averaging, 15 hosts (drawn
//! at random from a pool of 35 UW3 hosts) were measured two ways over the
//! same 14 days:
//!
//! * **UW4-A** — "a series of randomly spaced episodes," each a
//!   simultaneous traceroute between *every* ordered pair (exponential
//!   inter-episode gap, mean 1000 s): 216,928 measurements, 100 % coverage;
//! * **UW4-B** — an independent long-term-average measurement, pairwise
//!   exponential with mean 150 s: 9,169 measurements, 100 % coverage.
//!
//! Both must use the *same* hosts over the *same* network, so
//! [`crate::Family::Uw4`] generates them over one network instance, and
//! the shared campaign seed gives them one host selection.

use detour_measure::{CampaignConfig, RateLimitPolicy, Schedule};
use detour_netsim::{Era, RoutingMode};

use crate::spec::DatasetSpec;
use crate::uw1::UW_NETWORK_SEED;

/// Shared host-selection seed so A and B measure identical hosts.
const UW4_CAMPAIGN_SEED: u64 = 0x09_04;

/// The UW4-A (simultaneous episodes) specification.
pub fn spec_a() -> DatasetSpec {
    DatasetSpec {
        name: "UW4-A",
        era: Era::Y1999,
        network_seed: UW_NETWORK_SEED,
        campaign_seed: UW4_CAMPAIGN_SEED,
        duration_days: 14.0,
        n_hosts: 15,
        n_hosts_na: 15,
        schedule: Schedule::Episodes { mean_gap_s: 1000.0 },
        campaign: CampaignConfig::traceroute(),
        policy: RateLimitPolicy::FilterHosts,
        prescreened: true,
        faults: detour_faults::FaultConfig::none(),
        routing: RoutingMode::PolicyHotPotato,
        topology: None,
    }
}

/// The UW4-B (long-term average) specification: UW4-A with its own
/// schedule, so the two agree on every network and host-selection input.
pub fn spec_b() -> DatasetSpec {
    DatasetSpec {
        name: "UW4-B",
        schedule: Schedule::PairwiseExponential { mean_s: 150.0 },
        ..spec_a()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Family, Scale};
    use detour_measure::Dataset;

    fn uw4_pair(scale: Scale) -> (Dataset, Dataset) {
        let [a, b]: [Dataset; 2] = Family::Uw4.generate(scale).try_into().unwrap();
        (a, b)
    }

    #[test]
    fn a_and_b_share_hosts() {
        let (a, b) = uw4_pair(Scale::reduced(8, 24));
        let ha: Vec<_> = a.hosts.iter().map(|h| h.id).collect();
        let hb: Vec<_> = b.hosts.iter().map(|h| h.id).collect();
        assert_eq!(ha, hb, "UW4-A and UW4-B must measure the same hosts");
    }

    #[test]
    fn a_has_episodes_b_does_not() {
        let (a, b) = uw4_pair(Scale::reduced(8, 24));
        assert!(a.probes.iter().all(|p| p.episode.is_some()));
        assert!(b.probes.iter().all(|p| p.episode.is_none()));
    }

    #[test]
    fn a_vastly_outmeasures_b() {
        // Table 1: 216,928 vs 9,169 — a ~24× ratio. Scaled runs keep the
        // same order of imbalance.
        let (a, b) = uw4_pair(Scale::reduced(8, 24));
        assert!(
            a.probes.len() > 4 * b.probes.len(),
            "{} vs {}",
            a.probes.len(),
            b.probes.len()
        );
    }

    #[test]
    fn episodes_measure_every_ordered_pair() {
        let (a, _) = uw4_pair(Scale::reduced(6, 24));
        let n = a.hosts.len();
        // Full coverage is the UW4 design point (Table 1: 100 %).
        let c = a.characteristics();
        assert!(
            c.coverage_pct > 99.0,
            "coverage {} with {n} hosts",
            c.coverage_pct
        );
    }
}
