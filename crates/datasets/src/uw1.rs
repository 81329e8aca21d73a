//! The UW1 dataset.
//!
//! Table 1: traceroute, 1998, 34 days, 36 North-American hosts (public
//! traceroute servers), 54,034 measurements, 88 % coverage. Requests were
//! timed "from a per-server uniform distribution with a mean of 15
//! minutes" — the paper notes this lacks exponential sampling's protection
//! against anticipation. Rate-limiting targets were only removed from the
//! *target* pool; measurements from the opposite direction stand in for
//! them ([`RateLimitPolicy::ReverseDirection`]).
//!
//! Public traceroute servers of the era were flaky: the contact-failure
//! probability is raised so the measurement yield lands near Table 1's
//! count rather than the schedule's theoretical maximum.

use detour_measure::{CampaignConfig, ProbeKind, RateLimitPolicy, Schedule};
use detour_netsim::{Era, RoutingMode};

use crate::spec::DatasetSpec;

/// Network seed shared by all UW datasets (one 1998-99 Internet).
pub const UW_NETWORK_SEED: u64 = 0x1999_0001;

/// The UW1 specification.
pub fn spec() -> DatasetSpec {
    DatasetSpec {
        name: "UW1",
        era: Era::Y1999,
        network_seed: UW_NETWORK_SEED,
        campaign_seed: 0x09_01,
        duration_days: 34.0,
        n_hosts: 36,
        n_hosts_na: 36,
        schedule: Schedule::PerHostUniform {
            mean_s: 15.0 * 60.0,
        },
        campaign: CampaignConfig {
            kind: ProbeKind::Traceroute,
            // 36 hosts × 96/day × 34 days ≈ 117 k scheduled; Table 1 reports
            // 54 k returned — public servers failed over half the time.
            request_failure_prob: 0.52,
            timeout_s: 300.0,
        },
        policy: RateLimitPolicy::ReverseDirection,
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
    fn uw1_is_na_only_and_keeps_limited_hosts() {
        let ds = generate(&spec(), Scale::reduced(10, 16));
        // ReverseDirection keeps all hosts in the pool.
        assert_eq!(ds.hosts.len(), 10);
        assert!(!ds.probes.is_empty());
    }

    #[test]
    fn probes_toward_limiters_are_reverse_substitutions() {
        // Direct measurements toward a detected limiter are contaminated
        // and dropped; the pair is covered instead by mirroring the
        // opposite direction, so for each limiter the probes toward it can
        // never outnumber the clean probes from it.
        let ds = generate(&spec(), Scale::reduced(12, 16));
        for &d in &ds.detected_rate_limited {
            let toward = ds.probes.iter().filter(|p| p.dst == d).count();
            let from = ds.probes.iter().filter(|p| p.src == d).count();
            assert!(toward <= from, "{d:?}: {toward} toward vs {from} from");
        }
    }

    #[test]
    fn detector_matches_ground_truth() {
        // Every detected host must truly rate limit (no false positives on
        // a healthy sample volume); with ~25 % limited hosts there should
        // also be at least one detection.
        let ds = generate(&spec(), Scale::reduced(12, 8));
        let truth: std::collections::HashMap<_, _> = ds
            .hosts
            .iter()
            .map(|h| (h.id, h.truly_rate_limited))
            .collect();
        for h in &ds.detected_rate_limited {
            if let Some(&t) = truth.get(h) {
                assert!(t, "false positive on {h:?}");
            }
        }
        let limited_in_pool = ds.hosts.iter().filter(|h| h.truly_rate_limited).count();
        if limited_in_pool > 0 {
            assert!(
                !ds.detected_rate_limited.is_empty(),
                "{limited_in_pool} limiters in pool but none detected"
            );
        }
    }
}
