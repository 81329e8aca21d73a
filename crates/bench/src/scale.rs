//! The `scale_sweep` workload: one large dataset for kernel benchmarks.
//!
//! The paper-scale datasets top out around 40 hosts — big enough to
//! reproduce every figure, too small for parallel speedups (or kernel
//! constant factors) to show above the noise. The multipath-selection
//! literature evaluates at hundreds of nodes, so the baseline needs a
//! workload where the O(n³) sweep does real work: this module defines a
//! 128-host synthetic dataset ("SCALE") generated through the same
//! pipeline as the paper datasets and cached through the same trace cache
//! path, as a one-member family
//! (`results/cache/SCALE-o0-h128-t120-g1.trace2`), so only the first
//! baseline run pays for the simulation.
//!
//! The stock Y1999 topology tops out at 85 stub hosts, so SCALE's spec
//! overrides the topology: more stub ASes, one host each, all North
//! American, and **no ICMP rate limiters** — paired with
//! [`RateLimitPolicy::FirstSampleOnly`] this guarantees the assembled
//! dataset keeps all 128 hosts, which the baseline asserts (the
//! acceptance gate requires ≥ 120).

use std::path::Path;

use detour_datasets::spec::{self, DatasetSpec, Scale};
use detour_datasets::uw4;
use detour_measure::{Dataset, RateLimitPolicy, Schedule};
use detour_netsim::topology::generator::TopologyConfig;
use detour_netsim::Era;

use crate::cache::load_or_regenerate;

/// Measurement hosts in the SCALE dataset (the gate requires ≥ 120).
pub const SCALE_HOSTS: usize = 128;

/// The SCALE dataset's collection spec: UW4-A's (full-mesh episodes, so
/// request volume scales with n² where the pairwise Poisson schedules would
/// thin out, over a 14-day nominal trace run through the time divisor
/// below) with its own seeds and 128 hosts, a first-sample-only rate-limit
/// policy so no host is ever dropped, and the era topology widened to 200
/// stub hosts (the era default is 85), pinned to North America and
/// stripped of ICMP rate limiters.
pub fn scale_spec() -> DatasetSpec {
    DatasetSpec {
        name: "SCALE",
        network_seed: 9101,
        campaign_seed: 9102,
        n_hosts: SCALE_HOSTS,
        n_hosts_na: SCALE_HOSTS,
        schedule: Schedule::Episodes { mean_gap_s: 700.0 },
        policy: RateLimitPolicy::FirstSampleOnly,
        topology: Some(TopologyConfig {
            n_stub: 200,
            stubs_na_only: true,
            rate_limited_fraction: 0.0,
            ..TopologyConfig::for_era(Era::Y1999)
        }),
        ..uw4::spec_a()
    }
}

/// The scale knobs: all 128 hosts, duration divided down so the cold
/// generation stays in seconds (≈ 10 000 simulated seconds ≈ 14 full-mesh
/// episodes; `min_samples` scales down to 6 alongside it).
pub fn scale_scale() -> Scale {
    Scale {
        n_hosts: Some(SCALE_HOSTS),
        time_divisor: 120,
        seed_offset: 0,
    }
}

/// Loads the SCALE dataset from the trace cache in `dir`, or generates and
/// saves it. Returns the dataset and whether it was a cache hit. SCALE is
/// a one-member family on its own network, so it goes through the same
/// probe-or-regenerate path as the bundle's families: a corrupt or
/// mismatched file is renamed `*.quarantined` and the dataset regenerated,
/// and the same `cache/*` counters (under a `cache/load` span) report it.
pub fn load_or_generate(dir: &Path) -> std::io::Result<(Dataset, bool)> {
    let _load = detour_obs::current().span("cache/load");
    let (spec, scale) = (scale_spec(), scale_scale());
    let generate = || vec![spec::generate(&spec, scale)];
    let (mut datasets, hit) = load_or_regenerate(dir, &[spec.name], scale, generate)?;
    Ok((datasets.pop().expect("SCALE is one dataset"), hit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_topology_holds_every_host() {
        // Cheap structural check (no campaign): the network SCALE's spec
        // implies must offer at least SCALE_HOSTS eligible NA hosts, or
        // `select_hosts` would return fewer and the SCALE dataset come out
        // smaller than its name says.
        let net = detour_datasets::build_network(&scale_spec(), scale_scale());
        let na = net
            .hosts()
            .iter()
            .filter(|h| {
                !h.icmp_rate_limited && detour_netsim::geo::CITIES[h.city].region.is_north_america()
            })
            .count();
        assert!(na >= SCALE_HOSTS, "only {na} eligible NA hosts");
    }
}
