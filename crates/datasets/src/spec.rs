//! Dataset specifications and the shared generation pipeline.
//!
//! A [`DatasetSpec`] captures everything Table 1 and §4.2 say about one
//! dataset: era, duration, host counts and geography, request schedule,
//! probe kind, and rate-limit correction policy, plus the network it is
//! measured on (routing mode and topology), so that a spec and a [`Scale`]
//! determine their dataset. [`generate`] runs the
//! full pipeline: build the spec's network → select hosts → generate the
//! request schedule → run the measurement campaign → assemble and clean the
//! dataset.

use detour_faults::FaultConfig;
use detour_measure::{run_campaign, CampaignConfig, Dataset, HostMeta, RateLimitPolicy, Schedule};
use detour_netsim::geo::CITIES;
use detour_netsim::topology::generator::TopologyConfig;
use detour_netsim::{Era, HostId, Network, NetworkConfig, RoutingMode};
use detour_prng::SliceRandom;
use detour_prng::Xoshiro256pp;

/// Full description of one dataset's collection process.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Display name ("UW3", "D2", …).
    pub name: &'static str,
    /// Which Internet era to simulate.
    pub era: Era,
    /// Seed for network generation (datasets of the same study share it —
    /// D2 and N2 saw the same 1995 Internet; the UW datasets the same
    /// 1998-99 one).
    pub network_seed: u64,
    /// Seed for host selection and the measurement campaign.
    pub campaign_seed: u64,
    /// Trace duration, days (Table 1).
    pub duration_days: f64,
    /// Total measurement hosts.
    pub n_hosts: usize,
    /// How many of them must be North American (= `n_hosts` for the
    /// NA-only UW datasets).
    pub n_hosts_na: usize,
    /// Request timing discipline.
    pub schedule: Schedule,
    /// Probe machinery configuration.
    pub campaign: CampaignConfig,
    /// Rate-limit correction policy (§4.2).
    pub policy: RateLimitPolicy,
    /// Minimum probes per directed path (paper: 30).
    pub min_samples: usize,
    /// Whether the host pool was pre-screened to exclude ICMP rate
    /// limiters (UW4 drew from hosts already validated during UW3).
    pub prescreened: bool,
    /// Injected faults ([`FaultConfig::none`] for every paper dataset).
    /// The network-side classes (links, routers, withdrawals) go into the
    /// network build; the campaign-side classes (host outages, storms,
    /// truncation) into the measurement run — one knob drives both.
    pub faults: FaultConfig,
    /// Path-selection rule of the network ([`RoutingMode::PolicyHotPotato`]
    /// for every paper dataset; the routing-policy ablation varies it).
    pub routing: RoutingMode,
    /// Topology of the network; `None` is [`TopologyConfig::for_era`] of
    /// `era`.
    pub topology: Option<TopologyConfig>,
}

/// Scaling for fast tests/examples: fewer hosts, shorter trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Override host count (`None` keeps the spec's).
    pub n_hosts: Option<usize>,
    /// Divide the duration by this factor (≥ 1).
    pub time_divisor: u32,
    /// Perturbation XOR-mixed into every spec seed (`0` = the canonical
    /// run). Lets one binary (`figures --seed S`) regenerate the whole
    /// study on a different simulated Internet while preserving the
    /// seed-sharing between sibling datasets (D2/N2 on one network, the
    /// UW family on another).
    pub seed_offset: u64,
}

impl Scale {
    /// Full paper scale.
    pub fn full() -> Scale {
        Scale {
            n_hosts: None,
            time_divisor: 1,
            seed_offset: 0,
        }
    }

    /// A reduced scale for tests and examples.
    pub fn reduced(n_hosts: usize, time_divisor: u32) -> Scale {
        assert!(time_divisor >= 1);
        Scale {
            n_hosts: Some(n_hosts),
            time_divisor,
            seed_offset: 0,
        }
    }

    /// The same scale with the given seed perturbation.
    pub fn with_seed_offset(mut self, offset: u64) -> Scale {
        self.seed_offset = offset;
        self
    }

    /// A spec seed perturbed by the offset; identity when the offset is 0,
    /// and equal inputs map to equal outputs, so datasets that share a seed
    /// keep sharing it at every offset.
    pub fn mixed_seed(&self, seed: u64) -> u64 {
        seed ^ self.seed_offset.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Builds the network a spec measures. [`crate::Family::generate`] calls it
/// once per family; the baseline's campaign workload and `benchmark/` call
/// it to drive a network beside a campaign of their own.
pub fn build_network(spec: &DatasetSpec, scale: Scale) -> Network {
    Network::generate(&network_config(spec, scale))
}

/// The network config a spec implies: era defaults with the spec's
/// topology, routing mode and injected network faults — the only place a
/// spec becomes a [`NetworkConfig`].
pub(crate) fn network_config(spec: &DatasetSpec, scale: Scale) -> NetworkConfig {
    let horizon_days = spec.duration_days / scale.time_divisor as f64;
    let mut cfg =
        NetworkConfig::for_era(spec.era, scale.mixed_seed(spec.network_seed), horizon_days);
    cfg.topology = spec.topology.unwrap_or(cfg.topology);
    cfg.mode = spec.routing;
    cfg.faults = spec.faults;
    cfg
}

/// Selects the measurement hosts: `n_na` North American plus the remainder
/// from elsewhere, deterministically in `seed`. With `prescreened`, hosts
/// known to rate-limit are excluded up front (the UW4 pools were validated
/// during earlier campaigns). A topology that offers fewer eligible hosts
/// in a region than asked for contributes all it has, so the dataset comes
/// out smaller (Table 1's host column shows it) instead of failing.
pub fn select_hosts(
    net: &Network,
    n_total: usize,
    n_na: usize,
    seed: u64,
    prescreened: bool,
) -> Vec<HostId> {
    assert!(n_na <= n_total);
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5e1e_c7ed);
    let eligible = |h: &&detour_netsim::topology::Host| !prescreened || !h.icmp_rate_limited;
    let mut na: Vec<HostId> = net
        .hosts()
        .iter()
        .filter(eligible)
        .filter(|h| CITIES[h.city].region.is_north_america())
        .map(|h| h.id)
        .collect();
    let mut world: Vec<HostId> = net
        .hosts()
        .iter()
        .filter(eligible)
        .filter(|h| !CITIES[h.city].region.is_north_america())
        .map(|h| h.id)
        .collect();
    na.shuffle(&mut rng);
    world.shuffle(&mut rng);
    let mut out: Vec<HostId> = na.into_iter().take(n_na).collect();
    out.extend(world.into_iter().take(n_total - n_na));
    out.sort();
    out
}

/// Runs the full generation pipeline for `spec` at `scale`.
///
/// Wall-clock attribution goes through the current `detour-obs` recorder:
/// `net/build` + `net/routing` (recorded by [`Network::generate`]) cover
/// the substrate, `dataset/campaign` the measurement campaign, and
/// `dataset/assemble` the rate-limit policy + filtering + packaging tail.
/// The spans are instrumentation only — output is unaffected.
pub fn generate(spec: &DatasetSpec, scale: Scale) -> Dataset {
    let net = build_network(spec, scale);
    generate_on(&net, spec, scale)
}

/// Like [`generate`] but over a caller-provided network — lets UW4-A and
/// UW4-B (or an example) share one network instance.
pub fn generate_on(net: &Network, spec: &DatasetSpec, scale: Scale) -> Dataset {
    let n_hosts = scale.n_hosts.unwrap_or(spec.n_hosts);
    let n_na = if scale.n_hosts.is_some() {
        // Scaled runs keep the spec's NA proportion.
        (n_hosts as f64 * spec.n_hosts_na as f64 / spec.n_hosts as f64).round() as usize
    } else {
        spec.n_hosts_na
    };
    let campaign_seed = scale.mixed_seed(spec.campaign_seed);
    let hosts = select_hosts(
        net,
        n_hosts,
        n_na.min(n_hosts),
        campaign_seed,
        spec.prescreened,
    );
    let duration_s = spec.duration_days * 86_400.0 / scale.time_divisor as f64;

    let rec = detour_obs::current();
    let mut rng = Xoshiro256pp::seed_from_u64(campaign_seed);
    let requests = spec.schedule.generate(&hosts, duration_s, &mut rng);
    let campaign_span = rec.span("dataset/campaign");
    let raw = run_campaign(net, &requests, &spec.campaign, campaign_seed, &spec.faults);
    campaign_span.finish();
    let assemble_span = rec.span("dataset/assemble");

    let metas: Vec<HostMeta> = hosts
        .iter()
        .map(|&id| {
            let h = net.host(id);
            HostMeta {
                id,
                name: h.name.clone(),
                asn: h.asn.0,
                truly_rate_limited: h.icmp_rate_limited,
            }
        })
        .collect();

    let min_samples = if scale.time_divisor > 1 {
        (spec.min_samples / scale.time_divisor as usize).max(6)
    } else {
        spec.min_samples
    };
    let ds = Dataset::assemble(spec.name, metas, &raw, spec.policy, min_samples, duration_s);
    assemble_span.finish();
    ds
}

/// Restricts a world dataset to its North American hosts, renaming it —
/// how D2-NA and N2-NA are derived from D2 and N2.
pub fn restrict_na(net: &Network, parent: &Dataset, name: &str) -> Dataset {
    let keep: Vec<HostId> = parent
        .hosts
        .iter()
        .filter(|h| CITIES[net.host(h.id).city].region.is_north_america())
        .map(|h| h.id)
        .collect();
    let mut ds = parent.restrict_to_hosts(&keep);
    ds.name = name.to_string();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "TINY",
            era: Era::Y1999,
            network_seed: 11,
            campaign_seed: 12,
            duration_days: 0.25,
            n_hosts: 8,
            n_hosts_na: 8,
            schedule: Schedule::PairwiseExponential { mean_s: 30.0 },
            campaign: CampaignConfig::traceroute(),
            policy: RateLimitPolicy::FilterHosts,
            min_samples: 12,
            prescreened: false,
            faults: FaultConfig::none(),
            routing: RoutingMode::PolicyHotPotato,
            topology: None,
        }
    }

    #[test]
    fn a_topology_short_of_hosts_yields_every_eligible_one() {
        // At seed offset 8 the D2 topology has fewer eligible world hosts
        // than the spec's 11: the selection takes all of them.
        let spec = crate::d2::spec();
        let scale = Scale::full().with_seed_offset(8);
        let net = build_network(&spec, scale);
        let world = net
            .hosts()
            .iter()
            .filter(|h| !CITIES[h.city].region.is_north_america())
            .count();
        let (n, n_na) = (spec.n_hosts, spec.n_hosts_na);
        assert!(world < n - n_na, "{world} world hosts");
        let seed = scale.mixed_seed(spec.campaign_seed);
        let hosts = select_hosts(&net, n, n_na, seed, spec.prescreened);
        let na = |h: &&HostId| CITIES[net.host(**h).city].region.is_north_america();
        assert_eq!(hosts.iter().filter(na).count(), n_na);
        assert_eq!(hosts.len(), n_na + world);
    }

    #[test]
    fn a_spec_derives_the_network_the_hand_recipe_built() {
        // The oracle: the era's config with the one field set by hand.
        let scale = Scale::reduced(6, 2);
        let by_hand = |spec: &DatasetSpec, edit: &dyn Fn(&mut NetworkConfig)| {
            let mut cfg =
                NetworkConfig::for_era(spec.era, spec.network_seed, spec.duration_days / 2.0);
            edit(&mut cfg);
            crate::trace2::to_bytes(&generate_on(&Network::generate(&cfg), spec, scale))
        };
        let via_spec = |spec: &DatasetSpec| crate::trace2::to_bytes(&generate(spec, scale));
        for mode in [
            RoutingMode::PolicyHotPotato,
            RoutingMode::PolicyBestExit,
            RoutingMode::GlobalShortestDelay,
        ] {
            let spec = DatasetSpec {
                routing: mode,
                ..tiny_spec()
            };
            let hand = by_hand(&spec, &|cfg| cfg.mode = mode);
            assert!(via_spec(&spec) == hand, "{mode:?}");
        }
        let wide = TopologyConfig {
            n_stub: 40,
            stubs_na_only: true,
            rate_limited_fraction: 0.0,
            ..TopologyConfig::for_era(Era::Y1999)
        };
        let spec = DatasetSpec {
            topology: Some(wide),
            ..tiny_spec()
        };
        let hand = by_hand(&spec, &|cfg| cfg.topology = wide);
        assert!(via_spec(&spec) == hand, "topology override");
        assert!(via_spec(&tiny_spec()) != hand, "the override applies");
    }

    #[test]
    fn pipeline_produces_a_populated_dataset() {
        let ds = generate(&tiny_spec(), Scale::full());
        assert!(!ds.probes.is_empty());
        assert!(ds.hosts.len() <= 8, "rate-limit filtering may drop hosts");
        assert!(ds.hosts.len() >= 4);
        let c = ds.characteristics();
        assert!(c.coverage_pct > 30.0, "coverage {}", c.coverage_pct);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&tiny_spec(), Scale::full());
        let b = generate(&tiny_spec(), Scale::full());
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.hosts, b.hosts);
    }

    #[test]
    fn host_selection_respects_geography() {
        let spec = tiny_spec();
        let net = build_network(&spec, Scale::full());
        let hosts = select_hosts(&net, 10, 7, 99, false);
        let na = hosts
            .iter()
            .filter(|&&h| CITIES[net.host(h).city].region.is_north_america())
            .count();
        assert_eq!(na, 7);
        assert_eq!(hosts.len(), 10);
    }

    #[test]
    fn host_selection_is_deterministic_and_seed_sensitive() {
        let spec = tiny_spec();
        let net = build_network(&spec, Scale::full());
        assert_eq!(
            select_hosts(&net, 12, 12, 5, false),
            select_hosts(&net, 12, 12, 5, false)
        );
        assert_ne!(
            select_hosts(&net, 12, 12, 5, false),
            select_hosts(&net, 12, 12, 6, false)
        );
    }

    #[test]
    fn seed_offset_zero_is_identity_and_nonzero_changes_the_world() {
        let base = generate(&tiny_spec(), Scale::full());
        let same = generate(&tiny_spec(), Scale::full().with_seed_offset(0));
        assert_eq!(base.probes, same.probes);
        assert_eq!(base.hosts, same.hosts);
        let other = generate(&tiny_spec(), Scale::full().with_seed_offset(7));
        assert_ne!(base.probes, other.probes);
    }

    #[test]
    fn mixed_seed_preserves_seed_sharing() {
        let s = Scale::full().with_seed_offset(1234);
        // Equal seeds stay equal (siblings keep sharing one network)...
        assert_eq!(s.mixed_seed(42), s.mixed_seed(42));
        // ...distinct seeds stay distinct, and the offset actually mixes.
        assert_ne!(s.mixed_seed(42), s.mixed_seed(43));
        assert_ne!(s.mixed_seed(42), Scale::full().mixed_seed(42));
    }

    #[test]
    fn scaling_reduces_volume() {
        let full = generate(&tiny_spec(), Scale::full());
        let scaled = generate(&tiny_spec(), Scale::reduced(6, 2));
        assert!(scaled.probes.len() < full.probes.len());
        assert!(scaled.hosts.len() <= 6);
    }

    #[test]
    fn tcp_spec_produces_transfers() {
        let mut spec = tiny_spec();
        spec.campaign = CampaignConfig::tcp();
        spec.schedule = Schedule::PairwiseExponential { mean_s: 120.0 };
        spec.min_samples = 6;
        let ds = generate(&spec, Scale::full());
        assert!(!ds.transfers.is_empty());
        assert!(ds.probes.is_empty());
    }

    #[test]
    fn restrict_na_drops_world_hosts() {
        let mut spec = tiny_spec();
        spec.n_hosts = 10;
        spec.n_hosts_na = 6;
        let net = build_network(&spec, Scale::full());
        let world = generate_on(&net, &spec, Scale::full());
        let na = restrict_na(&net, &world, "TINY-NA");
        assert_eq!(na.name, "TINY-NA");
        assert!(na.hosts.len() <= 6);
        for h in &na.hosts {
            assert!(CITIES[net.host(h.id).city].region.is_north_america());
        }
    }
}
