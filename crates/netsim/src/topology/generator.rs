//! Synthetic topology generation.
//!
//! Generates the hierarchical AS topology described in [`super`]: tier-1
//! backbones, regional providers, and stub edge networks, embedded in the
//! city database of [`crate::geo`]. Two parameter *eras* reproduce the
//! infrastructures the paper's datasets saw: 1995 (D2/N2 — NSFNET-
//! aftermath, T3 backbones, few providers, congested public exchanges) and
//! 1998-99 (UW datasets — more providers, OC-3/OC-12 backbones, more
//! private interconnects).
//!
//! Generation is fully deterministic given the RNG.

use detour_prng::Rng;
use detour_prng::SliceRandom;

use crate::geo::{self, CityId, Region, CITIES};
use crate::topology::{
    AsEdge, AsId, AsTier, AutonomousSystem, Host, HostId, Link, LinkId, LinkKind, Relationship,
    Router, RouterId, Topology,
};

/// Which generation of Internet infrastructure to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Era {
    /// Mid-1990s: few providers, T1/T3 links, heavily loaded public IXPs.
    Y1995,
    /// Late 1990s: more providers and private peering, OC-3/OC-12 cores.
    Y1999,
}

/// Tuning knobs for topology generation.
#[derive(Debug, Clone, Copy)]
pub struct TopologyConfig {
    /// Infrastructure era.
    pub era: Era,
    /// Number of tier-1 backbone ASes.
    pub n_tier1: usize,
    /// Number of regional provider ASes.
    pub n_regional: usize,
    /// Number of stub (edge) ASes — hosts live here.
    pub n_stub: usize,
    /// Probability that a pair of regionals in the same broad area peer.
    pub regional_peering_prob: f64,
    /// Probability that a stub is multi-homed to two providers.
    pub multihome_prob: f64,
    /// Fraction of hosts that ICMP-rate-limit their responses.
    pub rate_limited_fraction: f64,
    /// Hosts attached per stub AS.
    pub hosts_per_stub: usize,
    /// Restrict stub ASes (and hence hosts) to North America.
    pub stubs_na_only: bool,
}

impl TopologyConfig {
    /// Defaults for the given era, sized like the paper's measurement-era
    /// Internet (scaled down: we only need enough diversity to embed a few
    /// dozen measurement hosts).
    pub fn for_era(era: Era) -> TopologyConfig {
        match era {
            Era::Y1995 => TopologyConfig {
                era,
                n_tier1: 4,
                n_regional: 9,
                n_stub: 50,
                regional_peering_prob: 0.15,
                multihome_prob: 0.20,
                rate_limited_fraction: 0.25,
                hosts_per_stub: 1,
                stubs_na_only: false,
            },
            Era::Y1999 => TopologyConfig {
                era,
                n_tier1: 6,
                n_regional: 14,
                n_stub: 85,
                regional_peering_prob: 0.30,
                multihome_prob: 0.28,
                rate_limited_fraction: 0.25,
                hosts_per_stub: 1,
                stubs_na_only: false,
            },
        }
    }
}

/// Cities that host a public exchange point in this model (the MAE-East /
/// MAE-West / AADS generation — chronically congested in the mid-90s).
const IXP_CITY_NAMES: &[&str] = &[
    "Washington DC",
    "Palo Alto",
    "Chicago",
    "New York",
    "Dallas",
    "London",
    "Tokyo",
];

fn ixp_cities() -> Vec<CityId> {
    CITIES
        .iter()
        .enumerate()
        .filter(|(_, c)| IXP_CITY_NAMES.contains(&c.name))
        .map(|(i, _)| i)
        .collect()
}

/// Incremental builder around [`Topology`].
struct Builder {
    ases: Vec<AutonomousSystem>,
    as_edges: Vec<AsEdge>,
    routers: Vec<Router>,
    links: Vec<Link>,
    hosts: Vec<Host>,
    adjacency: Vec<Vec<LinkId>>,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            ases: Vec::new(),
            as_edges: Vec::new(),
            routers: Vec::new(),
            links: Vec::new(),
            hosts: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    fn add_as(&mut self, tier: AsTier, pops: Vec<CityId>, delay_metrics: bool) -> AsId {
        let id = AsId(self.ases.len() as u16);
        let routers: Vec<RouterId> = pops
            .iter()
            .map(|&city| {
                let rid = RouterId(self.routers.len() as u32);
                self.routers.push(Router {
                    id: rid,
                    asn: id,
                    city,
                });
                self.adjacency.push(Vec::new());
                rid
            })
            .collect();
        self.ases.push(AutonomousSystem {
            id,
            tier,
            pops,
            routers,
            igp_uses_delay_metrics: delay_metrics,
        });
        id
    }

    /// Adds a bidirectional link (two unidirectional records).
    fn add_link_pair(&mut self, a: RouterId, b: RouterId, capacity_mbps: f64, kind: LinkKind) {
        let delay = geo::fiber_delay_ms(
            CITIES[self.routers[a.0 as usize].city]
                .loc
                .distance_km(&CITIES[self.routers[b.0 as usize].city].loc),
        );
        for (from, to) in [(a, b), (b, a)] {
            let id = LinkId(self.links.len() as u32);
            self.links.push(Link {
                id,
                from,
                to,
                prop_delay_ms: delay,
                capacity_mbps,
                kind,
            });
            self.adjacency[from.0 as usize].push(id);
        }
    }

    fn finish(self) -> Topology {
        Topology {
            ases: self.ases,
            as_edges: self.as_edges,
            routers: self.routers,
            links: self.links,
            hosts: self.hosts,
            adjacency: self.adjacency,
        }
    }
}

/// Distance between the closest POP pair of two ASes, and that pair.
fn closest_pops(topo: &Builder, a: AsId, b: AsId) -> (RouterId, RouterId, f64) {
    let mut best = (RouterId(0), RouterId(0), f64::INFINITY);
    for &ra in &topo.ases[a.0 as usize].routers {
        for &rb in &topo.ases[b.0 as usize].routers {
            let d = CITIES[topo.routers[ra.0 as usize].city]
                .loc
                .distance_km(&CITIES[topo.routers[rb.0 as usize].city].loc);
            if d < best.2 {
                best = (ra, rb, d);
            }
        }
    }
    best
}

/// Router pairs of two ASes located in the *same* city (candidate
/// interconnection points), sorted by city id for determinism.
fn colocated_pops(topo: &Builder, a: AsId, b: AsId) -> Vec<(RouterId, RouterId)> {
    let mut out = Vec::new();
    for &ra in &topo.ases[a.0 as usize].routers {
        for &rb in &topo.ases[b.0 as usize].routers {
            if topo.routers[ra.0 as usize].city == topo.routers[rb.0 as usize].city {
                out.push((ra, rb));
            }
        }
    }
    out.sort_by_key(|&(ra, _)| topo.routers[ra.0 as usize].city);
    out
}

/// Connects the POPs of one AS into a backbone: a minimum-spanning tree on
/// great-circle distance plus one ring-closing chord for redundancy.
fn build_backbone(b: &mut Builder, asn: AsId, capacity: f64, rng: &mut impl Rng) {
    let routers = b.ases[asn.0 as usize].routers.clone();
    if routers.len() <= 1 {
        return;
    }
    // Prim's MST over POP distances.
    let n = routers.len();
    let dist = |b: &Builder, i: usize, j: usize| {
        CITIES[b.routers[routers[i].0 as usize].city]
            .loc
            .distance_km(&CITIES[b.routers[routers[j].0 as usize].city].loc)
    };
    let mut in_tree = vec![false; n];
    in_tree[0] = true;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for _ in 1..n {
        let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..n {
            if !in_tree[i] {
                continue;
            }
            for (j, &in_j) in in_tree.iter().enumerate() {
                if in_j {
                    continue;
                }
                let d = dist(b, i, j);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        in_tree[best.1] = true;
        edges.push((best.0, best.1));
    }
    // One extra chord between two random distinct leaves for redundancy
    // (keeps IGP paths from being forced through a single hub).
    if n >= 4 {
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if j == i {
            j = (j + 1) % n;
        }
        if !edges.contains(&(i, j)) && !edges.contains(&(j, i)) {
            edges.push((i, j));
        }
    }
    for (i, j) in edges {
        let cap = capacity * rng.gen_range(0.8..1.2);
        b.add_link_pair(routers[i], routers[j], cap, LinkKind::Internal);
    }
}

/// Generates a complete topology from `cfg` using `rng`.
///
/// Structural guarantees (checked by tests and relied on by routing):
/// * tier-1 ASes form a full peering mesh;
/// * every regional has at least one tier-1 provider;
/// * every stub has at least one provider;
/// * every AS relationship is realized by at least one physical link pair.
pub fn generate(cfg: &TopologyConfig, rng: &mut impl Rng) -> Topology {
    let mut b = Builder::new();
    let na = geo::north_american_cities();
    let world = geo::all_cities();
    let ixps = ixp_cities();

    let (core_cap, regional_cap, stub_cap) = match cfg.era {
        Era::Y1995 => (45.0, 20.0, 4.0), // T3 cores, sub-T3 regionals, ~T1+ stubs
        Era::Y1999 => (400.0, 120.0, 20.0), // OC-12-ish cores, OC-3 regionals
    };

    // --- Tier-1 backbones: many POPs, NA-centric with world reach. ---
    let mut tier1s = Vec::new();
    for t in 0..cfg.n_tier1 {
        let n_pops = rng.gen_range(8..=12.min(na.len()));
        let mut pops: Vec<CityId> = na.clone();
        pops.shuffle(rng);
        pops.truncate(n_pops);
        // Every other tier-1 also lands POPs abroad so world datasets have
        // transit; id parity keeps it deterministic.
        if t % 2 == 0 {
            for &c in world
                .iter()
                .filter(|&&c| !CITIES[c].region.is_north_america())
            {
                if rng.gen_bool(0.35) {
                    pops.push(c);
                }
            }
        }
        pops.sort_unstable();
        pops.dedup();
        let asn = b.add_as(AsTier::Tier1, pops, true);
        build_backbone(&mut b, asn, core_cap, rng);
        tier1s.push(asn);
    }

    // --- Regional providers: a handful of POPs in one broad area. ---
    let mut regionals = Vec::new();
    let regions = [
        Region::NaWest,
        Region::NaCentral,
        Region::NaEast,
        Region::Europe,
        Region::Asia,
    ];
    for r in 0..cfg.n_regional {
        // Cycle regions so each area gets coverage; NA gets the lion's share.
        let region = regions[r % if cfg.stubs_na_only { 3 } else { regions.len() }];
        let mut pool: Vec<CityId> = (0..CITIES.len())
            .filter(|&c| CITIES[c].region == region)
            .collect();
        // Regionals also reach into one adjacent NA region for realism.
        if region == Region::NaCentral {
            pool.extend((0..CITIES.len()).filter(|&c| CITIES[c].region == Region::NaEast));
        }
        pool.shuffle(rng);
        let n_pops = rng.gen_range(3..=5usize).min(pool.len());
        pool.truncate(n_pops.max(1));
        let asn = b.add_as(AsTier::Regional, pool, rng.gen_bool(0.5));
        build_backbone(&mut b, asn, regional_cap, rng);
        regionals.push(asn);
    }

    // --- Stub ASes: one POP, hosts attached. ---
    let mut stubs = Vec::new();
    let abroad: Vec<CityId> = world
        .iter()
        .copied()
        .filter(|&c| !CITIES[c].region.is_north_america())
        .collect();
    for _ in 0..cfg.n_stub {
        // Stubs cluster in NA (as the paper's host pools did) even in the
        // world configuration: ~2/3 NA, 1/3 elsewhere.
        let city = if cfg.stubs_na_only || rng.gen_bool(0.67) {
            na[rng.gen_range(0..na.len())]
        } else {
            abroad[rng.gen_range(0..abroad.len())]
        };
        let asn = b.add_as(AsTier::Stub, vec![city], false);
        stubs.push(asn);
    }

    // --- AS relationships. ---
    // Tier-1 full mesh of peering, interconnected at 2-3 points each:
    // prefer colocated POPs; IXP cities get PublicExchange ports.
    for i in 0..tier1s.len() {
        for j in (i + 1)..tier1s.len() {
            let (a, bb) = (tier1s[i], tier1s[j]);
            b.as_edges.push(AsEdge {
                a,
                b: bb,
                rel: Relationship::Peer,
            });
            let colo = colocated_pops(&b, a, bb);
            let n_points = rng.gen_range(2..=3usize).min(colo.len().max(1));
            if colo.is_empty() {
                let (ra, rb, _) = closest_pops(&b, a, bb);
                b.add_link_pair(ra, rb, core_cap, LinkKind::PrivateInterconnect);
            } else {
                // Deterministically spread the chosen interconnects.
                let step = (colo.len() / n_points).max(1);
                for k in 0..n_points {
                    let (ra, rb) = colo[(k * step) % colo.len()];
                    let city = b.routers[ra.0 as usize].city;
                    let kind = if ixps.contains(&city) {
                        LinkKind::PublicExchange
                    } else {
                        LinkKind::PrivateInterconnect
                    };
                    b.add_link_pair(ra, rb, core_cap, kind);
                }
            }
        }
    }

    // Regionals buy transit from 1-2 tier-1s, and peer with some other
    // regionals. Provider choice is mostly-but-not-always geographic:
    // transit contracts follow price and history as much as fiber miles
    // (the economic non-optimality of paper §3), so ~30 % of the time a
    // regional signs with a random tier-1 rather than the nearest.
    for &r in &regionals {
        let mut providers: Vec<AsId> = tier1s.clone();
        providers.sort_by(|&p, &q| {
            let dp = closest_pops(&b, p, r).2;
            let dq = closest_pops(&b, q, r).2;
            dp.partial_cmp(&dq).unwrap()
        });
        if rng.gen_bool(0.2) {
            providers.shuffle(rng);
        }
        let n_prov = if rng.gen_bool(0.5) { 2 } else { 1 }.min(providers.len());
        for &p in providers.iter().take(n_prov) {
            b.as_edges.push(AsEdge {
                a: p,
                b: r,
                rel: Relationship::ProviderCustomer,
            });
            let colo = colocated_pops(&b, p, r);
            let (ra, rb) = if colo.is_empty() {
                let (ra, rb, _) = closest_pops(&b, p, r);
                (ra, rb)
            } else {
                colo[0]
            };
            let city = b.routers[ra.0 as usize].city;
            let kind = if ixps.contains(&city) && rng.gen_bool(era_ixp_prob(cfg.era)) {
                LinkKind::PublicExchange
            } else {
                LinkKind::PrivateInterconnect
            };
            b.add_link_pair(ra, rb, regional_cap, kind);
        }
    }
    for i in 0..regionals.len() {
        for j in (i + 1)..regionals.len() {
            if rng.gen_bool(cfg.regional_peering_prob) {
                let (a, bb) = (regionals[i], regionals[j]);
                b.as_edges.push(AsEdge {
                    a,
                    b: bb,
                    rel: Relationship::Peer,
                });
                let (ra, rb, _) = closest_pops(&b, a, bb);
                let city = b.routers[ra.0 as usize].city;
                let kind = if ixps.contains(&city) {
                    LinkKind::PublicExchange
                } else {
                    LinkKind::PrivateInterconnect
                };
                b.add_link_pair(ra, rb, regional_cap, kind);
            }
        }
    }

    // Stubs buy transit from nearby regionals (or a tier-1), with optional
    // multi-homing. As with regionals, ~20 % of contracts ignore geography
    // — a campus buying from a national ISP with no local POP is exactly
    // the kind of path-stretch the paper's alternate paths route around.
    for &s in &stubs {
        let mut candidates: Vec<AsId> = regionals.iter().chain(tier1s.iter()).copied().collect();
        candidates.sort_by(|&p, &q| {
            let mut dp = closest_pops(&b, p, s).2;
            let mut dq = closest_pops(&b, q, s).2;
            // Bias toward regionals: tier-1 transit costs more.
            if b.ases[p.0 as usize].tier == AsTier::Tier1 {
                dp *= 2.0;
            }
            if b.ases[q.0 as usize].tier == AsTier::Tier1 {
                dq *= 2.0;
            }
            dp.partial_cmp(&dq).unwrap()
        });
        if rng.gen_bool(0.2) {
            let k = candidates.len().min(6);
            candidates[..k].shuffle(rng);
        }
        let n_prov = if rng.gen_bool(cfg.multihome_prob) {
            2
        } else {
            1
        };
        for &p in candidates.iter().take(n_prov.min(candidates.len())) {
            b.as_edges.push(AsEdge {
                a: p,
                b: s,
                rel: Relationship::ProviderCustomer,
            });
            let (ra, rb, _) = closest_pops(&b, p, s);
            b.add_link_pair(
                ra,
                rb,
                stub_cap * rng.gen_range(0.7..1.5),
                LinkKind::PrivateInterconnect,
            );
        }
    }

    // --- Hosts on stub ASes. ---
    for &s in &stubs {
        let asys = b.ases[s.0 as usize].clone();
        for h in 0..cfg.hosts_per_stub {
            let id = HostId(b.hosts.len() as u32);
            let router = asys.routers[h % asys.routers.len()];
            let city = b.routers[router.0 as usize].city;
            b.hosts.push(Host {
                id,
                router,
                asn: s,
                city,
                name: format!("host{h}.as{}.{}", s.0, CITIES[city].name.replace(' ', "-")),
                icmp_rate_limited: rng.gen_bool(cfg.rate_limited_fraction),
            });
        }
    }

    b.finish()
}

/// Probability that a provider-customer interconnect in an IXP city rides
/// the shared public fabric (high in 1995, lower by 1999 as private peering
/// spread).
fn era_ixp_prob(era: Era) -> f64 {
    match era {
        Era::Y1995 => 0.8,
        Era::Y1999 => 0.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_prng::Xoshiro256pp;

    fn topo(era: Era, seed: u64) -> Topology {
        let cfg = TopologyConfig::for_era(era);
        generate(&cfg, &mut Xoshiro256pp::seed_from_u64(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = topo(Era::Y1999, 7);
        let b = topo(Era::Y1999, 7);
        assert_eq!(a.ases.len(), b.ases.len());
        assert_eq!(a.links.len(), b.links.len());
        assert_eq!(a.hosts.len(), b.hosts.len());
        for (la, lb) in a.links.iter().zip(&b.links) {
            assert_eq!(la.from, lb.from);
            assert_eq!(la.to, lb.to);
            assert_eq!(la.prop_delay_ms, lb.prop_delay_ms);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = topo(Era::Y1999, 1);
        let b = topo(Era::Y1999, 2);
        let same_links = a.links.len() == b.links.len()
            && a.links
                .iter()
                .zip(&b.links)
                .all(|(x, y)| x.from == y.from && x.to == y.to);
        assert!(!same_links, "seeds should produce different link sets");
    }

    #[test]
    fn every_stub_has_a_provider() {
        let t = topo(Era::Y1999, 3);
        for asys in t.ases.iter().filter(|a| a.tier == AsTier::Stub) {
            assert!(
                t.providers_of(asys.id).count() >= 1,
                "stub {:?} has no provider",
                asys.id
            );
        }
    }

    #[test]
    fn every_regional_has_a_tier1_provider() {
        let t = topo(Era::Y1995, 4);
        for asys in t.ases.iter().filter(|a| a.tier == AsTier::Regional) {
            let has = t
                .providers_of(asys.id)
                .any(|p| t.asys(p).tier == AsTier::Tier1);
            assert!(has, "regional {:?} lacks tier-1 transit", asys.id);
        }
    }

    #[test]
    fn tier1s_are_fully_meshed() {
        let t = topo(Era::Y1999, 5);
        let tier1s: Vec<AsId> = t
            .ases
            .iter()
            .filter(|a| a.tier == AsTier::Tier1)
            .map(|a| a.id)
            .collect();
        for (i, &a) in tier1s.iter().enumerate() {
            for &b in &tier1s[i + 1..] {
                assert!(
                    t.peers_of(a).any(|p| p == b),
                    "tier1 {a:?} and {b:?} are not peered"
                );
            }
        }
    }

    #[test]
    fn every_relationship_has_a_physical_link() {
        let t = topo(Era::Y1999, 6);
        for e in &t.as_edges {
            assert!(
                t.ases_physically_connected(e.a, e.b) || t.ases_physically_connected(e.b, e.a),
                "relationship {:?}-{:?} has no link",
                e.a,
                e.b
            );
        }
    }

    #[test]
    fn links_come_in_directional_pairs() {
        let t = topo(Era::Y1995, 8);
        for l in &t.links {
            assert!(
                t.link_between(l.to, l.from).is_some(),
                "link {:?}->{:?} has no reverse",
                l.from,
                l.to
            );
        }
    }

    #[test]
    fn intra_as_backbone_is_connected() {
        let t = topo(Era::Y1999, 9);
        for asys in &t.ases {
            let n = asys.routers.len();
            if n <= 1 {
                continue;
            }
            // BFS within the AS over internal links.
            let mut seen = vec![false; n];
            let index = |r: RouterId| asys.routers.iter().position(|&x| x == r).unwrap();
            seen[0] = true;
            let mut queue = vec![asys.routers[0]];
            while let Some(r) = queue.pop() {
                for l in t.links_from(r) {
                    if l.kind == LinkKind::Internal && t.router(l.to).asn == asys.id {
                        let j = index(l.to);
                        if !seen[j] {
                            seen[j] = true;
                            queue.push(l.to);
                        }
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "AS {:?} backbone disconnected",
                asys.id
            );
        }
    }

    #[test]
    fn hosts_live_on_stub_ases() {
        let t = topo(Era::Y1999, 10);
        assert!(!t.hosts.is_empty());
        for h in &t.hosts {
            assert_eq!(t.asys(h.asn).tier, AsTier::Stub);
            assert_eq!(t.router(h.router).asn, h.asn);
        }
    }

    #[test]
    fn some_hosts_rate_limit_and_some_dont() {
        let t = topo(Era::Y1999, 11);
        let limited = t.hosts.iter().filter(|h| h.icmp_rate_limited).count();
        assert!(limited > 0, "expected some rate-limited hosts");
        assert!(limited < t.hosts.len(), "expected some unlimited hosts");
    }

    #[test]
    fn eras_have_different_capacities() {
        let t95 = topo(Era::Y1995, 12);
        let t99 = topo(Era::Y1999, 12);
        let max95 = t95
            .links
            .iter()
            .map(|l| l.capacity_mbps)
            .fold(0.0, f64::max);
        let max99 = t99
            .links
            .iter()
            .map(|l| l.capacity_mbps)
            .fold(0.0, f64::max);
        assert!(max99 > 2.0 * max95, "1999 cores should be far faster");
    }

    #[test]
    fn public_exchanges_exist() {
        let t = topo(Era::Y1995, 13);
        let ixp_links = t
            .links
            .iter()
            .filter(|l| l.kind == LinkKind::PublicExchange)
            .count();
        assert!(ixp_links > 0, "1995 era should use public exchange fabric");
    }

    #[test]
    fn na_only_config_keeps_stub_hosts_in_na() {
        let mut cfg = TopologyConfig::for_era(Era::Y1999);
        cfg.stubs_na_only = true;
        let t = generate(&cfg, &mut Xoshiro256pp::seed_from_u64(14));
        for h in &t.hosts {
            assert!(CITIES[h.city].region.is_north_america(), "{}", h.name);
        }
    }

    #[test]
    fn prop_delays_are_physical() {
        let t = topo(Era::Y1999, 15);
        for l in &t.links {
            assert!(l.prop_delay_ms >= 0.05);
            assert!(
                l.prop_delay_ms < 120.0,
                "one-way {} ms is unphysical",
                l.prop_delay_ms
            );
        }
    }
}
