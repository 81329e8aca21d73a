//! End-to-end path resolution.
//!
//! Given the BGP-selected AS path, a packet's router-level path is stitched
//! together AS by AS. Inside each transit AS the packet enters at some
//! ingress router and must leave through one of the border links to the next
//! AS; which one is a *policy choice*:
//!
//! * **Early-exit / hot-potato** (the common case the paper calls out in
//!   §3): hand the packet to the next AS at the interconnection point
//!   nearest the ingress *by the local IGP metric*, "whether or not this is
//!   the best path to the destination".
//! * **Best-exit ("cold potato")**: pick the egress minimizing local delay
//!   to the next AS — politer, rarer, used here for ablation.
//!
//! The third [`RoutingMode`], `GlobalShortestDelay`, bypasses all of this
//! and runs Dijkstra on propagation delay over the full router graph — the
//! idealized routing the paper uses as its mental baseline ("if the
//! Internet used 'shortest' path routing … there would be no room to find
//! alternate paths with better performance").

use std::collections::{BinaryHeap, HashMap};

use crate::routing::bgp::BgpRib;
use crate::routing::igp::IgpTable;
use crate::routing::RoutingMode;
use crate::topology::{AsId, LinkId, LinkKind, RouterId, Topology};

/// A fully resolved unidirectional router-level path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPath {
    /// Router sequence, source first, destination last.
    pub routers: Vec<RouterId>,
    /// Links traversed; `links.len() == routers.len() - 1`.
    pub links: Vec<LinkId>,
}

impl ResolvedPath {
    /// Sum of link propagation delays, one way, in milliseconds.
    pub fn prop_delay_ms(&self, topo: &Topology) -> f64 {
        self.links.iter().map(|&l| topo.link(l).prop_delay_ms).sum()
    }

    /// The sequence of ASes traversed (deduplicated consecutively).
    pub fn as_sequence(&self, topo: &Topology) -> Vec<AsId> {
        let mut out: Vec<AsId> = Vec::new();
        for &r in &self.routers {
            let a = topo.router(r).asn;
            if out.last() != Some(&a) {
                out.push(a);
            }
        }
        out
    }
}

/// Path resolver: owns the per-AS IGP tables, the BGP RIB, and an index of
/// border links.
#[derive(Debug)]
pub struct Resolver {
    igp: Vec<IgpTable>,
    rib: BgpRib,
    /// Border (non-internal) links indexed by (from-AS, to-AS).
    border: HashMap<(AsId, AsId), Vec<LinkId>>,
}

impl Resolver {
    /// Computes all routing state for `topo`.
    pub fn new(topo: &Topology) -> Resolver {
        let igp = (0..topo.as_count())
            .map(|i| IgpTable::compute(topo, AsId(i as u16)))
            .collect();
        let rib = BgpRib::compute(topo);
        let mut border: HashMap<(AsId, AsId), Vec<LinkId>> = HashMap::new();
        for l in &topo.links {
            if l.kind == LinkKind::Internal {
                continue;
            }
            let key = (topo.router(l.from).asn, topo.router(l.to).asn);
            border.entry(key).or_default().push(l.id);
        }
        Resolver { igp, rib, border }
    }

    /// The IGP table of `asn`.
    pub fn igp(&self, asn: AsId) -> &IgpTable {
        &self.igp[asn.0 as usize]
    }

    /// The BGP RIB.
    pub fn rib(&self) -> &BgpRib {
        &self.rib
    }

    /// Resolves the unidirectional path from `src` to `dst` routers.
    ///
    /// `fallback_at_source` uses the source AS's second-choice BGP route
    /// (route-flap modeling); it is ignored by `GlobalShortestDelay`.
    ///
    /// Returns `None` only if routing state is missing (a generated
    /// topology always yields full reachability).
    pub fn resolve(
        &self,
        topo: &Topology,
        src: RouterId,
        dst: RouterId,
        mode: RoutingMode,
        fallback_at_source: bool,
    ) -> Option<ResolvedPath> {
        if mode == RoutingMode::GlobalShortestDelay {
            return self.dijkstra_delay(topo, src, dst);
        }
        let src_as = topo.router(src).asn;
        let dst_as = topo.router(dst).asn;
        let as_path = self.rib.as_path(src_as, dst_as, fallback_at_source)?;

        let mut routers = vec![src];
        let mut links = Vec::new();
        let mut cur = src;
        let dst_city = topo.router(dst).city;
        for w in as_path.windows(2) {
            let (here, next) = (w[0], w[1]);
            let candidates = self.border.get(&(here, next))?;
            let igp = self.igp(here);
            let chosen = *candidates.iter().min_by(|&&x, &&y| {
                let lx = topo.link(x);
                let ly = topo.link(y);
                let kx = self.exit_cost(topo, igp, cur, lx, dst_city, mode);
                let ky = self.exit_cost(topo, igp, cur, ly, dst_city, mode);
                kx.partial_cmp(&ky).unwrap().then(x.cmp(&y))
            })?;
            let link = topo.link(chosen);
            // Walk the IGP path to the egress, then cross the border.
            let seg = igp.path(cur, link.from);
            for pair in seg.windows(2) {
                links.push(topo.link_between(pair[0], pair[1])?.id);
                routers.push(pair[1]);
            }
            links.push(chosen);
            routers.push(link.to);
            cur = link.to;
        }
        // Final intra-AS leg to the destination router.
        let seg = self.igp(dst_as).path(cur, dst);
        for pair in seg.windows(2) {
            links.push(topo.link_between(pair[0], pair[1])?.id);
            routers.push(pair[1]);
        }
        Some(ResolvedPath { routers, links })
    }

    /// Egress-selection cost under the given mode.
    fn exit_cost(
        &self,
        topo: &Topology,
        igp: &IgpTable,
        ingress: RouterId,
        link: &crate::topology::Link,
        dst_city: crate::geo::CityId,
        mode: RoutingMode,
    ) -> f64 {
        match mode {
            // Hot potato: get rid of the packet as cheaply as possible,
            // measured by the AS's own IGP metric to the egress — blind to
            // where the destination actually is.
            RoutingMode::PolicyHotPotato => igp.distance(ingress, link.from),
            // Cold potato / best exit: minimize delay through our network,
            // across the interconnect, *plus* the remaining great-circle
            // haul from the far side toward the destination. The last term
            // is what hot potato ignores and what makes the two policies
            // genuinely diverge when an AS has several interconnects.
            RoutingMode::PolicyBestExit => {
                let far_city = topo.router(link.to).city;
                let remaining = crate::geo::fiber_delay_ms(
                    crate::geo::CITIES[far_city]
                        .loc
                        .distance_km(&crate::geo::CITIES[dst_city].loc),
                );
                igp.path_delay_ms(ingress, link.from) + link.prop_delay_ms + remaining
            }
            RoutingMode::GlobalShortestDelay => {
                unreachable!("global mode resolved by dijkstra_delay")
            }
        }
    }

    /// Resolves the idealized global-shortest-delay paths from `src` to
    /// every router in `dsts` with **one** Dijkstra pass (no early exit),
    /// for the eager path-table precompute.
    ///
    /// Produces exactly the paths [`Resolver::resolve`] would return
    /// pairwise under `GlobalShortestDelay`: a settled vertex can never be
    /// improved (non-negative weights, strict relaxation), so running the
    /// search to exhaustion instead of stopping at one destination leaves
    /// every reconstructed path unchanged.
    pub fn resolve_global_all(
        &self,
        topo: &Topology,
        src: RouterId,
        dsts: &[RouterId],
    ) -> Vec<Option<ResolvedPath>> {
        let (dist, prev) = self.dijkstra_relax(topo, src, None);
        dsts.iter()
            .map(|&d| reconstruct(topo, src, d, &dist, &prev))
            .collect()
    }

    /// Plain Dijkstra over the whole router graph, weighted by propagation
    /// delay — the idealized global routing baseline.
    fn dijkstra_delay(
        &self,
        topo: &Topology,
        src: RouterId,
        dst: RouterId,
    ) -> Option<ResolvedPath> {
        let (dist, prev) = self.dijkstra_relax(topo, src, Some(dst));
        reconstruct(topo, src, dst, &dist, &prev)
    }

    /// The shared Dijkstra relaxation loop: distances and predecessor
    /// links from `src`, stopping early when `stop` settles (pairwise
    /// query) or running to exhaustion (`None`, table precompute).
    fn dijkstra_relax(
        &self,
        topo: &Topology,
        src: RouterId,
        stop: Option<RouterId>,
    ) -> (Vec<f64>, Vec<Option<LinkId>>) {
        let n = topo.routers.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        dist[src.0 as usize] = 0.0;
        // Max-heap on negated distance; f64 wrapped via total ordering on bits
        // is avoided by using ordered pairs of (cost in integer micros).
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, src.0)));
        while let Some(std::cmp::Reverse((d_us, r))) = heap.pop() {
            // Stale-entry check in the same quantized units as the heap key.
            if d_us > (dist[r as usize] * 1000.0).round() as u64 {
                continue;
            }
            if stop == Some(RouterId(r)) {
                break;
            }
            for l in topo.links_from(RouterId(r)) {
                let nd = dist[r as usize] + l.prop_delay_ms;
                let j = l.to.0 as usize;
                if nd + 1e-12 < dist[j] {
                    dist[j] = nd;
                    prev[j] = Some(l.id);
                    heap.push(std::cmp::Reverse(((nd * 1000.0).round() as u64, l.to.0)));
                }
            }
        }
        (dist, prev)
    }
}

/// Rebuilds the router/link path `src → dst` from Dijkstra's predecessor
/// array; `None` when `dst` was never reached.
fn reconstruct(
    topo: &Topology,
    src: RouterId,
    dst: RouterId,
    dist: &[f64],
    prev: &[Option<LinkId>],
) -> Option<ResolvedPath> {
    if !dist[dst.0 as usize].is_finite() {
        return None;
    }
    let mut links_rev = Vec::new();
    let mut cur = dst;
    while cur != src {
        let l = prev[cur.0 as usize]?;
        links_rev.push(l);
        cur = topo.link(l).from;
    }
    links_rev.reverse();
    let mut routers = vec![src];
    for &l in &links_rev {
        routers.push(topo.link(l).to);
    }
    Some(ResolvedPath {
        routers,
        links: links_rev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::generator::{generate, Era, TopologyConfig};
    use detour_prng::Xoshiro256pp;

    fn setup() -> (Topology, Resolver) {
        let topo = generate(
            &TopologyConfig::for_era(Era::Y1999),
            &mut Xoshiro256pp::seed_from_u64(21),
        );
        let resolver = Resolver::new(&topo);
        (topo, resolver)
    }

    fn host_routers(topo: &Topology) -> Vec<RouterId> {
        topo.hosts.iter().map(|h| h.router).collect()
    }

    #[test]
    fn paths_connect_endpoints_with_real_links() {
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        for &s in hr.iter().take(8) {
            for &d in hr.iter().take(8) {
                if s == d {
                    continue;
                }
                let p = res
                    .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
                    .expect("resolvable");
                assert_eq!(p.routers.first(), Some(&s));
                assert_eq!(p.routers.last(), Some(&d));
                assert_eq!(p.links.len(), p.routers.len() - 1);
                for (i, &l) in p.links.iter().enumerate() {
                    let link = topo.link(l);
                    assert_eq!(link.from, p.routers[i]);
                    assert_eq!(link.to, p.routers[i + 1]);
                }
            }
        }
    }

    #[test]
    fn policy_path_follows_bgp_as_path() {
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        for &s in hr.iter().take(6) {
            for &d in hr.iter().skip(6).take(6) {
                if topo.router(s).asn == topo.router(d).asn {
                    continue;
                }
                let p = res
                    .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
                    .unwrap();
                let expected = res
                    .rib()
                    .as_path(topo.router(s).asn, topo.router(d).asn, false)
                    .unwrap();
                assert_eq!(p.as_sequence(&topo), expected);
            }
        }
    }

    #[test]
    fn global_mode_never_loses_to_policy_modes() {
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        for &s in hr.iter().take(10) {
            for &d in hr.iter().rev().take(10) {
                if s == d {
                    continue;
                }
                let global = res
                    .resolve(&topo, s, d, RoutingMode::GlobalShortestDelay, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                let hot = res
                    .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                let cold = res
                    .resolve(&topo, s, d, RoutingMode::PolicyBestExit, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                assert!(
                    global <= hot + 1e-6,
                    "{s:?}->{d:?}: global {global} > hot {hot}"
                );
                assert!(global <= cold + 1e-6);
            }
        }
    }

    #[test]
    fn policy_routing_inflates_some_paths() {
        // The paper's whole premise: policy routing leaves delay on the
        // table. At least some host pairs must see strictly longer
        // propagation delay under hot-potato policy than under ideal
        // routing.
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        let mut inflated = 0;
        let mut total = 0;
        for &s in hr.iter().take(15) {
            for &d in hr.iter().rev().take(15) {
                if s == d {
                    continue;
                }
                total += 1;
                let global = res
                    .resolve(&topo, s, d, RoutingMode::GlobalShortestDelay, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                let hot = res
                    .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
                    .unwrap()
                    .prop_delay_ms(&topo);
                if hot > global * 1.2 + 1.0 {
                    inflated += 1;
                }
            }
        }
        assert!(
            inflated * 10 >= total,
            "expected ≥10% of pairs inflated ≥20%: {inflated}/{total}"
        );
    }

    #[test]
    fn forward_and_reverse_can_differ() {
        // Paxson \[Pax96\]: "a large and increasing fraction of Internet paths
        // follow different routes from source to destination than from
        // destination to source." Hot-potato egress selection should
        // reproduce router-level asymmetry for at least one pair.
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        let mut asymmetric = false;
        'outer: for &s in &hr {
            for &d in &hr {
                if s == d {
                    continue;
                }
                let fwd = res
                    .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
                    .unwrap();
                let rev = res
                    .resolve(&topo, d, s, RoutingMode::PolicyHotPotato, false)
                    .unwrap();
                let mut rev_routers = rev.routers.clone();
                rev_routers.reverse();
                if rev_routers != fwd.routers {
                    asymmetric = true;
                    break 'outer;
                }
            }
        }
        assert!(asymmetric, "no asymmetric host pair found");
    }

    #[test]
    fn fallback_paths_resolve() {
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        for &s in hr.iter().take(8) {
            for &d in hr.iter().rev().take(8) {
                if s == d {
                    continue;
                }
                let p = res.resolve(&topo, s, d, RoutingMode::PolicyHotPotato, true);
                assert!(p.is_some());
                assert_eq!(p.unwrap().routers.last(), Some(&d));
            }
        }
    }

    #[test]
    fn one_pass_global_resolution_matches_pairwise() {
        // The table precompute runs one exhaustive Dijkstra per source; it
        // must reconstruct exactly the paths the early-exit pairwise query
        // returns.
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        for &s in hr.iter().take(10) {
            let all = res.resolve_global_all(&topo, s, &hr);
            for (&d, got) in hr.iter().zip(&all) {
                let want = res.resolve(&topo, s, d, RoutingMode::GlobalShortestDelay, false);
                assert_eq!(got, &want, "{s:?}→{d:?}");
            }
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let (topo, res) = setup();
        let hr = host_routers(&topo);
        let (s, d) = (hr[0], hr[5]);
        let a = res
            .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
            .unwrap();
        let b = res
            .resolve(&topo, s, d, RoutingMode::PolicyHotPotato, false)
            .unwrap();
        assert_eq!(a, b);
    }
}
