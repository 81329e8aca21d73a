//! The assembled network: topology + routing + load, queried over time.
//!
//! [`Network`] is the simulator's public face. Everything above it (the
//! measurement machinery, the datasets) sees only *observable* behavior —
//! resolve a path, send a probe, run a transfer — mirroring the information
//! barrier real measurement tools face: they cannot see utilization or
//! routing tables, only packets.
//!
//! A generated network is **immutable and `Send + Sync`** by construction:
//! everything measurement-relevant — the flap schedule of every ordered AS
//! pair and the resolved router path of every (host-router, host-router,
//! flapped) triple — is computed eagerly at generation time (in parallel,
//! per source, over the `detour-pool` workers), so [`Network::forward_path`]
//! is a lock-free array read and a campaign can fan requests out across
//! threads without any synchronization. The earlier design cached paths and
//! flap schedules lazily behind `RefCell`s, which pinned the whole
//! measurement pipeline to one thread and grew without bound; the caches
//! are gone, not wrapped.

use std::sync::Arc;

use detour_faults::{
    FaultConfig, FaultPlan, OutageSchedule, Renewal, RoutePhase, WithdrawalSchedule,
};
use detour_prng::Rng;

use crate::routing::flaps;
use crate::routing::path::{ResolvedPath, Resolver};
use crate::routing::RoutingMode;
use crate::sim::clock::SimTime;
use crate::topology::{
    generator::{self, Era, TopologyConfig},
    LinkId, RouterId,
};
use crate::topology::{AsId, Host, HostId, Topology};
use crate::traffic::load::{LoadConfig, LoadModel};

/// Everything needed to build a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology shape.
    pub topology: TopologyConfig,
    /// Load process tuning.
    pub load: LoadConfig,
    /// Route-flap process of each ordered AS pair.
    pub flaps: Renewal,
    /// Path-selection mode (a dataset's is its spec's `routing`).
    pub mode: RoutingMode,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Simulated horizon in seconds (trace duration).
    pub horizon_s: f64,
    /// Fault-injection knobs ([`FaultConfig::none`] in every era default;
    /// the network only consumes the link/router/withdrawal classes).
    pub faults: FaultConfig,
}

impl NetworkConfig {
    /// Era defaults with the given seed and horizon in days.
    pub fn for_era(era: Era, seed: u64, horizon_days: f64) -> NetworkConfig {
        NetworkConfig {
            topology: TopologyConfig::for_era(era),
            load: LoadConfig::for_era(era),
            flaps: flaps::DEFAULT,
            mode: RoutingMode::PolicyHotPotato,
            seed,
            horizon_s: horizon_days * 86_400.0,
            faults: FaultConfig::none(),
        }
    }
}

/// Fixed per-router forwarding/processing delay, one way, milliseconds.
pub const PER_HOP_PROCESSING_MS: f64 = 0.05;

/// Outcome of pushing one packet across a resolved path once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitOutcome {
    /// Total one-way delay (propagation + queuing + processing), ms.
    /// Meaningful even when `lost` (the delay accumulated up to the drop is
    /// not reported separately; callers treat lost packets as lost).
    pub delay_ms: f64,
    /// Whether the packet was dropped on some link.
    pub lost: bool,
}

/// One-way delay and survival probability of a path prefix, each link
/// sampled once ([`Network::extend_prefix`]): what a traceroute's probes
/// to an intermediate router see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prefix {
    /// One-way delay to the prefix's last router: propagation, queuing
    /// and one router's processing per hop, the source's included, ms.
    pub delay_ms: f64,
    /// Probability that a packet crosses every link of the prefix.
    pub survival: f64,
}

impl Prefix {
    /// The empty prefix at the source router: its processing delay only.
    pub const SOURCE: Prefix = Prefix {
        delay_ms: PER_HOP_PROCESSING_MS,
        survival: 1.0,
    };
}

/// A generated network instance.
///
/// `Send + Sync`: all state is immutable after generation (asserted at
/// compile time below), so campaigns may probe one network from many
/// threads concurrently.
pub struct Network {
    /// The static topology (public: analyses inspect AS ownership etc.).
    pub topology: Topology,
    resolver: Resolver,
    load: LoadModel,
    mode: RoutingMode,
    horizon_s: f64,
    /// Router id → slot in the host-router index space (`u32::MAX` for
    /// routers no host attaches to — they never terminate a measurement).
    router_slot: Vec<u32>,
    /// Number of distinct host-attachment routers (the slot space).
    n_slots: usize,
    /// Flat path table: `(src_slot * n_slots + dst_slot) * 2 + flapped`.
    /// `Arc` so callers share one resolution, as they shared the old
    /// cache's `Rc`s — but now across threads.
    paths: Vec<Option<Arc<ResolvedPath>>>,
    /// Flat per-ordered-AS-pair flap schedules: `src_as * n_as + dst_as`.
    flap_table: Vec<OutageSchedule>,
    n_as: usize,
    /// Injected-fault tables; `None` when the config has no network
    /// faults, keeping the benign path untouched.
    faults: Option<NetworkFaultTables>,
}

/// Precomputed per-entity fault schedules. Like the flap table, every
/// schedule depends only on `(fault seed, domain, entity id)` — generated
/// in parallel but bit-identical at every thread count.
struct NetworkFaultTables {
    /// Per-link outage schedules, indexed by `LinkId`.
    link_down: Vec<OutageSchedule>,
    /// Per-router outage schedules, indexed by `RouterId`.
    router_down: Vec<OutageSchedule>,
    /// Per-ordered-AS-pair withdrawal schedules: `src_as * n_as + dst_as`.
    withdrawals: Vec<WithdrawalSchedule>,
}

// The whole point of the precomputed design: a campaign can fan out over
// requests only if sharing `&Network` across threads is sound. Pin it so a
// future `RefCell` cannot sneak back in unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Network>();
};

impl Network {
    /// Generates a network from `cfg`. Deterministic in `cfg.seed`.
    ///
    /// Reports where the build time went through the current `detour-obs`
    /// recorder: `net/build` covers topology generation + IGP/BGP routing
    /// tables + the load model, `net/routing` the eager precomputation of
    /// the flap-schedule, fault, and path tables.
    pub fn generate(cfg: &NetworkConfig) -> Network {
        let rec = detour_obs::current();
        let build_span = rec.span("net/build");
        let mut rng = detour_prng::Xoshiro256pp::seed_from_u64(cfg.seed);
        let topology = generator::generate(&cfg.topology, &mut rng);
        let resolver = Resolver::new(&topology);
        let load = LoadModel::generate(&topology, cfg.load, cfg.seed, cfg.horizon_s);
        build_span.finish();

        let routing_span = rec.span("net/routing");
        let n_as = topology.as_count();
        let flap_table = per_as_pair(n_as, |src, dst| {
            flaps::flap_schedule(&cfg.flaps, cfg.seed, AsId(src), AsId(dst), cfg.horizon_s)
        });

        // Host-attachment routers define the measurement-relevant slot
        // space; every forward path a probe can ever ask for starts and
        // ends on one of them.
        let mut slots: Vec<RouterId> = topology.hosts.iter().map(|h| h.router).collect();
        slots.sort_unstable();
        slots.dedup();
        let mut router_slot = vec![u32::MAX; topology.routers.len()];
        for (i, &r) in slots.iter().enumerate() {
            router_slot[r.0 as usize] = i as u32;
        }
        let faults = cfg
            .faults
            .network_faults()
            .then(|| precompute_faults(&cfg.faults, &topology, n_as, cfg.horizon_s));
        let paths = precompute_paths(
            &topology,
            &resolver,
            &flap_table,
            faults.as_ref().map(|f| f.withdrawals.as_slice()),
            n_as,
            &slots,
            cfg.mode,
        );
        routing_span.finish();

        Network {
            topology,
            resolver,
            load,
            mode: cfg.mode,
            horizon_s: cfg.horizon_s,
            router_slot,
            n_slots: slots.len(),
            paths,
            flap_table,
            n_as,
            faults,
        }
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.topology.hosts
    }

    /// One host.
    pub fn host(&self, id: HostId) -> &Host {
        self.topology.host(id)
    }

    /// The routing state (read-only; used by analyses and tests).
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// The load model (read-only; used by ablation benches).
    pub fn load(&self) -> &LoadModel {
        &self.load
    }

    /// Routing mode in force.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Simulated horizon, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// The precomputed flap schedule for an ordered AS pair.
    pub fn flap_schedule(&self, src: AsId, dst: AsId) -> &OutageSchedule {
        &self.flap_table[src.0 as usize * self.n_as + dst.0 as usize]
    }

    /// The injected withdrawal schedule for an ordered AS pair, if any
    /// network faults were configured.
    pub fn withdrawal_schedule(&self, src: AsId, dst: AsId) -> Option<&WithdrawalSchedule> {
        self.faults
            .as_ref()
            .map(|f| &f.withdrawals[src.0 as usize * self.n_as + dst.0 as usize])
    }

    /// Resolves the forward router path from `src` to `dst` hosts at time
    /// `t`, honoring any active flap episode at the source AS.
    ///
    /// A lock-free read of the precomputed path table — safe to call from
    /// any number of threads concurrently.
    ///
    /// Returns `None` when routing cannot produce a path (does not happen
    /// on generated topologies, but callers must treat it as a measurement
    /// failure, not a panic — real traceroutes fail too).
    /// Returns `None` during an injected BGP withdrawal (the route is
    /// blackholed until convergence starts); the convergence tail routes
    /// via the second-choice path, like a flap episode.
    pub fn forward_path(&self, src: HostId, dst: HostId, t: SimTime) -> Option<&ResolvedPath> {
        let sh = self.topology.host(src);
        let dh = self.topology.host(dst);
        let mut flapped = self.mode != RoutingMode::GlobalShortestDelay
            && self.flap_schedule(sh.asn, dh.asn).down_at(t.0);
        if self.mode != RoutingMode::GlobalShortestDelay {
            if let Some(f) = &self.faults {
                match f.withdrawals[sh.asn.0 as usize * self.n_as + dh.asn.0 as usize].phase_at(t.0)
                {
                    RoutePhase::Withdrawn => return None,
                    RoutePhase::Converging => flapped = true,
                    RoutePhase::Stable => {}
                }
            }
        }
        let i = self.router_slot[sh.router.0 as usize] as usize;
        let j = self.router_slot[dh.router.0 as usize] as usize;
        self.paths[(i * self.n_slots + j) * 2 + flapped as usize].as_deref()
    }

    /// Sends one packet across `path` at time `t`, sampling queuing delay
    /// and loss on each link.
    pub fn transit(&self, path: &ResolvedPath, t: SimTime, rng: &mut impl Rng) -> TransitOutcome {
        self.transit_watched(&mut self.fault_watch(path, path.links.len()), t, rng)
    }

    /// [`Network::transit`] over the whole path `faults` watches, its
    /// injected outages looked up through the watch.
    pub(crate) fn transit_watched(
        &self,
        faults: &mut FaultWatch<'_>,
        t: SimTime,
        rng: &mut impl Rng,
    ) -> TransitOutcome {
        let path = faults.path;
        debug_assert_eq!(
            faults.hop,
            path.links.len(),
            "a transit crosses the whole path"
        );
        let mut delay = PER_HOP_PROCESSING_MS * path.routers.len() as f64;
        // Injected outages drop the packet deterministically (no RNG
        // draw), so the load-sampling stream below is unperturbed: a
        // faulted run differs from the benign run only where a fault is
        // actually active.
        let mut lost = faults.down_at(t);
        let mut now = self.load.at(t);
        for &l in &path.links {
            let link = self.topology.link(l);
            let s = self.load.sample_at(l, &mut now, rng);
            delay += link.prop_delay_ms + s.queue_delay_ms;
            if s.lost {
                lost = true;
            }
        }
        TransitOutcome {
            delay_ms: delay,
            lost,
        }
    }

    /// `prefix` extended by one more link, sampled once at `t`: the link's
    /// propagation and queuing delay plus the next router's processing
    /// join the one-way delay, and the link's survival probability
    /// multiplies the prefix's. No loss is drawn and no injected fault is
    /// consulted — a traceroute draws those per probe.
    pub fn extend_prefix(
        &self,
        prefix: Prefix,
        link: LinkId,
        t: SimTime,
        rng: &mut impl Rng,
    ) -> Prefix {
        let (queue_delay_ms, loss_prob) = self
            .load
            .draw_at(link, &mut self.load.at(t), rng)
            .unwrap_or((0.0, 1.0));
        Prefix {
            delay_ms: prefix.delay_ms
                + self.topology.link(link).prop_delay_ms
                + queue_delay_ms
                + PER_HOP_PROCESSING_MS,
            survival: prefix.survival * (1.0 - loss_prob),
        }
    }

    /// A [`FaultWatch`] over `path`'s first `hops` links and the routers
    /// they join; it looks nothing up until first asked.
    pub(crate) fn fault_watch<'a>(&'a self, path: &'a ResolvedPath, hops: usize) -> FaultWatch<'a> {
        let tables = self.faults.as_ref();
        FaultWatch {
            tables,
            path,
            hop: hops,
            down: false,
            from: f64::NEG_INFINITY,
            until: if tables.is_some() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            },
        }
    }

    /// True when any router or link on the (sub)path is inside an injected
    /// outage episode at `t`. Pure schedule lookups — no RNG. The oracle
    /// for [`FaultWatch`], which answers the same question in production.
    #[cfg(test)]
    pub(crate) fn faulted_element(
        &self,
        routers: &[RouterId],
        links: &[LinkId],
        t: SimTime,
    ) -> bool {
        let Some(f) = &self.faults else {
            return false;
        };
        routers
            .iter()
            .any(|r| f.router_down[r.0 as usize].down_at(t.0))
            || links.iter().any(|l| f.link_down[l.0 as usize].down_at(t.0))
    }
}

/// Whether an injected outage is active on a prefix of one path —
/// `routers[..=hop]` and `links[..hop]` — that grows hop by hop, as one
/// traceroute invocation asks it, or on a whole path asked at rising
/// instants, as a TCP transfer asks it. The watch caches whether any element
/// is down and the window `[from, until)` that answer holds on: from the
/// instant it was looked up to the earliest [`OutageSchedule::state_at`]
/// bound among the elements. A new hop looks up its link and router only,
/// and the prefix is rescanned only when asked outside the window: as an
/// invocation's instants advance, once one reaches `until`. Asked at an
/// earlier instant (a reverse transit after a forward delay longer than
/// the probe timeout), it rescans too, so it is exact in any order.
/// Without injected network faults the answer is `false` on `(-∞, ∞)`
/// and nothing is looked up.
pub(crate) struct FaultWatch<'a> {
    tables: Option<&'a NetworkFaultTables>,
    path: &'a ResolvedPath,
    hop: usize,
    down: bool,
    from: f64,
    until: f64,
}

impl<'a> FaultWatch<'a> {
    /// The watched path.
    pub(crate) fn path(&self) -> &'a ResolvedPath {
        self.path
    }

    /// Extends the prefix by one hop, the next link and the router it
    /// reaches, looked up at `now`.
    pub(crate) fn extend(&mut self, now: SimTime) {
        self.hop += 1;
        if let Some(f) = self.tables {
            let link = self.path.links[self.hop - 1];
            let router = self.path.routers[self.hop];
            self.from = self.from.max(now.0);
            self.fold(f.link_down[link.0 as usize].state_at(now.0));
            self.fold(f.router_down[router.0 as usize].state_at(now.0));
        }
    }

    /// True when any element of the prefix is down at `now`.
    pub(crate) fn down_at(&mut self, now: SimTime) -> bool {
        if now.0 < self.from || now.0 >= self.until {
            self.rescan(now.0);
        }
        self.down
    }

    /// Folds one element's `(down, until)` into the prefix's answer: down
    /// if either is, up to the earlier bound. Folded into an answer whose
    /// window had closed, it keeps the window closed.
    fn fold(&mut self, (down, until): (bool, f64)) {
        self.down |= down;
        self.until = self.until.min(until);
    }

    fn rescan(&mut self, t: f64) {
        let Some(f) = self.tables else {
            return;
        };
        (self.down, self.from, self.until) = (false, t, f64::INFINITY);
        for r in &self.path.routers[..=self.hop] {
            self.fold(f.router_down[r.0 as usize].state_at(t));
        }
        for l in &self.path.links[..self.hop] {
            self.fold(f.link_down[l.0 as usize].state_at(t));
        }
    }
}

/// Generates the per-link, per-router, and per-AS-pair fault schedules —
/// in parallel, but each schedule is a pure function of the fault seed and
/// the entity's id, so the tables are identical at every thread count.
fn precompute_faults(
    cfg: &FaultConfig,
    topo: &Topology,
    n_as: usize,
    horizon_s: f64,
) -> NetworkFaultTables {
    let plan = FaultPlan::new(*cfg, horizon_s);
    let link_ids: Vec<u64> = (0..topo.links.len() as u64).collect();
    let router_ids: Vec<u64> = (0..topo.routers.len() as u64).collect();
    NetworkFaultTables {
        link_down: detour_pool::parallel_map(&link_ids, |&l| plan.link_schedule(l)),
        router_down: detour_pool::parallel_map(&router_ids, |&r| plan.router_schedule(r)),
        withdrawals: per_as_pair(n_as, |src, dst| plan.withdrawal_schedule(src, dst)),
    }
}

/// Builds a flat per-ordered-AS-pair table (`src_as * n_as + dst_as`), in
/// parallel per source AS. The flap and withdrawal schedules it holds
/// depend only on their seed and `(src, dst)`, so the table is identical
/// at every thread count.
fn per_as_pair<T: Send>(n_as: usize, f: impl Fn(u16, u16) -> T + Sync) -> Vec<T> {
    let sources: Vec<u16> = (0..n_as as u16).collect();
    detour_pool::parallel_flat_map(&sources, |&src| {
        (0..n_as as u16).map(|dst| f(src, dst)).collect()
    })
}

/// Resolves the full (host-router × host-router × flapped) path table, in
/// parallel per source router.
///
/// Two economies keep this cheap without changing any observable path:
///
/// * The flapped variant is only resolved when some AS pair routed between
///   the two routers can actually use it — its flap schedule has episodes
///   inside the horizon, or an injected withdrawal's convergence tail can
///   send it to the second-choice route; otherwise the unflapped `Arc` is
///   shared — `forward_path` only consults the flapped slot during an
///   active episode.
/// * Under `GlobalShortestDelay` one Dijkstra per source covers every
///   destination (and flaps are ignored by definition, so both slots share
///   one path).
fn precompute_paths(
    topo: &Topology,
    resolver: &Resolver,
    flap_table: &[OutageSchedule],
    withdrawals: Option<&[WithdrawalSchedule]>,
    n_as: usize,
    slots: &[RouterId],
    mode: RoutingMode,
) -> Vec<Option<Arc<ResolvedPath>>> {
    let rows = detour_pool::parallel_map(slots, |&src| {
        let mut row: Vec<Option<Arc<ResolvedPath>>> = Vec::with_capacity(slots.len() * 2);
        if mode == RoutingMode::GlobalShortestDelay {
            for p in resolver.resolve_global_all(topo, src, slots) {
                let p = p.map(Arc::new);
                row.push(p.clone());
                row.push(p);
            }
            return row;
        }
        let src_as = topo.router(src).asn;
        for &dst in slots {
            let dst_as = topo.router(dst).asn;
            let base = resolver.resolve(topo, src, dst, mode, false).map(Arc::new);
            let pair = src_as.0 as usize * n_as + dst_as.0 as usize;
            let can_flap = flap_table[pair].episode_count() > 0
                || withdrawals.is_some_and(|w| w[pair].episode_count() > 0);
            let flapped = if can_flap {
                resolver.resolve(topo, src, dst, mode, true).map(Arc::new)
            } else {
                base.clone()
            };
            row.push(base);
            row.push(flapped);
        }
        row
    });
    rows.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_prng::Xoshiro256pp;

    fn net() -> Network {
        Network::generate(&NetworkConfig::for_era(Era::Y1999, 77, 7.0))
    }

    /// Total injected (link, router, withdrawal) episodes across all
    /// entities — `(0, 0, 0)` without faults.
    fn fault_episode_counts(n: &Network) -> (usize, usize, usize) {
        match &n.faults {
            None => (0, 0, 0),
            Some(f) => (
                f.link_down.iter().map(|s| s.episode_count()).sum(),
                f.router_down.iter().map(|s| s.episode_count()).sum(),
                f.withdrawals.iter().map(|s| s.episode_count()).sum(),
            ),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = net();
        let b = net();
        assert_eq!(a.hosts().len(), b.hosts().len());
        let t = SimTime::from_hours(40.0);
        let (h0, h1) = (a.hosts()[0].id, a.hosts()[7].id);
        let pa = a.forward_path(h0, h1, t).unwrap();
        let pb = b.forward_path(h0, h1, t).unwrap();
        assert_eq!(pa.routers, pb.routers);
    }

    #[test]
    fn forward_paths_exist_between_all_host_pairs() {
        let n = net();
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        let t = SimTime::from_hours(10.0);
        for &s in hosts.iter().take(12) {
            for &d in hosts.iter().rev().take(12) {
                if s != d {
                    assert!(n.forward_path(s, d, t).is_some(), "{s:?}→{d:?}");
                }
            }
        }
    }

    #[test]
    fn transit_delay_exceeds_propagation() {
        let n = net();
        let t = SimTime::from_hours(34.0);
        let p = n.forward_path(n.hosts()[0].id, n.hosts()[9].id, t).unwrap();
        let prop = p.prop_delay_ms(&n.topology);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..50 {
            let out = n.transit(p, t, &mut rng);
            assert!(out.delay_ms > prop, "queuing must add delay");
        }
    }

    #[test]
    fn busy_hours_are_slower_on_average() {
        let n = net();
        let p = n
            .forward_path(n.hosts()[2].id, n.hosts()[11].id, SimTime::ZERO)
            .unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let avg = |t: SimTime, rng: &mut Xoshiro256pp| -> f64 {
            (0..300).map(|_| n.transit(p, t, rng).delay_ms).sum::<f64>() / 300.0
        };
        // Tuesday 11:00 PST vs Tuesday 03:30 PST (most hosts are NA).
        let busy = avg(SimTime::from_hours(24.0 + 19.0), &mut rng);
        let quiet = avg(SimTime::from_hours(24.0 + 11.5), &mut rng);
        assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn losses_happen_but_are_not_dominant() {
        let n = net();
        let t = SimTime::from_hours(30.0);
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let mut lost = 0;
        let mut total = 0;
        for &s in hosts.iter().take(10) {
            for &d in hosts.iter().rev().take(10) {
                if s == d {
                    continue;
                }
                let p = n.forward_path(s, d, t).unwrap();
                for _ in 0..20 {
                    total += 1;
                    if n.transit(p, t, &mut rng).lost {
                        lost += 1;
                    }
                }
            }
        }
        let rate = lost as f64 / total as f64;
        assert!(rate > 0.001, "some loss expected, got {rate}");
        assert!(rate < 0.25, "loss should not dominate, got {rate}");
    }

    #[test]
    fn a_whole_prefix_walk_samples_like_a_transit() {
        // Extending the source prefix over every link draws each link's
        // delay and survival as `transit` does, so at one instant the
        // walk's mean delay and mean survival match the mean transit delay
        // and the transit delivery rate, within 4 standard errors.
        let n = net();
        let t = SimTime::from_hours(16.0);
        let p = n
            .forward_path(n.hosts()[1].id, n.hosts()[13].id, t)
            .unwrap();
        assert!(p.links.len() >= 2);
        let draws = 4_000;
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let (mut walk_delay, mut survival, mut transit_delay, mut delivered) =
            (Vec::new(), 0.0, Vec::new(), 0.0);
        for _ in 0..draws {
            let walked = p.links.iter().fold(Prefix::SOURCE, |pre, &l| {
                n.extend_prefix(pre, l, t, &mut rng)
            });
            assert!((0.0..=1.0).contains(&walked.survival));
            walk_delay.push(walked.delay_ms);
            survival += walked.survival;
            let out = n.transit(p, t, &mut rng);
            transit_delay.push(out.delay_ms);
            delivered += f64::from(!out.lost as u8);
        }
        let mean_se = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
            (m, (var / v.len() as f64).sqrt())
        };
        let ((mw, sw), (mt, st)) = (mean_se(&walk_delay), mean_se(&transit_delay));
        assert!(
            (mw - mt).abs() < 4.0 * (sw * sw + st * st).sqrt(),
            "walk {mw} ms vs transit {mt} ms"
        );
        let (s, d) = (survival / draws as f64, delivered / draws as f64);
        let se = (d * (1.0 - d) / draws as f64).sqrt().max(1e-3);
        assert!((s - d).abs() < 4.0 * se, "survival {s} vs delivery {d}");
        assert!(
            walk_delay.iter().all(|&w| w > p.prop_delay_ms(&n.topology)),
            "queuing and processing add to propagation"
        );
    }

    #[test]
    fn route_flaps_change_paths_over_time() {
        // Crank the flap process (an episode every ~2 h, ~30 min long) so
        // the 2-day horizon reliably contains flapped measurement times for
        // some pair, then observe forward_path switching routes.
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 515, 2.0);
        cfg.flaps.mtbf_s = 2.0 * 3600.0;
        cfg.flaps.mttr_s = 30.0 * 60.0;
        let n = Network::generate(&cfg);
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        let mut saw_change = false;
        'outer: for &s in hosts.iter().take(12) {
            for &d in hosts.iter().rev().take(12) {
                if s == d {
                    continue;
                }
                let baseline = n.forward_path(s, d, SimTime::ZERO).unwrap();
                for hour in 1..48 {
                    let p = n
                        .forward_path(s, d, SimTime::from_hours(hour as f64))
                        .unwrap();
                    if p.routers != baseline.routers {
                        saw_change = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            saw_change,
            "no pair ever flapped in 48 hours at high flap rate"
        );
    }

    #[test]
    fn global_mode_ignores_flaps() {
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 515, 2.0);
        cfg.flaps.mtbf_s = 3600.0;
        cfg.flaps.mttr_s = 1800.0;
        cfg.mode = RoutingMode::GlobalShortestDelay;
        let n = Network::generate(&cfg);
        let (s, d) = (n.hosts()[0].id, n.hosts()[9].id);
        let baseline = n.forward_path(s, d, SimTime::ZERO).unwrap();
        for hour in 1..48 {
            let p = n
                .forward_path(s, d, SimTime::from_hours(hour as f64))
                .unwrap();
            assert_eq!(p.routers, baseline.routers, "ideal routing must be static");
        }
    }

    #[test]
    fn path_table_is_shared_not_copied() {
        // The precomputed table hands every caller a borrow of the same
        // path — resolution work is never repeated per query, and no
        // query clones or counts a reference.
        let n = net();
        let t = SimTime::from_hours(5.0);
        let (s, d) = (n.hosts()[0].id, n.hosts()[4].id);
        let a = n.forward_path(s, d, t).unwrap();
        let b = n.forward_path(s, d, t).unwrap();
        assert!(
            std::ptr::eq(a, b),
            "both queries must share the precomputed path"
        );
    }

    #[test]
    fn network_is_send_and_sync() {
        fn check<T: Send + Sync>(_: &T) {}
        check(&net());
    }

    #[test]
    fn precomputed_paths_match_direct_resolution() {
        // The table must hold exactly what the resolver would produce on
        // demand — for the unflapped and the flapped variant alike.
        let n = net();
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        for &s in hosts.iter().take(6) {
            for &d in hosts.iter().rev().take(6) {
                if s == d {
                    continue;
                }
                let table = n.forward_path(s, d, SimTime::ZERO).unwrap();
                let direct = n
                    .resolver()
                    .resolve(
                        &n.topology,
                        n.host(s).router,
                        n.host(d).router,
                        n.mode(),
                        false,
                    )
                    .unwrap();
                assert_eq!(*table, direct);
            }
        }
    }

    #[test]
    fn benign_config_builds_no_fault_tables() {
        let n = net();
        assert_eq!(fault_episode_counts(&n), (0, 0, 0));
        assert!(n.withdrawal_schedule(AsId(0), AsId(1)).is_none());
    }

    #[test]
    fn faulted_network_is_identical_to_benign_when_no_fault_is_active() {
        // Deterministic fault drops draw no RNG, so outside fault episodes
        // the faulted network transits packets identically.
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 77, 7.0);
        let benign = Network::generate(&cfg);
        cfg.faults = detour_faults::FaultConfig::link_failures(5);
        let faulted = Network::generate(&cfg);
        let (s, d) = (benign.hosts()[0].id, benign.hosts()[9].id);
        let mut checked = 0;
        for hour in 0..48 {
            let t = SimTime::from_hours(hour as f64);
            let p = benign.forward_path(s, d, t).unwrap();
            if faulted.faulted_element(&p.routers, &p.links, t) {
                continue; // some link on the path is down right now
            }
            let mut ra = Xoshiro256pp::seed_from_u64(hour);
            let mut rb = Xoshiro256pp::seed_from_u64(hour);
            assert_eq!(
                benign.transit(p, t, &mut ra),
                faulted.transit(p, t, &mut rb)
            );
            checked += 1;
        }
        assert!(checked > 0, "some fault-free instants must exist");
    }

    #[test]
    fn link_outages_drop_packets_deterministically() {
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 77, 7.0);
        // Crank link failures so episodes are plentiful inside a week.
        cfg.faults = detour_faults::FaultConfig::link_failures(5);
        cfg.faults.link.mtbf_s = 6.0 * 3600.0;
        cfg.faults.link.mttr_s = 3600.0;
        let n = Network::generate(&cfg);
        let (l, r, w) = fault_episode_counts(&n);
        assert!(l > 0, "high link failure rate must produce episodes");
        assert_eq!((r, w), (0, 0), "only links were enabled");

        // During an active episode on a path's link, every packet drops
        // regardless of the RNG.
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        let mut saw_outage = false;
        'outer: for &s in hosts.iter().take(10) {
            for &d in hosts.iter().rev().take(10) {
                if s == d {
                    continue;
                }
                for hour in 0..(7 * 24) {
                    let t = SimTime::from_hours(hour as f64);
                    let p = n.forward_path(s, d, t).unwrap();
                    if n.faulted_element(&p.routers, &p.links, t) {
                        for k in 0..5u64 {
                            let mut rng = Xoshiro256pp::seed_from_u64(k);
                            assert!(n.transit(p, t, &mut rng).lost);
                        }
                        saw_outage = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(saw_outage, "no probed path crossed a down link in a week");
    }

    #[test]
    fn withdrawals_blackhole_then_route_second_choice() {
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 515, 7.0);
        cfg.faults = detour_faults::FaultConfig::withdrawals(9);
        cfg.faults.withdraw.mtbf_s = 12.0 * 3600.0;
        cfg.faults.withdraw.mttr_s = 1800.0;
        let n = Network::generate(&cfg);
        let (_, _, w) = fault_episode_counts(&n);
        assert!(w > 0);

        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        let mut saw_blackhole = false;
        for &s in hosts.iter().take(12) {
            for &d in hosts.iter().rev().take(12) {
                if s == d {
                    continue;
                }
                let (sh, dh) = (n.host(s).asn, n.host(d).asn);
                let sched = n.withdrawal_schedule(sh, dh).unwrap().clone();
                for hour in 0..(7 * 24 * 4) {
                    let t = SimTime(hour as f64 * 900.0);
                    match sched.phase_at(t.0) {
                        detour_faults::RoutePhase::Withdrawn => {
                            assert!(
                                n.forward_path(s, d, t).is_none(),
                                "withdrawn route must blackhole"
                            );
                            saw_blackhole = true;
                        }
                        _ => assert!(n.forward_path(s, d, t).is_some()),
                    }
                }
            }
        }
        assert!(saw_blackhole, "no withdrawal hit a measured pair");
    }

    #[test]
    fn a_fault_watch_answers_as_faulted_element_over_a_growing_prefix() {
        // On a heavily faulted network, random host pairs and start times:
        // the watch grows hop by hop and is asked at instants that mostly
        // advance, many of them an element's episode start or end or the
        // float just below one, and answers as a full prefix rescan does.
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 91, 7.0);
        cfg.faults = FaultConfig::heavy(5);
        let n = Network::generate(&cfg);
        let f = n.faults.as_ref().expect("heavy faults build tables");
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        // (answered down, rescanned) over every case.
        let seen = std::cell::Cell::new((0, 0));
        detour_prng::check::check("fault_watch_matches_faulted_element", |rng| {
            let s = hosts[rng.gen_range(0..hosts.len())];
            let d = hosts[rng.gen_range(0..hosts.len())];
            let mut now = SimTime(rng.gen_range(0.0..n.horizon_s()));
            let Some(p) = n.forward_path(s, d, now).filter(|p| !p.links.is_empty()) else {
                return;
            };
            let mut edges: Vec<f64> = p
                .routers
                .iter()
                .map(|r| &f.router_down[r.0 as usize])
                .chain(p.links.iter().map(|l| &f.link_down[l.0 as usize]))
                .flat_map(|sched| sched.episodes().iter().flat_map(|&(a, b)| [a, b]))
                .flat_map(|e| [e, e.next_down()])
                .collect();
            edges.sort_by(f64::total_cmp);
            let mut watch = n.fault_watch(p, 0);
            for hop in 0..=p.links.len() {
                if hop > 0 {
                    watch.extend(now);
                }
                for _ in 0..rng.gen_range(1..6) {
                    let rescans = (now.0 >= watch.until) as u32;
                    let down = watch.down_at(now);
                    assert_eq!(
                        down,
                        n.faulted_element(&p.routers[..=hop], &p.links[..hop], now),
                        "{s:?}→{d:?} over {hop} hops at {now:?}"
                    );
                    let (downs, scans) = seen.get();
                    seen.set((downs + down as u32, scans + rescans));
                    // Mostly forward, onto the next boundaries; now and
                    // then back, as a reverse transit after a forward
                    // delay longer than the probe timeout steps back.
                    let next = edges.partition_point(|&e| e <= now.0);
                    now = match rng.gen_range(0..8u32) {
                        0 => now,
                        1 => now.plus_secs(rng.gen_range(0.0..30.0)),
                        2 => now.plus_secs(-rng.gen_range(0.0..30.0f64)),
                        3 => next
                            .checked_sub(rng.gen_range(1..3usize))
                            .map_or(now, |i| SimTime(edges[i])),
                        _ => {
                            let skip = rng.gen_range(0..3usize);
                            edges.get(next + skip).map_or(now, |&e| SimTime(e))
                        }
                    };
                }
            }
        });
        let (downs, scans) = seen.get();
        assert!(
            downs > 0 && scans > 0,
            "{downs} down answers, {scans} rescans"
        );
    }

    #[test]
    fn fault_tables_are_thread_count_independent() {
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 77, 7.0);
        cfg.faults = detour_faults::FaultConfig::heavy(13);
        detour_pool::set_threads(1);
        let a = Network::generate(&cfg);
        detour_pool::set_threads(8);
        let b = Network::generate(&cfg);
        detour_pool::set_threads(0);
        assert_eq!(fault_episode_counts(&a), fault_episode_counts(&b));
        let (s, d) = (a.hosts()[0].id, a.hosts()[9].id);
        for hour in 0..(7 * 24) {
            let t = SimTime::from_hours(hour as f64);
            assert_eq!(
                a.forward_path(s, d, t).map(|p| p.routers.clone()),
                b.forward_path(s, d, t).map(|p| p.routers.clone())
            );
        }
    }

    #[test]
    fn global_mode_table_matches_pairwise_dijkstra() {
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 99, 2.0);
        cfg.mode = RoutingMode::GlobalShortestDelay;
        let n = Network::generate(&cfg);
        let hosts: Vec<HostId> = n.hosts().iter().map(|h| h.id).collect();
        for &s in hosts.iter().take(5) {
            for &d in hosts.iter().rev().take(5) {
                if s == d {
                    continue;
                }
                let table = n.forward_path(s, d, SimTime::ZERO).unwrap();
                let direct = n
                    .resolver()
                    .resolve(
                        &n.topology,
                        n.host(s).router,
                        n.host(d).router,
                        RoutingMode::GlobalShortestDelay,
                        false,
                    )
                    .unwrap();
                assert_eq!(*table, direct, "{s:?}→{d:?}");
            }
        }
    }
}
