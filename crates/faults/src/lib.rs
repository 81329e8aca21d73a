//! # detour-faults
//!
//! Every seeded on/off process of the simulate→measure→analyze pipeline.
//!
//! The paper names route flaps as a source of path variation (§6.2) and
//! stresses (§4.2, §7) that its datasets *under-represent* bad
//! connectivity: failed measurements drop out of the traces, hosts go
//! down mid-campaign, and routes are withdrawn while BGP converges. Each
//! of these is one alternating up/down renewal process, owned here:
//!
//! * [`Renewal`] — exponential up- and down-times and the only renewal
//!   loop, [`Renewal::schedule`]. netsim's route flaps and load-model link
//!   outages draw from it, as do the injected fault classes below.
//! * [`FaultConfig`] — the declarative fault-injection knobs: link/router
//!   failures, BGP withdrawal/convergence transients, measurement-host
//!   outages, probe-timeout storms, and campaign truncation.
//! * [`FaultPlan`] — a config bound to a time horizon. Every schedule it
//!   hands out is derived *purely* from `(seed, domain, entity-code)`
//!   via [`detour_prng::Xoshiro256pp::stream`] counter streams, so the
//!   same seed replays the same faults regardless of thread count,
//!   query order, or which subset of entities a consumer asks about.
//! * [`OutageSchedule`] — the sorted down-time episodes of one entity (a
//!   link, a router, a measurement host, an AS pair's flaps, or the global
//!   storm process).
//! * [`WithdrawalSchedule`] — per ordered-AS-pair route withdrawals with
//!   a convergence tail: while withdrawn the route is gone entirely;
//!   while converging the source AS uses its second-choice route.
//!
//! Consumers precompute per-entity tables at build time (netsim's
//! `Network`, measure's campaign runner); [`FaultPlan`] never draws from
//! a shared RNG, so precomputation parallelizes freely without affecting
//! the schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use detour_prng::{Rng, Xoshiro256pp};

/// Domain-separation constants: each fault class draws from its own
/// counter-stream family so that, e.g., link 3 and router 3 fail
/// independently. (ASCII mnemonics, same convention as the measurement
/// request stream domain.)
mod domain {
    /// Physical link outages ("link").
    pub const LINK: u64 = 0x6661_756c_6c69_6e6b;
    /// Router outages ("rout").
    pub const ROUTER: u64 = 0x6661_756c_726f_7574;
    /// BGP withdrawal transients ("wdrw").
    pub const WITHDRAW: u64 = 0x6661_756c_7764_7277;
    /// Measurement-host outages ("host").
    pub const HOST: u64 = 0x6661_756c_686f_7374;
    /// Probe-timeout storms ("stor").
    pub const STORM: u64 = 0x6661_756c_7374_6f72;
}

/// An alternating up/down renewal process: exponential up-times with mean
/// `mtbf_s`, then exponential down-times with mean `mttr_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Renewal {
    /// Mean up-time between the end of one episode and the start of the
    /// next, seconds. Infinite = the process never fires.
    pub mtbf_s: f64,
    /// Mean episode (down-time) duration, seconds.
    pub mttr_s: f64,
}

impl Renewal {
    /// A process that never fires.
    pub const NEVER: Renewal = Renewal {
        mtbf_s: f64::INFINITY,
        mttr_s: 0.0,
    };

    /// True when the process can fire (finite MTBF).
    pub fn active(&self) -> bool {
        self.mtbf_s.is_finite()
    }

    /// Draws the episodes over `[0, horizon_s)` from `rng`: the first
    /// up-time, then per episode a duration floored at `min_down_s` whose
    /// end is clamped to the horizon, and the next start at `end` plus a
    /// fresh up-time.
    pub fn schedule(&self, rng: &mut impl Rng, min_down_s: f64, horizon_s: f64) -> OutageSchedule {
        let mut episodes = Vec::new();
        let mut t = rng.exponential(self.mtbf_s);
        while t < horizon_s {
            let end = (t + rng.exponential(self.mttr_s).max(min_down_s)).min(horizon_s);
            episodes.push((t, end));
            t = end + rng.exponential(self.mtbf_s);
        }
        OutageSchedule { episodes }
    }
}

// Each class's defaults, named once; the constructors below describe them.
const LINK: Renewal = Renewal {
    mtbf_s: 86_400.0,
    mttr_s: 1_200.0,
};
const ROUTER: Renewal = Renewal {
    mtbf_s: 4.0 * 86_400.0,
    mttr_s: 2_700.0,
};
const WITHDRAW: Renewal = Renewal {
    mtbf_s: 2.0 * 86_400.0,
    mttr_s: 180.0,
};
const CONVERGENCE_S: f64 = 300.0;
const HOST: Renewal = Renewal {
    mtbf_s: 86_400.0,
    mttr_s: 7_200.0,
};
const STORM: Renewal = Renewal {
    mtbf_s: 2.0 * 86_400.0,
    mttr_s: 3_600.0,
};
// `with_intensity`'s storms, rarer and shorter than `STORM`.
const SWEEP_STORM: Renewal = Renewal {
    mtbf_s: 4.0 * 86_400.0,
    mttr_s: 1_800.0,
};
const STORM_SLOWDOWN: f64 = 50.0;

/// Declarative fault-injection knobs.
///
/// Every fault class is an alternating [`Renewal`] process. An infinite
/// MTBF ([`Renewal::NEVER`]) disables the class — the schedules it would
/// generate are empty, and consumers can skip building tables entirely
/// (see [`FaultConfig::network_faults`] / [`FaultConfig::campaign_faults`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for every fault stream (independent of the network and
    /// campaign seeds, so faults replay across both).
    pub seed: u64,
    /// Outages of one physical link.
    pub link: Renewal,
    /// Outages of one router.
    pub router: Renewal,
    /// BGP withdrawals of one ordered AS-pair route; the down-time is the
    /// withdrawn (blackhole) phase.
    pub withdraw: Renewal,
    /// Fixed convergence tail after each withdrawal during which the
    /// source AS uses its second-choice route, seconds.
    pub convergence_s: f64,
    /// Outages of one measurement host.
    pub host: Renewal,
    /// Global probe-timeout storms.
    pub storm: Renewal,
    /// Multiplier applied to probe elapsed time during a storm (pushes
    /// probes past the campaign timeout). `1.0` = no slowdown.
    pub storm_slowdown: f64,
    /// Fraction of the campaign horizon after which every request is
    /// dropped (truncated/partial campaign). `1.0` = full campaign.
    pub truncate_frac: f64,
}

impl FaultConfig {
    /// No faults at all: every class [`Renewal::NEVER`], no truncation.
    /// This is the default threaded through every existing dataset spec;
    /// with it the pipeline is byte-identical to the pre-fault code paths.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            link: Renewal::NEVER,
            router: Renewal::NEVER,
            withdraw: Renewal::NEVER,
            convergence_s: 0.0,
            host: Renewal::NEVER,
            storm: Renewal::NEVER,
            storm_slowdown: 1.0,
            truncate_frac: 1.0,
        }
    }

    /// Link failures only: each link fails about once per simulated day
    /// and stays down for ~20 minutes.
    pub fn link_failures(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            link: LINK,
            ..FaultConfig::none()
        }
    }

    /// Router failures only: rarer than link failures (a router takes all
    /// its links down at once), ~45-minute repairs.
    pub fn router_failures(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            router: ROUTER,
            ..FaultConfig::none()
        }
    }

    /// BGP withdrawal/convergence transients only: per ordered AS pair,
    /// a withdrawal every ~2 days blackholes the route for ~3 minutes and
    /// then routes via the second choice for a 5-minute convergence tail
    /// (Labovitz et al.'s delayed-convergence regime).
    pub fn withdrawals(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            withdraw: WITHDRAW,
            convergence_s: CONVERGENCE_S,
            ..FaultConfig::none()
        }
    }

    /// Measurement-host outages only: each host drops out about once per
    /// simulated day for ~2 hours (the paper lost whole hosts to exactly
    /// this).
    pub fn host_outages(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            host: HOST,
            ..FaultConfig::none()
        }
    }

    /// Probe-timeout storms only: ~1-hour windows every ~2 days in which
    /// probe latency is inflated 50× — enough to push any probe past the
    /// campaign timeout.
    pub fn timeout_storms(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            storm: STORM,
            storm_slowdown: STORM_SLOWDOWN,
            ..FaultConfig::none()
        }
    }

    /// Truncated campaign only: the collection stops at 60% of the
    /// nominal horizon (host decommissioned mid-study).
    pub fn truncation(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            truncate_frac: 0.6,
            ..FaultConfig::none()
        }
    }

    /// Everything at once — the chaos-suite worst case: every single-class
    /// default above, with the campaign truncated at 85 %.
    pub fn heavy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            link: LINK,
            router: ROUTER,
            withdraw: WITHDRAW,
            convergence_s: CONVERGENCE_S,
            host: HOST,
            storm: STORM,
            storm_slowdown: STORM_SLOWDOWN,
            truncate_frac: 0.85,
        }
    }

    /// Scales every failure *rate* by `intensity` (repair times and the
    /// convergence tail stay fixed; truncation is not part of the sweep).
    /// `intensity = 0` is [`FaultConfig::none`]. At `intensity = 1` the
    /// link, router, withdrawal and host classes match the single-class
    /// defaults above, but storms come every ~4 days and last ~30 minutes
    /// (rarer and shorter than [`FaultConfig::timeout_storms`]'
    /// 2 days / 1 hour). `intensity = 2` fails twice as often. This is the
    /// knob the `outage_sweep` experiment turns.
    pub fn with_intensity(seed: u64, intensity: f64) -> FaultConfig {
        if intensity <= 0.0 {
            return FaultConfig::none();
        }
        let scaled = |r: Renewal| Renewal {
            mtbf_s: r.mtbf_s / intensity,
            ..r
        };
        FaultConfig {
            seed,
            link: scaled(LINK),
            router: scaled(ROUTER),
            withdraw: scaled(WITHDRAW),
            convergence_s: CONVERGENCE_S,
            host: scaled(HOST),
            storm: scaled(SWEEP_STORM),
            storm_slowdown: STORM_SLOWDOWN,
            truncate_frac: 1.0,
        }
    }

    /// True when any fault class is active.
    pub fn enabled(&self) -> bool {
        self.network_faults() || self.campaign_faults()
    }

    /// True when link, router, or withdrawal faults are active — the
    /// classes netsim must build tables for.
    pub fn network_faults(&self) -> bool {
        self.link.active() || self.router.active() || self.withdraw.active()
    }

    /// True when host outages, storms, or truncation are active — the
    /// classes the measurement campaign must handle.
    pub fn campaign_faults(&self) -> bool {
        self.host.active() || self.storm.active() || self.truncate_frac < 1.0
    }
}

/// A [`FaultConfig`] bound to a time horizon: the factory every consumer
/// uses to materialize per-entity schedules. All methods are pure
/// functions of `(config.seed, domain, entity code)` — calling them in
/// any order, from any thread, for any subset of entities yields the
/// same schedules.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The fault knobs.
    pub cfg: FaultConfig,
    /// Schedule horizon, seconds (the campaign/trace duration).
    pub horizon_s: f64,
}

impl FaultPlan {
    /// Binds `cfg` to a horizon.
    pub fn new(cfg: FaultConfig, horizon_s: f64) -> FaultPlan {
        FaultPlan { cfg, horizon_s }
    }

    /// Draws one entity's schedule from its dedicated counter stream
    /// `(seed, domain_key, code)`, so no other entity's schedule shifts
    /// it, and folds its episode count into the calling thread's
    /// `detour-obs` `counter` (deterministic in the plan, so
    /// thread-count-invariant even when consumers build their tables on
    /// the pool). A disabled or degenerate process yields no episodes.
    fn draw(&self, process: Renewal, domain_key: u64, code: u64, counter: &str) -> OutageSchedule {
        let sched = if !process.active()
            || process.mtbf_s <= 0.0
            || process.mttr_s <= 0.0
            || self.horizon_s <= 0.0
        {
            OutageSchedule::empty()
        } else {
            let mut rng = Xoshiro256pp::stream(self.cfg.seed ^ domain_key, code);
            process.schedule(&mut rng, 1.0, self.horizon_s)
        };
        detour_obs::current().add(counter, sched.episode_count() as u64);
        sched
    }

    /// Outage schedule for physical link `link_code`.
    pub fn link_schedule(&self, link_code: u64) -> OutageSchedule {
        self.draw(
            self.cfg.link,
            domain::LINK,
            link_code,
            "faults/link_episodes",
        )
    }

    /// Outage schedule for router `router_code`.
    pub fn router_schedule(&self, router_code: u64) -> OutageSchedule {
        self.draw(
            self.cfg.router,
            domain::ROUTER,
            router_code,
            "faults/router_episodes",
        )
    }

    /// Withdrawal schedule for the ordered AS pair `(src, dst)` (ids
    /// packed by the caller; direction-sensitive like route flaps).
    pub fn withdrawal_schedule(&self, src: u16, dst: u16) -> WithdrawalSchedule {
        let code = ((src as u64) << 16) | dst as u64;
        WithdrawalSchedule {
            episodes: self.draw(
                self.cfg.withdraw,
                domain::WITHDRAW,
                code,
                "faults/withdrawal_episodes",
            ),
            convergence_s: self.cfg.convergence_s,
        }
    }

    /// Outage schedule for measurement host `host_code`.
    pub fn host_schedule(&self, host_code: u64) -> OutageSchedule {
        self.draw(
            self.cfg.host,
            domain::HOST,
            host_code,
            "faults/host_episodes",
        )
    }

    /// The single global probe-timeout storm schedule.
    pub fn storm_schedule(&self) -> OutageSchedule {
        self.draw(self.cfg.storm, domain::STORM, 0, "faults/storm_episodes")
    }

    /// Time after which the campaign is truncated, or `None` when it
    /// runs to completion.
    pub fn truncation_cutoff_s(&self) -> Option<f64> {
        (self.cfg.truncate_frac < 1.0).then(|| self.cfg.truncate_frac.max(0.0) * self.horizon_s)
    }
}

/// Sorted, non-overlapping `(start, end)` down-time episodes for one
/// entity over `[0, horizon)`, drawn by [`Renewal::schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSchedule {
    episodes: Vec<(f64, f64)>,
}

impl OutageSchedule {
    /// An always-up schedule.
    pub fn empty() -> OutageSchedule {
        OutageSchedule {
            episodes: Vec::new(),
        }
    }

    /// The latest episode starting at or before `t`, if any.
    fn last_started(&self, t: f64) -> Option<(f64, f64)> {
        let i = self.episodes.partition_point(|&(start, _)| start <= t);
        i.checked_sub(1).map(|i| self.episodes[i])
    }

    /// True when the entity is down at time `t` (seconds).
    pub fn down_at(&self, t: f64) -> bool {
        self.state_at(t).0
    }

    /// Whether the entity is down at `t`, and the first instant at which
    /// that can change: the state holds on `[t, until)`. Down, `until` is
    /// the episode's end; up, the next episode's start, or `+∞` after the
    /// last. One binary search, as [`OutageSchedule::down_at`] makes.
    pub fn state_at(&self, t: f64) -> (bool, f64) {
        let i = self.episodes.partition_point(|&(start, _)| start <= t);
        match i.checked_sub(1).map(|i| self.episodes[i]) {
            Some((_, end)) if t < end => (true, end),
            _ => (
                false,
                self.episodes
                    .get(i)
                    .map_or(f64::INFINITY, |&(start, _)| start),
            ),
        }
    }

    /// Number of down-time episodes in the horizon.
    pub fn episode_count(&self) -> usize {
        self.episodes.len()
    }

    /// Total down time, seconds.
    pub fn total_down_s(&self) -> f64 {
        self.episodes.iter().map(|(s, e)| e - s).sum()
    }

    /// The raw episodes (for serialization/diagnostics).
    pub fn episodes(&self) -> &[(f64, f64)] {
        &self.episodes
    }
}

/// Routing state of one ordered AS-pair route at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePhase {
    /// The best route is installed and stable.
    Stable,
    /// The route is withdrawn and no replacement has propagated: traffic
    /// is blackholed.
    Withdrawn,
    /// The withdrawal has been replaced by the second-choice route while
    /// BGP converges back to the best path.
    Converging,
}

/// Withdrawal episodes for one ordered AS pair, each followed by a fixed
/// convergence tail.
#[derive(Debug, Clone, PartialEq)]
pub struct WithdrawalSchedule {
    episodes: OutageSchedule,
    convergence_s: f64,
}

impl WithdrawalSchedule {
    /// Routing phase at time `t` (seconds).
    pub fn phase_at(&self, t: f64) -> RoutePhase {
        match self.episodes.last_started(t) {
            Some((_, end)) if t < end => RoutePhase::Withdrawn,
            Some((_, end)) if t < end + self.convergence_s => RoutePhase::Converging,
            _ => RoutePhase::Stable,
        }
    }

    /// Number of withdrawal episodes in the horizon.
    pub fn episode_count(&self) -> usize {
        self.episodes.episode_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;

    #[test]
    fn none_config_generates_no_faults() {
        let plan = FaultPlan::new(FaultConfig::none(), 7.0 * DAY);
        assert!(!plan.cfg.enabled());
        assert_eq!(plan.link_schedule(3).episode_count(), 0);
        assert_eq!(plan.router_schedule(3).episode_count(), 0);
        assert_eq!(plan.host_schedule(3).episode_count(), 0);
        assert_eq!(plan.storm_schedule().episode_count(), 0);
        assert_eq!(plan.withdrawal_schedule(1, 2).episode_count(), 0);
        assert_eq!(plan.truncation_cutoff_s(), None);
    }

    #[test]
    fn link_schedule_draw_order_is_pinned() {
        // Exact bits of the first episodes: a reordered draw or sum in the
        // renewal loop changes them even where the golden reports do not.
        let s = FaultPlan::new(FaultConfig::link_failures(7), 7.0 * DAY).link_schedule(0);
        let bits: Vec<(u64, u64)> = s.episodes()[..3]
            .iter()
            .map(|&(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        assert_eq!(
            bits,
            [
                (0x4101_46b4_ab79_002b, 0x4101_822a_4573_0002),
                (0x4101_ca70_5575_ec39, 0x4101_fe64_25a8_d719),
                (0x4107_068c_c9ba_44e1, 0x4107_11d1_9da5_bc78),
            ]
        );
        assert_eq!(s.episode_count(), 6);
    }

    #[test]
    fn schedules_are_replayable() {
        let plan = FaultPlan::new(FaultConfig::heavy(42), 7.0 * DAY);
        for code in 0..50u64 {
            assert_eq!(plan.link_schedule(code), plan.link_schedule(code));
            assert_eq!(plan.host_schedule(code), plan.host_schedule(code));
        }
        assert_eq!(
            plan.withdrawal_schedule(3, 9),
            plan.withdrawal_schedule(3, 9)
        );
    }

    #[test]
    fn fault_classes_are_domain_separated() {
        // Same entity code, different class → independent schedules.
        let plan = FaultPlan::new(FaultConfig::heavy(42), 30.0 * DAY);
        assert_ne!(plan.link_schedule(5), plan.router_schedule(5));
        assert_ne!(plan.link_schedule(5), plan.host_schedule(5));
    }

    #[test]
    fn entities_fail_independently() {
        let plan = FaultPlan::new(FaultConfig::link_failures(7), 30.0 * DAY);
        assert_ne!(plan.link_schedule(0), plan.link_schedule(1));
    }

    #[test]
    fn episodes_sorted_disjoint_and_clamped() {
        let plan = FaultPlan::new(FaultConfig::heavy(9), 7.0 * DAY);
        for code in 0..40u64 {
            let s = plan.link_schedule(code);
            for w in s.episodes().windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:?}", s.episodes());
            }
            for &(start, end) in s.episodes() {
                assert!(start >= 0.0 && end <= 7.0 * DAY && start < end);
            }
        }
    }

    #[test]
    fn down_queries_match_episodes() {
        let plan = FaultPlan::new(FaultConfig::host_outages(11), 14.0 * DAY);
        let s = plan.host_schedule(4);
        assert!(
            s.episode_count() > 0,
            "14 days at 1/day MTBF should fail at least once"
        );
        for &(start, end) in s.episodes() {
            assert!(s.down_at(start));
            assert!(s.down_at((start + end) / 2.0));
            assert!(!s.down_at(end));
        }
        assert!(!s.down_at(-1.0));
    }

    /// `down_at`'s rule before [`OutageSchedule::state_at`]: down inside
    /// the latest episode started at or before `t`.
    fn last_started_rule(s: &OutageSchedule, t: f64) -> bool {
        s.last_started(t).is_some_and(|(_, end)| t < end)
    }

    #[test]
    fn state_at_follows_the_last_started_rule_and_holds_until_its_bound() {
        detour_prng::check::check("state_at_holds_until_its_bound", |rng| {
            let horizon = rng.gen_range(1_000.0..30.0 * DAY);
            let process = Renewal {
                mtbf_s: rng.gen_range(10.0..DAY),
                mttr_s: rng.gen_range(1.0..7_200.0),
            };
            let min_down = rng.gen_range(0.0..60.0);
            let s = process.schedule(rng, min_down, horizon);
            // Every episode's start and end and the float just below each,
            // then random instants on both sides of the horizon.
            let mut instants: Vec<f64> = s
                .episodes()
                .iter()
                .flat_map(|&(a, b)| [a, a.next_down(), b, b.next_down()])
                .collect();
            instants.extend((0..40).map(|_| rng.gen_range(-100.0..horizon + 100.0)));
            for t in instants {
                let (down, until) = s.state_at(t);
                assert_eq!(down, last_started_rule(&s, t), "state at {t}");
                assert_eq!(down, s.down_at(t));
                assert!(until > t, "bound {until} not after {t}");
                // The state holds on [t, until): at its ends and inside.
                let span = if until.is_finite() {
                    until - t
                } else {
                    horizon
                };
                let mut inside: Vec<f64> =
                    (0..8).map(|_| t + span * rng.gen_range(0.0..1.0)).collect();
                inside.push(t);
                if until.is_finite() {
                    inside.push(until.next_down());
                }
                for u in inside.into_iter().filter(|&u| u >= t && u < until) {
                    assert_eq!(last_started_rule(&s, u), down, "from {t}, at {u} < {until}");
                }
            }
        });
    }

    #[test]
    fn an_empty_schedule_is_up_forever() {
        let s = OutageSchedule::empty();
        for t in [-1.0, 0.0, 1.0e9] {
            assert_eq!(s.state_at(t), (false, f64::INFINITY));
        }
    }

    #[test]
    fn withdrawal_phases_cover_blackhole_then_convergence() {
        let plan = FaultPlan::new(FaultConfig::withdrawals(13), 30.0 * DAY);
        // Scan pairs until one has an episode with a clean convergence
        // window (deterministic, so the scan is stable).
        let mut checked = false;
        'outer: for a in 0..20u16 {
            for b in 0..20u16 {
                let w = plan.withdrawal_schedule(a, b);
                let eps = w.episodes.episodes.clone();
                for &(start, end) in &eps {
                    if end + 300.0 < 30.0 * DAY {
                        assert_eq!(w.phase_at((start + end) / 2.0), RoutePhase::Withdrawn);
                        assert_eq!(w.phase_at(end + 1.0), RoutePhase::Converging);
                        assert_eq!(w.phase_at(end + 301.0), RoutePhase::Stable);
                        assert_eq!(w.phase_at(start - 1.0), RoutePhase::Stable);
                        checked = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            checked,
            "no withdrawal episode found across 400 pairs in 30 days"
        );
    }

    #[test]
    fn intensity_scales_failure_frequency() {
        let horizon = 30.0 * DAY;
        let count = |x: f64| {
            let plan = FaultPlan::new(FaultConfig::with_intensity(5, x), horizon);
            (0..60u64)
                .map(|c| plan.link_schedule(c).episode_count())
                .sum::<usize>()
        };
        assert_eq!(count(0.0), 0);
        let low = count(0.5);
        let high = count(4.0);
        assert!(low > 0, "intensity 0.5 over 30 days must fail sometimes");
        assert!(
            high > 2 * low,
            "4x intensity should fail much more often ({high} vs {low})"
        );
    }

    #[test]
    fn truncation_cutoff_scales_with_horizon() {
        let plan = FaultPlan::new(FaultConfig::truncation(1), 1000.0);
        assert_eq!(plan.truncation_cutoff_s(), Some(600.0));
        assert!(FaultConfig::truncation(1).campaign_faults());
        assert!(!FaultConfig::truncation(1).network_faults());
    }

    #[test]
    fn scenario_ctors_enable_exactly_their_class() {
        assert!(FaultConfig::link_failures(1).network_faults());
        assert!(!FaultConfig::link_failures(1).campaign_faults());
        assert!(FaultConfig::host_outages(1).campaign_faults());
        assert!(!FaultConfig::host_outages(1).network_faults());
        assert!(FaultConfig::timeout_storms(1).campaign_faults());
        assert!(FaultConfig::heavy(1).network_faults() && FaultConfig::heavy(1).campaign_faults());
        assert!(!FaultConfig::none().enabled());
    }
}
