//! Per-link utilization, queuing delay, and loss.
//!
//! Every link carries background traffic we never simulate packet-by-packet;
//! instead each link has a *utilization process* ρ(t) composed of:
//!
//! * a **base utilization** drawn per link by kind — public exchange points
//!   run hot (the MAE-East of paper §7.1's "particularly poor quality …
//!   congested exchange points"), private interconnects and internal
//!   backbone links cooler;
//! * the **diurnal/weekly factor** of the link's location
//!   ([`crate::traffic::diurnal`]);
//! * slow **background wander** (two incommensurate sinusoids with per-link
//!   phases) so paths measured at different times genuinely differ;
//! * transient **congestion events** (Poisson arrivals, exponential
//!   durations) standing in for flash crowds and reroutes.
//!
//! From ρ(t), per-probe queuing delay is sampled from an exponential with an
//! M/M/1-shaped mean `scale · ρ/(1−ρ)`, and loss is Bernoulli with a
//! probability that turns up sharply past a knee — idle links barely drop,
//! saturated ones drop several percent, as in \[Bol93\]/\[Pax97a\].

use detour_faults::{OutageSchedule, Renewal};
use detour_prng::Rng;
use detour_prng::Xoshiro256pp;

use crate::geo::CITIES;
use crate::sim::clock::{Calendar, SimTime};
use crate::topology::{LinkId, LinkKind, Topology};
use crate::traffic::diurnal::DiurnalProfile;

/// Tuning for the load model.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Base-utilization range for internal backbone links.
    pub base_internal: (f64, f64),
    /// Base-utilization range for stub access uplinks (sized for the
    /// stub's own traffic, so cooler than transit interconnects — a detour
    /// pays two extra access traversals, and those must not drown the
    /// congestion it avoids).
    pub base_access: (f64, f64),
    /// Base-utilization range for private interconnects.
    pub base_private: (f64, f64),
    /// Base-utilization range for public exchange ports.
    pub base_public: (f64, f64),
    /// Queue-delay scale (ms) at ρ/(1−ρ) = 1 for internal links.
    pub queue_scale_internal_ms: f64,
    /// Queue-delay scale (ms) for private interconnects.
    pub queue_scale_private_ms: f64,
    /// Queue-delay scale (ms) for public exchange ports.
    pub queue_scale_public_ms: f64,
    /// Hard cap on mean queuing delay (ms) — buffers are finite.
    pub queue_cap_ms: f64,
    /// Baseline loss probability per link per packet.
    pub loss_base: f64,
    /// Loss scale above the knee for ordinary links.
    pub loss_scale: f64,
    /// Loss scale above the knee for public exchange ports.
    pub loss_scale_public: f64,
    /// Utilization knee where loss starts climbing.
    pub loss_knee: f64,
    /// Mean congestion events per link per day (ordinary links).
    pub events_per_day: f64,
    /// Mean congestion events per link per day (public exchanges).
    pub events_per_day_public: f64,
    /// Mean congestion-event duration, seconds.
    pub event_duration_s: f64,
    /// Congestion-event magnitude range (added utilization).
    pub event_magnitude: (f64, f64),
    /// Full-outage process of each link (fiber cuts, router crashes,
    /// misconfigurations — the failures RON-style overlays route around).
    /// Rare: most links never fail during a trace. An outage lasts at
    /// least 30 s.
    pub outages: Renewal,
    /// Fraction of internal/private links that are chronic hotspots.
    ///
    /// Congestion on the real Internet is concentrated: a few
    /// under-provisioned circuits and exchange ports account for most
    /// queuing, while typical links barely queue even at peak. That
    /// concentration is what lets a detour around one hotspot win *more*
    /// during busy hours instead of paying uniform peak tax everywhere
    /// (paper §6.3).
    pub hot_fraction: f64,
    /// Base-utilization range for hotspot links.
    pub base_hot: (f64, f64),
}

impl LoadConfig {
    /// Era presets: 1995 runs hotter and lossier than 1999 (the paper's D2
    /// loss-rate CDF shows substantially more improvement than UW's).
    pub fn for_era(era: crate::topology::generator::Era) -> LoadConfig {
        use crate::topology::generator::Era;
        match era {
            Era::Y1995 => LoadConfig {
                base_internal: (0.12, 0.42),
                base_access: (0.12, 0.45),
                base_private: (0.18, 0.55),
                base_public: (0.60, 0.96),
                queue_scale_internal_ms: 2.0,
                queue_scale_private_ms: 5.0,
                queue_scale_public_ms: 18.0,
                queue_cap_ms: 180.0,
                // Mid-90s loss was substantial (Paxson measured ~5 %
                // average in 1995). The per-link log-uniform multiplier has
                // mean ~2.15, so 0.005 here yields ~1 % per link on average.
                loss_base: 0.005,
                loss_scale: 0.06,
                loss_scale_public: 0.15,
                loss_knee: 0.65,
                events_per_day: 0.25,
                events_per_day_public: 0.9,
                event_duration_s: 45.0 * 60.0,
                event_magnitude: (0.2, 0.55),
                outages: Renewal {
                    mtbf_s: 86_400.0 / 0.03,
                    mttr_s: 12.0 * 60.0,
                },
                hot_fraction: 0.25,
                base_hot: (0.60, 0.92),
            },
            Era::Y1999 => LoadConfig {
                base_internal: (0.10, 0.38),
                base_access: (0.10, 0.40),
                base_private: (0.15, 0.50),
                base_public: (0.50, 0.93),
                queue_scale_internal_ms: 1.5,
                queue_scale_private_ms: 3.0,
                queue_scale_public_ms: 12.0,
                queue_cap_ms: 150.0,
                loss_base: 0.0015,
                loss_scale: 0.04,
                loss_scale_public: 0.10,
                loss_knee: 0.70,
                events_per_day: 0.2,
                events_per_day_public: 0.8,
                event_duration_s: 30.0 * 60.0,
                event_magnitude: (0.15, 0.5),
                outages: Renewal {
                    mtbf_s: 86_400.0 / 0.02,
                    mttr_s: 10.0 * 60.0,
                },
                hot_fraction: 0.20,
                base_hot: (0.55, 0.88),
            },
        }
    }
}

/// Per-link static load state.
#[derive(Debug, Clone)]
struct LinkLoad {
    base: f64,
    /// The two wander sinusoids.
    wander: [Wander; 2],
    /// Sorted congestion events `(start_s, end_s, magnitude)`.
    events: Vec<(f64, f64, f64)>,
    /// Full-outage windows.
    outages: OutageSchedule,
    queue_scale_ms: f64,
    /// Per-link baseline loss: links are *not* equally lossy — a flaky
    /// trans-oceanic circuit and a clean campus uplink differ by orders of
    /// magnitude, and that heterogeneity is what makes low-loss detours
    /// possible (paper Figures 3–5).
    loss_base: f64,
    loss_scale: f64,
    tz: i8,
}

/// One background-wander sinusoid of a link, `amp · sin(a + phase)` at
/// argument `a`, with the sine and cosine of its phase taken once at
/// generation: the term is `amp · (sin a · cos phase + cos a · sin phase)`.
#[derive(Debug, Clone, Copy)]
struct Wander {
    amp: f64,
    sin_phase: f64,
    cos_phase: f64,
    /// The phase itself, for the `sin(a + phase)` oracle in the tests.
    #[cfg(test)]
    phase: f64,
}

impl Wander {
    fn new(phase: f64, amp: f64) -> Wander {
        let (sin_phase, cos_phase) = phase.sin_cos();
        Wander {
            amp,
            sin_phase,
            cos_phase,
            #[cfg(test)]
            phase,
        }
    }
}

/// One sampled traversal of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Queuing delay experienced, milliseconds.
    pub queue_delay_ms: f64,
    /// Whether the packet was dropped at this link.
    pub lost: bool,
}

/// The complete load model for a topology over a time horizon.
#[derive(Debug, Clone)]
pub struct LoadModel {
    cfg: LoadConfig,
    profile: DiurnalProfile,
    cal: Calendar,
    links: Vec<LinkLoad>,
}

/// What every link's load shares at one instant `t`: the sine and cosine
/// of the wander sinusoids' time arguments, and the diurnal factor of each
/// UTC offset (`-12..=14`) once a link there asks for it. A path samples
/// all of its links at one `t`, so [`LoadModel::at`] computes these once
/// per traversal instead of once per link.
#[derive(Debug, Clone)]
pub struct LoadInstant {
    t: SimTime,
    /// `sin_cos` of `TAU · t / WANDER_PERIODS_S[i]`.
    wander: [(f64, f64); 2],
    /// The diurnal factor at UTC offset `k - 12`; `NaN` until first asked.
    diurnal: [f64; 27],
}

/// Shortest full-outage window, seconds.
const MIN_OUTAGE_S: f64 = 30.0;

/// Wander periods (seconds): ~3.1 h and ~13.9 h, incommensurate with each
/// other and with the 24 h diurnal cycle.
const WANDER_PERIODS_S: [f64; 2] = [11_160.0, 50_040.0];

impl LoadModel {
    /// Builds the load process for every link of `topo` over
    /// `[0, horizon_s)` seconds. Deterministic in `seed`.
    pub fn generate(topo: &Topology, cfg: LoadConfig, seed: u64, horizon_s: f64) -> LoadModel {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x10ad_10ad_10ad_10ad);
        let links = topo
            .links
            .iter()
            .map(|l| {
                // A non-internal link touching a stub AS is an access
                // uplink, not a transit interconnect.
                let touches_stub = {
                    use crate::topology::AsTier;
                    topo.asys(topo.router(l.from).asn).tier == AsTier::Stub
                        || topo.asys(topo.router(l.to).asn).tier == AsTier::Stub
                };
                let (base_range, queue_scale, loss_scale, ev_rate) = match l.kind {
                    LinkKind::Internal => (
                        cfg.base_internal,
                        cfg.queue_scale_internal_ms,
                        cfg.loss_scale,
                        cfg.events_per_day,
                    ),
                    LinkKind::PrivateInterconnect if touches_stub => (
                        cfg.base_access,
                        cfg.queue_scale_private_ms,
                        cfg.loss_scale,
                        cfg.events_per_day,
                    ),
                    LinkKind::PrivateInterconnect => (
                        cfg.base_private,
                        cfg.queue_scale_private_ms,
                        cfg.loss_scale,
                        cfg.events_per_day,
                    ),
                    LinkKind::PublicExchange => (
                        cfg.base_public,
                        cfg.queue_scale_public_ms,
                        cfg.loss_scale_public,
                        cfg.events_per_day_public,
                    ),
                };
                let mut base = rng.gen_range(base_range.0..base_range.1);
                // Chronic hotspots among ordinary links (public exchange
                // ports are already hot by their own base range).
                if l.kind != LinkKind::PublicExchange && rng.gen_bool(cfg.hot_fraction) {
                    base = rng.gen_range(cfg.base_hot.0..cfg.base_hot.1);
                }
                let wander = [(0.04, 0.14), (0.03, 0.10)].map(|(lo, hi)| {
                    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                    Wander::new(phase, rng.gen_range(lo..hi))
                });
                // Log-uniform per-link loss multiplier over [0.1, 10]: some
                // links are nearly lossless, some chronically flaky.
                let loss_mult = (rng.gen_range(-1.0f64..1.0) * 10.0f64.ln()).exp();
                // Poisson congestion events over the horizon.
                let mut events = Vec::new();
                let mean_gap = 86_400.0 / ev_rate.max(1e-9);
                let mut t = rng.exponential(mean_gap);
                while t < horizon_s {
                    let dur = rng.exponential(cfg.event_duration_s);
                    let mag = rng.gen_range(cfg.event_magnitude.0..cfg.event_magnitude.1);
                    events.push((t, t + dur.max(60.0), mag));
                    t += dur + rng.exponential(mean_gap);
                }
                // Rare full outages over the horizon.
                let outages = cfg.outages.schedule(&mut rng, MIN_OUTAGE_S, horizon_s);
                let tz = CITIES[topo.router(l.from).city].utc_offset_hours;
                LinkLoad {
                    base,
                    wander,
                    events,
                    outages,
                    queue_scale_ms: queue_scale,
                    loss_base: cfg.loss_base * loss_mult,
                    loss_scale,
                    tz,
                }
            })
            .collect();
        LoadModel {
            cfg,
            profile: DiurnalProfile::default(),
            cal: Calendar,
            links,
        }
    }

    /// The per-instant state at `t`, for [`LoadModel::sample_at`] and
    /// [`LoadModel::utilization_at`] on any number of links.
    pub fn at(&self, t: SimTime) -> LoadInstant {
        LoadInstant {
            t,
            wander: WANDER_PERIODS_S.map(|period| (std::f64::consts::TAU * t.0 / period).sin_cos()),
            diurnal: [f64::NAN; 27],
        }
    }

    /// Utilization of `link` at the instant `now`, in `[0, 0.97]`.
    pub fn utilization_at(&self, link: LinkId, now: &mut LoadInstant) -> f64 {
        let ll = &self.links[link.0 as usize];
        let t = now.t;
        let slot = &mut now.diurnal[(ll.tz as i32 + 12) as usize];
        if slot.is_nan() {
            *slot = self.profile.factor(&self.cal, t, ll.tz);
        }
        let mut rho = ll.base * *slot;
        for (&(sin_a, cos_a), w) in now.wander.iter().zip(&ll.wander) {
            rho += w.amp * (sin_a * w.cos_phase + cos_a * w.sin_phase);
        }
        // Congestion events: binary-search the sorted starts, then scan the
        // handful of potentially overlapping predecessors.
        let i = ll.events.partition_point(|&(s, _, _)| s <= t.0);
        for &(s, e, m) in ll.events[..i].iter().rev().take(4) {
            if t.0 >= s && t.0 < e {
                rho += m;
            }
        }
        rho.clamp(0.0, 0.97)
    }

    /// True when `link` is in a full-outage window at `t`.
    fn is_down(&self, link: LinkId, t: SimTime) -> bool {
        self.links[link.0 as usize].outages.down_at(t.0)
    }

    /// Mean queuing delay (ms) at utilization `rho` for `link`.
    pub fn mean_queue_delay_ms(&self, link: LinkId, rho: f64) -> f64 {
        let ll = &self.links[link.0 as usize];
        (ll.queue_scale_ms * rho / (1.0 - rho).max(0.03)).min(self.cfg.queue_cap_ms)
    }

    /// Loss probability at utilization `rho` for `link`.
    pub fn loss_probability(&self, link: LinkId, rho: f64) -> f64 {
        let ll = &self.links[link.0 as usize];
        let knee = self.cfg.loss_knee;
        let over = ((rho - knee) / (1.0 - knee)).max(0.0);
        (ll.loss_base + ll.loss_scale * over * over).min(0.5)
    }

    /// Per-link probability that a packet hits a pathological delay burst
    /// (router slow path, transient rerouting, upstream buffer storm). Rare
    /// per link, but a 12-link path sees one every ~20 packets — the heavy
    /// RTT tails of \[Bol93\]/\[Pax97a\].
    pub const SPIKE_PROB: f64 = 0.0004;

    /// Mean extra delay of a burst, milliseconds.
    pub const SPIKE_MEAN_MS: f64 = 300.0;

    /// Samples one packet's traversal of `link` at the instant `now`:
    /// Gamma(4) queuing delay around the M/M/1 mean, a rare heavy-tail
    /// delay spike, and Bernoulli loss.
    pub fn sample_at(&self, link: LinkId, now: &mut LoadInstant, rng: &mut impl Rng) -> LinkSample {
        match self.draw_at(link, now, rng) {
            None => LinkSample {
                queue_delay_ms: 0.0,
                lost: true,
            },
            Some((queue_delay_ms, loss_prob)) => LinkSample {
                queue_delay_ms,
                lost: rng.gen_bool(loss_prob),
            },
        }
    }

    /// Everything [`LoadModel::sample_at`] draws except the loss itself:
    /// the queuing delay and the loss probability at that sampled
    /// utilization. `None` while `link` is in a full outage (no RNG drawn).
    ///
    /// The Gamma(4) queuing delay is `−mean/4 · ln(u₁·u₂·u₃·u₄)` over four
    /// uniforms from `[f64::MIN_POSITIVE, 1)`: one logarithm of their
    /// product in place of four. Each uniform is at least 2⁻⁵³ unless its
    /// raw draw was exactly 0, so the product underflows only then; below
    /// `f64::MIN_POSITIVE` the sum of the four logarithms is taken
    /// instead, which stays finite. The two forms agree to the last few
    /// bits.
    pub fn draw_at(
        &self,
        link: LinkId,
        now: &mut LoadInstant,
        rng: &mut impl Rng,
    ) -> Option<(f64, f64)> {
        if self.is_down(link, now.t) {
            return None;
        }
        let rho = (self.utilization_at(link, now) + rng.gen_range(-0.04..0.04f64)).clamp(0.0, 0.97);
        let mean_q = self.mean_queue_delay_ms(link, rho);
        // Gamma(k=4): the sum of four exponentials at mean/4 — right-skewed
        // like a real queue, but mild enough that path means track medians
        // (the paper's §6.1 finding).
        let u: [f64; 4] = std::array::from_fn(|_| rng.gen_range(f64::MIN_POSITIVE..1.0f64));
        let mut queue_delay_ms = (-mean_q / 4.0 * ln_product(u)).min(self.cfg.queue_cap_ms * 4.0);
        if rng.gen_bool(Self::SPIKE_PROB) {
            queue_delay_ms += rng.exponential(Self::SPIKE_MEAN_MS);
        }
        Some((queue_delay_ms, self.loss_probability(link, rho)))
    }
}

/// `ln(u₁·u₂·u₃·u₄)`, or `Σ ln uᵢ` when the product is below
/// `f64::MIN_POSITIVE` (see [`LoadModel::draw_at`]).
fn ln_product(u: [f64; 4]) -> f64 {
    let product = u[0] * u[1] * u[2] * u[3];
    if product >= f64::MIN_POSITIVE {
        product.ln()
    } else {
        u.iter().map(|x| x.ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::generator::{generate, Era, TopologyConfig};

    fn model() -> (Topology, LoadModel) {
        let topo = generate(
            &TopologyConfig::for_era(Era::Y1999),
            &mut Xoshiro256pp::seed_from_u64(5),
        );
        let cfg = LoadConfig::for_era(Era::Y1999);
        let lm = LoadModel::generate(&topo, cfg, 5, 14.0 * 86_400.0);
        (topo, lm)
    }

    #[test]
    fn utilization_is_bounded() {
        let (topo, lm) = model();
        for l in topo.links.iter().step_by(7) {
            for h in (0..336).step_by(13) {
                let rho = lm.utilization_at(l.id, &mut lm.at(SimTime::from_hours(h as f64)));
                assert!((0.0..=0.97).contains(&rho), "rho = {rho}");
            }
        }
    }

    #[test]
    fn business_hours_run_hotter_than_night() {
        let (topo, lm) = model();
        // Average across links: Tuesday 11:00 local vs Tuesday 03:00 local.
        let mut day = 0.0;
        let mut night = 0.0;
        let mut n = 0.0;
        for l in &topo.links {
            let tz = CITIES[topo.router(l.from).city].utc_offset_hours as f64;
            let day_t = SimTime::from_hours(24.0 + 11.0 - tz);
            let night_t = SimTime::from_hours(24.0 + 3.0 - tz);
            day += lm.utilization_at(l.id, &mut lm.at(day_t));
            night += lm.utilization_at(l.id, &mut lm.at(night_t));
            n += 1.0;
        }
        assert!(day / n > 1.4 * (night / n), "day {day} vs night {night}");
    }

    #[test]
    fn public_exchanges_run_hotter() {
        let (topo, lm) = model();
        // Tuesday 20:00 UTC = noon PST: most links are at their local peak.
        let avg = |kind: LinkKind| {
            let ls: Vec<_> = topo.links.iter().filter(|l| l.kind == kind).collect();
            let sum: f64 = ls
                .iter()
                .map(|l| lm.utilization_at(l.id, &mut lm.at(SimTime::from_hours(44.0))))
                .sum();
            sum / ls.len().max(1) as f64
        };
        assert!(
            avg(LinkKind::PublicExchange) > avg(LinkKind::Internal) + 0.08,
            "public {} vs internal {}",
            avg(LinkKind::PublicExchange),
            avg(LinkKind::Internal)
        );
    }

    #[test]
    fn loss_probability_turns_up_past_knee() {
        let (topo, lm) = model();
        let l = topo.links[0].id;
        let low = lm.loss_probability(l, 0.3);
        let mid = lm.loss_probability(l, 0.75);
        let high = lm.loss_probability(l, 0.95);
        assert!(low < 0.01);
        assert!(high > mid && mid >= low);
        assert!(high > 0.01, "saturated links must visibly drop: {high}");
    }

    #[test]
    fn queue_delay_grows_with_utilization_and_caps() {
        let (topo, lm) = model();
        let l = topo.links[0].id;
        assert!(lm.mean_queue_delay_ms(l, 0.9) > lm.mean_queue_delay_ms(l, 0.3));
        assert!(lm.mean_queue_delay_ms(l, 0.999) <= 120.0);
    }

    #[test]
    fn sampling_is_deterministic_in_rng() {
        let (topo, lm) = model();
        let l = topo.links[3].id;
        let t = SimTime::from_hours(50.0);
        let mut r1 = Xoshiro256pp::seed_from_u64(1);
        let mut r2 = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(
                lm.sample_at(l, &mut lm.at(t), &mut r1),
                lm.sample_at(l, &mut lm.at(t), &mut r2)
            );
        }
    }

    #[test]
    fn one_shared_instant_samples_like_a_fresh_one_per_link() {
        let (topo, lm) = model();
        let zones: std::collections::BTreeSet<i8> = lm.links.iter().map(|ll| ll.tz).collect();
        assert!(zones.len() >= 5, "links in many time zones: {zones:?}");
        for h in [3.0, 44.0, 131.5, 200.25] {
            let t = SimTime::from_hours(h);
            let mut shared = lm.at(t);
            let mut r1 = Xoshiro256pp::seed_from_u64(h as u64);
            let mut r2 = r1.clone();
            for l in &topo.links {
                let a = lm.sample_at(l.id, &mut shared, &mut r1);
                let b = lm.sample_at(l.id, &mut lm.at(t), &mut r2);
                assert_eq!(a.queue_delay_ms.to_bits(), b.queue_delay_ms.to_bits());
                assert_eq!(a.lost, b.lost);
                assert_eq!(
                    lm.utilization_at(l.id, &mut shared).to_bits(),
                    lm.utilization_at(l.id, &mut lm.at(t)).to_bits()
                );
            }
            assert_eq!(r1, r2, "the same draws, in the same order");
        }
    }

    /// `utilization_at` before the `sin_cos` form: one `sin` of the summed
    /// argument and phase per wander term. The test oracle.
    fn utilization_by_sine(lm: &LoadModel, link: LinkId, t: SimTime) -> f64 {
        let ll = &lm.links[link.0 as usize];
        let mut rho = ll.base * lm.profile.factor(&lm.cal, t, ll.tz);
        for (period, w) in WANDER_PERIODS_S.iter().zip(&ll.wander) {
            rho += w.amp * (std::f64::consts::TAU * t.0 / period + w.phase).sin();
        }
        let i = ll.events.partition_point(|&(s, _, _)| s <= t.0);
        for &(s, e, m) in ll.events[..i].iter().rev().take(4) {
            if t.0 >= s && t.0 < e {
                rho += m;
            }
        }
        rho.clamp(0.0, 0.97)
    }

    /// `draw_at` before the product form: the oracle's utilization and one
    /// `ln` per Gamma(4) uniform, over the same draws in the same order.
    fn draw_by_sum_of_logs(
        lm: &LoadModel,
        link: LinkId,
        t: SimTime,
        rng: &mut impl Rng,
    ) -> Option<(f64, f64)> {
        if lm.is_down(link, t) {
            return None;
        }
        let rho =
            (utilization_by_sine(lm, link, t) + rng.gen_range(-0.04..0.04f64)).clamp(0.0, 0.97);
        let mean_q = lm.mean_queue_delay_ms(link, rho);
        let ln_prod: f64 = (0..4)
            .map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln())
            .sum();
        let mut queue_delay_ms = (-mean_q / 4.0 * ln_prod).min(lm.cfg.queue_cap_ms * 4.0);
        if rng.gen_bool(LoadModel::SPIKE_PROB) {
            queue_delay_ms += rng.exponential(LoadModel::SPIKE_MEAN_MS);
        }
        Some((queue_delay_ms, lm.loss_probability(link, rho)))
    }

    #[test]
    fn link_samples_agree_with_the_sine_and_sum_of_logs_arithmetic() {
        // 100,000 random (link, instant, draw) triples over the two-week
        // model: utilization and queuing delay within a relative 1e-12 of
        // the old arithmetic, the same draws consumed, and no loss draw
        // on the other side of its threshold. Values below 1 (ρ is a
        // fraction, delays are in ms) are held to 1e-12 absolute: where
        // the wander terms all but cancel the base load, ρ is near 0 and
        // the old form's rounding of `a + phase` (about 1e-14 absolute)
        // is no longer small against it.
        const SAMPLES: usize = 100_000;
        let (topo, lm) = model();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
        let mut pick = Xoshiro256pp::seed_from_u64(0x5a3);
        let (mut outages, mut flips) = (0, 0);
        for _ in 0..SAMPLES {
            let link = topo.links[pick.gen_range(0..topo.links.len())].id;
            let t = SimTime(pick.gen_range(0.0..14.0 * 86_400.0));
            let (u_new, u_old) = (
                lm.utilization_at(link, &mut lm.at(t)),
                utilization_by_sine(&lm, link, t),
            );
            assert!(
                close(u_new, u_old),
                "{link:?} at {t:?}: ρ {u_new} vs {u_old}"
            );
            let mut new_rng = Xoshiro256pp::seed_from_u64(pick.next_u64());
            let mut old_rng = new_rng.clone();
            match (
                lm.draw_at(link, &mut lm.at(t), &mut new_rng),
                draw_by_sum_of_logs(&lm, link, t, &mut old_rng),
            ) {
                (None, None) => outages += 1,
                (Some((q_new, p_new)), Some((q_old, p_old))) => {
                    assert!(
                        close(q_new, q_old),
                        "{link:?} at {t:?}: {q_new} vs {q_old} ms"
                    );
                    flips += usize::from(new_rng.gen_bool(p_new) != old_rng.gen_bool(p_old));
                }
                (new, old) => panic!("{link:?} at {t:?}: outage disagrees, {new:?} vs {old:?}"),
            }
            assert_eq!(new_rng, old_rng, "the same draws, in the same order");
        }
        assert_eq!(flips, 0, "loss draws flipped over {SAMPLES} samples");
        assert!(outages < SAMPLES / 100, "{outages} samples in an outage");
    }

    /// A generator whose every raw draw is 0: each Gamma(4) uniform is
    /// then `f64::MIN_POSITIVE`, and their product underflows to 0.
    struct Zeros;

    impl Rng for Zeros {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn an_underflowing_product_takes_the_sum_of_logarithms() {
        let m = f64::MIN_POSITIVE;
        let sum_of_logs = |u: [f64; 4]| u.iter().map(|x| x.ln()).sum::<f64>();
        for u in [
            [m; 4],
            [m, 0.5, 0.25, 0.999],
            [1e-100, 1e-100, 1e-100, 1e-30],
            [m, 1.0, 1.0, 1.0 - f64::EPSILON],
        ] {
            assert!(u[0] * u[1] * u[2] * u[3] < m, "{u:?} underflows");
            let got = ln_product(u);
            assert!(got.is_finite(), "{u:?}: {got}");
            assert_eq!(got.to_bits(), sum_of_logs(u).to_bits(), "{u:?}");
        }
        // The smallest product of uniforms from nonzero raw draws is far
        // above the guard, and there the one logarithm is taken.
        let tiny = [2f64.powi(-53); 4];
        assert_eq!(ln_product(tiny), (2f64.powi(-212)).ln());
        // Through a whole draw: all four uniforms at MIN_POSITIVE.
        let (topo, lm) = model();
        let t = SimTime::from_hours(20.0);
        let link = topo.links.iter().find(|l| !lm.is_down(l.id, t)).unwrap().id;
        let (q, _) = lm.draw_at(link, &mut lm.at(t), &mut Zeros).unwrap();
        let (q_old, _) = draw_by_sum_of_logs(&lm, link, t, &mut Zeros).unwrap();
        assert!(q.is_finite() && q > 0.0, "queue delay {q} ms");
        assert!((q - q_old).abs() <= 1e-12 * q_old, "{q} vs {q_old} ms");
    }

    #[test]
    fn congestion_events_move_utilization() {
        // Somewhere in 14 days, some link must be pushed above its
        // event-free level.
        let (topo, lm) = model();
        let mut saw_spike = false;
        'outer: for l in &topo.links {
            let ll = &lm.links[l.id.0 as usize];
            for &(s, e, m) in &ll.events {
                if m < 0.15 || e - s < 120.0 {
                    continue;
                }
                let during = lm.utilization_at(l.id, &mut lm.at(SimTime(s + 30.0)));
                let after = lm.utilization_at(l.id, &mut lm.at(SimTime(e + 1.0)));
                if during > after + 0.1 {
                    saw_spike = true;
                    break 'outer;
                }
            }
        }
        assert!(saw_spike, "no congestion spike observed in two weeks");
    }

    #[test]
    fn outages_black_hole_the_link() {
        let (topo, lm) = model();
        // Find any link with an outage window and verify total loss inside.
        let mut found = false;
        for l in &topo.links {
            let ll = &lm.links[l.id.0 as usize];
            if let Some(&(start, end)) = ll.outages.episodes().first() {
                if end > start + 60.0 && end < 14.0 * 86_400.0 {
                    found = true;
                    let mid = SimTime((start + end) / 2.0);
                    assert!(lm.is_down(l.id, mid));
                    assert!(!lm.is_down(l.id, SimTime(end + 1.0)));
                    let mut rng = Xoshiro256pp::seed_from_u64(3);
                    for _ in 0..20 {
                        assert!(lm.sample_at(l.id, &mut lm.at(mid), &mut rng).lost);
                    }
                    break;
                }
            }
        }
        assert!(
            found,
            "two weeks x hundreds of links should include an outage"
        );
    }

    #[test]
    fn outages_are_rare() {
        let (topo, lm) = model();
        let horizon = 14.0 * 86_400.0;
        let total_down: f64 = topo
            .links
            .iter()
            .map(|l| lm.links[l.id.0 as usize].outages.total_down_s())
            .sum();
        let frac = total_down / (horizon * topo.links.len() as f64);
        assert!(frac < 0.005, "links down {frac} of the time");
        assert!(frac > 0.0, "some outage expected across the whole mesh");
    }

    #[test]
    fn mean_sampled_queue_delay_tracks_model_mean() {
        let (topo, lm) = model();
        let l = topo.links[0].id;
        let t = SimTime::from_hours(34.0); // midday Tuesday
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| lm.sample_at(l, &mut lm.at(t), &mut rng).queue_delay_ms)
            .sum::<f64>()
            / n as f64;
        let rho = lm.utilization_at(l, &mut lm.at(t));
        // The sampled mean sits near the model mean plus the small constant
        // contribution of delay spikes (SPIKE_PROB × SPIKE_MEAN_MS ≈ 0.5 ms).
        let model_mean =
            lm.mean_queue_delay_ms(l, rho) + LoadModel::SPIKE_PROB * LoadModel::SPIKE_MEAN_MS;
        assert!(
            (mean - model_mean).abs() < model_mean * 0.5 + 1.0,
            "sampled {mean} vs model {model_mean}"
        );
    }
}
