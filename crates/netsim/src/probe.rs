//! Active probing: `ping` and `traceroute` semantics.
//!
//! The UW datasets were collected through public traceroute servers
//! (paper §4.2): each `traceroute` invocation walks the forward path with
//! TTL-limited probes and "takes three consecutive samples of the round
//! trip time to the end host". Two behaviors of that machinery matter to
//! the data and are modeled here:
//!
//! * **ICMP rate limiting** — some hosts throttle their ICMP responses, so
//!   "traceroute requests to rate limiting hosts would observe a higher
//!   loss rate than warranted"; the first closely spaced probe is answered,
//!   later ones usually are not.
//! * **Asymmetric return paths** — replies from the destination travel the
//!   *reverse-routed* path, which policy routing often makes different from
//!   the forward one.
//!
//! ## What is sampled per probe, and what once per invocation
//!
//! Only the destination's three RTTs (and the AS path, which the caller
//! reads off the resolved route) reach a dataset. The intermediate hops
//! matter only through the invocation's elapsed time — each lost probe
//! costs a 5 s timeout, and the campaign discards invocations that run past
//! its 5-minute limit. So a traceroute samples each forward link **once**:
//! link `k` when hop `k`'s burst starts, extending a running one-way
//! prefix delay `D_k` (propagation, queuing and per-router processing) and
//! survival probability `S_k` ([`Network::extend_prefix`]). Each of hop
//! `k`'s three probes then costs no link sample: it is lost with
//! probability `1 − S_k²` (out and back over the same prefix, one uniform)
//! or when an injected router or link outage on the prefix is active at
//! the probe's own instant, and otherwise answers in `2·D_k` plus the
//! router's ICMP generation delay. An invocation over `h` links takes
//! `h − 1` samples for its intermediate hops instead of the `3h(h − 1)`
//! of re-transiting the prefix out and back for every probe.
//!
//! **Destination probes stay per probe:** each takes a true forward
//! transit and a true transit over the reverse-routed path, and each
//! follow-up is subject to the rate-limit draw, so every value that reaches
//! a dataset is still sampled per probe. (Replies from intermediate
//! routers are modeled as retracing the forward prefix; real reverse paths
//! from transit routers could differ, but computing them would require
//! per-router routing state that traceroute itself cannot observe either.)
//!
//! ## How injected faults are looked up
//!
//! Whether a probe meets an injected router or link outage is a pure
//! schedule lookup, drawing no RNG. An invocation asks it of a growing
//! prefix at advancing instants, three times per hop, so it keeps one
//! `FaultWatch` per path instead of rescanning the prefix per probe:
//! whether any element is down, and until when that answer holds (the
//! earliest next episode start or end among the elements, from
//! `OutageSchedule::state_at`). Each hop looks up only the link and router
//! it adds, and the prefix is rescanned only once a probe's instant
//! reaches that bound. An invocation over `h` links thus makes about
//! `2h` lookups where a rescan per probe made about `3h²`. The forward
//! watch, grown to the whole path, and a second one over the reverse
//! path serve the destination probes' transits. Without injected network
//! faults no lookup is made at all.

use detour_prng::Rng;

use crate::net::{FaultWatch, Network, Prefix};
use crate::sim::clock::SimTime;
use crate::topology::HostId;

/// Result of a single echo ("ping") exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingResult {
    /// Round-trip time; `None` when the probe or its reply was lost.
    pub rtt_ms: Option<f64>,
}

/// Result of one traceroute invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracerouteResult {
    /// The destination host's three RTT samples, ms; `None` entries were
    /// lost (all `None` when the path never resolved).
    pub rtts: [Option<f64>; 3],
    /// Whether the destination responded to at least one probe.
    pub reached: bool,
    /// Wall-clock the invocation took, seconds (probes are sequential).
    pub elapsed_s: f64,
    /// Link samples the invocation drew: one per intermediate hop, plus
    /// every link of each destination probe's forward and reverse transit.
    pub link_samples: u32,
    /// Destination follow-up probes suppressed by ICMP rate limiting.
    pub rate_limited: u32,
}

/// Probability that a rate-limiting host answers a closely following probe
/// (the first probe of a burst is always eligible).
const RATE_LIMITED_FOLLOWUP_RESPONSE_PROB: f64 = 0.15;

/// ICMP response-generation delay at a router or host, milliseconds
/// (sampled uniformly; slow-path packet handling).
const ICMP_GEN_DELAY_RANGE_MS: (f64, f64) = (0.1, 1.2);

/// Wall-clock a lost or suppressed probe costs, seconds.
const PROBE_TIMEOUT_S: f64 = 5.0;

/// Pause after an answered probe before the next one, seconds.
const INTER_PROBE_GAP_S: f64 = 0.05;

/// One echo exchange between hosts: forward transit, destination
/// processing, reverse transit over the *reverse-routed* path.
pub fn ping(net: &Network, src: HostId, dst: HostId, t: SimTime, rng: &mut impl Rng) -> PingResult {
    let rtt_ms = match (net.forward_path(src, dst, t), net.forward_path(dst, src, t)) {
        (Some(fwd), Some(rev)) => {
            let mut fwd = net.fault_watch(fwd, fwd.links.len());
            let mut rev = net.fault_watch(rev, rev.links.len());
            echo(net, &mut fwd, Some(&mut rev), t, rng).0
        }
        _ => None,
    };
    PingResult { rtt_ms }
}

/// One echo exchange starting at `t`: a forward transit, then — only when
/// a reverse path resolved and the forward packet survived — a transit
/// back over `rev`, then the ICMP generation delay. Each path comes as the
/// [`FaultWatch`] over the whole of it. Returns the RTT (`None` when either
/// packet was lost or there is no way back) and the link samples drawn.
fn echo(
    net: &Network,
    fwd: &mut FaultWatch<'_>,
    rev: Option<&mut FaultWatch<'_>>,
    t: SimTime,
    rng: &mut impl Rng,
) -> (Option<f64>, u32) {
    let out = net.transit_watched(fwd, t, rng);
    let mut samples = fwd.path().links.len() as u32;
    let Some(rev) = rev.filter(|_| !out.lost) else {
        return (None, samples);
    };
    samples += rev.path().links.len() as u32;
    let back = net.transit_watched(rev, t.plus_secs(out.delay_ms / 1000.0), rng);
    if back.lost {
        return (None, samples);
    }
    let icmp = rng.gen_range(ICMP_GEN_DELAY_RANGE_MS.0..ICMP_GEN_DELAY_RANGE_MS.1);
    (Some(out.delay_ms + icmp + back.delay_ms), samples)
}

/// One probe to an intermediate router whose forward prefix is `prefix`:
/// lost with probability `1 − S²` (one uniform, drawn even when
/// `faulted`), or when an injected outage on the prefix is active
/// (`faulted`); otherwise its RTT, `2·D` plus the ICMP generation delay.
fn intermediate_probe(prefix: Prefix, faulted: bool, rng: &mut impl Rng) -> Option<f64> {
    let answered = rng.gen_bool(prefix.survival * prefix.survival);
    if !answered || faulted {
        return None;
    }
    let icmp = rng.gen_range(ICMP_GEN_DELAY_RANGE_MS.0..ICMP_GEN_DELAY_RANGE_MS.1);
    Some(2.0 * prefix.delay_ms + icmp)
}

/// A full traceroute invocation from `src` to `dst` starting at time `t`.
///
/// Each hop along the forward path is probed three times sequentially.
/// Probes to intermediate routers are drawn from the hop's prefix, each
/// forward link sampled once per invocation (see the module docs); probes
/// to the destination host take true forward and reverse transits and are
/// subject to the destination's ICMP rate limiting.
pub fn traceroute(
    net: &Network,
    src: HostId,
    dst: HostId,
    t: SimTime,
    rng: &mut impl Rng,
) -> TracerouteResult {
    let mut result = TracerouteResult {
        rtts: [None; 3],
        reached: false,
        elapsed_s: 0.0,
        link_samples: 0,
        rate_limited: 0,
    };
    let Some(fwd) = net.forward_path(src, dst, t) else {
        return result;
    };
    let n_hops = fwd.links.len();
    if n_hops == 0 {
        return result;
    }
    let rev = net.forward_path(dst, src, t);
    let dst_rate_limited = net.host(dst).icmp_rate_limited;

    let mut now = t;
    let mut prefix = Prefix::SOURCE;
    let mut faults = net.fault_watch(fwd, 0);
    for hop in 1..n_hops {
        prefix = net.extend_prefix(prefix, fwd.links[hop - 1], now, rng);
        faults.extend(now);
        result.link_samples += 1;
        for _ in 0..3 {
            now = match intermediate_probe(prefix, faults.down_at(now), rng) {
                Some(rtt) => now.plus_secs(rtt / 1000.0 + INTER_PROBE_GAP_S),
                None => now.plus_secs(PROBE_TIMEOUT_S),
            };
        }
    }

    // The destination probes cross the whole forward path, and the whole
    // reverse one.
    faults.extend(now);
    let mut rev_faults = rev.map(|rev| net.fault_watch(rev, rev.links.len()));
    for (k, slot) in result.rtts.iter_mut().enumerate() {
        // Rate limiting: the first probe of the burst is answered;
        // follow-ups to a limiting destination usually are not.
        let suppressed =
            dst_rate_limited && k > 0 && !rng.gen_bool(RATE_LIMITED_FOLLOWUP_RESPONSE_PROB);
        if suppressed {
            result.rate_limited += 1;
            now = now.plus_secs(PROBE_TIMEOUT_S);
            continue;
        }
        let (rtt, samples) = echo(net, &mut faults, rev_faults.as_mut(), now, rng);
        result.link_samples += samples;
        *slot = rtt;
        now = match rtt {
            Some(rtt) => now.plus_secs(rtt / 1000.0 + INTER_PROBE_GAP_S),
            None => now.plus_secs(PROBE_TIMEOUT_S),
        };
    }
    result.reached = result.rtts.iter().any(Option::is_some);
    result.elapsed_s = now.0 - t.0;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;
    use crate::topology::generator::Era;
    use detour_faults::{FaultConfig, Renewal};
    use detour_prng::Xoshiro256pp;

    fn net() -> Network {
        Network::generate(&NetworkConfig::for_era(Era::Y1999, 1234, 7.0))
    }

    fn pick_hosts(net: &Network, limited: bool) -> (HostId, HostId) {
        let src = net.hosts()[0].id;
        let dst = net
            .hosts()
            .iter()
            .find(|h| h.icmp_rate_limited == limited && h.id != src && h.asn != net.host(src).asn)
            .expect("host with requested limiting exists")
            .id;
        (src, dst)
    }

    /// Mean and standard error of the mean.
    fn mean_se(v: &[f64]) -> (f64, f64) {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
        (m, (var / v.len() as f64).sqrt())
    }

    #[test]
    fn ping_rtt_is_plausible() {
        let n = net();
        let (s, d) = pick_hosts(&n, false);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let t = SimTime::from_hours(20.0);
        let mut got = 0;
        for _ in 0..50 {
            if let Some(rtt) = ping(&n, s, d, t, &mut rng).rtt_ms {
                assert!((0.1..2000.0).contains(&rtt), "rtt {rtt}");
                got += 1;
            }
        }
        assert!(got > 25, "most pings should succeed, got {got}/50");
    }

    #[test]
    fn intermediate_probes_answer_at_the_squared_prefix_survival() {
        // Out and back over one prefix: answered with probability S²,
        // within 3σ over 20,000 draws, in 2·D plus the ICMP delay. A real
        // walked prefix joins two fixed ones.
        let n = net();
        let (s, d) = pick_hosts(&n, false);
        let t = SimTime::from_hours(19.0);
        let fwd = n.forward_path(s, d, t).unwrap();
        let mut walk_rng = Xoshiro256pp::seed_from_u64(9);
        let walked = fwd.links[..fwd.links.len() / 2]
            .iter()
            .fold(Prefix::SOURCE, |pre, &l| {
                n.extend_prefix(pre, l, t, &mut walk_rng)
            });
        let prefixes = [
            Prefix {
                delay_ms: 37.5,
                survival: 0.8,
            },
            Prefix {
                delay_ms: 2.0,
                survival: 0.97,
            },
            walked,
        ];
        let draws = 20_000;
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        for prefix in prefixes {
            let p = prefix.survival * prefix.survival;
            let mut answered = 0;
            for _ in 0..draws {
                if let Some(rtt) = intermediate_probe(prefix, false, &mut rng) {
                    answered += 1;
                    let base = 2.0 * prefix.delay_ms;
                    assert!(
                        (base + 0.1..=base + 1.2).contains(&rtt),
                        "rtt {rtt} outside [{}, {}]",
                        base + 0.1,
                        base + 1.2
                    );
                }
            }
            let sigma = (draws as f64 * p * (1.0 - p)).sqrt();
            let expected = draws as f64 * p;
            assert!(
                (answered as f64 - expected).abs() <= 3.0 * sigma.max(1.0),
                "{prefix:?}: {answered} answered, expected {expected} ± {}",
                3.0 * sigma
            );
            assert!(
                (0..100).all(|_| intermediate_probe(prefix, true, &mut rng).is_none()),
                "a faulted prefix never answers"
            );
        }
    }

    #[test]
    fn a_path_down_from_its_first_link_times_out_every_probe() {
        // Every link fails about a second into the horizon and stays down
        // to its end, so the path's first link is down for the whole
        // invocation: all 3h probes time out, at 5 s each, exactly.
        let mut cfg = NetworkConfig::for_era(Era::Y1999, 1234, 7.0);
        cfg.faults = FaultConfig {
            link: Renewal {
                mtbf_s: 1.0,
                mttr_s: 1.0e12,
            },
            ..FaultConfig::link_failures(3)
        };
        let n = Network::generate(&cfg);
        for limited in [false, true] {
            let (s, d) = pick_hosts(&n, limited);
            let t = SimTime::from_hours(10.0);
            let fwd = n.forward_path(s, d, t).unwrap();
            let h = fwd.links.len() as f64;
            for instant in [t, t.plus_secs(15.0 * h)] {
                assert!(n.faulted_element(&[], &fwd.links[..1], instant));
            }
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            for _ in 0..5 {
                let tr = traceroute(&n, s, d, t, &mut rng);
                assert!(!tr.reached);
                assert_eq!(tr.rtts, [None; 3]);
                assert!(
                    (tr.elapsed_s - 15.0 * h).abs() < 1e-9,
                    "elapsed {} s over {h} hops",
                    tr.elapsed_s
                );
            }
        }
    }

    #[test]
    fn destination_samples_match_ping_at_one_instant() {
        // Destination probes are true forward and reverse transits, so
        // their mean RTT and loss fraction match ping's at the same
        // instant: each within 4 standard errors of the difference, over
        // 2,000 invocations (6,000 samples) and 6,000 pings.
        let n = net();
        let (s, d) = pick_hosts(&n, false);
        let t = SimTime::from_hours(44.0);
        let mut rng = Xoshiro256pp::seed_from_u64(41);
        let mut tr_rtts = Vec::new();
        let mut tr_lost = 0;
        for _ in 0..2_000 {
            for r in traceroute(&n, s, d, t, &mut rng).rtts {
                match r {
                    Some(rtt) => tr_rtts.push(rtt),
                    None => tr_lost += 1,
                }
            }
        }
        let mut ping_rtts = Vec::new();
        let mut ping_lost = 0;
        for _ in 0..6_000 {
            match ping(&n, s, d, t, &mut rng).rtt_ms {
                Some(rtt) => ping_rtts.push(rtt),
                None => ping_lost += 1,
            }
        }
        let ((mt, st), (mp, sp)) = (mean_se(&tr_rtts), mean_se(&ping_rtts));
        assert!(
            (mt - mp).abs() < 4.0 * (st * st + sp * sp).sqrt(),
            "traceroute mean {mt} ms vs ping mean {mp} ms"
        );
        let (lt, lp) = (tr_lost as f64 / 6_000.0, ping_lost as f64 / 6_000.0);
        let pooled = (lt + lp) / 2.0;
        let se = (2.0 * pooled * (1.0 - pooled) / 6_000.0).sqrt().max(1e-3);
        assert!(
            (lt - lp).abs() < 4.0 * se,
            "traceroute loss {lt} vs ping loss {lp}"
        );
    }

    #[test]
    fn an_invocation_samples_each_forward_link_once() {
        // h − 1 intermediate-hop samples, then per destination probe the
        // forward path and, unless the forward packet was lost, the
        // reverse path.
        let n = net();
        let (s, d) = pick_hosts(&n, false);
        let t = SimTime::from_hours(30.0);
        let h = n.forward_path(s, d, t).unwrap().links.len() as u32;
        let h_rev = n.forward_path(d, s, t).unwrap().links.len() as u32;
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..50 {
            let tr = traceroute(&n, s, d, t, &mut rng);
            assert!(tr.elapsed_s > 0.0);
            assert_eq!(tr.rate_limited, 0);
            assert!(
                (h - 1 + 3 * h..=h - 1 + 3 * (h + h_rev)).contains(&tr.link_samples),
                "{} samples over {h} forward and {h_rev} reverse links",
                tr.link_samples
            );
        }
    }

    #[test]
    fn rate_limited_hosts_lose_followup_probes() {
        let n = net();
        let (s, d_lim) = pick_hosts(&n, true);
        let (_, d_ok) = pick_hosts(&n, false);
        let t = SimTime::from_hours(40.0);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let followup_loss = |dst: HostId, rng: &mut Xoshiro256pp| -> (f64, u32) {
            let mut lost = 0;
            let mut total = 0;
            let mut suppressed = 0;
            for _ in 0..30 {
                let tr = traceroute(&n, s, dst, t, rng);
                suppressed += tr.rate_limited;
                for r in &tr.rtts[1..] {
                    total += 1;
                    if r.is_none() {
                        lost += 1;
                    }
                }
            }
            (lost as f64 / total as f64, suppressed)
        };
        let (lim, lim_suppressed) = followup_loss(d_lim, &mut rng);
        let (ok, ok_suppressed) = followup_loss(d_ok, &mut rng);
        assert!(
            lim > ok + 0.3,
            "rate-limited follow-up loss {lim} should far exceed normal {ok}"
        );
        assert!(lim_suppressed > 0);
        assert_eq!(ok_suppressed, 0, "only a limiting host suppresses");
    }

    #[test]
    fn probing_is_deterministic_in_rng() {
        let n = net();
        let (s, d) = pick_hosts(&n, false);
        let t = SimTime::from_hours(8.0);
        let a = traceroute(&n, s, d, t, &mut Xoshiro256pp::seed_from_u64(6));
        let b = traceroute(&n, s, d, t, &mut Xoshiro256pp::seed_from_u64(6));
        assert_eq!(a, b);
    }
}
