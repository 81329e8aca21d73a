//! Bulk TCP transfers and the Mathis throughput model.
//!
//! The N2 dataset "measures round-trip time and loss rate observed within a
//! TCP session" (paper §4.2) and the paper computes synthetic-path
//! bandwidth "according to the TCP model of Mathis et al. \[MSM97\]":
//!
//! ```text
//! BW  =  (MSS / RTT) · C / sqrt(p)
//! ```
//!
//! with `C = sqrt(3/2)` for delayed-ACK-free Reno-style recovery. The
//! transfer simulation reports exactly what `tcpanaly` extracted from
//! Paxson's npd traces: the connection's mean RTT, its observed loss rate
//! (background loss *plus* the self-induced loss of a sender probing for
//! bandwidth), and the achieved throughput.
//!
//! Since only those summaries reach a dataset, [`bulk_transfer`] computes
//! them in closed form instead of sending every segment. It samples the
//! round trip at K = 16 instants across the transfer window, one load
//! draw per link each, and derives the segments sent from the ACK clock's
//! pacing, the segments lost from one [`Rng::binomial`] draw, and the mean
//! RTT from the instants a segment can survive. A transfer fails (`None`)
//! when a path does not resolve, when no instant can deliver, or when the
//! binomial loses every segment. [`TransferStats::ceiling`] records which
//! throughput ceiling bound it.

use detour_prng::Rng;

use crate::net::{Network, PER_HOP_PROCESSING_MS};
use crate::routing::path::ResolvedPath;
use crate::sim::clock::SimTime;
use crate::topology::HostId;

/// Maximum segment size used throughout, bytes (Ethernet-era default).
pub const MSS_BYTES: f64 = 1460.0;

/// Receiver window of the era's stock TCP stacks, bytes. A 16 KB window
/// caps throughput at `wnd / RTT` — many mid-90s transfers were
/// window-limited, observing only background loss. (The paper's synthetic
/// bandwidths apply no such cap, which is exactly why composed alternates
/// can show "enormous, or even infinite, relative improvements".)
pub const RCV_WINDOW_BYTES: f64 = 16_384.0;

/// The Mathis constant `C = sqrt(3/2)`.
pub const MATHIS_C: f64 = 1.224_744_871_391_589;

/// Steady-state TCP throughput (bytes/second) for a path with round-trip
/// time `rtt_ms` and packet loss probability `p`.
///
/// `p = 0` means the model is capacity-limited rather than loss-limited and
/// yields infinity; callers cap by link bandwidth.
pub fn mathis_throughput_bps(rtt_ms: f64, p: f64) -> f64 {
    assert!(rtt_ms > 0.0, "RTT must be positive");
    if p <= 0.0 {
        return f64::INFINITY;
    }
    (MSS_BYTES / (rtt_ms / 1000.0)) * MATHIS_C / p.sqrt()
}

/// Which of [`bulk_transfer`]'s three throughput ceilings bound a
/// transfer (see [`TransferStats::ceiling`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ceiling {
    /// Mathis at the background loss rate: the sender backs off before it
    /// fills the path.
    Loss,
    /// The receiver window, `wnd / RTT`.
    Window,
    /// The bottleneck's available capacity; the sender induces the loss
    /// Mathis implies at that rate.
    Capacity,
}

/// What one simulated bulk transfer observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// Mean RTT over the connection's surviving sample instants, ms.
    pub rtt_ms: f64,
    /// Observed loss rate (background + self-induced).
    pub loss_rate: f64,
    /// Achieved throughput in kilobytes/second (the paper's Figure 4/5
    /// unit).
    pub bandwidth_kbps: f64,
    /// The ceiling that set the throughput.
    pub ceiling: Ceiling,
}

/// Instants at which [`bulk_transfer`] samples the round trip.
const INSTANTS: usize = 16;

/// Most segments one transfer sends.
const MAX_SEGMENTS: u64 = 512;

/// Time a lost segment costs the sender: retransmission-timeout
/// territory, seconds.
const RTO_S: f64 = 0.5;

/// Least time a delivered segment costs the sender (its RTT, at least
/// this), seconds.
const MIN_STEP_S: f64 = 0.005;

/// Simulates a bulk TCP transfer from `src` to `dst` starting at `t`.
///
/// `duration_s` bounds how long the connection samples the path (npd used
/// 100 KB transfers; seconds-long connections at 1990s bandwidths).
///
/// The transfer is summarised in closed form rather than sent segment by
/// segment. The round trip is sampled at 16 instants spread evenly over the
/// window: at each, every forward and reverse link draws its queuing delay
/// and loss probability once, so the instant has an RTT (propagation,
/// queuing and per-router processing) and a survival probability (the
/// product of the links' `1 − loss`; zero while a link is down or an
/// injected fault sits on either path). A TCP's ACK clock spends its RTT
/// (at least 5 ms) on a delivered segment and 0.5 s on a lost one, which
/// gives each instant an expected time per segment. Each sixteenth of the
/// window sends its length over its instant's time per segment; the
/// segments sent are their sum (at most 512), the segments lost one
/// binomial draw at the segment-weighted loss probability, and the mean RTT
/// the mean over the instants whose survival is above zero.
///
/// Returns `None` when either path cannot be resolved, when every instant
/// is dead, or when every segment is lost — the measurement failures the
/// paper's §4.2 notes.
pub fn bulk_transfer(
    net: &Network,
    src: HostId,
    dst: HostId,
    t: SimTime,
    duration_s: f64,
    rng: &mut impl Rng,
) -> Option<TransferStats> {
    let fwd = net.forward_path(src, dst, t)?;
    let rev = net.forward_path(dst, src, t)?;

    // Segments per second at each instant, and the share of them lost,
    // summed over instants: a dead stretch of the window sends few
    // segments, one every timeout.
    let (mut rate, mut lost_rate) = (0.0, 0.0);
    let (mut rtt_sum, mut alive) = (0.0, 0u32);
    for k in 0..INSTANTS {
        let at = t.plus_secs(duration_s * (k as f64 + 0.5) / INSTANTS as f64);
        let (rtt_ms, survival) = round_trip(net, fwd, rev, at, rng);
        if survival > 0.0 {
            rtt_sum += rtt_ms;
            alive += 1;
        }
        let per_segment_s = survival * (rtt_ms / 1000.0).max(MIN_STEP_S) + (1.0 - survival) * RTO_S;
        rate += 1.0 / per_segment_s;
        lost_rate += (1.0 - survival) / per_segment_s;
    }
    if alive == 0 {
        return None;
    }
    let sent = ((duration_s / INSTANTS as f64 * rate).ceil() as u64).clamp(1, MAX_SEGMENTS);
    let lost = rng.binomial(sent, lost_rate / rate);
    if lost == sent {
        return None;
    }
    Some(settle(
        net,
        fwd,
        t,
        duration_s,
        rtt_sum / f64::from(alive),
        lost as f64 / sent as f64,
        rng,
    ))
}

/// One round trip over `fwd` then `rev` at instant `at`, each link drawn
/// once: the RTT in ms and the probability a segment and its ACK both
/// survive.
fn round_trip(
    net: &Network,
    fwd: &ResolvedPath,
    rev: &ResolvedPath,
    at: SimTime,
    rng: &mut impl Rng,
) -> (f64, f64) {
    let load = net.load();
    let mut now = load.at(at);
    let mut rtt_ms = PER_HOP_PROCESSING_MS * (fwd.routers.len() + rev.routers.len()) as f64;
    let mut survival = 1.0;
    for &l in fwd.links.iter().chain(&rev.links) {
        match load.draw_at(l, &mut now, rng) {
            Some((queue_delay_ms, loss_prob)) => {
                rtt_ms += net.topology.link(l).prop_delay_ms + queue_delay_ms;
                survival *= 1.0 - loss_prob;
            }
            None => survival = 0.0,
        }
    }
    // Injected outages draw no RNG, like `Network::transit`'s.
    if net.faulted_element(&fwd.routers, &fwd.links, at)
        || net.faulted_element(&rev.routers, &rev.links, at)
    {
        survival = 0.0;
    }
    (rtt_ms, survival)
}

/// The transfer's summary once its path samples are in: the bottleneck's
/// headroom, the binding ceiling and the efficiency draw.
fn settle(
    net: &Network,
    fwd: &ResolvedPath,
    t: SimTime,
    duration_s: f64,
    rtt_ms: f64,
    background_loss: f64,
    rng: &mut impl Rng,
) -> TransferStats {
    // Available capacity at the bottleneck: the least headroom across the
    // forward path's links at the transfer midpoint.
    let mut mid = net.load().at(t.plus_secs(duration_s / 2.0));
    let avail_bps = fwd
        .links
        .iter()
        .map(|&l| {
            let link = net.topology.link(l);
            let rho = net.load().utilization_at(l, &mut mid);
            (link.capacity_mbps * 1e6 / 8.0) * (1.0 - rho)
        })
        .fold(f64::INFINITY, f64::min);

    let (throughput_bps, observed_loss, ceiling) =
        binding_ceiling(rtt_ms, background_loss, avail_bps);

    // Steady-state models flatter short transfers: a ~100 KB npd transfer
    // spends much of its life in slow start and loses whole RTTs to
    // timeouts, so the achieved rate lands well under its ceiling. (The
    // paper's synthetic alternates apply no such discount — one reason its
    // composed bandwidths routinely beat measured defaults.)
    let efficiency = rng.gen_range(0.35..0.85);
    TransferStats {
        rtt_ms,
        loss_rate: observed_loss,
        bandwidth_kbps: throughput_bps * efficiency / 1000.0,
        ceiling,
    }
}

/// The throughput (bytes/second) a transfer settles at, the loss rate it
/// observes and the ceiling that binds. Three candidate ceilings:
/// loss-limited Mathis(p_bg), the receiver window (wnd/RTT), and available
/// bottleneck capacity. The lowest one binds. A window- or loss-limited
/// sender never saturates the path, so it observes only background loss; a
/// capacity-limited sender *induces* the loss Mathis implies at that rate.
/// Below one segment per RTT (times `C`) of headroom that loss exceeds 1,
/// so the observed rate caps at 1: every packet lost.
fn binding_ceiling(rtt_ms: f64, background_loss: f64, avail_bps: f64) -> (f64, f64, Ceiling) {
    let loss_limited = mathis_throughput_bps(rtt_ms, background_loss);
    let window_limited = RCV_WINDOW_BYTES / (rtt_ms / 1000.0);
    if loss_limited <= avail_bps.min(window_limited) {
        (loss_limited, background_loss, Ceiling::Loss)
    } else if window_limited <= avail_bps {
        (window_limited, background_loss, Ceiling::Window)
    } else {
        let induced = (MSS_BYTES / (rtt_ms / 1000.0) * MATHIS_C / avail_bps).powi(2);
        (
            avail_bps,
            background_loss.max(induced).min(1.0),
            Ceiling::Capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;
    use crate::topology::generator::Era;
    use detour_faults::FaultConfig;
    use detour_prng::Xoshiro256pp;

    fn net() -> Network {
        Network::generate(&NetworkConfig::for_era(Era::Y1995, 555, 7.0))
    }

    /// The per-round-trip transfer [`bulk_transfer`]'s closed form
    /// replaced, kept as its oracle: one segment per round trip, each a
    /// true transit out and back, until the window closes or 512 are sent.
    fn per_round_trip(
        net: &Network,
        src: HostId,
        dst: HostId,
        t: SimTime,
        duration_s: f64,
        rng: &mut impl Rng,
    ) -> Option<TransferStats> {
        let fwd = net.forward_path(src, dst, t)?;
        let rev = net.forward_path(dst, src, t)?;
        let mut rtts = Vec::new();
        let mut lost = 0usize;
        let mut sent = 0usize;
        let mut now = t;
        let deadline = t.plus_secs(duration_s);
        while now.0 < deadline.0 && sent < MAX_SEGMENTS as usize {
            sent += 1;
            let out = net.transit(fwd, now, rng);
            let back = net.transit(rev, now.plus_secs(out.delay_ms / 1000.0), rng);
            if out.lost || back.lost {
                lost += 1;
                now = now.plus_secs(RTO_S);
                continue;
            }
            let rtt = out.delay_ms + back.delay_ms;
            rtts.push(rtt);
            now = now.plus_secs((rtt / 1000.0).max(MIN_STEP_S));
        }
        if rtts.is_empty() {
            return None;
        }
        let rtt_ms = rtts.iter().sum::<f64>() / rtts.len() as f64;
        Some(settle(
            net,
            fwd,
            t,
            duration_s,
            rtt_ms,
            lost as f64 / sent as f64,
            rng,
        ))
    }

    /// Mean RTT, mean loss rate and `None` share of `transfer` over 2,000
    /// requests spread across the network's hosts and its week.
    fn campaign_summary(
        n: &Network,
        transfer: fn(
            &Network,
            HostId,
            HostId,
            SimTime,
            f64,
            &mut Xoshiro256pp,
        ) -> Option<TransferStats>,
    ) -> (f64, f64, f64) {
        const REQUESTS: u64 = 2_000;
        let hosts = n.hosts();
        let (mut rtt, mut loss, mut done, mut tried) = (0.0, 0.0, 0u32, 0u32);
        for i in 0..REQUESTS {
            let mut rng = Xoshiro256pp::stream(0x7cb, i);
            let s = hosts[rng.gen_range(0..hosts.len())].id;
            let d = hosts[rng.gen_range(0..hosts.len())].id;
            if s == d {
                continue;
            }
            let t = SimTime(rng.gen_range(0.0..n.horizon_s() - 60.0));
            tried += 1;
            if let Some(ts) = transfer(n, s, d, t, 30.0, &mut rng) {
                rtt += ts.rtt_ms;
                loss += ts.loss_rate;
                done += 1;
            }
        }
        let done_f = f64::from(done);
        (rtt / done_f, loss / done_f, 1.0 - done_f / f64::from(tried))
    }

    #[test]
    fn closed_form_agrees_with_the_per_round_trip_oracle() {
        // Mean RTT within 1 %, mean loss rate within 3 % of the oracle's,
        // and the share of failed transfers within one percentage point —
        // on the benign network, and under injected link failures, where
        // a fifth of the transfers fail and many more lose part of their
        // window to an outage.
        let mut cfg = NetworkConfig::for_era(Era::Y1995, 555, 7.0);
        for faults in [FaultConfig::none(), FaultConfig::link_failures(3)] {
            cfg.faults = faults;
            let n = Network::generate(&cfg);
            let (rtt, loss, failed) = campaign_summary(&n, bulk_transfer);
            let (rtt_o, loss_o, failed_o) = campaign_summary(&n, per_round_trip);
            assert!((rtt / rtt_o - 1.0).abs() < 0.01, "rtt {rtt} vs {rtt_o}");
            assert!(
                (loss / loss_o - 1.0).abs() < 0.03,
                "loss {loss} vs {loss_o}"
            );
            assert!(
                (failed - failed_o).abs() < 0.01,
                "failed {failed} vs {failed_o}"
            );
        }
    }

    #[test]
    fn a_transfer_faulted_at_every_instant_fails() {
        let mut cfg = NetworkConfig::for_era(Era::Y1995, 555, 7.0);
        cfg.faults = FaultConfig::link_failures(3);
        let n = Network::generate(&cfg);
        let (s, d) = (n.hosts()[0].id, n.hosts()[9].id);
        let window_s = 30.0;
        let faulted_throughout = |&t: &SimTime| {
            n.forward_path(s, d, t).is_some_and(|fwd| {
                (0..INSTANTS).all(|k| {
                    let at = t.plus_secs(window_s * (k as f64 + 0.5) / INSTANTS as f64);
                    n.faulted_element(&fwd.routers, &fwd.links, at)
                })
            })
        };
        let t = (0..10_000)
            .map(|m| SimTime(60.0 * m as f64))
            .find(faulted_throughout)
            .expect("some link outage covers a whole window");
        for seed in 0..20 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            assert_eq!(bulk_transfer(&n, s, d, t, window_s, &mut rng), None);
        }
    }

    #[test]
    fn mathis_matches_hand_computation() {
        // MSS 1460 B, RTT 100 ms, p = 1 %: 1460/0.1 * 1.2247 / 0.1
        //  = 14600 * 12.247 ≈ 178.8 kB/s.
        let bw = mathis_throughput_bps(100.0, 0.01);
        assert!(
            (bw / 1000.0 - 178.8).abs() < 1.0,
            "got {} kB/s",
            bw / 1000.0
        );
    }

    #[test]
    fn mathis_is_monotone() {
        assert!(mathis_throughput_bps(50.0, 0.01) > mathis_throughput_bps(100.0, 0.01));
        assert!(mathis_throughput_bps(100.0, 0.001) > mathis_throughput_bps(100.0, 0.01));
        assert!(mathis_throughput_bps(100.0, 0.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "RTT must be positive")]
    fn mathis_rejects_zero_rtt() {
        let _ = mathis_throughput_bps(0.0, 0.01);
    }

    #[test]
    fn capacity_limited_loss_is_a_probability() {
        // 100 ms RTT, no background loss, a bottleneck with 1 kB/s of
        // headroom: Mathis puts the loss at that rate near 320, and the
        // observed rate is all packets lost.
        let (bps, loss, ceiling) = binding_ceiling(100.0, 0.0, 1_000.0);
        assert_eq!((bps, ceiling), (1_000.0, Ceiling::Capacity));
        assert_eq!(loss, 1.0);
        // With room to spare the induced loss is below 1 and kept exactly.
        let (bps, loss, _) = binding_ceiling(100.0, 0.0, 100_000.0);
        assert_eq!(bps, 100_000.0);
        let induced = (MSS_BYTES / 0.1 * MATHIS_C / 100_000.0f64).powi(2);
        assert_eq!(loss, induced);
        assert!(loss > 0.0 && loss < 1.0);
    }

    #[test]
    fn transfers_produce_plausible_1995_numbers() {
        let n = net();
        let hosts = n.hosts();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let t = SimTime::from_hours(30.0);
        let mut got = 0;
        for i in 0..10 {
            let (s, d) = (hosts[i].id, hosts[hosts.len() - 1 - i].id);
            if s == d {
                continue;
            }
            if let Some(ts) = bulk_transfer(&n, s, d, t, 30.0, &mut rng) {
                got += 1;
                assert!(ts.rtt_ms > 0.5 && ts.rtt_ms < 2000.0, "rtt {}", ts.rtt_ms);
                assert!((0.0..=0.5).contains(&ts.loss_rate));
                // 1995-era paths: kilobytes to a few megabytes per second.
                assert!(ts.bandwidth_kbps > 0.5, "bw {}", ts.bandwidth_kbps);
                assert!(ts.bandwidth_kbps < 10_000.0, "bw {}", ts.bandwidth_kbps);
            }
        }
        assert!(got >= 8, "most transfers should complete, got {got}");
    }

    #[test]
    fn capacity_limited_transfers_report_induced_loss() {
        // Over a long window, find at least one transfer whose observed
        // loss exceeds what pure background would explain — evidence the
        // self-induced-loss branch executes.
        let n = net();
        let hosts = n.hosts();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut saw_induced = false;
        'outer: for hour in [10.0, 20.0, 34.0, 60.0] {
            for i in 0..hosts.len().min(12) {
                let (s, d) = (hosts[i].id, hosts[(i + 7) % hosts.len()].id);
                if s == d {
                    continue;
                }
                if let Some(ts) = bulk_transfer(&n, s, d, SimTime::from_hours(hour), 30.0, &mut rng)
                {
                    if ts.loss_rate > 0.0 && ts.bandwidth_kbps > 1.0 {
                        saw_induced = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(saw_induced);
    }

    #[test]
    fn transfer_is_deterministic_in_rng() {
        let n = net();
        let (s, d) = (n.hosts()[0].id, n.hosts()[9].id);
        let t = SimTime::from_hours(22.0);
        let a = bulk_transfer(&n, s, d, t, 20.0, &mut Xoshiro256pp::seed_from_u64(3));
        let b = bulk_transfer(&n, s, d, t, 20.0, &mut Xoshiro256pp::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
