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

use detour_prng::Rng;

use crate::net::Network;
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

/// What one simulated bulk transfer observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// Mean RTT over the connection's samples, ms.
    pub rtt_ms: f64,
    /// Observed loss rate (background + self-induced).
    pub loss_rate: f64,
    /// Achieved throughput in kilobytes/second (the paper's Figure 4/5
    /// unit).
    pub bandwidth_kbps: f64,
    /// Number of RTT samples the connection took.
    pub samples: usize,
}

/// Simulates a bulk TCP transfer from `src` to `dst` starting at `t`.
///
/// `duration_s` bounds how long the connection samples the path (npd used
/// 100 KB transfers; seconds-long connections at 1990s bandwidths).
///
/// Returns `None` when the path cannot be resolved or every packet of the
/// connection is lost — the measurement failures the paper's §4.2 notes.
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

    // Sample the path once per ~RTT over the transfer window, as a TCP's
    // ACK clock would.
    let mut rtts = Vec::new();
    let mut lost = 0usize;
    let mut sent = 0usize;
    let mut now = t;
    let deadline = t.plus_secs(duration_s);
    while now.0 < deadline.0 && sent < 512 {
        sent += 1;
        let out = net.transit(fwd, now, rng);
        let back = net.transit(rev, now.plus_secs(out.delay_ms / 1000.0), rng);
        if out.lost || back.lost {
            lost += 1;
            now = now.plus_secs(0.5); // retransmission timeout territory
            continue;
        }
        let rtt = out.delay_ms + back.delay_ms;
        rtts.push(rtt);
        now = now.plus_secs((rtt / 1000.0).max(0.005));
    }
    if rtts.is_empty() {
        return None;
    }
    let rtt_ms = rtts.iter().sum::<f64>() / rtts.len() as f64;
    let background_loss = lost as f64 / sent as f64;

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

    let (throughput_bps, observed_loss) = binding_ceiling(rtt_ms, background_loss, avail_bps);

    // Steady-state models flatter short transfers: a ~100 KB npd transfer
    // spends much of its life in slow start and loses whole RTTs to
    // timeouts, so the achieved rate lands well under its ceiling. (The
    // paper's synthetic alternates apply no such discount — one reason its
    // composed bandwidths routinely beat measured defaults.)
    let efficiency = rng.gen_range(0.35..0.85);
    Some(TransferStats {
        rtt_ms,
        loss_rate: observed_loss,
        bandwidth_kbps: throughput_bps * efficiency / 1000.0,
        samples: rtts.len(),
    })
}

/// The throughput (bytes/second) a transfer settles at and the loss rate
/// it observes. Three candidate ceilings: loss-limited Mathis(p_bg), the
/// receiver window (wnd/RTT), and available bottleneck capacity. The
/// lowest one binds. A window- or loss-limited sender never saturates the
/// path, so it observes only background loss; a capacity-limited sender
/// *induces* the loss Mathis implies at that rate. Below one segment per
/// RTT (times `C`) of headroom that loss exceeds 1, so the observed rate
/// caps at 1: every packet lost.
fn binding_ceiling(rtt_ms: f64, background_loss: f64, avail_bps: f64) -> (f64, f64) {
    let loss_limited = mathis_throughput_bps(rtt_ms, background_loss);
    let window_limited = RCV_WINDOW_BYTES / (rtt_ms / 1000.0);
    if loss_limited <= avail_bps.min(window_limited) {
        (loss_limited, background_loss)
    } else if window_limited <= avail_bps {
        (window_limited, background_loss)
    } else {
        let induced = (MSS_BYTES / (rtt_ms / 1000.0) * MATHIS_C / avail_bps).powi(2);
        (avail_bps, background_loss.max(induced).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkConfig;
    use crate::topology::generator::Era;
    use detour_prng::Xoshiro256pp;

    fn net() -> Network {
        Network::generate(&NetworkConfig::for_era(Era::Y1995, 555, 7.0))
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
        let (bps, loss) = binding_ceiling(100.0, 0.0, 1_000.0);
        assert_eq!(bps, 1_000.0, "capacity binds");
        assert_eq!(loss, 1.0);
        // With room to spare the induced loss is below 1 and kept exactly.
        let (bps, loss) = binding_ceiling(100.0, 0.0, 100_000.0);
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
                assert!(ts.samples > 0);
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
