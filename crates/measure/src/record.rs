//! Measurement records.
//!
//! Everything downstream of the measurement machinery — dataset assembly
//! and all of `detour-core`'s analyses — consumes only these records, the
//! same information a real measurement study would have on disk.

use detour_netsim::HostId;

/// One traceroute invocation's yield: the three end-host probes plus the
/// observed AS path. ([`crate::dataset::Dataset`] flattens these into
/// per-probe [`ProbeSample`]s after rate-limit filtering.)
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Initiating host.
    pub src: HostId,
    /// Target host.
    pub dst: HostId,
    /// Request time, seconds since trace start.
    pub t_s: f64,
    /// Episode index for simultaneous (UW4-A style) campaigns.
    pub episode: Option<u32>,
    /// The three end-host RTT samples; `None` entries were lost.
    pub rtts: [Option<f64>; 3],
    /// AS path observed by the traceroute (AS numbers in path order,
    /// source AS first).
    pub as_path: Vec<u16>,
}

/// One probe (one of the three per invocation) after filtering: the atom of
/// RTT and loss analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Initiating host.
    pub src: HostId,
    /// Target host.
    pub dst: HostId,
    /// Probe time, seconds since trace start.
    pub t_s: f64,
    /// Which of the invocation's probes this was (0, 1, 2).
    pub probe_index: u8,
    /// Measured round-trip time; `None` means the probe was lost.
    pub rtt_ms: Option<f64>,
    /// Whether this probe counts toward loss-rate statistics. Normally
    /// true; under the D2 first-sample-only correction (paper §4.2,
    /// footnote 2) follow-up probes contribute RTTs but not losses.
    pub loss_eligible: bool,
    /// Episode index for simultaneous campaigns.
    pub episode: Option<u32>,
    /// Index into the dataset's AS-path pool for this invocation's path.
    pub path_idx: u32,
}

impl ProbeSample {
    /// True when the probe was lost.
    pub fn lost(&self) -> bool {
        self.rtt_ms.is_none()
    }
}

/// One TCP bulk-transfer observation (the N2 datasets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferSample {
    /// Sender.
    pub src: HostId,
    /// Receiver.
    pub dst: HostId,
    /// Transfer start, seconds since trace start.
    pub t_s: f64,
    /// Mean RTT observed within the connection, ms.
    pub rtt_ms: f64,
    /// Loss rate observed within the connection.
    pub loss_rate: f64,
    /// Achieved throughput, kB/s.
    pub bandwidth_kbps: f64,
}

/// Static facts about a measured host carried into the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeta {
    /// The simulator host id (stable within one network).
    pub id: HostId,
    /// DNS-ish name.
    pub name: String,
    /// AS number the host lives in.
    pub asn: u16,
    /// Ground truth: does this host ICMP-rate-limit? Kept for validating
    /// the *empirical* detector; analyses never read it.
    pub truly_rate_limited: bool,
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_lost_tracks_rtt() {
        let ds = crate::Dataset::builder("T")
            .hosts(2)
            .probe(0, 1, 1.0, None)
            .probe(0, 1, 2.0, Some(12.0))
            .build()
            .unwrap();
        assert!(ds.probes[0].lost());
        assert!(!ds.probes[1].lost());
    }
}
