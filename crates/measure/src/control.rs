//! The control host: turns a request schedule into raw measurements.
//!
//! Paper §4.2: "All datasets used a centralized control host to generate
//! requests to remote servers … the control host was occasionally unable to
//! contact the server it selected and this prevented a measurement from
//! being made. In UW1, UW3, and UW4, measurements also failed if a request
//! was not returned within 5 minutes." Both failure modes are reproduced
//! here; their documented consequence — over-estimating the quality of
//! poorly connected paths — carries through to the datasets.
//!
//! ## Order-independent parallel execution
//!
//! [`run_campaign`] is embarrassingly parallel over requests. Two design
//! decisions make that sound:
//!
//! * **Counter-based per-request randomness.** Every request draws from
//!   its own RNG, [`detour_prng::Xoshiro256pp::stream`]`(campaign_seed,
//!   index)`, where `index` is the request's position in the canonical
//!   execution order. A request's outcome therefore depends only on its
//!   index and its simulated time — never on which thread ran it, or on
//!   what ran before it.
//! * **A canonical execution order.** Requests are sorted once by
//!   `(t_s, src, dst, episode)` — simulated-time order with a
//!   content-based tie-break — so the order (and with it every stream
//!   index) is a function of the request *set*, not of the list's
//!   arrangement. Shuffling the input list cannot change one byte of
//!   output; the `detour_prng::check` property tests pin this down.
//!
//! Together these make the output a pure function of the request set and
//! the seeds: the tests compare 2- and 8-worker runs against the 1-worker
//! run, with and without injected faults.

use std::collections::HashMap;

use detour_faults::{FaultConfig, FaultPlan, OutageSchedule};
use detour_netsim::routing::path::ResolvedPath;
use detour_netsim::sim::clock::SimTime;
use detour_netsim::{probe, tcp, HostId, Network};
use detour_prng::{Rng, Xoshiro256pp};

use crate::record::{Invocation, TransferSample};
use crate::schedule::Request;

/// What kind of measurement each request performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeKind {
    /// A traceroute invocation (D2 and all UW datasets).
    Traceroute,
    /// A bulk TCP transfer (N2), sampling the path for `duration_s`.
    TcpTransfer {
        /// Transfer window, seconds.
        duration_s: f64,
    },
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Measurement type.
    pub kind: ProbeKind,
    /// Probability the control host fails to contact the server at all.
    pub request_failure_prob: f64,
    /// Discard measurements that take longer than this (seconds).
    pub timeout_s: f64,
}

impl CampaignConfig {
    /// The paper's UW-style traceroute campaign: 5-minute timeout, a small
    /// request-failure probability.
    ///
    /// The timeout never fires on an unfaulted campaign. An invocation over
    /// `h` forward links sends about `3h` probes, each answered or given up
    /// within about 5 s, so it ends within about `15·h` s: under 300 s for
    /// every path shorter than 20 links. Only injected timeout storms push
    /// invocations past it, so `measure/timeouts` counts storm timeouts
    /// only.
    pub fn traceroute() -> CampaignConfig {
        CampaignConfig {
            kind: ProbeKind::Traceroute,
            request_failure_prob: 0.02,
            timeout_s: 300.0,
        }
    }

    /// The npd-style TCP campaign (N2): 100 KB-ish transfers.
    pub fn tcp() -> CampaignConfig {
        CampaignConfig {
            kind: ProbeKind::TcpTransfer { duration_s: 30.0 },
            request_failure_prob: 0.02,
            timeout_s: 600.0,
        }
    }
}

/// Raw yield of a campaign, before dataset assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawMeasurements {
    /// Traceroute invocations that returned.
    pub invocations: Vec<Invocation>,
    /// TCP transfers that completed.
    pub transfers: Vec<TransferSample>,
    /// Requests dropped before measuring (contact failures).
    pub failed_requests: usize,
    /// Measurements discarded for exceeding the timeout.
    pub timed_out: usize,
    /// Requests dropped because an injected host outage had the source or
    /// destination down (fault injection only).
    pub host_outages: usize,
    /// Requests dropped because the campaign was truncated before their
    /// scheduled time (fault injection only).
    pub truncated: usize,
}

/// What one request produced; merged index-ordered into [`RawMeasurements`].
enum Outcome {
    ContactFailed,
    TimedOut,
    HostDown,
    Truncated,
    Invocation(Invocation),
    Transfer(TransferSample),
}

/// The sampling work requests did, whatever their outcome: traceroute
/// link samples and rate-limit-suppressed destination follow-ups, and
/// which ceiling bound each completed TCP transfer (indexed by
/// [`tcp::Ceiling`]). Summed per request batch and then in [`merge`], so
/// the counters it feeds are thread-count-invariant.
#[derive(Clone, Copy, Default)]
struct Tally {
    link_samples: u64,
    rate_limited: u64,
    ceilings: [u64; 3],
}

/// Precomputed campaign-side fault state: per-host outage schedules for
/// every host the request list touches, the global storm schedule, and
/// the truncation cutoff. Built once per campaign; every schedule is a
/// pure function of the fault seed and the host id, so the table is the
/// same regardless of thread count or request order.
struct CampaignFaults {
    cutoff_s: Option<f64>,
    host_down: HashMap<HostId, OutageSchedule>,
    storm: OutageSchedule,
    storm_slowdown: f64,
}

impl CampaignFaults {
    /// The no-fault state: every check below is a cheap miss, and the
    /// executed path is byte-identical to the pre-fault code.
    fn none() -> CampaignFaults {
        CampaignFaults {
            cutoff_s: None,
            host_down: HashMap::new(),
            storm: OutageSchedule::empty(),
            storm_slowdown: 1.0,
        }
    }

    fn build(cfg: &FaultConfig, horizon_s: f64, requests: &[Request]) -> CampaignFaults {
        if !cfg.campaign_faults() {
            return CampaignFaults::none();
        }
        let plan = FaultPlan::new(*cfg, horizon_s);
        let mut hosts: Vec<HostId> = requests.iter().flat_map(|r| [r.src, r.dst]).collect();
        hosts.sort_unstable();
        hosts.dedup();
        CampaignFaults {
            cutoff_s: plan.truncation_cutoff_s(),
            host_down: hosts
                .into_iter()
                .map(|h| (h, plan.host_schedule(h.0 as u64)))
                .collect(),
            storm: plan.storm_schedule(),
            storm_slowdown: cfg.storm_slowdown,
        }
    }

    fn host_down_at(&self, h: HostId, t: f64) -> bool {
        self.host_down.get(&h).is_some_and(|s| s.down_at(t))
    }
}

/// Domain-separation constant mixed into the campaign seed before stream
/// derivation, so the per-request family cannot collide with the schedule
/// generator seeded directly from the same campaign seed.
const REQUEST_STREAM_DOMAIN: u64 = 0x6d65_6173_7572_6531; // "measure1"

/// Returns `requests` in canonical execution order: simulated-time order
/// with deterministic content-based tie-breaking. This order defines each
/// request's stream index; because it sorts by request *content*, any
/// permutation of the same request set yields the same canonical list.
fn canonical_order(requests: &[Request]) -> Vec<Request> {
    let mut sorted = requests.to_vec();
    sorted.sort_by(|a, b| {
        a.t_s
            .partial_cmp(&b.t_s)
            .expect("request times are never NaN")
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
            .then(a.episode.cmp(&b.episode))
    });
    sorted
}

/// Executes one request at its scheduled time with its own RNG stream,
/// adding the sampling work it did to `tally`.
///
/// Fault checks are deterministic schedule lookups that draw **no RNG**
/// and short-circuit before any draw is made, so with no fault active the
/// RNG stream — and thus every outcome — is identical to the fault-free
/// code path.
fn execute(
    net: &Network,
    cfg: &CampaignConfig,
    faults: &CampaignFaults,
    req: Request,
    rng: &mut impl Rng,
    tally: &mut Tally,
) -> Outcome {
    let t = SimTime(req.t_s);
    if faults.cutoff_s.is_some_and(|c| req.t_s >= c) {
        return Outcome::Truncated;
    }
    if faults.host_down_at(req.src, req.t_s) || faults.host_down_at(req.dst, req.t_s) {
        return Outcome::HostDown;
    }
    if rng.gen_bool(cfg.request_failure_prob) {
        return Outcome::ContactFailed;
    }
    let storming = faults.storm.down_at(req.t_s);
    match cfg.kind {
        ProbeKind::Traceroute => {
            let tr = probe::traceroute(net, req.src, req.dst, t, rng);
            tally.link_samples += u64::from(tr.link_samples);
            tally.rate_limited += u64::from(tr.rate_limited);
            // A storm inflates wall-clock probe time past the campaign
            // timeout for all but the fastest paths.
            let elapsed_s = if storming {
                tr.elapsed_s * faults.storm_slowdown
            } else {
                tr.elapsed_s
            };
            if elapsed_s > cfg.timeout_s {
                return Outcome::TimedOut;
            }
            Outcome::Invocation(Invocation {
                src: req.src,
                dst: req.dst,
                t_s: req.t_s,
                episode: req.episode,
                rtts: tr.rtts,
                as_path: observed_as_path(net, req.src, net.forward_path(req.src, req.dst, t)),
            })
        }
        ProbeKind::TcpTransfer { duration_s } => {
            if storming {
                // Handshake and every retransmission balloon past the
                // transfer deadline; no data comes back to summarize.
                return Outcome::TimedOut;
            }
            match tcp::bulk_transfer(net, req.src, req.dst, t, duration_s, rng) {
                Some(ts) => {
                    tally.ceilings[ts.ceiling as usize] += 1;
                    Outcome::Transfer(TransferSample {
                        src: req.src,
                        dst: req.dst,
                        t_s: req.t_s,
                        rtt_ms: ts.rtt_ms,
                        loss_rate: ts.loss_rate,
                        bandwidth_kbps: ts.bandwidth_kbps,
                    })
                }
                None => Outcome::ContactFailed,
            }
        }
    }
}

/// The AS path a traceroute over `fwd` observes, at exact capacity: the
/// source host's AS (the traceroute client knows where it is), then the
/// AS of every hop the probes reach, consecutive duplicates collapsed.
/// Just the source AS when no forward path resolved.
fn observed_as_path(net: &Network, src: HostId, fwd: Option<&ResolvedPath>) -> Vec<u16> {
    let hops = fwd.map_or(&[][..], |p| p.routers.get(1..).unwrap_or_default());
    let ases = || {
        std::iter::once(net.host(src).asn.0)
            .chain(hops.iter().map(|&r| net.topology.router(r).asn.0))
    };
    let mut runs = 0;
    let mut last = None;
    for a in ases() {
        runs += usize::from(last != Some(a));
        last = Some(a);
    }
    let mut path = Vec::with_capacity(runs);
    for a in ases() {
        if path.last() != Some(&a) {
            path.push(a);
        }
    }
    path
}

/// Folds per-request outcomes, batch by batch in canonical index order,
/// into the raw yield, and sums the batches' tallies.
fn merge(batches: Vec<(Vec<Outcome>, Tally)>) -> RawMeasurements {
    let count = |keep: fn(&Outcome) -> bool| {
        batches
            .iter()
            .map(|(b, _)| b.iter().filter(|o| keep(o)).count())
            .sum()
    };
    let mut out = RawMeasurements {
        invocations: Vec::with_capacity(count(|o| matches!(o, Outcome::Invocation(_)))),
        transfers: Vec::with_capacity(count(|o| matches!(o, Outcome::Transfer(_)))),
        ..RawMeasurements::default()
    };
    let mut requests = 0u64;
    let mut sampled = Tally::default();
    for (outcomes, tally) in batches {
        requests += outcomes.len() as u64;
        sampled.link_samples += tally.link_samples;
        sampled.rate_limited += tally.rate_limited;
        for (sum, n) in sampled.ceilings.iter_mut().zip(tally.ceilings) {
            *sum += n;
        }
        for o in outcomes {
            match o {
                Outcome::ContactFailed => out.failed_requests += 1,
                Outcome::TimedOut => out.timed_out += 1,
                Outcome::HostDown => out.host_outages += 1,
                Outcome::Truncated => out.truncated += 1,
                Outcome::Invocation(inv) => out.invocations.push(inv),
                Outcome::Transfer(ts) => out.transfers.push(ts),
            }
        }
    }
    // Side-channel tally of the requests and of every outcome that yields
    // no measurement (outcome counts are pure functions of the request
    // list + seeds, so these counters are thread-count-invariant).
    let rec = detour_obs::current();
    rec.add("measure/requests", requests);
    rec.add("measure/timeouts", out.timed_out as u64);
    rec.add("measure/contact_failures", out.failed_requests as u64);
    rec.add("faults/host_down_requests", out.host_outages as u64);
    rec.add("faults/truncated_requests", out.truncated as u64);
    rec.add("netsim/link_samples", sampled.link_samples);
    rec.add("probe/rate_limited", sampled.rate_limited);
    let [loss, window, capacity] = sampled.ceilings;
    rec.add("tcp/binding_loss", loss);
    rec.add("tcp/binding_window", window);
    rec.add("tcp/binding_capacity", capacity);
    out
}

/// Executes `requests` against the network in simulated-time order, fanned
/// out over the `detour-pool` workers, with the campaign-side faults of
/// `faults` injected: host outages, probe-timeout storms, and truncation
/// (the network-side classes are injected by the `Network` itself).
/// [`FaultConfig::none`] injects nothing.
///
/// Output is byte-identical at every thread count and for every
/// permutation of `requests`: each request's RNG stream is derived from
/// `(campaign_seed, canonical index)` alone, results merge in canonical
/// order, and fault schedules are pure functions of the fault seed.
pub fn run_campaign(
    net: &Network,
    requests: &[Request],
    cfg: &CampaignConfig,
    campaign_seed: u64,
    faults: &FaultConfig,
) -> RawMeasurements {
    let key = campaign_seed ^ REQUEST_STREAM_DOMAIN;
    let fault_state = CampaignFaults::build(faults, net.horizon_s(), requests);
    let sorted = canonical_order(requests);
    // Fan out in batches rather than one task per request: a single probe
    // is far too little work to amortize the pool's claim-and-merge
    // overhead (the seed-scale campaign *lost* ground at 2 workers when
    // chunked per request). Each request keeps the stream index of its
    // canonical position — `start + k` below — so batching is invisible to
    // the output: byte-identical to the unbatched fan-out at any worker
    // count.
    let batches: Vec<(u64, &[Request])> = sorted
        .chunks(CAMPAIGN_BATCH)
        .enumerate()
        .map(|(b, c)| ((b * CAMPAIGN_BATCH) as u64, c))
        .collect();
    let outcomes = detour_pool::parallel_map(&batches, |&(start, batch)| {
        let mut tally = Tally::default();
        let outcomes = batch
            .iter()
            .enumerate()
            .map(|(k, &req)| {
                let mut rng = Xoshiro256pp::stream(key, start + k as u64);
                execute(net, cfg, &fault_state, req, &mut rng, &mut tally)
            })
            .collect();
        (outcomes, tally)
    });
    merge(outcomes)
}

/// Requests per pool task in [`run_campaign`]. Sized so one task
/// is a few hundred microseconds of forwarding work — coarse enough that
/// claim/merge overhead vanishes, fine enough that `workers ×
/// CHUNKS_PER_WORKER` chunks still exist at seed scale (thousands of
/// requests) for load balancing.
const CAMPAIGN_BATCH: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use detour_netsim::{Era, NetworkConfig};
    use detour_prng::Xoshiro256pp;

    fn net() -> Network {
        Network::generate(&NetworkConfig::for_era(Era::Y1999, 31, 2.0))
    }

    fn small_schedule(net: &Network, n_hosts: usize, mean_s: f64) -> Vec<Request> {
        let hosts: Vec<_> = net.hosts().iter().take(n_hosts).map(|h| h.id).collect();
        Schedule::PairwiseExponential { mean_s }.generate(
            &hosts,
            4.0 * 3600.0,
            &mut Xoshiro256pp::seed_from_u64(8),
        )
    }

    /// A campaign with no injected faults.
    fn fault_free(
        net: &Network,
        reqs: &[Request],
        cfg: &CampaignConfig,
        seed: u64,
    ) -> RawMeasurements {
        run_campaign(net, reqs, cfg, seed, &FaultConfig::none())
    }

    #[test]
    fn traceroute_campaign_yields_invocations() {
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        let raw = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 1);
        assert!(!raw.invocations.is_empty());
        assert!(raw.invocations.len() + raw.failed_requests + raw.timed_out == reqs.len());
        for inv in &raw.invocations {
            assert!(
                inv.as_path.len() >= 2,
                "cross-AS paths expected: {:?}",
                inv.as_path
            );
            assert_eq!(inv.as_path[0], n.host(inv.src).asn.0);
            assert_eq!(*inv.as_path.last().unwrap(), n.host(inv.dst).asn.0);
        }
    }

    #[test]
    fn invocations_carry_the_routed_as_path_at_exact_capacity() {
        // The source AS, then the AS of every hop on the resolved forward
        // path, consecutive duplicates collapsed — what the traceroute's
        // hop list showed before the campaign stopped keeping it.
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        let raw = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 1);
        assert!(!raw.invocations.is_empty());
        for inv in &raw.invocations {
            let fwd = n.forward_path(inv.src, inv.dst, SimTime(inv.t_s)).unwrap();
            let mut expected = vec![n.host(inv.src).asn.0];
            expected.extend(fwd.as_sequence(&n.topology).iter().map(|a| a.0));
            expected.dedup();
            assert_eq!(inv.as_path, expected);
            assert_eq!(inv.as_path.capacity(), inv.as_path.len());
        }
    }

    #[test]
    fn sampling_counters_tally_traceroutes_only() {
        // A traceroute over h forward and h' reverse links samples h − 1
        // links for its intermediate hops, then h per destination probe
        // plus h' when the probe got out: between (h − 1) + 3h and
        // (h − 1) + 3(h + h'). With no timeouts every traceroute that ran
        // is an invocation. A TCP campaign adds nothing to either counter.
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        for (cfg, traceroute) in [
            (CampaignConfig::traceroute(), true),
            (CampaignConfig::tcp(), false),
        ] {
            let rec = detour_obs::Recorder::new();
            let _obs = detour_obs::install(rec.clone());
            let raw = fault_free(&n, &reqs, &cfg, 7);
            let (samples, limited) = (
                rec.counter("netsim/link_samples"),
                rec.counter("probe/rate_limited"),
            );
            if !traceroute {
                assert_eq!((samples, limited), (0, 0));
                continue;
            }
            assert_eq!(raw.timed_out, 0);
            let (mut low, mut high) = (0, 0);
            for inv in &raw.invocations {
                let t = SimTime(inv.t_s);
                let h = n.forward_path(inv.src, inv.dst, t).unwrap().links.len() as u64;
                let h_rev = n.forward_path(inv.dst, inv.src, t).unwrap().links.len() as u64;
                low += h - 1 + 3 * h;
                high += h - 1 + 3 * (h + h_rev);
            }
            assert!(
                (low..=high).contains(&samples),
                "{samples} samples outside [{low}, {high}]"
            );
            assert!(limited <= 2 * raw.invocations.len() as u64);
        }
    }

    #[test]
    fn contact_failures_happen_at_configured_rate() {
        let n = net();
        let reqs = small_schedule(&n, 8, 60.0);
        let mut cfg = CampaignConfig::traceroute();
        cfg.request_failure_prob = 0.5;
        let raw = fault_free(&n, &reqs, &cfg, 2);
        let frac = raw.failed_requests as f64 / reqs.len() as f64;
        assert!((0.4..0.6).contains(&frac), "failure fraction {frac}");
    }

    #[test]
    fn tcp_campaign_yields_transfers() {
        // Every completed transfer is tallied under exactly one binding
        // ceiling.
        let n = net();
        let reqs = small_schedule(&n, 6, 600.0);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let raw = fault_free(&n, &reqs, &CampaignConfig::tcp(), 3);
        assert!(!raw.transfers.is_empty());
        let bound: u64 = ["loss", "window", "capacity"]
            .iter()
            .map(|c| rec.counter(&format!("tcp/binding_{c}")))
            .sum();
        assert_eq!(bound, raw.transfers.len() as u64);
        for t in &raw.transfers {
            assert!(t.rtt_ms > 0.0);
            assert!((0.0..=1.0).contains(&t.loss_rate));
            assert!(t.bandwidth_kbps > 0.0);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let n = net();
        let reqs = small_schedule(&n, 6, 300.0);
        let a = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 4);
        let b = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_seed_changes_outcomes() {
        let n = net();
        let reqs = small_schedule(&n, 6, 300.0);
        let a = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 4);
        let c = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 5);
        assert_ne!(a, c, "seed must steer measurement outcomes");
    }

    #[test]
    fn aggressive_timeout_discards_measurements() {
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        let mut cfg = CampaignConfig::traceroute();
        cfg.timeout_s = 0.5; // traceroutes take seconds; nearly all time out
        let raw = fault_free(&n, &reqs, &cfg, 5);
        assert!(raw.timed_out > raw.invocations.len());
    }

    /// Runs `campaign` at 1, 2 and 8 workers and asserts the 2- and
    /// 8-worker outputs equal the 1-worker output.
    fn assert_worker_count_invariant(campaign: impl Fn() -> RawMeasurements) {
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            detour_pool::set_threads(workers);
            runs.push(campaign());
        }
        detour_pool::set_threads(0);
        assert!(!runs[0].invocations.is_empty());
        assert_eq!(runs[1], runs[0], "2 workers diverged from 1");
        assert_eq!(runs[2], runs[0], "8 workers diverged from 1");
    }

    #[test]
    fn parallel_campaign_is_worker_count_invariant() {
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        assert_worker_count_invariant(|| fault_free(&n, &reqs, &CampaignConfig::traceroute(), 7));
    }

    #[test]
    fn host_outages_are_counted_and_accounted() {
        // Every request ends in exactly one bucket, for both campaign
        // kinds, under host outages alone and under every fault at once.
        let n = net();
        let reqs = small_schedule(&n, 8, 60.0);
        let mut cranked = FaultConfig::host_outages(3);
        cranked.host.mtbf_s = 2.0 * 3600.0; // frequent inside the 4 h window
        cranked.host.mttr_s = 1800.0;
        for (kind, cfg) in [
            ("traceroute", CampaignConfig::traceroute()),
            ("tcp", CampaignConfig::tcp()),
        ] {
            for (class, faults) in [("hosts", cranked), ("heavy", FaultConfig::heavy(21))] {
                let raw = run_campaign(&n, &reqs, &cfg, 7, &faults);
                if class == "hosts" {
                    assert!(
                        raw.host_outages > 0,
                        "{kind}: cranked host outages must hit some requests"
                    );
                }
                assert_eq!(
                    raw.invocations.len()
                        + raw.transfers.len()
                        + raw.failed_requests
                        + raw.timed_out
                        + raw.host_outages
                        + raw.truncated,
                    reqs.len(),
                    "{kind}/{class}: every request must be accounted for exactly once"
                );
            }
        }
    }

    #[test]
    fn a_faulted_campaign_conserves_its_requests_in_the_counters() {
        // requests = invocations + transfers + timeouts + contact failures
        // + host-down + truncated, read off the recorded counters.
        // Storms and truncation are cranked up so that every term shows
        // inside the 4 h request window.
        let n = net();
        let reqs = small_schedule(&n, 8, 60.0);
        let mut faults = FaultConfig::heavy(21);
        faults.storm.mtbf_s = 3600.0;
        faults.storm.mttr_s = 1800.0;
        faults.storm_slowdown = 1.0e6;
        faults.truncate_frac = 0.05; // cutoff at 2.4 h of the 2-day horizon
        for cfg in [CampaignConfig::traceroute(), CampaignConfig::tcp()] {
            let rec = detour_obs::Recorder::new();
            let _obs = detour_obs::install(rec.clone());
            let raw = run_campaign(&n, &reqs, &cfg, 7, &faults);
            let lost = [
                "measure/timeouts",
                "measure/contact_failures",
                "faults/host_down_requests",
                "faults/truncated_requests",
            ]
            .map(|name| rec.counter(name));
            assert!(
                lost.iter().all(|&c| c > 0),
                "every casualty class occurs: {lost:?}"
            );
            let yielded = (raw.invocations.len() + raw.transfers.len()) as u64;
            assert_eq!(rec.counter("measure/requests"), reqs.len() as u64);
            assert_eq!(
                rec.counter("measure/requests"),
                yielded + lost.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn truncation_drops_exactly_the_tail() {
        let n = net(); // horizon 2 days; requests span the first 4 h
        let reqs = small_schedule(&n, 8, 120.0);
        let mut faults = FaultConfig::none();
        faults.truncate_frac = 0.05; // cutoff at 2.4 h, inside the window
        let cutoff = 0.05 * n.horizon_s();
        let expected = reqs.iter().filter(|r| r.t_s >= cutoff).count();
        assert!(expected > 0, "some requests must fall past the cutoff");
        let raw = run_campaign(&n, &reqs, &CampaignConfig::traceroute(), 7, &faults);
        assert_eq!(raw.truncated, expected);
    }

    #[test]
    fn storms_inflate_timeouts() {
        let n = net();
        let reqs = small_schedule(&n, 8, 60.0);
        let mut faults = FaultConfig::timeout_storms(5);
        faults.storm.mtbf_s = 3600.0; // storms all over the 4 h window
        faults.storm.mttr_s = 1800.0;
        faults.storm_slowdown = 1.0e6; // nothing survives a storm
        let calm = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 7);
        let stormy = run_campaign(&n, &reqs, &CampaignConfig::traceroute(), 7, &faults);
        assert!(
            stormy.timed_out > calm.timed_out,
            "storms must push probes past the timeout ({} vs {})",
            stormy.timed_out,
            calm.timed_out
        );
    }

    #[test]
    fn faulted_parallel_campaign_is_worker_count_invariant() {
        let n = net();
        let reqs = small_schedule(&n, 8, 120.0);
        let faults = FaultConfig::heavy(21);
        assert_worker_count_invariant(|| {
            run_campaign(&n, &reqs, &CampaignConfig::traceroute(), 7, &faults)
        });
    }

    #[test]
    fn shuffled_requests_yield_identical_output() {
        // Order-independence is a stated invariant: the canonical sort
        // re-derives the same stream indices from any permutation.
        use detour_prng::SliceRandom;
        let n = net();
        let reqs = small_schedule(&n, 6, 200.0);
        let baseline = fault_free(&n, &reqs, &CampaignConfig::traceroute(), 11);
        let mut shuffled = reqs.clone();
        shuffled.shuffle(&mut Xoshiro256pp::seed_from_u64(99));
        assert_ne!(
            shuffled.iter().map(|r| r.t_s).collect::<Vec<_>>(),
            reqs.iter().map(|r| r.t_s).collect::<Vec<_>>(),
            "shuffle should actually permute"
        );
        let got = fault_free(&n, &shuffled, &CampaignConfig::traceroute(), 11);
        assert_eq!(got, baseline);
    }
}
