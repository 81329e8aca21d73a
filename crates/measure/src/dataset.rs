//! Dataset assembly: raw measurements → an analysis-ready dataset.
//!
//! Mirrors the paper's §4.2 cleaning pipeline:
//!
//! 1. empirically detect ICMP rate-limiting hosts and apply the dataset's
//!    correction policy ([`crate::ratelimit`]);
//! 2. store each surviving traceroute invocation as one [`ProbeRow`];
//! 3. "we removed paths for which there were fewer than 30 measurements so
//!    as to increase our confidence in the results";
//! 4. compute the Table-1 characteristics (hosts, measurement count,
//!    percent of paths covered).

use std::collections::{HashMap, HashSet};

use detour_netsim::HostId;

use crate::control::RawMeasurements;
use crate::ratelimit::{detect_rate_limited, RateLimitPolicy};
use crate::record::{HostMeta, ProbeRow, ProbeSample, Probes, TransferSample};

/// Default minimum probe count per directed path (paper: 30).
pub const MIN_SAMPLES_PER_PATH: usize = 30;

/// The largest probe or transfer RTT a dataset may hold, in ms: the
/// campaign's longest timeout (the TCP campaign's 600 s), so no returned
/// request can take longer. The bound keeps RTT sums and Figure 6's
/// sample grids finite and small.
pub const MAX_RTT_MS: f64 = 600_000.0;

/// An assembled, cleaned dataset.
///
/// [`Dataset::new`] is the only constructor, and it checks the rules the
/// analyses rely on (see [`DatasetError`]), so a `Dataset` built by the
/// simulator, loaded from a trace, or written by a test fixture is one the
/// paper's arithmetic is defined on. The fields stay public for reading;
/// code that edits them afterwards takes on the rules itself.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Dataset {
    /// Dataset name ("UW3", "D2-NA", …).
    pub name: String,
    /// Hosts remaining after filtering; no id appears twice.
    pub hosts: Vec<HostMeta>,
    /// Traceroute probes, one row per invocation (traceroute datasets).
    pub probes: Probes,
    /// TCP transfer samples (N2 datasets).
    pub transfers: Vec<TransferSample>,
    /// Pool of distinct AS paths; probes reference entries by index.
    pub as_paths: Vec<Vec<u16>>,
    /// Trace duration, seconds; every sample time lies in `[0, duration_s]`.
    pub duration_s: f64,
    /// Hosts the empirical detector flagged as rate limiting. This may
    /// name hosts that are not in `hosts`: the `FilterHosts` policy and
    /// [`Dataset::restrict_to_hosts`] remove hosts but keep the record of
    /// what the detector saw. [`Dataset::new`] leaves it empty; assembly
    /// and trace loading set it afterwards.
    pub detected_rate_limited: Vec<HostId>,
    /// Directed pairs that had *some* data but fell below the paper's
    /// ≥30-sample filter at assembly and were dropped. Nonzero means the
    /// dataset under-represents bad connectivity (outages starve exactly
    /// the paths that were failing) — reports flag it rather than let the
    /// aggregates skew silently. Restriction to a host subset keeps the
    /// assembly-time count. [`Dataset::new`] sets it to 0.
    pub starved_pairs: usize,
}

/// The field a [`DatasetError`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetField {
    /// `duration_s`: must be finite and ≥ 0.
    Duration,
    /// `hosts[row].id`: repeats an earlier host's id.
    Host,
    /// `probes[row].src`: not a listed host.
    ProbeSrc,
    /// `probes[row].dst`: not a listed host, or equal to `src`.
    ProbeDst,
    /// `probes[row].t_s`: not in `[0, duration_s]`.
    ProbeTime,
    /// `probes[row].probe_index`: past 2 (an invocation sends three).
    ProbeIndex,
    /// `probes[row].rtt_ms`: present but not in `(0, MAX_RTT_MS]`.
    ProbeRtt,
    /// `probes[row].path_idx`: past the end of `as_paths`.
    ProbePath,
    /// `transfers[row].src`: not a listed host.
    TransferSrc,
    /// `transfers[row].dst`: not a listed host, or equal to `src`.
    TransferDst,
    /// `transfers[row].t_s`: not in `[0, duration_s]`.
    TransferTime,
    /// `transfers[row].rtt_ms`: not in `(0, MAX_RTT_MS]`.
    TransferRtt,
    /// `transfers[row].loss_rate`: not in `[0, 1]`.
    TransferLoss,
    /// `transfers[row].bandwidth_kbps`: not finite and ≥ 0.
    TransferBandwidth,
}

impl DatasetField {
    /// The field's path and the rule it broke.
    fn describe(self) -> (&'static str, &'static str) {
        use DatasetField::*;
        match self {
            Duration => ("duration_s", "is not finite and >= 0"),
            Host => ("hosts.id", "repeats an earlier host"),
            ProbeSrc => ("probes.src", "names an unlisted host"),
            ProbeDst => ("probes.dst", "names an unlisted host or the source"),
            ProbeTime => ("probes.t_s", "lies outside [0, duration_s]"),
            ProbeIndex => ("probes.probe_index", "lies outside 0..=2"),
            ProbeRtt => ("probes.rtt_ms", "lies outside (0, 600000] ms"),
            ProbePath => ("probes.path_idx", "is past the AS-path pool"),
            TransferSrc => ("transfers.src", "names an unlisted host"),
            TransferDst => ("transfers.dst", "names an unlisted host or the source"),
            TransferTime => ("transfers.t_s", "lies outside [0, duration_s]"),
            TransferRtt => ("transfers.rtt_ms", "lies outside (0, 600000] ms"),
            TransferLoss => ("transfers.loss_rate", "lies outside [0, 1]"),
            TransferBandwidth => ("transfers.bandwidth_kbps", "is not finite and >= 0"),
        }
    }
}

/// Why [`Dataset::new`] refused its parts: the first row, in field order,
/// that breaks a rule. `Copy` and allocation-free, like the trace
/// decoder's own errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetError {
    /// The offending field.
    pub field: DatasetField,
    /// Its row in `hosts` or `transfers`, or its sample's position in
    /// `probes.iter()` (0 for `duration_s`).
    pub row: usize,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, rule) = self.field.describe();
        write!(f, "{field} at row {} {rule}", self.row)
    }
}

impl std::error::Error for DatasetError {}

/// Table-1 row: the dataset's summary characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Characteristics {
    /// Dataset name.
    pub name: String,
    /// Number of hosts after filtering.
    pub hosts: usize,
    /// Number of measurements (probe samples, or transfers for N2).
    pub measurements: usize,
    /// Percent of the `n·(n−1)` ordered paths with enough data.
    pub coverage_pct: f64,
    /// Duration in days.
    pub duration_days: f64,
}

/// Where [`Dataset::assemble`]'s probe samples went, besides into the
/// dataset: every raw sample (three per invocation) plus every mirrored
/// copy is kept or dropped exactly once.
#[derive(Debug, Default)]
struct SampleFlow {
    /// Copies made for UW1's mirrored paths.
    mirrored: usize,
    /// Dropped by the rate-limit policy: invocations touching a filtered
    /// or unlisted host or aimed at a detected one, and lost follow-ups
    /// under first-sample-only.
    policy_dropped: usize,
    /// Dropped by the ≥30-samples-per-path filter.
    filter_dropped: usize,
}

impl Dataset {
    /// Builds a dataset from its parts, checking every rule the analyses
    /// rely on: host ids are unique; every probe and transfer runs between
    /// two different listed hosts; sample times are finite and lie in
    /// `[0, duration_s]`; probe indices are 0, 1 or 2; a present probe RTT
    /// and every transfer RTT are positive and at most [`MAX_RTT_MS`]
    /// (they become shortest-path weights, Mathis divisors and sample
    /// grids); transfer loss is a probability; bandwidth is finite and
    /// non-negative; and every `path_idx` names an entry of `as_paths`.
    /// The first row (for probes, the first sample in `probes.iter()`
    /// order) that breaks a rule is the error. Each probe row's shared
    /// fields are checked once, and each of its present RTTs once.
    ///
    /// `detected_rate_limited` starts empty and `starved_pairs` at 0; they
    /// carry no rule, so callers set them on the result.
    pub fn new(
        name: String,
        hosts: Vec<HostMeta>,
        probes: Probes,
        transfers: Vec<TransferSample>,
        as_paths: Vec<Vec<u16>>,
        duration_s: f64,
    ) -> Result<Dataset, DatasetError> {
        use DatasetField::*;
        let fail = |field, row| Err(DatasetError { field, row });
        if !(duration_s.is_finite() && duration_s >= 0.0) {
            return fail(Duration, 0);
        }
        let mut ids: Vec<(HostId, usize)> =
            hosts.iter().enumerate().map(|(i, h)| (h.id, i)).collect();
        ids.sort_unstable();
        if let Some(row) = ids
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1)
            .min()
        {
            return fail(Host, row);
        }
        let listed = |h: HostId| ids.binary_search_by_key(&h, |&(id, _)| id).is_ok();
        let in_window = |t: f64| (0.0..=duration_s).contains(&t);
        let rtt_ok = |v: f64| v > 0.0 && v <= MAX_RTT_MS;
        // A row's samples share its key: a fault there is its first
        // sample's, ranked as a sample's own fields would rank it.
        let mut at = 0;
        for r in probes.rows() {
            if !listed(r.src) {
                return fail(ProbeSrc, at);
            } else if r.dst == r.src || !listed(r.dst) {
                return fail(ProbeDst, at);
            } else if !in_window(r.t_s) {
                return fail(ProbeTime, at);
            }
            for (k, p) in r.samples().enumerate() {
                let fault = if p.probe_index > 2 {
                    ProbeIndex
                } else if p.rtt_ms.is_some_and(|v| !rtt_ok(v)) {
                    ProbeRtt
                } else if k == 0 && r.path_idx as usize >= as_paths.len() {
                    ProbePath
                } else {
                    continue;
                };
                return fail(fault, at + k);
            }
            at += r.len();
        }
        for (row, t) in transfers.iter().enumerate() {
            let fault = if !listed(t.src) {
                TransferSrc
            } else if t.dst == t.src || !listed(t.dst) {
                TransferDst
            } else if !in_window(t.t_s) {
                TransferTime
            } else if !rtt_ok(t.rtt_ms) {
                TransferRtt
            } else if !(0.0..=1.0).contains(&t.loss_rate) {
                TransferLoss
            } else if !(t.bandwidth_kbps.is_finite() && t.bandwidth_kbps >= 0.0) {
                TransferBandwidth
            } else {
                continue;
            };
            return fail(fault, row);
        }
        Ok(Dataset {
            name,
            hosts,
            probes,
            transfers,
            as_paths,
            duration_s,
            detected_rate_limited: Vec::new(),
            starved_pairs: 0,
        })
    }

    /// Starts a [`DatasetBuilder`]: the way fixtures and tools write a
    /// small dataset by hand.
    pub fn builder(name: &str) -> DatasetBuilder {
        DatasetBuilder {
            name: name.to_string(),
            hosts: Vec::new(),
            probes: Probes::new(),
            transfers: Vec::new(),
            as_paths: vec![vec![0]],
            duration_s: None,
        }
    }

    /// Assembles a dataset from raw campaign output.
    ///
    /// `min_samples` is the per-directed-path probe threshold (use
    /// [`MIN_SAMPLES_PER_PATH`] to match the paper; transfers use
    /// `min_samples / 3` since each transfer summarizes many packets).
    pub fn assemble(
        name: &str,
        hosts: Vec<HostMeta>,
        raw: &RawMeasurements,
        policy: RateLimitPolicy,
        min_samples: usize,
        duration_s: f64,
    ) -> Dataset {
        Self::assemble_counted(name, hosts, raw, policy, min_samples, duration_s).0
    }

    /// [`Dataset::assemble`], with where the probe samples went.
    fn assemble_counted(
        name: &str,
        hosts: Vec<HostMeta>,
        raw: &RawMeasurements,
        policy: RateLimitPolicy,
        min_samples: usize,
        duration_s: f64,
    ) -> (Dataset, SampleFlow) {
        let detected = detect_rate_limited(&raw.invocations);

        // Apply the rate-limit policy at invocation granularity.
        let hosts: Vec<HostMeta> = match policy {
            RateLimitPolicy::FilterHosts => hosts
                .into_iter()
                .filter(|h| !detected.contains(&h.id))
                .collect(),
            _ => hosts,
        };
        let kept: HashSet<HostId> = hosts.iter().map(|h| h.id).collect();

        let mut as_paths: Vec<Vec<u16>> = Vec::new();
        let mut path_pool: HashMap<Vec<u16>, u32> = HashMap::new();
        // Looks a path up by slice, so only a path seen for the first time
        // is copied (once for the pool's key, once for `as_paths`).
        let mut intern_path = |p: &[u16]| -> u32 {
            if let Some(&i) = path_pool.get(p) {
                return i;
            }
            let i = as_paths.len() as u32;
            as_paths.push(p.to_vec());
            path_pool.insert(p.to_vec(), i);
            i
        };
        let mut flow = SampleFlow::default();
        let mut reversed: Vec<u16> = Vec::new();
        let mut rows: Vec<ProbeRow> = Vec::with_capacity(raw.invocations.len());
        // Probe samples per directed pair, for the ≥30 filter.
        let mut probe_counts: HashMap<(HostId, HostId), usize> = HashMap::new();
        for inv in &raw.invocations {
            if !kept.contains(&inv.src)
                || !kept.contains(&inv.dst)
                || (policy == RateLimitPolicy::ReverseDirection && detected.contains(&inv.dst))
            {
                flow.policy_dropped += inv.rtts.len();
                continue;
            }
            // UW1's substitution: measurements *toward* a rate limiter are
            // untrustworthy, so the study "use[d] the round-trip
            // measurements from traceroutes initiated in the opposite
            // direction". A clean invocation *from* a detected host doubles
            // as the mirrored path's record (with the AS path reversed),
            // a row of its own right after the invocation's.
            let mirror = policy == RateLimitPolicy::ReverseDirection && detected.contains(&inv.src);
            let path_idx = intern_path(&inv.as_path);
            let mirror_path_idx = mirror.then(|| {
                reversed.clear();
                reversed.extend(inv.as_path.iter().rev());
                intern_path(&reversed)
            });
            let mut row = ProbeRow::new(inv.src, inv.dst, inv.t_s, inv.episode, path_idx);
            for (k, &rtt) in inv.rtts.iter().enumerate() {
                let loss_eligible = match policy {
                    RateLimitPolicy::FirstSampleOnly => k == 0,
                    _ => true,
                };
                // Follow-up probes that never returned carry no information
                // under first-sample-only; drop them entirely.
                if !loss_eligible && rtt.is_none() {
                    flow.policy_dropped += 1;
                    continue;
                }
                row.fill_slot(k, rtt, loss_eligible);
            }
            let mirrored = mirror_path_idx.map(|path_idx| {
                let mut m = row;
                (m.src, m.dst, m.path_idx) = (inv.dst, inv.src, path_idx);
                m
            });
            flow.mirrored += mirrored.map_or(0, |m| m.len());
            for r in std::iter::once(row).chain(mirrored) {
                *probe_counts.entry((r.src, r.dst)).or_default() += r.len();
                rows.push(r);
            }
        }

        let transfers: Vec<TransferSample> = raw
            .transfers
            .iter()
            .filter(|t| kept.contains(&t.src) && kept.contains(&t.dst))
            .copied()
            .collect();

        // Per-path sample-count filter: it counts probes, not rows. Every
        // row holds its invocation's first probe, so no row can continue
        // the one before it and the kept rows are already packed.
        rows.retain(|r| probe_counts[&(r.src, r.dst)] >= min_samples);
        let probes: Probes = rows.into_iter().collect();
        flow.filter_dropped = probe_counts.values().filter(|&&c| c < min_samples).sum();

        let min_transfers = (min_samples / 3).max(2);
        let mut transfer_counts: HashMap<(HostId, HostId), usize> = HashMap::new();
        for t in &transfers {
            *transfer_counts.entry((t.src, t.dst)).or_default() += 1;
        }
        let transfers: Vec<TransferSample> = transfers
            .into_iter()
            .filter(|t| transfer_counts[&(t.src, t.dst)] >= min_transfers)
            .collect();

        // Degradation signal: pairs the filter just removed. These had
        // real (if thin) data — typically exactly the paths an injected
        // outage starved.
        let starved_pairs = probe_counts.values().filter(|&&c| c < min_samples).count()
            + transfer_counts
                .values()
                .filter(|&&c| c < min_transfers)
                .count();

        let mut ds = Dataset::new(
            name.to_string(),
            hosts,
            probes,
            transfers,
            as_paths,
            duration_s,
        )
        .unwrap_or_else(|e| panic!("the campaign assembled an invalid dataset: {e}"));
        ds.detected_rate_limited = detected;
        ds.starved_pairs = starved_pairs;
        (ds, flow)
    }

    /// Restricts the dataset to a host subset (used to derive the `-NA`
    /// variants from the world datasets, and by tests as the independent
    /// oracle for the kernel's host removal).
    ///
    /// `keep` need not be sorted or deduplicated; membership is resolved
    /// against a normalized copy, so callers can pass slices in any order
    /// without iteration-order hazards.
    pub fn restrict_to_hosts(&self, keep: &[HostId]) -> Dataset {
        let mut keep: Vec<HostId> = keep.to_vec();
        keep.sort_unstable();
        keep.dedup();
        let kept = |h: HostId| keep.binary_search(&h).is_ok();
        let mut ds = Dataset::new(
            self.name.clone(),
            self.hosts.iter().filter(|h| kept(h.id)).cloned().collect(),
            self.probes
                .rows()
                .iter()
                .filter(|r| kept(r.src) && kept(r.dst))
                .copied()
                .collect(),
            self.transfers
                .iter()
                .filter(|t| kept(t.src) && kept(t.dst))
                .copied()
                .collect(),
            self.as_paths.clone(),
            self.duration_s,
        )
        .unwrap_or_else(|e| panic!("restricting a valid dataset broke a rule: {e}"));
        ds.detected_rate_limited = self.detected_rate_limited.clone();
        ds.starved_pairs = self.starved_pairs;
        ds
    }

    /// Directed pairs with at least one probe (or transfer) present,
    /// sorted ascending (deterministic regardless of sample order).
    pub fn measured_pairs(&self) -> Vec<(HostId, HostId)> {
        // Hosts ranked by id: the seen-grid's row-major order is then the
        // sorted pair order.
        let mut ids: Vec<HostId> = self.hosts.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        let rank = |h: HostId| ids.partition_point(|&id| id < h);
        let mut seen = vec![false; n * n];
        let mut last = None;
        let pairs = self.probes.rows().iter().map(|r| (r.src, r.dst));
        for pair in pairs.chain(self.transfers.iter().map(|t| (t.src, t.dst))) {
            // Consecutive records often share a pair.
            if last != Some(pair) {
                seen[rank(pair.0) * n + rank(pair.1)] = true;
                last = Some(pair);
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(cell, _)| (ids[cell / n], ids[cell % n]))
            .collect()
    }

    /// The Table-1 row for this dataset.
    ///
    /// "Measurements" counts traceroute *invocations* (not the three probes
    /// each one takes), matching the paper's accounting — the rows that
    /// hold a first probe; for transfer datasets it counts transfers.
    pub fn characteristics(&self) -> Characteristics {
        let n = self.hosts.len();
        let potential = (n * n.saturating_sub(1)).max(1);
        let measurements = if self.transfers.is_empty() {
            self.probes.rows().iter().filter(|r| r.has_slot(0)).count()
        } else {
            self.transfers.len()
        };
        Characteristics {
            name: self.name.clone(),
            hosts: n,
            measurements,
            coverage_pct: 100.0 * self.measured_pairs().len() as f64 / potential as f64,
            duration_days: self.duration_s / 86_400.0,
        }
    }
}

/// Writes a small dataset by hand and checks it through [`Dataset::new`].
///
/// Hosts added by [`hosts`](Self::hosts) and [`host`](Self::host) are
/// named `h{id}` and sit in AS `id`. A probe added by
/// [`probe`](Self::probe) is a first, loss-eligible, non-episodic probe on
/// AS path 0. The AS-path pool starts as the single path `[0]`, and the
/// duration defaults to the latest sample time.
#[derive(Debug)]
pub struct DatasetBuilder {
    name: String,
    hosts: Vec<HostMeta>,
    probes: Probes,
    transfers: Vec<TransferSample>,
    as_paths: Vec<Vec<u16>>,
    duration_s: Option<f64>,
}

impl DatasetBuilder {
    /// Adds hosts `0..n`.
    pub fn hosts(&mut self, n: u32) -> &mut Self {
        for id in 0..n {
            self.host(id);
        }
        self
    }

    /// Adds host `id`.
    pub fn host(&mut self, id: u32) -> &mut Self {
        self.host_meta(HostMeta {
            id: HostId(id),
            name: format!("h{id}"),
            asn: id as u16,
            truly_rate_limited: false,
        })
    }

    /// Adds a host described in full.
    pub fn host_meta(&mut self, meta: HostMeta) -> &mut Self {
        self.hosts.push(meta);
        self
    }

    /// Adds a probe from `src` to `dst` at `t_s`; `rtt_ms` is `None` when
    /// it was lost.
    pub fn probe(&mut self, src: u32, dst: u32, t_s: f64, rtt_ms: Option<f64>) -> &mut Self {
        self.probe_with(src, dst, t_s, rtt_ms, |_| {})
    }

    /// Adds a probe like [`probe`](Self::probe), then lets `edit` set its
    /// other fields (probe index, loss eligibility, episode, AS path).
    pub fn probe_with(
        &mut self,
        src: u32,
        dst: u32,
        t_s: f64,
        rtt_ms: Option<f64>,
        edit: impl FnOnce(&mut ProbeSample),
    ) -> &mut Self {
        let mut p = ProbeSample {
            src: HostId(src),
            dst: HostId(dst),
            t_s,
            probe_index: 0,
            rtt_ms,
            loss_eligible: true,
            episode: None,
            path_idx: 0,
        };
        edit(&mut p);
        self.probes.push(p);
        self
    }

    /// Adds a TCP transfer.
    pub fn transfer(
        &mut self,
        src: u32,
        dst: u32,
        t_s: f64,
        rtt_ms: f64,
        loss_rate: f64,
        bandwidth_kbps: f64,
    ) -> &mut Self {
        self.transfers.push(TransferSample {
            src: HostId(src),
            dst: HostId(dst),
            t_s,
            rtt_ms,
            loss_rate,
            bandwidth_kbps,
        });
        self
    }

    /// Replaces the AS-path pool.
    pub fn as_paths(&mut self, pool: Vec<Vec<u16>>) -> &mut Self {
        self.as_paths = pool;
        self
    }

    /// Sets the trace duration.
    pub fn duration(&mut self, seconds: f64) -> &mut Self {
        self.duration_s = Some(seconds);
        self
    }

    /// Checks the dataset written so far through [`Dataset::new`].
    pub fn build(&self) -> Result<Dataset, DatasetError> {
        let latest = self
            .probes
            .rows()
            .iter()
            .map(|r| r.t_s)
            .chain(self.transfers.iter().map(|t| t.t_s))
            .fold(0.0, f64::max);
        Dataset::new(
            self.name.clone(),
            self.hosts.clone(),
            self.probes.clone(),
            self.transfers.clone(),
            self.as_paths.clone(),
            self.duration_s.unwrap_or(latest),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Invocation;

    fn meta(id: u32) -> HostMeta {
        HostMeta {
            id: HostId(id),
            name: format!("h{id}"),
            asn: id as u16,
            truly_rate_limited: false,
        }
    }

    /// `count` clean invocations per ordered pair over the given hosts.
    fn clean_raw(host_ids: &[u32], count: usize) -> RawMeasurements {
        let mut raw = RawMeasurements::default();
        for &s in host_ids {
            for &d in host_ids {
                if s == d {
                    continue;
                }
                for i in 0..count {
                    raw.invocations.push(Invocation {
                        src: HostId(s),
                        dst: HostId(d),
                        t_s: i as f64 * 100.0,
                        episode: None,
                        rtts: [Some(40.0), Some(42.0), Some(41.0)],
                        as_path: vec![s as u16, 100, d as u16],
                    });
                }
            }
        }
        raw
    }

    #[test]
    fn assembly_stores_one_row_per_invocation() {
        let raw = clean_raw(&[0, 1, 2], 12);
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1), meta(2)],
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        // 6 ordered pairs * 12 invocations * 3 probes = 216, all ≥ 30/path.
        assert_eq!(ds.probes.len(), 216);
        assert_eq!(ds.probes.rows().len(), 6 * 12);
        assert_eq!(ds.hosts.len(), 3);
        assert_eq!(ds.measured_pairs().len(), 6);
    }

    #[test]
    fn min_sample_filter_drops_thin_paths() {
        let mut raw = clean_raw(&[0, 1], 12); // 36 probes per pair: kept
                                              // One lonely invocation on a third pair: dropped.
        raw.invocations.push(Invocation {
            src: HostId(0),
            dst: HostId(2),
            t_s: 0.0,
            episode: None,
            rtts: [Some(10.0), Some(10.0), Some(10.0)],
            as_path: vec![0, 2],
        });
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1), meta(2)],
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        assert!(!ds.measured_pairs().contains(&(HostId(0), HostId(2))));
        assert!(ds.measured_pairs().contains(&(HostId(0), HostId(1))));
    }

    /// Invocations displaying the rate-limiter signature toward `dst`.
    fn limited_invocations(src: u32, dst: u32, n: usize) -> Vec<Invocation> {
        (0..n)
            .map(|i| Invocation {
                src: HostId(src),
                dst: HostId(dst),
                t_s: i as f64,
                episode: None,
                rtts: [Some(50.0), None, None],
                as_path: vec![src as u16, dst as u16],
            })
            .collect()
    }

    #[test]
    fn filter_hosts_policy_removes_detected_hosts() {
        let mut raw = clean_raw(&[0, 1], 15);
        raw.invocations.extend(limited_invocations(0, 2, 15));
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1), meta(2)],
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        assert_eq!(ds.detected_rate_limited, vec![HostId(2)]);
        assert_eq!(ds.hosts.len(), 2);
        assert!(ds
            .probes
            .iter()
            .all(|p| p.dst != HostId(2) && p.src != HostId(2)));
    }

    #[test]
    fn reverse_direction_policy_keeps_host_but_drops_toward_it() {
        let mut raw = clean_raw(&[0, 1], 15);
        raw.invocations.extend(limited_invocations(0, 2, 15));
        // Clean measurements *from* host 2.
        for i in 0..15 {
            raw.invocations.push(Invocation {
                src: HostId(2),
                dst: HostId(0),
                t_s: i as f64,
                episode: None,
                rtts: [Some(48.0), Some(50.0), Some(47.0)],
                as_path: vec![2, 0],
            });
        }
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1), meta(2)],
            &raw,
            RateLimitPolicy::ReverseDirection,
            30,
            86_400.0,
        );
        assert_eq!(ds.hosts.len(), 3);
        // The direct (contaminated) measurements toward host 2 are gone;
        // the surviving probes toward it are mirrors of 2→0 with identical
        // RTTs (the paper's opposite-direction substitution).
        let toward: Vec<_> = ds.probes.iter().filter(|p| p.dst == HostId(2)).collect();
        assert!(
            !toward.is_empty(),
            "substituted measurements must cover the pair"
        );
        assert!(toward.iter().all(|p| p.src == HostId(0)));
        assert!(toward.iter().all(|p| p.rtt_ms.is_some()));
        // Each mirrored record is a row of its own, all three probes.
        let mut mirrored = ds.probes.rows().iter().filter(|r| r.dst == HostId(2));
        assert!(mirrored.clone().count() > 0 && mirrored.all(|r| r.len() == 3));
        assert!(ds.probes.iter().any(|p| p.src == HostId(2)));
    }

    #[test]
    fn first_sample_only_marks_loss_eligibility() {
        let mut raw = RawMeasurements::default();
        for i in 0..20 {
            raw.invocations.push(Invocation {
                src: HostId(0),
                dst: HostId(1),
                t_s: i as f64,
                episode: None,
                rtts: [Some(30.0), Some(31.0), None],
                as_path: vec![0, 1],
            });
        }
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1)],
            &raw,
            RateLimitPolicy::FirstSampleOnly,
            30,
            86_400.0,
        );
        // Probe 0 eligible, probe 1 kept for RTT only, probe 2 dropped.
        assert_eq!(ds.probes.len(), 40);
        assert!(ds
            .probes
            .iter()
            .filter(|p| p.loss_eligible)
            .all(|p| p.probe_index == 0));
        assert!(!ds.probes.iter().any(|p| p.probe_index == 2));
    }

    #[test]
    fn characteristics_match_table1_shape() {
        let raw = clean_raw(&[0, 1, 2, 3], 15);
        let ds = Dataset::assemble(
            "T",
            (0..4).map(meta).collect(),
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            2.0 * 86_400.0,
        );
        let c = ds.characteristics();
        assert_eq!(c.hosts, 4);
        // Measurements count invocations: 12 ordered pairs × 15 each.
        assert_eq!(c.measurements, 12 * 15);
        assert!((c.coverage_pct - 100.0).abs() < 1e-9);
        assert!((c.duration_days - 2.0).abs() < 1e-12);
    }

    #[test]
    fn restrict_to_hosts_drops_everything_else() {
        let raw = clean_raw(&[0, 1, 2], 12);
        let ds = Dataset::assemble(
            "T",
            (0..3).map(meta).collect(),
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        // Deliberately unsorted with a duplicate: the API normalizes.
        let sub = ds.restrict_to_hosts(&[HostId(1), HostId(0), HostId(1)]);
        assert_eq!(sub.hosts.len(), 2);
        assert_eq!(sub.measured_pairs().len(), 2);
    }

    #[test]
    fn measured_pairs_are_sorted() {
        let raw = clean_raw(&[2, 0, 1], 12);
        let ds = Dataset::assemble(
            "T",
            (0..3).map(meta).collect(),
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        let pairs = ds.measured_pairs();
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "sorted and deduplicated"
        );
        assert_eq!(pairs.len(), 6);
    }

    #[test]
    fn measured_pairs_match_a_hash_set_of_every_sample_pair() {
        detour_prng::check::check("measured pairs", |rng| {
            use detour_prng::{Rng, SliceRandom};
            // Sparse ids in shuffled order, so position, rank and id differ.
            let n = rng.gen_range(2..9u32);
            let mut ids: Vec<u32> = (0..n).map(|i| i * 7 + rng.gen_range(0..7u32)).collect();
            ids.shuffle(rng);
            let mut b = Dataset::builder("random");
            for &id in &ids {
                b.host(id);
            }
            let pair = |rng: &mut detour_prng::Xoshiro256pp| {
                let s = ids[rng.gen_range(0..ids.len())];
                let d = loop {
                    let d = ids[rng.gen_range(0..ids.len())];
                    if d != s {
                        break d;
                    }
                };
                (s, d)
            };
            for _ in 0..rng.gen_range(0..40usize) {
                let (s, d) = pair(rng);
                // Runs of one to three rows, as an invocation's probes are.
                for _ in 0..rng.gen_range(1..4usize) {
                    b.probe(s, d, 1.0, Some(10.0));
                }
            }
            if rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(1..20usize) {
                    let (s, d) = pair(rng);
                    b.transfer(s, d, 1.0, 50.0, 0.01, 800.0);
                }
            }
            let ds = b.build().unwrap();
            let reference: HashSet<(HostId, HostId)> = ds
                .probes
                .iter()
                .map(|p| (p.src, p.dst))
                .chain(ds.transfers.iter().map(|t| (t.src, t.dst)))
                .collect();
            let mut reference: Vec<(HostId, HostId)> = reference.into_iter().collect();
            reference.sort_unstable();
            assert_eq!(ds.measured_pairs(), reference);
        });
    }

    #[test]
    fn assembly_conserves_every_probe_sample() {
        use std::cell::Cell;
        // How often each way out of the raw samples came up.
        let seen = [(); 3].map(|_| Cell::new(0u32));
        let bump = |c: &Cell<u32>, n: usize| c.set(c.get() + u32::from(n > 0));
        detour_prng::check::check("assembly conservation", |rng| {
            use detour_prng::Rng;
            let n = rng.gen_range(2..6u32);
            let mut raw = RawMeasurements::default();
            for i in 0..rng.gen_range(0..400usize) {
                let src = rng.gen_range(0..n);
                let dst = (src + rng.gen_range(1..n)) % n;
                // Host 0 answers only first probes: a rate limiter.
                let rtts = std::array::from_fn(|k| {
                    let answered = rng.gen_bool(0.9) && !(dst == 0 && k > 0);
                    answered.then_some(40.0 + k as f64)
                });
                raw.invocations.push(Invocation {
                    src: HostId(src),
                    dst: HostId(dst),
                    t_s: i as f64,
                    episode: rng.gen_bool(0.3).then_some(i as u32 / 10),
                    rtts,
                    as_path: vec![src as u16, rng.gen_range(0..3u32) as u16, dst as u16],
                });
            }
            for policy in [
                RateLimitPolicy::FilterHosts,
                RateLimitPolicy::ReverseDirection,
                RateLimitPolicy::FirstSampleOnly,
            ] {
                let hosts = (0..n).map(meta).collect();
                let min = rng.gen_range(1..40usize);
                let (ds, flow) = Dataset::assemble_counted("C", hosts, &raw, policy, min, 1e6);
                assert_eq!(
                    3 * raw.invocations.len() + flow.mirrored,
                    ds.probes.len() + flow.policy_dropped + flow.filter_dropped,
                    "{policy:?}: {flow:?}"
                );
                let rows: usize = ds.probes.rows().iter().map(ProbeRow::len).sum();
                assert_eq!(rows, ds.probes.len());
                bump(&seen[0], flow.mirrored);
                bump(&seen[1], flow.policy_dropped);
                bump(&seen[2], flow.filter_dropped);
            }
        });
        for (name, c) in ["mirrored", "policy-dropped", "filter-dropped"]
            .iter()
            .zip(&seen)
        {
            assert!(c.get() > 0, "no case had {name} samples");
        }
    }

    #[test]
    fn as_path_pool_deduplicates() {
        let raw = clean_raw(&[0, 1], 15);
        let ds = Dataset::assemble(
            "T",
            vec![meta(0), meta(1)],
            &raw,
            RateLimitPolicy::FilterHosts,
            30,
            86_400.0,
        );
        // Two directions → two distinct AS paths, not 30.
        assert_eq!(ds.as_paths.len(), 2);
        for p in &ds.probes {
            assert!((p.path_idx as usize) < ds.as_paths.len());
        }
    }

    /// Two hosts, a probe 0→1 and a transfer 1→0, all valid.
    fn valid() -> DatasetBuilder {
        let mut b = Dataset::builder("V");
        b.hosts(2)
            .probe(0, 1, 1.0, Some(40.0))
            .transfer(1, 0, 2.0, 80.0, 0.5, 10.0)
            .duration(10.0);
        b
    }

    #[test]
    fn new_names_the_field_and_row_of_the_first_broken_rule() {
        use DatasetField::*;
        type Edit = for<'a> fn(&'a mut DatasetBuilder) -> &'a mut DatasetBuilder;
        let cases: [(Edit, DatasetField, usize); 18] = [
            (|b| b.duration(f64::NAN), Duration, 0),
            (|b| b.host(1).host(1), Host, 2),
            (|b| b.probe(7, 1, 0.0, None), ProbeSrc, 1),
            (|b| b.probe(1, 1, 0.0, None), ProbeDst, 1),
            (|b| b.probe(1, 0, 10.5, None), ProbeTime, 1),
            (|b| b.probe(1, 0, 0.0, Some(0.0)), ProbeRtt, 1),
            (|b| b.probe(1, 0, 0.0, Some(600_000.5)), ProbeRtt, 1),
            (
                |b| b.probe_with(1, 0, 0.0, None, |p| p.probe_index = 3),
                ProbeIndex,
                1,
            ),
            (
                |b| b.probe_with(1, 0, 0.0, None, |p| p.probe_index = u8::MAX),
                ProbeIndex,
                1,
            ),
            // The third probe of the first invocation: its row's position.
            (
                |b| {
                    b.probe_with(0, 1, 1.0, None, |p| p.probe_index = 1)
                        .probe_with(0, 1, 1.0, Some(0.0), |p| p.probe_index = 2)
                },
                ProbeRtt,
                2,
            ),
            (
                |b| b.probe_with(1, 0, 0.0, None, |p| p.path_idx = 1),
                ProbePath,
                1,
            ),
            (|b| b.transfer(9, 0, 0.0, 1.0, 0.0, 0.0), TransferSrc, 1),
            (|b| b.transfer(0, 0, 0.0, 1.0, 0.0, 0.0), TransferDst, 1),
            (|b| b.transfer(0, 1, -1.0, 1.0, 0.0, 0.0), TransferTime, 1),
            (
                |b| b.transfer(0, 1, 0.0, f64::INFINITY, 0.0, 0.0),
                TransferRtt,
                1,
            ),
            (|b| b.transfer(0, 1, 0.0, 1e300, 0.0, 0.0), TransferRtt, 1),
            (|b| b.transfer(0, 1, 0.0, 1.0, 1.5, 0.0), TransferLoss, 1),
            (
                |b| b.transfer(0, 1, 0.0, 1.0, 0.0, -0.5),
                TransferBandwidth,
                1,
            ),
        ];
        for (edit, field, row) in cases {
            let mut b = valid();
            edit(&mut b);
            let err = b.build().expect_err("the edit breaks a rule");
            assert_eq!(err, DatasetError { field, row });
            assert!(err.to_string().contains(&format!("row {row}")), "{err}");
        }
    }

    #[test]
    fn the_rtt_bound_is_the_longest_campaign_timeout() {
        use crate::CampaignConfig;
        let longest = CampaignConfig::tcp()
            .timeout_s
            .max(CampaignConfig::traceroute().timeout_s);
        assert_eq!(MAX_RTT_MS, longest * 1000.0);
        let mut b = valid();
        b.probe(1, 0, 0.0, Some(MAX_RTT_MS))
            .transfer(0, 1, 0.0, MAX_RTT_MS, 0.0, 0.0);
        assert!(b.build().is_ok(), "the bound itself is a valid RTT");
    }
}
