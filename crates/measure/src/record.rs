//! Measurement records.
//!
//! Everything downstream of the measurement machinery — dataset assembly
//! and all of `detour-core`'s analyses — consumes only these records, the
//! same information a real measurement study would have on disk.
//!
//! Three shapes of one traceroute invocation appear here:
//!
//! * [`Invocation`] — the campaign's raw yield, before rate-limit
//!   filtering: three RTT samples and the observed AS path;
//! * [`ProbeRow`] — the stored row of a [`Dataset`](crate::Dataset): the
//!   fields an invocation's probes share, interned AS path, three RTT slots
//!   and a mask of which slots hold a probe, returned, or count toward loss;
//! * [`ProbeSample`] — one probe, the atom of RTT and loss analysis. It is
//!   a view: [`Probes::iter`] yields it by value from the rows.
//!
//! [`Probes`] packs samples into rows canonically, so any sample sequence
//! round-trips exactly and equality of two stores is equality of their
//! sample sequences.

use detour_netsim::HostId;

/// One traceroute invocation's yield: the three end-host probes plus the
/// observed AS path. ([`crate::dataset::Dataset`] stores each as one
/// [`ProbeRow`] after rate-limit filtering.)
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

/// Mask bits of a [`ProbeRow`]: slot `k` holds a probe (bit `k`), its RTT
/// returned (bit `3 + k`), it counts toward loss (bit `6 + k`); bit 9 says
/// the row has an episode. Bits 10–15 are reserved.
const SLOTS: u16 = 0b111;
const RTT_SHIFT: usize = 3;
const ELIGIBLE_SHIFT: usize = 6;
const EPISODE: u16 = 1 << 9;
const USED: u16 = EPISODE | 0x1ff;

/// One stored traceroute invocation: the fields its probes share and three
/// probe slots.
///
/// Slot `k` holds the probe with index `first_index + k`. `first_index` is
/// 0 for every invocation a campaign records; only a sample whose index
/// lies past 2 starts a row at a larger one, so that a trace carrying such
/// an index still round-trips and [`crate::Dataset::new`] can name it.
/// Cells of absent slots, RTTs and episodes hold 0, so derived equality of
/// two rows is equality of the samples they hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRow {
    /// Request time, seconds since trace start.
    pub t_s: f64,
    rtt_ms: [f64; 3],
    /// Initiating host.
    pub src: HostId,
    /// Target host.
    pub dst: HostId,
    /// Index into the dataset's AS-path pool for this invocation's path.
    pub path_idx: u32,
    episode: u32,
    mask: u16,
    first_index: u8,
}

/// Eight rows to a 448-byte run: the store's cost per invocation.
const _: () = assert!(std::mem::size_of::<ProbeRow>() == 56);

impl ProbeRow {
    /// A row with no probe yet; [`ProbeRow::fill_slot`] fills it.
    pub fn new(src: HostId, dst: HostId, t_s: f64, episode: Option<u32>, path_idx: u32) -> Self {
        ProbeRow {
            t_s,
            rtt_ms: [0.0; 3],
            src,
            dst,
            path_idx,
            episode: episode.unwrap_or(0),
            mask: if episode.is_some() { EPISODE } else { 0 },
            first_index: 0,
        }
    }

    /// Rebuilds a row from its stored cells — the `.trace2` codec's view,
    /// with `mask` in the layout of [`ProbeRow::mask`]. `None` when the
    /// mask sets a reserved bit, marks an RTT or loss eligibility on an
    /// absent slot, holds no slot, or names a probe index past 255. Cells
    /// the mask marks absent are read as 0.
    pub fn from_cells(
        (src, dst): (HostId, HostId),
        t_s: f64,
        path_idx: u32,
        episode: u32,
        first_index: u8,
        mask: u16,
        rtt_ms: [f64; 3],
    ) -> Option<ProbeRow> {
        let slots = mask & SLOTS;
        let stray = (mask >> RTT_SHIFT | mask >> ELIGIBLE_SHIFT) & SLOTS & !slots;
        let top = (u16::BITS - 1).checked_sub(slots.leading_zeros())?;
        if mask & !USED != 0 || stray != 0 || first_index.checked_add(top as u8).is_none() {
            return None;
        }
        let rtt_bits = mask >> RTT_SHIFT;
        Some(ProbeRow {
            t_s,
            rtt_ms: std::array::from_fn(|k| {
                if rtt_bits >> k & 1 != 0 {
                    rtt_ms[k]
                } else {
                    0.0
                }
            }),
            src,
            dst,
            path_idx,
            episode: if mask & EPISODE != 0 { episode } else { 0 },
            mask,
            first_index,
        })
    }

    /// Puts a probe in the empty slot `k` (`k < 3`).
    pub fn fill_slot(&mut self, k: usize, rtt_ms: Option<f64>, loss_eligible: bool) {
        assert!(k < 3 && !self.has_slot(k), "slot {k} is not an empty slot");
        self.mask |= 1 << k
            | u16::from(rtt_ms.is_some()) << (RTT_SHIFT + k)
            | u16::from(loss_eligible) << (ELIGIBLE_SHIFT + k);
        self.rtt_ms[k] = rtt_ms.unwrap_or(0.0);
    }

    /// The mask: slot `k` holds a probe (bit `k`), its RTT returned (bit
    /// `3 + k`), it counts toward loss (bit `6 + k`); bit 9: the row has an
    /// episode. Bits 10–15 are zero.
    pub fn mask(&self) -> u16 {
        self.mask
    }

    /// The probe index of slot 0 (see the type's documentation).
    pub fn first_index(&self) -> u8 {
        self.first_index
    }

    /// Episode index for simultaneous campaigns.
    pub fn episode(&self) -> Option<u32> {
        (self.mask & EPISODE != 0).then_some(self.episode)
    }

    /// The RTT in slot `k`; `None` when the slot is empty or its probe was
    /// lost.
    pub fn rtt(&self, k: usize) -> Option<f64> {
        (self.mask >> (RTT_SHIFT + k) & 1 != 0).then(|| self.rtt_ms[k])
    }

    /// Whether the probe in slot `k` counts toward loss.
    fn loss_eligible(&self, k: usize) -> bool {
        self.mask >> (ELIGIBLE_SHIFT + k) & 1 != 0
    }

    /// Whether slot `k` holds a probe.
    pub fn has_slot(&self, k: usize) -> bool {
        self.mask >> k & 1 != 0
    }

    /// Each probe's RTT (`None`: lost) and loss eligibility, in slot
    /// order: the part of [`ProbeRow::samples`] the rows do not share.
    pub fn slots(&self) -> impl Iterator<Item = (Option<f64>, bool)> + '_ {
        (0..3)
            .filter(|&k| self.has_slot(k))
            .map(|k| (self.rtt(k), self.loss_eligible(k)))
    }

    /// Number of probes in the row that returned.
    pub fn returned(&self) -> usize {
        (self.mask >> RTT_SHIFT & SLOTS).count_ones() as usize
    }

    /// Number of probes in the row.
    pub fn len(&self) -> usize {
        (self.mask & SLOTS).count_ones() as usize
    }

    /// True when the row holds no probe.
    pub fn is_empty(&self) -> bool {
        self.mask & SLOTS == 0
    }

    /// The row's probes, in slot order.
    pub fn samples(&self) -> Samples<'_> {
        Samples {
            rows: [].iter(),
            row: Some(self),
            slots: self.mask & SLOTS,
        }
    }

    /// The probe in slot `k`, which must hold one.
    fn sample(&self, k: usize) -> ProbeSample {
        ProbeSample {
            src: self.src,
            dst: self.dst,
            t_s: self.t_s,
            probe_index: self.first_index + k as u8,
            rtt_ms: self.rtt(k),
            loss_eligible: self.loss_eligible(k),
            episode: self.episode(),
            path_idx: self.path_idx,
        }
    }

    /// Whether canonical packing puts `s` in this row: the same
    /// `(src, dst, t_s, episode, path_idx)` (times compared bit for bit),
    /// and an index past the row's last probe that a slot can hold.
    fn takes(&self, s: &ProbeSample) -> bool {
        let top = self.first_index as u32 + u16::BITS - 1 - (self.mask & SLOTS).leading_zeros();
        (self.src, self.dst, self.path_idx, self.episode()) == (s.src, s.dst, s.path_idx, s.episode)
            && self.t_s.to_bits() == s.t_s.to_bits()
            && (s.probe_index as u32) > top
            && (s.probe_index as u32) < self.first_index as u32 + 3
    }
}

/// A dataset's traceroute probes, stored one [`ProbeRow`] per invocation.
///
/// Packing is canonical: a sample joins the last row when
/// [`ProbeRow`]'s key fields match and its index rises past the row's
/// last probe within the row's three slots; any other sample starts a new
/// row. So a sample sequence and its store determine each other, and
/// derived equality is equality of the sample sequences.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probes {
    rows: Vec<ProbeRow>,
    /// Probes across all rows.
    len: usize,
}

impl Probes {
    /// An empty store.
    pub fn new() -> Probes {
        Probes::default()
    }

    /// An empty store with room for `rows` rows.
    pub fn with_capacity(rows: usize) -> Probes {
        Probes {
            rows: Vec::with_capacity(rows),
            len: 0,
        }
    }

    /// Number of probe samples (not rows).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the store holds no probe.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, one per invocation, in sample order.
    pub fn rows(&self) -> &[ProbeRow] {
        &self.rows
    }

    /// Every probe sample, by value, in order.
    pub fn iter(&self) -> Samples<'_> {
        Samples {
            rows: self.rows.iter(),
            row: None,
            slots: 0,
        }
    }

    /// Appends one sample, packing it canonically.
    pub fn push(&mut self, s: ProbeSample) {
        self.len += 1;
        if let Some(last) = self.rows.last_mut().filter(|r| r.takes(&s)) {
            let k = (s.probe_index - last.first_index) as usize;
            last.fill_slot(k, s.rtt_ms, s.loss_eligible);
            return;
        }
        let first_index = if s.probe_index <= 2 { 0 } else { s.probe_index };
        let mut row = ProbeRow::new(s.src, s.dst, s.t_s, s.episode, s.path_idx);
        row.first_index = first_index;
        row.fill_slot(
            (s.probe_index - first_index) as usize,
            s.rtt_ms,
            s.loss_eligible,
        );
        self.rows.push(row);
    }

    /// Appends a row's samples, as [`Probes::push`] would one by one. A
    /// row that starts at index 0 and does not continue the last row (every
    /// row a campaign or a store yields) is appended whole.
    pub fn push_row(&mut self, row: ProbeRow) {
        let mut samples = row.samples();
        let Some(head) = samples.next() else {
            return;
        };
        if row.first_index == 0 && !self.rows.last().is_some_and(|r| r.takes(&head)) {
            self.len += row.len();
            self.rows.push(row);
        } else {
            self.push(head);
            samples.for_each(|s| self.push(s));
        }
    }
}

impl FromIterator<ProbeSample> for Probes {
    fn from_iter<I: IntoIterator<Item = ProbeSample>>(samples: I) -> Probes {
        let mut probes = Probes::new();
        samples.into_iter().for_each(|s| probes.push(s));
        probes.rows.shrink_to_fit();
        probes
    }
}

impl FromIterator<ProbeRow> for Probes {
    fn from_iter<I: IntoIterator<Item = ProbeRow>>(rows: I) -> Probes {
        let rows = rows.into_iter();
        let mut probes = Probes::with_capacity(rows.size_hint().0);
        rows.for_each(|r| probes.push_row(r));
        probes.rows.shrink_to_fit();
        probes
    }
}

impl<'a> IntoIterator for &'a Probes {
    type Item = ProbeSample;
    type IntoIter = Samples<'a>;

    fn into_iter(self) -> Samples<'a> {
        self.iter()
    }
}

/// The samples of a run of rows, by value, in order: [`Probes::iter`] and
/// [`ProbeRow::samples`].
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    rows: std::slice::Iter<'a, ProbeRow>,
    row: Option<&'a ProbeRow>,
    /// The current row's slots not yet yielded.
    slots: u16,
}

impl Iterator for Samples<'_> {
    type Item = ProbeSample;

    fn next(&mut self) -> Option<ProbeSample> {
        while self.slots == 0 {
            let row = self.rows.next()?;
            self.row = Some(row);
            self.slots = row.mask & SLOTS;
        }
        let k = self.slots.trailing_zeros() as usize;
        self.slots &= self.slots - 1;
        self.row.map(|r| r.sample(k))
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
    use super::*;
    use detour_prng::{check, Rng, Xoshiro256pp};

    #[test]
    fn probe_lost_tracks_rtt() {
        let ds = crate::Dataset::builder("T")
            .hosts(2)
            .probe(0, 1, 1.0, None)
            .probe(0, 1, 2.0, Some(12.0))
            .build()
            .unwrap();
        let lost: Vec<bool> = ds.probes.iter().map(|p| p.lost()).collect();
        assert_eq!(lost, [true, false]);
    }

    fn sample(src: u32, dst: u32, t_s: f64, probe_index: u8) -> ProbeSample {
        ProbeSample {
            src: HostId(src),
            dst: HostId(dst),
            t_s,
            probe_index,
            rtt_ms: Some(10.0),
            loss_eligible: true,
            episode: None,
            path_idx: 0,
        }
    }

    #[test]
    fn an_invocation_and_its_mirror_are_two_rows() {
        let probes: Probes = [0, 1, 2]
            .map(|k| sample(0, 1, 5.0, k))
            .into_iter()
            .chain([0, 1, 2].map(|k| sample(1, 0, 5.0, k)))
            .collect();
        assert_eq!((probes.rows().len(), probes.len()), (2, 6));
        // Interleaved, each sample changes the key: a row apiece.
        let interleaved: Probes = [0, 0, 1, 1]
            .into_iter()
            .enumerate()
            .map(|(i, k)| sample(i as u32 % 2, 1 - i as u32 % 2, 5.0, k))
            .collect();
        assert_eq!(interleaved.rows().len(), 4);
    }

    #[test]
    fn out_of_range_indices_start_rows_of_their_own() {
        let seq = [0u8, 3, 4, 2, 255, 1].map(|k| sample(0, 1, 5.0, k));
        let probes: Probes = seq.into_iter().collect();
        let rows: Vec<(u8, usize)> = probes
            .rows()
            .iter()
            .map(|r| (r.first_index(), r.len()))
            .collect();
        assert_eq!(rows, [(0, 1), (3, 2), (0, 1), (255, 1), (0, 1)]);
        assert!(probes.iter().eq(seq));
    }

    #[test]
    fn cells_with_reserved_or_stray_bits_are_refused() {
        let cells = |first, mask| {
            ProbeRow::from_cells((HostId(0), HostId(1)), 0.0, 0, 7, first, mask, [1.0; 3])
        };
        assert!(cells(0, 0b1).is_some());
        assert!(cells(0, 0).is_none(), "no slot");
        assert!(cells(0, 0b1 | 1 << 10).is_none(), "reserved bit");
        assert!(cells(0, 0b1 | 1 << 4).is_none(), "RTT on an absent slot");
        assert!(cells(0, 0b1 | 1 << 7).is_none(), "eligible absent slot");
        assert!(cells(254, 0b1).is_some() && cells(254, 0b100).is_none());
        // Absent cells read as 0: equal to a row built slot by slot.
        let mut built = ProbeRow::new(HostId(0), HostId(1), 0.0, None, 0);
        built.fill_slot(1, None, true);
        assert_eq!(cells(0, 0b10 | 1 << 7), Some(built));
    }

    /// A random sample sequence: runs of 0–3 samples per invocation,
    /// repeated, out-of-order and out-of-range indices, interleaved mirrored
    /// pairs, episodes present and absent, first-sample-only masks.
    fn random_samples(rng: &mut Xoshiro256pp) -> Vec<ProbeSample> {
        let mut out = Vec::new();
        for i in 0..rng.gen_range(0..30u32) {
            let (src, dst) = if rng.gen_bool(0.5) { (0, 1) } else { (1, 0) };
            let t_s = [0.0, -0.0, 1.0, i as f64][rng.gen_range(0..4usize)];
            let episode = rng.gen_bool(0.5).then(|| rng.gen_range(0..3u32));
            let path_idx = rng.gen_range(0..2u32);
            let first_only = rng.gen_bool(0.3);
            let mirror = rng.gen_bool(0.3);
            let mut indices: Vec<u8> = (0..rng.gen_range(0..4u8)).collect();
            if rng.gen_bool(0.2) {
                indices.push(rng.gen_range(0..6u32) as u8);
            }
            if rng.gen_bool(0.1) {
                indices.push(u8::MAX);
            }
            if rng.gen_bool(0.2) {
                indices.reverse();
            }
            for k in indices {
                let s = ProbeSample {
                    src: HostId(src),
                    dst: HostId(dst),
                    t_s,
                    probe_index: k,
                    rtt_ms: rng.gen_bool(0.7).then(|| rng.gen_range(1.0..100.0)),
                    loss_eligible: !first_only || k == 0,
                    episode,
                    path_idx,
                };
                out.push(s);
                if mirror {
                    out.push(ProbeSample {
                        src: s.dst,
                        dst: s.src,
                        ..s
                    });
                }
            }
        }
        out
    }

    #[test]
    fn packing_round_trips_any_sample_sequence() {
        check::check("canonical packing", |rng| {
            let seq = random_samples(rng);
            let probes: Probes = seq.iter().copied().collect();
            assert_eq!(probes.len(), seq.len());
            assert_eq!(probes.is_empty(), seq.is_empty());
            let bits = |s: ProbeSample| (s.t_s.to_bits(), s.rtt_ms.map(f64::to_bits), s);
            assert!(probes.iter().map(bits).eq(seq.iter().copied().map(bits)));
            assert_eq!(
                probes.rows().iter().map(ProbeRow::len).sum::<usize>(),
                seq.len()
            );
            // Re-packing the rows, or any split of them, is the identity.
            let again: Probes = probes.rows().iter().copied().collect();
            assert_eq!(again, probes);
            // So is re-packing one-probe rows built from stored cells.
            let mut split = Probes::new();
            for s in &probes {
                let (first, k) = match s.probe_index {
                    k @ 0..=2 => (0, k as usize),
                    k => (k, 0),
                };
                let mask = 1 << k
                    | u16::from(s.rtt_ms.is_some()) << (3 + k)
                    | u16::from(s.loss_eligible) << (6 + k)
                    | u16::from(s.episode.is_some()) << 9;
                let mut rtt = [0.0; 3];
                rtt[k] = s.rtt_ms.unwrap_or(0.0);
                let pair = (s.src, s.dst);
                let episode = s.episode.unwrap_or(0);
                let row = ProbeRow::from_cells(pair, s.t_s, s.path_idx, episode, first, mask, rtt);
                split.push_row(row.expect("a sample's cells are valid"));
            }
            assert_eq!(split, probes);
        });
    }
}
