//! Measurement records.
//!
//! Everything downstream of the measurement machinery — dataset assembly
//! and all of `detour-core`'s analyses — consumes only these records, the
//! same information a real measurement study would have on disk.
//!
//! Two shapes of one traceroute invocation are stored here:
//!
//! * [`Invocation`] — the campaign's raw yield, before rate-limit
//!   filtering: three RTT samples and the observed AS path;
//! * [`ProbeRow`] — the stored row of a [`Dataset`](crate::Dataset): the
//!   fields an invocation's probes share, interned AS path, three RTT slots
//!   (slot `k` holds probe `k`) and a mask of which slots hold a probe,
//!   returned, or count toward loss.
//!
//! [`ProbeSample`], one probe, is the atom of RTT and loss analysis. It is
//! a view: [`Probes::iter`] yields it by value from the rows, which the
//! store keeps as written.

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
/// probe slots, slot `k` holding probe index `k`.
///
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
        }
    }

    /// Rebuilds a row from its stored cells — the `.trace2` codec's view,
    /// with `mask` in the layout of [`ProbeRow::mask`]. `None` when the
    /// mask sets a reserved bit, marks an RTT or loss eligibility on an
    /// absent slot, or holds no slot. Cells the mask marks absent are read
    /// as 0.
    pub fn from_cells(
        (src, dst): (HostId, HostId),
        t_s: f64,
        path_idx: u32,
        episode: u32,
        mask: u16,
        rtt_ms: [f64; 3],
    ) -> Option<ProbeRow> {
        let slots = mask & SLOTS;
        let stray = (mask >> RTT_SHIFT | mask >> ELIGIBLE_SHIFT) & SLOTS & !slots;
        if slots == 0 || mask & !USED != 0 || stray != 0 {
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
    /// order: the part of a slot's sample the row does not share.
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

    /// The probe in slot `k`, which must hold one.
    fn sample(&self, k: usize) -> ProbeSample {
        ProbeSample {
            src: self.src,
            dst: self.dst,
            t_s: self.t_s,
            probe_index: k as u8,
            rtt_ms: self.rtt(k),
            loss_eligible: self.loss_eligible(k),
            episode: self.episode(),
            path_idx: self.path_idx,
        }
    }
}

/// The one-probe row holding `s` in slot `s.probe_index`.
///
/// # Panics
/// When the index is past 2, as [`ProbeRow::fill_slot`] does.
impl From<ProbeSample> for ProbeRow {
    fn from(s: ProbeSample) -> ProbeRow {
        let mut row = ProbeRow::new(s.src, s.dst, s.t_s, s.episode, s.path_idx);
        row.fill_slot(s.probe_index as usize, s.rtt_ms, s.loss_eligible);
        row
    }
}

/// A dataset's traceroute probes, stored one [`ProbeRow`] per invocation
/// and kept as written: derived equality is equality of the rows.
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

    /// The rows, one per invocation, as written.
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

    /// Appends a row, which must hold a probe.
    pub fn push_row(&mut self, row: ProbeRow) {
        assert!(!row.is_empty(), "a stored row holds a probe");
        self.len += row.len();
        self.rows.push(row);
    }
}

/// One row per sample, as [`ProbeRow::from`] builds it.
impl FromIterator<ProbeSample> for Probes {
    fn from_iter<I: IntoIterator<Item = ProbeSample>>(samples: I) -> Probes {
        samples.into_iter().map(ProbeRow::from).collect()
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

/// A store's samples, by value, in row and slot order: [`Probes::iter`].
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
    fn a_sample_is_a_row_of_its_own_at_its_index() {
        let seq = [0, 2, 1, 0].map(|k| sample(0, 1, 5.0, k));
        let probes: Probes = seq.into_iter().collect();
        let slots: Vec<u16> = probes.rows().iter().map(|r| r.mask() & SLOTS).collect();
        assert_eq!(slots, [0b001, 0b100, 0b010, 0b001]);
        assert!(probes.iter().eq(seq));
        assert_eq!(probes.len(), 4);
    }

    #[test]
    #[should_panic(expected = "slot 3")]
    fn a_sample_index_past_2_is_a_programming_error() {
        let _ = ProbeRow::from(sample(0, 1, 5.0, 3));
    }

    #[test]
    #[should_panic(expected = "holds a probe")]
    fn a_row_without_a_probe_is_not_stored() {
        Probes::new().push_row(ProbeRow::new(HostId(0), HostId(1), 0.0, None, 0));
    }

    #[test]
    fn cells_with_reserved_or_stray_bits_are_refused() {
        let cells = |mask| ProbeRow::from_cells((HostId(0), HostId(1)), 0.0, 0, 7, mask, [1.0; 3]);
        assert!(cells(0b1).is_some());
        assert!(cells(0).is_none(), "no slot");
        assert!(cells(0b1 | 1 << 10).is_none(), "reserved bit");
        assert!(cells(0b1 | 1 << 4).is_none(), "RTT on an absent slot");
        assert!(cells(0b1 | 1 << 7).is_none(), "eligible absent slot");
        // Absent cells read as 0: equal to a row built slot by slot.
        let mut built = ProbeRow::new(HostId(0), HostId(1), 0.0, None, 0);
        built.fill_slot(1, None, true);
        assert_eq!(cells(0b10 | 1 << 7), Some(built));
    }
}
