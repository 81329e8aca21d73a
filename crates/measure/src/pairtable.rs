//! Columnar per-pair aggregates: the paper's measurement graph.
//!
//! Paper §4.1 builds "a weighted graph in which each host is represented by
//! a vertex and each path is represented by a corresponding edge", weighted
//! by "the long term time average of the measurements … taken along that
//! path". A [`PairTable`] is exactly that graph, materialized once per
//! [`Dataset`] (or probe subset): for every directed host pair, the
//! finished RTT/loss/bandwidth summaries, the raw RTT samples (the median
//! and 10th-percentile analyses need the distribution, not just moments),
//! and the modal AS-path pool index. Edges are directed — measurements are
//! directional and Internet routing is asymmetric.
//!
//! Layout is columnar (one dense row-major `n × n` vector per statistic)
//! rather than row-wise structs: consumers scan one statistic across all
//! pairs at a time, and equality/round-trip checks compare column by
//! column.
//!
//! A build is two passes over its probe rows (one per traceroute
//! invocation). The first looks each row's cell up once (the only
//! host-index lookup) and counts the returned probes per cell, which sizes
//! the shared RTT-sample blob exactly; the second pushes each row's probes
//! into dense per-column [`OnlineStats`] arrays and tallies its modal-path
//! votes in one arena. The transfer columns get accumulators
//! only when the dataset has transfers. So a build allocates per column,
//! never per cell, however many parts a partitioned build makes.
//!
//! Determinism contract: every summary comes from incremental
//! [`OnlineStats`] pushes in probe order. Welford means are floating-point
//! push-order-dependent, so a table built from a host-restricted copy of a
//! dataset ([`Dataset::restrict_to_hosts`]) is bit-identical, cell for
//! cell, to the corresponding cells of the full table — and each part of
//! [`PairTable::build_partitioned`] is bit-identical to the table of a
//! dataset holding only that part's probes.
//!
//! Every build records the probes (not rows) it reads on the
//! `pairtable/probe_visits` counter of the current `detour-obs` recorder (one `add` per build), so a
//! run shows whether a per-part analysis stays linear in the probe count.

use detour_netsim::HostId;
use detour_stats::{OnlineStats, Summary};

use crate::dataset::Dataset;
use crate::record::ProbeRow;

/// Dense index of a dataset's hosts: the hosts in `Dataset::hosts` order
/// (the tables' dense axis) plus `(id, index)` pairs sorted by id, so a
/// lookup is a binary search and the index's size follows the host count,
/// whatever values the ids take.
#[derive(Debug, Clone, PartialEq)]
pub struct HostIndex {
    hosts: Vec<HostId>,
    sorted: Vec<(HostId, u32)>,
}

impl HostIndex {
    /// Indexes `hosts` by position (unique, as [`Dataset::new`] checks).
    pub(crate) fn new(hosts: Vec<HostId>) -> HostIndex {
        let mut sorted: Vec<(HostId, u32)> = hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i as u32))
            .collect();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0].0 != w[1].0),
            "host ids are unique"
        );
        HostIndex { hosts, sorted }
    }

    /// Dense index of a host the index is known to hold: every probe and
    /// transfer endpoint of a [`Dataset`].
    fn position(&self, h: HostId) -> usize {
        let k = self.sorted.partition_point(|&(id, _)| id < h);
        debug_assert!(
            self.sorted.get(k).is_some_and(|&(id, _)| id == h),
            "{h:?} is not a listed host"
        );
        self.sorted[k].1 as usize
    }

    /// The hosts, in dense-index order.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// Dense index of a host, or `None` when it is not indexed.
    #[inline]
    pub fn get(&self, h: HostId) -> Option<usize> {
        self.sorted
            .binary_search_by_key(&h, |&(id, _)| id)
            .ok()
            .map(|k| self.sorted[k].1 as usize)
    }
}

/// Per-pair aggregate columns over one dataset (or probe subset).
#[derive(Debug, Clone, PartialEq)]
pub struct PairTable {
    index: HostIndex,
    /// RTT summary over returned probes, per `i * n + j` cell.
    rtt: Vec<Option<Summary>>,
    /// Loss-indicator summary over loss-eligible probes.
    loss: Vec<Option<Summary>>,
    /// Bandwidth summary over TCP transfers (kB/s).
    bandwidth: Vec<Option<Summary>>,
    /// Mean RTT within TCP transfers (ms).
    transfer_rtt: Vec<Option<Summary>>,
    /// Mean loss rate within TCP transfers.
    transfer_loss: Vec<Option<Summary>>,
    /// Modal AS path as an index into `Dataset::as_paths`.
    modal_path: Vec<Option<u32>>,
    /// Prefix offsets into `rtt_samples`, length `n * n + 1`.
    rtt_off: Vec<u32>,
    /// Concatenated per-cell RTT samples, in probe order.
    rtt_samples: Vec<f64>,
}

/// One modal-path tally in a build's arena: `votes` probes of one cell
/// took AS path `path`; `next` is the cell's previous tally (or [`NIL`]).
/// A pair sees only a handful of distinct routes, so walking its list
/// beats hashing.
struct Tally {
    path: u32,
    votes: u32,
    next: u32,
}

/// The end of a cell's tally list.
const NIL: u32 = u32::MAX;

/// The arena indices of the tally list that starts at `first`.
fn tally_list(tallies: &[Tally], first: u32) -> impl Iterator<Item = usize> + '_ {
    let index = |k: u32| (k != NIL).then_some(k as usize);
    std::iter::successors(index(first), move |&k| index(tallies[k].next))
}

impl PairTable {
    /// Builds the table from every sample in `ds`.
    pub fn build(ds: &Dataset) -> PairTable {
        let index = HostIndex::new(ds.hosts.iter().map(|h| h.id).collect());
        Self::build_from(ds, index, ds.probes.rows().iter())
    }

    /// Splits `ds`'s probe rows into `parts` disjoint subsets by `key` and
    /// yields one table per part, in part order, each built when the
    /// iterator reaches it — so only one part's table need be alive at a
    /// time. A row keyed `None` belongs to no part. Every table covers
    /// all of `ds`'s hosts and all of its transfers (the time-of-day and
    /// episode analyses only slice probes), and equals
    /// [`PairTable::build`] of a copy of `ds` holding only that part's
    /// rows.
    ///
    /// `key` runs once per row, in row order: a counting pass sizes one
    /// shared index array (each part's row indices, in row order), and a
    /// scatter pass fills it. The split reads each row once and each part's
    /// build reads its own rows twice, so the whole partition reads at most
    /// three rows per row of `ds`, however many parts there are.
    ///
    /// # Panics
    /// When `key` returns a part `>= parts`.
    pub fn build_partitioned<'a>(
        ds: &'a Dataset,
        parts: usize,
        mut key: impl FnMut(&ProbeRow) -> Option<usize>,
    ) -> impl ExactSizeIterator<Item = PairTable> + 'a {
        const NONE: u32 = u32::MAX;
        let rows = ds.probes.rows();
        let mut keys: Vec<u32> = Vec::with_capacity(rows.len());
        let mut off: Vec<u32> = vec![0; parts + 1];
        for r in rows {
            let k = match key(r) {
                Some(k) => {
                    assert!(k < parts, "row keyed to part {k} of {parts}");
                    off[k + 1] += 1;
                    k as u32
                }
                None => NONE,
            };
            keys.push(k);
        }
        for k in 0..parts {
            off[k + 1] += off[k];
        }
        let mut members: Vec<u32> = vec![0; off[parts] as usize];
        let mut cursor: Vec<u32> = off[..parts].to_vec();
        for (i, &k) in keys.iter().enumerate() {
            if k != NONE {
                members[cursor[k as usize] as usize] = i as u32;
                cursor[k as usize] += 1;
            }
        }
        drop(keys);
        detour_obs::current().add("pairtable/probe_visits", ds.probes.len() as u64);

        let index = HostIndex::new(ds.hosts.iter().map(|h| h.id).collect());
        (0..parts).map(move |k| {
            let part = &members[off[k] as usize..off[k + 1] as usize];
            let part_rows = part.iter().map(|&i| &rows[i as usize]);
            Self::build_from(ds, index.clone(), part_rows)
        })
    }

    /// The shared build: `rows` (a subset of `ds.probes.rows()`, in row
    /// order) plus every transfer of `ds`, over the hosts of `index`. Two
    /// passes over `rows`: the first looks each row's cell up (the only
    /// lookup) and counts its returned probes, which sizes the shared
    /// RTT-sample blob exactly; the second accumulates each row's probes in
    /// slot order, so every cell sees its samples in sample order.
    /// Accumulators are dense per-column [`OnlineStats`] arrays, the
    /// modal-path votes share one arena, and the three transfer columns get
    /// accumulators only when `ds` has transfers, so a build allocates per
    /// column, never per cell.
    fn build_from<'p>(
        ds: &Dataset,
        index: HostIndex,
        rows: impl Iterator<Item = &'p ProbeRow> + Clone,
    ) -> PairTable {
        let n = index.hosts.len();
        let cell = |src: HostId, dst: HostId| index.position(src) * n + index.position(dst);

        // Pass 1: each row's cell, and the returned probes per cell,
        // prefix-summed in place into the blob offsets.
        let mut cells: Vec<u32> = Vec::with_capacity(rows.size_hint().0);
        let mut rtt_off: Vec<u32> = vec![0; n * n + 1];
        let mut probes = 0;
        for r in rows.clone() {
            let c = cell(r.src, r.dst);
            cells.push(c as u32);
            rtt_off[c + 1] += r.returned() as u32;
            probes += r.len();
        }
        detour_obs::current().add("pairtable/probe_visits", 2 * probes as u64);
        for c in 0..n * n {
            rtt_off[c + 1] += rtt_off[c];
        }
        let mut rtt_samples: Vec<f64> = vec![0.0; rtt_off[n * n] as usize];
        let mut cursor: Vec<u32> = rtt_off[..n * n].to_vec();

        // Pass 2: accumulate in sample order, writing each sample straight
        // into its cell's region of the blob, so every Welford summary and
        // sample slice follows sample order within its cell.
        let mut rtt = vec![OnlineStats::new(); n * n];
        let mut loss = vec![OnlineStats::new(); n * n];
        let mut tallies: Vec<Tally> = Vec::new();
        let mut last_tally: Vec<u32> = vec![NIL; n * n];
        for (r, &c) in rows.zip(&cells) {
            let c = c as usize;
            for (rtt_ms, loss_eligible) in r.slots() {
                if let Some(ms) = rtt_ms {
                    rtt[c].push(ms);
                    rtt_samples[cursor[c] as usize] = ms;
                    cursor[c] += 1;
                }
                if loss_eligible {
                    loss[c].push(if rtt_ms.is_none() { 1.0 } else { 0.0 });
                }
            }
            // Each of the row's probes votes for the row's path.
            let votes = r.len() as u32;
            let seen = tally_list(&tallies, last_tally[c]).find(|&k| tallies[k].path == r.path_idx);
            match seen {
                Some(k) => tallies[k].votes += votes,
                None => {
                    tallies.push(Tally {
                        path: r.path_idx,
                        votes,
                        next: last_tally[c],
                    });
                    last_tally[c] = (tallies.len() - 1) as u32;
                }
            }
        }
        debug_assert_eq!(&cursor[..], &rtt_off[1..], "blob regions exactly filled");

        let (mut bw, mut t_rtt, mut t_loss) = (Vec::new(), Vec::new(), Vec::new());
        if !ds.transfers.is_empty() {
            for acc in [&mut bw, &mut t_rtt, &mut t_loss] {
                *acc = vec![OnlineStats::new(); n * n];
            }
            for t in &ds.transfers {
                let c = cell(t.src, t.dst);
                bw[c].push(t.bandwidth_kbps);
                t_rtt[c].push(t.rtt_ms);
                t_loss[c].push(t.loss_rate);
            }
        }

        // A cell counts as measured (an edge of the graph) only when an RTT,
        // loss or bandwidth summary materialized; an unmeasured cell has no
        // summary in any column, and no modal path either.
        let measured = |c: usize| {
            rtt[c].count() > 0 || loss[c].count() > 0 || bw.get(c).is_some_and(|b| b.count() > 0)
        };
        let modal_path = (0..n * n)
            .map(|c| {
                let modal = tally_list(&tallies, last_tally[c])
                    .map(|k| &tallies[k])
                    .max_by_key(|t| (t.votes, std::cmp::Reverse(t.path)));
                modal.filter(|_| measured(c)).map(|t| t.path)
            })
            .collect();
        let column = |acc: &[OnlineStats]| -> Vec<Option<Summary>> {
            if acc.is_empty() {
                vec![None; n * n]
            } else {
                acc.iter().map(OnlineStats::summary).collect()
            }
        };
        PairTable {
            rtt: column(&rtt),
            loss: column(&loss),
            bandwidth: column(&bw),
            transfer_rtt: column(&t_rtt),
            transfer_loss: column(&t_loss),
            modal_path,
            index,
            rtt_off,
            rtt_samples,
        }
    }

    /// Hosts covered, in `Dataset::hosts` order (the table's dense axis).
    pub fn hosts(&self) -> &[HostId] {
        self.index.hosts()
    }

    /// The table's dense host index.
    pub fn index(&self) -> &HostIndex {
        &self.index
    }

    /// Dense index of a host, or `None` when the table does not cover it.
    pub fn host_index(&self, h: HostId) -> Option<usize> {
        self.index.get(h)
    }

    /// Number of hosts (the table is `n × n`).
    pub fn len(&self) -> usize {
        self.hosts().len()
    }

    /// True when the table covers no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts().is_empty()
    }

    fn cell(&self, i: usize, j: usize) -> usize {
        i * self.len() + j
    }

    /// True when the directed pair `(i, j)` has any aggregate.
    pub fn measured(&self, i: usize, j: usize) -> bool {
        let c = self.cell(i, j);
        self.rtt[c].is_some() || self.loss[c].is_some() || self.bandwidth[c].is_some()
    }

    /// Measured directed pairs `(i, j)`, `i != j`, in row-major order.
    pub fn measured_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.len();
        (0..n)
            .flat_map(move |i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && self.measured(i, j))
    }

    /// Number of measured directed pairs.
    pub fn measured_count(&self) -> usize {
        let n = self.len();
        (0..n * n)
            .filter(|&c| {
                self.rtt[c].is_some() || self.loss[c].is_some() || self.bandwidth[c].is_some()
            })
            .count()
    }

    /// RTT summary of the directed pair, by dense indices.
    pub fn rtt(&self, i: usize, j: usize) -> Option<Summary> {
        self.rtt[self.cell(i, j)]
    }

    /// Loss summary (mean = loss rate) of the directed pair.
    pub fn loss(&self, i: usize, j: usize) -> Option<Summary> {
        self.loss[self.cell(i, j)]
    }

    /// Bandwidth summary (kB/s) of the directed pair.
    pub fn bandwidth(&self, i: usize, j: usize) -> Option<Summary> {
        self.bandwidth[self.cell(i, j)]
    }

    /// Mean-RTT-within-transfers summary of the directed pair.
    pub fn transfer_rtt(&self, i: usize, j: usize) -> Option<Summary> {
        self.transfer_rtt[self.cell(i, j)]
    }

    /// Mean-loss-within-transfers summary of the directed pair.
    pub fn transfer_loss(&self, i: usize, j: usize) -> Option<Summary> {
        self.transfer_loss[self.cell(i, j)]
    }

    /// The raw RTT samples behind [`PairTable::rtt`], in probe order.
    pub fn rtt_samples(&self, i: usize, j: usize) -> &[f64] {
        let c = self.cell(i, j);
        &self.rtt_samples[self.rtt_off[c] as usize..self.rtt_off[c + 1] as usize]
    }

    /// Modal AS path of the directed pair, as an index into
    /// `Dataset::as_paths` (`None` when the pair saw no probes).
    pub fn modal_path_idx(&self, i: usize, j: usize) -> Option<u32> {
        self.modal_path[self.cell(i, j)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::record::ProbeSample;

    /// Three hosts: two returned probes and a lost one on 0→1, two on 1→2,
    /// and one transfer on 0→2.
    fn tiny() -> DatasetBuilder {
        let mut b = Dataset::builder("T");
        b.hosts(3)
            .probe(0, 1, 0.0, Some(50.0))
            .probe(0, 1, 1.0, Some(70.0))
            .probe(0, 1, 2.0, None)
            .probe(1, 2, 0.0, Some(30.0))
            .probe(1, 2, 1.0, Some(40.0))
            .transfer(0, 2, 0.0, 90.0, 0.01, 200.0)
            .as_paths(vec![vec![0, 9, 1]])
            .duration(10.0);
        b
    }

    fn tiny_dataset() -> Dataset {
        tiny().build().unwrap()
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let t = PairTable::build(&tiny_dataset());
        assert_eq!(t.len(), 3);
        let rtt = t.rtt(0, 1).expect("0→1 measured");
        assert_eq!(rtt.n, 2);
        assert!((rtt.mean - 60.0).abs() < 1e-12);
        let loss = t.loss(0, 1).expect("loss summary");
        assert_eq!(loss.n, 3);
        assert!((loss.mean - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.rtt_samples(0, 1), &[50.0, 70.0]);
        assert_eq!(t.modal_path_idx(0, 1), Some(0));
    }

    #[test]
    fn transfers_populate_bandwidth_cells() {
        let t = PairTable::build(&tiny_dataset());
        assert!((t.bandwidth(0, 2).unwrap().mean - 200.0).abs() < 1e-12);
        assert!((t.transfer_rtt(0, 2).unwrap().mean - 90.0).abs() < 1e-12);
        assert!(t.rtt(0, 2).is_none(), "no probes on this pair");
        assert_eq!(
            t.modal_path_idx(0, 2),
            None,
            "transfer-only cell has no path"
        );
    }

    #[test]
    fn unmeasured_cells_are_empty() {
        let t = PairTable::build(&tiny_dataset());
        assert!(!t.measured(2, 0));
        assert!(!t.measured(1, 0));
        assert_eq!(t.measured_count(), 3);
        assert!(t.rtt_samples(2, 0).is_empty());
    }

    #[test]
    fn measured_pairs_enumerate_edges_row_major() {
        let t = PairTable::build(&tiny_dataset());
        assert_eq!(
            t.measured_pairs().collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 2)]
        );
        assert_eq!(t.host_index(HostId(2)), Some(2));
        assert_eq!(t.host_index(HostId(9)), None);
    }

    #[test]
    fn restricting_hosts_keeps_surviving_cells_bit_identical() {
        let ds = tiny_dataset();
        let full = PairTable::build(&ds);
        let reduced = PairTable::build(&ds.restrict_to_hosts(&[HostId(0), HostId(2)]));
        assert_eq!(reduced.hosts(), &[HostId(0), HostId(2)]);
        assert_eq!(reduced.measured_pairs().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(reduced.bandwidth(0, 1), full.bandwidth(0, 2));
        assert_eq!(reduced.transfer_rtt(0, 1), full.transfer_rtt(0, 2));
    }

    #[test]
    fn loss_ineligible_probes_do_not_count_losses() {
        let ds = tiny()
            .probe_with(0, 1, 3.0, Some(55.0), |p| p.loss_eligible = false)
            .build()
            .unwrap();
        let t = PairTable::build(&ds);
        assert_eq!(
            t.loss(0, 1).unwrap().n,
            3,
            "ineligible probe excluded from loss"
        );
        assert_eq!(t.rtt(0, 1).unwrap().n, 3, "but included in RTT");
    }

    #[test]
    fn host_ids_of_any_value_index_by_position() {
        // The index grows with the host count, not with the largest id: a
        // host named `u32::MAX` sits beside small ids.
        const BIG: u32 = u32::MAX;
        let ds = Dataset::builder("T")
            .host(0)
            .host(1)
            .host(BIG)
            .probe(1, BIG, 0.0, Some(30.0))
            .probe(1, BIG, 1.0, Some(40.0))
            .transfer(0, BIG, 0.0, 90.0, 0.01, 200.0)
            .build()
            .unwrap();
        let t = PairTable::build(&ds);
        assert_eq!(t.host_index(HostId(BIG)), Some(2));
        assert_eq!(t.host_index(HostId(2)), None);
        assert_eq!(t.rtt_samples(1, 2), &[30.0, 40.0]);
        assert!((t.bandwidth(0, 2).unwrap().mean - 200.0).abs() < 1e-12);
    }

    /// A random dataset: up to six hosts with arbitrary ids, invocations of
    /// one to three probes between two different hosts, each keyed to one
    /// of `parts` parts through its `episode` or to none, and a few
    /// transfers.
    fn random_dataset(rng: &mut detour_prng::Xoshiro256pp, parts: u32) -> Dataset {
        use detour_prng::Rng;
        let n = rng.gen_range(1..=6usize);
        let mut ids: Vec<u32> = (0..n)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => u32::MAX - rng.gen_range(0..3u32),
                _ => rng.gen_range(0..20u32),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut b = Dataset::builder("R");
        for &id in &ids {
            b.host(id);
        }
        b.as_paths(vec![vec![1], vec![2], vec![3]]).duration(100.0);
        if ids.len() < 2 {
            return b.build().unwrap();
        }
        let pair = |rng: &mut detour_prng::Xoshiro256pp| {
            let s = rng.gen_range(0..ids.len());
            let d = (s + rng.gen_range(1..ids.len())) % ids.len();
            (ids[s], ids[d])
        };
        for k in 0..rng.gen_range(0..40usize) {
            let (s, d) = pair(rng);
            let episode = rng.gen_bool(0.8).then(|| rng.gen_range(0..parts));
            let path_idx = rng.gen_range(0..3u32);
            for index in 0..rng.gen_range(1..=3u8) {
                let rtt = rng.gen_bool(0.8).then(|| rng.gen_range(1.0..200.0));
                b.probe_with(s, d, k as f64, rtt, |p| {
                    p.probe_index = index;
                    p.loss_eligible = rng.gen_bool(0.9);
                    p.episode = episode;
                    p.path_idx = path_idx;
                });
            }
        }
        for k in 0..rng.gen_range(0..6usize) {
            let (s, d) = pair(rng);
            let (rtt, loss, bw) = (
                rng.gen_range(1.0..200.0),
                rng.gen_range(0.0..0.1),
                rng.gen_range(1.0..500.0),
            );
            b.transfer(s, d, k as f64, rtt, loss, bw);
        }
        b.build().unwrap()
    }

    #[test]
    fn partitioned_build_equals_per_part_datasets() {
        detour_prng::check::check("partitioned pair tables", |rng| {
            use detour_prng::Rng;
            let parts = rng.gen_range(1..5u32);
            let ds = random_dataset(rng, parts);
            let full = PairTable::build(&ds);
            let tables: Vec<PairTable> = PairTable::build_partitioned(&ds, parts as usize, |r| {
                r.episode().map(|e| e as usize)
            })
            .collect();
            assert_eq!(tables.len(), parts as usize);
            for (k, table) in tables.iter().enumerate() {
                let mut only = ds.clone();
                only.probes = ds
                    .probes
                    .iter()
                    .filter(|p| p.episode == Some(k as u32))
                    .collect();
                assert_eq!(table, &PairTable::build(&only), "part {k}");
            }
            // The parts cover every keyed probe exactly once, cell by cell.
            let n = full.len();
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let unkeyed = ds
                    .probes
                    .iter()
                    .filter(|p| p.episode.is_none() && p.rtt_ms.is_some())
                    .filter(|p| {
                        full.host_index(p.src) == Some(i) && full.host_index(p.dst) == Some(j)
                    })
                    .count();
                let parts_sum: usize = tables.iter().map(|t| t.rtt_samples(i, j).len()).sum();
                assert_eq!(
                    parts_sum + unkeyed,
                    full.rtt_samples(i, j).len(),
                    "cell ({i}, {j})"
                );
            }
        });
    }

    /// A summary's fields as bits, so that equality is bit for bit.
    type SummaryBits = Option<(u64, [u64; 4])>;

    fn summary_bits(s: Option<Summary>) -> SummaryBits {
        s.map(|s| {
            let f = [s.mean, s.variance, s.min, s.max].map(f64::to_bits);
            (s.n, f)
        })
    }

    /// One cell of a table, every column as bits: RTT, loss, bandwidth,
    /// transfer RTT and transfer loss summaries, modal path, RTT samples.
    type CellBits = ([SummaryBits; 5], Option<u32>, Vec<u64>);

    fn table_bits(t: &PairTable) -> Vec<CellBits> {
        let n = t.len();
        (0..n * n)
            .map(|c| {
                let (i, j) = (c / n, c % n);
                let columns = [
                    t.rtt(i, j),
                    t.loss(i, j),
                    t.bandwidth(i, j),
                    t.transfer_rtt(i, j),
                    t.transfer_loss(i, j),
                ];
                (
                    columns.map(summary_bits),
                    t.modal_path_idx(i, j),
                    t.rtt_samples(i, j).iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// The table of `probes` (a subset of `ds.probes`, in sample order)
    /// plus every transfer of `ds`, built the obvious way: per cell, filter
    /// the records, push each statistic, and count the modal path in a
    /// `HashMap`.
    fn naive_table_bits(ds: &Dataset, probes: &[ProbeSample]) -> Vec<CellBits> {
        let hosts: Vec<HostId> = ds.hosts.iter().map(|h| h.id).collect();
        let stats = |xs: &mut dyn Iterator<Item = f64>| {
            let mut acc = OnlineStats::new();
            xs.for_each(|x| acc.push(x));
            acc.summary()
        };
        let mut out = Vec::new();
        for &src in &hosts {
            for &dst in &hosts {
                let here: Vec<&ProbeSample> = probes
                    .iter()
                    .filter(|p| (p.src, p.dst) == (src, dst))
                    .collect();
                let moved: Vec<_> = ds
                    .transfers
                    .iter()
                    .filter(|t| (t.src, t.dst) == (src, dst))
                    .collect();
                let samples: Vec<f64> = here.iter().filter_map(|p| p.rtt_ms).collect();
                let columns = [
                    stats(&mut samples.iter().copied()),
                    stats(&mut here.iter().filter(|p| p.loss_eligible).map(|p| {
                        if p.lost() {
                            1.0
                        } else {
                            0.0
                        }
                    })),
                    stats(&mut moved.iter().map(|t| t.bandwidth_kbps)),
                    stats(&mut moved.iter().map(|t| t.rtt_ms)),
                    stats(&mut moved.iter().map(|t| t.loss_rate)),
                ];
                let measured = columns[..3].iter().any(Option::is_some);
                let mut votes: std::collections::HashMap<u32, u32> = Default::default();
                for p in &here {
                    *votes.entry(p.path_idx).or_default() += 1;
                }
                let modal = votes
                    .into_iter()
                    .max_by_key(|&(path, n)| (n, std::cmp::Reverse(path)))
                    .map(|(path, _)| path)
                    .filter(|_| measured);
                out.push((
                    columns.map(summary_bits),
                    modal,
                    samples.iter().map(|x| x.to_bits()).collect(),
                ));
            }
        }
        out
    }

    #[test]
    fn builds_equal_a_naive_per_cell_build_bit_for_bit() {
        use detour_prng::Rng;
        use std::cell::Cell;
        // How often each shape the build must get right came up.
        let seen = [(); 6].map(|_| Cell::new(0u32));
        let [sparse_ids, ineligible, ties, transfer_only, empty_part, no_transfers] = &seen;
        let bump = |c: &Cell<u32>, hit: bool| c.set(c.get() + u32::from(hit));
        detour_prng::check::check("naive pair tables", |rng| {
            let parts = rng.gen_range(1..5u32);
            let ds = random_dataset(rng, parts);
            let all: Vec<ProbeSample> = ds.probes.iter().collect();
            let full = PairTable::build(&ds);
            assert_eq!(
                table_bits(&full),
                naive_table_bits(&ds, &all),
                "whole dataset"
            );
            for (k, table) in PairTable::build_partitioned(&ds, parts as usize, |r| {
                r.episode().map(|e| e as usize)
            })
            .enumerate()
            {
                let only: Vec<ProbeSample> = all
                    .iter()
                    .copied()
                    .filter(|p| p.episode == Some(k as u32))
                    .collect();
                assert_eq!(table_bits(&table), naive_table_bits(&ds, &only), "part {k}");
                bump(empty_part, only.is_empty());
            }

            let n = full.len();
            bump(sparse_ids, ds.hosts.iter().any(|h| h.id.0 as usize >= n));
            bump(ineligible, ds.probes.iter().any(|p| !p.loss_eligible));
            bump(no_transfers, ds.transfers.is_empty());
            bump(
                transfer_only,
                ds.transfers
                    .iter()
                    .any(|t| !ds.probes.iter().any(|p| (p.src, p.dst) == (t.src, t.dst))),
            );
            let tied = full.measured_pairs().any(|(i, j)| {
                let mut votes = [0u32; 3];
                for p in &ds.probes {
                    if (full.host_index(p.src), full.host_index(p.dst)) == (Some(i), Some(j)) {
                        votes[p.path_idx as usize] += 1;
                    }
                }
                let top = *votes.iter().max().unwrap();
                top > 0 && votes.iter().filter(|&&v| v == top).count() > 1
            });
            bump(ties, tied);
        });
        for (name, c) in [
            "sparse ids",
            "ineligible",
            "ties",
            "transfer-only",
            "empty part",
            "no transfers",
        ]
        .iter()
        .zip(&seen)
        {
            assert!(c.get() > 0, "no case had {name}");
        }
    }

    #[test]
    fn partitioned_build_reads_each_probe_three_times() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let ds = Dataset::builder("T")
            .hosts(3)
            .probe_with(0, 1, 0.0, Some(50.0), |p| p.episode = Some(1))
            .probe(0, 1, 1.0, Some(70.0))
            .probe(0, 1, 2.0, None)
            .probe_with(1, 2, 0.0, Some(30.0), |p| p.episode = Some(0))
            .probe(1, 2, 1.0, Some(40.0))
            .build()
            .unwrap();
        let tables: Vec<PairTable> =
            PairTable::build_partitioned(&ds, 2, |r| r.episode().map(|e| e as usize)).collect();
        // One keying pass over all five probes, then two passes over each
        // part's one probe.
        assert_eq!(rec.counter("pairtable/probe_visits"), 5 + 2 * 2);
        assert_eq!(tables[0].rtt_samples(1, 2), &[30.0]);
        assert_eq!(tables[1].rtt_samples(0, 1), &[50.0]);
        assert!(tables[1].rtt(1, 2).is_none());
    }

    #[test]
    fn equality_is_columnwise() {
        let ds = tiny_dataset();
        assert_eq!(PairTable::build(&ds), PairTable::build(&ds));
        let mut other = ds.clone();
        other.probes = ds
            .probes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if i == 0 {
                    ProbeSample {
                        rtt_ms: Some(51.0),
                        ..p
                    }
                } else {
                    p
                }
            })
            .collect();
        assert_ne!(PairTable::build(&ds), PairTable::build(&other));
    }

    #[test]
    fn modal_path_prefers_most_voted_then_lowest_index() {
        // Equal votes for path 0 and 1 on pair 1→2: lowest index wins.
        let ds = Dataset::builder("T")
            .hosts(3)
            .as_paths(vec![vec![1], vec![2]])
            .probe_with(1, 2, 0.0, Some(10.0), |p| p.path_idx = 1)
            .probe(1, 2, 1.0, Some(10.0))
            .build()
            .unwrap();
        let t = PairTable::build(&ds);
        assert_eq!(t.modal_path_idx(1, 2), Some(0));
    }
}
