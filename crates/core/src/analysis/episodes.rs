//! Long-term averaging vs. simultaneous measurement (Figure 11).
//!
//! §6.4: UW4-A measures all pairs "simultaneously" in episodes; UW4-B is an
//! independent long-term-average trace over the same hosts. Figure 11
//! compares three curves:
//!
//! * **UW4-B** — the ordinary time-averaged improvement CDF;
//! * **pair-averaged UW4-A** — per episode, compute each pair's best
//!   alternate *within that episode*, then average each pair's improvements
//!   across episodes (one point per pair);
//! * **unaveraged UW4-A** — one point per pair per episode, exposing the
//!   "huge amount of variability in the performance of the best alternate
//!   paths".

use crate::altpath::SearchDepth;
use crate::analysis::cdf::{compare_all_pairs, compare_graph, improvement_cdf};
use crate::context::AnalysisContext;
use crate::metric::MetricKind;
use detour_measure::{Dataset, PairTable, ProbeRow};
use detour_stats::Cdf;

/// The three Figure-11 curves.
#[derive(Debug, Clone)]
pub struct EpisodeAnalysis {
    /// Time-averaged CDF from the companion dataset (UW4-B).
    pub time_averaged: Cdf,
    /// Pair-averaged episode CDF (one point per pair).
    pub pair_averaged: Cdf,
    /// Unaveraged episode CDF (one point per pair per episode).
    pub unaveraged: Cdf,
    /// Episodes analyzed.
    pub episodes: usize,
}

/// Distinct episode indices in a dataset, ascending. Invocations arrive
/// in episode runs, so each run contributes one id before the sort.
pub fn episode_ids(ds: &Dataset) -> Vec<u32> {
    let mut ids: Vec<u32> = ds
        .probes
        .rows()
        .chunk_by(|a, b| a.episode() == b.episode())
        .filter_map(|run| run[0].episode())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// An invocation's slot in `ids` (ascending, from [`episode_ids`]). The
/// last episode's slot is remembered, so the search runs only when the
/// episode changes.
fn episode_slot(ids: &[u32]) -> impl FnMut(&ProbeRow) -> Option<usize> + '_ {
    let mut last = None;
    move |r| {
        let e = r.episode()?;
        if last.map(|(was, _)| was) != Some(e) {
            last = Some((e, ids.binary_search(&e).ok()?));
        }
        last.map(|(_, slot)| slot)
    }
}

/// Runs the Figure-11 analysis: `episodic` must be the UW4-A-style
/// context, `averaged` the UW4-B-style companion.
pub fn analyze(
    episodic: &AnalysisContext,
    averaged: &AnalysisContext,
    metric: &MetricKind,
) -> EpisodeAnalysis {
    // Curve 1: plain time-averaged comparison on UW4-B (cached matrix).
    let time_averaged = improvement_cdf(&compare_all_pairs(
        averaged,
        metric,
        SearchDepth::Unrestricted,
    ));

    // Curves 2 and 3: per-episode best alternates on UW4-A. Episode
    // slices are ad-hoc tables, deliberately outside the artifact cache;
    // one partitioned build splits the probes by episode, and each
    // episode's table is dropped once compared, so one is alive at a time.
    let ds = episodic.dataset();
    let ids = episode_ids(ds);
    let n = episodic.table().len();
    // Each pair's improvements, in episode order, per `i * n + j` cell.
    let mut per_pair: Vec<Vec<f64>> = vec![Vec::new(); n * n];
    for t in PairTable::build_partitioned(ds, ids.len(), episode_slot(&ids)) {
        for cmp in compare_graph(&t, metric, SearchDepth::Unrestricted) {
            let i = t.host_index(cmp.pair.src).expect("pair host");
            let j = t.host_index(cmp.pair.dst).expect("pair host");
            per_pair[i * n + j].push(cmp.improvement());
        }
    }
    let unaveraged = Cdf::from_samples(per_pair.iter().flatten().copied());
    let pair_averaged = Cdf::from_samples(
        per_pair
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64),
    );
    EpisodeAnalysis {
        time_averaged,
        pair_averaged,
        unaveraged,
        episodes: ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;

    /// Builds an episodic dataset over a triangle whose detour quality
    /// swings episode to episode, plus a matching averaged dataset.
    fn swing_datasets() -> (Dataset, Dataset) {
        let (mut episodic, mut averaged) = (Dataset::builder("E"), Dataset::builder("E"));
        episodic.hosts(3).duration(40_000.0);
        averaged.hosts(3).duration(40_000.0);
        for ep in 0..40u32 {
            // Direct 0→2 is 100 ms. The detour swings: even episodes 40 ms
            // total, odd episodes 160 ms total.
            let leg = if ep % 2 == 0 { 20.0 } else { 80.0 };
            for (s, d, rtt) in [(0, 2, 100.0), (0, 1, leg), (1, 2, leg)] {
                let t = ep as f64 * 1000.0;
                episodic.probe_with(s, d, t, Some(rtt), |p| p.episode = Some(ep));
                averaged.probe(s, d, ep as f64 * 997.0, Some(rtt));
            }
        }
        (episodic.build().unwrap(), averaged.build().unwrap())
    }

    #[test]
    fn episode_ids_are_sorted_unique() {
        let (episodic, _) = swing_datasets();
        let ids = episode_ids(&episodic);
        assert_eq!(ids.len(), 40);
        assert_eq!(ids[0], 0);
        assert_eq!(*ids.last().unwrap(), 39);
    }

    #[test]
    fn interleaved_episodes_find_their_own_slots() {
        // Episodes 3, 1, 3, 2: a slot cached from the first 3 must not
        // answer for the 1, nor the 1's for the second 3.
        let mut b = Dataset::builder("E");
        b.hosts(2).duration(1_000.0);
        for (i, ep) in [3u32, 3, 1, 3, 2, 2].into_iter().enumerate() {
            b.probe_with(0, 1, i as f64, Some(10.0), |p| p.episode = Some(ep));
        }
        b.probe(0, 1, 9.0, Some(10.0));
        let ds = b.build().unwrap();
        let ids = episode_ids(&ds);
        assert_eq!(ids, [1, 2, 3]);
        let slots: Vec<Option<usize>> = ds.probes.rows().iter().map(episode_slot(&ids)).collect();
        assert_eq!(
            slots,
            [Some(2), Some(2), Some(0), Some(2), Some(1), Some(1), None]
        );
    }

    #[test]
    fn unaveraged_tail_is_broader_than_pair_averaged() {
        // The defining feature of Figure 11: episode-level points swing
        // between +60 and −60 while the pair average sits near 0.
        let (episodic, averaged) = swing_datasets();
        let a = analyze(
            &AnalysisContext::from_dataset(&episodic),
            &AnalysisContext::from_dataset(&averaged),
            &Rtt,
        );
        assert_eq!(a.episodes, 40);
        let un = &a.unaveraged;
        let pa = &a.pair_averaged;
        assert!(un.inverse(0.99).unwrap() > pa.inverse(0.99).unwrap() + 20.0);
        assert!(un.inverse(0.01).unwrap() < pa.inverse(0.01).unwrap() - 20.0);
    }

    #[test]
    fn pair_average_matches_time_average_for_stable_paths() {
        let (episodic, averaged) = swing_datasets();
        let a = analyze(
            &AnalysisContext::from_dataset(&episodic),
            &AnalysisContext::from_dataset(&averaged),
            &Rtt,
        );
        // Episode improvements alternate +60/−60 (mean 0), and the
        // time-averaged detour costs (20+80)/2 × 2 = 100 = the default —
        // so both averaging routes must land near zero.
        let pa_med = a.pair_averaged.inverse(0.5).unwrap();
        let ta_med = a.time_averaged.inverse(0.5).unwrap();
        assert!((pa_med - 0.0).abs() < 5.0, "pair-averaged median {pa_med}");
        assert!((ta_med - 0.0).abs() < 5.0, "time-averaged median {ta_med}");
    }

    #[test]
    fn unaveraged_has_one_point_per_pair_episode() {
        let (episodic, averaged) = swing_datasets();
        let a = analyze(
            &AnalysisContext::from_dataset(&episodic),
            &AnalysisContext::from_dataset(&averaged),
            &Rtt,
        );
        // Only pair (0,2) has an alternate; 40 episodes → 40 points.
        assert_eq!(a.unaveraged.len(), 40);
        assert_eq!(a.pair_averaged.len(), 1);
    }

    #[test]
    fn episode_tables_read_the_probes_a_constant_number_of_times() {
        // 40 episodes of 3 probes: a build per episode over the whole
        // dataset would read 2 × 120 × 40 = 9,600 probes; the partitioned
        // build reads each probe at least once and at most four times.
        let (episodic, averaged) = swing_datasets();
        let (episodic, averaged) = (
            AnalysisContext::from_dataset(&episodic),
            AnalysisContext::from_dataset(&averaged),
        );
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        analyze(&episodic, &averaged, &Rtt);
        let visits = rec.counter("pairtable/probe_visits");
        assert!(
            (120..=4 * 120).contains(&visits),
            "{visits} probe visits for 120 probes"
        );
    }
}
