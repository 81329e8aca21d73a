//! Greedy "top ten" host removal (Figure 12).
//!
//! §7.1: "Figure 12 shows the effect of removing the ten hosts which have
//! the greatest impact on the CDF curve. We use a simple greedy algorithm
//! to select the hosts; at each step we remove the host whose removal
//! shifts the CDF the farthest to the left." If a handful of hosts caused
//! the superior alternates, the remaining curve would collapse; the paper
//! finds it barely moves.

use crate::altpath::PathComparison;
use crate::analysis::cdf::improvement_cdf;
use crate::context::AnalysisContext;
use crate::kernel::{self, DijkstraScratch, Tree, WeightMatrix};
use crate::metric::MetricKind;
use crate::pool;
use detour_measure::HostId;
use detour_stats::Cdf;

/// Result of the greedy removal experiment.
#[derive(Debug, Clone)]
pub struct RemovalAnalysis {
    /// Improvement CDF on the full graph.
    pub full: Cdf,
    /// The hosts removed, in removal order.
    pub removed: Vec<HostId>,
    /// Improvement CDF after all removals.
    pub reduced: Cdf,
}

/// The comparisons `current` holds for pairs whose recorded best path runs
/// through host `h`, re-answered once `h` joins the hosts `current` and
/// `trees` were computed without: `(position in current, new answer)`, in
/// `current`'s order. `current` is `(src, dst)`-sorted, so each affected
/// source re-settles its kept tree once ([`kernel::best_alternates_without`]).
fn reroute_through(
    m: &WeightMatrix,
    trees: &[Tree],
    current: &[PathComparison],
    h: usize,
    scratch: &mut DijkstraScratch,
) -> Vec<(usize, Option<PathComparison>)> {
    let hid = m.hosts()[h];
    let index = |id: HostId| m.host_index(id).expect("pair host");
    let (at, pairs): (Vec<usize>, Vec<(usize, usize)>) = current
        .iter()
        .enumerate()
        .filter(|(_, c)| c.via.contains(&hid))
        .map(|(k, c)| (k, (index(c.pair.src), index(c.pair.dst))))
        .unzip();
    let answers = kernel::best_alternates_without(m, trees, h, &pairs, scratch);
    at.into_iter().zip(answers).collect()
}

/// The comparisons once `h` is removed too, derived from `current`
/// (the comparisons without it) and `rerouted` ([`reroute_through`]'s
/// answers): pairs touching `h` drop out, re-routed pairs take their new
/// answer (or drop out when they lost every alternate), and every other
/// pair keeps its comparison — its recorded best path avoids `h`, so it is
/// still available and nothing got cheaper. The order is `current`'s.
fn without_host<'a>(
    current: &'a [PathComparison],
    hid: HostId,
    rerouted: &'a [(usize, Option<PathComparison>)],
) -> impl Iterator<Item = &'a PathComparison> + 'a {
    let mut rerouted = rerouted.iter().peekable();
    current.iter().enumerate().filter_map(move |(k, c)| {
        if c.pair.src == hid || c.pair.dst == hid {
            return None;
        }
        match rerouted.next_if(|(at, _)| *at == k) {
            Some((_, answer)) => answer.as_ref(),
            None => Some(c),
        }
    })
}

/// The greedy objective for one candidate: the mean improvement with host
/// `h` removed — how far "left" the CDF would sit — over the view
/// [`without_host`] derives, summed in pair order like the mean of a full
/// sweep of the table rebuilt without it, and therefore identical to it
/// bit for bit.
fn position_without(
    m: &WeightMatrix,
    trees: &[Tree],
    current: &[PathComparison],
    h: usize,
    scratch: &mut DijkstraScratch,
) -> f64 {
    let rerouted = reroute_through(m, trees, current, h, scratch);
    let mut sum = 0.0;
    let mut count = 0usize;
    for c in without_host(current, m.hosts()[h], &rerouted) {
        sum += c.improvement();
        count += 1;
    }
    if count == 0 {
        return f64::NEG_INFINITY;
    }
    sum / count as f64
}

/// Runs the greedy experiment, removing `k` hosts.
///
/// The matrix comes from the context's artifact cache, and no table is
/// rebuilt without a candidate: a removed host is a vertex ban on kept
/// SSSP trees, value-identical to a table rebuilt without it (relative
/// vertex order is preserved, so every tie-break matches), which the
/// kernel tests pin down.
///
/// Only the first view is a full [`kernel::sweep`], and it keeps every
/// source's SSSP tree. Removing `h` can only affect pairs whose best
/// alternate routes through `h`, so a candidate is scored on the previous
/// view with just those pairs re-answered (`position_without`), from each
/// affected source's tree re-settled without `h`; and the winner's
/// re-answered view *is* the next view, so no sweep follows a removal —
/// the kept trees re-settle without the winner instead. Even weight-tied
/// alternates keep the reuse exact for the in-tree metrics: a tied path
/// composes to the very sum the relaxation accumulated, so equal
/// weight-space optima mean equal composed bits. The kernel property
/// tests check, for RTT and loss, that the loop removes the hosts a sweep
/// of a rebuilt table per candidate would, and that its last view equals
/// the sweep of the table rebuilt without every removed host.
pub fn greedy_removal(cx: &AnalysisContext, metric: &MetricKind, k: usize) -> RemovalAnalysis {
    greedy_removal_on(cx.weights(metric), k).0
}

/// [`greedy_removal`] on a matrix, also returning the comparisons after
/// the last removal — the view the reduced CDF is built from.
pub fn greedy_removal_on(m: &WeightMatrix, k: usize) -> (RemovalAnalysis, Vec<PathComparison>) {
    let (mut current, mut trees) = kernel::sweep_with_trees(m);
    let full = improvement_cdf(&current);
    let mut removed = Vec::new();
    let mut scratch = DijkstraScratch::default();
    let rounds = k.min(m.len().saturating_sub(3));
    for round in 0..rounds {
        // Candidates fan out over the pool (each worker reuses one
        // scratch); the argmin below runs on the in-order results, so the
        // pick is identical at any thread count.
        let candidates: Vec<usize> = (0..m.len())
            .filter(|&h| !removed.contains(&m.hosts()[h]))
            .collect();
        let positions = pool::parallel_map_init(&candidates, DijkstraScratch::default, {
            let (m, trees, current) = (m, &trees, &current);
            move |scratch, &h| position_without(m, trees, current, h, scratch)
        });
        let mut best: Option<(f64, usize)> = None;
        for (&h, &pos) in candidates.iter().zip(&positions) {
            let better =
                best.is_none_or(|(b, bh)| pos < b || (pos == b && m.hosts()[h] < m.hosts()[bh]));
            if better {
                best = Some((pos, h));
            }
        }
        let Some((_, h)) = best else { break };
        removed.push(m.hosts()[h]);
        let rerouted = reroute_through(m, &trees, &current, h, &mut scratch);
        current = without_host(&current, m.hosts()[h], &rerouted)
            .cloned()
            .collect();
        if round + 1 < rounds {
            kernel::drop_host(m, &mut trees, h, &mut scratch);
        }
    }
    let reduced = improvement_cdf(&current);
    let analysis = RemovalAnalysis {
        full,
        removed,
        reduced,
    };
    (analysis, current)
}

/// The figure's verdict quantified: fraction of pairs with a superior
/// alternate before vs. after removal.
pub fn improved_fractions(a: &RemovalAnalysis) -> (f64, f64) {
    (a.full.fraction_above(0.0), a.reduced.fraction_above(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::{Dataset, HostId};

    /// A dataset where host `magic` is the sole source of all improvements:
    /// every other pair is direct-optimal, but routing through `magic`
    /// halves every RTT.
    fn magic_host_dataset(n: usize) -> Dataset {
        // Legs to/from the magic host are cheap; everyone else has slow
        // direct paths.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| if s == 0 || d == 0 { 20.0 } else { 100.0 })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        rtt_matrix_dataset(&refs, 3)
    }

    #[test]
    fn greedy_finds_the_magic_host_first() {
        let cx = AnalysisContext::from_dataset(&magic_host_dataset(6));
        let a = greedy_removal(&cx, &Rtt, 1);
        assert_eq!(a.removed, vec![HostId(0)]);
        let (before, after) = improved_fractions(&a);
        assert!(before > 0.5, "magic host creates improvements: {before}");
        assert!(after < 0.05, "removing it collapses the curve: {after}");
    }

    #[test]
    fn removal_count_is_capped() {
        let cx = AnalysisContext::from_dataset(&magic_host_dataset(5));
        let a = greedy_removal(&cx, &Rtt, 100);
        // Must keep at least 3 hosts (a pair plus one possible detour).
        assert!(a.removed.len() <= 2);
    }

    #[test]
    fn removal_is_deterministic() {
        let cx = AnalysisContext::from_dataset(&magic_host_dataset(6));
        let a = greedy_removal(&cx, &Rtt, 3);
        let b = greedy_removal(&cx, &Rtt, 3);
        assert_eq!(a.removed, b.removed);
    }
}
