//! Flat weight-matrix kernel vs. the pre-change edge-walk search, on a
//! UW3-sized graph.
//!
//! Three comparisons, all producing identical results (the reference module
//! and the kernel property tests pin that down), so the numbers are pure
//! cost:
//!
//! * the all-pairs unrestricted sweep — matrix build + scratch-reusing
//!   kernel against per-pair edge-walk Dijkstra with fresh allocations;
//! * the one-hop sweep the same way;
//! * the Figure-12 greedy host removal — masked matrix views against a
//!   pair-table rebuild per candidate.
//!
//! JSON lines go wherever `DETOUR_BENCH_JSON` points, via the in-tree
//! harness.

use detour_bench::{reference, Bench};
use detour_core::analysis::cdf::compare_graph;
use detour_core::analysis::hostremoval::greedy_removal;
use detour_core::{kernel, AnalysisContext, Rtt, SearchDepth, WeightMatrix};
use detour_datasets::{DatasetId, Scale};
use detour_measure::PairTable;

fn main() {
    let mut b = Bench::new();
    b.sample_size(10);

    let ds = DatasetId::Uw3.generate(Scale::reduced(14, 16));
    let g = PairTable::build(&ds);

    b.bench("altpath/edge_walk_sweep", || {
        reference::edge_walk_sweep(&g, &Rtt).len()
    });
    b.bench("altpath/kernel_sweep", || {
        compare_graph(&g, &Rtt, SearchDepth::Unrestricted).len()
    });
    // The matrix amortizes over reuse; also show the sweep cost alone on a
    // prebuilt matrix, which is what the greedy loop and sensitivity pay.
    let m = WeightMatrix::build(&g, &Rtt);
    let mask = m.no_mask();
    b.bench("altpath/kernel_sweep_prebuilt_matrix", || {
        kernel::sweep(&m, &mask, &Rtt, SearchDepth::Unrestricted).len()
    });
    b.bench("altpath/kernel_sweep_one_hop", || {
        kernel::sweep(&m, &mask, &Rtt, SearchDepth::OneHop).len()
    });

    b.bench("fig12/clone_rebuild_greedy", || {
        reference::clone_rebuild_greedy(&ds, &Rtt, 3).removed.len()
    });
    // A fresh context per iteration keeps the timing honest: the greedy
    // loop's matrix build is part of what the clone-rebuild loop pays too.
    let ds2 = ds.clone();
    b.bench("fig12/masked_kernel_greedy", || {
        greedy_removal(&AnalysisContext::from_dataset(&ds2), &Rtt, 3)
            .removed
            .len()
    });

    eprint!("{}", b.finish());
}
