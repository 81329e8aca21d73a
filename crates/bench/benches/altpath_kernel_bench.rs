//! The flat weight-matrix kernel on a UW3-sized graph.
//!
//! Absolute timings of the analysis kernel's entry points:
//!
//! * the all-pairs unrestricted sweep, with and without the matrix build;
//! * the one-hop sweep on a prebuilt matrix;
//! * the Figure-12 greedy host removal over masked matrix views.
//!
//! JSON lines go wherever `DETOUR_BENCH_JSON` points, via the in-tree
//! harness.

use detour_bench::Bench;
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

    // A fresh context per iteration keeps the matrix build inside the
    // timing, as it is in a cold Figure-12 run.
    b.bench("fig12/masked_kernel_greedy", || {
        greedy_removal(&AnalysisContext::from_dataset(&ds), &Rtt, 3)
            .removed
            .len()
    });

    eprint!("{}", b.finish());
}
