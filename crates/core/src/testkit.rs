//! Shared unit-test fixtures.

use crate::kernel::WeightMatrix;
use crate::metric::{Loss, MetricKind, Rtt};
use detour_measure::{Dataset, PairTable};
use detour_prng::Xoshiro256pp;

#[path = "../tests/support/random_graphs.rs"]
mod random_graphs;
pub(crate) use random_graphs::GraphKind;

/// A dataset whose mean RTTs are exactly `matrix` (row = source, column =
/// destination, `NaN` = unmeasured, the diagonal ignored), with `reps`
/// identical probes per edge at `t = 0, 1, …`. Host ids equal the dense
/// row indices.
pub(crate) fn rtt_matrix_dataset(matrix: &[&[f64]], reps: usize) -> Dataset {
    let mut b = Dataset::builder("T");
    b.hosts(matrix.len() as u32);
    for (i, row) in matrix.iter().enumerate() {
        for (j, &rtt) in row.iter().enumerate() {
            if i == j || rtt.is_nan() {
                continue;
            }
            for k in 0..reps {
                b.probe(i as u32, j as u32, k as f64, Some(rtt));
            }
        }
    }
    b.build().expect("a finite positive RTT matrix")
}

/// A random sparse graph of `kind` as a dataset, and the metric it is
/// weighed by: loss for lossy graphs, RTT otherwise.
pub(crate) fn random_dataset(rng: &mut Xoshiro256pp, kind: GraphKind) -> (Dataset, MetricKind) {
    let ds = random_graphs::random_graph(rng, kind).build().unwrap();
    (ds, if kind == GraphKind::Lossy { Loss } else { Rtt })
}

/// [`random_dataset`]'s weight matrix.
pub(crate) fn random_matrix(rng: &mut Xoshiro256pp, kind: GraphKind) -> WeightMatrix {
    let (ds, metric) = random_dataset(rng, kind);
    WeightMatrix::build(&PairTable::build(&ds), &metric)
}
