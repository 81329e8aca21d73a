//! Shared unit-test fixtures.

use crate::kernel::WeightMatrix;
use crate::metric::{Loss, Rtt};
use detour_measure::{Dataset, PairTable};
use detour_prng::{Rng, Xoshiro256pp};

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

/// A random sparse matrix of one of the three graph kinds a ban must
/// re-settle exactly on: whole-ms RTTs, where equal-cost paths are common
/// (`kind` 0); loss rates 0, 0.25 and 0.5, whose lossless edges weigh
/// exactly zero (1); and RTTs of 1e-300 ms beside multiples of 1e4 ms,
/// which a large distance absorbs (2).
pub(crate) fn random_matrix(rng: &mut Xoshiro256pp, kind: usize) -> WeightMatrix {
    let n = rng.gen_range(4..9usize);
    let missing = rng.gen_range(0.1..0.5f64);
    let mut b = Dataset::builder("K");
    b.hosts(n as u32);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i == j || rng.gen_bool(missing) {
                continue;
            }
            if kind == 1 {
                let lost = rng.gen_range(0..3usize);
                for k in 0..4 {
                    b.probe(i, j, k as f64, (k >= lost).then_some(50.0));
                }
                continue;
            }
            let rtt = match kind {
                0 => rng.gen_range(1.0..100.0f64).round(),
                _ if rng.gen_bool(0.4) => 1e-300,
                _ => 1e4 * rng.gen_range(1.0..10.0f64).round(),
            };
            b.probe(i, j, 0.0, Some(rtt)).probe(i, j, 1.0, Some(rtt));
        }
    }
    let metric = if kind == 1 { Loss } else { Rtt };
    WeightMatrix::build(&PairTable::build(&b.build().unwrap()), &metric)
}
