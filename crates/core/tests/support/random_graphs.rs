//! Random sparse graphs in the three kinds a ban must re-settle exactly
//! on, shared by every kernel test: detour-core's unit tests, its
//! `kernel_properties` suite and the workspace's `batched_kernel` suite
//! each include this file by `#[path]`, so it names only `detour_measure`
//! and `detour_prng`.

use detour_measure::{Dataset, DatasetBuilder};
use detour_prng::{Rng, Xoshiro256pp};

/// What the weight of a measured edge is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Whole-millisecond RTTs: equal-cost paths, and with them
    /// tie-breaks, are common.
    WholeMs,
    /// Four probes, none to two of them lost: loss rates 0, 0.25 and 0.5,
    /// so about a third of the edges weigh exactly zero under the loss
    /// metric.
    Lossy,
    /// RTTs of 1e-300 ms or whole multiples of 1e4 ms: adding a tiny
    /// weight to any large distance leaves it unchanged.
    Absorbing,
}

/// A random sparse graph of `kind` on 4–9 hosts, as a builder so a test
/// can add edges: each ordered pair is measured with one probability,
/// drawn from 0.5–0.9. Host ids equal the dense row indices.
pub fn random_graph(rng: &mut Xoshiro256pp, kind: GraphKind) -> DatasetBuilder {
    let n = rng.gen_range(4..10usize) as u32;
    let missing = rng.gen_range(0.1..0.5f64);
    let mut b = Dataset::builder("G");
    b.hosts(n);
    for i in 0..n {
        for j in 0..n {
            if i == j || rng.gen_bool(missing) {
                continue;
            }
            let rtt = match kind {
                GraphKind::Lossy => {
                    let lost = rng.gen_range(0..3usize);
                    for k in 0..4 {
                        b.probe(i, j, k as f64, (k >= lost).then_some(50.0));
                    }
                    continue;
                }
                GraphKind::WholeMs => rng.gen_range(1.0..100.0f64).round(),
                GraphKind::Absorbing if rng.gen_bool(0.4) => 1e-300,
                GraphKind::Absorbing => 1e4 * rng.gen_range(1.0..10.0f64).round(),
            };
            b.probe(i, j, 0.0, Some(rtt)).probe(i, j, 1.0, Some(rtt));
        }
    }
    b
}
