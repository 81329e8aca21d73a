//! Output digests and the checks that feed `failed` and `error_rate`.

use std::collections::BTreeMap;

use detour_core::analysis::hostremoval::RemovalAnalysis;
use detour_core::{Degradation, PathComparison};
use detour_datasets::trace2;
use detour_measure::Dataset;

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Fnv {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in a word, little-endian.
    pub fn word(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a byte string.
pub fn of_bytes(b: &[u8]) -> u64 {
    Fnv::new().bytes(b).finish()
}

/// Digest of a dataset's `.trace2` encoding, which keeps every bit.
pub fn of_dataset(ds: &Dataset) -> u64 {
    of_bytes(&trace2::to_bytes(ds))
}

/// Digest of pairwise comparisons: pairs, raw value bits and via hosts.
pub fn of_comparisons(cs: &[PathComparison]) -> u64 {
    let mut h = Fnv::new();
    for c in cs {
        h.word(u64::from(c.pair.src.0))
            .word(u64::from(c.pair.dst.0))
            .word(c.default_value.to_bits())
            .word(c.alternate_value.to_bits())
            .word(u64::from(c.lower_is_better))
            .word(c.via.len() as u64);
        for v in &c.via {
            h.word(u64::from(v.0));
        }
    }
    h.finish()
}

/// Digest of a greedy host-removal result.
pub fn of_removal(r: &RemovalAnalysis) -> u64 {
    let mut h = Fnv::new();
    for id in &r.removed {
        h.word(u64::from(id.0));
    }
    for cdf in [&r.full, &r.reduced] {
        h.word(cdf.len() as u64);
        for x in cdf.values() {
            h.word(x.to_bits());
        }
    }
    h.finish()
}

/// Digest of a degradation summary.
pub fn of_degradation(d: &Degradation) -> u64 {
    let mut h = Fnv::new();
    for n in [
        d.hosts,
        d.isolated_hosts,
        d.measured_pairs,
        d.possible_pairs,
        d.starved_pairs,
    ] {
        h.word(n as u64);
    }
    h.finish()
}

/// Named digests of one iteration's outputs, in a fixed order.
pub type Outputs = Vec<(String, u64)>;

/// Tallies output checks across the iterations of one run.
#[derive(Default)]
pub struct Checker {
    /// Digests every iteration must reproduce: the first iteration's.
    first: Option<BTreeMap<String, u64>>,
    /// Digests fixed from outside the run (the committed reports at seed 0).
    expected: BTreeMap<String, u64>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
    /// Digest of the first iteration's outputs, in order.
    pub digest: Option<u64>,
}

impl Checker {
    /// A checker that also holds outputs to `expected`.
    pub fn new(expected: Outputs) -> Checker {
        Checker {
            expected: expected.into_iter().collect(),
            ..Checker::default()
        }
    }

    /// Records a check that is not an iteration output.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }

    /// Checks one iteration's outputs: each must match the first
    /// iteration's digest and any expected digest, and the set of names
    /// must not change.
    pub fn iteration(&mut self, outs: &Outputs) {
        let first = self.first.get_or_insert_with(|| {
            let mut h = Fnv::new();
            for (_, d) in outs {
                h.word(*d);
            }
            self.digest = Some(h.finish());
            outs.iter().cloned().collect()
        });
        let mut bad = 0;
        for (name, d) in outs {
            if first.get(name) != Some(d) || self.expected.get(name).is_some_and(|e| e != d) {
                eprintln!("check failed: output {name} differs");
                bad += 1;
            }
        }
        let missing = first.len().saturating_sub(outs.len());
        if missing > 0 {
            eprintln!("check failed: {missing} output(s) missing");
        }
        self.attempted += outs.len().max(first.len()) as u64;
        self.failed += (bad + missing) as u64;
    }

    /// Records an iteration that panicked: all its outputs failed.
    pub fn panicked(&mut self) {
        let n = self.first.as_ref().map_or(1, |f| f.len().max(1)) as u64;
        eprintln!("check failed: iteration panicked ({n} outputs lost)");
        self.attempted += n;
        self.failed += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outs(ds: &[u64]) -> Outputs {
        ds.iter()
            .enumerate()
            .map(|(i, &d)| (format!("o{i}"), d))
            .collect()
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn repeated_outputs_pass_and_changed_ones_fail() {
        let mut c = Checker::new(vec![("o1".into(), 2)]);
        c.iteration(&outs(&[1, 2]));
        c.iteration(&outs(&[1, 2]));
        assert_eq!((c.attempted, c.failed), (4, 0));
        c.iteration(&outs(&[1, 3]));
        assert_eq!((c.attempted, c.failed), (6, 1));
        c.iteration(&outs(&[1]));
        assert_eq!((c.attempted, c.failed), (8, 2));
        c.panicked();
        assert_eq!((c.attempted, c.failed), (10, 4));
    }

    #[test]
    fn expected_digests_are_enforced_from_the_first_iteration() {
        let mut c = Checker::new(vec![("o0".into(), 9)]);
        c.iteration(&outs(&[1]));
        assert_eq!((c.attempted, c.failed), (1, 1));
    }
}
