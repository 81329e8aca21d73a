//! The dataset registry: one identifier per Table-1 row.

use detour_measure::Dataset;

use crate::spec::{self, Scale};
use crate::{d2, n2, uw1, uw3, uw4};

/// Identifier of one of the paper's eight dataset rows (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// D2 restricted to North America (22 hosts).
    D2Na,
    /// Paxson's 1995 traceroute dataset (33 hosts, world).
    D2,
    /// N2 restricted to North America (20 hosts).
    N2Na,
    /// Paxson's 1995 TCP-transfer dataset (31 hosts, world).
    N2,
    /// 1998 public-traceroute-server dataset (36 NA hosts, uniform timer).
    Uw1,
    /// 1999 dataset, exponential pair sampling at 9 s mean (39 NA hosts).
    Uw3,
    /// 1999 simultaneous-episode dataset (15 hosts).
    Uw4A,
    /// 1999 long-term-average companion to UW4-A (same 15 hosts).
    Uw4B,
}

impl DatasetId {
    /// All eight rows in Table-1 order.
    pub fn all() -> [DatasetId; 8] {
        [
            DatasetId::D2Na,
            DatasetId::D2,
            DatasetId::N2Na,
            DatasetId::N2,
            DatasetId::Uw1,
            DatasetId::Uw3,
            DatasetId::Uw4A,
            DatasetId::Uw4B,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::D2Na => "D2-NA",
            DatasetId::D2 => "D2",
            DatasetId::N2Na => "N2-NA",
            DatasetId::N2 => "N2",
            DatasetId::Uw1 => "UW1",
            DatasetId::Uw3 => "UW3",
            DatasetId::Uw4A => "UW4-A",
            DatasetId::Uw4B => "UW4-B",
        }
    }

    /// Generates the dataset at the given scale.
    ///
    /// The `-NA` variants and the UW4 pair regenerate their parent
    /// simulation; callers that need siblings together should use
    /// [`d2::generate_with_na`], [`n2::generate_with_na`], or
    /// [`uw4::generate_both`] to share the work.
    pub fn generate(self, scale: Scale) -> Dataset {
        match self {
            DatasetId::D2 => d2::generate_with_na(scale).0,
            DatasetId::D2Na => d2::generate_with_na(scale).1,
            DatasetId::N2 => n2::generate_with_na(scale).0,
            DatasetId::N2Na => n2::generate_with_na(scale).1,
            DatasetId::Uw1 => spec::generate(&uw1::spec(), scale),
            DatasetId::Uw3 => spec::generate(&uw3::spec(), scale),
            DatasetId::Uw4A => uw4::generate_both(scale).0,
            DatasetId::Uw4B => uw4::generate_both(scale).1,
        }
    }

    /// Generates a reduced instance for tests, docs and examples.
    pub fn generate_scaled(self, n_hosts: usize, time_divisor: u32) -> Dataset {
        self.generate(Scale::reduced(n_hosts, time_divisor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table1() {
        let names: Vec<&str> = DatasetId::all().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            ["D2-NA", "D2", "N2-NA", "N2", "UW1", "UW3", "UW4-A", "UW4-B"]
        );
    }

    #[test]
    fn generated_name_matches_id() {
        let ds = DatasetId::Uw3.generate_scaled(8, 24);
        assert_eq!(ds.name, "UW3");
        let ds = DatasetId::D2Na.generate_scaled(10, 24);
        assert_eq!(ds.name, "D2-NA");
    }

    #[test]
    fn scaled_generation_is_deterministic_across_calls() {
        let a = DatasetId::Uw4B.generate_scaled(8, 24);
        let b = DatasetId::Uw4B.generate_scaled(8, 24);
        assert_eq!(a.probes.len(), b.probes.len());
        assert_eq!(a.hosts, b.hosts);
    }
}
