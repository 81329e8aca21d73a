//! The dataset registry: one identifier per Table-1 row, and the five
//! families that generate them.
//!
//! Eight rows come from five simulations. D2-NA and N2-NA are the
//! North-American restrictions of D2 and N2 (§4.2), and UW4-A and UW4-B
//! measured the same 15 hosts over the same network (§6.4). [`Family`]
//! is the one place that says which rows share a simulation.

use detour_measure::Dataset;

use crate::spec::{self, DatasetSpec, Scale};
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

    /// The family whose simulation produces this dataset.
    pub fn family(self) -> Family {
        Family::ALL
            .into_iter()
            .find(|f| f.members().contains(&self))
            .expect("every dataset belongs to a family")
    }

    /// Generates the dataset at the given scale.
    ///
    /// This runs the dataset's whole [`Family`] and keeps one member;
    /// callers that need siblings together should call
    /// [`Family::generate`] to share the work.
    pub fn generate(self, scale: Scale) -> Dataset {
        let family = self.family();
        let at = family
            .members()
            .iter()
            .position(|&m| m == self)
            .expect("a dataset is a member of its family");
        family.generate(scale).swap_remove(at)
    }

    /// Generates a reduced instance for tests, docs and examples.
    pub fn generate_scaled(self, n_hosts: usize, time_divisor: u32) -> Dataset {
        self.generate(Scale::reduced(n_hosts, time_divisor))
    }
}

/// One simulation: a network build and the Table-1 datasets measured on it
/// or derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// D2 and its North-American restriction D2-NA.
    D2,
    /// N2 and its North-American restriction N2-NA (the same 1995
    /// Internet as D2, simulated separately).
    N2,
    /// UW1 alone.
    Uw1,
    /// UW3 alone.
    Uw3,
    /// UW4-A and UW4-B: two campaigns over one network and host set.
    Uw4,
}

impl Family {
    /// The five families, in generation order.
    pub const ALL: [Family; 5] = [
        Family::D2,
        Family::N2,
        Family::Uw1,
        Family::Uw3,
        Family::Uw4,
    ];

    /// The family's datasets, in the order [`Family::generate`] returns
    /// them.
    pub fn members(self) -> &'static [DatasetId] {
        match self {
            Family::D2 => &[DatasetId::D2, DatasetId::D2Na],
            Family::N2 => &[DatasetId::N2, DatasetId::N2Na],
            Family::Uw1 => &[DatasetId::Uw1],
            Family::Uw3 => &[DatasetId::Uw3],
            Family::Uw4 => &[DatasetId::Uw4A, DatasetId::Uw4B],
        }
    }

    /// Generates every member at `scale` over one network, built from the
    /// first member's spec: each member is either its own campaign
    /// ([`spec::generate_on`]) or the North-American restriction of the
    /// first member ([`spec::restrict_na`]).
    pub fn generate(self, scale: Scale) -> Vec<Dataset> {
        let members = self.members();
        let first = campaign(members[0]).expect("a family starts with a campaign");
        let net = spec::build_network(&first, scale);
        let mut out: Vec<Dataset> = Vec::with_capacity(members.len());
        for &id in members {
            let ds = match campaign(id) {
                Some(s) => spec::generate_on(&net, &s, scale),
                None => spec::restrict_na(&net, &out[0], id.name()),
            };
            out.push(ds);
        }
        out
    }
}

/// The campaign that measures `id`, or `None` for the North-American
/// restrictions, which are derived from their family's first member.
fn campaign(id: DatasetId) -> Option<DatasetSpec> {
    match id {
        DatasetId::D2 => Some(d2::spec()),
        DatasetId::N2 => Some(n2::spec()),
        DatasetId::Uw1 => Some(uw1::spec()),
        DatasetId::Uw3 => Some(uw3::spec()),
        DatasetId::Uw4A => Some(uw4::spec_a()),
        DatasetId::Uw4B => Some(uw4::spec_b()),
        DatasetId::D2Na | DatasetId::N2Na => None,
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
    fn every_family_generates_its_members_and_each_id_its_own_member() {
        let scale = Scale::reduced(6, 48);
        let mut seen = Vec::new();
        for family in Family::ALL {
            let generated = family.generate(scale);
            let names: Vec<&str> = generated.iter().map(|d| d.name.as_str()).collect();
            let members: Vec<&str> = family.members().iter().map(|id| id.name()).collect();
            assert_eq!(names, members, "{family:?}");
            for (&id, ds) in family.members().iter().zip(&generated) {
                assert_eq!(id.family(), family, "{id:?}");
                assert_eq!(
                    crate::trace2::to_bytes(&id.generate(scale)),
                    crate::trace2::to_bytes(ds),
                    "{id:?} alone differs from its family's member"
                );
                seen.push(id);
            }
        }
        seen.sort_by_key(|&id| id as usize);
        assert_eq!(seen, DatasetId::all(), "each id in exactly one family");
    }

    #[test]
    fn every_campaign_member_derives_its_familys_network() {
        // `Family::generate` builds one network from the first member's
        // spec, so each sibling's spec must imply that same network.
        for scale in [Scale::full(), Scale::reduced(6, 48).with_seed_offset(3)] {
            for family in Family::ALL {
                let configs: Vec<String> = family
                    .members()
                    .iter()
                    .filter_map(|&id| campaign(id))
                    .map(|s| format!("{:?}", spec::network_config(&s, scale)))
                    .collect();
                assert!(configs.iter().all(|c| *c == configs[0]), "{family:?}");
            }
        }
    }

    #[test]
    fn scaled_generation_is_deterministic_across_calls() {
        let a = DatasetId::Uw4B.generate_scaled(8, 24);
        let b = DatasetId::Uw4B.generate_scaled(8, 24);
        assert_eq!(a.probes.len(), b.probes.len());
        assert_eq!(a.hosts, b.hosts);
    }
}
