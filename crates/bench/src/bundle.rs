//! The eight Table-1 datasets, generated together so siblings share
//! simulations. Which datasets share one is [`Family`]'s decision; the
//! bundle runs the five families on the pool and files each dataset under
//! its [`DatasetId`](detour_datasets::DatasetId). The trace-cache path, [`Bundle::generate_cached`],
//! lives in [`crate::cache`].

use detour_core::pool;
use detour_datasets::{Family, Scale};
use detour_measure::Dataset;

/// All eight datasets, generated together so siblings share simulations.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// D2 (1995, world, traceroute).
    pub d2: Dataset,
    /// D2 restricted to North America.
    pub d2_na: Dataset,
    /// N2 (1995, world, TCP transfers).
    pub n2: Dataset,
    /// N2 restricted to North America.
    pub n2_na: Dataset,
    /// UW1 (1998, NA, per-host uniform).
    pub uw1: Dataset,
    /// UW3 (1999, NA, 9-second exponential).
    pub uw3: Dataset,
    /// UW4-A (1999, simultaneous episodes).
    pub uw4_a: Dataset,
    /// UW4-B (1999, long-term average companion).
    pub uw4_b: Dataset,
}

impl Bundle {
    /// Generates every dataset at the given scale.
    ///
    /// The five dataset [`Family`]s are independent simulations, so they
    /// generate on the [`pool`] — sibling datasets stay together because
    /// they share one simulated network. The merge is index-ordered, so the
    /// bundle is bit-identical at any thread count.
    pub fn generate(scale: Scale) -> Bundle {
        Bundle::assemble(pool::parallel_map(&Family::ALL, |f| f.generate(scale)))
    }

    /// Assembles the bundle from each family's datasets, given in
    /// [`Family::ALL`] order and each in [`Family::members`] order. Every
    /// dataset lands in its [`DatasetId`](detour_datasets::DatasetId)'s slot, and the eight slots,
    /// in [`DatasetId::all`](detour_datasets::DatasetId::all) order, are the order
    /// [`Bundle::into_table_order`] and [`Bundle::in_table_order`] give
    /// back.
    pub(crate) fn assemble(families: Vec<Vec<Dataset>>) -> Bundle {
        let mut slots: [Option<Dataset>; 8] = Default::default();
        for (family, datasets) in Family::ALL.iter().zip(families) {
            for (&id, ds) in family.members().iter().zip(datasets) {
                slots[id as usize] = Some(ds);
            }
        }
        let [d2_na, d2, n2_na, n2, uw1, uw3, uw4_a, uw4_b] =
            slots.map(|ds| ds.expect("every family yields each of its members"));
        Bundle {
            d2,
            d2_na,
            n2,
            n2_na,
            uw1,
            uw3,
            uw4_a,
            uw4_b,
        }
    }

    /// The eight datasets in [`DatasetId::all`](detour_datasets::DatasetId::all) order, moved out of the
    /// bundle.
    pub(crate) fn into_table_order(self) -> [Dataset; 8] {
        let Bundle {
            d2,
            d2_na,
            n2,
            n2_na,
            uw1,
            uw3,
            uw4_a,
            uw4_b,
        } = self;
        [d2_na, d2, n2_na, n2, uw1, uw3, uw4_a, uw4_b]
    }

    /// The datasets in [`DatasetId::all`](detour_datasets::DatasetId::all) (Table-1) order.
    pub fn in_table_order(&self) -> [&Dataset; 8] {
        [
            &self.d2_na,
            &self.d2,
            &self.n2_na,
            &self.n2,
            &self.uw1,
            &self.uw3,
            &self.uw4_a,
            &self.uw4_b,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_bundle_generates_all_eight() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        for ds in b.in_table_order() {
            assert!(
                !ds.probes.is_empty() || !ds.transfers.is_empty(),
                "{} is empty",
                ds.name
            );
        }
        assert_eq!(b.uw4_a.hosts.len(), b.uw4_b.hosts.len());
    }
}
