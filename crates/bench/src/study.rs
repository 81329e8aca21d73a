//! The build-once study: one [`AnalysisContext`] per Table-1 dataset.
//!
//! A [`Study`] is the bench-side face of the artifact store. Where the
//! [`crate::Bundle`] owns raw datasets, the study owns the eight analysis
//! contexts built from them — pair tables (the measurement graphs) eagerly,
//! weight matrices lazily on first use — so every experiment in a run
//! borrows the same artifacts instead of rebuilding its own. Experiments
//! address datasets by [`DataKey`], which is also the vocabulary the
//! declarative registry ([`crate::experiments::Need`]) uses to state what
//! each experiment touches.

use std::sync::Arc;

use detour_core::AnalysisContext;
use detour_measure::Dataset;

use crate::bundle::Bundle;

/// Names one of the eight Table-1 datasets, in registry declarations and
/// experiment bodies alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKey {
    /// D2 (1995, world, traceroute).
    D2,
    /// D2 restricted to North America.
    D2Na,
    /// N2 (1995, world, TCP transfers).
    N2,
    /// N2 restricted to North America.
    N2Na,
    /// UW1 (1998, NA, per-host uniform).
    Uw1,
    /// UW3 (1999, NA, 9-second exponential).
    Uw3,
    /// UW4-A (1999, simultaneous episodes).
    Uw4A,
    /// UW4-B (1999, long-term average companion).
    Uw4B,
}

impl DataKey {
    /// All keys, in Table-1 order.
    pub const ALL: [DataKey; 8] = [
        DataKey::D2Na,
        DataKey::D2,
        DataKey::N2Na,
        DataKey::N2,
        DataKey::Uw1,
        DataKey::Uw3,
        DataKey::Uw4A,
        DataKey::Uw4B,
    ];
}

/// Eight shared analysis contexts, one per Table-1 dataset.
#[derive(Debug)]
pub struct Study {
    d2: AnalysisContext,
    d2_na: AnalysisContext,
    n2: AnalysisContext,
    n2_na: AnalysisContext,
    uw1: AnalysisContext,
    uw3: AnalysisContext,
    uw4_a: AnalysisContext,
    uw4_b: AnalysisContext,
}

impl Study {
    /// Builds the study by taking ownership of a bundle — the datasets move
    /// into `Arc`s without cloning.
    pub fn from_bundle(bundle: Bundle) -> Study {
        let cx = |ds: Dataset| AnalysisContext::new(Arc::new(ds));
        Study {
            d2: cx(bundle.d2),
            d2_na: cx(bundle.d2_na),
            n2: cx(bundle.n2),
            n2_na: cx(bundle.n2_na),
            uw1: cx(bundle.uw1),
            uw3: cx(bundle.uw3),
            uw4_a: cx(bundle.uw4_a),
            uw4_b: cx(bundle.uw4_b),
        }
    }

    /// Builds the study from a borrowed bundle (clones each dataset once).
    pub fn new(bundle: &Bundle) -> Study {
        Study::from_bundle(bundle.clone())
    }

    /// The context for one dataset.
    pub fn ctx(&self, key: DataKey) -> &AnalysisContext {
        match key {
            DataKey::D2 => &self.d2,
            DataKey::D2Na => &self.d2_na,
            DataKey::N2 => &self.n2,
            DataKey::N2Na => &self.n2_na,
            DataKey::Uw1 => &self.uw1,
            DataKey::Uw3 => &self.uw3,
            DataKey::Uw4A => &self.uw4_a,
            DataKey::Uw4B => &self.uw4_b,
        }
    }

    /// Table-1 ordering of the contexts.
    pub fn in_table_order(&self) -> [&AnalysisContext; 8] {
        DataKey::ALL.map(|k| self.ctx(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_datasets::Scale;

    #[test]
    fn table_order_matches_bundle_order() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        let names: Vec<String> = b
            .in_table_order()
            .iter()
            .map(|ds| ds.name.clone())
            .collect();
        let s = Study::from_bundle(b);
        let ctx_names: Vec<String> = s
            .in_table_order()
            .iter()
            .map(|cx| cx.dataset().name.clone())
            .collect();
        assert_eq!(names, ctx_names);
    }
}
