//! The build-once study: one [`AnalysisContext`] per Table-1 dataset.
//!
//! A [`Study`] is the bench-side face of the artifact store. Where the
//! [`crate::Bundle`] owns raw datasets, the study owns the eight analysis
//! contexts built from them — pair tables (the measurement graphs) eagerly,
//! weight matrices lazily on first use — so every experiment in a run
//! borrows the same artifacts instead of rebuilding its own. Experiments
//! address datasets by [`DatasetId`], which is also the vocabulary the
//! declarative registry ([`crate::experiments::Need`]) uses to state what
//! each experiment touches.

use std::sync::Arc;

use detour_core::AnalysisContext;
use detour_datasets::DatasetId;

use crate::bundle::Bundle;

/// Eight shared analysis contexts, one per Table-1 dataset.
#[derive(Debug)]
pub struct Study {
    /// Indexed by [`DatasetId`], in [`DatasetId::all`] order.
    contexts: [AnalysisContext; 8],
}

impl Study {
    /// Builds the study by taking ownership of a bundle — the datasets move
    /// into `Arc`s without cloning.
    pub fn from_bundle(bundle: Bundle) -> Study {
        let contexts = bundle
            .into_table_order()
            .map(|ds| AnalysisContext::new(Arc::new(ds)));
        Study { contexts }
    }

    /// The context for one dataset.
    pub fn ctx(&self, id: DatasetId) -> &AnalysisContext {
        // `DatasetId` declares its variants in `DatasetId::all()` order.
        &self.contexts[id as usize]
    }

    /// Table-1 ordering of the contexts.
    pub fn in_table_order(&self) -> [&AnalysisContext; 8] {
        self.contexts.each_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_datasets::Scale;

    #[test]
    fn ctx_and_table_order_match_the_bundle() {
        let b = Bundle::generate(Scale::reduced(8, 24));
        let names: Vec<String> = b
            .in_table_order()
            .iter()
            .map(|ds| ds.name.clone())
            .collect();
        let s = Study::from_bundle(b);
        let ctx_names: Vec<&str> = s
            .in_table_order()
            .iter()
            .map(|cx| cx.dataset().name.as_str())
            .collect();
        assert_eq!(names, ctx_names);
        for id in DatasetId::all() {
            assert_eq!(s.ctx(id).dataset().name, id.name(), "{id:?}");
        }
    }
}
