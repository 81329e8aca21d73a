//! The build-once artifact store shared by every analysis.
//!
//! The pipeline is strictly layered — dataset → measurement graph (the
//! per-pair aggregates of a [`PairTable`]) → per-metric weight matrices — but
//! historically every analysis entry point rebuilt the upstream layers for
//! itself, so a 19-experiment run paid for the same matrices dozens of
//! times. An [`AnalysisContext`] owns one immutable copy of each layer and
//! hands out `&`-borrows:
//!
//! * the dataset and eagerly built table are `Arc`-shared, so a
//!   context is cheap to construct from an already-loaded dataset;
//! * weight matrices are built lazily, at most once per [`MetricKind`],
//!   behind one [`OnceLock`] slot per metric (an array indexed by the
//!   enum) — concurrent experiments racing for the same matrix block until
//!   the single winner finishes building, then share it; each matrix
//!   carries its metric, so callers pass the matrix alone;
//! * the per-pair 95 % confidence intervals (Figures 7–8, Tables 2–3) are
//!   built the same way, one slot per metric, so the figure and the table
//!   of one metric share one sweep;
//! * everything handed out is immutable, so a `&AnalysisContext` is freely
//!   shareable across the thread pool (the type is `Sync` by construction).
//!
//! The context never mutates after creation beyond these idempotent cache
//! fills; analyses therefore compose without ordering constraints, and the
//! per-artifact-kind `context/*_builds` counters on the current
//! `detour-obs` recorder let the experiment engine's tests assert that
//! each artifact really was built exactly once.

use std::sync::{Arc, OnceLock};

use detour_measure::{Dataset, PairTable};

use crate::analysis::confidence::{self, PairInterval};
use crate::kernel::{BandwidthMatrix, WeightMatrix};
use crate::metric::MetricKind;

/// Names one derived artifact, for declarative prebuilding: the experiment
/// registry states which artifacts an experiment touches, and the engine
/// resolves the union before fanning experiments out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// The additive weight matrix of a metric family.
    Weights(MetricKind),
    /// The per-pair confidence intervals of a metric at the paper's level
    /// (built from, so requiring, the same metric's weight matrix).
    Intervals(MetricKind),
    /// The one-hop bandwidth matrix (N2 datasets).
    Bandwidth,
}

/// Build-once, borrow-everywhere artifacts of a single dataset.
pub struct AnalysisContext {
    dataset: Arc<Dataset>,
    table: Arc<PairTable>,
    /// One slot per metric, indexed by `MetricKind as usize`.
    weights: [OnceLock<WeightMatrix>; 3],
    /// One slot per metric, like `weights`.
    intervals: [OnceLock<Vec<PairInterval>>; 3],
    bandwidth: OnceLock<BandwidthMatrix>,
}

impl std::fmt::Debug for AnalysisContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisContext")
            .field("dataset", &self.dataset.name)
            .field("hosts", &self.table.len())
            .finish()
    }
}

impl AnalysisContext {
    /// Builds the eager artifact (the pair table) for a shared dataset,
    /// recording `context/table_builds`; matrices follow lazily on first
    /// use under their own counters.
    pub fn new(dataset: Arc<Dataset>) -> AnalysisContext {
        let table = Arc::new(PairTable::build(&dataset));
        detour_obs::current().add("context/table_builds", 1);
        AnalysisContext {
            dataset,
            table,
            weights: Default::default(),
            intervals: Default::default(),
            bandwidth: OnceLock::new(),
        }
    }

    /// Convenience for tests and examples: clone a borrowed dataset into a
    /// fresh context.
    pub fn from_dataset(ds: &Dataset) -> AnalysisContext {
        Self::new(Arc::new(ds.clone()))
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The per-pair aggregate table: the measurement graph.
    pub fn table(&self) -> &PairTable {
        &self.table
    }

    /// The modal AS path of the directed pair `(i, j)` (table indices).
    /// Empty when the pair saw no probes; [`Dataset::new`] keeps every
    /// probe's pool index inside `Dataset::as_paths`.
    pub fn modal_as_path(&self, i: usize, j: usize) -> &[u16] {
        self.table.modal_path_idx(i, j).map_or(&[], |idx| {
            debug_assert!((idx as usize) < self.dataset.as_paths.len());
            &self.dataset.as_paths[idx as usize]
        })
    }

    /// The weight matrix for `metric`, built on first request and shared
    /// thereafter. Each actual build (cache misses only) records a
    /// `context/weights_{rtt,loss,prop}_builds` counter, which is how the
    /// experiment engine's tests prove build-once behaviour.
    pub fn weights(&self, metric: &MetricKind) -> &WeightMatrix {
        self.weights[*metric as usize].get_or_init(|| {
            let counter = match metric {
                MetricKind::Rtt => "context/weights_rtt_builds",
                MetricKind::Loss => "context/weights_loss_builds",
                MetricKind::PropDelay => "context/weights_prop_builds",
            };
            detour_obs::current().add(counter, 1);
            WeightMatrix::build(&self.table, metric)
        })
    }

    /// The per-pair intervals of `metric` at [`confidence::PAPER_LEVEL`],
    /// built on first request and shared thereafter (actual builds record
    /// `context/interval_builds`).
    pub fn intervals(&self, metric: &MetricKind) -> &[PairInterval] {
        self.intervals[*metric as usize].get_or_init(|| {
            detour_obs::current().add("context/interval_builds", 1);
            confidence::pair_intervals(self, metric, confidence::PAPER_LEVEL)
        })
    }

    /// The bandwidth matrix, built on first request and shared thereafter
    /// (actual builds record `context/bandwidth_builds`).
    pub fn bandwidth_matrix(&self) -> &BandwidthMatrix {
        self.bandwidth.get_or_init(|| {
            detour_obs::current().add("context/bandwidth_builds", 1);
            BandwidthMatrix::build(&self.table)
        })
    }

    /// Forces an artifact into the cache (the engine's prebuild step).
    pub fn ensure(&self, kind: ArtifactKind) {
        match kind {
            ArtifactKind::Weights(metric) => {
                self.weights(&metric);
            }
            ArtifactKind::Intervals(metric) => {
                self.intervals(&metric);
            }
            ArtifactKind::Bandwidth => {
                self.bandwidth_matrix();
            }
        }
    }

    /// Measures how degraded this dataset is — the graceful-degradation
    /// contract every report leans on under fault injection. Derived from
    /// the pair table, so it is free relative to any analysis.
    pub fn degradation(&self) -> Degradation {
        let n = self.table.len();
        let mut isolated_hosts = 0;
        for i in 0..n {
            let connected =
                (0..n).any(|j| i != j && (self.table.measured(i, j) || self.table.measured(j, i)));
            if !connected {
                isolated_hosts += 1;
            }
        }
        Degradation {
            hosts: n,
            isolated_hosts,
            measured_pairs: self.table.measured_count(),
            possible_pairs: n * n.saturating_sub(1),
            starved_pairs: self.dataset.starved_pairs,
        }
    }
}

/// How far a dataset falls short of full measurement coverage. Under the
/// paper's benign conditions everything is near-complete; injected faults
/// starve pairs below the ≥30-sample filter, isolate hosts, or empty the
/// dataset outright — all of which must surface as flags in reports, not
/// as crashes or silently skewed aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Hosts present in the assembled dataset.
    pub hosts: usize,
    /// Hosts with no surviving measurement in either direction.
    pub isolated_hosts: usize,
    /// Directed pairs with surviving data.
    pub measured_pairs: usize,
    /// `hosts · (hosts − 1)`.
    pub possible_pairs: usize,
    /// Directed pairs dropped by the min-sample filter at assembly (they
    /// had data, but too little to trust).
    pub starved_pairs: usize,
}

impl Degradation {
    /// True when a report built from this dataset must carry a DEGRADED
    /// flag.
    pub fn is_degraded(&self) -> bool {
        self.starved_pairs > 0 || self.isolated_hosts > 0 || self.measured_pairs == 0
    }

    /// One-line status for report headers: `OK` or
    /// `DEGRADED[starved=…, isolated=…, pairs=…/…]`.
    pub fn summary(&self) -> String {
        if !self.is_degraded() {
            return format!("OK[pairs={}/{}]", self.measured_pairs, self.possible_pairs);
        }
        format!(
            "DEGRADED[starved={}, isolated={}, pairs={}/{}]",
            self.starved_pairs, self.isolated_hosts, self.measured_pairs, self.possible_pairs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{Loss, PropDelay, Rtt};
    use detour_measure::DatasetBuilder;

    fn tiny() -> DatasetBuilder {
        let mut b = Dataset::builder("T");
        b.hosts(3)
            .probe(0, 1, 0.0, Some(50.0))
            .probe(1, 2, 0.0, Some(30.0))
            .probe(0, 2, 0.0, Some(120.0))
            .as_paths(vec![vec![0, 9, 1]])
            .duration(10.0);
        b
    }

    fn tiny_dataset() -> Dataset {
        tiny().build().unwrap()
    }

    #[test]
    fn matrices_build_once_per_kind() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        assert_eq!(rec.counter("context/table_builds"), 1, "the table is eager");
        let a = cx.weights(&Rtt) as *const WeightMatrix;
        let b = cx.weights(&Rtt) as *const WeightMatrix;
        assert_eq!(a, b, "second request reuses the cached matrix");
        assert_eq!(rec.counter("context/weights_rtt_builds"), 1);
        cx.weights(&Loss);
        cx.bandwidth_matrix();
        cx.bandwidth_matrix();
        assert_eq!(rec.counter("context/weights_loss_builds"), 1);
        assert_eq!(rec.counter("context/bandwidth_builds"), 1);
        assert_eq!(
            rec.counter("context/weights_prop_builds"),
            0,
            "never requested"
        );
    }

    #[test]
    fn ensure_prebuilds_without_duplicate_work() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        for (m, counter) in [
            (Rtt, "context/weights_rtt_builds"),
            (Loss, "context/weights_loss_builds"),
            (PropDelay, "context/weights_prop_builds"),
        ] {
            cx.ensure(ArtifactKind::Weights(m));
            cx.ensure(ArtifactKind::Weights(m));
            assert_eq!(rec.counter(counter), 1, "{m:?}");
            assert_eq!(
                cx.weights(&m).metric(),
                m,
                "{m:?} slot holds its own matrix"
            );
            assert_eq!(rec.counter(counter), 1, "{m:?}: later use hits the cache");
        }
        cx.ensure(ArtifactKind::Bandwidth);
        assert_eq!(rec.counter("context/bandwidth_builds"), 1);
    }

    #[test]
    fn intervals_build_once_per_metric_at_the_paper_level() {
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        cx.ensure(ArtifactKind::Intervals(Rtt));
        let a = cx.intervals(&Rtt).as_ptr();
        assert_eq!(cx.intervals(&Rtt).as_ptr(), a, "second request is cached");
        assert_eq!(rec.counter("context/interval_builds"), 1);
        assert_eq!(rec.counter("context/weights_rtt_builds"), 1);
        assert_eq!(
            cx.intervals(&Rtt),
            confidence::pair_intervals(&cx, &Rtt, 0.95).as_slice()
        );
        cx.intervals(&Loss);
        assert_eq!(rec.counter("context/interval_builds"), 2);
    }

    #[test]
    fn table_matches_direct_construction() {
        let ds = tiny_dataset();
        let cx = AnalysisContext::from_dataset(&ds);
        assert_eq!(cx.table(), &PairTable::build(&ds));
        assert_eq!(cx.modal_as_path(0, 1), &[0, 9, 1]);
        assert!(cx.modal_as_path(1, 0).is_empty(), "unmeasured pair");
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<AnalysisContext>();
    }

    #[test]
    fn healthy_dataset_reports_ok() {
        let cx = AnalysisContext::from_dataset(&tiny_dataset());
        let d = cx.degradation();
        assert!(!d.is_degraded(), "{d:?}");
        assert_eq!(d.hosts, 3);
        assert_eq!(d.measured_pairs, 3);
        assert_eq!(d.possible_pairs, 6);
        assert!(d.summary().starts_with("OK["), "{}", d.summary());
    }

    #[test]
    fn starved_and_isolated_hosts_flag_degradation() {
        // Add a host with no measurements at all.
        let mut ds = tiny().host(9).build().unwrap();
        ds.starved_pairs = 4;
        let cx = AnalysisContext::from_dataset(&ds);
        let d = cx.degradation();
        assert!(d.is_degraded());
        assert_eq!(d.isolated_hosts, 1);
        assert_eq!(d.starved_pairs, 4);
        let s = d.summary();
        assert!(s.contains("DEGRADED") && s.contains("starved=4"), "{s}");
    }

    #[test]
    fn empty_dataset_degrades_gracefully() {
        let ds = Dataset::builder("T").hosts(3).build().unwrap();
        // Building every artifact on an empty dataset must not panic.
        let cx = AnalysisContext::from_dataset(&ds);
        cx.ensure(ArtifactKind::Weights(MetricKind::Rtt));
        cx.ensure(ArtifactKind::Bandwidth);
        let d = cx.degradation();
        assert!(d.is_degraded());
        assert_eq!(d.measured_pairs, 0);
        assert_eq!(d.isolated_hosts, d.hosts);
    }
}
