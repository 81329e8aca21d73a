//! # detour-core
//!
//! The primary contribution of *"The End-to-End Effects of Internet Path
//! Selection"* (SIGCOMM 1999): given pairwise path-quality measurements
//! between Internet hosts, quantify how often a *synthetic alternate path*
//! — composed from other measured host-to-host paths — beats the path the
//! Internet's routing actually chose.
//!
//! Pipeline:
//!
//! 1. build the measurement graph — a `detour_measure::PairTable`, one
//!    directed edge of long-term path statistics per measured host pair —
//!    once per `detour_measure::Dataset`, inside an [`AnalysisContext`];
//! 2. pick a [`metric`] — mean RTT, loss rate (independent-loss
//!    composition), propagation delay (10th percentile), or Mathis-model
//!    bandwidth;
//! 3. for every host pair, remove the direct edge and search for the best
//!    alternate ([`altpath`] — executed on the flat, precomputed
//!    [`kernel`] weight matrices);
//! 4. feed the comparisons to the [`analysis`] modules that regenerate each
//!    figure and table of the paper.
//!
//! This crate never touches the simulator: it consumes only measurement
//! records, exactly as the original analysis consumed traces.
//!
//! The per-pair searches of step 3 run on the in-tree scoped thread pool
//! ([`pool`]); results merge in input order, so every analysis is
//! bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod altpath;
pub mod analysis;
pub mod compose;
pub mod context;
pub mod kbest;
pub mod kernel;
pub mod metric;
#[cfg(test)]
mod testkit;
/// The scoped thread-pool executor, now its own bottom-of-stack crate
/// (`detour-pool`) so the simulator and measurement engine can share it;
/// re-exported here to keep every existing `detour_core::pool` call site
/// working unchanged.
pub use detour_pool as pool;

pub use altpath::{Pair, PathComparison, SearchDepth};
pub use compose::mathis_bandwidth_kbps;
pub use compose::LossComposition;
pub use context::{AnalysisContext, ArtifactKind, Degradation};
pub use kbest::k_best_alternates_in;
pub use kernel::{BandwidthMatrix, WeightMatrix};
pub use metric::{Loss, MetricKind, PropDelay, Rtt};
