//! # detour-bench
//!
//! The benchmark crate: regenerates every table and figure of the paper
//! (the `figures` binary) and times and gates that same run (the
//! `baseline` binary, which adds its `detour-obs` report).
//!
//! * [`canonical`] — the one run both binaries make: trace cache, study,
//!   engine, and at full scale the committed `results/<id>.txt`;
//! * [`bundle`] — generates the eight Table-1 datasets, sharing simulations
//!   between siblings (D2/D2-NA, N2/N2-NA, UW4-A/UW4-B);
//! * [`cache`] — the on-disk trace cache: generated datasets round-trip
//!   through the `.trace2` binary format under `results/cache/`, keyed by
//!   (spec, seed, scale), so warm runs skip the simulator entirely;
//! * [`study`] — one shared `AnalysisContext` per Table-1 dataset,
//!   addressed by `detour_datasets::DatasetId`: pair tables and weight
//!   matrices build once and every experiment borrows them;
//! * [`render`] — plain-text rendering of CDFs, tables, and scatters;
//! * [`experiments`] — the one experiment registry: one [`Experiment`]
//!   per report (the 19 paper artifacts, six extras and the fault sweep)
//!   stating the derived artifacts it needs; the engine prebuilds the
//!   union, fans experiments out in parallel, times each under an
//!   `experiment/<id>` span, and merges reports in request order
//!   (byte-identical at any worker count);
//! * [`extras`] — the report functions of the beyond-the-paper registry
//!   entries: Paxson-phenomenon checks, the routing-policy ablation, and
//!   the overlay evaluation;
//! * [`scale`] — the 128-host `scale_sweep` workload: a dataset big enough
//!   for kernel speedups to show, generated once through the trace cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bundle;
pub mod cache;
pub mod canonical;
pub mod experiments;
pub mod extras;
pub mod render;
pub mod scale;
pub mod study;

pub use bundle::Bundle;
pub use experiments::{Experiment, Need};
pub use study::Study;
