//! # detour
//!
//! A production-quality Rust reproduction of *"The End-to-End Effects of
//! Internet Path Selection"* (Savage, Collins, Hoffman, Snell, Anderson —
//! SIGCOMM 1999).
//!
//! The paper measured path quality (round-trip time, loss rate, bandwidth)
//! between pairs of Internet hosts and showed that for 30–80 % of host
//! pairs a *synthetic alternate path* — detouring through other measured
//! hosts — beats the default path the Internet's routing selected. This
//! workspace rebuilds the whole system:
//!
//! * [`netsim`] — an Internet substrate: hierarchical AS topology,
//!   BGP-style policy routing with hot-potato exits, diurnal load, queuing
//!   delay and loss, simulated `traceroute`/`ping`/TCP probes;
//! * [`measure`] — the measurement machinery: schedulers, control host,
//!   ICMP rate-limit detection, dataset assembly;
//! * [`datasets`] — the five dataset configurations of the paper
//!   (D2, N2, UW1, UW3, UW4-A/B);
//! * [`core`] — the paper's contribution: the measurement graph, metric
//!   composition, best-alternate-path search and every analysis behind
//!   Figures 1–16 and Tables 1–3;
//! * [`stats`] — the supporting statistics (CDFs, convolution, Student-t,
//!   confidence intervals, t-tests).
//!
//! ## Quickstart
//!
//! ```
//! use detour::core::analysis::cdf::compare_all_pairs;
//! use detour::core::{AnalysisContext, Rtt, SearchDepth};
//! use detour::datasets::DatasetId;
//!
//! // Generate a small deterministic dataset over the simulated Internet,
//! // then compare every measured pair's default path to its best alternate.
//! let ds = DatasetId::Uw3.generate_scaled(10, 24);
//! let cx = AnalysisContext::from_dataset(&ds);
//! let comparisons = compare_all_pairs(&cx, &Rtt, SearchDepth::Unrestricted);
//! let improved = comparisons.iter().filter(|c| c.alternate_wins()).count();
//! assert!(!comparisons.is_empty());
//! println!("{improved}/{} pairs have a faster alternate path", comparisons.len());
//! ```

#![forbid(unsafe_code)]

pub use detour_core as core;
pub use detour_datasets as datasets;
pub use detour_faults as faults;
pub use detour_measure as measure;
pub use detour_netsim as netsim;
pub use detour_obs as obs;
pub use detour_overlay as overlay;
pub use detour_prng as prng;
pub use detour_stats as stats;
