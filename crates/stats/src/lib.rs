//! # detour-stats
//!
//! Statistics substrate for the reproduction of *"The End-to-End Effects of
//! Internet Path Selection"* (Savage et al., SIGCOMM 1999).
//!
//! The paper's robustness section (§4, §6) leans on a small but specific
//! statistical toolkit:
//!
//! * **sample means** as the characteristic statistic of a path, chosen for
//!   their additive property ("the sum of the means is the mean of the
//!   sums") — [`summary`];
//! * **medians of composed paths**, computed by convolving the sample
//!   distributions of constituent hops (§6.1) — [`convolve`];
//! * **95 % confidence intervals** on the difference of two path means,
//!   using the Student-t quantile `t[.975; v]` per Jain's *The Art of
//!   Computer Systems Performance Analysis* — [`tdist`], [`ci`];
//! * **t-test classification** of each path pair into
//!   better / indeterminate / worse (Tables 2 and 3) — [`ttest`];
//! * **empirical CDFs** — every figure in the paper is a CDF across host
//!   pairs — [`edf`];
//! * the **10th percentile** of round-trip samples as a propagation-delay
//!   estimator (§7.2) — [`mod@quantile`].
//!
//! Everything here is dependency-free, deterministic, and `f64`-based.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod autocorr;
pub mod ci;
pub mod convolve;
pub mod edf;
pub mod quantile;
pub mod summary;
pub mod tdist;
pub mod ttest;

pub use autocorr::{autocorrelation, effective_sample_size};
pub use ci::ConfidenceInterval;
pub use convolve::BinCounts;
pub use edf::Cdf;
pub use quantile::{percentile, quantile};
pub use summary::{OnlineStats, Summary};
pub use ttest::{welch_classify, TTestVerdict};
