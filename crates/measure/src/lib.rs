//! # detour-measure
//!
//! The measurement machinery of the SIGCOMM '99 path-selection study: how
//! raw traces were scheduled, collected, and cleaned before any analysis.
//!
//! * [`schedule`] — the three request-timing disciplines of Table 1
//!   (per-host uniform, pairwise exponential, simultaneous episodes);
//! * [`control`] — the central control host, with contact failures and the
//!   5-minute measurement timeout;
//! * [`ratelimit`] — empirical ICMP rate-limit detection and the three
//!   per-dataset correction policies;
//! * [`dataset`] — the checked [`dataset::Dataset`] constructor and its
//!   rules, and assembly into it (one probe row per invocation,
//!   ≥30-samples-per-path filtering, Table-1 characteristics);
//! * [`pairtable`] — columnar per-pair aggregates, built once per dataset
//!   and shared by every downstream analysis;
//! * [`record`] — the records every downstream analysis consumes, and
//!   [`record::Probes`], the store of one row per traceroute invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod control;
pub mod dataset;
pub mod pairtable;
pub mod ratelimit;
pub mod record;
pub mod schedule;

pub use control::{run_campaign, CampaignConfig, ProbeKind, RawMeasurements};
pub use dataset::{
    Characteristics, Dataset, DatasetBuilder, DatasetError, DatasetField, MAX_RTT_MS,
    MIN_SAMPLES_PER_PATH,
};
pub use pairtable::{HostIndex, PairTable};
pub use ratelimit::RateLimitPolicy;
pub use record::{HostMeta, Invocation, ProbeRow, ProbeSample, Probes, Samples, TransferSample};
pub use schedule::{Request, Schedule};

// Re-export so `detour-core` can name hosts without depending on the
// simulator crate.
pub use detour_netsim::HostId;
