//! # detour-netsim
//!
//! The Internet substrate for the reproduction of *"The End-to-End Effects
//! of Internet Path Selection"* (SIGCOMM 1999).
//!
//! The paper is trace-driven: it measured the 1995–1999 Internet. Those
//! traces no longer exist and cannot be re-taken, so this crate rebuilds
//! the *mechanisms* the paper identifies as the causes of routing
//! inefficiency and lets the measurement machinery of `detour-measure`
//! collect equivalent traces:
//!
//! * hierarchical AS topology with geographic embedding — [`topology`],
//!   [`geo`];
//! * two-level routing: per-AS IGPs below BGP-style policy routing with
//!   customer/peer/provider preferences, no-valley export, shortest-AS-path
//!   tie-breaking, and early-exit (hot-potato) egress selection —
//!   [`routing`];
//! * diurnal/weekly load, hot public exchange points, transient congestion
//!   events, M/M/1-shaped queuing delay and knee-shaped loss — [`traffic`];
//! * route-flap episodes — [`routing::flaps`];
//! * the probe tools the original study drove: `ping`, `traceroute` (with
//!   ICMP rate limiting), and bulk TCP transfers with Mathis-model
//!   throughput — [`probe`], [`tcp`];
//! * a simulation clock and calendar — [`sim`].
//!
//! Everything is deterministic given a seed. The crate is synchronous and
//! single-threaded by design: simulated time is driven by the caller, and
//! the workload is CPU-bound (an async runtime would add nothing — see the
//! Tokio guide's own "when not to use Tokio").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod geo;
pub mod net;
pub mod probe;
pub mod routing;
pub mod sim;
pub mod tcp;
pub mod topology;
pub mod traffic;

pub use detour_faults::FaultConfig;
pub use net::{Network, NetworkConfig, TransitOutcome};
pub use probe::{ping, traceroute, PingResult, TracerouteResult};
pub use routing::RoutingMode;
pub use sim::{Calendar, DayKind, SimTime};
pub use tcp::{bulk_transfer, mathis_throughput_bps, TransferStats};
pub use topology::generator::Era;
pub use topology::{AsId, HostId, LinkId, RouterId};
