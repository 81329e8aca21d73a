//! # detour-datasets
//!
//! The five dataset configurations of the SIGCOMM '99 path-selection paper
//! (eight Table-1 rows once the `-NA` restrictions and the UW4 pair are
//! counted), regenerated over the simulated Internet of `detour-netsim`:
//!
//! | Row    | Era  | Days | Hosts | Schedule                       | Cleaning |
//! |--------|------|------|-------|--------------------------------|----------|
//! | D2-NA  | 1995 | 48   | 22    | pairwise exp (restriction)     | first-sample-only |
//! | D2     | 1995 | 48   | 33    | pairwise exp, ~118 s mean      | first-sample-only |
//! | N2-NA  | 1995 | 44   | 20    | TCP transfers (restriction)    | —        |
//! | N2     | 1995 | 44   | 31    | TCP transfers, ~208 s mean     | —        |
//! | UW1    | 1998 | 34   | 36    | per-host uniform, 15 min mean  | reverse-direction |
//! | UW3    | 1999 | 7    | 39    | pairwise exp, 9 s mean         | filter hosts |
//! | UW4-A  | 1999 | 14   | 15    | simultaneous episodes, 1000 s  | filter hosts |
//! | UW4-B  | 1999 | 14   | 15    | pairwise exp, 150 s mean       | filter hosts |
//!
//! Start from [`DatasetId`]; generate a [`Family`] when you need siblings
//! that share a simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod d2;
pub mod n2;
pub mod registry;
pub mod spec;
pub mod trace2;
pub mod uw1;
pub mod uw3;
pub mod uw4;

pub use registry::{DatasetId, Family};
pub use spec::{build_network, generate, generate_on, restrict_na, DatasetSpec, Scale};
