//! Simulation time.

pub mod clock;

pub use clock::{Calendar, DayKind, SimTime};
