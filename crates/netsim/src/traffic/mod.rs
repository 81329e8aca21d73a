//! Traffic load, queuing delay, and loss.
//!
//! The paper's §7 decomposes round-trip time into propagation and queuing
//! delay and hypothesizes that "superior alternate paths result primarily
//! from avoiding congestion" — then finds both congestion *and* propagation
//! delay matter. The load model must therefore produce realistic
//! congestion: diurnal and weekly cycles ([`diurnal`]), heterogeneous
//! per-link base load with chronically hot public exchange points, and
//! transient congestion events ([`load`]).

pub mod diurnal;
pub mod load;

pub use diurnal::DiurnalProfile;
pub use load::{LinkSample, LoadConfig, LoadInstant, LoadModel};
