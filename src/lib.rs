//! Facade crate re-exporting the complete Xhare-a-Ride (XAR) system.
//!
//! See the individual crates for details; this crate exists so that a
//! downstream user can depend on one package and get the whole stack,
//! and so that the repository-level `examples/` and `tests/` have a
//! single coherent API surface.

#![forbid(unsafe_code)]

pub use xar_core as core;
pub use xar_discretize as discretize;
pub use xar_geo as geo;
pub use xar_mmtp as mmtp;
pub use xar_roadnet as roadnet;
pub use xar_transit as transit;
pub use xar_tshare as tshare;
pub use xar_workload as workload;
