//! Geographic primitives for the Xhare-a-Ride (XAR) ride-sharing system.
//!
//! This crate provides the lowest tier of the paper's hierarchy: point
//! locations and the *implicit grid* discretization (Definition 1 of the
//! paper). Everything above — landmarks, clusters, rides — is built on
//! top of these primitives by the `xar-discretize` and `xar-core` crates.
//!
//! The main types are:
//!
//! * [`GeoPoint`] — a WGS-84 latitude/longitude pair with great-circle
//!   ([`GeoPoint::haversine_m`]) distance.
//! * [`LocalProjection`] — an equirectangular projection around a
//!   reference point, used to work in metric (east/north metres)
//!   coordinates within a city-sized region.
//! * [`BoundingBox`] — an axis-aligned lat/lon rectangle.
//! * [`GridSpec`] / [`GridId`] — the implicit square grid of
//!   Definition 1: every point location maps to exactly one grid cell,
//!   identified numerically from its latitude and longitude, and each
//!   cell is represented by its centroid for all distance purposes.
//!
//! ```
//! use xar_geo::{BoundingBox, GeoPoint, GridSpec};
//!
//! let a = GeoPoint::new(40.7580, -73.9855); // Times Square
//! let b = GeoPoint::new(40.7484, -73.9857); // Empire State Building
//! assert!((a.haversine_m(&b) - 1_067.0).abs() < 10.0);
//!
//! // Definition 1: a 100 m implicit grid; every point maps to one
//! // cell, represented by its centroid.
//! let grid = GridSpec::new(BoundingBox::new(b, a).expanded(0.01), 100.0);
//! let cell = grid.grid_of(&a);
//! assert!(grid.centroid(cell).haversine_m(&a) < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbox;
pub mod grid;
pub mod point;
pub mod projection;

pub use bbox::BoundingBox;
pub use grid::{GridId, GridSpec};
pub use point::GeoPoint;
pub use projection::LocalProjection;

/// Mean Earth radius in metres (IUGG value), used by the haversine
/// formula and the equirectangular projection.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Convert a speed in km/h to m/s.
#[inline]
pub fn kmh_to_mps(kmh: f64) -> f64 {
    kmh / 3.6
}

/// Convert a speed in m/s to km/h.
#[inline]
pub fn mps_to_kmh(mps: f64) -> f64 {
    mps * 3.6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_conversions_round_trip() {
        let kmh = 36.0;
        let mps = kmh_to_mps(kmh);
        assert!((mps - 10.0).abs() < 1e-12);
        assert!((mps_to_kmh(mps) - kmh).abs() < 1e-12);
    }
}
