//! Local equirectangular projection.
//!
//! The XAR pre-processing and the synthetic road-network generators work
//! in metric coordinates. Within a city-sized region (tens of
//! kilometres) an equirectangular projection around a reference point is
//! accurate to well under the 100 m grid size used by the system, and is
//! trivially invertible.

use crate::{GeoPoint, EARTH_RADIUS_M};

/// An equirectangular ("plate carrée") projection centred on a
/// reference point.
///
/// `to_xy` maps a [`GeoPoint`] to `(east, north)` metres relative to the
/// reference; `from_xy` inverts it exactly (up to floating-point error).
#[derive(Debug, Clone, Copy)]
pub struct LocalProjection {
    origin: GeoPoint,
    cos_lat0: f64,
}

impl LocalProjection {
    /// Create a projection centred on `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        Self {
            origin,
            cos_lat0: origin.lat.to_radians().cos(),
        }
    }

    /// The reference point of the projection.
    #[inline]
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Project a point to `(east_m, north_m)` relative to the origin.
    #[inline]
    pub fn to_xy(&self, p: &GeoPoint) -> (f64, f64) {
        let x = (p.lon - self.origin.lon).to_radians() * self.cos_lat0 * EARTH_RADIUS_M;
        let y = (p.lat - self.origin.lat).to_radians() * EARTH_RADIUS_M;
        (x, y)
    }

    /// Inverse-project `(east_m, north_m)` back to a lat/lon point.
    #[inline]
    pub fn from_xy(&self, x: f64, y: f64) -> GeoPoint {
        let lat = self.origin.lat + (y / EARTH_RADIUS_M).to_degrees();
        let lon = self.origin.lon + (x / (EARTH_RADIUS_M * self.cos_lat0)).to_degrees();
        GeoPoint::new(lat, lon)
    }

    /// Euclidean distance between two points in the projected plane, in
    /// metres. Within a city region this tracks haversine closely and is
    /// cheaper to compute.
    #[inline]
    pub fn euclidean_m(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let (ax, ay) = self.to_xy(a);
        let (bx, by) = self.to_xy(b);
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj() -> LocalProjection {
        LocalProjection::new(GeoPoint::new(40.75, -73.98))
    }

    #[test]
    fn origin_maps_to_zero() {
        let p = proj();
        let (x, y) = p.to_xy(&p.origin());
        assert_eq!((x, y), (0.0, 0.0));
    }

    #[test]
    fn round_trip_is_exact() {
        let p = proj();
        for &(x, y) in &[(0.0, 0.0), (1234.5, -987.6), (-15_000.0, 22_000.0)] {
            let g = p.from_xy(x, y);
            let (x2, y2) = p.to_xy(&g);
            assert!((x - x2).abs() < 1e-6, "{x} vs {x2}");
            assert!((y - y2).abs() < 1e-6, "{y} vs {y2}");
        }
    }

    #[test]
    fn euclidean_close_to_haversine_at_city_scale() {
        let p = proj();
        let a = GeoPoint::new(40.70, -74.01);
        let b = GeoPoint::new(40.80, -73.95);
        let e = p.euclidean_m(&a, &b);
        let h = a.haversine_m(&b);
        // < 0.2% error across ~12 km.
        assert!((e - h).abs() / h < 2e-3, "euclidean {e} vs haversine {h}");
    }

    #[test]
    fn axes_are_oriented_east_north() {
        let p = proj();
        let north = p.origin().destination(0.0, 1000.0);
        let east = p.origin().destination(90.0, 1000.0);
        let (nx, ny) = p.to_xy(&north);
        let (ex, ey) = p.to_xy(&east);
        assert!(ny > 990.0 && nx.abs() < 20.0, "north -> ({nx},{ny})");
        assert!(ex > 990.0 && ey.abs() < 20.0, "east -> ({ex},{ey})");
    }
}
