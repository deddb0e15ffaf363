//! WGS-84 point locations and great-circle distances.

use crate::EARTH_RADIUS_M;

/// A point location given by a latitude and a longitude, in degrees.
///
/// This is the paper's atomic unit of location: "any point location,
/// given by a latitude and a longitude can be uniquely mapped to a grid,
/// then a landmark and finally a cluster" (§IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Valid range `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east. Valid range `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Create a point from latitude and longitude in degrees.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are outside the valid
    /// WGS-84 range or not finite.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(
            lat.is_finite() && (-90.0..=90.0).contains(&lat),
            "invalid latitude {lat}"
        );
        debug_assert!(
            lon.is_finite() && (-180.0..=180.0).contains(&lon),
            "invalid longitude {lon}"
        );
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in metres, by the haversine
    /// formula on a spherical Earth of radius [`EARTH_RADIUS_M`].
    ///
    /// Used as the "crow-flies" distance wherever the paper's T-Share
    /// comparison replaces shortest paths with the "haversine formula,
    /// which takes negligible constant time" (§X.B.2).
    ///
    /// ```
    /// use xar_geo::GeoPoint;
    /// let jfk = GeoPoint::new(40.6413, -73.7781);
    /// let lga = GeoPoint::new(40.7769, -73.8740);
    /// let d = jfk.haversine_m(&lga);
    /// assert!((16_000.0..18_500.0).contains(&d));
    /// ```
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial bearing from `self` towards `other`, in degrees clockwise
    /// from north, in `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The destination point reached by travelling `distance_m` metres
    /// along the great circle with initial `bearing_deg` (degrees
    /// clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        let ang = distance_m / EARTH_RADIUS_M;
        let brg = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * ang.cos() + lat1.cos() * ang.sin() * brg.cos()).asin();
        let lon2 =
            lon1 + (brg.sin() * ang.sin() * lat1.cos()).atan2(ang.cos() - lat1.sin() * lat2.sin());
        let lon2 = (lon2.to_degrees() + 540.0) % 360.0 - 180.0;
        GeoPoint::new(lat2.to_degrees(), lon2)
    }

    /// Linear interpolation between two points in lat/lon space.
    ///
    /// Adequate for the sub-kilometre segments this system works with;
    /// `t` is clamped to `[0, 1]`.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        GeoPoint::new(
            self.lat + (other.lat - self.lat) * t,
            self.lon + (other.lon - self.lon) * t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lower Manhattan-ish reference point used across the test suite.
    fn nyc() -> GeoPoint {
        GeoPoint::new(40.7128, -74.0060)
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let p = nyc();
        assert_eq!(p.haversine_m(&p), 0.0);
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = nyc();
        let b = GeoPoint::new(40.7614, -73.9776); // midtown
        assert!((a.haversine_m(&b) - b.haversine_m(&a)).abs() < 1e-9);
    }

    #[test]
    fn haversine_known_distance() {
        // JFK airport to LaGuardia airport: roughly 17.0 km great-circle.
        let jfk = GeoPoint::new(40.6413, -73.7781);
        let lga = GeoPoint::new(40.7769, -73.8740);
        let d = jfk.haversine_m(&lga);
        assert!((16_000.0..18_500.0).contains(&d), "got {d}");
    }

    #[test]
    fn haversine_one_degree_latitude() {
        // One degree of latitude is ~111.2 km everywhere.
        let a = GeoPoint::new(40.0, -74.0);
        let b = GeoPoint::new(41.0, -74.0);
        let d = a.haversine_m(&b);
        assert!((110_000.0..112_500.0).contains(&d), "got {d}");
    }

    #[test]
    fn destination_round_trip() {
        let p = nyc();
        for brg in [0.0, 45.0, 90.0, 180.0, 270.0, 359.0] {
            let q = p.destination(brg, 5_000.0);
            let d = p.haversine_m(&q);
            assert!((d - 5_000.0).abs() < 1.0, "bearing {brg}: got {d}");
        }
    }

    #[test]
    fn bearing_cardinal_directions() {
        let p = nyc();
        let north = p.destination(0.0, 1000.0);
        let east = p.destination(90.0, 1000.0);
        assert!(
            (p.bearing_deg(&north) - 0.0).abs() < 0.5
                || (p.bearing_deg(&north) - 360.0).abs() < 0.5
        );
        assert!((p.bearing_deg(&east) - 90.0).abs() < 0.5);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = GeoPoint::new(40.0, -74.0);
        let b = GeoPoint::new(41.0, -73.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.lat - 40.5).abs() < 1e-12);
        assert!((mid.lon + 73.5).abs() < 1e-12);
    }

    #[test]
    fn lerp_clamps_t() {
        let a = GeoPoint::new(40.0, -74.0);
        let b = GeoPoint::new(41.0, -73.0);
        assert_eq!(a.lerp(&b, -3.0), a);
        assert_eq!(a.lerp(&b, 7.0), b);
    }
}
