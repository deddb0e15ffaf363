//! Ride requests (§VII): "a ride request is characterised by the
//! following information: source location, destination location,
//! departure time window and walking threshold."

use xar_geo::GeoPoint;

use crate::error::XarError;

/// A rider's request for a shared ride.
#[derive(Debug, Clone)]
pub struct RideRequest {
    /// Where the rider starts.
    pub source: GeoPoint,
    /// Where the rider wants to go.
    pub destination: GeoPoint,
    /// Earliest acceptable pick-up time, absolute seconds.
    pub window_start_s: f64,
    /// Latest acceptable pick-up time, absolute seconds.
    pub window_end_s: f64,
    /// Maximum total walking distance (pick-up plus drop-off) the rider
    /// accepts, metres.
    pub walk_limit_m: f64,
}

impl RideRequest {
    /// Validate the request parameters.
    pub fn validate(&self) -> Result<(), XarError> {
        if !(self.window_start_s.is_finite() && self.window_end_s.is_finite()) {
            return Err(XarError::InvalidRequest("time window must be finite"));
        }
        if self.window_end_s < self.window_start_s {
            return Err(XarError::InvalidRequest("time window end precedes start"));
        }
        if !(self.walk_limit_m.is_finite() && self.walk_limit_m >= 0.0) {
            return Err(XarError::InvalidRequest(
                "walking limit must be non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RideRequest {
        RideRequest {
            source: GeoPoint::new(40.71, -74.00),
            destination: GeoPoint::new(40.72, -73.99),
            window_start_s: 100.0,
            window_end_s: 700.0,
            walk_limit_m: 400.0,
        }
    }

    #[test]
    fn valid_request_passes() {
        assert!(base().validate().is_ok());
    }

    #[test]
    fn inverted_window_fails() {
        let mut r = base();
        r.window_end_s = 50.0;
        assert!(matches!(r.validate(), Err(XarError::InvalidRequest(_))));
    }

    #[test]
    fn degenerate_window_is_allowed() {
        let mut r = base();
        r.window_end_s = r.window_start_s;
        assert!(r.validate().is_ok());
    }

    #[test]
    fn negative_walk_limit_fails() {
        let mut r = base();
        r.walk_limit_m = -1.0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn nan_window_fails() {
        let mut r = base();
        r.window_start_s = f64::NAN;
        assert!(r.validate().is_err());
    }
}
