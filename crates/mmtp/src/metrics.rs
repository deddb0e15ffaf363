//! Trip-quality aggregates (Figure 6) and the look-to-book arithmetic
//! (§X.B.2).

use xar_transit::TripPlan;

/// Aggregated quality of one transport mode over a set of served
/// trips — the four bars of Figure 6 plus car usage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeQuality {
    /// Trips aggregated.
    pub trips: usize,
    /// Total end-to-end travel time, seconds.
    pub travel_time_s: f64,
    /// Total walking time, seconds.
    pub walk_time_s: f64,
    /// Total waiting time, seconds.
    pub wait_time_s: f64,
    /// Number of distinct cars used to serve the trips (taxi: one per
    /// trip; ride sharing: one per created ride; transit: zero).
    pub cars_used: usize,
}

impl ModeQuality {
    /// Fold one trip plan into the aggregate.
    pub fn add_plan(&mut self, plan: &TripPlan) {
        self.trips += 1;
        self.travel_time_s += plan.travel_time_s();
        self.walk_time_s += plan.walk_time_s();
        self.wait_time_s += plan.wait_time_s();
    }

    /// Mean travel time per trip, seconds.
    pub fn avg_travel_time_s(&self) -> f64 {
        if self.trips == 0 {
            0.0
        } else {
            self.travel_time_s / self.trips as f64
        }
    }

    /// Mean walking time per trip, seconds.
    pub fn avg_walk_time_s(&self) -> f64 {
        if self.trips == 0 {
            0.0
        } else {
            self.walk_time_s / self.trips as f64
        }
    }

    /// Mean waiting time per trip, seconds.
    pub fn avg_wait_time_s(&self) -> f64 {
        if self.trips == 0 {
            0.0
        } else {
            self.wait_time_s / self.trips as f64
        }
    }
}

/// The paper's look-to-book estimate (§X.B.2): with `plans_per_request`
/// trip plans returned per MMTP request (Go-LA: 8), `hops` intermediate
/// hops per plan (Go-LA: 3, i.e. 4 legs), and an `adoption` fraction of
/// commuters actually booking (paper: 1 in 10), the ratio of XAR
/// searches to bookings is
/// `plans_per_request × C(hops+1, 2) / adoption`.
pub fn look_to_book_ratio(plans_per_request: usize, hops: usize, adoption: f64) -> f64 {
    assert!(
        adoption > 0.0 && adoption <= 1.0,
        "adoption must be in (0, 1]"
    );
    let combos = (hops + 1) * hops / 2; // C(hops+1, 2)
    let searches = plans_per_request as f64 * combos as f64;
    searches / adoption
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_geo::GeoPoint;
    use xar_transit::Leg;

    #[test]
    fn go_la_arithmetic_gives_480() {
        // "8 trip plans for each request ... 4 legs (i.e. 3 hops) ...
        //  8 * C(3+1, 2) = 48 ride-sharing searches ... 1 in every 10
        //  persons opts for ride-sharing, the look-to-book ratio becomes
        //  as high as 10 * 48 = 480."
        let r = look_to_book_ratio(8, 3, 0.1);
        assert_eq!(r, 480.0);
    }

    #[test]
    fn mode_quality_aggregates() {
        let p = GeoPoint::new(40.7, -74.0);
        let plan = TripPlan {
            departure_s: 0.0,
            arrival_s: 600.0,
            legs: vec![
                Leg::Walk {
                    from: p,
                    to: p,
                    dist_m: 100.0,
                    duration_s: 80.0,
                },
                Leg::WaitAt {
                    point: p,
                    duration_s: 120.0,
                },
                Leg::SharedRide {
                    from: p,
                    to: p,
                    board_s: 200.0,
                    alight_s: 600.0,
                },
            ],
        };
        let mut q = ModeQuality::default();
        q.add_plan(&plan);
        q.add_plan(&plan);
        q.cars_used = 1;
        assert_eq!(q.trips, 2);
        assert_eq!(q.avg_travel_time_s(), 600.0);
        assert_eq!(q.avg_walk_time_s(), 80.0);
        assert_eq!(q.avg_wait_time_s(), 120.0);
    }

    #[test]
    fn empty_quality_is_zero() {
        let q = ModeQuality::default();
        assert_eq!(q.avg_travel_time_s(), 0.0);
        assert_eq!(q.avg_walk_time_s(), 0.0);
    }

    #[test]
    #[should_panic(expected = "adoption")]
    fn zero_adoption_panics() {
        let _ = look_to_book_ratio(8, 3, 0.0);
    }
}
