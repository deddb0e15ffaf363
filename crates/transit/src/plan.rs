//! Multi-leg trip plans and their quality metrics.
//!
//! The Figure 6 experiment compares transport modes on "end-to-end
//! travel time, walking time and waiting time"; the Enhancer mode
//! (§IX.B) additionally reasons about the number of intermediate hops.
//! Both consume the [`TripPlan`] representation defined here.

use xar_geo::GeoPoint;

use crate::model::{LineId, StopId};

/// One leg of a trip plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Leg {
    /// Walk between two points.
    Walk {
        /// Start point.
        from: GeoPoint,
        /// End point.
        to: GeoPoint,
        /// Walking distance, metres.
        dist_m: f64,
        /// Walking duration, seconds.
        duration_s: f64,
    },
    /// Wait at a stop for a vehicle.
    Wait {
        /// The stop waited at.
        stop: StopId,
        /// Waiting duration, seconds.
        duration_s: f64,
    },
    /// Wait at an arbitrary point (e.g. a landmark, for a shared-ride
    /// pick-up produced by the MMTP integration).
    WaitAt {
        /// Where the commuter waits.
        point: GeoPoint,
        /// Waiting duration, seconds.
        duration_s: f64,
    },
    /// Ride a transit line between two stops.
    Transit {
        /// The line ridden.
        line: LineId,
        /// Boarding stop.
        from: StopId,
        /// Alighting stop.
        to: StopId,
        /// Boarding time, absolute seconds.
        board_s: f64,
        /// Alighting time, absolute seconds.
        alight_s: f64,
    },
    /// Ride a shared ride (produced by the MMTP integration, not by the
    /// transit router itself).
    SharedRide {
        /// Pick-up point.
        from: GeoPoint,
        /// Drop-off point.
        to: GeoPoint,
        /// Pick-up time, absolute seconds.
        board_s: f64,
        /// Drop-off time, absolute seconds.
        alight_s: f64,
    },
}

impl Leg {
    /// Duration of the leg in seconds.
    pub fn duration_s(&self) -> f64 {
        match self {
            Leg::Walk { duration_s, .. }
            | Leg::Wait { duration_s, .. }
            | Leg::WaitAt { duration_s, .. } => *duration_s,
            Leg::Transit {
                board_s, alight_s, ..
            }
            | Leg::SharedRide {
                board_s, alight_s, ..
            } => alight_s - board_s,
        }
    }
}

/// A complete trip plan from origin to destination.
#[derive(Debug, Clone, PartialEq)]
pub struct TripPlan {
    /// Departure time, absolute seconds.
    pub departure_s: f64,
    /// Arrival time, absolute seconds.
    pub arrival_s: f64,
    /// The legs, in order.
    pub legs: Vec<Leg>,
}

impl TripPlan {
    /// End-to-end travel time, seconds.
    pub fn travel_time_s(&self) -> f64 {
        self.arrival_s - self.departure_s
    }

    /// Total walking time, seconds.
    pub fn walk_time_s(&self) -> f64 {
        self.legs
            .iter()
            .filter(|l| matches!(l, Leg::Walk { .. }))
            .map(Leg::duration_s)
            .sum()
    }

    /// Total walking distance, metres.
    pub fn walk_dist_m(&self) -> f64 {
        self.legs
            .iter()
            .filter_map(|l| match l {
                Leg::Walk { dist_m, .. } => Some(*dist_m),
                _ => None,
            })
            .sum()
    }

    /// Total waiting time, seconds.
    pub fn wait_time_s(&self) -> f64 {
        self.legs
            .iter()
            .filter(|l| matches!(l, Leg::Wait { .. } | Leg::WaitAt { .. }))
            .map(Leg::duration_s)
            .sum()
    }

    /// Number of vehicle legs (transit + shared rides).
    pub fn vehicle_legs(&self) -> usize {
        self.legs
            .iter()
            .filter(|l| matches!(l, Leg::Transit { .. } | Leg::SharedRide { .. }))
            .count()
    }

    /// Number of intermediate hops (vehicle-to-vehicle transfers): the
    /// `k` of the Enhancer mode's `C(k+1, 2)` combination count.
    pub fn hops(&self) -> usize {
        self.vehicle_legs().saturating_sub(1)
    }

    /// Indices of legs that make the plan uncomfortable under the
    /// paper's Figure 6 thresholds: "segments with walking distance
    /// exceeding `max_walk_m` or waiting time exceeding `max_wait_s`
    /// for a single segment" are infeasible.
    pub fn infeasible_legs(&self, max_walk_m: f64, max_wait_s: f64) -> Vec<usize> {
        self.legs
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l {
                Leg::Walk { dist_m, .. } if *dist_m > max_walk_m => Some(i),
                Leg::Wait { duration_s, .. } | Leg::WaitAt { duration_s, .. }
                    if *duration_s > max_wait_s =>
                {
                    Some(i)
                }
                _ => None,
            })
            .collect()
    }

    /// Consistency check: legs are contiguous in time and the totals
    /// match the departure/arrival stamps (used by tests and debug
    /// assertions).
    pub fn is_consistent(&self) -> bool {
        let sum: f64 = self.legs.iter().map(Leg::duration_s).sum();
        (sum - self.travel_time_s()).abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64) -> GeoPoint {
        GeoPoint::new(lat, -74.0)
    }

    fn sample() -> TripPlan {
        TripPlan {
            departure_s: 1000.0,
            arrival_s: 2500.0,
            legs: vec![
                Leg::Walk {
                    from: p(40.70),
                    to: p(40.701),
                    dist_m: 140.0,
                    duration_s: 100.0,
                },
                Leg::Wait {
                    stop: StopId(3),
                    duration_s: 200.0,
                },
                Leg::Transit {
                    line: LineId(1),
                    from: StopId(3),
                    to: StopId(7),
                    board_s: 1300.0,
                    alight_s: 2100.0,
                },
                Leg::Wait {
                    stop: StopId(7),
                    duration_s: 100.0,
                },
                Leg::Transit {
                    line: LineId(2),
                    from: StopId(7),
                    to: StopId(9),
                    board_s: 2200.0,
                    alight_s: 2400.0,
                },
                Leg::Walk {
                    from: p(40.72),
                    to: p(40.721),
                    dist_m: 140.0,
                    duration_s: 100.0,
                },
            ],
        }
    }

    #[test]
    fn metrics() {
        let t = sample();
        assert_eq!(t.travel_time_s(), 1500.0);
        assert_eq!(t.walk_time_s(), 200.0);
        assert_eq!(t.walk_dist_m(), 280.0);
        assert_eq!(t.wait_time_s(), 300.0);
        assert_eq!(t.vehicle_legs(), 2);
        assert_eq!(t.hops(), 1);
        assert!(t.is_consistent());
    }

    #[test]
    fn infeasible_legs_by_threshold() {
        let t = sample();
        assert!(t.infeasible_legs(1_000.0, 600.0).is_empty());
        assert_eq!(t.infeasible_legs(100.0, 600.0), vec![0, 5]);
        assert_eq!(t.infeasible_legs(1_000.0, 150.0), vec![1]);
    }

    #[test]
    fn empty_plan_degenerates() {
        let t = TripPlan {
            departure_s: 10.0,
            arrival_s: 10.0,
            legs: vec![],
        };
        assert_eq!(t.travel_time_s(), 0.0);
        assert_eq!(t.hops(), 0);
        assert!(t.is_consistent());
    }

    #[test]
    fn shared_ride_counts_as_vehicle_leg() {
        let t = TripPlan {
            departure_s: 0.0,
            arrival_s: 100.0,
            legs: vec![Leg::SharedRide {
                from: p(40.70),
                to: p(40.71),
                board_s: 0.0,
                alight_s: 100.0,
            }],
        };
        assert_eq!(t.vehicle_legs(), 1);
        assert_eq!(t.hops(), 0);
    }
}
