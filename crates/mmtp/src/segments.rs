//! Extraction of geographic segments and hop points from trip plans —
//! the vocabulary both integration modes reason in.

use xar_geo::GeoPoint;
use xar_transit::{Leg, TransitNetwork, TripPlan};

/// A geographic portion of a trip plan that a shared ride could
/// substitute: a contiguous run of legs with known endpoints and
/// timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSegment {
    /// Index of the first leg covered.
    pub first_leg: usize,
    /// Index of the last leg covered (inclusive).
    pub last_leg: usize,
    /// Geographic start.
    pub from: GeoPoint,
    /// Geographic end.
    pub to: GeoPoint,
    /// Time the commuter reaches the segment start, absolute seconds.
    pub start_s: f64,
    /// Time the segment currently ends, absolute seconds.
    pub end_s: f64,
}

/// The start point of a leg (`net` resolves stop ids to coordinates).
pub fn leg_start_point(leg: &Leg, net: &TransitNetwork) -> GeoPoint {
    match leg {
        Leg::Walk { from, .. } | Leg::SharedRide { from, .. } => *from,
        Leg::WaitAt { point, .. } => *point,
        Leg::Wait { stop, .. } => net.stops[stop.index()].point,
        Leg::Transit { from, .. } => net.stops[from.index()].point,
    }
}

/// The end point of a leg.
pub fn leg_end_point(leg: &Leg, net: &TransitNetwork) -> GeoPoint {
    match leg {
        Leg::Walk { to, .. } | Leg::SharedRide { to, .. } => *to,
        Leg::WaitAt { point, .. } => *point,
        Leg::Wait { stop, .. } => net.stops[stop.index()].point,
        Leg::Transit { to, .. } => net.stops[to.index()].point,
    }
}

/// The absolute time the commuter reaches the start of each leg (one
/// entry per leg, plus the final arrival appended).
pub fn leg_start_times(plan: &TripPlan) -> Vec<f64> {
    let mut out = Vec::with_capacity(plan.legs.len() + 1);
    let mut clock = plan.departure_s;
    for leg in &plan.legs {
        out.push(clock);
        clock += leg.duration_s();
    }
    out.push(clock);
    out
}

/// The segment a shared ride should cover for the infeasible leg at
/// `leg_idx` (§IX.A): a long walk is replaced end-to-end; a long wait
/// is replaced *together with the transit leg it waits for* (riding
/// instead of waiting-then-riding), extending through any directly
/// following waits+rides until the next walk.
pub fn infeasible_segment(plan: &TripPlan, net: &TransitNetwork, leg_idx: usize) -> PlanSegment {
    let times = leg_start_times(plan);
    match &plan.legs[leg_idx] {
        Leg::Walk { .. } | Leg::SharedRide { .. } => PlanSegment {
            first_leg: leg_idx,
            last_leg: leg_idx,
            from: leg_start_point(&plan.legs[leg_idx], net),
            to: leg_end_point(&plan.legs[leg_idx], net),
            start_s: times[leg_idx],
            end_s: times[leg_idx + 1],
        },
        Leg::Wait { .. } | Leg::WaitAt { .. } | Leg::Transit { .. } => {
            // Cover from this wait through the final consecutive
            // transit leg (waits and rides chain until a walk).
            let mut last = leg_idx;
            while last + 1 < plan.legs.len()
                && matches!(
                    plan.legs[last + 1],
                    Leg::Wait { .. } | Leg::WaitAt { .. } | Leg::Transit { .. }
                )
            {
                last += 1;
            }
            PlanSegment {
                first_leg: leg_idx,
                last_leg: last,
                from: leg_start_point(&plan.legs[leg_idx], net),
                to: leg_end_point(&plan.legs[last], net),
                start_s: times[leg_idx],
                end_s: times[last + 1],
            }
        }
    }
}

/// The hop points of a plan for the Enhancer mode: origin, each
/// vehicle-to-vehicle transfer location, destination.
pub fn hop_points(
    plan: &TripPlan,
    net: &TransitNetwork,
    origin: GeoPoint,
    destination: GeoPoint,
) -> Vec<(GeoPoint, f64)> {
    let times = leg_start_times(plan);
    let mut out = vec![(origin, plan.departure_s)];
    let mut seen_vehicle = false;
    for (i, leg) in plan.legs.iter().enumerate() {
        if matches!(leg, Leg::Transit { .. } | Leg::SharedRide { .. }) {
            if seen_vehicle {
                // The point where this vehicle leg begins is a transfer
                // hop.
                out.push((leg_start_point(leg, net), times[i]));
            }
            seen_vehicle = true;
        }
    }
    out.push((destination, plan.arrival_s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_transit::{LineId, LineKind, StopId};

    fn net() -> TransitNetwork {
        let stops: Vec<xar_transit::Stop> = (0..4)
            .map(|i| xar_transit::Stop {
                id: StopId(i),
                point: GeoPoint::new(40.70 + 0.01 * f64::from(i), -74.0),
                node: xar_roadnet::NodeId(0),
            })
            .collect();
        let line = xar_transit::Line::with_headway(
            LineId(0),
            LineKind::Bus,
            vec![StopId(0), StopId(1), StopId(2), StopId(3)],
            vec![100.0, 100.0, 100.0],
            0.0,
            600.0,
            0.0,
            86_400.0,
        );
        TransitNetwork::new(stops, vec![line])
    }

    fn p(lat: f64) -> GeoPoint {
        GeoPoint::new(lat, -74.0)
    }

    fn sample_plan() -> TripPlan {
        TripPlan {
            departure_s: 0.0,
            arrival_s: 1000.0,
            legs: vec![
                Leg::Walk {
                    from: p(40.69),
                    to: p(40.70),
                    dist_m: 1400.0,
                    duration_s: 200.0,
                },
                Leg::Wait {
                    stop: StopId(0),
                    duration_s: 700.0,
                },
                Leg::Transit {
                    line: LineId(0),
                    from: StopId(0),
                    to: StopId(2),
                    board_s: 900.0,
                    alight_s: 950.0,
                },
                Leg::Walk {
                    from: p(40.72),
                    to: p(40.73),
                    dist_m: 70.0,
                    duration_s: 50.0,
                },
            ],
        }
    }

    #[test]
    fn start_times_accumulate() {
        let t = leg_start_times(&sample_plan());
        assert_eq!(t, vec![0.0, 200.0, 900.0, 950.0, 1000.0]);
    }

    #[test]
    fn walk_segment_is_single_leg() {
        let n = net();
        let s = infeasible_segment(&sample_plan(), &n, 0);
        assert_eq!((s.first_leg, s.last_leg), (0, 0));
        assert_eq!(s.from, p(40.69));
        assert_eq!(s.to, p(40.70));
        assert_eq!(s.start_s, 0.0);
        assert_eq!(s.end_s, 200.0);
    }

    #[test]
    fn wait_segment_extends_through_ride() {
        let n = net();
        let s = infeasible_segment(&sample_plan(), &n, 1);
        assert_eq!((s.first_leg, s.last_leg), (1, 2));
        assert_eq!(s.from, n.stops[0].point);
        assert_eq!(s.to, n.stops[2].point);
        assert_eq!(s.start_s, 200.0);
        assert_eq!(s.end_s, 950.0);
    }

    #[test]
    fn hop_points_single_vehicle_leg() {
        let n = net();
        let plan = sample_plan();
        let hops = hop_points(&plan, &n, p(40.69), p(40.73));
        // One vehicle leg: no intermediate hops, just origin + dest.
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].0, p(40.69));
        assert_eq!(hops[1].0, p(40.73));
    }

    #[test]
    fn hop_points_with_transfer() {
        let n = net();
        let mut plan = sample_plan();
        plan.legs.push(Leg::Wait {
            stop: StopId(2),
            duration_s: 100.0,
        });
        plan.legs.push(Leg::Transit {
            line: LineId(0),
            from: StopId(2),
            to: StopId(3),
            board_s: 1100.0,
            alight_s: 1200.0,
        });
        plan.arrival_s = 1200.0;
        let hops = hop_points(&plan, &n, p(40.69), p(40.74));
        assert_eq!(hops.len(), 3, "origin + 1 transfer + destination");
        assert_eq!(hops[1].0, n.stops[2].point);
    }
}
