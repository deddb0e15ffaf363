//! Earliest-arrival multi-modal router (walk + transit).
//!
//! Plays the role OpenTripPlanner plays in the paper: given an origin,
//! a destination and a departure time, produce a [`TripPlan`] whose
//! legs are walks, waits and transit rides. Walking is routed over the
//! road graph (undirected — pedestrians ignore one-ways); boarding uses
//! the headway schedules of the lines; transfers use precomputed
//! stop-to-stop footpaths.
//!
//! The algorithm is a time-dependent Dijkstra over stops: labels are
//! earliest arrival times, edges are (a) riding a line from a stop to
//! any later stop of the line, and (b) walking a footpath to a nearby
//! stop. Access and egress walks connect the origin and destination to
//! all stops within a configurable radius.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use xar_geo::GeoPoint;
use xar_roadnet::{CostMetric, Direction, NodeLocator, RoadGraph, ShortestPaths};

use crate::model::{LineId, StopId, TransitNetwork};
use crate::plan::{Leg, TripPlan};

/// Walking parameters of the router.
#[derive(Debug, Clone)]
pub struct WalkParams {
    /// Walking speed, m/s.
    pub speed_mps: f64,
    /// Maximum access/egress walk from origin/destination to a stop,
    /// metres.
    pub max_access_m: f64,
    /// Maximum transfer footpath between stops, metres.
    pub max_transfer_m: f64,
    /// Maximum length of an all-walk trip (fallback when transit loses
    /// or is unavailable), metres.
    pub max_direct_walk_m: f64,
}

impl Default for WalkParams {
    fn default() -> Self {
        Self {
            speed_mps: 1.4,
            max_access_m: 800.0,
            max_transfer_m: 300.0,
            max_direct_walk_m: 2_500.0,
        }
    }
}

/// How a stop label was reached (for plan reconstruction).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Parent {
    /// Walked from the origin.
    Access { walk_m: f64 },
    /// Rode a line from another stop.
    Ride {
        line: LineId,
        from: StopId,
        board_s: f64,
        alight_s: f64,
    },
    /// Walked a footpath from another stop.
    Transfer { from: StopId, walk_m: f64 },
}

#[derive(Debug, Clone, Copy)]
struct QItem {
    time: f64,
    stop: u32,
}
impl PartialEq for QItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.stop == other.stop
    }
}
impl Eq for QItem {}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.stop.cmp(&self.stop))
    }
}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The multi-modal router, bound to a road graph and a transit network.
pub struct TransitRouter<'a> {
    graph: &'a RoadGraph,
    net: &'a TransitNetwork,
    params: WalkParams,
    locator: NodeLocator,
    /// Per stop: `(other stop, walking metres)` footpaths within
    /// `max_transfer_m`.
    footpaths: Vec<Vec<(StopId, f64)>>,
    /// node -> stops at that node (for access/egress mapping).
    stops_at_node: std::collections::HashMap<u32, Vec<StopId>>,
}

impl<'a> TransitRouter<'a> {
    /// Build the router (precomputes transfer footpaths).
    pub fn new(graph: &'a RoadGraph, net: &'a TransitNetwork, params: WalkParams) -> Self {
        let locator = NodeLocator::new(graph, 250.0);
        let walk = ShortestPaths::new(graph, CostMetric::Distance, Direction::Undirected);
        let mut stops_at_node: std::collections::HashMap<u32, Vec<StopId>> = Default::default();
        for s in &net.stops {
            stops_at_node.entry(s.node.0).or_default().push(s.id);
        }
        let mut footpaths = vec![Vec::new(); net.stops.len()];
        for s in &net.stops {
            for (node, d) in walk.bounded_from(s.node, params.max_transfer_m) {
                if let Some(others) = stops_at_node.get(&node.0) {
                    for &o in others {
                        if o != s.id {
                            footpaths[s.id.index()].push((o, d));
                        }
                    }
                }
            }
        }
        Self {
            graph,
            net,
            params,
            locator,
            footpaths,
            stops_at_node,
        }
    }

    /// Walking distances from `p` to all stops within the access
    /// radius, as `(stop, metres)`.
    fn access_stops(&self, p: &GeoPoint) -> Vec<(StopId, f64)> {
        let (node, snap_d) = self.locator.nearest(self.graph, p);
        let walk = ShortestPaths::new(self.graph, CostMetric::Distance, Direction::Undirected);
        let mut out = Vec::new();
        for (n, d) in walk.bounded_from(node, self.params.max_access_m) {
            if let Some(stops) = self.stops_at_node.get(&n.0) {
                for &s in stops {
                    out.push((s, d + snap_d));
                }
            }
        }
        out
    }

    /// Walking distance from `a` to `b` over the road graph, bounded by
    /// `max_direct_walk_m`.
    fn direct_walk(&self, a: &GeoPoint, b: &GeoPoint) -> Option<f64> {
        let (na, da) = self.locator.nearest(self.graph, a);
        let (nb, db) = self.locator.nearest(self.graph, b);
        let walk = ShortestPaths::new(self.graph, CostMetric::Distance, Direction::Undirected);
        let targets = [nb];
        let d = walk.to_targets(na, &targets, self.params.max_direct_walk_m)[0]?;
        let total = d + da + db;
        (total <= self.params.max_direct_walk_m).then_some(total)
    }

    /// Plan a trip from `origin` to `destination` departing at
    /// `depart_s`. Returns `None` when neither transit nor a direct
    /// walk can make the trip.
    pub fn plan(
        &self,
        origin: &GeoPoint,
        destination: &GeoPoint,
        depart_s: f64,
    ) -> Option<TripPlan> {
        let n = self.net.stops.len();
        let mut arrival = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<Parent>> = vec![None; n];
        let mut heap = BinaryHeap::new();

        for (s, walk_m) in self.access_stops(origin) {
            let t = depart_s + walk_m / self.params.speed_mps;
            if t < arrival[s.index()] {
                arrival[s.index()] = t;
                parent[s.index()] = Some(Parent::Access { walk_m });
                heap.push(QItem { time: t, stop: s.0 });
            }
        }

        // Egress table.
        let egress = self.access_stops(destination);
        let mut egress_walk = vec![f64::INFINITY; n];
        for &(s, d) in &egress {
            egress_walk[s.index()] = egress_walk[s.index()].min(d);
        }

        while let Some(QItem { time, stop }) = heap.pop() {
            if time > arrival[stop as usize] {
                continue;
            }
            let u = StopId(stop);
            // Ride every line serving u to all downstream stops.
            for &(line_id, pos) in &self.net.lines_at_stop[u.index()] {
                let line = &self.net.lines[line_id.index()];
                let Some(dep) = line.next_departure_for(pos, time) else {
                    continue;
                };
                let board_s = line.arrival_at(dep, pos);
                for pos2 in (pos + 1)..line.stops.len() {
                    let v = line.stops[pos2];
                    let alight_s = line.arrival_at(dep, pos2);
                    if alight_s < arrival[v.index()] {
                        arrival[v.index()] = alight_s;
                        parent[v.index()] = Some(Parent::Ride {
                            line: line_id,
                            from: u,
                            board_s,
                            alight_s,
                        });
                        heap.push(QItem {
                            time: alight_s,
                            stop: v.0,
                        });
                    }
                }
            }
            // Transfer footpaths.
            for &(v, walk_m) in &self.footpaths[u.index()] {
                let t = time + walk_m / self.params.speed_mps;
                if t < arrival[v.index()] {
                    arrival[v.index()] = t;
                    parent[v.index()] = Some(Parent::Transfer { from: u, walk_m });
                    heap.push(QItem { time: t, stop: v.0 });
                }
            }
        }

        // Best transit plan: arrive at some stop, walk out. Require at
        // least one Ride leg — otherwise it is just a walk.
        let mut best: Option<(StopId, f64)> = None;
        for s in 0..n {
            if !arrival[s].is_finite() || !egress_walk[s].is_finite() {
                continue;
            }
            // Must have ridden something to count as a transit plan.
            let mut cur = s;
            let mut rode = false;
            while let Some(p) = parent[cur] {
                match p {
                    Parent::Ride { from, .. } => {
                        rode = true;
                        cur = from.index();
                    }
                    Parent::Transfer { from, .. } => cur = from.index(),
                    Parent::Access { .. } => break,
                }
            }
            if !rode {
                continue;
            }
            let total = arrival[s] + egress_walk[s] / self.params.speed_mps;
            if best.is_none_or(|(_, t)| total < t) {
                best = Some((StopId(s as u32), total));
            }
        }

        let walk_only = self.direct_walk(origin, destination).map(|d| {
            let dur = d / self.params.speed_mps;
            TripPlan {
                departure_s: depart_s,
                arrival_s: depart_s + dur,
                legs: vec![Leg::Walk {
                    from: *origin,
                    to: *destination,
                    dist_m: d,
                    duration_s: dur,
                }],
            }
        });

        let transit_plan = best.map(|(last_stop, total)| {
            self.reconstruct(
                origin,
                destination,
                depart_s,
                total,
                last_stop,
                &arrival,
                &parent,
                &egress_walk,
            )
        });

        match (transit_plan, walk_only) {
            (Some(t), Some(w)) => Some(if w.arrival_s <= t.arrival_s { w } else { t }),
            (Some(t), None) => Some(t),
            (None, Some(w)) => Some(w),
            (None, None) => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn reconstruct(
        &self,
        origin: &GeoPoint,
        destination: &GeoPoint,
        depart_s: f64,
        total_arrival_s: f64,
        last_stop: StopId,
        arrival: &[f64],
        parent: &[Option<Parent>],
        egress_walk: &[f64],
    ) -> TripPlan {
        // Walk back the parent chain.
        let mut chain: Vec<(StopId, Parent)> = Vec::new();
        let mut cur = last_stop;
        loop {
            let p = parent[cur.index()].expect("reached stop has a parent");
            chain.push((cur, p));
            match p {
                Parent::Access { .. } => break,
                Parent::Ride { from, .. } | Parent::Transfer { from, .. } => cur = from,
            }
        }
        chain.reverse();

        let mut legs: Vec<Leg> = Vec::new();
        let mut clock = depart_s;
        for (stop, p) in &chain {
            match *p {
                Parent::Access { walk_m } => {
                    let dur = walk_m / self.params.speed_mps;
                    legs.push(Leg::Walk {
                        from: *origin,
                        to: self.net.stops[stop.index()].point,
                        dist_m: walk_m,
                        duration_s: dur,
                    });
                    clock += dur;
                }
                Parent::Transfer { from, walk_m } => {
                    let dur = walk_m / self.params.speed_mps;
                    legs.push(Leg::Walk {
                        from: self.net.stops[from.index()].point,
                        to: self.net.stops[stop.index()].point,
                        dist_m: walk_m,
                        duration_s: dur,
                    });
                    clock += dur;
                }
                Parent::Ride {
                    line,
                    from,
                    board_s,
                    alight_s,
                } => {
                    if board_s > clock + 1e-9 {
                        legs.push(Leg::Wait {
                            stop: from,
                            duration_s: board_s - clock,
                        });
                    }
                    legs.push(Leg::Transit {
                        line,
                        from,
                        to: *stop,
                        board_s,
                        alight_s,
                    });
                    clock = alight_s;
                }
            }
        }
        debug_assert!((clock - arrival[last_stop.index()]).abs() < 1e-6);
        let out_walk = egress_walk[last_stop.index()];
        if out_walk > 0.0 {
            let dur = out_walk / self.params.speed_mps;
            legs.push(Leg::Walk {
                from: self.net.stops[last_stop.index()].point,
                to: *destination,
                dist_m: out_walk,
                duration_s: dur,
            });
            clock += dur;
        }
        debug_assert!((clock - total_arrival_s).abs() < 1e-6);
        TripPlan {
            departure_s: depart_s,
            arrival_s: clock,
            legs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_transit, TransitGenConfig};
    use xar_roadnet::CityConfig;

    fn setup() -> (RoadGraph, TransitNetwork) {
        let g = CityConfig::test_city(31).generate();
        let net = generate_transit(&g, &TransitGenConfig::default());
        (g, net)
    }

    #[test]
    fn plans_a_cross_city_trip() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(0));
        let b = g.point(xar_roadnet::NodeId(g.node_count() as u32 - 1));
        let plan = router.plan(&a, &b, 8.0 * 3600.0).expect("plan exists");
        assert!(plan.arrival_s > plan.departure_s);
        assert!(
            plan.is_consistent(),
            "legs don't sum to travel time: {plan:?}"
        );
        assert!(!plan.legs.is_empty());
    }

    #[test]
    fn transit_plan_beats_walking_across_the_city_or_is_walk() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(0));
        let b = g.point(xar_roadnet::NodeId(g.node_count() as u32 - 1));
        let plan = router.plan(&a, &b, 8.0 * 3600.0).unwrap();
        // ~2.7 km diagonal: walking alone would be ≥ 1900 s. The plan
        // (whatever mix) must not be worse than walking the whole way.
        let crow = a.haversine_m(&b);
        let walk_time_bound = crow * 1.8 / 1.4;
        assert!(
            plan.travel_time_s() <= walk_time_bound + 600.0,
            "plan takes {}s vs naive walk bound {}s",
            plan.travel_time_s(),
            walk_time_bound
        );
    }

    #[test]
    fn short_trips_are_walked() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(0));
        let b = g.point(xar_roadnet::NodeId(1));
        let plan = router.plan(&a, &b, 8.0 * 3600.0).unwrap();
        assert_eq!(
            plan.vehicle_legs(),
            0,
            "a one-block trip should be all walk: {plan:?}"
        );
    }

    #[test]
    fn no_service_at_night_falls_back_to_walk_or_none() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(0));
        let b = g.point(xar_roadnet::NodeId(g.node_count() as u32 - 1));
        // 2 am: before first departures (5 am per config)... the router
        // may still board the 5 am service; the plan just waits. But at
        // 23:30 the service day is over.
        if let Some(plan) = router.plan(&a, &b, 23.5 * 3600.0) {
            assert_eq!(plan.vehicle_legs(), 0, "no transit after the service day");
        }
    }

    #[test]
    fn plan_times_are_monotone_in_legs() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(5));
        let b = g.point(xar_roadnet::NodeId(g.node_count() as u32 - 5));
        let plan = router.plan(&a, &b, 9.0 * 3600.0).unwrap();
        let mut clock = plan.departure_s;
        for leg in &plan.legs {
            if let Leg::Transit {
                board_s, alight_s, ..
            } = leg
            {
                assert!(*board_s >= clock - 1e-6, "board before arriving at stop");
                assert!(alight_s > board_s);
                clock = *alight_s;
            } else {
                clock += leg.duration_s();
            }
        }
        assert!((clock - plan.arrival_s).abs() < 1e-6);
    }

    #[test]
    fn waits_reflect_headway() {
        let (g, net) = setup();
        let router = TransitRouter::new(&g, &net, WalkParams::default());
        let a = g.point(xar_roadnet::NodeId(0));
        let b = g.point(xar_roadnet::NodeId(g.node_count() as u32 - 1));
        let plan = router.plan(&a, &b, 8.0 * 3600.0).unwrap();
        // No single wait should exceed the worst headway (720 s bus).
        for leg in &plan.legs {
            if let Leg::Wait { duration_s, .. } = leg {
                assert!(*duration_s <= 720.0 + 1e-6, "wait {duration_s}");
            }
        }
    }
}
