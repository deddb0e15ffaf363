//! Synthetic GTFS-like feed generator.
//!
//! Stands in for the paper's New York GTFS data (obtained from the MTA
//! and "cleaned", §X.B.3). Subway lines run as long straight corridors
//! across the region with ~800 m stop spacing and short headways; bus
//! lines run along intermediate corridors with ~400 m spacing and
//! longer headways. Stops snap to the road network so walking legs are
//! routed on real streets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xar_geo::{BoundingBox, GeoPoint};
use xar_roadnet::{NodeLocator, RoadGraph};

use crate::model::{Line, LineId, LineKind, Stop, StopId, TransitNetwork};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TransitGenConfig {
    /// Number of north-south subway corridors.
    pub subway_lines: usize,
    /// Number of bus corridors (alternating orientations).
    pub bus_lines: usize,
    /// Subway stop spacing, metres.
    pub subway_stop_spacing_m: f64,
    /// Bus stop spacing, metres.
    pub bus_stop_spacing_m: f64,
    /// Subway headway, seconds.
    pub subway_headway_s: f64,
    /// Bus headway, seconds.
    pub bus_headway_s: f64,
    /// Service start (first departures), absolute seconds.
    pub service_start_s: f64,
    /// Service end (last departures), absolute seconds.
    pub service_end_s: f64,
    /// Emit subway lines with explicit GTFS-style timetables
    /// (`stop_times`) instead of headway frequencies. Semantics are
    /// identical when the timetable enumerates the same departures;
    /// this exercises the `Schedule::Timetable` path end-to-end.
    pub explicit_timetables: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransitGenConfig {
    fn default() -> Self {
        Self {
            subway_lines: 3,
            bus_lines: 6,
            subway_stop_spacing_m: 800.0,
            bus_stop_spacing_m: 400.0,
            subway_headway_s: 360.0,
            bus_headway_s: 720.0,
            service_start_s: 5.0 * 3600.0,
            service_end_s: 23.0 * 3600.0,
            explicit_timetables: false,
            seed: 0xBEEF,
        }
    }
}

/// Generate a transit network over `graph`. Every line is emitted in
/// both directions (as two one-directional [`Line`]s), like a GTFS feed
/// with two trips patterns per route.
pub fn generate_transit(graph: &RoadGraph, cfg: &TransitGenConfig) -> TransitNetwork {
    assert!(
        cfg.subway_headway_s > 0.0 && cfg.bus_headway_s > 0.0,
        "headways must be positive (got subway {}, bus {})",
        cfg.subway_headway_s,
        cfg.bus_headway_s
    );
    let bbox = BoundingBox::from_points(graph.node_ids().map(|n| graph.point(n)))
        .expect("non-empty graph");
    let locator = NodeLocator::new(graph, 250.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut stops: Vec<Stop> = Vec::new();
    let mut lines: Vec<Line> = Vec::new();
    // Deduplicate stops by snapped node.
    let mut stop_at_node: std::collections::HashMap<u32, StopId> = std::collections::HashMap::new();

    let corridor = |points: Vec<GeoPoint>,
                    kind: LineKind,
                    headway: f64,
                    stops_vec: &mut Vec<Stop>,
                    lines_vec: &mut Vec<Line>,
                    stop_at_node: &mut std::collections::HashMap<u32, StopId>,
                    phase: f64| {
        let mut ids: Vec<StopId> = Vec::with_capacity(points.len());
        for p in &points {
            let (node, _) = locator.nearest(graph, p);
            let id = *stop_at_node.entry(node.0).or_insert_with(|| {
                let id = StopId(stops_vec.len() as u32);
                stops_vec.push(Stop {
                    id,
                    point: graph.point(node),
                    node,
                });
                id
            });
            // A corridor may snap two consecutive planned stops to the
            // same node; skip duplicates.
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        if ids.len() < 2 {
            return;
        }
        let leg_times: Vec<f64> = ids
            .windows(2)
            .map(|w| {
                let a = stops_vec[w[0].index()].point;
                let b = stops_vec[w[1].index()].point;
                (a.haversine_m(&b) * 1.2 / kind.speed_mps()).max(30.0)
            })
            .collect();
        for dir in 0..2 {
            let (s, t) = if dir == 0 {
                (ids.clone(), leg_times.clone())
            } else {
                let mut s = ids.clone();
                s.reverse();
                let mut t = leg_times.clone();
                t.reverse();
                (s, t)
            };
            let mut line = Line::with_headway(
                LineId(lines_vec.len() as u32),
                kind,
                s,
                t,
                if kind == LineKind::Subway { 30.0 } else { 20.0 },
                headway,
                cfg.service_start_s + phase,
                cfg.service_end_s,
            );
            if cfg.explicit_timetables && kind == LineKind::Subway {
                // Materialize the same departures as an explicit
                // stop_times-style timetable.
                let mut departures = Vec::new();
                let mut dep = cfg.service_start_s + phase;
                while dep <= cfg.service_end_s + 1e-9 {
                    departures.push(dep);
                    dep += headway;
                }
                line.schedule = crate::model::Schedule::Timetable {
                    departures_s: departures,
                };
            }
            lines_vec.push(line);
        }
    };

    // Subway corridors: vertical (south→north) lines spread across the
    // width of the region.
    for i in 0..cfg.subway_lines {
        let frac = (i as f64 + 0.5) / cfg.subway_lines as f64;
        let lon = bbox.min.lon + frac * (bbox.max.lon - bbox.min.lon);
        let height = bbox.height_m();
        let n_stops = ((height / cfg.subway_stop_spacing_m) as usize).max(2);
        let pts: Vec<GeoPoint> = (0..=n_stops)
            .map(|k| {
                let lat = bbox.min.lat + (bbox.max.lat - bbox.min.lat) * k as f64 / n_stops as f64;
                GeoPoint::new(lat, lon)
            })
            .collect();
        let phase = rng.random::<f64>() * cfg.subway_headway_s;
        corridor(
            pts,
            LineKind::Subway,
            cfg.subway_headway_s,
            &mut stops,
            &mut lines,
            &mut stop_at_node,
            phase,
        );
    }

    // Bus corridors: alternating horizontal / vertical.
    for i in 0..cfg.bus_lines {
        let frac = (i as f64 + 0.5) / cfg.bus_lines as f64;
        let phase = rng.random::<f64>() * cfg.bus_headway_s;
        let pts: Vec<GeoPoint> = if i % 2 == 0 {
            // East-west at a given latitude.
            let lat = bbox.min.lat + frac * (bbox.max.lat - bbox.min.lat);
            let width = bbox.width_m();
            let n = ((width / cfg.bus_stop_spacing_m) as usize).max(2);
            (0..=n)
                .map(|k| {
                    let lon = bbox.min.lon + (bbox.max.lon - bbox.min.lon) * k as f64 / n as f64;
                    GeoPoint::new(lat, lon)
                })
                .collect()
        } else {
            let lon = bbox.min.lon + frac * (bbox.max.lon - bbox.min.lon);
            let height = bbox.height_m();
            let n = ((height / cfg.bus_stop_spacing_m) as usize).max(2);
            (0..=n)
                .map(|k| {
                    let lat = bbox.min.lat + (bbox.max.lat - bbox.min.lat) * k as f64 / n as f64;
                    GeoPoint::new(lat, lon)
                })
                .collect()
        };
        corridor(
            pts,
            LineKind::Bus,
            cfg.bus_headway_s,
            &mut stops,
            &mut lines,
            &mut stop_at_node,
            phase,
        );
    }

    TransitNetwork::new(stops, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::CityConfig;

    #[test]
    fn generates_stops_and_lines() {
        let g = CityConfig::test_city(9).generate();
        let net = generate_transit(&g, &TransitGenConfig::default());
        assert!(net.stop_count() >= 10, "stops: {}", net.stop_count());
        // 3 subway + 6 bus corridors, both directions each.
        assert_eq!(net.line_count(), 2 * (3 + 6));
        for line in &net.lines {
            assert!(line.stops.len() >= 2);
            assert!(line.leg_times_s.iter().all(|&t| t >= 30.0));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = CityConfig::test_city(9).generate();
        let a = generate_transit(&g, &TransitGenConfig::default());
        let b = generate_transit(&g, &TransitGenConfig::default());
        assert_eq!(a.stop_count(), b.stop_count());
        for (la, lb) in a.lines.iter().zip(&b.lines) {
            assert_eq!(la.stops, lb.stops);
            assert_eq!(la.schedule, lb.schedule);
        }
    }

    #[test]
    fn stops_snap_to_road_nodes() {
        let g = CityConfig::test_city(9).generate();
        let net = generate_transit(&g, &TransitGenConfig::default());
        for s in &net.stops {
            assert!(s.node.index() < g.node_count());
            // Stop location == the snapped node's location.
            assert_eq!(s.point.lat, g.point(s.node).lat);
        }
    }

    #[test]
    fn explicit_timetables_plan_identically() {
        // A headway schedule and the timetable that enumerates the same
        // departures must produce identical plans.
        use crate::router::{TransitRouter, WalkParams};
        let g = CityConfig::test_city(9).generate();
        let freq = generate_transit(&g, &TransitGenConfig::default());
        let tt = generate_transit(
            &g,
            &TransitGenConfig {
                explicit_timetables: true,
                ..Default::default()
            },
        );
        assert!(tt
            .lines
            .iter()
            .any(|l| matches!(l.schedule, crate::model::Schedule::Timetable { .. })));
        let r1 = TransitRouter::new(&g, &freq, WalkParams::default());
        let r2 = TransitRouter::new(&g, &tt, WalkParams::default());
        let n = g.node_count() as u32;
        for i in 0..10u32 {
            let a = g.point(xar_roadnet::NodeId((i * 37) % n));
            let b = g.point(xar_roadnet::NodeId((i * 91 + n / 2) % n));
            let t = 7.0 * 3600.0 + f64::from(i) * 600.0;
            let p1 = r1.plan(&a, &b, t);
            let p2 = r2.plan(&a, &b, t);
            match (&p1, &p2) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x.arrival_s - y.arrival_s).abs() < 1e-6,
                        "plans diverge at trial {i}"
                    )
                }
                (None, None) => {}
                _ => panic!("plan existence diverges at trial {i}"),
            }
        }
    }

    #[test]
    fn both_directions_exist() {
        let g = CityConfig::test_city(9).generate();
        let net = generate_transit(&g, &TransitGenConfig::default());
        // Line 0 and line 1 are opposite directions of the same corridor.
        let fwd = &net.lines[0];
        let bwd = &net.lines[1];
        let mut rev = bwd.stops.clone();
        rev.reverse();
        assert_eq!(fwd.stops, rev);
    }
}
