//! End-to-end tests of the T-Share baseline engine.

use std::sync::Arc;

use xar_roadnet::{CityConfig, NodeId, RoadGraph};
use xar_tshare::engine::TShareRequest;
use xar_tshare::{DistanceMode, TShareConfig, TShareEngine, TShareMatch};

fn graph() -> Arc<RoadGraph> {
    Arc::new(CityConfig::test_city(55).generate())
}

fn engine(mode: DistanceMode) -> TShareEngine {
    let cfg = TShareConfig {
        grid_cell_m: 400.0,
        distance_mode: mode,
        ..Default::default()
    };
    TShareEngine::new(graph(), cfg)
}

fn cross_city(eng: &mut TShareEngine) -> xar_tshare::TaxiId {
    let g = Arc::clone(eng.graph());
    let n = g.node_count() as u32;
    eng.create_taxi(g.point(NodeId(0)), g.point(NodeId(n - 1)), 8.0 * 3600.0, 3)
        .expect("connected city")
}

fn mid_request(g: &RoadGraph) -> TShareRequest {
    let n = g.node_count() as u32;
    TShareRequest {
        pickup: g.point(NodeId(n / 2)),
        dropoff: g.point(NodeId(n - 1)),
        window_start_s: 8.0 * 3600.0 - 600.0,
        window_end_s: 8.0 * 3600.0 + 1_800.0,
    }
}

#[test]
fn create_indexes_cells_along_route() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let taxi = eng.taxi(id).unwrap();
    assert!(
        taxi.cells.len() >= 3,
        "cross-city route passes several 400 m cells"
    );
    // Cell visits are route-ordered with increasing ETA.
    for w in taxi.cells.windows(2) {
        assert!(w[0].route_idx < w[1].route_idx);
        assert!(w[0].eta_s <= w[1].eta_s);
    }
}

#[test]
fn search_finds_taxi_on_route() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let g = Arc::clone(eng.graph());
    let matches = eng.search(&mid_request(&g), usize::MAX);
    assert!(
        matches.iter().any(|m| m.taxi == id),
        "taxi passing the pick-up must match"
    );
    let m = matches.iter().find(|m| m.taxi == id).unwrap();
    assert!(m.detour_m <= 4_000.0);
    assert!(m.pickup_route_idx <= m.dropoff_route_idx);
}

#[test]
fn search_uses_shortest_paths_but_haversine_mode_does_not() {
    let mut sp_eng = engine(DistanceMode::ShortestPath);
    cross_city(&mut sp_eng);
    let g = Arc::clone(sp_eng.graph());
    let before = sp_eng
        .stats()
        .shortest_paths
        .load(std::sync::atomic::Ordering::Relaxed);
    let _ = sp_eng.search(&mid_request(&g), usize::MAX);
    let after = sp_eng
        .stats()
        .shortest_paths
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        after > before,
        "T-Share search must compute shortest paths (its defining cost)"
    );

    let mut hv_eng = engine(DistanceMode::Haversine);
    cross_city(&mut hv_eng);
    let before = hv_eng
        .stats()
        .shortest_paths
        .load(std::sync::atomic::Ordering::Relaxed);
    let _ = hv_eng.search(&mid_request(&g), usize::MAX);
    let after = hv_eng
        .stats()
        .shortest_paths
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        after, before,
        "haversine mode must not compute shortest paths in search"
    );
}

#[test]
fn search_k_truncates() {
    let mut eng = engine(DistanceMode::Haversine);
    for i in 0..5 {
        let g = Arc::clone(eng.graph());
        let n = g.node_count() as u32;
        eng.create_taxi(
            g.point(NodeId(i)),
            g.point(NodeId(n - 1 - i)),
            8.0 * 3600.0 + i as f64,
            3,
        );
    }
    let g = Arc::clone(eng.graph());
    let all = eng.search(&mid_request(&g), usize::MAX);
    let one = eng.search(&mid_request(&g), 1);
    assert!(one.len() <= 1);
    if !all.is_empty() {
        assert_eq!(one.len(), 1);
    }
}

#[test]
fn search_respects_window() {
    let mut eng = engine(DistanceMode::ShortestPath);
    cross_city(&mut eng);
    let g = Arc::clone(eng.graph());
    let mut req = mid_request(&g);
    req.window_start_s = 0.0;
    req.window_end_s = 1_800.0; // taxi departs 8am
    assert!(eng.search(&req, usize::MAX).is_empty());
}

#[test]
fn booking_extends_route_and_consumes_seat() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let g = Arc::clone(eng.graph());
    let m = *eng
        .search(&mid_request(&g), usize::MAX)
        .iter()
        .find(|m| m.taxi == id)
        .expect("match");
    let before = eng.taxi(id).unwrap().clone();
    let detour = eng.book(&m).expect("booking succeeds");
    let after = eng.taxi(id).unwrap();
    assert!(detour >= 0.0);
    assert_eq!(after.seats_available, before.seats_available - 1);
    assert_eq!(after.via_points.len(), 4);
    assert!(after.route.nodes().contains(&m.pickup_node));
    assert!(after.route.nodes().contains(&m.dropoff_node));
    for w in after.via_points.windows(2) {
        assert!(w[0] <= w[1]);
    }
}

/// A rider dropped at the taxi's destination leaves a zero-length last
/// segment. A later drop-off that falls in it must keep the stop list
/// ascending and on the route: the stop list `[0, 13, 45, 50, 81, 81]`
/// of a Figure 4 run once became `[0, 13, 46, 51, 56, 95, 91, 95]`,
/// because the segment's start was shifted along with its end.
#[test]
fn dropoff_into_zero_length_last_segment_keeps_stops_ascending() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let g = Arc::clone(eng.graph());
    let n = g.node_count() as u32;
    let route = eng.taxi(id).unwrap().route.clone();
    let last = route.len() - 1;
    let book = |eng: &mut TShareEngine, pickup: NodeId, dropoff: NodeId, dropoff_idx: usize| {
        let m = TShareMatch {
            taxi: id,
            pickup_node: pickup,
            dropoff_node: dropoff,
            pickup_route_idx: 0,
            dropoff_route_idx: dropoff_idx,
            pickup_eta_s: 8.0 * 3600.0,
            detour_m: 0.0,
        };
        eng.book(&m).expect("booking succeeds");
        let taxi = eng.taxi(id).unwrap();
        let vias = &taxi.via_points;
        assert!(
            vias.windows(2).all(|w| w[0] <= w[1]),
            "stops out of order: {vias:?}"
        );
        assert_eq!(vias.last(), Some(&(taxi.route.len() - 1)), "{vias:?}");
        assert_eq!(vias[0], 0);
        taxi.clone()
    };

    // First rider: picked up on the route, dropped at the destination.
    let first = book(&mut eng, route.nodes()[last / 3], route.nodes()[last], last);
    let v = &first.via_points;
    assert_eq!(v.len(), 4);
    assert_eq!(v[2], v[3], "a zero-length last segment");

    // Second rider: dropped off the route, inside the last segment.
    let (pickup, dropoff) = (NodeId(n / 2), NodeId(n - 2));
    let end = first.route.len() - 1;
    let second = book(&mut eng, pickup, dropoff, end);
    let v = &second.via_points;
    assert_eq!(v.len(), 6);
    let at = |k: usize| second.route.nodes()[v[k]];
    assert_eq!(at(1), pickup);
    assert_eq!(at(2), route.nodes()[last / 3], "first rider's pick-up");
    assert_eq!(at(3), route.nodes()[last], "first rider's drop-off");
    assert_eq!(at(4), dropoff);
    assert_eq!(at(5), route.nodes()[last], "the destination");
}

#[test]
fn booking_full_taxi_fails() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let g = Arc::clone(eng.graph());
    let n = g.node_count() as u32;
    let id = eng
        .create_taxi(g.point(NodeId(0)), g.point(NodeId(n - 1)), 8.0 * 3600.0, 1)
        .unwrap();
    let m = *eng
        .search(&mid_request(&g), usize::MAX)
        .iter()
        .find(|m| m.taxi == id)
        .expect("match");
    assert!(eng.book(&m).is_some());
    assert!(eng.book(&m).is_none(), "no seats left");
}

#[test]
fn tracking_retires_finished_taxis() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let arrival = eng.taxi(id).unwrap().arrival_s();
    assert_eq!(eng.track_all(arrival - 60.0), 0);
    assert!(eng.taxi(id).is_some());
    assert_eq!(eng.track_all(arrival + 60.0), 1);
    assert!(eng.taxi(id).is_none());
    // Index fully cleaned.
    assert_eq!(eng.heap_bytes(), {
        let empty = TShareEngine::new(Arc::clone(eng.graph()), TShareConfig::default());
        empty.heap_bytes()
    });
}

#[test]
fn tracking_removes_passed_cells_from_index() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let taxi = eng.taxi(id).unwrap();
    let depart = taxi.departure_s;
    let dur = taxi.route.duration_s();
    let first_cells = taxi.cells.len();
    eng.track_all(depart + dur * 0.6);
    let taxi = eng.taxi(id).unwrap();
    assert!(
        taxi.cells.len() < first_cells,
        "passed cells must be dropped"
    );
    assert!(taxi.progress_idx > 0);
}

#[test]
fn search_after_tracking_ignores_passed_pickup() {
    let mut eng = engine(DistanceMode::ShortestPath);
    let id = cross_city(&mut eng);
    let g = Arc::clone(eng.graph());
    let taxi = eng.taxi(id).unwrap();
    let late = taxi.departure_s + taxi.route.duration_s() * 0.9;
    eng.track_all(late);
    // A request at the start of the route can no longer match.
    let req = TShareRequest {
        pickup: g.point(NodeId(0)),
        dropoff: g.point(NodeId(g.node_count() as u32 / 2)),
        window_start_s: late,
        window_end_s: late + 3_600.0,
    };
    let matches = eng.search(&req, usize::MAX);
    assert!(
        matches.iter().all(|m| m.taxi != id),
        "taxi already passed the pick-up"
    );
}
