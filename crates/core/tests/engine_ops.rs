//! End-to-end tests of the XAR runtime operations: create → search →
//! book → track, exercised against a synthetic city.

use std::sync::Arc;

use xar_core::{
    EngineConfig, RideMatch, RideOffer, RideRequest, RideStatus, SearchExplain, ShardedXarEngine,
    XarEngine, XarError,
};
use xar_discretize::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
use xar_geo::GeoPoint;
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

/// Shared fixture: a 20x20-block city (~2 km square) discretized with
/// enough clusters for interesting matches.
fn region() -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::test_city(77).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 600,
            ..Default::default()
        },
    );
    let cfg = RegionConfig {
        landmark_separation_m: 220.0,
        cluster_goal: ClusterGoal::Delta(150.0),
        assoc_drive_m: 1_200.0,
        max_walk_m: 900.0,
        cluster_distance_bound_m: 6_000.0,
        ..Default::default()
    };
    Arc::new(RegionIndex::build(graph, &pois, cfg))
}

fn engine() -> XarEngine {
    XarEngine::new(region(), EngineConfig::default())
}

/// Points near opposite corners of the city.
fn corners(g: &RoadGraph) -> (GeoPoint, GeoPoint) {
    let n = g.node_count() as u32;
    (g.point(NodeId(0)), g.point(NodeId(n - 1)))
}

fn cross_city_offer(g: &RoadGraph) -> RideOffer {
    let (a, b) = corners(g);
    RideOffer {
        source: a,
        destination: b,
        departure_s: 8.0 * 3600.0,
        seats: 3,
        detour_limit_m: 2_500.0,
        driver: None,
        via: Vec::new(),
    }
}

/// A request starting near the middle of the city going towards the
/// destination corner.
fn mid_to_corner_request(g: &RoadGraph) -> RideRequest {
    let n = g.node_count() as u32;
    let mid = g.point(NodeId(n / 2));
    let (_, b) = corners(g);
    RideRequest {
        source: mid,
        destination: b,
        window_start_s: 8.0 * 3600.0 - 600.0,
        window_end_s: 8.0 * 3600.0 + 1_800.0,
        walk_limit_m: 800.0,
    }
}

#[test]
fn create_populates_index() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let ride = eng.ride(id).unwrap();
    assert!(
        !ride.pass_clusters.is_empty(),
        "cross-city ride must pass clusters"
    );
    assert!(!eng.index().is_empty());
    // Every pass-through cluster lists the ride with detour 0.
    for p in &ride.pass_clusters {
        let e = eng.index().get(p.cluster, id).expect("pass cluster entry");
        assert_eq!(e.detour_m, 0.0);
    }
    // Reachable entries respect the detour budget.
    for p in &ride.pass_clusters {
        for &(c, detour, eta) in &p.reachable {
            assert!(detour <= ride.detour_remaining_m() + 1e-9);
            assert!(eta >= p.eta_s);
            let _ = c;
        }
    }
    let s = eng.stats().snapshot();
    let (creates, sps) = (s.creates, s.shortest_paths);
    assert_eq!(creates, 1);
    assert_eq!(sps, 1, "creation computes exactly one shortest path");
}

#[test]
fn create_rejects_bad_offers() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let mut offer = cross_city_offer(&g);
    offer.detour_limit_m = f64::NAN;
    assert!(matches!(
        eng.create_ride(&offer),
        Err(XarError::InvalidRequest(_))
    ));
    let mut offer = cross_city_offer(&g);
    offer.departure_s = f64::INFINITY;
    assert!(matches!(
        eng.create_ride(&offer),
        Err(XarError::InvalidRequest(_))
    ));
}

#[test]
fn search_finds_created_ride() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let req = mid_to_corner_request(&g);
    let matches = eng.search(&req, usize::MAX).unwrap();
    assert!(!matches.is_empty(), "request along the route must match");
    let m = matches
        .iter()
        .find(|m| m.ride == id)
        .expect("our ride matches");
    assert!(m.walk_total_m() <= req.walk_limit_m);
    assert!(m.eta_pickup_s < m.eta_dropoff_s);
    assert!(m.eta_pickup_s >= req.window_start_s && m.eta_pickup_s <= req.window_end_s);
    assert!(m.detour_est_m <= eng.ride(id).unwrap().detour_remaining_m());
}

#[test]
fn search_respects_walk_limit() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    eng.create_ride(&cross_city_offer(&g)).unwrap();
    let mut req = mid_to_corner_request(&g);
    req.walk_limit_m = 0.5; // nobody walks half a metre to a landmark
    match eng.search(&req, usize::MAX) {
        Err(XarError::NotServable) => {}
        Ok(ms) => assert!(ms.iter().all(|m| m.walk_total_m() <= 0.5)),
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn search_respects_time_window() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    eng.create_ride(&cross_city_offer(&g)).unwrap();
    let mut req = mid_to_corner_request(&g);
    // Window entirely before the ride departs.
    req.window_start_s = 0.0;
    req.window_end_s = 3_600.0;
    let matches = eng.search(&req, usize::MAX).unwrap();
    assert!(
        matches.is_empty(),
        "ride departs at 8am; a 0-1am window cannot match"
    );
}

#[test]
fn search_limit_truncates_sorted_by_walk() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    // Several similar rides.
    for i in 0..6 {
        let mut offer = cross_city_offer(&g);
        offer.departure_s += i as f64 * 60.0;
        eng.create_ride(&offer).unwrap();
    }
    let req = mid_to_corner_request(&g);
    let all = eng.search(&req, usize::MAX).unwrap();
    let one = eng.search(&req, 1).unwrap();
    if !all.is_empty() {
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], all[0]);
        for w in all.windows(2) {
            assert!(w[0].walk_total_m() <= w[1].walk_total_m());
        }
    }
}

#[test]
fn invalid_request_is_rejected() {
    let eng = engine();
    let g = Arc::clone(eng.region().graph());
    let mut req = mid_to_corner_request(&g);
    req.window_end_s = req.window_start_s - 10.0;
    assert!(matches!(
        eng.search(&req, 5),
        Err(XarError::InvalidRequest(_))
    ));
}

#[test]
fn booking_updates_ride_and_budget() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let req = mid_to_corner_request(&g);
    let matches = eng.search(&req, usize::MAX).unwrap();
    let m = *matches.iter().find(|m| m.ride == id).expect("match exists");

    let before = eng.ride(id).unwrap().clone();
    let outcome = eng.book_checked(&m).unwrap();
    let after = eng.ride(id).unwrap();

    assert_eq!(after.seats_available, before.seats_available - 1);
    assert_eq!(after.bookings.len(), 1);
    assert!(
        outcome.shortest_paths <= 4,
        "at most 4 SPs per booking (§VIII.B)"
    );
    assert!(outcome.actual_detour_m >= 0.0);
    assert!((after.detour_used_m - outcome.actual_detour_m).abs() < 1e-9);
    // The route now passes through the pick-up and drop-off landmarks.
    let pickup_node = eng.region().landmark(m.pickup_landmark).node;
    let dropoff_node = eng.region().landmark(m.dropoff_landmark).node;
    assert!(after.route.nodes().contains(&pickup_node));
    assert!(after.route.nodes().contains(&dropoff_node));
    // Via-points grew by 2 and remain ordered & consistent.
    assert_eq!(after.via_points.len(), before.via_points.len() + 2);
    for w in after.via_points.windows(2) {
        assert!(w[0].route_idx <= w[1].route_idx);
    }
    for v in &after.via_points {
        assert_eq!(after.route.nodes()[v.route_idx], v.node);
    }
    // Quality guarantee: realised detour within estimate + 4ε.
    let eps = eng.region().epsilon_m();
    assert!(
        outcome.actual_detour_m <= outcome.estimated_detour_m + 4.0 * eps + 1e-6,
        "actual {} vs est {} + 4ε {}",
        outcome.actual_detour_m,
        outcome.estimated_detour_m,
        4.0 * eps
    );
}

#[test]
fn booking_consumes_seats_until_full() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let mut offer = cross_city_offer(&g);
    offer.seats = 1;
    offer.detour_limit_m = 6_000.0;
    let id = eng.create_ride(&offer).unwrap();
    let req = mid_to_corner_request(&g);
    let matches = eng.search(&req, usize::MAX).unwrap();
    let m = *matches.iter().find(|m| m.ride == id).expect("match");
    eng.book_checked(&m).unwrap();
    // The filling booking de-lists the ride from every cluster.
    assert!(eng.ride(id).unwrap().pass_clusters.is_empty());
    let mut clusters = (0..eng.region().cluster_count() as u32).map(ClusterId);
    assert!(clusters.all(|c| eng.index().get(c, id).is_none()));
    // Ride is now full: stale match must fail, and search must skip it.
    assert!(matches!(eng.book_checked(&m), Err(XarError::NoSeats(_))));
    let again = eng.search(&req, usize::MAX).unwrap();
    assert!(
        again.iter().all(|x| x.ride != id),
        "full ride still returned by search"
    );
}

/// All matches of `req` on `eng` and their attribution.
fn search_explained(eng: &ShardedXarEngine, req: &RideRequest) -> (Vec<RideMatch>, SearchExplain) {
    let mut explain = SearchExplain::default();
    let found = eng.read().search_explained(req, usize::MAX, &mut explain);
    (found.unwrap(), explain)
}

/// The booking that sells a ride's last seat de-lists it before the
/// write lock is released: the search that found the ride, run again
/// after the filling `book_checked`, counts one candidate fewer and
/// returns everything else unchanged, so no later search sees it.
#[test]
fn the_filling_booking_leaves_every_published_snapshot() {
    let region = region();
    let g = Arc::clone(region.graph());
    let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
    // Three rides on one route: the middle one has one seat.
    let mut offer = cross_city_offer(&g);
    eng.create_ride(&offer).unwrap();
    (offer.departure_s, offer.seats) = (offer.departure_s + 60.0, 1);
    let id = eng.create_ride(&offer).unwrap();
    (offer.departure_s, offer.seats) = (offer.departure_s + 60.0, 3);
    eng.create_ride(&offer).unwrap();
    let req = mid_to_corner_request(&g);

    let (before, explain) = search_explained(&eng, &req);
    let m = *before.iter().find(|m| m.ride == id).expect("match");
    eng.book_checked(&m).unwrap();
    let (after, explain_after) = search_explained(&eng, &req);
    let others: Vec<RideMatch> = before.into_iter().filter(|m| m.ride != id).collect();
    assert_eq!((after.len(), &after), (2, &others));
    let mut want = explain;
    want.candidates -= 1;
    assert_eq!(explain_after, want);
    assert!(eng.read().ride(id).unwrap().pass_clusters.is_empty());
}

/// An offer with no seat is created but listed nowhere, on the engine
/// and through the handle: searches never count or return it, and
/// booking it fails.
#[test]
fn a_zero_seat_offer_is_created_but_never_listed() {
    let region = region();
    let g = Arc::clone(region.graph());
    let open_offer = cross_city_offer(&g);
    let mut zero_offer = open_offer.clone();
    zero_offer.seats = 0;
    let req = mid_to_corner_request(&g);
    let rides = |ms: &[RideMatch]| ms.iter().map(|m| m.ride).collect::<Vec<_>>();

    let mut eng = XarEngine::new(Arc::clone(&region), EngineConfig::default());
    let zero = eng.create_ride(&zero_offer).unwrap();
    assert!(eng.ride(zero).unwrap().pass_clusters.is_empty());
    assert!(eng.index().is_empty(), "a zero-seat offer is listed");
    let open = eng.create_ride(&open_offer).unwrap();
    let mut explain = SearchExplain::default();
    let found = eng.search_explained(&req, usize::MAX, &mut explain);
    let ms = found.unwrap();
    assert_eq!((rides(&ms), explain.candidates), (vec![open], 1));
    let mut stale = ms[0];
    stale.ride = zero;
    assert!(matches!(
        eng.book_checked(&stale),
        Err(XarError::NoSeats(_))
    ));
    // Tracking advances it and lists it nowhere.
    let halfway = zero_offer.departure_s + 0.5 * eng.ride(zero).unwrap().route.duration_s();
    let entries = eng.index().len();
    assert_eq!(eng.track_ride(zero, halfway).unwrap(), RideStatus::Active);
    assert!(eng.ride(zero).unwrap().progress_idx > 0);
    assert_eq!(eng.index().len(), entries);

    let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 4);
    let zero = eng.create_ride(&zero_offer).unwrap();
    assert!(eng.read().index().is_empty(), "a zero-seat offer is listed");
    let open = eng.create_ride(&open_offer).unwrap();
    assert!(!eng.read().index().is_empty());
    let (ms, explain) = search_explained(&eng, &req);
    assert_eq!((rides(&ms), explain.candidates), (vec![open], 1));
    stale = ms[0];
    stale.ride = zero;
    let refused = eng.book_checked(&stale);
    assert!(matches!(refused, Err(XarError::NoSeats(_))));
}

#[test]
fn booking_unknown_ride_fails() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let req = mid_to_corner_request(&g);
    let matches = eng.search(&req, usize::MAX).unwrap();
    let mut m = *matches.iter().find(|m| m.ride == id).expect("match");
    m.ride = xar_core::RideId(999_999);
    assert!(matches!(
        eng.book_checked(&m),
        Err(XarError::UnknownRide(_))
    ));
}

#[test]
fn double_booking_two_riders_shares_capacity() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let mut offer = cross_city_offer(&g);
    offer.detour_limit_m = 8_000.0;
    let id = eng.create_ride(&offer).unwrap();
    let req = mid_to_corner_request(&g);
    let m1 = eng
        .search(&req, usize::MAX)
        .unwrap()
        .into_iter()
        .find(|m| m.ride == id)
        .unwrap();
    eng.book_checked(&m1).unwrap();
    // A second, different request books the same ride after re-search.
    let n = g.node_count() as u32;
    let req2 = RideRequest {
        source: g.point(NodeId(n / 3)),
        destination: g.point(NodeId(n - 1)),
        window_start_s: req.window_start_s,
        window_end_s: req.window_end_s + 1_200.0,
        walk_limit_m: 800.0,
    };
    if let Some(m2) = eng
        .search(&req2, usize::MAX)
        .unwrap()
        .into_iter()
        .find(|m| m.ride == id)
    {
        let out = eng.book_checked(&m2).unwrap();
        assert!(out.shortest_paths <= 4);
        let ride = eng.ride(id).unwrap();
        assert_eq!(ride.bookings.len(), 2);
        assert_eq!(ride.seats_available, 1);
        assert_eq!(ride.via_points.len(), 6);
    }
}

#[test]
fn tracking_expires_passed_clusters() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let ride = eng.ride(id).unwrap();
    let first_cluster = ride.pass_clusters.first().unwrap().cluster;
    let depart = ride.departure_s;
    let halfway = depart + ride.route.duration_s() * 0.55;
    let status = eng.track_ride(id, halfway).unwrap();
    assert_eq!(status, RideStatus::Active);
    let ride = eng.ride(id).unwrap();
    assert!(ride.progress_idx > 0);
    // The departure cluster must have been crossed by 55% of a
    // cross-city route; unless it is still reachable as a detour, it no
    // longer lists the ride with detour 0.
    if let Some(e) = eng.index().get(first_cluster, id) {
        assert!(
            e.detour_m > 0.0,
            "crossed cluster still listed as pass-through"
        );
    }
    // No stale pass cluster behind the ride's progress.
    for p in &ride.pass_clusters {
        assert!(p.exit_idx >= ride.progress_idx);
    }
}

#[test]
fn tracking_to_completion_retires_ride() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let arrival = eng.ride(id).unwrap().arrival_s();
    let status = eng.track_ride(id, arrival + 60.0).unwrap();
    assert_eq!(status, RideStatus::Completed);
    assert!(eng.ride(id).is_none(), "completed ride still in the table");
    assert_eq!(
        eng.index().len(),
        0,
        "completed ride left index entries behind"
    );
    // Tracking it again is an error.
    assert!(matches!(
        eng.track_ride(id, arrival + 120.0),
        Err(XarError::UnknownRide(_))
    ));
}

#[test]
fn tracking_before_departure_is_a_noop() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let id = eng.create_ride(&cross_city_offer(&g)).unwrap();
    let entries = eng.index().len();
    let status = eng.track_ride(id, 0.0).unwrap();
    assert_eq!(status, RideStatus::Active);
    assert_eq!(eng.index().len(), entries);
    assert_eq!(eng.ride(id).unwrap().progress_idx, 0);
}

#[test]
fn searches_never_compute_shortest_paths() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    eng.create_ride(&cross_city_offer(&g)).unwrap();
    let sps_before = eng.stats().snapshot().shortest_paths;
    let req = mid_to_corner_request(&g);
    for _ in 0..50 {
        let _ = eng.search(&req, usize::MAX).unwrap();
    }
    let after = eng.stats().snapshot();
    let (searches, sps_after) = (after.searches, after.shortest_paths);
    assert_eq!(searches, 50);
    assert_eq!(
        sps_after, sps_before,
        "search performed a shortest-path computation"
    );
}

#[test]
fn booked_rider_stays_on_route_after_second_booking() {
    // The via-point machinery must keep earlier riders' pick-up and
    // drop-off nodes on the route through later bookings.
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let mut offer = cross_city_offer(&g);
    offer.detour_limit_m = 10_000.0;
    let id = eng.create_ride(&offer).unwrap();
    let req = mid_to_corner_request(&g);
    let m1 = eng
        .search(&req, usize::MAX)
        .unwrap()
        .into_iter()
        .find(|m| m.ride == id)
        .unwrap();
    let pickup1 = eng.region().landmark(m1.pickup_landmark).node;
    let dropoff1 = eng.region().landmark(m1.dropoff_landmark).node;
    eng.book_checked(&m1).unwrap();

    let n = g.node_count() as u32;
    let req2 = RideRequest {
        source: g.point(NodeId(n / 4)),
        destination: g.point(NodeId(3 * n / 4)),
        window_start_s: req.window_start_s,
        window_end_s: req.window_end_s + 1_800.0,
        walk_limit_m: 800.0,
    };
    if let Some(m2) = eng
        .search(&req2, usize::MAX)
        .unwrap()
        .into_iter()
        .find(|m| m.ride == id)
    {
        eng.book_checked(&m2).unwrap();
        let ride = eng.ride(id).unwrap();
        assert!(
            ride.route.nodes().contains(&pickup1),
            "rider 1 pick-up dropped from route"
        );
        assert!(
            ride.route.nodes().contains(&dropoff1),
            "rider 1 drop-off dropped from route"
        );
    }
}

#[test]
fn heap_bytes_grow_with_rides() {
    let mut eng = engine();
    let g = Arc::clone(eng.region().graph());
    let empty = eng.heap_bytes();
    for i in 0..10 {
        let mut offer = cross_city_offer(&g);
        offer.departure_s += i as f64 * 120.0;
        eng.create_ride(&offer).unwrap();
    }
    assert!(eng.heap_bytes() > empty);
}

/// A booking that finds no route on a later leg has still computed the
/// earlier ones: `engine.shortest_paths` counts them when they are
/// computed, so it never falls behind the `engine.sp_ns` sample count.
///
/// The fixture is a two-way lattice plus one dead-end landmark `T`
/// that can be driven *to* but not *out of*: with `T` as the drop-off,
/// legs `s1 → pick-up` and `pick-up → T` succeed and `T → s2` has no
/// route.
#[test]
fn failed_booking_still_counts_its_shortest_paths() {
    use xar_roadnet::{Poi, PoiKind, RoadClass, RoadGraphBuilder};

    const SIDE: usize = 6;
    let mut b = RoadGraphBuilder::new();
    let at =
        |r: usize, c: usize| GeoPoint::new(40.70 + 0.0027 * r as f64, -74.00 + 0.0036 * c as f64);
    let ids: Vec<NodeId> = (0..SIDE * SIDE)
        .map(|i| b.add_node(at(i / SIDE, i % SIDE)))
        .collect();
    for r in 0..SIDE {
        for c in 0..SIDE {
            // Distinct lengths (~300 m) so shortest paths are unique.
            let len = 300.0 + (r * SIDE + c) as f64;
            if c + 1 < SIDE {
                b.add_two_way(
                    ids[r * SIDE + c],
                    ids[r * SIDE + c + 1],
                    RoadClass::Street,
                    Some(len),
                );
            }
            if r + 1 < SIDE {
                b.add_two_way(
                    ids[r * SIDE + c],
                    ids[(r + 1) * SIDE + c],
                    RoadClass::Street,
                    Some(len + 0.5),
                );
            }
        }
    }
    let dead_end = b.add_node(at(SIDE, 2));
    b.add_edge(
        ids[(SIDE - 1) * SIDE + 2],
        dead_end,
        RoadClass::Street,
        Some(310.0),
    );
    let graph = Arc::new(b.build());

    let poi = |node: NodeId| Poi {
        point: graph.point(node),
        node,
        kind: PoiKind::TransitStop,
    };
    let mut pois: Vec<Poi> = ids.iter().map(|&n| poi(n)).collect();
    pois.push(poi(dead_end));
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 100.0,
            cluster_goal: ClusterGoal::Delta(150.0),
            ..Default::default()
        },
    ));
    let landmark_at = |node: NodeId| {
        region
            .landmarks()
            .iter()
            .find(|l| l.node == node)
            .expect("every POI became a landmark")
            .id
    };
    let (pickup, dropoff) = (landmark_at(ids[SIDE + 1]), landmark_at(dead_end));

    let mut eng = XarEngine::new(Arc::clone(&region), EngineConfig::default());
    let ride = eng
        .create_ride(&RideOffer::simple(
            graph.point(ids[0]),
            graph.point(ids[SIDE * SIDE - 1]),
            8.0 * 3600.0,
            3,
            5_000.0,
        ))
        .unwrap();
    assert_eq!(eng.stats().snapshot().shortest_paths, 1);

    let m = RideMatch {
        ride,
        pickup_cluster: region.cluster_of_landmark(pickup),
        pickup_landmark: pickup,
        dropoff_cluster: region.cluster_of_landmark(dropoff),
        dropoff_landmark: dropoff,
        walk_pickup_m: 0.0,
        walk_dropoff_m: 0.0,
        eta_pickup_s: 8.0 * 3600.0,
        eta_dropoff_s: 8.1 * 3600.0,
        detour_est_m: 0.0,
        pickup_seg: 0,
        dropoff_seg: 0,
    };
    assert!(matches!(eng.book_checked(&m), Err(XarError::NoRoute)));

    // 1 for the creation + 3 legs attempted by the failed booking.
    assert_eq!(eng.metrics().sp_ns.count(), 4);
    assert_eq!(
        eng.stats().snapshot().shortest_paths,
        eng.metrics().sp_ns.count()
    );
    // Nothing else about the ride moved.
    let r = eng.ride(ride).unwrap();
    assert_eq!(
        (r.seats_available, r.bookings.len(), r.via_points.len()),
        (3, 0, 2)
    );
}
