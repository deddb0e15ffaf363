//! Tests for the §VI/§VII extension features: driver-specified
//! alternate routes and social-network match ranking.

use std::sync::Arc;

use xar_core::{EngineConfig, RideOffer, RideRequest, RiderId, SocialGraph, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

fn region() -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(25, 25, 555).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 600,
            ..Default::default()
        },
    );
    Arc::new(RegionIndex::build(
        graph,
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(200.0),
            ..Default::default()
        },
    ))
}

fn corner_points(g: &RoadGraph) -> (xar_geo::GeoPoint, xar_geo::GeoPoint) {
    let n = g.node_count() as u32;
    (g.point(NodeId(0)), g.point(NodeId(n - 1)))
}

#[test]
fn alternate_route_passes_declared_points() {
    let reg = region();
    let g = Arc::clone(reg.graph());
    let mut eng = XarEngine::new(reg, EngineConfig::default());
    let (a, b) = corner_points(&g);
    let n = g.node_count() as u32;
    // Force the route through a point well off the direct diagonal:
    // the NW corner area.
    let detour_pt = g.point(NodeId(n - 25)); // near the far edge
    let offer = RideOffer {
        source: a,
        destination: b,
        departure_s: 8.0 * 3600.0,
        seats: 3,
        detour_limit_m: 2_000.0,
        driver: None,
        via: vec![detour_pt],
    };
    let id = eng.create_ride(&offer).unwrap();
    let ride = eng.ride(id).unwrap();
    // Three via-points: source, declared point, destination.
    assert_eq!(ride.via_points.len(), 3);
    let via_node = ride.route.nodes()[ride.via_points[1]];
    assert_eq!(via_node, eng.region().snap_exact(&detour_pt));
    // The alternate route is at least as long as the direct one.
    let direct = {
        let mut e2 = XarEngine::new(Arc::clone(eng.region()), EngineConfig::default());
        let direct_id = e2
            .create_ride(&RideOffer::simple(a, b, 8.0 * 3600.0, 3, 2_000.0))
            .unwrap();
        e2.ride(direct_id).unwrap().route.dist_m()
    };
    assert!(ride.route.dist_m() >= direct - 1.0);
    // Two legs => two shortest-path computations at creation.
    let sps = eng.metrics().counts().shortest_paths;
    assert_eq!(sps, 2);
}

#[test]
fn alternate_route_creates_multiple_segments() {
    let reg = region();
    let g = Arc::clone(reg.graph());
    let mut eng = XarEngine::new(reg, EngineConfig::default());
    let (a, b) = corner_points(&g);
    let n = g.node_count() as u32;
    let offer = RideOffer {
        source: a,
        destination: b,
        departure_s: 8.0 * 3600.0,
        seats: 3,
        detour_limit_m: 2_000.0,
        driver: None,
        via: vec![g.point(NodeId(n / 3)), g.point(NodeId(2 * n / 3))],
    };
    let id = eng.create_ride(&offer).unwrap();
    let ride = eng.ride(id).unwrap();
    assert_eq!(ride.via_points.len(), 4, "source + 2 via + destination");
    for w in ride.via_points.windows(2) {
        assert!(w[0] <= w[1]);
    }
    // Pass clusters must carry valid segment ids (< 3 segments).
    for p in &ride.pass_clusters {
        assert!(p.seg < 3, "segment {} out of range", p.seg);
    }
}

#[test]
fn social_ranking_prefers_friends() {
    let reg = region();
    let g = Arc::clone(reg.graph());
    let mut eng = XarEngine::new(reg, EngineConfig::default());
    let (a, b) = corner_points(&g);
    let n = g.node_count() as u32;

    // Three near-identical rides with different drivers.
    let mut make = |driver: u64, shift_s: f64| {
        let mut offer = RideOffer::simple(a, b, 8.0 * 3600.0 + shift_s, 3, 3_000.0);
        offer.driver = Some(RiderId(driver));
        eng.create_ride(&offer).unwrap()
    };
    let stranger_ride = make(100, 0.0);
    let friend_ride = make(200, 30.0);
    let fof_ride = make(300, 60.0);

    let requester = RiderId(1);
    let mut social = SocialGraph::new();
    social.add_friendship(requester, RiderId(200)); // direct friend
    social.add_friendship(RiderId(200), RiderId(300)); // friend-of-friend

    let req = RideRequest {
        source: g.point(NodeId(n / 2)),
        destination: b,
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.0 * 3600.0,
        walk_limit_m: 800.0,
    };
    let mut matches = eng.search(&req, usize::MAX).unwrap();
    assert!(
        matches.len() >= 3,
        "all three rides should match, got {}",
        matches.len()
    );
    eng.rank_by_social(&mut matches, &social, requester);

    let pos = |ride| matches.iter().position(|m| m.ride == ride).unwrap();
    assert!(
        pos(friend_ride) < pos(fof_ride),
        "friend before friend-of-friend"
    );
    assert!(
        pos(fof_ride) < pos(stranger_ride),
        "friend-of-friend before stranger"
    );
}

#[test]
fn social_ranking_without_edges_preserves_walk_order() {
    let reg = region();
    let g = Arc::clone(reg.graph());
    let mut eng = XarEngine::new(reg, EngineConfig::default());
    let (a, b) = corner_points(&g);
    let n = g.node_count() as u32;
    for i in 0..4u64 {
        let mut offer = RideOffer::simple(a, b, 8.0 * 3600.0 + i as f64 * 45.0, 3, 3_000.0);
        offer.driver = Some(RiderId(i));
        eng.create_ride(&offer).unwrap();
    }
    let req = RideRequest {
        source: g.point(NodeId(n / 2)),
        destination: b,
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.0 * 3600.0,
        walk_limit_m: 800.0,
    };
    let matches = eng.search(&req, usize::MAX).unwrap();
    let mut ranked = matches.clone();
    eng.rank_by_social(&mut ranked, &SocialGraph::new(), RiderId(42));
    assert_eq!(matches, ranked, "empty social graph must not reorder");
}

#[test]
fn historical_speeds_delay_rush_hour_etas() {
    use xar_roadnet::HistoricalSpeeds;
    let reg = region();
    let g = Arc::clone(reg.graph());
    let (a, b) = corner_points(&g);
    let cfg = EngineConfig {
        historical: Some(HistoricalSpeeds::weekday_urban()),
        ..Default::default()
    };

    // Same route at 3 am (free flow) and 8 am (rush hour).
    let mut eng = XarEngine::new(Arc::clone(&reg), cfg);
    let night = eng
        .create_ride(&RideOffer::simple(a, b, 3.0 * 3600.0, 3, 3_000.0))
        .unwrap();
    let rush = eng
        .create_ride(&RideOffer::simple(a, b, 8.0 * 3600.0, 3, 3_000.0))
        .unwrap();
    let night_dur = eng.ride(night).unwrap().arrival_s() - 3.0 * 3600.0;
    let rush_dur = eng.ride(rush).unwrap().arrival_s() - 8.0 * 3600.0;
    assert!(
        rush_dur > night_dur * 1.5,
        "rush-hour trip {rush_dur:.0}s not slower than night trip {night_dur:.0}s"
    );

    // Tracking is consistent with the scaled clock: at departure +
    // half the scaled duration the ride is mid-route, not finished.
    let mid = 8.0 * 3600.0 + rush_dur / 2.0;
    let status = eng.track_ride(rush, mid).unwrap();
    assert_eq!(status, xar_core::RideStatus::Active);
    let ride = eng.ride(rush).unwrap();
    assert!(ride.progress_idx > 0);
    assert!(ride.progress_idx < ride.route.len() - 1);
}

#[test]
fn persisted_region_drives_identical_search() {
    let reg = region();
    let g = Arc::clone(reg.graph());
    let mut buf = Vec::new();
    reg.write_to(&mut buf).unwrap();
    let loaded = Arc::new(xar_discretize::RegionIndex::read_from(&mut buf.as_slice()).unwrap());

    let (a, b) = corner_points(&g);
    let offer = RideOffer::simple(a, b, 8.0 * 3600.0, 3, 3_000.0);
    let req = RideRequest {
        source: g.point(NodeId(g.node_count() as u32 / 2)),
        destination: b,
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.0 * 3600.0,
        walk_limit_m: 800.0,
    };

    let mut eng1 = XarEngine::new(reg, EngineConfig::default());
    eng1.create_ride(&offer).unwrap();
    let m1 = eng1.search(&req, usize::MAX).unwrap();

    let mut eng2 = XarEngine::new(loaded, EngineConfig::default());
    eng2.create_ride(&offer).unwrap();
    let m2 = eng2.search(&req, usize::MAX).unwrap();

    assert_eq!(m1, m2, "search results diverge on the persisted region");
}
