//! Ground truth for the routes the engine stores.
//!
//! Creation and booking route through `RegionIndex::router()`; this
//! test replays a generated day through the sharded engine and, after
//! every successful create and booking, compares each leg of the
//! affected ride's route — the way-points between two consecutive
//! via-points — with the path plain Dijkstra
//! (`ShortestPaths::driving(..).path`) finds on the same graph,
//! node for node. There is no second engine to agree with: the oracle
//! is the textbook algorithm on the real road graph, and city edge
//! lengths are jittered, so the shortest path it finds is the only one.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xar_core::{EngineConfig, RideId, RideOffer, RideRequest, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph, ShortestPaths};

const TRIPS: usize = 2_000;

fn region() -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(30, 30, 4242).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 700,
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

/// Every leg of `ride`'s route is the oracle's shortest path between
/// the leg's two via-point nodes. Returns the number of legs checked.
fn assert_legs_are_shortest_paths(eng: &ShardedXarEngine, g: &RoadGraph, id: RideId) -> usize {
    let engine = eng.read();
    let ride = engine.ride(id).expect("ride was just created or booked");
    let oracle = ShortestPaths::driving(g);
    for leg in ride.via_points.windows(2) {
        let stored = &ride.route.nodes()[leg[0]..=leg[1]];
        let (from, to) = (stored[0], stored[stored.len() - 1]);
        let want = oracle.path(from, to).expect("city is strongly connected");
        assert_eq!(
            stored,
            &want.nodes[..],
            "ride {id:?}: leg {from:?} -> {to:?} is not the Dijkstra path"
        );
    }
    ride.via_points.len() - 1
}

#[test]
fn every_stored_leg_is_the_dijkstra_path() {
    let region = region();
    let g = Arc::clone(region.graph());
    let n = g.node_count() as u32;
    let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 4);
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let mut matches = Vec::new();
    let (mut booked, mut created, mut legs) = (0usize, 0usize, 0usize);

    for i in 0..TRIPS {
        // Two hours of demand, in time order, so later trips find the
        // earlier ones' rides still on the road.
        let now_s = 8.0 * 3600.0 + 7_200.0 * i as f64 / TRIPS as f64;
        if i % 100 == 0 {
            eng.track_all(now_s);
        }
        let src = NodeId(rng.random_range(0..n));
        let dst = NodeId((src.0 + rng.random_range(1..n)) % n);
        let req = RideRequest {
            source: g.point(src),
            destination: g.point(dst),
            window_start_s: now_s,
            window_end_s: now_s + 1_200.0,
            walk_limit_m: 800.0,
        };
        if eng.search_into(&req, usize::MAX, &mut matches).is_err() {
            matches.clear();
        }
        let changed = match matches.iter().find_map(|m| eng.book_checked(m).ok()) {
            Some(outcome) => {
                booked += 1;
                outcome.ride
            }
            None => {
                created += 1;
                eng.create_ride(&RideOffer::simple(
                    g.point(src),
                    g.point(dst),
                    now_s,
                    3,
                    4_000.0,
                ))
                .expect("city is strongly connected")
            }
        };
        legs += assert_legs_are_shortest_paths(&eng, &g, changed);
    }

    // The replay must have exercised both write paths, and bookings
    // must have produced multi-leg routes.
    assert!(booked > TRIPS / 10, "only {booked} bookings");
    assert!(created > TRIPS / 10, "only {created} creations");
    assert!(legs > booked + created, "no multi-leg route was checked");
}
