//! Quickstart: build a city, discretize it, offer a ride, search for a
//! match, book it, and track the ride — the whole XAR lifecycle in one
//! file.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, RideOffer, RideRequest, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};

fn main() {
    // 1. A road network. (In production this would come from OSM; the
    //    generator builds a Manhattan-style lattice with one-ways,
    //    avenues and streets.)
    let graph = Arc::new(CityConfig::manhattan(40, 40, 7).generate());
    println!(
        "city: {} intersections, {} road segments",
        graph.node_count(),
        graph.edge_count()
    );

    // 2. Pre-processing (paper §IV-§V): sample POIs, filter landmarks,
    //    cluster them with the GREEDYSEARCH bicriteria algorithm
    //    (δ = 250 m ⇒ every intra-cluster distance ≤ 4δ = 1 km).
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 800,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(250.0),
            ..Default::default()
        },
    ));
    println!(
        "discretization: {} landmarks -> {} clusters, realised epsilon = {:.0} m",
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m()
    );

    // 3. The runtime unit.
    let mut engine = XarEngine::new(Arc::clone(&region), EngineConfig::default());

    // A driver offers a ride across the city at 08:00, 3 free seats,
    // willing to detour up to 3 km.
    let n = graph.node_count() as u32;
    let offer = RideOffer {
        source: graph.point(NodeId(0)),
        destination: graph.point(NodeId(n - 1)),
        departure_s: 8.0 * 3600.0,
        seats: 3,
        detour_limit_m: 3_000.0,
        driver: None,
        via: Vec::new(),
    };
    let ride_id = engine.create_ride(&offer).expect("routable offer");
    let ride = engine.ride(ride_id).unwrap();
    println!(
        "\nride {ride_id:?}: {:.1} km route, {} pass-through clusters",
        ride.route.dist_m() / 1000.0,
        ride.pass_clusters.len()
    );

    // 4. A rider near the middle of the route wants to go the same way.
    // The city is a ~40x40 row-major lattice, so node n/2 + 20 sits
    // near the geometric centre — right by the offered route.
    let request = RideRequest {
        source: graph.point(NodeId(n / 2 + 20)),
        destination: graph.point(NodeId(n - 5)),
        window_start_s: 7.75 * 3600.0,
        window_end_s: 8.75 * 3600.0,
        walk_limit_m: 800.0,
    };
    let matches = engine.search(&request, 5).expect("serviceable request");
    println!(
        "\nsearch returned {} match(es) — no shortest path was computed:",
        matches.len()
    );
    for m in &matches {
        println!(
            "  ride {:?}: walk {:.0} m, pick-up {} at cluster {:?}, est. detour {:.0} m",
            m.ride,
            m.walk_total_m(),
            hhmm(m.eta_pickup_s),
            m.pickup_cluster,
            m.detour_est_m
        );
    }

    // 5. Book the best match (least walking).
    let outcome = engine.book_checked(&matches[0]).expect("booking succeeds");
    println!(
        "\nbooked: pick-up {} / drop-off {}, actual detour {:.0} m (estimated {:.0} m), {} shortest paths",
        hhmm(outcome.pickup_eta_s),
        hhmm(outcome.dropoff_eta_s),
        outcome.actual_detour_m,
        outcome.estimated_detour_m,
        outcome.shortest_paths
    );

    // 6. Track the ride halfway and to completion.
    let ride = engine.ride(ride_id).unwrap();
    let halfway = ride.departure_s + ride.route.duration_s() / 2.0;
    let arrival = ride.arrival_s();
    engine.track_ride(ride_id, halfway).unwrap();
    println!(
        "\nat {}: progress way-point {}, {} pass-through clusters still ahead",
        hhmm(halfway),
        engine.ride(ride_id).unwrap().progress_idx,
        engine.ride(ride_id).unwrap().pass_clusters.len()
    );
    let status = engine.track_ride(ride_id, arrival + 1.0).unwrap();
    println!(
        "at {}: ride {:?} -> {status:?}, index entries left: {}",
        hhmm(arrival),
        ride_id,
        engine.index().len()
    );
}

fn hhmm(s: f64) -> String {
    format!(
        "{:02}:{:02}",
        (s / 3600.0) as u32,
        ((s % 3600.0) / 60.0) as u32
    )
}
