//! Multi-modal commuting with ride-share integration (paper §IX): plan
//! a transit trip, then let XAR repair its painful segments (Aider
//! mode) and try whole-segment substitutions (Enhancer mode).
//!
//! ```sh
//! cargo run --release --example multimodal_commute
//! ```

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, RideOffer, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::mmtp::{aid_plan, enhance_plan, AiderConfig, EnhancerConfig};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
use xhare_a_ride::transit::{
    generate::generate_transit, Leg, TransitGenConfig, TransitRouter, TripPlan, WalkParams,
};

fn describe(plan: &TripPlan, label: &str) {
    println!(
        "{label}: {:.1} min travel | {:.1} min walking | {:.1} min waiting | {} vehicle leg(s), {} hop(s)",
        plan.travel_time_s() / 60.0,
        plan.walk_time_s() / 60.0,
        plan.wait_time_s() / 60.0,
        plan.vehicle_legs(),
        plan.hops()
    );
    for leg in &plan.legs {
        match leg {
            Leg::Walk {
                dist_m, duration_s, ..
            } => {
                println!(
                    "    walk    {:>6.0} m  ({:.1} min)",
                    dist_m,
                    duration_s / 60.0
                )
            }
            Leg::Wait { stop, duration_s } => {
                println!(
                    "    wait    at stop {:?} ({:.1} min)",
                    stop,
                    duration_s / 60.0
                )
            }
            Leg::WaitAt { duration_s, .. } => {
                println!(
                    "    wait    at pick-up landmark ({:.1} min)",
                    duration_s / 60.0
                )
            }
            Leg::Transit {
                line,
                from,
                to,
                board_s,
                alight_s,
            } => println!(
                "    transit line {:?} {:?} -> {:?} ({:.1} min)",
                line,
                from,
                to,
                (alight_s - board_s) / 60.0
            ),
            Leg::SharedRide {
                board_s, alight_s, ..
            } => {
                println!("    XAR ride ({:.1} min)", (alight_s - board_s) / 60.0)
            }
        }
    }
}

fn main() {
    let graph = Arc::new(CityConfig::manhattan(50, 50, 99).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 1_200,
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

    // Sparse transit: long headways mean painful waits — the scenario
    // ride sharing exists to fix.
    let net = generate_transit(
        &graph,
        &TransitGenConfig {
            subway_lines: 2,
            bus_lines: 3,
            bus_headway_s: 1_500.0,
            subway_headway_s: 900.0,
            ..Default::default()
        },
    );
    let router = TransitRouter::new(&graph, &net, WalkParams::default());
    println!(
        "transit: {} stops, {} lines",
        net.stop_count(),
        net.line_count()
    );

    // Populate XAR with commuter ride offers.
    let mut xar = XarEngine::new(Arc::clone(&region), EngineConfig::default());
    let n = graph.node_count() as u32;
    let mut created = 0;
    for i in 0..150u32 {
        let offer = RideOffer {
            source: graph.point(NodeId((i * 131) % n)),
            destination: graph.point(NodeId((i * 197 + n / 2) % n)),
            departure_s: 8.0 * 3600.0 + f64::from(i) * 45.0,
            seats: 3,
            detour_limit_m: 4_000.0,
            driver: None,
            via: Vec::new(),
        };
        created += usize::from(xar.create_ride(&offer).is_ok());
    }
    println!("ride pool: {created} offers\n");

    // The commuter: cross-town at 08:10.
    let origin = graph.point(NodeId(7));
    let destination = graph.point(NodeId(n - 11));
    let depart = 8.0 * 3600.0 + 600.0;

    let base = router
        .plan(&origin, &destination, depart)
        .expect("transit plan exists");
    describe(&base, "\n[PT only]  ");
    let bad = base.infeasible_legs(1_000.0, 600.0);
    println!(
        "    -> {} infeasible leg(s) under the 1 km / 10 min thresholds",
        bad.len()
    );

    // Aider mode.
    let aided = aid_plan(
        &base,
        destination,
        &net,
        &router,
        &mut xar,
        &AiderConfig::default(),
    );
    describe(&aided.plan, "\n[Aider]    ");
    println!(
        "    -> {} segment(s) replaced by shared rides, {} unresolved",
        aided.replaced, aided.unresolved
    );

    // Enhancer mode (on the original plan, fresh engine view).
    let enhanced = enhance_plan(
        &base,
        origin,
        destination,
        &net,
        &router,
        &mut xar,
        &EnhancerConfig::default(),
    );
    describe(&enhanced.plan, "\n[Enhancer] ");
    match enhanced.substituted {
        Some((i, j)) => println!(
            "    -> substituted hop segment ({i}, {j}) after {} XAR searches",
            enhanced.searches
        ),
        None => println!(
            "    -> no substitution improved the plan ({} searches)",
            enhanced.searches
        ),
    }
}
