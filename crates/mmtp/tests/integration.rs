//! Integration tests: Aider and Enhancer modes against real XAR and
//! transit engines on a synthetic city.

use std::sync::Arc;

use xar_core::{EngineConfig, RideOffer, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_mmtp::{aid_plan, enhance_plan, AiderConfig, EnhancerConfig};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};
use xar_transit::{generate::generate_transit, TransitGenConfig, TransitRouter, WalkParams};

struct Fixture {
    graph: Arc<RoadGraph>,
    region: Arc<RegionIndex>,
    net: xar_transit::TransitNetwork,
}

fn fixture() -> Fixture {
    let graph = Arc::new(CityConfig::manhattan(30, 30, 123).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 900,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(150.0),
            max_walk_m: 900.0,
            ..Default::default()
        },
    ));
    // Sparse transit: few lines with long headways, so that plans have
    // long waits/walks the aider can fix.
    let net = generate_transit(
        &graph,
        &TransitGenConfig {
            subway_lines: 1,
            bus_lines: 2,
            bus_headway_s: 1_500.0,
            subway_headway_s: 900.0,
            ..Default::default()
        },
    );
    Fixture { graph, region, net }
}

fn xar_with_rides(f: &Fixture, n: usize) -> XarEngine {
    let mut eng = XarEngine::new(Arc::clone(&f.region), EngineConfig::default());
    let total = f.graph.node_count() as u32;
    for i in 0..n {
        let a = NodeId((i as u32 * 137) % total);
        let b = NodeId((i as u32 * 251 + total / 2) % total);
        let _ = eng.create_ride(&RideOffer {
            source: f.graph.point(a),
            destination: f.graph.point(b),
            departure_s: 8.0 * 3600.0 + (i as f64) * 120.0,
            seats: 3,
            detour_limit_m: 4_000.0,
            driver: None,
            via: Vec::new(),
        });
    }
    eng
}

#[test]
fn aider_preserves_or_improves_infeasible_plans() {
    let f = fixture();
    let router = TransitRouter::new(&f.graph, &f.net, WalkParams::default());
    let mut xar = xar_with_rides(&f, 60);
    let cfg = AiderConfig::default();

    let total = f.graph.node_count() as u32;
    let mut aided_any = false;
    for i in 0..20u32 {
        let a = f.graph.point(NodeId((i * 97) % total));
        let b = f.graph.point(NodeId((i * 389 + total / 3) % total));
        let Some(base) = router.plan(&a, &b, 8.0 * 3600.0 + f64::from(i) * 60.0) else {
            continue;
        };
        let aided = aid_plan(&base, b, &f.net, &router, &mut xar, &cfg);
        // The aided plan must be time-consistent.
        assert!(
            aided.plan.is_consistent(),
            "inconsistent aided plan: {:?}",
            aided.plan
        );
        assert!(aided.plan.arrival_s >= aided.plan.departure_s);
        if aided.replaced > 0 {
            aided_any = true;
            // Replaced plans contain shared-ride legs.
            assert!(aided
                .plan
                .legs
                .iter()
                .any(|l| matches!(l, xar_transit::Leg::SharedRide { .. })));
        }
    }
    assert!(
        aided_any,
        "no plan was ever aided — fixture too easy or aider broken"
    );
}

#[test]
fn aider_without_rides_resolves_nothing() {
    let f = fixture();
    let router = TransitRouter::new(&f.graph, &f.net, WalkParams::default());
    let mut xar = XarEngine::new(Arc::clone(&f.region), EngineConfig::default());
    let total = f.graph.node_count() as u32;
    let a = f.graph.point(NodeId(0));
    let b = f.graph.point(NodeId(total - 1));
    let base = router.plan(&a, &b, 8.0 * 3600.0).expect("plan");
    let aided = aid_plan(&base, b, &f.net, &router, &mut xar, &AiderConfig::default());
    assert_eq!(aided.replaced, 0);
    assert_eq!(aided.plan.legs, base.legs);
}

#[test]
fn enhancer_generates_bounded_search_volume() {
    let f = fixture();
    let router = TransitRouter::new(&f.graph, &f.net, WalkParams::default());
    let mut xar = xar_with_rides(&f, 40);
    let total = f.graph.node_count() as u32;
    let a = f.graph.point(NodeId(3));
    let b = f.graph.point(NodeId(total - 4));
    let base = router.plan(&a, &b, 8.5 * 3600.0).expect("plan");
    let k = base.hops();
    let out = enhance_plan(
        &base,
        a,
        b,
        &f.net,
        &router,
        &mut xar,
        &EnhancerConfig::default(),
    );
    let n_points = k + 2;
    let bound = if k <= 4 {
        n_points * (n_points - 1) / 2
    } else {
        2 * k + 1
    };
    assert!(out.searches <= bound, "{} searches for k={k}", out.searches);
    assert!(out.plan.is_consistent());
    // Enhancement never makes the plan worse on hops.
    assert!(out.plan.hops() <= base.hops());
}

#[test]
fn enhancer_substitution_reduces_hops_or_keeps_plan() {
    let f = fixture();
    let router = TransitRouter::new(&f.graph, &f.net, WalkParams::default());
    let mut xar = xar_with_rides(&f, 80);
    let total = f.graph.node_count() as u32;
    let mut substituted_any = false;
    for i in 0..200u32 {
        let a = f.graph.point(NodeId((i * 113) % total));
        let b = f.graph.point(NodeId((i * 211 + total / 2) % total));
        let Some(base) = router.plan(&a, &b, 8.0 * 3600.0 + f64::from(i) * 90.0) else {
            continue;
        };
        if base.hops() == 0 {
            continue;
        }
        let out = enhance_plan(
            &base,
            a,
            b,
            &f.net,
            &router,
            &mut xar,
            &EnhancerConfig::default(),
        );
        if let Some((i0, j0)) = out.substituted {
            substituted_any = true;
            assert!(j0 > i0);
            assert!(
                out.plan.hops() < base.hops()
                    || (out.plan.hops() == base.hops() && out.plan.arrival_s < base.arrival_s),
                "substitution did not improve the plan"
            );
        }
    }
    // It's acceptable (but suspicious) if no plan was enhanced; make it
    // a soft signal by requiring at least one substitution across all
    // trials — the fixture has 80 rides crossing the city.
    assert!(substituted_any, "enhancer never substituted a ride");
}
