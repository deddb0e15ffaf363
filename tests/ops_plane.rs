//! End-to-end test of the run's one metrics export: run a real
//! simulation and read its registry the way `xar simulate
//! --metrics-out` writes it, through `snapshot_json()` and the in-repo
//! JSON reader. The labeled families are there under their
//! `name{k="v"}` keys, the outcome counter agrees with the run's own
//! report, and no series is split by cluster bucket.

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::workload::{
    generate_trips, run_simulation, RideBackend as _, SimConfig, TripGenConfig, XarBackend,
};

// The name predates the removal of the rolling windows, the SLO engine
// and the HTTP server, and is listed in the tier-1 floor.
#[test]
fn ops_plane_serves_labeled_metrics_rolling_windows_and_alerts() {
    // A small but real city so every label family gets traffic.
    let graph = Arc::new(CityConfig::manhattan(16, 16, 7).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 128,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::FixedCount(12),
            ..Default::default()
        },
    ));
    let mut backend = XarBackend::new(XarEngine::new(region, EngineConfig::default()));
    let registry = backend.registry().expect("XAR backend keeps a registry");

    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 400,
            seed: 11,
            ..Default::default()
        },
    );
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());
    assert!(
        report.booked + report.created > 0,
        "simulation produced no rides"
    );

    let json = registry.snapshot_json();
    let doc = xar_obs::json::parse(&json).expect("snapshot JSON parses");
    let series = doc.as_object().expect("snapshot is one object");

    assert!(
        series.iter().all(|(key, _)| !key.contains("cluster=")),
        "a cluster-labeled series is back:\n{json}"
    );
    let booked = doc
        .get("sim.requests{outcome=\"booked\"}")
        .and_then(|v| v.as_u64());
    assert_eq!(
        booked,
        Some(report.booked as u64),
        "outcome counter:\n{json}"
    );
    let tiered = series.iter().any(|(key, v)| {
        key.starts_with("engine.search_ns{tier=")
            && v.get("count")
                .and_then(|c| c.as_u64())
                .is_some_and(|c| c > 0)
    });
    assert!(tiered, "no tier-labeled search samples:\n{json}");
}
