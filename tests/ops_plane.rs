//! End-to-end test of the run's one metrics export: run a real
//! simulation and read its registry the way `xar simulate
//! --metrics-out` writes it, through `snapshot_json()` and the in-repo
//! JSON reader. The key set is exactly the one EXPERIMENTS.md gives a
//! reader for, the labeled families are there under their
//! `name{k="v"}` keys, the outcome counter agrees with the run's own
//! report, and no series is split by cluster bucket.

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::workload::{
    generate_trips, run_simulation, RideBackend as _, SimConfig, TripGenConfig, XarBackend,
};

/// Every key a serial run's metrics export holds, sorted. Each has a
/// reader named in EXPERIMENTS.md ("Every key has a reader"); a series
/// added without one fails here.
const KEYS: [&str; 22] = [
    "engine.bookings",
    "engine.creates",
    "engine.searches",
    "engine.shortest_paths",
    "engine.sp_ns",
    "engine.tracks",
    "sim.reject_reason{reason=\"capacity_full\"}",
    "sim.reject_reason{reason=\"detour_budget_exceeded\"}",
    "sim.reject_reason{reason=\"invalid_request\"}",
    "sim.reject_reason{reason=\"no_cluster_candidates\"}",
    "sim.reject_reason{reason=\"no_route\"}",
    "sim.reject_reason{reason=\"not_servable\"}",
    "sim.reject_reason{reason=\"ordering_infeasible\"}",
    "sim.reject_reason{reason=\"served\"}",
    "sim.reject_reason{reason=\"stale_commit\"}",
    "sim.reject_reason{reason=\"unknown\"}",
    "sim.reject_reason{reason=\"walk_limit_exceeded\"}",
    "sim.reject_reason{reason=\"window_expired\"}",
    "sim.requests_total",
    "sim.requests{outcome=\"booked\"}",
    "sim.requests{outcome=\"created\"}",
    "sim.requests{outcome=\"unservable\"}",
];

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
    let mut keys: Vec<&str> = series.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, KEYS, "metrics export key set:\n{json}");
}
