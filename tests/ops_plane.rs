//! End-to-end test of the live operational plane: run a real
//! simulation with the embedded HTTP server attached, scrape
//! `/metrics` over a raw `TcpStream`, and validate the exposition with
//! the in-repo Prometheus-text parser (labeled series round-trip
//! through our own reader). The plane serves what the run records and
//! nothing time-windowed: there are no rolling series, alerts or
//! health routes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use xar_obs::serve::{serve, OpsPlane};
use xhare_a_ride::core::{EngineConfig, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::workload::{
    generate_trips, run_simulation, RideBackend as _, SimConfig, TripGenConfig, XarBackend,
};

/// Minimal HTTP GET; returns (status_code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to ops server");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

// The name predates the removal of the rolling windows and the SLO
// engine and is listed in the tier-1 floor.
#[test]
fn ops_plane_serves_labeled_metrics_rolling_windows_and_alerts() {
    // A small but real city so every label family gets traffic.
    let graph = Arc::new(CityConfig::manhattan(16, 16, 7).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: 128, ..Default::default() });
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig { cluster_goal: ClusterGoal::FixedCount(12), ..Default::default() },
    ));
    let mut backend = XarBackend::new(XarEngine::new(region, EngineConfig::default()));
    let registry = backend.registry().expect("XAR backend keeps a registry");

    let server = serve("127.0.0.1:0", OpsPlane::new(registry)).expect("bind ops server");
    let addr = server.local_addr().to_string();

    let trips = generate_trips(&graph, &TripGenConfig { count: 400, seed: 11, ..Default::default() });
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());
    assert!(report.booked + report.created > 0, "simulation produced no rides");

    // /metrics parses with the in-repo reader and carries the labeled
    // families; the outcome counter agrees with the run's own report.
    // No series is split by cluster bucket.
    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    let parsed = xar_obs::promtext::parse(&body).expect("own exposition must parse");

    assert!(
        parsed.samples.iter().all(|s| s.label("cluster").is_none()),
        "a cluster-labeled series is back:\n{body}"
    );
    let tiered: f64 = parsed
        .with_name("engine_search_ns_count")
        .filter(|s| s.label("tier").is_some())
        .map(|s| s.value)
        .sum();
    assert!(tiered > 0.0, "no tier-labeled search samples:\n{body}");
    let booked = parsed.find("sim_requests", &[("outcome", "booked")]);
    assert_eq!(booked.map(|s| s.value), Some(report.booked as f64), "outcome counter:\n{body}");

    // /snapshot is the JSON dump; the time-windowed routes are gone and
    // answer like any unknown path.
    let (status, snap) = http_get(&addr, "/snapshot");
    assert_eq!(status, 200);
    assert!(xar_obs::json::parse(&snap).is_ok(), "snapshot JSON parses");

    for path in ["/alerts", "/health", "/nope"] {
        assert_eq!(http_get(&addr, path).0, 404, "{path}");
    }

    drop(server); // Drop shuts the listener down; must not hang.
}
