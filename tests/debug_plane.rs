//! Integration test of the live debug plane under real traced load:
//! the `/debug/shards` introspection route. `/metrics` carries no
//! exemplars, and routes of removed planes (`/debug/events`,
//! `/debug/profile`, `/debug/epoch`, `/alerts`, `/health`) are unknown:
//! which request was slow or rejected, and where its time went, is read
//! from the `--events-out` file (`xar logs`) and the `--trace-out` file
//! (`xar trace --top`, `--collapsed`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use xar_obs::serve::{serve, OpsPlane};
use xhare_a_ride::core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

/// Minimal HTTP GET; returns (status_code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to ops server");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|c| c.parse().ok()).expect("status code");
    (status, body.to_string())
}

fn offer(graph: &Arc<RoadGraph>, i: u32) -> RideOffer {
    let n = graph.node_count() as u32;
    RideOffer::simple(
        graph.point(NodeId((i * 37) % n)),
        graph.point(NodeId((i * 61 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i) * 60.0,
        3,
        3_000.0,
    )
}

// The name predates the removal of epoch reclamation and of the
// exemplars, and is listed in the tier-1 floor.
#[test]
fn debug_plane_exposes_exemplars_epoch_backlog_and_shard_state() {
    let graph = Arc::new(CityConfig::manhattan(16, 16, 7).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: 128, ..Default::default() });
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig { cluster_goal: ClusterGoal::FixedCount(12), ..Default::default() },
    ));
    let engine = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 4);

    // Ops plane over the engine's registry, debug hooks wired exactly
    // as `xar simulate --serve` wires them.
    let mut plane = OpsPlane::new(engine.registry());
    let hook_engine = engine.clone();
    plane.debug.shards = Some(Arc::new(move || hook_engine.shard_debug_json()));
    let server = serve("127.0.0.1:0", plane).expect("bind ops server");
    let addr = server.local_addr().to_string();

    // --- Load with tracing on: traced searches leave no trace ids in
    // the metric exposition.
    let rec = xar_obs::trace::recorder();
    rec.configure(xar_obs::TraceConfig::keep_all());
    rec.set_enabled(true);
    for i in 0..30 {
        let _ = engine.create_ride(&offer(&graph, i));
    }
    let n = graph.node_count() as u32;
    let req = RideRequest {
        source: graph.point(NodeId(n / 2)),
        destination: graph.point(NodeId(n - 1)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.5 * 3600.0,
        walk_limit_m: 800.0,
    };
    for _ in 0..20 {
        let _root = xar_obs::trace::root("request");
        let _ = engine.search(&req, 5);
    }
    rec.set_enabled(false);

    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(!body.contains(" # {"), "exemplar annotation on /metrics:\n{body}");
    let parsed = xar_obs::promtext::parse(&body).expect("exposition parses");
    assert!(parsed.with_name("engine_search_ns_count").any(|s| s.value > 0.0), "{body}");

    // /debug/shards: one record per shard, publishes kept up with
    // writes (no searchable-state lag).
    let (status, body) = http_get(&addr, "/debug/shards");
    assert_eq!(status, 200);
    let doc = xar_obs::json::parse(&body).expect("shards JSON parses");
    let shards = doc.get("shards").and_then(|v| v.as_array()).expect("shards array");
    assert_eq!(shards.len(), 4);
    let rides: u64 = shards.iter().filter_map(|s| s.get("rides").and_then(|v| v.as_u64())).sum();
    assert_eq!(rides as usize, engine.ride_count(), "{body}");
    for s in shards {
        assert_eq!(s.get("publish_lag").and_then(|v| v.as_u64()), Some(0), "{body}");
    }

    // No reclamation state to introspect, no alerts to report, the wide
    // events are in the events file, and a profile is a fold of the
    // trace file, not a route.
    for path in ["/debug/events", "/debug/profile", "/debug/epoch", "/alerts", "/health"] {
        assert_eq!(http_get(&addr, path).0, 404, "{path}");
    }
}
