//! Engine state under real traced load, read from what a finished run
//! leaves behind. The `lock.write_hold_ns` series in the registry
//! snapshot (`--metrics-out`) counts every write-lock hold, one per
//! write, and the live rides add up to `ride_count()`. Search reads
//! the live index under the read lock, so there is no published copy
//! that could lag it. Which request was slow or rejected, and where its
//! time went, is read from the `--events-out` file (`xar logs`) and the
//! `--trace-out` file (`xar trace --top`, `--collapsed`).

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

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

// The name predates the removal of epoch reclamation, of the exemplars,
// of the HTTP server and of the shards, and is listed in the tier-1
// floor.
#[test]
fn debug_plane_exposes_exemplars_epoch_backlog_and_shard_state() {
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
    let engine = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 4);

    // --- Load with tracing on: 30 creates and a sweep are 31 writes.
    let rec = xar_obs::trace::recorder();
    rec.configure(xar_obs::TraceConfig::keep_all());
    rec.set_enabled(true);
    for i in 0..30 {
        let _ = engine.create_ride(&offer(&graph, i));
    }
    engine.track_all(8.0 * 3600.0);
    let n = graph.node_count() as u32;
    let req = RideRequest {
        source: graph.point(NodeId(n / 2)),
        destination: graph.point(NodeId(n - 1)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.5 * 3600.0,
        walk_limit_m: 800.0,
    };
    let mut matches = Vec::new();
    for _ in 0..20 {
        let _root = xar_obs::trace::root("request");
        let _ = engine.search_into(&req, 5, &mut matches);
    }
    rec.set_enabled(false);
    assert!(engine.ride_count() > 0, "no ride was created");

    // One write-lock hold per write, searches take none, and the lock
    // series carries no label.
    let json = engine.registry().snapshot_json();
    let doc = xar_obs::json::parse(&json).expect("snapshot JSON parses");
    let holds = doc
        .get("lock.write_hold_ns")
        .and_then(|v| v.get("count"))
        .and_then(|c| c.as_u64())
        .expect("aggregate write holds");
    assert_eq!(holds, 31, "{json}");
    assert!(!json.contains("lock.write_hold_ns{"), "{json}");

    // The live rides add up.
    let mut rides = 0;
    engine.for_each_ride(|_| rides += 1);
    assert_eq!(rides, engine.ride_count());
}
