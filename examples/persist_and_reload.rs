//! Deploy-once pre-processing: build a region, persist it, reload it
//! in a "fresh process" and serve requests — the §III deployment story.
//!
//! ```sh
//! cargo run --release --example persist_and_reload
//! ```

use std::sync::Arc;
use std::time::Instant;

use xhare_a_ride::core::{EngineConfig, RideOffer, RideRequest, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};

fn main() -> std::io::Result<()> {
    let path = std::env::temp_dir().join("xar_example_region.xarr");

    // ---- Pre-processing (run once per region) ----
    let t0 = Instant::now();
    let graph = Arc::new(CityConfig::manhattan(50, 50, 77).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 1_200,
            ..Default::default()
        },
    );
    let region = RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(250.0),
            ..Default::default()
        },
    );
    let build_time = t0.elapsed();
    region.save(&path)?;
    let file_size = std::fs::metadata(&path)?.len();
    println!(
        "pre-processed in {:.2?}: {} landmarks -> {} clusters (epsilon {:.0} m)",
        build_time,
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m()
    );
    println!(
        "persisted to {} ({:.1} KiB)",
        path.display(),
        file_size as f64 / 1024.0
    );
    drop(region);
    drop(graph);

    // ---- Deployment start-up (every process restart) ----
    let t1 = Instant::now();
    let region = Arc::new(RegionIndex::load(&path)?);
    println!(
        "reloaded in {:.2?} ({}x faster than rebuilding)",
        t1.elapsed(),
        (build_time.as_secs_f64() / t1.elapsed().as_secs_f64()) as u64
    );

    // The reloaded region serves immediately.
    let g = Arc::clone(region.graph());
    let n = g.node_count() as u32;
    let mut engine = XarEngine::new(region, EngineConfig::default());
    engine
        .create_ride(&RideOffer::simple(
            g.point(NodeId(0)),
            g.point(NodeId(n - 1)),
            8.0 * 3600.0,
            3,
            3_000.0,
        ))
        .expect("offer routable");
    let matches = engine
        .search(
            &RideRequest {
                source: g.point(NodeId(n / 2)),
                destination: g.point(NodeId(n - 3)),
                window_start_s: 7.5 * 3600.0,
                window_end_s: 9.0 * 3600.0,
                walk_limit_m: 800.0,
            },
            5,
        )
        .expect("serviceable");
    println!(
        "search on the reloaded region returned {} match(es)",
        matches.len()
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
