//! Engine scaling curve — `results/BENCH_engine.json`.
//!
//! Replays the same trip day through a fresh
//! [`xar_core::ShardedXarEngine`] at 1 and 2 worker threads (the host's
//! core count: more workers than cores measure the scheduler) and
//! records throughput plus search latency percentiles per point
//! (DESIGN.md §5e). This is the
//! machine-readable counterpart of `xar bench`: CI diffs the curve
//! across commits without scraping stdout.
//!
//! The curve is only meaningful relative to the recorded `"cores"`
//! field — every point above the core count measures lock overhead,
//! not parallel speed-up (EXPERIMENTS.md discusses how to read it).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xar-bench --bin bench_engine [-- out.json] [--scale F]
//! ```

use xar_bench::{scale_arg, BenchCity};
use xar_core::EngineConfig;
use xar_workload::{run_scaling_point, scaling_curve_json, ScalingPoint, SimConfig};

const THREAD_COUNTS: [usize; 2] = [1, 2];
const SHARDS: usize = 8;
const BASE_TRIPS: usize = 4_000;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "results/BENCH_engine.json".to_string());
    let scale = scale_arg();

    let city = BenchCity::sized(40, 40);
    let region = city.region_delta(250.0);
    let trips = city.trips(BASE_TRIPS, scale);
    let cfg = SimConfig::default();
    let engine_cfg = EngineConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "bench_engine: {} trips over {} clusters, {SHARDS} shards, {cores} core(s)",
        trips.len(),
        region.cluster_count()
    );

    let mut points: Vec<ScalingPoint> = Vec::new();
    for t in THREAD_COUNTS {
        let p = run_scaling_point(&region, &engine_cfg, &trips, &cfg, t, SHARDS);
        eprintln!(
            "  {} thread(s): {:>8.0} req/s, search p50 {:.1} µs p99 {:.1} µs, {} overbooked",
            p.threads,
            p.requests_per_s,
            p.search_p50_ns / 1e3,
            p.search_p99_ns / 1e3,
            p.overbooked_rides
        );
        assert_eq!(p.overbooked_rides, 0, "engine lost seat updates at {t} threads");
        points.push(p);
    }

    let meta = [
        ("rows", 40.0),
        ("cols", 40.0),
        ("trips", trips.len() as f64),
        ("scale", scale),
        ("clusters", region.cluster_count() as f64),
    ];
    let json = scaling_curve_json(&meta, cores, &points);

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write scaling curve");
    println!("{json}");
    println!("# written to {out_path}");
}
