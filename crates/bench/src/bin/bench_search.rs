//! Search-path micro-benchmark — `results/BENCH_search.json`.
//!
//! Isolates the snapshot read path: populates one
//! [`xar_core::ShardedXarEngine`] by replaying three quarters of a trip
//! day through the §X.A.2
//! protocol, then measures `search_into` latency percentiles at 1 and 2
//! searcher threads (the host's core count: more searchers than cores
//! measure the scheduler) over the same request set while a paced
//! background writer (fed the held-back quarter) keeps snapshot
//! publication live. Total searches per point are constant, so the
//! points differ only in concurrency (DESIGN.md §5f).
//!
//! On a multi-core host the curve should be flat: searches never block,
//! so added searchers cost nothing until cores run out. On a one-core
//! container the tail picks up scheduler preemption instead — read the
//! curve against the recorded `"cores"` field (EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xar-bench --bin bench_search [-- out.json] [--scale F]
//! ```

use xar_bench::{scale_arg, BenchCity};
use xar_core::EngineConfig;
use xar_workload::backend::request_of;
use xar_workload::searchbench::{populated_engine, run_search_point};
use xar_workload::{search_curve_json, SearchPoint, SimConfig};

const THREAD_COUNTS: [usize; 2] = [1, 2];
const SHARDS: usize = 8;
const BASE_TRIPS: usize = 4_000;
const BASE_SEARCHES: usize = 20_000;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "results/BENCH_search.json".to_string());
    let scale = scale_arg();

    let city = BenchCity::sized(40, 40);
    let region = city.region_delta(250.0);
    let trips = city.trips(BASE_TRIPS, scale);
    let cfg = SimConfig::default();
    let total_searches = ((BASE_SEARCHES as f64 * scale) as usize).max(500);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Populate on the first three quarters; the rest feeds the writer.
    let split = trips.len() * 3 / 4;
    let reqs: Vec<_> = trips.iter().map(|t| request_of(t, &cfg)).collect();
    eprintln!(
        "bench_search: {} requests, {total_searches} searches/point, \
         {SHARDS} shards, {cores} core(s)",
        reqs.len()
    );

    let mut rides_live = 0usize;
    let mut points: Vec<SearchPoint> = Vec::new();
    for t in THREAD_COUNTS {
        // A fresh engine per point: the background writer mutates state,
        // so reusing one engine would make later points measure a
        // different population.
        let engine =
            populated_engine(&region, &EngineConfig::default(), &trips[..split], &cfg, SHARDS);
        rides_live = engine.ride_count();
        let p = run_search_point(&engine, &reqs, &trips[split..], &cfg, t, total_searches);
        eprintln!(
            "  {} searcher(s): p50 {:.1} µs p99 {:.1} µs ({} searches, {} matches)",
            p.threads,
            p.p50_ns / 1e3,
            p.p99_ns / 1e3,
            p.searches,
            p.matches
        );
        points.push(p);
    }

    let meta = [
        ("rows", 40.0),
        ("cols", 40.0),
        ("trips", trips.len() as f64),
        ("scale", scale),
        ("clusters", region.cluster_count() as f64),
        ("rides_live", rides_live as f64),
        ("shards", SHARDS as f64),
    ];
    let json = search_curve_json(&meta, cores, &points);

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write search curve");
    println!("{json}");
    println!("# written to {out_path}");
}
