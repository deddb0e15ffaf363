//! A full simulated day of dynamic ride sharing: the paper's §X.A.2
//! protocol over a rush-hour taxi workload, with live tracking, printing
//! the aggregate system behaviour.
//!
//! ```sh
//! cargo run --release --example city_simulation [-- <trip_count>]
//! ```

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::workload::{
    generate_trips, percentile_ns, run_simulation, SimConfig, TripGenConfig, XarBackend,
};

fn main() {
    let trip_count: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8_000);

    let graph = Arc::new(CityConfig::manhattan(60, 60, 2024).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 1_500,
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
    println!(
        "city: {} nodes | {} landmarks | {} clusters | epsilon {:.0} m",
        graph.node_count(),
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m()
    );

    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: trip_count,
            ..Default::default()
        },
    );
    println!(
        "workload: {} trips across the day (rush-hour peaks, hotspot skew)\n",
        trips.len()
    );

    let mut backend = XarBackend::new(XarEngine::new(region, EngineConfig::default()));
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());

    println!("== outcome ==");
    println!("booked (shared):    {:>8}", report.booked);
    println!("created (new car):  {:>8}", report.created);
    println!("unservable:         {:>8}", report.unservable);
    println!("share rate:         {:>7.1}%", report.share_rate() * 100.0);
    println!(
        "matches per search: {:>8.2}",
        report.matches_returned as f64 / report.looks.max(1) as f64
    );

    println!("\n== latency ==");
    println!(
        "search  avg {:>9.1} µs   p95 {:>9.1} µs   p99 {:>9.1} µs",
        report.mean_search_ms() * 1e3,
        percentile_ns(&report.search_ns, 95.0) / 1e3,
        percentile_ns(&report.search_ns, 99.0) / 1e3,
    );
    println!(
        "create  p50 {:>9.1} µs   p95 {:>9.1} µs",
        percentile_ns(&report.create_ns, 50.0) / 1e3,
        percentile_ns(&report.create_ns, 95.0) / 1e3,
    );
    println!(
        "book    p50 {:>9.1} µs   p95 {:>9.1} µs",
        percentile_ns(&report.book_ns, 50.0) / 1e3,
        percentile_ns(&report.book_ns, 95.0) / 1e3,
    );

    let s = backend.engine.stats().snapshot();
    let (searches, creates, bookings, tracks, sps) = (
        s.searches,
        s.creates,
        s.bookings,
        s.tracks,
        s.shortest_paths,
    );
    println!("\n== engine counters ==");
    println!(
        "searches {searches} | creates {creates} | bookings {bookings} | tracking sweeps {tracks}"
    );
    println!("shortest paths computed: {sps} (creation + booking only — zero on the search path)");
    println!("live rides at end of day: {}", backend.engine.ride_count());
    println!("index entries: {}", backend.engine.index().len());
    println!(
        "runtime state: {:.1} MiB",
        backend.engine.heap_bytes() as f64 / (1024.0 * 1024.0)
    );

    let errors = report.detour_errors_m();
    if !errors.is_empty() {
        let eps = backend.engine.region().epsilon_m();
        let within =
            errors.iter().filter(|&&e| e <= eps).count() as f64 / errors.len() as f64 * 100.0;
        println!("\ndetour-approximation error within epsilon: {within:.1}% of bookings");
    }
}
