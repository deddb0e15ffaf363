//! Search-path micro-benchmark driver (`results/BENCH_search.json`).
//!
//! The engine-scaling curve ([`crate::parallel`]) measures the whole
//! closed-loop §X.A.2 protocol — searches, books and creates compete
//! for the same wall clock, so search latency is entangled with write
//! cost. This module isolates the **read path**: a fixed, pre-populated
//! [`ShardedXarEngine`] is hammered by `N` searcher threads running
//! [`ShardedXarEngine::search_into`] over a shared request set, while
//! one background writer keeps snapshot publication live (a paced
//! create / track mix). Because searches take no engine lock (see
//! `xar-core`'s `snapshot` module), the latency distribution should be
//! *flat in `N`* up to the core count — the before/after evidence for
//! the snapshot read path lives in `results/BENCH_search.json`, schema
//! in EXPERIMENTS.md.
//!
//! Every searcher reuses one result buffer and its thread-local
//! scratch, so the measured loop is the zero-allocation hot path that
//! `xar-core/tests/snapshot_alloc.rs` guards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xar_core::{RideMatch, RideRequest, ShardedXarEngine};

use crate::backend::{offer_of, ShardedXarBackend};
use crate::report::percentile_ns;
use crate::sim::{run_simulation, SimConfig};
use crate::trips::Trip;

/// Replay `trips` serially through the §X.A.2 protocol into a fresh
/// `shards`-shard engine and return it populated — the fixed state the
/// search micro-bench reads.
pub fn populated_engine(
    region: &Arc<xar_discretize::RegionIndex>,
    engine_cfg: &xar_core::EngineConfig,
    trips: &[Trip],
    cfg: &SimConfig,
    shards: usize,
) -> ShardedXarEngine {
    let mut backend = ShardedXarBackend::new(ShardedXarEngine::new(
        Arc::clone(region),
        engine_cfg.clone(),
        shards,
    ));
    let _ = run_simulation(&mut backend, trips, cfg);
    backend.engine
}

/// One measured point of the search micro-bench: latency percentiles of
/// the snapshot search path at a fixed searcher-thread count.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// Searcher threads (the background writer is extra).
    pub threads: usize,
    /// Searches measured across all threads.
    pub searches: u64,
    /// Matches returned across all measured searches.
    pub matches: u64,
    /// Median search latency, nanoseconds.
    pub p50_ns: f64,
    /// Tail search latency, nanoseconds.
    pub p99_ns: f64,
}

impl SearchPoint {
    /// This point as one JSON object (the element schema of the
    /// `points` array in `results/BENCH_search.json`, see
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut w = xar_obs::json::JsonWriter::new();
        w.begin_object();
        w.key("threads");
        w.number_u64(self.threads as u64);
        w.key("searches");
        w.number_u64(self.searches);
        w.key("matches");
        w.number_u64(self.matches);
        w.key("search_p50_ns");
        w.number_f64(self.p50_ns);
        w.key("search_p99_ns");
        w.number_f64(self.p99_ns);
        w.end_object();
        w.finish()
    }
}

/// Measure one [`SearchPoint`]: `threads` searchers split
/// `total_searches` calls to [`ShardedXarEngine::search_into`] over
/// `reqs` (round-robin, each thread reusing one result buffer), while a
/// background writer paces creates from `writer_feed` and periodic
/// tracking sweeps so snapshot publication stays active throughout.
///
/// The total search count is constant in `threads`, so points of a
/// curve differ only in concurrency, not in work.
pub fn run_search_point(
    engine: &ShardedXarEngine,
    reqs: &[RideRequest],
    writer_feed: &[Trip],
    cfg: &SimConfig,
    threads: usize,
    total_searches: usize,
) -> SearchPoint {
    assert!(!reqs.is_empty(), "search bench needs at least one request");
    let threads = threads.max(1);
    let per_thread = (total_searches / threads).max(1);
    let stop = AtomicBool::new(false);
    let mut latencies: Vec<u64> = Vec::with_capacity(per_thread * threads);
    let mut matches = 0u64;
    std::thread::scope(|scope| {
        let stop_ref = &stop;
        let writer = scope.spawn(move || {
            let mut fed = 0usize;
            // The tracking clock follows the feed's own timestamps, so
            // the writer never races ahead of the trip day and retires
            // the population out from under the searchers — every point
            // of a curve sees the same state evolution.
            let mut now = writer_feed.first().map_or(0.0, |t| t.pickup_s);
            while !stop_ref.load(Ordering::Acquire) {
                if fed < writer_feed.len() {
                    let trip = &writer_feed[fed];
                    now = trip.pickup_s;
                    let _ = engine.create_ride(&offer_of(trip, cfg));
                    fed += 1;
                    if fed.is_multiple_of(16) {
                        engine.track_all(now);
                    }
                } else {
                    // Feed drained: keep snapshot publication alive with
                    // sweeps at a frozen clock.
                    engine.track_all(now);
                }
                // Paced: writes are milliseconds (shortest paths), and
                // on few-core hosts an unthrottled writer would turn
                // the searchers' tail into pure scheduler preemption.
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out: Vec<RideMatch> = Vec::new();
                    let mut lats: Vec<u64> = Vec::with_capacity(per_thread);
                    let mut hits = 0u64;
                    // Warm the scratch and the buffer.
                    for req in reqs.iter().take(64) {
                        let _ = engine.search_into(req, usize::MAX, &mut out);
                    }
                    for i in 0..per_thread {
                        let req = &reqs[(t + i * threads) % reqs.len()];
                        let t0 = Instant::now();
                        let ok = engine.search_into(req, usize::MAX, &mut out).is_ok();
                        lats.push(t0.elapsed().as_nanos() as u64);
                        if ok {
                            hits += out.len() as u64;
                        }
                    }
                    (lats, hits)
                })
            })
            .collect();
        for h in handles {
            let (lats, hits) = h.join().expect("search bench worker panicked");
            latencies.extend_from_slice(&lats);
            matches += hits;
        }
        stop.store(true, Ordering::Release);
        writer.join().expect("search bench writer panicked");
    });
    SearchPoint {
        threads,
        searches: latencies.len() as u64,
        matches,
        p50_ns: percentile_ns(&latencies, 50.0),
        p99_ns: percentile_ns(&latencies, 99.0),
    }
}

/// Assemble a full search micro-bench document (the
/// `results/BENCH_search.json` schema): run parameters, the measuring
/// host's core count, and one [`SearchPoint`] object per searcher
/// count.
pub fn search_curve_json(meta: &[(&str, f64)], cores: usize, points: &[SearchPoint]) -> String {
    let mut w = xar_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("search_microbench");
    for (k, v) in meta {
        w.key(k);
        w.number_f64(*v);
    }
    w.key("cores");
    w.number_u64(cores as u64);
    w.key("points");
    w.begin_array();
    for p in points {
        w.raw(&p.to_json());
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::request_of;
    use crate::trips::{generate_trips, TripGenConfig};
    use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig};

    fn fixture() -> (Arc<RegionIndex>, Vec<Trip>, SimConfig) {
        let graph = Arc::new(CityConfig::test_city(21).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 200, ..Default::default() });
        let region = Arc::new(RegionIndex::build(
            Arc::clone(&graph),
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(250.0), ..Default::default() },
        ));
        let trips = generate_trips(&graph, &TripGenConfig { count: 200, ..Default::default() });
        (region, trips, SimConfig::default())
    }

    #[test]
    fn measures_a_point_against_a_populated_engine() {
        let (region, trips, cfg) = fixture();
        let split = trips.len() * 3 / 4;
        let engine = populated_engine(
            &region,
            &xar_core::EngineConfig::default(),
            &trips[..split],
            &cfg,
            4,
        );
        assert!(engine.ride_count() > 0, "population left no rides to search");
        let reqs: Vec<RideRequest> = trips.iter().map(|t| request_of(t, &cfg)).collect();
        let p = run_search_point(&engine, &reqs, &trips[split..], &cfg, 2, 400);
        assert_eq!(p.threads, 2);
        assert_eq!(p.searches, 400);
        assert!(p.p50_ns > 0.0 && p.p99_ns >= p.p50_ns);
        let json = p.to_json();
        assert!(json.contains("\"search_p99_ns\""), "{json}");
    }

    #[test]
    fn curve_json_carries_schema_fields() {
        let points = [SearchPoint {
            threads: 1,
            searches: 10,
            matches: 3,
            p50_ns: 1_000.0,
            p99_ns: 2_000.0,
        }];
        let json = search_curve_json(&[("trips", 10.0)], 1, &points);
        assert!(json.contains("\"search_microbench\""), "{json}");
        assert!(json.contains("\"cores\""), "{json}");
        assert!(json.contains("\"points\""), "{json}");
    }
}
