//! Write-path micro-benchmark driver (`results/BENCH_write.json`).
//!
//! The search micro-bench ([`crate::searchbench`]) isolates the read
//! path; this module isolates the **write path**: a pre-populated
//! [`ShardedXarEngine`] takes a pure booking storm (no creates, no
//! searches inside the timed section) and we measure what each booking
//! costs end-to-end — the route splice plus the snapshot publish — at
//! increasing shard population. The same storm is replayed twice
//! against identical engines, once with incremental publication (the
//! default: only dirty cluster segments rebuilt, the rest `Arc`-shared)
//! and once forced down the full-rebuild path
//! ([`ShardedXarEngine::set_full_publish`]). The paper's dynamic-
//! insertion analysis demands the former scale with the touched
//! clusters, not the shard. The sweep therefore grows the **city**
//! with the population (side ∝ √mult, constant rides-per-cluster):
//! a booking's dirty set is bounded by its detour budget and stays
//! fixed while `rides` and `clusters` grow 8×, so in
//! `results/BENCH_write.json` the `publish_p50_ns` column should stay
//! flat-ish as `rides` grows while `full_publish_p50_ns` climbs with
//! the shard. Schema in EXPERIMENTS.md.

use std::sync::Arc;
use std::time::Instant;

use xar_core::{ShardedXarEngine, XarError};

use crate::report::percentile_ns;
use crate::backend::{offer_of, request_of};
use crate::sim::SimConfig;
use crate::trips::Trip;

/// One measured point of the write micro-bench: booking and publish
/// latency percentiles at a fixed pre-populated ride count, incremental
/// vs full-rebuild publication.
#[derive(Debug, Clone)]
pub struct WritePoint {
    /// Population multiplier for this point — the sweep's join key.
    /// Unlike `rides` it is stable across city sizes, so a CI smoke
    /// run on a small city still shares points with the committed
    /// baseline curve.
    pub mult: usize,
    /// Live rides in the engine when the booking storm starts.
    pub rides: usize,
    /// Clusters in this point's region — grows with `rides` in the
    /// constant-density sweep while `dirty_clusters_mean` stays flat.
    pub clusters: usize,
    /// Successful bookings in the incremental-mode storm.
    pub bookings: u64,
    /// Median / tail end-to-end booking latency (incremental mode),
    /// nanoseconds — includes the snapshot publish.
    pub book_p50_ns: f64,
    /// Tail booking latency (incremental mode), nanoseconds.
    pub book_p99_ns: f64,
    /// Median / tail snapshot publish cost under incremental
    /// publication, nanoseconds.
    pub publish_p50_ns: f64,
    /// Tail incremental publish cost, nanoseconds.
    pub publish_p99_ns: f64,
    /// Median / tail publish cost with every publish forced down the
    /// full-rebuild path — the comparison series.
    pub full_publish_p50_ns: f64,
    /// Tail full-rebuild publish cost, nanoseconds.
    pub full_publish_p99_ns: f64,
    /// Mean dirty clusters drained per publish (incremental mode) —
    /// the quantity incremental cost is proportional to.
    pub dirty_clusters_mean: f64,
    /// Publishes that actually took the patching path (vs falling back
    /// to a full rebuild on the ≥half-dirty heuristic).
    pub partial_publishes: u64,
}

impl WritePoint {
    /// This point as one JSON object (the element schema of the
    /// `points` array in `results/BENCH_write.json`, see
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut w = xar_obs::json::JsonWriter::new();
        w.begin_object();
        w.key("mult");
        w.number_u64(self.mult as u64);
        w.key("rides");
        w.number_u64(self.rides as u64);
        w.key("clusters");
        w.number_u64(self.clusters as u64);
        w.key("bookings");
        w.number_u64(self.bookings);
        w.key("book_p50_ns");
        w.number_f64(self.book_p50_ns);
        w.key("book_p99_ns");
        w.number_f64(self.book_p99_ns);
        w.key("publish_p50_ns");
        w.number_f64(self.publish_p50_ns);
        w.key("publish_p99_ns");
        w.number_f64(self.publish_p99_ns);
        w.key("full_publish_p50_ns");
        w.number_f64(self.full_publish_p50_ns);
        w.key("full_publish_p99_ns");
        w.number_f64(self.full_publish_p99_ns);
        w.key("dirty_clusters_mean");
        w.number_f64(self.dirty_clusters_mean);
        w.key("partial_publishes");
        w.number_u64(self.partial_publishes);
        w.end_object();
        w.finish()
    }
}

/// Booking-storm measurements against one engine configuration.
struct StormStats {
    bookings: u64,
    book_p50_ns: f64,
    book_p99_ns: f64,
    publish_p50_ns: f64,
    publish_p99_ns: f64,
    dirty_clusters_mean: f64,
    partial_publishes: u64,
}

/// A fresh engine populated with `populate` as ride offers (pure
/// creates — full ride-count control, unlike the protocol replay).
fn fresh_engine(
    region: &Arc<xar_discretize::RegionIndex>,
    engine_cfg: &xar_core::EngineConfig,
    populate: &[Trip],
    cfg: &SimConfig,
    shards: usize,
) -> ShardedXarEngine {
    let engine = ShardedXarEngine::new(Arc::clone(region), engine_cfg.clone(), shards);
    for t in populate {
        let _ = engine.create_ride(&offer_of(t, cfg));
    }
    engine
}

/// Drive `book_feed` as a booking storm: search (untimed), book the
/// best match (timed — this is the write path under measurement).
/// Publish cost and dirty-cluster fan-out are read back as deltas of
/// the engine's own `engine.snapshot_publish_ns` /
/// `snapshot.dirty_clusters` histograms, so the numbers are exactly
/// what production telemetry would report.
fn run_storm(engine: &ShardedXarEngine, book_feed: &[Trip], cfg: &SimConfig) -> StormStats {
    let m = engine.metrics();
    let publish_before = m.snapshot_publish_ns.snapshot();
    let dirty_before = m.snapshot_dirty_clusters.snapshot();
    let partial_before = m.snapshot_partial_publishes.get();
    let mut book_ns: Vec<u64> = Vec::with_capacity(book_feed.len());
    let mut bookings = 0u64;
    for trip in book_feed {
        let Ok(matches) = engine.search(&request_of(trip, cfg), 4) else { continue };
        for mm in &matches {
            let t0 = Instant::now();
            let res = engine.book_checked(mm);
            book_ns.push(t0.elapsed().as_nanos() as u64);
            match res {
                Ok(_) => {
                    bookings += 1;
                    break;
                }
                // Stale matches fall through; a missing ride means the
                // match crossed a tracking retirement, also fine.
                Err(XarError::NoSeats(_) | XarError::DetourExceeded { .. }) => continue,
                Err(_) => break,
            }
        }
    }
    let publish = m.snapshot_publish_ns.snapshot().delta(&publish_before);
    let dirty = m.snapshot_dirty_clusters.snapshot().delta(&dirty_before);
    StormStats {
        bookings,
        book_p50_ns: percentile_ns(&book_ns, 50.0),
        book_p99_ns: percentile_ns(&book_ns, 99.0),
        publish_p50_ns: publish.quantile(50.0) as f64,
        publish_p99_ns: publish.quantile(99.0) as f64,
        dirty_clusters_mean: dirty.sum as f64 / dirty.count.max(1) as f64,
        partial_publishes: m.snapshot_partial_publishes.get() - partial_before,
    }
}

/// Measure one [`WritePoint`]: populate two identical engines with
/// `populate`, storm both with `book_feed` — the first under
/// incremental publication, the second forced full-rebuild — and fuse
/// the two runs into one point keyed by the ride count.
pub fn run_write_point(
    region: &Arc<xar_discretize::RegionIndex>,
    engine_cfg: &xar_core::EngineConfig,
    populate: &[Trip],
    book_feed: &[Trip],
    cfg: &SimConfig,
    shards: usize,
    mult: usize,
) -> WritePoint {
    let incremental = fresh_engine(region, engine_cfg, populate, cfg, shards);
    let rides = incremental.ride_count();
    let inc = run_storm(&incremental, book_feed, cfg);

    let full_engine = fresh_engine(region, engine_cfg, populate, cfg, shards);
    full_engine.set_full_publish(true);
    let full = run_storm(&full_engine, book_feed, cfg);

    WritePoint {
        mult,
        rides,
        clusters: region.cluster_count(),
        bookings: inc.bookings,
        book_p50_ns: inc.book_p50_ns,
        book_p99_ns: inc.book_p99_ns,
        publish_p50_ns: inc.publish_p50_ns,
        publish_p99_ns: inc.publish_p99_ns,
        full_publish_p50_ns: full.publish_p50_ns,
        full_publish_p99_ns: full.publish_p99_ns,
        dirty_clusters_mean: inc.dirty_clusters_mean,
        partial_publishes: inc.partial_publishes,
    }
}

/// Assemble a full write micro-bench document (the
/// `results/BENCH_write.json` schema): run parameters, the measuring
/// host's core count, and one [`WritePoint`] object per population
/// size.
pub fn write_curve_json(meta: &[(&str, f64)], cores: usize, points: &[WritePoint]) -> String {
    let mut w = xar_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("write_microbench");
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
    use crate::trips::{generate_trips, TripGenConfig};
    use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig};

    fn fixture() -> (Arc<RegionIndex>, Vec<Trip>, SimConfig) {
        let graph = Arc::new(CityConfig::test_city(23).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 200, ..Default::default() });
        let region = Arc::new(RegionIndex::build(
            Arc::clone(&graph),
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(250.0), ..Default::default() },
        ));
        let trips = generate_trips(&graph, &TripGenConfig { count: 240, ..Default::default() });
        (region, trips, SimConfig::default())
    }

    #[test]
    fn measures_a_point_with_both_publish_modes() {
        let (region, trips, cfg) = fixture();
        // Interleave: trips are time-sorted, so a head/tail split would
        // leave the storm's request windows after every ride departed.
        let populate: Vec<Trip> = trips.iter().step_by(2).copied().collect();
        let book_feed: Vec<Trip> = trips.iter().skip(1).step_by(2).copied().collect();
        let p = run_write_point(
            &region,
            &xar_core::EngineConfig::default(),
            &populate,
            &book_feed,
            &cfg,
            4,
            1,
        );
        assert_eq!(p.mult, 1);
        assert_eq!(p.clusters, region.cluster_count());
        assert!(p.rides > 0, "population must create rides");
        assert!(p.bookings > 0, "storm must land bookings");
        assert!(p.book_p50_ns > 0.0 && p.book_p99_ns >= p.book_p50_ns);
        assert!(p.publish_p50_ns > 0.0, "incremental publishes must be measured");
        assert!(p.full_publish_p50_ns > 0.0, "full publishes must be measured");
        let json = p.to_json();
        assert!(json.contains("\"full_publish_p50_ns\""), "{json}");
        assert!(json.contains("\"dirty_clusters_mean\""), "{json}");
    }

    #[test]
    fn curve_json_carries_schema_fields() {
        let points = [WritePoint {
            mult: 1,
            rides: 100,
            clusters: 12,
            bookings: 50,
            book_p50_ns: 1_000.0,
            book_p99_ns: 5_000.0,
            publish_p50_ns: 200.0,
            publish_p99_ns: 900.0,
            full_publish_p50_ns: 4_000.0,
            full_publish_p99_ns: 9_000.0,
            dirty_clusters_mean: 6.5,
            partial_publishes: 40,
        }];
        let json = write_curve_json(&[("trips", 10.0)], 1, &points);
        assert!(json.contains("\"write_microbench\""), "{json}");
        assert!(json.contains("\"cores\""), "{json}");
        assert!(json.contains("\"mult\""), "{json}");
        assert!(json.contains("\"rides\""), "{json}");
    }
}
