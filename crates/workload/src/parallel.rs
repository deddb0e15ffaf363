//! Multi-threaded closed-loop simulation driver.
//!
//! The serial driver ([`crate::sim::run_simulation`]) replays trips
//! from one thread — fine for measuring algorithmic latencies, useless
//! for measuring engine *scaling*. This module runs the same replay
//! loop from `N` closed-loop worker threads at once:
//!
//! * Every worker drives its own **clone** of the backend, so the one
//!   [`RideBackend`] trait serves both drivers. The clones must share
//!   the system under test — [`ShardedXarBackend`] clones an engine
//!   *handle* — or the workers would replay into `N` separate worlds.
//! * Trips are dealt **round-robin** (thread `t` replays trips
//!   `t, t+N, t+2N, …`), so each thread's private stream stays sorted
//!   by request time and the interleaving across threads approximates
//!   the serial arrival order — no thread runs ahead into "the future"
//!   by more than its stride.
//! * Each thread runs the §X.A.2 protocol (request tracing, wide events
//!   and all) against the shared engine and accumulates a private
//!   [`SimReport`]; the partial reports are merged after the join.
//!   Outcome counters (`sim.requests{outcome=…}`, `sim.requests_total`)
//!   are recorded into the shared registry as the run progresses, so
//!   live dashboards see the parallel run exactly like a serial one.
//! * Thread 0 doubles as the **tracker**: it advances simulated time
//!   and runs the periodic tracking sweeps, mirroring a deployment
//!   where tracking is one background task competing with foreground
//!   request traffic.

use std::sync::Arc;
use std::time::Instant;

use xar_core::ShardedXarEngine;
use xar_obs::Registry;

use crate::backend::ShardedXarBackend;
use crate::report::SimReport;
use crate::sim::{RideBackend, SimConfig};
use crate::trips::Trip;

/// Replay `trips` through clones of `backend` from `threads`
/// closed-loop workers (clamped to ≥ 1), each over its private trip
/// slice against the shared engine. Returns the merged report. Thread
/// `t` replays every `threads`-th trip starting at `t`; thread 0
/// additionally runs the tracking sweeps at `cfg.track_every_s`
/// intervals of simulated time.
///
/// With `threads == 1` this is exactly the serial driver on one clone.
pub fn run_parallel_dispatch<B: RideBackend + Clone + Send>(
    backend: &B,
    trips: &[Trip],
    cfg: &SimConfig,
    threads: usize,
) -> SimReport {
    let threads = threads.max(1);
    let registry = backend.registry().unwrap_or_else(|| Arc::new(Registry::new()));
    // Thread 0 doubles as the tracker; the rest never run sweeps.
    let untracked = SimConfig { track_every_s: None, ..cfg.clone() };
    let mut partials: Vec<SimReport> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let mut worker = backend.clone();
                let cfg = if t == 0 { cfg } else { &untracked };
                scope.spawn(move || {
                    let slice: Vec<Trip> =
                        trips.iter().skip(t).step_by(threads).copied().collect();
                    crate::dispatch::run_dispatch(&mut worker, &slice, cfg, registry)
                })
            })
            .collect();
        for h in handles {
            // A worker panic is a test/bench failure; propagate it.
            partials.push(h.join().expect("simulation worker panicked"));
        }
    });
    let mut report = SimReport::default();
    for p in partials {
        report.merge(p);
    }
    report.registry = Some(registry);
    report
}

/// One measured point of the engine scaling curve: a full closed-loop
/// replay at a fixed worker count, with throughput, latency tails and a
/// post-run capacity audit. Produced by [`run_scaling_point`]; consumed
/// by `xar bench` and the `bench_engine` harness
/// (`results/BENCH_engine.json`, schema in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker threads driving the closed loop.
    pub threads: usize,
    /// Shards in the engine under test.
    pub shards: usize,
    /// Wall-clock seconds for the whole replay.
    pub wall_s: f64,
    /// Requests resolved per wall-clock second.
    pub requests_per_s: f64,
    /// Searches issued per wall-clock second (the paper's dominant
    /// operation under a high look-to-book ratio).
    pub searches_per_s: f64,
    /// Median search latency, nanoseconds.
    pub search_p50_ns: f64,
    /// Tail search latency, nanoseconds.
    pub search_p99_ns: f64,
    /// Requests served by sharing an existing ride.
    pub booked: u64,
    /// Requests that created a new ride.
    pub created: u64,
    /// Requests that could do neither.
    pub unservable: u64,
    /// Rides whose bookings exceed their offered seats — must be 0;
    /// non-zero means the engine lost a seat update under concurrency.
    pub overbooked_rides: u64,
}

impl ScalingPoint {
    /// This point as one JSON object (the element schema of the
    /// `points` array in `results/BENCH_engine.json`, see
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut w = xar_obs::json::JsonWriter::new();
        w.begin_object();
        w.key("threads");
        w.number_u64(self.threads as u64);
        w.key("shards");
        w.number_u64(self.shards as u64);
        w.key("wall_s");
        w.number_f64(self.wall_s);
        w.key("requests_per_s");
        w.number_f64(self.requests_per_s);
        w.key("searches_per_s");
        w.number_f64(self.searches_per_s);
        w.key("search_p50_ns");
        w.number_f64(self.search_p50_ns);
        w.key("search_p99_ns");
        w.number_f64(self.search_p99_ns);
        w.key("booked");
        w.number_u64(self.booked);
        w.key("created");
        w.number_u64(self.created);
        w.key("unservable");
        w.number_u64(self.unservable);
        w.key("overbooked_rides");
        w.number_u64(self.overbooked_rides);
        w.end_object();
        w.finish()
    }
}

/// Assemble a full engine-scaling curve document (the
/// `results/BENCH_engine.json` schema): run parameters, the measuring
/// host's core count, and one [`ScalingPoint`] object per worker count.
pub fn scaling_curve_json(
    meta: &[(&str, f64)],
    cores: usize,
    points: &[ScalingPoint],
) -> String {
    let mut w = xar_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("engine_scaling");
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

/// Replay `trips` through a fresh `shards`-shard engine with `threads`
/// closed-loop workers and measure one [`ScalingPoint`]. The engine is
/// built inside so successive points (1/2/4/8 threads) start from
/// identical empty state.
pub fn run_scaling_point(
    region: &Arc<xar_discretize::RegionIndex>,
    engine_cfg: &xar_core::EngineConfig,
    trips: &[Trip],
    cfg: &SimConfig,
    threads: usize,
    shards: usize,
) -> ScalingPoint {
    let backend = ShardedXarBackend::new(ShardedXarEngine::new(
        Arc::clone(region),
        engine_cfg.clone(),
        shards,
    ));
    let t0 = Instant::now();
    let report = run_parallel_dispatch(&backend, trips, cfg, threads);
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let mut overbooked = 0u64;
    backend.engine.for_each_ride(|r| {
        if r.bookings.len() > usize::from(cfg.seats) {
            overbooked += 1;
        }
    });
    ScalingPoint {
        threads: threads.max(1),
        shards: backend.engine.shard_count(),
        wall_s,
        requests_per_s: (report.booked + report.created + report.unservable) as f64 / wall_s,
        searches_per_s: report.looks as f64 / wall_s,
        search_p50_ns: crate::report::percentile_ns(&report.search_ns, 50.0),
        search_p99_ns: crate::report::percentile_ns(&report.search_ns, 99.0),
        booked: report.booked,
        created: report.created,
        unservable: report.unservable,
        overbooked_rides: overbooked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trips::{generate_trips, TripGenConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use xar_core::Reason;

    use crate::sim::BookResult;

    /// A scripted backend to validate driver mechanics without an
    /// engine: clones share the counters, as clones of a real backend
    /// share the engine.
    #[derive(Clone, Default)]
    struct CountingBackend {
        searches: Arc<AtomicU64>,
        creates: Arc<AtomicU64>,
        tracks: Arc<AtomicU64>,
    }

    impl RideBackend for CountingBackend {
        type Match = ();
        fn search(&mut self, _: &Trip, _: &SimConfig) -> Vec<()> {
            self.searches.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
        fn book(&mut self, _: &(), _: &SimConfig) -> BookResult {
            BookResult::Failed(Reason::StaleCommit)
        }
        fn create(&mut self, _: &Trip, _: &SimConfig) -> Result<(), Reason> {
            self.creates.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn track(&mut self, _: f64) {
            self.tracks.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_trip_is_replayed_exactly_once() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 101, ..Default::default() });
        let b = CountingBackend::default();
        let cfg = SimConfig { track_every_s: Some(600.0), ..Default::default() };
        let r = run_parallel_dispatch(&b, &trips, &cfg, 4);
        assert_eq!(b.searches.load(Ordering::Relaxed), 101);
        assert_eq!(b.creates.load(Ordering::Relaxed), 101);
        assert!(b.tracks.load(Ordering::Relaxed) > 0, "thread 0 must run sweeps");
        assert_eq!(r.looks, 101);
        assert_eq!(r.created, 101);
        assert_eq!(r.booked + r.created + r.unservable, 101);
        // Registry counters agree with the merged report.
        let reg = r.registry.as_ref().unwrap();
        assert_eq!(reg.counter("sim.requests_total").get(), 101);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 10, ..Default::default() });
        let cfg = SimConfig { track_every_s: None, ..Default::default() };
        let b = CountingBackend::default();
        let r = run_parallel_dispatch(&b, &trips, &cfg, 0);
        assert_eq!(r.looks, 10);
    }

    #[test]
    fn per_thread_slices_stay_time_sorted() {
        let g = xar_roadnet::CityConfig::test_city(11).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 40, ..Default::default() });
        for t in 0..4 {
            let slice: Vec<&Trip> = trips.iter().skip(t).step_by(4).collect();
            assert!(slice.windows(2).all(|w| w[0].pickup_s <= w[1].pickup_s));
        }
    }
}
