//! The only file that calls into the repository's crates or its `xar`
//! binary. The surface used here is frozen (see README.md, "Adapter
//! surface"): a later change that needs a different one is preceded by
//! its own benchmark issue, so that a refactor cannot move the
//! measuring stick while it is being measured.
//!
//! Deliberately absent: `run_dispatch`, `RideBackend`,
//! `ConcurrentBackend`, `XarEngine`, `SharedXarEngine` (ROADMAP items
//! 3 and 4 exist to merge or delete them).

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;
use std::time::Instant;

use xar_core::{BookingOutcome, EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph, ShortestPaths};
use xar_workload::{generate_trips, TripGenConfig};

pub use xar_core::RideMatch;
pub use xar_workload::Trip;

/// Seed of the fixed benchmark map (the `BenchCity` fixture's).
pub const CITY_SEED: u64 = 0xC17;
/// Seed of the fixed trip dataset (the generator's default).
pub const DATASET_SEED: u64 = 0x7A11;
/// Engine shards.
pub const SHARDS: usize = 8;
/// Rider walking limit, metres.
pub const WALK_LIMIT_M: f64 = 800.0;
/// Pick-up window width, seconds.
pub const WINDOW_S: f64 = 1_200.0;
/// Seats offered by a created ride.
pub const SEATS: u8 = 3;
/// Detour budget of a created ride, metres.
pub const DETOUR_LIMIT_M: f64 = 4_000.0;
/// Most shortest paths one booking may compute (paper §VIII).
pub const MAX_SP_PER_BOOKING: usize = 4;

/// The fixed road network and its landmark source.
pub struct City {
    graph: Arc<RoadGraph>,
    side: usize,
}

impl City {
    /// `side × side` Manhattan lattice with the fixed map seed.
    pub fn generate(side: usize) -> Self {
        Self {
            graph: Arc::new(CityConfig::manhattan(side, side, CITY_SEED).generate()),
            side,
        }
    }

    /// The `BenchCity` region: POIs `side²/2`, landmark separation
    /// 220 m, δ = 250 m, walking reach 1 000 m.
    pub fn build_region(&self) -> Region {
        let pois = sample_pois(
            &self.graph,
            &PoiConfig {
                count: self.side * self.side / 2,
                ..Default::default()
            },
        );
        Region(Arc::new(RegionIndex::build(
            Arc::clone(&self.graph),
            &pois,
            RegionConfig {
                landmark_separation_m: 220.0,
                cluster_goal: ClusterGoal::Delta(250.0),
                max_walk_m: 1_000.0,
                ..Default::default()
            },
        )))
    }

    /// A simulated day of `count` trips from the repository's
    /// generator.
    pub fn trips(&self, count: usize, seed: u64) -> Vec<Trip> {
        generate_trips(
            &self.graph,
            &TripGenConfig {
                count,
                seed,
                ..Default::default()
            },
        )
    }

    /// Driving distance of the shortest path, `None` when unroutable.
    pub fn path_m(&self, a: Node, b: Node) -> Option<f64> {
        ShortestPaths::driving(&self.graph)
            .path(a.0, b.0)
            .map(|p| p.dist_m)
    }
}

/// A snapped road node.
#[derive(Clone, Copy)]
pub struct Node(NodeId);

/// The discretized region (immutable pre-processing output).
#[derive(Clone)]
pub struct Region(Arc<RegionIndex>);

impl Region {
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.0.save(path)
    }

    pub fn load(path: &Path) -> std::io::Result<Self> {
        RegionIndex::load(path).map(|r| Self(Arc::new(r)))
    }

    pub fn clusters(&self) -> usize {
        self.0.cluster_count()
    }

    pub fn landmarks(&self) -> usize {
        self.0.landmark_count()
    }

    pub fn epsilon_m(&self) -> f64 {
        self.0.epsilon_m()
    }

    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// Snap the trip's two end-points to road nodes.
    pub fn snap(&self, trip: &Trip) -> (Node, Node) {
        (
            Node(self.0.snap_exact(&trip.pickup)),
            Node(self.0.snap_exact(&trip.dropoff)),
        )
    }
}

/// Crow-flies length of a trip, metres.
pub fn crow_m(trip: &Trip) -> f64 {
    trip.pickup.haversine_m(&trip.dropoff)
}

/// What a successful booking reports.
pub struct Booked {
    pub ride: u64,
    pub walk_m: f64,
    pub detour_m: f64,
    pub shortest_paths: usize,
}

/// `(count, sum)` of one of the engine's public histogram series; both
/// zero when the series does not exist.
#[derive(Clone, Copy, Default)]
pub struct Series {
    pub count: u64,
    pub sum: u64,
}

impl Series {
    pub fn since(self, earlier: Series) -> Series {
        Series {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }
}

/// The system under test: the sharded engine behind its public API.
pub struct Engine(ShardedXarEngine);

impl Engine {
    pub fn new(region: &Region) -> Self {
        Self(ShardedXarEngine::new(
            Arc::clone(&region.0),
            EngineConfig::default(),
            SHARDS,
        ))
    }

    /// Search (`k` = all) for `trip`'s window and drop-off with
    /// `from`'s pick-up (`from` is `trip` itself except for looks).
    /// An unservable request yields no matches.
    pub fn search(&self, from: &Trip, trip: &Trip, out: &mut Vec<RideMatch>) {
        let req = RideRequest {
            source: from.pickup,
            destination: trip.dropoff,
            window_start_s: trip.pickup_s,
            window_end_s: trip.pickup_s + WINDOW_S,
            walk_limit_m: WALK_LIMIT_M,
        };
        if self.0.search_into(&req, usize::MAX, out).is_err() {
            out.clear();
        }
    }

    pub fn book(&self, m: &RideMatch) -> Option<Booked> {
        let o: BookingOutcome = self.0.book_checked(m).ok()?;
        Some(Booked {
            ride: o.ride.0,
            walk_m: o.walk_total_m,
            detour_m: o.actual_detour_m,
            shortest_paths: o.shortest_paths,
        })
    }

    /// Offer `trip` as a new ride; its id, or `None` when refused.
    pub fn create(&self, trip: &Trip) -> Option<u64> {
        self.0
            .create_ride(&RideOffer {
                source: trip.pickup,
                destination: trip.dropoff,
                departure_s: trip.pickup_s,
                seats: SEATS,
                detour_limit_m: DETOUR_LIMIT_M,
                driver: None,
                via: Vec::new(),
            })
            .ok()
            .map(|id| id.0)
    }

    /// Tracking sweep; returns the rides retired.
    pub fn track(&self, now_s: f64) -> usize {
        self.0.track_all(now_s)
    }

    pub fn ride_count(&self) -> usize {
        self.0.ride_count()
    }

    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// Live rides holding more bookings than the seats they offered.
    pub fn overbooked_rides(&self) -> usize {
        let mut n = 0;
        self.0
            .for_each_ride(|r| n += usize::from(r.bookings.len() > usize::from(SEATS)));
        n
    }

    pub fn series(&self, name: &str) -> Series {
        let h = self.0.registry().histogram(name);
        Series {
            count: h.count(),
            sum: h.snapshot().sum,
        }
    }
}

/// Cost of one `Histogram::record` on a registry series, ns.
pub fn hist_record_ns(iters: u64) -> f64 {
    let h = xar_obs::Registry::new().histogram("bench.probe_ns");
    let t0 = Instant::now();
    for i in 0..iters {
        h.record(black_box(i));
    }
    black_box(h.count());
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Cost of one `trace::span` open + drop with the recorder off, ns.
pub fn span_disabled_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(xar_obs::trace::span("bench.probe"));
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The shipped binary, driven through its documented flags only.
pub struct Xar<'a>(pub &'a Path);

impl Xar<'_> {
    fn run(&self, args: &[&str]) -> std::io::Result<Output> {
        Command::new(self.0).args(args).output()
    }

    /// `xar build-region` on the fixed map.
    pub fn build_region(&self, side: usize, out: &Path) -> std::io::Result<Output> {
        let (side, seed) = (side.to_string(), CITY_SEED.to_string());
        self.run(&[
            "build-region",
            "--rows",
            &side,
            "--cols",
            &side,
            "--seed",
            &seed,
            "--out",
            &out.to_string_lossy(),
        ])
    }

    /// `xar simulate`; `planes` = (trace file, events file) turns every
    /// file-producing telemetry plane on.
    pub fn simulate(
        &self,
        region: &Path,
        trips: usize,
        seed: u64,
        planes: Option<(&Path, &Path)>,
    ) -> std::io::Result<Output> {
        let (trips, seed, shards) = (trips.to_string(), seed.to_string(), SHARDS.to_string());
        let region = region.to_string_lossy();
        let mut args = vec![
            "simulate",
            "--region",
            &region,
            "--threads",
            "1",
            "--shards",
            &shards,
            "--trips",
            &trips,
            "--seed",
            &seed,
        ];
        let files = planes.map(|(t, e)| (t.to_string_lossy(), e.to_string_lossy()));
        if let Some((t, e)) = &files {
            args.extend(["--trace-out", t, "--trace-sample", "1.0", "--events-out", e]);
        }
        self.run(&args)
    }

    pub fn trace_check(&self, file: &Path) -> std::io::Result<Output> {
        self.run(&["trace", "--in", &file.to_string_lossy(), "--check"])
    }

    pub fn logs_top(&self, file: &Path) -> std::io::Result<Output> {
        self.run(&["logs", "--in", &file.to_string_lossy(), "--top", "1"])
    }
}
