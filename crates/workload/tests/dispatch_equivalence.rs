//! Equivalence properties of the dispatch pipeline (ISSUE 8):
//!
//! 1. `FirstMatch` under the three-stage pipeline makes the same
//!    decisions as the pre-refactor serial simulator (re-implemented
//!    here, telemetry-free, as the oracle).
//! 2. `BatchWindow` with a zero window degenerates to batches of one
//!    and decides exactly like `FirstMatch`.
//! 3. So does `BatchWindow` with any window but a batch-size cap of 1.
//!
//! Decisions — per trip: booked on which ride / created / unservable —
//! are compared as full vectors, so any divergence in outcome, ride
//! choice, or order fails. Seeded trip streams over one shared region
//! keep the property runs deterministic and affordable.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{EngineConfig, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, PoiConfig};
use xar_workload::{
    generate_trips, run_dispatch, run_simulation, BatchWindow, BookResult, Decision,
    DecisionOutcome, RideBackend, SimConfig, Trip, TripGenConfig, XarBackend,
};

/// One shared region per test binary: building it is the expensive
/// part and it is immutable.
fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 4321).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 600, ..Default::default() });
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
        ))
    })
}

fn backend() -> XarBackend {
    XarBackend::new(XarEngine::new(Arc::clone(region()), EngineConfig::default()))
}

fn trips(count: usize, seed: u64) -> Vec<Trip> {
    generate_trips(region().graph(), &TripGenConfig { count, seed, ..Default::default() })
}

/// The pre-refactor serial §X.A.2 protocol, decision-relevant parts
/// only: tracking sweeps at `track_every_s`, search, book the matches
/// in order falling through stale entries, else create. This is the
/// oracle the pipeline must reproduce decision-for-decision.
fn reference_decisions<B: RideBackend>(
    backend: &mut B,
    trips: &[Trip],
    cfg: &SimConfig,
) -> Vec<Decision> {
    let mut out = Vec::with_capacity(trips.len());
    let mut next_track = trips.first().map_or(0.0, |t| t.pickup_s);
    for trip in trips {
        if let Some(every) = cfg.track_every_s {
            while trip.pickup_s >= next_track {
                backend.track(next_track);
                next_track += every;
            }
        }
        for _ in 0..cfg.lookups_per_request {
            let _ = backend.search(trip, cfg);
        }
        let matches = backend.search(trip, cfg);
        let mut booked = None;
        for m in &matches {
            if matches!(backend.book(m, cfg), BookResult::Booked { .. }) {
                booked = Some(B::describe(m).ride);
                break;
            }
        }
        let outcome = match booked {
            Some(ride) => DecisionOutcome::Booked { ride },
            None if backend.create(trip, cfg).is_ok() => DecisionOutcome::Created,
            None => DecisionOutcome::Unservable,
        };
        out.push(Decision { trip_id: trip.id, outcome });
    }
    out
}

fn sim_cfg() -> SimConfig {
    SimConfig { track_every_s: Some(600.0), ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Pipeline `FirstMatch` ≡ pre-refactor serial simulator.
    #[test]
    fn first_match_pipeline_equals_legacy_loop(seed in 0u64..10_000, count in 60usize..220) {
        let cfg = sim_cfg();
        let ts = trips(count, seed);
        let oracle = reference_decisions(&mut backend(), &ts, &cfg);
        let first = run_simulation(&mut backend(), &ts, &cfg).decisions;
        prop_assert_eq!(oracle, first);
    }

    /// `batch:0` (every window closes on arrival) ≡ `FirstMatch`.
    #[test]
    fn batch_zero_equals_first_match(seed in 0u64..10_000, count in 60usize..220) {
        let cfg = sim_cfg();
        let ts = trips(count, seed);
        let first = run_simulation(&mut backend(), &ts, &cfg).decisions;
        let mut zero = BatchWindow::new(0.0, u32::from(cfg.seats));
        let batch = run_dispatch(&mut backend(), &ts, &cfg, &mut zero).decisions;
        prop_assert_eq!(first, batch);
    }

    /// A wide window capped at batch size 1 ≡ `FirstMatch`: joint
    /// assignment over a single request cannot deviate from taking its
    /// best candidate.
    #[test]
    fn batch_size_one_equals_first_match(seed in 0u64..10_000, count in 60usize..220) {
        let cfg = sim_cfg();
        let ts = trips(count, seed);
        let first = run_simulation(&mut backend(), &ts, &cfg).decisions;
        let mut one =
            BatchWindow::new(3_600.0, u32::from(cfg.seats)).with_max_batch(1);
        let batch = run_dispatch(&mut backend(), &ts, &cfg, &mut one).decisions;
        prop_assert_eq!(first, batch);
    }
}

/// The batched path's commit re-validation must never *lose* service:
/// one deterministic mid-size workload where batch:20ms (compressed
/// day) serves at least as many requests as first-match — the Fig. 7
/// claim in miniature.
#[test]
fn batched_dispatch_does_not_lose_service() {
    let cfg = sim_cfg();
    let mut ts = trips(1_500, 77);
    // Compress the day to ~150 req/s so 20 ms windows hold > 1 request.
    let first_s = ts.first().unwrap().pickup_s;
    let span = (ts.last().unwrap().pickup_s - first_s).max(f64::MIN_POSITIVE);
    for t in ts.iter_mut() {
        t.pickup_s = (t.pickup_s - first_s) / span * 10.0;
    }
    let first = run_simulation(&mut backend(), &ts, &cfg);
    let mut policy = BatchWindow::new(0.020, u32::from(cfg.seats));
    let batch = run_dispatch(&mut backend(), &ts, &cfg, &mut policy);
    assert!(batch.window_sizes.iter().any(|&s| s > 1), "windows never batched");
    assert!(
        batch.service_rate() >= first.service_rate(),
        "batch served {:.4} < first-match {:.4}",
        batch.service_rate(),
        first.service_rate(),
    );
}
