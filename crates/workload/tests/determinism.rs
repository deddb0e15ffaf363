//! Determinism and protocol-conservation tests of the simulation
//! framework: identical seeds must give bit-identical outcomes, since
//! every component (city, POIs, clustering, trips, engines) is seeded.

use std::sync::Arc;

use xar_core::{EngineConfig, ShardedXarEngine, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, PoiConfig, RoadGraph};
use xar_workload::backend::{offer_of, request_of};
use xar_workload::{generate_trips, run_simulation, SimConfig, Trip, TripGenConfig, XarBackend};

fn fixture() -> (Arc<RoadGraph>, Arc<RegionIndex>) {
    let graph = Arc::new(CityConfig::manhattan(25, 25, 99).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 600,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(200.0),
            ..Default::default()
        },
    ));
    (graph, region)
}

#[test]
fn identical_seeds_identical_outcomes() {
    let (graph, region) = fixture();
    let run = |g: &Arc<RoadGraph>, r: &Arc<RegionIndex>| {
        let trips = generate_trips(
            g,
            &TripGenConfig {
                count: 500,
                ..Default::default()
            },
        );
        let mut backend = XarBackend::new(XarEngine::new(Arc::clone(r), EngineConfig::default()));
        let rep = run_simulation(&mut backend, &trips, &SimConfig::default());
        (
            rep.booked,
            rep.created,
            rep.matches_returned,
            rep.detour_actual_m,
            rep.walk_m,
        )
    };
    let a = run(&graph, &region);
    let b = run(&graph, &region);
    assert_eq!(a.0, b.0, "booked counts diverge");
    assert_eq!(a.1, b.1, "created counts diverge");
    assert_eq!(a.2, b.2, "match counts diverge");
    assert_eq!(a.3, b.3, "detours diverge (non-deterministic engine state)");
    assert_eq!(a.4, b.4, "walk distances diverge");
}

#[test]
fn whole_pipeline_is_seed_reproducible() {
    // Rebuild EVERYTHING from seeds — city, POIs, region, trips — and
    // compare against the fixture run.
    let run_all = || {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 99).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 600,
                ..Default::default()
            },
        );
        let region = Arc::new(RegionIndex::build(
            Arc::clone(&graph),
            &pois,
            RegionConfig {
                cluster_goal: ClusterGoal::Delta(200.0),
                ..Default::default()
            },
        ));
        let trips = generate_trips(
            &graph,
            &TripGenConfig {
                count: 400,
                ..Default::default()
            },
        );
        let mut backend =
            XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
        let rep = run_simulation(&mut backend, &trips, &SimConfig::default());
        (
            region.cluster_count(),
            region.epsilon_m(),
            rep.booked,
            rep.created,
        )
    };
    assert_eq!(run_all(), run_all(), "pipeline is not seed-deterministic");
}

/// `heap_bytes()` after every tracking sweep of one replay of `trips`
/// through the engine handle, as the request-path benchmark replays
/// them: sweep every 10 minutes, search, book the first match that
/// books, else create.
fn heap_per_sweep(region: &Arc<RegionIndex>, trips: &[Trip]) -> Vec<usize> {
    let cfg = SimConfig::default();
    let eng = ShardedXarEngine::new(Arc::clone(region), EngineConfig::default(), 8);
    let (mut heap, mut matches) = (Vec::new(), Vec::new());
    let mut next_track = trips[0].pickup_s;
    for trip in trips {
        while trip.pickup_s >= next_track {
            eng.track_all(next_track);
            heap.push(eng.heap_bytes());
            next_track += 600.0;
        }
        if eng
            .search_into(&request_of(trip, &cfg), usize::MAX, &mut matches)
            .is_err()
        {
            matches.clear();
        }
        if !matches.iter().any(|m| eng.book_checked(m).is_ok()) {
            let _ = eng.create_ride(&offer_of(trip, &cfg));
        }
    }
    heap
}

/// The heap account repeats for one schedule: the ride table's layout
/// and capacity depend only on the inserts and removals made, not on a
/// per-process hash seed.
#[test]
fn heap_bytes_repeat_at_every_sweep_for_one_schedule() {
    let (graph, region) = fixture();
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 3_000,
            seed: 11,
            ..Default::default()
        },
    );
    let first = heap_per_sweep(&region, &trips);
    assert!(first.len() >= 30, "only {} sweeps", first.len());
    let again = heap_per_sweep(&region, &trips);
    let differ = first.iter().zip(&again).filter(|(a, b)| a != b).count();
    assert_eq!(
        differ,
        0,
        "heap_bytes() differed at {differ} of {} sweeps",
        first.len()
    );
}

#[test]
fn larger_walking_limits_never_reduce_shares() {
    // Monotonicity: a more permissive walking limit can only help.
    let (graph, region) = fixture();
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 500,
            seed: 3,
            ..Default::default()
        },
    );
    let share_at = |walk: f64| {
        let mut backend =
            XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
        let rep = run_simulation(
            &mut backend,
            &trips,
            &SimConfig {
                walk_limit_m: walk,
                ..Default::default()
            },
        );
        rep.booked
    };
    let tight = share_at(200.0);
    let loose = share_at(800.0);
    // Not strictly monotone per-trip (supply dynamics shift), but a 4x
    // walking budget must not lose a large fraction of shares.
    assert!(
        loose as f64 >= tight as f64 * 0.9,
        "walk 800 m booked {loose} < walk 200 m booked {tight}"
    );
}

#[test]
fn wider_windows_never_reduce_shares_substantially() {
    let (graph, region) = fixture();
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 500,
            seed: 4,
            ..Default::default()
        },
    );
    let share_at = |window: f64| {
        let mut backend =
            XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
        let rep = run_simulation(
            &mut backend,
            &trips,
            &SimConfig {
                window_s: window,
                ..Default::default()
            },
        );
        rep.booked
    };
    let tight = share_at(300.0);
    let loose = share_at(2_400.0);
    assert!(
        loose as f64 >= tight as f64 * 0.9,
        "wider window lost shares: {loose} vs {tight}"
    );
}
