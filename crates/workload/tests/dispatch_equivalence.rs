//! The replay driver makes the decisions of the §X.A.2 protocol: the
//! protocol is re-implemented here, telemetry-free, as the oracle, and
//! the driver must reproduce it.
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
    generate_trips, run_simulation, BookResult, Decision, DecisionOutcome, RideBackend, SimConfig,
    Trip, TripGenConfig, XarBackend,
};

/// One shared region per test binary: building it is the expensive
/// part and it is immutable.
fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 4321).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 600,
                ..Default::default()
            },
        );
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig {
                cluster_goal: ClusterGoal::Delta(200.0),
                ..Default::default()
            },
        ))
    })
}

fn backend() -> XarBackend {
    XarBackend::new(XarEngine::new(
        Arc::clone(region()),
        EngineConfig::default(),
    ))
}

fn trips(count: usize, seed: u64) -> Vec<Trip> {
    generate_trips(
        region().graph(),
        &TripGenConfig {
            count,
            seed,
            ..Default::default()
        },
    )
}

/// The serial §X.A.2 protocol, decision-relevant parts only: tracking
/// sweeps at `track_every_s`, search, book the matches in order
/// falling through stale entries, else create. This is the oracle the
/// driver must reproduce decision-for-decision.
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
        let booked = backend
            .search(trip, cfg)
            .0
            .iter()
            .find_map(|m| match backend.book(m, cfg) {
                BookResult::Booked { ride, .. } => Some(ride),
                BookResult::Failed(_) => None,
            });
        let outcome = match booked {
            Some(ride) => DecisionOutcome::Booked { ride },
            None if backend.create(trip, cfg).is_ok() => DecisionOutcome::Created,
            None => DecisionOutcome::Unservable,
        };
        out.push(Decision {
            trip_id: trip.id,
            outcome,
        });
    }
    out
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        track_every_s: Some(600.0),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Driver over the serial engine ≡ oracle.
    #[test]
    fn driver_equals_reference_loop(seed in 0u64..10_000, count in 60usize..220) {
        let cfg = sim_cfg();
        let ts = trips(count, seed);
        let oracle = reference_decisions(&mut backend(), &ts, &cfg);
        let driven = run_simulation(&mut backend(), &ts, &cfg).decisions;
        prop_assert_eq!(oracle, driven);
    }
}
